//! RGB energy triples.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign};

/// Linear RGB color / spectral energy triple.
///
/// The paper treats color as a fifth histogram dimension that is *not*
/// hierarchically subdivided (ch. 4); each bin simply accumulates energy per
/// channel. `f64` keeps long tallies exact enough for the conservation tests.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Rgb {
    /// Red channel.
    pub r: f64,
    /// Green channel.
    pub g: f64,
    /// Blue channel.
    pub b: f64,
}

impl Rgb {
    /// Black / zero energy.
    pub const BLACK: Rgb = Rgb {
        r: 0.0,
        g: 0.0,
        b: 0.0,
    };
    /// Unit white.
    pub const WHITE: Rgb = Rgb {
        r: 1.0,
        g: 1.0,
        b: 1.0,
    };

    /// Creates a color from channels.
    #[inline]
    pub const fn new(r: f64, g: f64, b: f64) -> Self {
        Rgb { r, g, b }
    }

    /// Gray value `v` in every channel.
    #[inline]
    pub const fn gray(v: f64) -> Self {
        Rgb { r: v, g: v, b: v }
    }

    /// Photometric luminance (Rec. 709 weights).
    #[inline]
    pub fn luminance(self) -> f64 {
        0.2126 * self.r + 0.7152 * self.g + 0.0722 * self.b
    }

    /// Mean of the three channels; used as the Russian-roulette survival
    /// probability for a reflectance color.
    #[inline]
    pub fn mean(self) -> f64 {
        (self.r + self.g + self.b) / 3.0
    }

    /// Largest channel.
    #[inline]
    pub fn max_channel(self) -> f64 {
        self.r.max(self.g).max(self.b)
    }

    /// Componentwise product (filtering light through a reflectance).
    #[inline]
    pub fn filter(self, o: Rgb) -> Rgb {
        Rgb::new(self.r * o.r, self.g * o.g, self.b * o.b)
    }

    /// Gamma-encodes (1/2.2) and quantizes to 8-bit for image output.
    pub fn to_srgb8(self) -> [u8; 3] {
        let enc = |v: f64| -> u8 {
            let c = v.clamp(0.0, 1.0).powf(1.0 / 2.2);
            (c * 255.0 + 0.5) as u8
        };
        [enc(self.r), enc(self.g), enc(self.b)]
    }
}

impl Add for Rgb {
    type Output = Rgb;
    #[inline]
    fn add(self, o: Rgb) -> Rgb {
        Rgb::new(self.r + o.r, self.g + o.g, self.b + o.b)
    }
}

impl AddAssign for Rgb {
    #[inline]
    fn add_assign(&mut self, o: Rgb) {
        *self = *self + o;
    }
}

impl Mul<f64> for Rgb {
    type Output = Rgb;
    #[inline]
    fn mul(self, s: f64) -> Rgb {
        Rgb::new(self.r * s, self.g * s, self.b * s)
    }
}

impl MulAssign<f64> for Rgb {
    #[inline]
    fn mul_assign(&mut self, s: f64) {
        *self = *self * s;
    }
}

impl Div<f64> for Rgb {
    type Output = Rgb;
    #[inline]
    fn div(self, s: f64) -> Rgb {
        Rgb::new(self.r / s, self.g / s, self.b / s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{approx_eq, EPS};

    #[test]
    fn filter_is_componentwise() {
        let light = Rgb::new(1.0, 0.5, 0.25);
        let surf = Rgb::new(0.5, 0.5, 0.0);
        assert_eq!(light.filter(surf), Rgb::new(0.5, 0.25, 0.0));
    }

    #[test]
    fn luminance_weights_sum_to_one() {
        assert!(approx_eq(Rgb::WHITE.luminance(), 1.0, EPS));
    }

    #[test]
    fn srgb8_endpoints() {
        assert_eq!(Rgb::BLACK.to_srgb8(), [0, 0, 0]);
        assert_eq!(Rgb::WHITE.to_srgb8(), [255, 255, 255]);
        // Values above 1 clamp instead of wrapping.
        assert_eq!(Rgb::gray(7.0).to_srgb8(), [255, 255, 255]);
    }

    #[test]
    fn mean_and_max() {
        let c = Rgb::new(0.2, 0.4, 0.9);
        assert!(approx_eq(c.mean(), 0.5, EPS));
        assert_eq!(c.max_channel(), 0.9);
    }

    #[test]
    fn arithmetic() {
        let a = Rgb::new(0.1, 0.2, 0.3);
        let mut b = a;
        b += a;
        assert!(approx_eq(b.g, 0.4, EPS));
        b *= 0.5;
        assert!(approx_eq(b.r, 0.1, EPS));
        assert!(approx_eq((a / 2.0).b, 0.15, EPS));
    }
}
