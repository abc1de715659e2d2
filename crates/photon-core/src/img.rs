//! Simple linear-RGB images with PPM output.

use photon_math::Rgb;
use std::io::{self, Write};

/// A row-major image of linear RGB values.
#[derive(Clone, Debug)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<Rgb>,
}

impl Image {
    /// A black image.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0);
        Image {
            width,
            height,
            pixels: vec![Rgb::BLACK; width * height],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel accessor.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Rgb {
        self.pixels[y * self.width + x]
    }

    /// Pixel mutator.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: Rgb) {
        self.pixels[y * self.width + x] = c;
    }

    /// All pixels, row-major.
    pub fn pixels(&self) -> &[Rgb] {
        &self.pixels
    }

    /// Mean luminance of the image (exposure reference).
    pub fn mean_luminance(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().map(|p| p.luminance()).sum::<f64>() / self.pixels.len() as f64
    }

    /// Root-mean-square luminance error against another image of the same
    /// size — the quality metric of the visual-speedup experiment
    /// (Fig 5.16).
    pub fn rms_error(&self, other: &Image) -> f64 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        let sum: f64 = self
            .pixels
            .iter()
            .zip(&other.pixels)
            .map(|(a, b)| {
                let d = a.luminance() - b.luminance();
                d * d
            })
            .sum();
        (sum / self.pixels.len() as f64).sqrt()
    }

    /// Box-filter downsample by integer `factor` (trailing partial blocks
    /// are dropped). Spatial averaging suppresses bin-boundary variance,
    /// making coarse image comparisons meaningful at low photon counts.
    pub fn downsampled(&self, factor: usize) -> Image {
        assert!(factor > 0);
        let w = (self.width / factor).max(1);
        let h = (self.height / factor).max(1);
        let mut out = Image::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut acc = Rgb::BLACK;
                let mut n = 0.0;
                for dy in 0..factor {
                    for dx in 0..factor {
                        let sx = x * factor + dx;
                        let sy = y * factor + dy;
                        if sx < self.width && sy < self.height {
                            acc += self.get(sx, sy);
                            n += 1.0;
                        }
                    }
                }
                out.set(x, y, acc / n);
            }
        }
        out
    }

    /// Writes a binary PPM (P6), gamma-encoded 8-bit.
    pub fn write_ppm<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut out = io::BufWriter::new(w);
        write!(out, "P6\n{} {}\n255\n", self.width, self.height)?;
        for p in &self.pixels {
            out.write_all(&p.to_srgb8())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixels_round_trip() {
        let mut img = Image::new(4, 3);
        img.set(2, 1, Rgb::new(0.5, 0.25, 1.0));
        assert_eq!(img.get(2, 1), Rgb::new(0.5, 0.25, 1.0));
        assert_eq!(img.get(0, 0), Rgb::BLACK);
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::new(2, 2);
        let mut buf = Vec::new();
        img.write_ppm(&mut buf).unwrap();
        assert!(buf.starts_with(b"P6\n2 2\n255\n"));
        assert_eq!(buf.len(), 11 + 2 * 2 * 3);
    }

    #[test]
    fn rms_error_of_identical_images_is_zero() {
        let mut a = Image::new(3, 3);
        a.set(1, 1, Rgb::WHITE);
        assert_eq!(a.rms_error(&a.clone()), 0.0);
        let b = Image::new(3, 3);
        assert!(a.rms_error(&b) > 0.0);
    }
}
