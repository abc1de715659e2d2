//! Surface materials.
//!
//! Photon's reflection model follows the intent of He et al. (the full
//! physical-optics model cited in ch. 4) with a layered substitute (README.md,
//! *Deviations*): a Lambertian diffuse term, a glossy lobe of configurable
//! tightness, an ideal mirror term, and probabilistic absorption (Russian
//! roulette). The *material* only stores the coefficients; the sampling
//! logic lives in `photon-core::reflect`.

use photon_math::Rgb;

/// Broad classification used by load balancing, the viewer and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SurfaceKind {
    /// Purely diffuse reflector.
    Diffuse,
    /// Mixture of diffuse and glossy/mirror reflection.
    Glossy,
    /// Dominantly ideal mirror.
    Mirror,
    /// Light-emitting surface.
    Emitter,
}

/// Reflection/emission coefficients of a surface.
///
/// Energy budget per interaction: a photon is reflected with probability
/// `albedo = mean(diffuse) + specular + mirror` (must be `<= 1`; the
/// remainder absorbs). Given reflection, the branch (diffuse / glossy /
/// mirror) is chosen in proportion to the same terms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Material {
    /// Diffuse reflectance per channel (Lambertian).
    pub diffuse: Rgb,
    /// Energy fraction reflected into the glossy lobe.
    pub specular: f64,
    /// Glossy lobe tightness (Phong-style exponent; larger = tighter).
    pub gloss_exponent: f64,
    /// Energy fraction reflected as an ideal mirror.
    pub mirror: f64,
    /// Emitted radiance per channel (nonzero marks an emitter; actual
    /// emission strength is configured on the [`crate::Luminaire`]).
    pub emission: Rgb,
}

impl Material {
    /// A matte (Lambertian) surface with the given reflectance.
    pub fn matte(diffuse: Rgb) -> Self {
        Material {
            diffuse,
            specular: 0.0,
            gloss_exponent: 1.0,
            mirror: 0.0,
            emission: Rgb::BLACK,
        }
    }

    /// A near-ideal mirror keeping `reflectivity` of the energy.
    pub fn mirror(reflectivity: f64) -> Self {
        Material {
            diffuse: Rgb::BLACK,
            specular: 0.0,
            gloss_exponent: 1.0,
            mirror: reflectivity,
            emission: Rgb::BLACK,
        }
    }

    /// A glossy surface: diffuse base plus a specular lobe.
    pub fn glossy(diffuse: Rgb, specular: f64, gloss_exponent: f64) -> Self {
        Material {
            diffuse,
            specular,
            gloss_exponent,
            mirror: 0.0,
            emission: Rgb::BLACK,
        }
    }

    /// An emitting surface with the given radiance color.
    pub fn emitter(emission: Rgb) -> Self {
        Material {
            diffuse: Rgb::BLACK,
            specular: 0.0,
            gloss_exponent: 1.0,
            mirror: 0.0,
            emission,
        }
    }

    /// Total reflection probability (Russian-roulette survival).
    #[inline]
    pub fn albedo(&self) -> f64 {
        self.diffuse.mean() + self.specular + self.mirror
    }

    /// True when the energy budget is physical (`albedo <= 1`, all
    /// coefficients nonnegative).
    pub fn is_physical(&self) -> bool {
        self.diffuse.r >= 0.0
            && self.diffuse.g >= 0.0
            && self.diffuse.b >= 0.0
            && self.specular >= 0.0
            && self.mirror >= 0.0
            && self.albedo() <= 1.0 + 1e-12
    }

    /// Broad classification.
    pub fn kind(&self) -> SurfaceKind {
        if self.emission.max_channel() > 0.0 {
            SurfaceKind::Emitter
        } else if self.mirror > 0.5 {
            SurfaceKind::Mirror
        } else if self.specular + self.mirror > 1e-9 {
            SurfaceKind::Glossy
        } else {
            SurfaceKind::Diffuse
        }
    }

    /// True when any light leaving this surface depends on view angle.
    pub fn is_view_dependent(&self) -> bool {
        self.specular + self.mirror > 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn albedo_sums_terms() {
        let m = Material {
            diffuse: Rgb::new(0.3, 0.6, 0.9), // mean 0.6
            specular: 0.1,
            gloss_exponent: 50.0,
            mirror: 0.2,
            emission: Rgb::BLACK,
        };
        assert!((m.albedo() - 0.9).abs() < 1e-12);
        assert!(m.is_physical());
    }

    #[test]
    fn over_unity_albedo_is_unphysical() {
        let m = Material {
            specular: 0.5,
            ..Material::matte(Rgb::gray(0.8))
        };
        assert!(!m.is_physical());
    }

    #[test]
    fn kinds_classify() {
        assert_eq!(Material::matte(Rgb::gray(0.5)).kind(), SurfaceKind::Diffuse);
        assert_eq!(Material::mirror(0.9).kind(), SurfaceKind::Mirror);
        assert_eq!(
            Material::glossy(Rgb::gray(0.4), 0.2, 80.0).kind(),
            SurfaceKind::Glossy
        );
        assert_eq!(Material::emitter(Rgb::WHITE).kind(), SurfaceKind::Emitter);
    }

    #[test]
    fn view_dependence() {
        assert!(!Material::matte(Rgb::gray(0.5)).is_view_dependent());
        assert!(Material::mirror(0.9).is_view_dependent());
        assert!(Material::glossy(Rgb::gray(0.2), 0.3, 10.0).is_view_dependent());
    }
}
