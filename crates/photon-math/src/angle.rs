//! Cylindrical direction coordinates for the angular histogram axes.
//!
//! Photon bins reflection directions over the hemisphere with *cylindrical*
//! coordinates `(theta, r_sq)` rather than spherical `(phi, theta)`
//! (dissertation ch. 4, Fig 4.5): `theta` is the azimuth in the tangent plane
//! and `r_sq` is the **squared** projected radius of the unit direction onto
//! that plane. The paper's argument for `r_sq`: splitting the squared radius
//! in half splits the projected disc *area* in half, and a Lambertian
//! (cosine-weighted) distribution lands uniformly on that disc, so an even
//! `r_sq` split is an even photon split for diffuse surfaces (its tests
//! check that argument against the elevation angle's).

use crate::{Onb, Vec3};
use std::f64::consts::TAU;

/// A direction in the upper hemisphere expressed in the bin parameterization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CylDir {
    /// Azimuth in `[0, tau)` measured from the local `u` axis.
    pub theta: f64,
    /// Squared projected radius in `[0, 1]`; `0` = along the normal,
    /// `1` = grazing.
    pub r_sq: f64,
}

impl CylDir {
    /// Converts a *local* unit direction (z = normal component, assumed
    /// `>= 0`) into cylindrical bin coordinates.
    #[inline]
    pub fn from_local(d: Vec3) -> Self {
        let r_sq = (d.x * d.x + d.y * d.y).min(1.0);
        let mut theta = d.y.atan2(d.x);
        if theta < 0.0 {
            theta += TAU;
        }
        // atan2(0,0) at the pole yields theta = 0: fine, the r_sq = 0 ring is
        // a single point and theta carries no information there.
        CylDir { theta, r_sq }
    }

    /// Converts a world-space direction into bin coordinates using the patch
    /// basis (`onb.w` = surface normal).
    #[inline]
    pub fn from_world(d: Vec3, onb: &Onb) -> Self {
        Self::from_local(onb.to_local(d))
    }

    /// Reconstructs the local unit direction. Inverse of [`CylDir::from_local`]
    /// for upper-hemisphere inputs.
    #[inline]
    pub fn to_local(self) -> Vec3 {
        let r = self.r_sq.max(0.0).sqrt();
        let z = (1.0 - self.r_sq).max(0.0).sqrt();
        Vec3::new(r * self.theta.cos(), r * self.theta.sin(), z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{approx_eq, EPS};
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    /// Fraction of a *Lambertian* (cosine-weighted) distribution falling
    /// inside `r_sq <= x`. Equal to `x` itself — the projected-disc-area
    /// argument the paper uses to justify splitting on squared radius.
    fn lambertian_cdf_r_sq(x: f64) -> f64 {
        x.clamp(0.0, 1.0)
    }

    /// Fraction of a Lambertian distribution inside elevation angle `<= e`
    /// (measured from the normal): splitting the *elevation angle* in half
    /// does **not** split the distribution in half (the paper's argument
    /// against spherical coordinates).
    fn lambertian_cdf_elevation(e: f64) -> f64 {
        let s = e.sin();
        (s * s).clamp(0.0, 1.0)
    }

    #[test]
    fn round_trip_local_cyl_local() {
        for &(x, y, z) in &[
            (0.0, 0.0, 1.0),
            (1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.5, -0.5, 0.707_106_781_186_547_5),
            (-0.3, 0.4, 0.866_025_403_784_438_6),
        ] {
            let d = Vec3::new(x, y, z).normalized();
            let c = CylDir::from_local(d);
            assert!((0.0..TAU).contains(&c.theta), "{c:?}");
            assert!((0.0..=1.0).contains(&c.r_sq), "{c:?}");
            let back = c.to_local();
            assert!(approx_eq(back.x, d.x, 1e-9), "{d:?} -> {back:?}");
            assert!(approx_eq(back.y, d.y, 1e-9));
            assert!(approx_eq(back.z, d.z, 1e-9));
        }
    }

    #[test]
    fn theta_quadrants() {
        let east = CylDir::from_local(Vec3::new(1.0, 0.0, 0.0));
        let north = CylDir::from_local(Vec3::new(0.0, 1.0, 0.0));
        let west = CylDir::from_local(Vec3::new(-1.0, 0.0, 0.0));
        assert!(approx_eq(east.theta, 0.0, EPS));
        assert!(approx_eq(north.theta, FRAC_PI_2, EPS));
        assert!(approx_eq(west.theta, PI, EPS));
    }

    #[test]
    fn r_sq_is_projected_radius_squared() {
        // 45 degrees elevation: r = sin(45), r_sq = 1/2.
        let d = Vec3::new(FRAC_PI_4.sin(), 0.0, FRAC_PI_4.cos());
        let c = CylDir::from_local(d);
        assert!(approx_eq(c.r_sq, 0.5, 1e-12));
    }

    #[test]
    fn half_r_sq_is_half_lambertian_mass() {
        // The paper's justification for the r^2 axis: exactly half the
        // cosine-weighted photons land in r_sq <= 1/2 ...
        assert!(approx_eq(lambertian_cdf_r_sq(0.5), 0.5, EPS));
        // ... whereas half the *elevation angle* captures only half the
        // mass for sin^2(pi/4) = 0.5 by coincidence at 45 deg, but the
        // midpoint of the angular range [0, pi/2] is pi/4, and splitting at
        // e.g. a quarter of the range is far from a quarter of the mass:
        let quarter_angle = FRAC_PI_2 * 0.25;
        let mass = lambertian_cdf_elevation(quarter_angle);
        assert!((mass - 0.25).abs() > 0.1, "mass {mass}");
    }

    #[test]
    fn world_space_binning_uses_patch_frame() {
        let onb = Onb::from_wu(Vec3::Y, Vec3::X); // floor facing +Y, u = +X
        let d = Vec3::new(0.0, 1.0, 0.0); // straight up
        let c = CylDir::from_world(d, &onb);
        assert!(approx_eq(c.r_sq, 0.0, EPS));
    }
}
