//! Geometric and numeric primitives for the Photon global-illumination system.
//!
//! This crate is the lowest layer of the workspace: double-precision 3-vectors,
//! rays, axis-aligned boxes, orthonormal bases, bilinear patch parameterization
//! and the cylindrical direction coordinates `(theta, r_sq)` used by the
//! four-dimensional histogram bins of Snell's *Photon* algorithm (ch. 4 of the
//! dissertation).
//!
//! Everything here is `Copy`, allocation-free and safe to use from any thread.

#![deny(missing_docs)]

pub mod aabb;
pub mod angle;
pub mod color;
pub mod onb;
pub mod patch;
pub mod ray;
pub mod vec3;

pub use aabb::Aabb;
pub use angle::CylDir;
pub use color::Rgb;
pub use onb::Onb;
pub use patch::{Patch, PatchIsect};
pub use ray::Ray;
pub use vec3::Vec3;

#[cfg(test)]
mod tests {
    /// Tolerance of the approximate comparisons in this crate's tests.
    pub(crate) const EPS: f64 = 1e-9;

    /// Looser tolerance for quantities that accumulate rounding.
    const EPS_LOOSE: f64 = 1e-6;

    /// True when `a` and `b` differ by at most `tol` absolutely or
    /// relatively (whichever is larger).
    pub(crate) fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
        let diff = (a - b).abs();
        diff <= tol || diff <= tol * a.abs().max(b.abs())
    }

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, EPS));
        assert!(approx_eq(1e12, 1e12 + 1.0, EPS_LOOSE));
        assert!(!approx_eq(1.0, 1.1, EPS));
    }

    #[test]
    fn approx_eq_zero() {
        assert!(approx_eq(0.0, 0.0, EPS));
        assert!(approx_eq(0.0, 1e-12, EPS));
        assert!(!approx_eq(0.0, 1e-3, EPS));
    }
}
