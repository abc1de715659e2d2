//! Rays with precomputed reciprocal directions for fast box tests.

use crate::Vec3;

/// A half-line `origin + t * dir`, `t >= 0`.
///
/// The reciprocal direction is precomputed once so axis-aligned-box slab tests
/// (the inner loop of octree traversal) cost three multiplies per axis instead
/// of three divides.
#[derive(Clone, Copy, Debug)]
pub struct Ray {
    /// Start point of the ray.
    pub origin: Vec3,
    /// Direction; not required to be unit length, but photon transport always
    /// uses unit directions so `t` equals distance.
    pub dir: Vec3,
    /// Componentwise reciprocal of `dir` (`+-inf` where `dir` is zero).
    pub inv_dir: Vec3,
}

impl Ray {
    /// Creates a ray. `dir` should normally be unit length.
    #[inline]
    pub fn new(origin: Vec3, dir: Vec3) -> Self {
        Ray {
            origin,
            dir,
            inv_dir: Vec3::new(1.0 / dir.x, 1.0 / dir.y, 1.0 / dir.z),
        }
    }

    /// The point at parameter `t`.
    #[inline]
    pub fn at(&self, t: f64) -> Vec3 {
        self.origin + self.dir * t
    }

    /// Returns the ray advanced `eps` along its direction.
    ///
    /// Used when re-emitting a reflected photon so it does not immediately
    /// re-intersect the surface it just left.
    #[inline]
    pub fn nudged(&self, eps: f64) -> Ray {
        Ray {
            origin: self.at(eps),
            dir: self.dir,
            inv_dir: self.inv_dir,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{approx_eq, EPS};

    #[test]
    fn at_walks_along_direction() {
        let r = Ray::new(Vec3::new(1.0, 2.0, 3.0), Vec3::X);
        assert_eq!(r.at(0.0), r.origin);
        assert_eq!(r.at(2.5), Vec3::new(3.5, 2.0, 3.0));
    }

    #[test]
    fn inv_dir_is_reciprocal() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(2.0, -4.0, 0.5));
        assert!(approx_eq(r.inv_dir.x, 0.5, EPS));
        assert!(approx_eq(r.inv_dir.y, -0.25, EPS));
        assert!(approx_eq(r.inv_dir.z, 2.0, EPS));
    }

    #[test]
    fn zero_component_gives_infinite_reciprocal() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, -1.0));
        assert!(r.inv_dir.y.is_infinite());
    }

    #[test]
    fn nudged_moves_origin_only() {
        let r = Ray::new(Vec3::ZERO, Vec3::Z);
        let n = r.nudged(1e-3);
        assert!(approx_eq(n.origin.z, 1e-3, EPS));
        assert_eq!(n.dir, r.dir);
    }
}
