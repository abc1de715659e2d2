//! Axis-aligned bounding boxes and the slab intersection test.

use crate::{Ray, Vec3};

/// An axis-aligned box `[min, max]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    /// Componentwise minimum corner.
    pub min: Vec3,
    /// Componentwise maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// The empty box (inverted bounds); union with anything yields the other
    /// operand.
    pub const EMPTY: Aabb = Aabb {
        min: Vec3::splat(f64::INFINITY),
        max: Vec3::splat(f64::NEG_INFINITY),
    };

    /// Creates a box from two corners (componentwise sorted).
    #[inline]
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Box containing a set of points. Returns `EMPTY` for an empty iterator.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(pts: I) -> Self {
        let mut b = Aabb::EMPTY;
        for p in pts {
            b = b.grown(p);
        }
        b
    }

    /// The smallest box containing `self` and the point `p`.
    #[inline]
    pub fn grown(&self, p: Vec3) -> Aabb {
        Aabb {
            min: self.min.min(p),
            max: self.max.max(p),
        }
    }

    /// The smallest box containing both operands.
    #[inline]
    pub fn union(&self, o: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(o.min),
            max: self.max.max(o.max),
        }
    }

    /// The box expanded by `pad` on every side.
    #[inline]
    pub fn padded(&self, pad: f64) -> Aabb {
        Aabb {
            min: self.min - Vec3::splat(pad),
            max: self.max + Vec3::splat(pad),
        }
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Extent on each axis.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// True when the point lies inside or on the boundary (false for a NaN
    /// coordinate). All six comparisons are made, joined without a branch.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        (p.x >= self.min.x)
            & (p.x <= self.max.x)
            & (p.y >= self.min.y)
            & (p.y <= self.max.y)
            & (p.z >= self.min.z)
            & (p.z <= self.max.z)
    }

    /// True when the boxes overlap (closed intervals).
    #[inline]
    pub fn overlaps(&self, o: &Aabb) -> bool {
        self.min.x <= o.max.x
            && self.max.x >= o.min.x
            && self.min.y <= o.max.y
            && self.max.y >= o.min.y
            && self.min.z <= o.max.z
            && self.max.z >= o.min.z
    }

    /// Slab test: returns the `(t_enter, t_exit)` parameter interval where the
    /// ray overlaps the box clipped to `[t_min, t_max]`, or `None`.
    ///
    /// Handles rays parallel to a slab via IEEE infinity arithmetic.
    #[inline]
    pub fn hit(&self, ray: &Ray, t_min: f64, t_max: f64) -> Option<(f64, f64)> {
        let mut t0 = t_min;
        let mut t1 = t_max;
        for axis in 0..3 {
            let inv = ray.inv_dir[axis];
            let mut near = (self.min[axis] - ray.origin[axis]) * inv;
            let mut far = (self.max[axis] - ray.origin[axis]) * inv;
            if near > far {
                std::mem::swap(&mut near, &mut far);
            }
            // NaN (0 * inf) appears when the origin sits exactly on a slab of
            // a degenerate box; treat it as non-constraining.
            if near.is_nan() || far.is_nan() {
                continue;
            }
            t0 = t0.max(near);
            t1 = t1.min(far);
            if t0 > t1 {
                return None;
            }
        }
        Some((t0, t1))
    }

    /// The eight octant sub-boxes, split at the center, indexed by the 3-bit
    /// code `(x | y<<1 | z<<2)` where a set bit selects the upper half.
    pub fn octants(&self) -> [Aabb; 8] {
        let c = self.center();
        let mut out = [Aabb::EMPTY; 8];
        for (code, slot) in out.iter_mut().enumerate() {
            let lo = Vec3::new(
                if code & 1 == 0 { self.min.x } else { c.x },
                if code & 2 == 0 { self.min.y } else { c.y },
                if code & 4 == 0 { self.min.z } else { c.z },
            );
            let hi = Vec3::new(
                if code & 1 == 0 { c.x } else { self.max.x },
                if code & 2 == 0 { c.y } else { self.max.y },
                if code & 4 == 0 { c.z } else { self.max.z },
            );
            *slot = Aabb { min: lo, max: hi };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{approx_eq, EPS};

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0))
    }

    #[test]
    fn new_sorts_corners() {
        let b = Aabb::new(Vec3::new(1.0, -1.0, 2.0), Vec3::new(0.0, 3.0, -2.0));
        assert_eq!(b.min, Vec3::new(0.0, -1.0, -2.0));
        assert_eq!(b.max, Vec3::new(1.0, 3.0, 2.0));
    }

    #[test]
    fn empty_union_identity() {
        let b = unit_box();
        assert_eq!(Aabb::EMPTY.union(&b), b);
    }

    #[test]
    fn from_points_bounds_all() {
        let pts = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(-1.0, 0.0, 5.0)];
        let b = Aabb::from_points(pts);
        for p in pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn ray_through_center_hits() {
        let r = Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::Z);
        let (t0, t1) = unit_box().hit(&r, 0.0, f64::INFINITY).unwrap();
        assert!(approx_eq(t0, 1.0, EPS));
        assert!(approx_eq(t1, 2.0, EPS));
    }

    #[test]
    fn ray_missing_box() {
        let r = Ray::new(Vec3::new(2.0, 2.0, -1.0), Vec3::Z);
        assert!(unit_box().hit(&r, 0.0, f64::INFINITY).is_none());
    }

    #[test]
    fn ray_parallel_inside_slab_hits() {
        let r = Ray::new(Vec3::new(0.5, 0.5, 0.5), Vec3::X);
        assert!(unit_box().hit(&r, 0.0, f64::INFINITY).is_some());
    }

    #[test]
    fn ray_parallel_outside_slab_misses() {
        let r = Ray::new(Vec3::new(0.5, 2.0, 0.5), Vec3::X);
        assert!(unit_box().hit(&r, 0.0, f64::INFINITY).is_none());
    }

    #[test]
    fn hit_respects_t_range() {
        let r = Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::Z);
        // Box entry at t=1 lies outside [0, 0.5].
        assert!(unit_box().hit(&r, 0.0, 0.5).is_none());
    }

    #[test]
    fn octants_partition_volume() {
        let b = unit_box();
        let oct = b.octants();
        for o in &oct {
            let e = o.extent();
            assert!(approx_eq(e.x, 0.5, EPS));
            assert!(approx_eq(e.y, 0.5, EPS));
            assert!(approx_eq(e.z, 0.5, EPS));
        }
        // Octant codes place the first octant at the min corner.
        assert_eq!(oct[0].min, b.min);
        assert_eq!(oct[7].max, b.max);
    }

    #[test]
    fn overlap_is_symmetric_and_tight() {
        let a = unit_box();
        let b = Aabb::new(Vec3::splat(1.0), Vec3::splat(2.0)); // touches at corner
        let c = Aabb::new(Vec3::splat(1.5), Vec3::splat(2.0));
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }
}
