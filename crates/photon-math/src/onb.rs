//! Orthonormal bases attached to surface normals.

use crate::Vec3;

/// A right-handed orthonormal basis `(u, v, w)` with `w` along a given normal.
///
/// Photon stores reflection directions in the local frame of the surface they
/// leave (ch. 4, Fig 4.5): `w` is the surface normal, `u`/`v` span the tangent
/// plane and fix the zero of the cylindrical angle `theta`.
#[derive(Clone, Copy, Debug)]
pub struct Onb {
    /// First tangent.
    pub u: Vec3,
    /// Second tangent.
    pub v: Vec3,
    /// Normal direction.
    pub w: Vec3,
}

impl Onb {
    /// Builds a basis whose `w` axis is `normal` (need not be unit length).
    ///
    /// Uses the branchless Frisvad construction, patched for the `w.z ≈ -1`
    /// singularity.
    pub fn from_w(normal: Vec3) -> Self {
        let w = normal.normalized();
        if w.z < -0.999_999 {
            // Antipodal singularity of the Frisvad formula.
            return Onb {
                u: Vec3::new(0.0, -1.0, 0.0),
                v: Vec3::new(-1.0, 0.0, 0.0),
                w,
            };
        }
        let a = 1.0 / (1.0 + w.z);
        let b = -w.x * w.y * a;
        Onb {
            u: Vec3::new(1.0 - w.x * w.x * a, b, -w.x),
            v: Vec3::new(b, 1.0 - w.y * w.y * a, -w.y),
            w,
        }
    }

    /// Builds a basis with `w = normal` and `u` aligned (as closely as
    /// possible) with `tangent_hint` projected onto the tangent plane.
    ///
    /// Patches use this so the `theta` histogram axis is anchored to the
    /// patch's own `s` edge, making bin contents reproducible regardless of
    /// how the normal was computed.
    pub fn from_wu(normal: Vec3, tangent_hint: Vec3) -> Self {
        let w = normal.normalized();
        let proj = tangent_hint - w * tangent_hint.dot(w);
        if proj.length_sq() < 1e-18 {
            return Onb::from_w(normal);
        }
        let u = proj.normalized();
        let v = w.cross(u);
        Onb { u, v, w }
    }

    /// Transforms local coordinates `(a, b, c)` into world space.
    #[inline]
    pub fn to_world(&self, local: Vec3) -> Vec3 {
        self.u * local.x + self.v * local.y + self.w * local.z
    }

    /// Expresses a world-space vector in this basis.
    #[inline]
    pub fn to_local(&self, world: Vec3) -> Vec3 {
        Vec3::new(world.dot(self.u), world.dot(self.v), world.dot(self.w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{approx_eq, EPS};

    fn assert_orthonormal(b: &Onb) {
        for (name, axis) in [("u", b.u), ("v", b.v), ("w", b.w)] {
            assert!(
                approx_eq(axis.length_sq(), 1.0, EPS),
                "{name} not unit: {axis:?}"
            );
        }
        assert!(approx_eq(b.u.dot(b.v), 0.0, EPS));
        assert!(approx_eq(b.v.dot(b.w), 0.0, EPS));
        assert!(approx_eq(b.w.dot(b.u), 0.0, EPS));
        // Right-handed.
        assert!(approx_eq(b.u.cross(b.v).dot(b.w), 1.0, 1e-6));
    }

    #[test]
    fn frisvad_basis_is_orthonormal_for_many_normals() {
        for &n in &[
            Vec3::Z,
            -Vec3::Z,
            Vec3::X,
            Vec3::Y,
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(-0.3, 0.2, -0.93),
            Vec3::new(0.0, 0.0, -1.0 + 1e-9),
        ] {
            assert_orthonormal(&Onb::from_w(n));
        }
    }

    #[test]
    fn round_trip_world_local() {
        let b = Onb::from_w(Vec3::new(0.3, -0.5, 0.8));
        let v = Vec3::new(0.2, -0.7, 0.4);
        let back = b.to_world(b.to_local(v));
        assert!(approx_eq(back.x, v.x, 1e-9));
        assert!(approx_eq(back.y, v.y, 1e-9));
        assert!(approx_eq(back.z, v.z, 1e-9));
    }

    #[test]
    fn from_wu_anchors_u_to_hint() {
        let b = Onb::from_wu(Vec3::Z, Vec3::new(3.0, 0.0, 5.0));
        assert_orthonormal(&b);
        // Hint projected onto tangent plane is +X.
        assert!(approx_eq(b.u.x, 1.0, EPS));
    }

    #[test]
    fn from_wu_degenerate_hint_falls_back() {
        // Hint parallel to the normal carries no tangent information.
        let b = Onb::from_wu(Vec3::Z, Vec3::Z * 4.0);
        assert_orthonormal(&b);
    }

    #[test]
    fn local_z_is_normal() {
        let n = Vec3::new(1.0, 2.0, -0.5);
        let b = Onb::from_w(n);
        let up = b.to_world(Vec3::Z);
        let nn = n.normalized();
        assert!(approx_eq(up.dot(nn), 1.0, 1e-9));
    }
}
