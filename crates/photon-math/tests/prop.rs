//! Property tests on the geometric primitives.

use photon_math::{Aabb, CylDir, Onb, Patch, PatchIsect, Ray, Vec3};
use proptest::prelude::*;

fn arb_vec3(r: f64) -> impl Strategy<Value = Vec3> {
    (-r..r, -r..r, -r..r).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_unit() -> impl Strategy<Value = Vec3> {
    arb_vec3(1.0)
        .prop_filter("nonzero", |v| v.length_sq() > 1e-4)
        .prop_map(|v| v.normalized())
}

/// Trapezoids of every proportion in a random plane: edges of 1e-3 to 1e3,
/// sheared, the far edge 0.4 to 1.6 times the near one and parallel to it —
/// and one corner lifted off the plane by up to 2 % of the shorter edge,
/// the "small deviation" [`Patch::new`] tolerates.
///
/// Not wilder than that on purpose: on a quad with *no* two edges parallel
/// the inversion's four Newton steps can stop short with `(s, t)` inside
/// the unit square for a point well outside the quad (about one ray in
/// 50 000 aimed up to two quad-widths wide), a false hit the guard box
/// turns into a miss.
fn arb_quad() -> impl Strategy<Value = Patch> {
    let shape = (
        -3.0f64..3.0,
        -3.0f64..3.0,
        -1.0f64..1.0,
        0.4f64..1.6,
        -0.02f64..0.02,
    );
    (arb_vec3(10.0), arb_unit(), shape).prop_map(|(origin, n, (e1, e2, shear, taper, warp))| {
        let (l1, l2) = (10f64.powf(e1), 10f64.powf(e2));
        let frame = Onb::from_w(n);
        let at = |x: f64, y: f64| origin + frame.u * x + frame.v * y;
        Patch::new(
            at(0.0, 0.0),
            at(l1, 0.0),
            at(shear * l2 + taper * l1, l2) + n * (warp * l1.min(l2)),
            at(shear * l2, l2),
        )
    })
}

/// A bilinear coordinate in `[-0.05, 1.05]`, half the time within a few
/// `1e-9` of an edge of the unit interval, where the inversion's tolerance
/// decides.
fn arb_coord() -> impl Strategy<Value = f64> {
    (0u32..4, -0.05f64..1.05, -3e-9f64..3e-9).prop_map(|(kind, wide, near)| match kind {
        0 => near,
        1 => 1.0 + near,
        _ => wide,
    })
}

fn bits(v: Vec3) -> [u64; 3] {
    [v.x, v.y, v.z].map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The guard box holds every point of the quad's plane (give or take
    /// rounding) that the inversion accepts: inside, on and just outside
    /// the quad.
    #[test]
    fn guard_box_holds_every_accepted_point(
        quad in arb_quad(),
        s in arb_coord(),
        t in arb_coord(),
        lift in -1e-9f64..1e-9,
    ) {
        let frame = quad.frame();
        let l = frame.to_local(quad.point_at(s, t) - quad.p00);
        let scale = quad.aabb().extent().length();
        let p = quad.p00 + frame.to_world(Vec3::new(l.x, l.y, lift * scale));
        if quad.st_of_point(p).is_some() {
            let guard = quad.guard_box(&frame);
            prop_assert!(guard.contains(p), "({s}, {t}) accepted outside {guard:?}: {quad:?}");
        }
    }

    /// Dropping plane points outside the guard box before inverting them is
    /// `Patch::intersect`, bit for bit, on rays aimed at and around the quad.
    #[test]
    fn guarded_intersection_is_the_unguarded_one(
        quad in arb_quad(),
        s in -2.0f64..3.0,
        t in -2.0f64..3.0,
        from in arb_vec3(30.0),
    ) {
        let target = quad.point_at(s, t);
        prop_assume!((target - from).length_sq() > 1e-12);
        let ray = Ray::new(from, (target - from).normalized());
        let frame = quad.frame();
        let (isect, guard) = (PatchIsect::new(&quad, &frame), quad.guard_box(&frame));
        let guarded = isect
            .plane_point(quad.p00, &ray, 1e-7, f64::INFINITY)
            .filter(|&(_, p)| guard.contains(p))
            .and_then(|(t, p)| Some((t, p, isect.st_of_point(quad.p00, &frame, p)?)));
        let plain = quad.intersect(&ray, 1e-7, f64::INFINITY);
        prop_assert_eq!(guarded.is_some(), plain.is_some(), "({}, {}) on {:?}", s, t, quad);
        if let (Some((t, p, (s, v))), Some(h)) = (guarded, plain) {
            prop_assert_eq!(
                (t.to_bits(), bits(p), s.to_bits(), v.to_bits()),
                (h.t.to_bits(), bits(h.point), h.s.to_bits(), h.v.to_bits())
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reflection preserves length and flips only the normal component.
    #[test]
    fn reflect_involution(d in arb_unit(), n in arb_unit()) {
        let r = d.reflect(n);
        prop_assert!((r.length() - 1.0).abs() < 1e-9);
        // Reflecting twice returns the original direction.
        let rr = r.reflect(n);
        prop_assert!((rr - d).length() < 1e-9);
    }

    /// Cross products are orthogonal to both inputs.
    #[test]
    fn cross_orthogonality(a in arb_vec3(10.0), b in arb_vec3(10.0)) {
        let c = a.cross(b);
        prop_assert!(c.dot(a).abs() < 1e-6 * (1.0 + a.length() * b.length()));
        prop_assert!(c.dot(b).abs() < 1e-6 * (1.0 + a.length() * b.length()));
    }

    /// Any normal yields a right-handed orthonormal basis whose round trip
    /// is the identity.
    #[test]
    fn onb_round_trip(n in arb_unit(), v in arb_vec3(5.0)) {
        let onb = Onb::from_w(n);
        prop_assert!((onb.u.cross(onb.v).dot(onb.w) - 1.0).abs() < 1e-6);
        let back = onb.to_world(onb.to_local(v));
        prop_assert!((back - v).length() < 1e-8 * (1.0 + v.length()));
    }

    /// Cylindrical direction coordinates round-trip on the hemisphere.
    #[test]
    fn cyl_dir_round_trip(d in arb_unit()) {
        let up = Vec3::new(d.x, d.y, d.z.abs().max(1e-6));
        let up = up.normalized();
        let c = CylDir::from_local(up);
        prop_assert!(c.is_valid());
        let back = c.to_local();
        prop_assert!((back - up).length() < 1e-6, "{:?} -> {:?} -> {:?}", up, c, back);
    }

    /// A ray hitting an AABB enters before it exits, and points sampled in
    /// the interval are inside (padded for roundoff).
    #[test]
    fn aabb_slab_interval(
        lo in arb_vec3(5.0),
        ext in (0.1f64..5.0, 0.1f64..5.0, 0.1f64..5.0),
        origin in arb_vec3(20.0),
        dir in arb_unit(),
    ) {
        let b = Aabb::new(lo, lo + Vec3::new(ext.0, ext.1, ext.2));
        let ray = Ray::new(origin, dir);
        if let Some((t0, t1)) = b.hit(&ray, 0.0, f64::INFINITY) {
            prop_assert!(t0 <= t1);
            let mid = ray.at(0.5 * (t0 + t1));
            prop_assert!(b.padded(1e-6).contains(mid), "{:?} not in {:?}", mid, b);
        }
    }

    /// Patch area equals the parallelogram area for parallelogram patches,
    /// and the bilinear center is the average of the corners.
    #[test]
    fn patch_area_and_center(origin in arb_vec3(5.0), e1 in arb_vec3(3.0), e2 in arb_vec3(3.0)) {
        prop_assume!(e1.cross(e2).length() > 1e-3);
        let p = Patch::from_origin_edges(origin, e1, e2);
        prop_assert!((p.area() - e1.cross(e2).length()).abs() < 1e-9 * (1.0 + p.area()));
        let avg = (p.p00 + p.p10 + p.p11 + p.p01) / 4.0;
        prop_assert!((p.center() - avg).length() < 1e-9);
    }

    /// Ray/patch hits land on the patch plane at the reported parameter.
    #[test]
    fn patch_hit_is_on_plane(
        origin in arb_vec3(3.0),
        e1 in arb_vec3(2.0),
        e2 in arb_vec3(2.0),
        ro in arb_vec3(10.0),
        rd in arb_unit(),
    ) {
        prop_assume!(e1.cross(e2).length() > 1e-2);
        let p = Patch::from_origin_edges(origin, e1, e2);
        let ray = Ray::new(ro, rd);
        if let Some(hit) = p.intersect(&ray, 1e-9, f64::INFINITY) {
            // Point is consistent with the ray parameter.
            prop_assert!((ray.at(hit.t) - hit.point).length() < 1e-9);
            // And on the plane.
            let n = p.normal();
            let dist = (hit.point - p.p00).dot(n).abs();
            prop_assert!(dist < 1e-6, "off plane by {}", dist);
            // And the bilinear coordinates reproduce the point.
            let q = p.point_at(hit.s, hit.v);
            prop_assert!((q - hit.point).length() < 1e-6);
        }
    }
}
