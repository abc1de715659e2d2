//! Planar quadrilateral patches with bilinear `(s, t)` parameterization.
//!
//! The defining polygons of a Photon scene are planar quads. Each carries a
//! bilinear parameterization used for (a) histogram binning of hit positions
//! and (b) reconstructing bin centers for viewing. The dissertation notes that
//! `(s, t)` "cannot be easily determined from an arbitrary point" on a general
//! patch and recovers them by recursive bisection inside the bin tree; for
//! planar quads we additionally provide a direct inversion
//! ([`Patch::st_of_point`]) that agrees with the bisection and is used by the
//! fast path (exact for parallelograms, Newton-refined for general planar
//! quads). Both it and [`Patch::intersect`] are thin wrappers over
//! [`PatchIsect`], the ray-independent constants a scene computes once per
//! patch, so there is a single copy of the arithmetic. The test is two
//! stages — where the ray meets the plane ([`PatchIsect::plane_point`]),
//! then the inversion of that point — and [`Patch::guard_box`] is the box a
//! caller may use to skip the second stage for a point it cannot accept.

use crate::{Aabb, Onb, Ray, Vec3};

/// A planar quadrilateral `p00 → p10 → p11 → p01` (counter-clockwise seen from
/// the front, i.e. from the side its normal points toward).
///
/// Bilinear map: `P(s, t) = (1-s)(1-t) p00 + s(1-t) p10 + s t p11 + (1-s) t p01`.
#[derive(Clone, Copy, Debug)]
pub struct Patch {
    /// Corner at `(s, t) = (0, 0)`.
    pub p00: Vec3,
    /// Corner at `(s, t) = (1, 0)`.
    pub p10: Vec3,
    /// Corner at `(s, t) = (1, 1)`.
    pub p11: Vec3,
    /// Corner at `(s, t) = (0, 1)`.
    pub p01: Vec3,
}

/// Result of a ray/patch intersection.
#[derive(Clone, Copy, Debug)]
pub struct PatchHit {
    /// Ray parameter (distance for unit-length directions).
    pub t: f64,
    /// Bilinear `s` coordinate in `[0, 1]`.
    pub s: f64,
    /// Bilinear `t` coordinate in `[0, 1]` (named `v` to avoid clashing with
    /// the ray parameter).
    pub v: f64,
    /// World-space hit point.
    pub point: Vec3,
}

impl Patch {
    /// Creates a patch from four corners. Corners are expected to be planar;
    /// small deviations are tolerated (intersection uses the best-fit plane).
    pub fn new(p00: Vec3, p10: Vec3, p11: Vec3, p01: Vec3) -> Self {
        Patch { p00, p10, p11, p01 }
    }

    /// Axis-aligned rectangle helper: builds the patch spanning `origin`,
    /// `origin + e_s`, `origin + e_s + e_t`, `origin + e_t`.
    pub fn from_origin_edges(origin: Vec3, e_s: Vec3, e_t: Vec3) -> Self {
        Patch {
            p00: origin,
            p10: origin + e_s,
            p11: origin + e_s + e_t,
            p01: origin + e_t,
        }
    }

    /// The bilinear point at `(s, t)`.
    #[inline]
    pub fn point_at(&self, s: f64, t: f64) -> Vec3 {
        self.p00 * ((1.0 - s) * (1.0 - t))
            + self.p10 * (s * (1.0 - t))
            + self.p11 * (s * t)
            + self.p01 * ((1.0 - s) * t)
    }

    /// Unit normal of the best-fit plane (Newell's method), pointing toward
    /// the front side.
    pub fn normal(&self) -> Vec3 {
        // Newell's method is robust for slightly non-planar quads.
        let pts = [self.p00, self.p10, self.p11, self.p01];
        let mut n = Vec3::ZERO;
        for i in 0..4 {
            let a = pts[i];
            let b = pts[(i + 1) % 4];
            n.x += (a.y - b.y) * (a.z + b.z);
            n.y += (a.z - b.z) * (a.x + b.x);
            n.z += (a.x - b.x) * (a.y + b.y);
        }
        n.normalized()
    }

    /// Surface area (sum of the two triangle halves).
    pub fn area(&self) -> f64 {
        let t1 = (self.p10 - self.p00).cross(self.p11 - self.p00).length() * 0.5;
        let t2 = (self.p11 - self.p00).cross(self.p01 - self.p00).length() * 0.5;
        t1 + t2
    }

    /// Centroid (bilinear center).
    #[inline]
    pub fn center(&self) -> Vec3 {
        self.point_at(0.5, 0.5)
    }

    /// Bounding box of the four corners.
    pub fn aabb(&self) -> Aabb {
        Aabb::from_points([self.p00, self.p10, self.p11, self.p01])
    }

    /// Local frame: `w` = normal, `u` anchored to the `s` edge so the angular
    /// histogram axes are stable across runs.
    pub fn frame(&self) -> Onb {
        Onb::from_wu(self.normal(), self.p10 - self.p00)
    }

    /// A box no point that [`Patch::st_of_point`] accepts on the patch
    /// plane lies outside of, so a plane point outside it needs no
    /// inversion to be known a miss.
    ///
    /// The inversion sees a point only through its projection into `frame`
    /// (which must be `self.frame()`), and accepts it when the bilinear
    /// coordinates of that projection are within `1e-9` of the unit square:
    /// the point is then a convex combination of the four *projected*
    /// corners, give or take `1e-9` of an edge and the Newton residual. The
    /// box of those corners (for a planar quad, the corners themselves) is
    /// padded by `1e-6 * (1 + diagonal)`, three orders above that slack and
    /// far above the rounding of `ray.at(t)` at any distance a scene spans.
    ///
    /// That is exact wherever the inversion itself is: in closed form on a
    /// parallelogram (every quad of the shipped scenes), and on a trapezoid
    /// (`tests/prop.rs`). On a quad with no two edges parallel its four
    /// Newton steps can stop short with `(s, t)` in range for a point far
    /// outside the quad — a false hit; such a point is outside this box.
    pub fn guard_box(&self, frame: &Onb) -> Aabb {
        let on_plane = |q: Vec3| {
            let l = frame.to_local(q - self.p00);
            self.p00 + frame.to_world(Vec3::new(l.x, l.y, 0.0))
        };
        let b = Aabb::from_points([self.p00, self.p10, self.p11, self.p01].map(on_plane));
        b.padded(1e-6 * (1.0 + b.extent().length()))
    }

    /// Ray intersection against the patch plane followed by bilinear
    /// containment, returning the nearest hit in `(t_min, t_max)`.
    ///
    /// Hits on either face are reported; callers decide what to do with
    /// back-face hits via the sign of `ray.dir · normal`.
    ///
    /// Recomputes the ray-independent constants on every call; code that
    /// tests many rays against one patch keeps a [`PatchIsect`] instead.
    pub fn intersect(&self, ray: &Ray, t_min: f64, t_max: f64) -> Option<PatchHit> {
        let frame = self.frame();
        PatchIsect::new(self, &frame).intersect(self.p00, &frame, ray, t_min, t_max)
    }

    /// Inverts the bilinear map for a point on (or very near) the patch
    /// plane. Returns `None` when the point lies outside `[0,1]^2` beyond a
    /// small tolerance.
    ///
    /// Exact in one step for parallelograms; for general planar quads a few
    /// Newton iterations on the 2-D projected bilinear system are used.
    pub fn st_of_point(&self, p: Vec3) -> Option<(f64, f64)> {
        let frame = self.frame();
        PatchIsect::new(self, &frame).st_of_point(self.p00, &frame, p)
    }

    /// Splits into the `(lo, hi)` halves of the `s` range — used by tests
    /// validating bin-tree spatial splits against real geometry.
    pub fn split_s(&self) -> (Patch, Patch) {
        let m0 = self.p00.lerp(self.p10, 0.5);
        let m1 = self.p01.lerp(self.p11, 0.5);
        (
            Patch::new(self.p00, m0, m1, self.p01),
            Patch::new(m0, self.p10, self.p11, m1),
        )
    }

    /// Splits into the `(lo, hi)` halves of the `t` range.
    pub fn split_t(&self) -> (Patch, Patch) {
        let m0 = self.p00.lerp(self.p01, 0.5);
        let m1 = self.p10.lerp(self.p11, 0.5);
        (
            Patch::new(self.p00, self.p10, m1, m0),
            Patch::new(m0, m1, self.p11, self.p01),
        )
    }
}

/// The ray-independent part of [`Patch::intersect`] and
/// [`Patch::st_of_point`], computed once per patch: the plane normal and
/// the patch's corners projected into its own frame's `(u, v)` plane.
///
/// It deliberately stores neither `p00` nor the frame — whoever keeps a
/// `PatchIsect` (a scene patch) already holds both and passes them back in,
/// so nothing is stored twice. The per-ray arithmetic is expression for
/// expression what a from-scratch evaluation performs, so results are
/// bit-identical whether or not the constants were hoisted; do not fold
/// `p00 · n` into a plane offset or reassociate the projections, that
/// changes rounding and with it which bin a photon lands in.
#[derive(Clone, Copy, Debug)]
pub struct PatchIsect {
    /// `Patch::normal()`: the plane normal (not bit-equal to `frame.w`,
    /// which is normalized a second time).
    n: Vec3,
    // 2-D bilinear map in frame coordinates: P(s,t) = A + s*B + t*D + s*t*E
    // with A = p00, B = p10-p00, D = p01-p00, E = p11-p10-p01+p00.
    a0: f64,
    a1: f64,
    bx: f64,
    by: f64,
    dx: f64,
    dy: f64,
    ex: f64,
    ey: f64,
    /// Determinant of the parallelogram part `(B, D)`.
    det: f64,
}

impl PatchIsect {
    /// Precomputes the constants of `patch`; `frame` must be
    /// `patch.frame()` (passed in because callers cache it anyway).
    pub fn new(patch: &Patch, frame: &Onb) -> Self {
        let to2d = |q: Vec3| {
            let l = q - patch.p00;
            (l.dot(frame.u), l.dot(frame.v))
        };
        let (a0, a1) = to2d(patch.p00); // == (±0, ±0)
        let (b0, b1) = to2d(patch.p10);
        let (c0, c1) = to2d(patch.p11);
        let (d0, d1) = to2d(patch.p01);
        let bx = b0 - a0;
        let by = b1 - a1;
        let dx = d0 - a0;
        let dy = d1 - a1;
        PatchIsect {
            n: patch.normal(),
            a0,
            a1,
            bx,
            by,
            dx,
            dy,
            ex: c0 - b0 - d0 + a0,
            ey: c1 - b1 - d1 + a1,
            det: bx * dy - by * dx,
        }
    }

    /// [`Patch::intersect`] for the patch these constants were built from,
    /// whose `p00` corner and frame are passed back in: the plane stage,
    /// then the inversion of whatever point it yields, unfiltered.
    #[inline]
    pub fn intersect(
        &self,
        p00: Vec3,
        frame: &Onb,
        ray: &Ray,
        t_min: f64,
        t_max: f64,
    ) -> Option<PatchHit> {
        let (t, p) = self.plane_point(p00, ray, t_min, t_max)?;
        let (s, v) = self.st_of_point(p00, frame, p)?;
        Some(PatchHit { t, s, v, point: p })
    }

    /// The plane stage of [`PatchIsect::intersect`]: the parameter in
    /// `(t_min, t_max)` at which `ray` meets the patch plane, and the point
    /// there — which may lie anywhere on the plane. [`PatchIsect::plane_t`]
    /// wrapped in an `Option`.
    #[inline]
    pub fn plane_point(&self, p00: Vec3, ray: &Ray, t_min: f64, t_max: f64) -> Option<(f64, Vec3)> {
        let (t, ok) = self.plane_t(p00, ray, t_min, t_max);
        ok.then(|| (t, ray.at(t)))
    }

    /// The arithmetic of [`PatchIsect::plane_point`], without a branch: the
    /// parameter `t` at which `ray` meets the patch plane, and whether the
    /// stage keeps it — the ray is not parallel to the plane
    /// (`|dir · n| >= 1e-14`) and `t` is in `(t_min, t_max)`. The quotient
    /// is formed whatever the divisor, and the three tests are joined by
    /// `&`. A NaN `t` is kept: its point is NaN, which no box contains and
    /// the inversion rejects.
    #[inline(always)]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(t <= t_min)` keeps a NaN `t`
    pub fn plane_t(&self, p00: Vec3, ray: &Ray, t_min: f64, t_max: f64) -> (f64, bool) {
        let denom = ray.dir.dot(self.n);
        let t = (p00 - ray.origin).dot(self.n) / denom;
        (t, !(denom.abs() < 1e-14) & !(t <= t_min) & !(t >= t_max))
    }

    /// [`Patch::st_of_point`] for the patch these constants were built
    /// from, whose `p00` corner and frame are passed back in.
    #[inline]
    pub fn st_of_point(&self, p00: Vec3, frame: &Onb, p: Vec3) -> Option<(f64, f64)> {
        let &PatchIsect {
            a0,
            a1,
            bx,
            by,
            dx,
            dy,
            ex,
            ey,
            det,
            ..
        } = self;
        if det.abs() < 1e-18 {
            return None; // Degenerate quad.
        }
        // Project the point into the patch plane's 2-D coordinates.
        let l = p - p00;
        let (px, py) = (l.dot(frame.u), l.dot(frame.v));

        // Initial guess: solve the parallelogram part.
        let mut s = ((px - a0) * dy - (py - a1) * dx) / det;
        let mut t = (bx * (py - a1) - by * (px - a0)) / det;

        // Newton refinement handles the s*t cross term of non-parallelogram
        // quads (converges in <= 4 iterations for convex planar quads).
        for _ in 0..4 {
            let fx = a0 + s * bx + t * dx + s * t * ex - px;
            let fy = a1 + s * by + t * dy + s * t * ey - py;
            if fx.abs() + fy.abs() < 1e-12 {
                break;
            }
            let j00 = bx + t * ex;
            let j01 = dx + s * ex;
            let j10 = by + t * ey;
            let j11 = dy + s * ey;
            let jd = j00 * j11 - j01 * j10;
            if jd.abs() < 1e-18 {
                break;
            }
            s -= (fx * j11 - fy * j01) / jd;
            t -= (j00 * fy - j10 * fx) / jd;
        }

        const TOL: f64 = 1e-9;
        if !(-TOL..=1.0 + TOL).contains(&s) || !(-TOL..=1.0 + TOL).contains(&t) {
            return None;
        }
        Some((s.clamp(0.0, 1.0), t.clamp(0.0, 1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{approx_eq, EPS};

    fn unit_floor() -> Patch {
        // Floor in the xz plane, normal +y.
        Patch::from_origin_edges(
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, -1.0),
        )
    }

    #[test]
    fn corners_map_to_unit_square() {
        let p = unit_floor();
        assert_eq!(p.point_at(0.0, 0.0), p.p00);
        assert_eq!(p.point_at(1.0, 0.0), p.p10);
        assert_eq!(p.point_at(1.0, 1.0), p.p11);
        assert_eq!(p.point_at(0.0, 1.0), p.p01);
    }

    #[test]
    fn normal_of_floor_points_up() {
        let n = unit_floor().normal();
        assert!(approx_eq(n.y, 1.0, EPS), "{n:?}");
    }

    #[test]
    fn area_of_unit_square() {
        assert!(approx_eq(unit_floor().area(), 1.0, EPS));
        // A 2x3 rectangle.
        let p = Patch::from_origin_edges(Vec3::ZERO, Vec3::X * 2.0, Vec3::Z * -3.0);
        assert!(approx_eq(p.area(), 6.0, EPS));
    }

    #[test]
    fn st_inversion_round_trip_parallelogram() {
        let p = Patch::from_origin_edges(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(2.0, 0.0, 1.0),
            Vec3::new(0.0, 0.0, -2.0),
        );
        for &(s, t) in &[(0.0, 0.0), (1.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.9, 0.1)] {
            let q = p.point_at(s, t);
            let (s2, t2) = p.st_of_point(q).expect("inside");
            assert!(approx_eq(s2, s, 1e-9), "s {s} -> {s2}");
            assert!(approx_eq(t2, t, 1e-9), "t {t} -> {t2}");
        }
    }

    #[test]
    fn st_inversion_round_trip_trapezoid() {
        // Planar but not a parallelogram: needs the Newton refinement.
        let p = Patch::new(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(1.5, 0.0, 1.0),
            Vec3::new(0.5, 0.0, 1.0),
        );
        for &(s, t) in &[(0.1, 0.2), (0.5, 0.5), (0.8, 0.9), (0.0, 1.0)] {
            let q = p.point_at(s, t);
            let (s2, t2) = p.st_of_point(q).expect("inside");
            assert!(approx_eq(s2, s, 1e-7), "s {s} -> {s2}");
            assert!(approx_eq(t2, t, 1e-7), "t {t} -> {t2}");
        }
    }

    #[test]
    fn st_outside_returns_none() {
        let p = unit_floor();
        assert!(p.st_of_point(Vec3::new(2.0, 0.0, -0.5)).is_none());
        assert!(p.st_of_point(Vec3::new(-0.5, 0.0, -0.5)).is_none());
    }

    #[test]
    fn ray_hits_center() {
        let p = unit_floor();
        let r = Ray::new(Vec3::new(0.5, 1.0, -0.5), Vec3::new(0.0, -1.0, 0.0));
        let hit = p.intersect(&r, 1e-9, f64::INFINITY).expect("hit");
        assert!(approx_eq(hit.t, 1.0, EPS));
        assert!(approx_eq(hit.s, 0.5, EPS));
        assert!(approx_eq(hit.v, 0.5, EPS));
    }

    #[test]
    fn ray_misses_outside_quad() {
        let p = unit_floor();
        let r = Ray::new(Vec3::new(1.5, 1.0, -0.5), Vec3::new(0.0, -1.0, 0.0));
        assert!(p.intersect(&r, 1e-9, f64::INFINITY).is_none());
    }

    #[test]
    fn ray_parallel_misses() {
        let p = unit_floor();
        let r = Ray::new(Vec3::new(0.5, 1.0, 0.0), Vec3::X);
        assert!(p.intersect(&r, 1e-9, f64::INFINITY).is_none());
    }

    #[test]
    fn ray_respects_t_window() {
        let p = unit_floor();
        let r = Ray::new(Vec3::new(0.5, 1.0, -0.5), Vec3::new(0.0, -1.0, 0.0));
        assert!(p.intersect(&r, 1e-9, 0.5).is_none());
        assert!(p.intersect(&r, 1.5, 2.0).is_none());
    }

    /// The plane stage as it was written before it lost its branches.
    fn branchy_plane_point(
        isect: &PatchIsect,
        p00: Vec3,
        ray: &Ray,
        t_min: f64,
        t_max: f64,
    ) -> Option<(f64, Vec3)> {
        let denom = ray.dir.dot(isect.n);
        if denom.abs() < 1e-14 {
            return None;
        }
        let t = (p00 - ray.origin).dot(isect.n) / denom;
        if t <= t_min || t >= t_max {
            return None;
        }
        Some((t, ray.at(t)))
    }

    #[test]
    fn branch_free_plane_stage_is_the_branchy_one_at_its_edges() {
        let p = unit_floor();
        let isect = PatchIsect::new(&p, &p.frame());
        assert_eq!(isect.n, Vec3::Y);
        let bits = |r: Option<(f64, Vec3)>| r.map(|(t, q)| [t, q.x, q.y, q.z].map(f64::to_bits));
        let check = |ray: Ray, t_min: f64, t_max: f64| {
            let want = branchy_plane_point(&isect, p.p00, &ray, t_min, t_max);
            let got = isect.plane_point(p.p00, &ray, t_min, t_max);
            assert_eq!(bits(got), bits(want), "{ray:?} in ({t_min}, {t_max})");
            want.is_some()
        };
        let open = (1e-9, f64::INFINITY);

        // `|dir · n|` exactly at the parallel cutoff, and one ulp below it.
        let cutoff = 1e-14f64;
        let above = Vec3::new(0.5, 1e-20, -0.5);
        for (dy, kept) in [(cutoff, true), (cutoff.next_down(), false)] {
            for sign in [1.0, -1.0] {
                let ray = Ray::new(above, Vec3::new(1.0, -sign * dy, 0.0));
                assert_eq!(ray.dir.dot(isect.n).abs(), dy);
                let (t_min, t_max) = if sign > 0.0 { open } else { (-1.0, 0.0) };
                assert_eq!(check(ray, t_min, t_max), kept, "dy {dy:e}, sign {sign}");
            }
        }

        // `t` exactly 1, against windows that end at it and an ulp either
        // side of it.
        let down = Ray::new(Vec3::new(0.5, 1.0, -0.5), -Vec3::Y);
        assert_eq!(isect.plane_t(p.p00, &down, 0.0, 2.0).0, 1.0);
        for (bound, kept) in [
            (1.0f64.next_down(), true),
            (1.0, false),
            (1.0f64.next_up(), false),
        ] {
            assert_eq!(check(down, bound, 2.0), kept, "t_min {bound}");
        }
        for (bound, kept) in [
            (1.0f64.next_down(), false),
            (1.0, false),
            (1.0f64.next_up(), true),
        ] {
            assert_eq!(check(down, 0.0, bound), kept, "t_max {bound}");
        }

        // 0 / 0: an origin in the plane, the ray running inside it.
        let inside = Ray::new(Vec3::new(0.5, 0.0, -0.5), Vec3::X);
        assert!(isect.plane_t(p.p00, &inside, open.0, open.1).0.is_nan());
        assert!(!check(inside, open.0, open.1));

        // A NaN `t` through a divisor the stage accepts: both keep it.
        let nan = Ray::new(Vec3::new(0.5, f64::NAN, -0.5), -Vec3::Y);
        assert!(check(nan, open.0, open.1));

        // `±inf` `t`: an origin so far out the quotient overflows.
        for (y, t_inf) in [(1e300, f64::INFINITY), (-1e300, f64::NEG_INFINITY)] {
            let far = Ray::new(Vec3::new(0.5, y, -0.5), Vec3::new(1.0, -1e-10, 0.0));
            assert_eq!(isect.plane_t(p.p00, &far, 0.0, 1.0).0, t_inf);
            for (t_min, t_max) in [open, (f64::NEG_INFINITY, f64::INFINITY), (-1.0, f64::MAX)] {
                assert!(!check(far, t_min, t_max));
            }
        }
    }

    #[test]
    fn splits_cover_parent_area() {
        let p = unit_floor();
        let (a, b) = p.split_s();
        assert!(approx_eq(a.area() + b.area(), p.area(), EPS));
        let (c, d) = p.split_t();
        assert!(approx_eq(c.area() + d.area(), p.area(), EPS));
        // Sub-patch midpoints land where the parent parameterization says.
        assert_eq!(a.point_at(1.0, 0.0), p.point_at(0.5, 0.0));
        assert_eq!(c.point_at(0.0, 1.0), p.point_at(0.0, 0.5));
    }

    #[test]
    fn frame_w_matches_normal() {
        let p = unit_floor();
        let f = p.frame();
        assert!(approx_eq(f.w.dot(p.normal()), 1.0, EPS));
        // u anchored to the s edge.
        assert!(approx_eq(f.u.dot((p.p10 - p.p00).normalized()), 1.0, EPS));
    }
}
