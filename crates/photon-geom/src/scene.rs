//! Scenes: patches, luminaires, and nearest-hit queries.

use crate::material::Material;
use crate::octree::{Octree, OctreeWork};
use photon_math::{Aabb, Onb, Patch, PatchIsect, Ray, Rgb, Vec3};
use std::sync::Arc;

/// Distance offset applied when re-emitting reflected photons so they do not
/// re-hit the surface they left.
pub const RAY_EPS: f64 = 1e-7;

/// A scene patch: geometry + material + cached derived quantities.
///
/// `frame`, `area`, the private intersection constants and the private
/// guard box are computed from `patch` once, in [`SurfacePatch::new`].
/// Assigning to `patch` afterwards leaves all four stale (rays would be
/// tested against the old plane, and dropped outside the old box); build a
/// new `SurfacePatch` instead. `material` is free to change.
#[derive(Clone, Debug)]
pub struct SurfacePatch {
    /// The quadrilateral.
    pub patch: Patch,
    /// Its material.
    pub material: Material,
    /// Cached local frame (`w` = front normal, `u` anchored to the s edge);
    /// defines the zero azimuth of the angular histogram axes.
    pub frame: Onb,
    /// Cached surface area.
    pub area: f64,
    /// Cached ray-independent half of the plane + bilinear test.
    isect: PatchIsect,
    /// Cached [`Patch::guard_box`]: a plane point outside it is a miss.
    guard: Aabb,
}

impl SurfacePatch {
    /// Builds a surface patch, caching frame, area, the intersection
    /// constants and the guard box.
    pub fn new(patch: Patch, material: Material) -> Self {
        let frame = patch.frame();
        let area = patch.area();
        let isect = PatchIsect::new(&patch, &frame);
        let guard = patch.guard_box(&frame);
        SurfacePatch {
            patch,
            material,
            frame,
            area,
            isect,
            guard,
        }
    }

    /// The [`SceneHit`] of `ray` on this patch (number `patch_id` in its
    /// scene) with `t` in `(t_min, t_max)`: `self.patch.intersect`, bit for
    /// bit, without recomputing the normal, frame and projected corners —
    /// and without inverting a plane point outside the guard box, which the
    /// inversion could only reject. [`SurfacePatch::candidate`], then
    /// [`SurfacePatch::invert`].
    #[inline]
    pub(crate) fn scene_hit(
        &self,
        patch_id: u32,
        ray: &Ray,
        t_min: f64,
        t_max: f64,
    ) -> Option<SceneHit> {
        let (t, survives) = self.candidate(ray, t_min, t_max);
        if !survives {
            return None;
        }
        self.invert(patch_id, ray, t)
    }

    /// The first stage of the test, without a branch: the parameter `t` at
    /// which `ray` meets the patch plane, and whether it survives — the
    /// plane stage keeps it in `(t_min, t_max)` ([`PatchIsect::plane_t`])
    /// and the guard box holds its point. Only a survivor can hit.
    #[inline(always)]
    pub(crate) fn candidate(&self, ray: &Ray, t_min: f64, t_max: f64) -> (f64, bool) {
        let (t, in_window) = self.isect.plane_t(self.patch.p00, ray, t_min, t_max);
        (t, in_window & self.guard.contains(ray.at(t)))
    }

    /// The second stage: the inversion of the plane point at a surviving
    /// [`SurfacePatch::candidate`]'s `t`, recomputed bit for bit.
    #[inline]
    pub(crate) fn invert(&self, patch_id: u32, ray: &Ray, t: f64) -> Option<SceneHit> {
        let point = ray.at(t);
        let (s, v) = self.isect.st_of_point(self.patch.p00, &self.frame, point)?;
        Some(SceneHit {
            patch_id,
            t,
            point,
            s,
            v,
            front: self.faces(ray),
        })
    }

    /// True when `ray` travels against the front normal.
    #[inline]
    fn faces(&self, ray: &Ray) -> bool {
        ray.dir.dot(self.frame.w) < 0.0
    }
}

/// A light source: an emitting patch with power and collimation.
#[derive(Clone, Copy, Debug)]
pub struct Luminaire {
    /// Index of the emitting patch in the scene.
    pub patch_id: u32,
    /// Total radiant power (energy per emitted-photon batch is
    /// `power / photons`).
    pub power: Rgb,
    /// Scale of the unit circle in the generation kernel (ch. 4, Fig 4.4):
    /// `1.0` = fully diffuse hemisphere; `0.005` collimates emission to
    /// ±0.29°, the paper's sun model ("the unit circle must be scaled such
    /// that θ is one quarter degree").
    pub collimation: f64,
}

/// Result of a nearest-hit query.
#[derive(Clone, Copy, Debug)]
pub struct SceneHit {
    /// Index of the patch hit.
    pub patch_id: u32,
    /// Ray parameter of the hit.
    pub t: f64,
    /// World-space hit point.
    pub point: Vec3,
    /// Bilinear coordinates on the patch.
    pub s: f64,
    /// Bilinear coordinates on the patch.
    pub v: f64,
    /// True when the front face (normal side) was hit.
    pub front: bool,
}

/// A complete scene: patches, luminaires, octree acceleration.
///
/// A scene is immutable once built, so `Scene` is a handle on shared
/// geometry: `clone()` bumps a reference count. Engines, solve requests and
/// the answer store all take scenes by value and pay nothing for it.
#[derive(Clone, Debug)]
pub struct Scene {
    geom: Arc<Geometry>,
}

#[derive(Debug)]
struct Geometry {
    patches: Vec<SurfacePatch>,
    luminaires: Vec<Luminaire>,
    octree: Octree,
    bounds: Aabb,
}

impl Scene {
    /// Builds a scene and its octree from patches and luminaires.
    ///
    /// # Panics
    ///
    /// When `patches` is empty, or a `Luminaire::patch_id` is out of range
    /// or references a patch whose material has no emission.
    pub fn new(patches: Vec<SurfacePatch>, luminaires: Vec<Luminaire>) -> Self {
        assert!(!patches.is_empty(), "a scene needs at least one patch");
        for (i, l) in luminaires.iter().enumerate() {
            let Some(sp) = patches.get(l.patch_id as usize) else {
                panic!(
                    "luminaire {i} names patch {}, but the scene has only {} patches",
                    l.patch_id,
                    patches.len()
                );
            };
            assert!(
                sp.material.emission.max_channel() > 0.0,
                "luminaire patch {} has no emissive material",
                l.patch_id
            );
        }
        let bounds = patches
            .iter()
            .fold(Aabb::EMPTY, |b, p| b.union(&p.patch.aabb()))
            .padded(1e-6);
        let octree = Octree::build(&patches, bounds);
        Scene {
            geom: Arc::new(Geometry {
                patches,
                luminaires,
                octree,
                bounds,
            }),
        }
    }

    /// All patches.
    #[inline]
    pub fn patches(&self) -> &[SurfacePatch] {
        &self.geom.patches
    }

    /// Patch by id.
    #[inline]
    pub fn patch(&self, id: u32) -> &SurfacePatch {
        &self.geom.patches[id as usize]
    }

    /// Number of defining polygons (Table 5.1, column 1).
    #[inline]
    pub fn polygon_count(&self) -> usize {
        self.geom.patches.len()
    }

    /// All luminaires.
    #[inline]
    pub fn luminaires(&self) -> &[Luminaire] {
        &self.geom.luminaires
    }

    /// Total emitted power over all luminaires.
    pub fn total_power(&self) -> Rgb {
        self.geom
            .luminaires
            .iter()
            .fold(Rgb::BLACK, |acc, l| acc + l.power)
    }

    /// Scene bounding box.
    #[inline]
    pub fn bounds(&self) -> Aabb {
        self.geom.bounds
    }

    /// The octree (exposed for stats and benches).
    #[inline]
    pub fn octree(&self) -> &Octree {
        &self.geom.octree
    }

    /// Nearest patch hit along `ray` with `t` in `(RAY_EPS, t_max)`, using
    /// the octree — the paper's `DetermineIntersection`.
    pub fn intersect(&self, ray: &Ray, t_max: f64) -> Option<SceneHit> {
        self.geom
            .octree
            .intersect(&self.geom.patches, ray, RAY_EPS, t_max)
    }

    /// [`Scene::intersect`], also reporting the work the traversal did for
    /// this ray. The counters repeat exactly for a given scene and ray.
    pub fn intersect_counted(&self, ray: &Ray, t_max: f64) -> (Option<SceneHit>, OctreeWork) {
        self.geom
            .octree
            .intersect_counted(&self.geom.patches, ray, RAY_EPS, t_max)
    }

    /// The hit of `ray` on patch `patch_id` alone, `t` in `(RAY_EPS, ∞)`:
    /// what a caller that remembers which patch [`Scene::intersect`] found
    /// for this very ray runs instead of searching again. It is the same
    /// test the traversal ran on its winner, under a limit that only ever
    /// gates a reject, so every field of the hit repeats bit for bit. An id
    /// the scene does not have is a miss, not a panic.
    pub fn intersect_patch(&self, patch_id: u32, ray: &Ray) -> Option<SceneHit> {
        let sp = self.geom.patches.get(patch_id as usize)?;
        sp.scene_hit(patch_id, ray, RAY_EPS, f64::INFINITY)
    }

    /// Nearest hit by exhaustive scan — the correctness oracle for the
    /// octree. Every patch gets the whole unfiltered test, one patch at a
    /// time: no mailbox, no guard box, no sweep.
    pub fn intersect_brute_force(&self, ray: &Ray, t_max: f64) -> Option<SceneHit> {
        let mut best: Option<SceneHit> = None;
        let mut limit = t_max;
        for (i, sp) in self.geom.patches.iter().enumerate() {
            let hit = sp
                .isect
                .intersect(sp.patch.p00, &sp.frame, ray, RAY_EPS, limit);
            if let Some(h) = hit {
                limit = h.t;
                best = Some(SceneHit {
                    patch_id: i as u32,
                    t: h.t,
                    point: h.point,
                    s: h.s,
                    v: h.v,
                    front: sp.faces(ray),
                });
            }
        }
        best
    }

    /// True when the straight segment between `a` and `b` is unobstructed —
    /// the geometry term `g(x, x')` of the Rendering Equation, used by the
    /// radiosity and ray-tracing baselines.
    pub fn visible(&self, a: Vec3, b: Vec3) -> bool {
        let d = b - a;
        let len = d.length();
        if len < RAY_EPS {
            return true;
        }
        let ray = Ray::new(a, d / len);
        match self.intersect(&ray, len - 10.0 * RAY_EPS) {
            None => true,
            Some(h) => h.t >= len - 10.0 * RAY_EPS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_math::Rgb;

    fn two_walls() -> Scene {
        // Wall A at z = 0 facing +z, wall B at z = 2 facing -z (toward A).
        let a = Patch::from_origin_edges(Vec3::ZERO, Vec3::X, Vec3::Y);
        let b = Patch::from_origin_edges(Vec3::new(0.0, 0.0, 2.0), Vec3::Y, Vec3::X);
        let mut pa = SurfacePatch::new(a, Material::matte(Rgb::gray(0.5)));
        pa.material.emission = Rgb::WHITE;
        let pb = SurfacePatch::new(b, Material::matte(Rgb::gray(0.5)));
        Scene::new(
            vec![pa, pb],
            vec![Luminaire {
                patch_id: 0,
                power: Rgb::WHITE,
                collimation: 1.0,
            }],
        )
    }

    #[test]
    fn nearest_hit_is_returned() {
        let scene = two_walls();
        let ray = Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::Z);
        let hit = scene.intersect(&ray, f64::INFINITY).expect("hit");
        assert_eq!(hit.patch_id, 0);
        assert!((hit.t - 1.0).abs() < 1e-9);
        assert!(!hit.front); // approaching wall A from behind (-z side)
    }

    #[test]
    fn brute_force_agrees() {
        let scene = two_walls();
        let ray = Ray::new(Vec3::new(0.25, 0.75, 0.5), Vec3::Z);
        let a = scene.intersect(&ray, f64::INFINITY).unwrap();
        let b = scene.intersect_brute_force(&ray, f64::INFINITY).unwrap();
        assert_eq!(a.patch_id, b.patch_id);
        assert!((a.t - b.t).abs() < 1e-9);
    }

    #[test]
    fn a_winner_retested_alone_is_the_traversals_hit() {
        use crate::octree::tests::{adversarial_rays, bits, camera_rays};
        use photon_core::{path_rays, PhotonGenerator};
        use photon_scenes::TestScene;
        for kind in TestScene::ALL {
            // The scene's geometry as this build's types (see the octree
            // tests' `rebuilt`); the photon paths come from the original.
            let built = kind.build();
            let matte = Material::matte(Rgb::gray(0.5));
            let rebuilt = built.patches().iter().map(|sp| sp.patch);
            let scene = Scene::new(
                rebuilt.map(|p| SurfacePatch::new(p, matte)).collect(),
                Vec::new(),
            );
            let (first, later) = path_rays(&built, &PhotonGenerator::new(&built), 1, 4000);
            let rays = [
                first,
                later,
                camera_rays(kind.view(), 48, 36),
                adversarial_rays(scene.octree(), scene.patches(), kind.view().eye),
            ]
            .concat();
            let mut hits = 0;
            for ray in &rays {
                let Some(hit) = scene.intersect(ray, f64::INFINITY) else {
                    continue;
                };
                hits += 1;
                let alone = scene.intersect_patch(hit.patch_id, ray);
                assert_eq!(bits(alone), bits(Some(hit)), "{}: {ray:?}", kind.name());
            }
            assert!(hits * 2 > rays.len(), "{}: {hits} hits", kind.name());
            for no_such_patch in [scene.polygon_count() as u32, u32::MAX - 1, u32::MAX] {
                assert!(scene.intersect_patch(no_such_patch, &rays[0]).is_none());
            }
        }
    }

    #[test]
    fn visibility_between_facing_walls() {
        let scene = two_walls();
        let a = Vec3::new(0.5, 0.5, 0.0);
        let b = Vec3::new(0.5, 0.5, 2.0);
        assert!(scene.visible(a + Vec3::Z * 1e-6, b - Vec3::Z * 1e-6));
    }

    #[test]
    fn visibility_blocked_by_inserted_wall() {
        let a = Patch::from_origin_edges(Vec3::ZERO, Vec3::X, Vec3::Y);
        let b = Patch::from_origin_edges(Vec3::new(0.0, 0.0, 2.0), Vec3::Y, Vec3::X);
        let blocker =
            Patch::from_origin_edges(Vec3::new(-1.0, -1.0, 1.0), Vec3::X * 3.0, Vec3::Y * 3.0);
        let mut pa = SurfacePatch::new(a, Material::matte(Rgb::gray(0.5)));
        pa.material.emission = Rgb::WHITE;
        let scene = Scene::new(
            vec![
                pa,
                SurfacePatch::new(b, Material::matte(Rgb::gray(0.5))),
                SurfacePatch::new(blocker, Material::matte(Rgb::gray(0.5))),
            ],
            vec![Luminaire {
                patch_id: 0,
                power: Rgb::WHITE,
                collimation: 1.0,
            }],
        );
        assert!(!scene.visible(Vec3::new(0.5, 0.5, 1e-6), Vec3::new(0.5, 0.5, 2.0 - 1e-6)));
    }

    #[test]
    #[should_panic]
    fn luminaire_must_be_emissive() {
        let a = Patch::from_origin_edges(Vec3::ZERO, Vec3::X, Vec3::Y);
        Scene::new(
            vec![SurfacePatch::new(a, Material::matte(Rgb::gray(0.5)))],
            vec![Luminaire {
                patch_id: 0,
                power: Rgb::WHITE,
                collimation: 1.0,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "luminaire 0 names patch 7, but the scene has only 1 patches")]
    fn luminaire_patch_id_must_be_in_range() {
        let a = Patch::from_origin_edges(Vec3::ZERO, Vec3::X, Vec3::Y);
        Scene::new(
            vec![SurfacePatch::new(a, Material::emitter(Rgb::WHITE))],
            vec![Luminaire {
                patch_id: 7,
                power: Rgb::WHITE,
                collimation: 1.0,
            }],
        );
    }

    #[test]
    fn clones_share_geometry() {
        let scene = two_walls();
        let copy = scene.clone();
        assert!(std::ptr::eq(scene.patches(), copy.patches()));
        assert!(std::ptr::eq(scene.octree(), copy.octree()));
    }

    #[test]
    fn total_power_sums() {
        let scene = two_walls();
        assert_eq!(scene.total_power(), Rgb::WHITE);
    }
}
