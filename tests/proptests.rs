//! Cross-crate property tests on the core invariants.

use photon_gi::core::Camera;
use photon_gi::dist::balance;
use photon_gi::geom::{Material, Scene, SurfacePatch};
use photon_gi::math::{Patch, Ray, Rgb, Vec3};
use proptest::prelude::*;

fn arb_vec3(range: f64) -> impl Strategy<Value = Vec3> {
    (-range..range, -range..range, -range..range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_unit() -> impl Strategy<Value = Vec3> {
    arb_vec3(1.0)
        .prop_filter("nonzero", |v| v.length_sq() > 1e-6)
        .prop_map(|v| v.normalized())
}

/// Arbitrary pinhole cameras with odd pixel grids (odd so the central
/// pixel's center sits exactly on the optical axis).
fn arb_camera() -> impl Strategy<Value = Camera> {
    (
        arb_vec3(10.0),
        arb_vec3(10.0),
        20.0f64..120.0,
        1usize..7,
        1usize..7,
    )
        .prop_map(|(eye, target, vfov_deg, wk, hk)| Camera {
            eye,
            target,
            up: Vec3::Y,
            vfov_deg,
            width: 2 * wk + 1,
            height: 2 * hk + 1,
        })
}

/// Is the camera's frame well conditioned (eye apart from target, view
/// direction not parallel to the up hint)?
fn well_posed(cam: &Camera) -> bool {
    let back = cam.eye - cam.target;
    back.length() > 1e-3 && back.normalized().cross(cam.up).length() > 1e-3
}

/// Random tile scenes for the octree oracle.
fn arb_scene() -> impl Strategy<Value = Scene> {
    proptest::collection::vec((0.0f64..8.0, 0.0f64..4.0, 0.0f64..8.0), 2..40).prop_map(|tiles| {
        let mut patches: Vec<SurfacePatch> = tiles
            .iter()
            .map(|&(x, y, z)| {
                SurfacePatch::new(
                    Patch::from_origin_edges(
                        Vec3::new(x, y, z),
                        Vec3::new(0.9, 0.0, 0.1),
                        Vec3::new(0.0, 0.2, 0.9),
                    ),
                    Material::matte(Rgb::gray(0.5)),
                )
            })
            .collect();
        // One emitter so Scene's invariant holds.
        patches.push(SurfacePatch::new(
            Patch::from_origin_edges(Vec3::new(0.0, 10.0, 0.0), Vec3::X, Vec3::Z),
            Material::emitter(Rgb::WHITE),
        ));
        let id = patches.len() as u32 - 1;
        Scene::new(
            patches,
            vec![photon_gi::geom::Luminaire {
                patch_id: id,
                power: Rgb::WHITE,
                collimation: 1.0,
            }],
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The octree must agree with exhaustive search on every ray.
    #[test]
    fn octree_matches_brute_force(scene in arb_scene(), origin in arb_vec3(10.0), dir in arb_unit()) {
        let ray = Ray::new(origin, dir);
        let fast = scene.intersect(&ray, f64::INFINITY);
        let slow = scene.intersect_brute_force(&ray, f64::INFINITY);
        match (fast, slow) {
            (None, None) => {}
            (Some(f), Some(s)) => {
                prop_assert_eq!(f.patch_id, s.patch_id);
                prop_assert!((f.t - s.t).abs() < 1e-9);
            }
            (f, s) => prop_assert!(false, "octree {:?} vs brute {:?}", f.is_some(), s.is_some()),
        }
    }

    /// Every patch gets exactly one owner, each rank's slots run 0..k in
    /// `patches_of` order, and Best-Fit never loses to the naive
    /// contiguous split.
    #[test]
    fn ownership_covers_and_best_fit_wins(
        weights in proptest::collection::vec(0u64..50_000, 1..200),
        nranks in 1usize..16,
    ) {
        let naive = balance::naive(weights.len(), nranks);
        let packed = balance::best_fit(&weights, nranks);
        let mut seen = vec![false; weights.len()];
        for r in 0..nranks {
            for (slot, pid) in packed.patches_of(r).into_iter().enumerate() {
                prop_assert!(!seen[pid as usize], "patch owned twice");
                seen[pid as usize] = true;
                prop_assert_eq!(packed.locate(pid), (r, slot));
            }
            for (slot, pid) in naive.patches_of(r).into_iter().enumerate() {
                prop_assert_eq!(naive.locate(pid), (r, slot));
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "unowned patch");
        prop_assert!(packed.imbalance(&weights) <= naive.imbalance(&weights) + 1e-9);
    }

    /// Bilinear inversion round-trips on arbitrary parallelogram patches.
    #[test]
    fn patch_st_inversion(
        origin in arb_vec3(5.0),
        e1 in arb_vec3(3.0),
        e2 in arb_vec3(3.0),
        s in 0.001f64..0.999,
        t in 0.001f64..0.999,
    ) {
        prop_assume!(e1.cross(e2).length() > 1e-3); // non-degenerate
        let p = Patch::from_origin_edges(origin, e1, e2);
        let q = p.point_at(s, t);
        let (s2, t2) = p.st_of_point(q).expect("inside");
        prop_assert!((s2 - s).abs() < 1e-6, "s {} -> {}", s, s2);
        prop_assert!((t2 - t).abs() < 1e-6, "t {} -> {}", t, t2);
    }

    /// Every pixel's primary ray starts at the eye with a unit direction.
    #[test]
    fn camera_rays_are_unit_and_anchored_at_the_eye(cam in arb_camera()) {
        prop_assume!(well_posed(&cam));
        for y in 0..cam.height {
            for x in 0..cam.width {
                let ray = cam.ray(x, y);
                prop_assert!((ray.origin - cam.eye).length() == 0.0, "pixel ({x},{y}) origin moved");
                prop_assert!((ray.dir.length() - 1.0).abs() < 1e-12, "pixel ({x},{y}) dir not unit");
                // Forward: every primary ray leaves the eye away from the
                // backward axis.
                let back = (cam.eye - cam.target).normalized();
                prop_assert!(ray.dir.dot(back) < 0.0, "pixel ({x},{y}) points backward");
            }
        }
    }

    /// The central pixel's ray passes through the look-at target.
    #[test]
    fn camera_center_ray_hits_the_target(cam in arb_camera()) {
        prop_assume!(well_posed(&cam));
        let center = cam.ray(cam.width / 2, cam.height / 2);
        let to_target = (cam.target - cam.eye).normalized();
        prop_assert!(
            (center.dir - to_target).length() < 1e-9,
            "center ray {:?} vs target direction {:?}",
            center.dir,
            to_target
        );
    }

    /// Horizontally mirrored pixels produce mirrored rays (the image plane
    /// is symmetric about the optical axis).
    #[test]
    fn camera_rays_mirror_across_the_axis(cam in arb_camera()) {
        prop_assume!(well_posed(&cam));
        let y = cam.height / 2;
        let left = cam.ray(0, y);
        let right = cam.ray(cam.width - 1, y);
        let axis = (cam.target - cam.eye).normalized();
        prop_assert!(
            (left.dir.dot(axis) - right.dir.dot(axis)).abs() < 1e-9,
            "mirrored pixels differ along the axis"
        );
    }

    /// Leapfrog substreams partition the base stream for any rank count.
    #[test]
    fn leapfrog_partition(seed in 0u64..1_000_000, nranks in 1usize..12) {
        use photon_gi::rng::Lcg48;
        let base = Lcg48::new(seed);
        let mut subs: Vec<Lcg48> = (0..nranks).map(|r| base.leapfrog(r, nranks)).collect();
        let mut reference = base.clone();
        for step in 0..nranks * 8 {
            let expect = reference.next_u48();
            let got = subs[step % nranks].next_u48();
            prop_assert_eq!(got, expect, "step {}", step);
        }
    }
}
