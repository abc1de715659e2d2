//! The Density Estimation baseline (Shirley et al. / Zareski, ch. 3).
//!
//! Three phases: *particle tracing* writes every photon-surface interaction
//! to a hit-point file; *density estimation* turns each surface's hit points
//! into an irradiance function (kernel smoothing); *meshing* produces
//! Gouraud-shadable vertices. Only the first runs here ([`particle_trace`]);
//! the other two enter as the per-surface work they would do. The paper's
//! two criticisms, both measurable here:
//!
//! 1. **Storage**: the hit file is `O(photons)` — "if each photon requires
//!    100 bytes of storage, a realistic scene might consume a terabyte" —
//!    versus Photon's histogram distillation (1–2 orders smaller, compare
//!    [`HitFile::bytes`] with a bin forest's `memory_bytes`).
//! 2. **Parallel bottleneck**: phase 1 is embarrassingly parallel
//!    (speedup ≈ 15/16), but phase 2 parallelizes *per surface*, so its
//!    speedup is capped by the surface with the most hits (≈ 8.5, and as
//!    low as 4.5, on 16 processors). [`parallel_phase_model`] computes both
//!    caps from the actual hit distribution.

use photon_core::generate::PhotonGenerator;
use photon_core::trace::{trace_photon, Termination};
use photon_geom::Scene;
use photon_hist::BinPoint;
use photon_math::Rgb;
use photon_rng::Lcg48;

/// One record of the hit-point file (the paper budgets ~100 bytes per hit
/// with full ray history; we store the needed 48).
#[derive(Clone, Copy, Debug)]
pub struct HitPoint {
    /// Surface hit.
    pub patch_id: u32,
    /// Bilinear position on the surface.
    pub s: f64,
    /// Bilinear position on the surface.
    pub t: f64,
    /// Deposited energy.
    pub energy: Rgb,
}

/// Bytes per stored hit point (struct layout, plus file framing).
pub const HIT_BYTES: usize = 48;

/// The "mass storage" hit-point file.
#[derive(Clone, Debug, Default)]
pub struct HitFile {
    hits: Vec<HitPoint>,
}

impl HitFile {
    /// O(photons) storage footprint — criticism #1.
    pub fn bytes(&self) -> usize {
        self.hits.len() * HIT_BYTES
    }

    /// Hit count per patch (phase-2 work distribution).
    pub fn per_patch_counts(&self, npatches: usize) -> Vec<u64> {
        let mut counts = vec![0u64; npatches];
        for h in &self.hits {
            counts[h.patch_id as usize] += 1;
        }
        counts
    }
}

/// Phase 1: particle tracing. Reuses Photon's transport kernel but records
/// raw hit points instead of histogram tallies.
pub fn particle_trace(scene: &Scene, photons: u64, seed: u64) -> HitFile {
    let generator = PhotonGenerator::new(scene);
    let mut rng = Lcg48::new(seed);
    let mut file = HitFile::default();
    let mut sink = |patch_id: u32, point: &BinPoint, energy: Rgb| {
        file.hits.push(HitPoint {
            patch_id,
            s: point.s,
            t: point.t,
            energy,
        });
    };
    let mut absorbed = 0u64;
    for _ in 0..photons {
        if trace_photon(scene, &generator, &mut rng, &mut sink).termination == Termination::Absorbed
        {
            absorbed += 1;
        }
    }
    let _ = absorbed;
    file
}

/// The two-program parallel structure of Zareski's implementation, modeled
/// from an actual hit distribution.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSpeedups {
    /// Phase-1 speedup on `procs` processors (startup-limited, near linear).
    pub particle_tracing: f64,
    /// Phase-2 speedup: per-surface tasks scheduled LPT onto processors;
    /// capped by the largest surface.
    pub density_meshing: f64,
}

/// Computes both phase speedups for `procs` processors.
///
/// Phase 1 divides photons evenly (serial fraction `startup`). Phase 2
/// schedules each surface's hit processing as one indivisible task
/// (longest-processing-time greedy), so `speedup <= total / max_surface` no
/// matter how many processors — the paper's admission.
pub fn parallel_phase_model(per_patch: &[u64], procs: usize, startup: f64) -> PhaseSpeedups {
    assert!(procs >= 1);
    let total: u64 = per_patch.iter().sum();
    // Phase 1: Amdahl with a small serial startup fraction.
    let particle_tracing = 1.0 / (startup + (1.0 - startup) / procs as f64);
    // Phase 2: LPT greedy schedule.
    let mut tasks: Vec<u64> = per_patch.to_vec();
    tasks.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![0u64; procs];
    for t in tasks {
        let min = loads.iter_mut().min().unwrap();
        *min += t;
    }
    let makespan = loads.into_iter().max().unwrap_or(0).max(1);
    let density_meshing = total as f64 / makespan as f64;
    PhaseSpeedups {
        particle_tracing,
        density_meshing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_geom::{Luminaire, Material, SurfacePatch};
    use photon_math::{Patch, Vec3};

    fn lit_floor() -> Scene {
        let floor = SurfacePatch::new(
            Patch::from_origin_edges(
                Vec3::new(-2.0, 0.0, -2.0),
                Vec3::new(0.0, 0.0, 4.0),
                Vec3::new(4.0, 0.0, 0.0),
            ),
            Material::matte(Rgb::gray(0.6)),
        );
        // Light faces down ((-z) x (x) = -y), toward the floor.
        let light = SurfacePatch::new(
            Patch::from_origin_edges(
                Vec3::new(-0.5, 3.0, 0.5),
                Vec3::new(0.0, 0.0, -1.0),
                Vec3::new(1.0, 0.0, 0.0),
            ),
            Material::emitter(Rgb::WHITE),
        );
        Scene::new(
            vec![floor, light],
            vec![Luminaire {
                patch_id: 1,
                power: Rgb::gray(50.0),
                collimation: 1.0,
            }],
        )
    }

    #[test]
    fn hit_file_grows_linearly_with_photons() {
        let scene = lit_floor();
        let f1 = particle_trace(&scene, 2_000, 5);
        let f2 = particle_trace(&scene, 4_000, 5);
        let ratio = f2.bytes() as f64 / f1.bytes().max(1) as f64;
        assert!((ratio - 2.0).abs() < 0.2, "bytes ratio {ratio}");
    }

    #[test]
    fn phase_two_is_bottlenecked_by_largest_surface() {
        // The paper's numbers: ~15/16 for tracing, ~8.5 (down to 4.5) for
        // density estimation when one surface dominates.
        let mut per_patch = vec![1_000u64; 31];
        per_patch.push(30_000); // one dominant surface
        let s = parallel_phase_model(&per_patch, 16, 0.005);
        assert!(s.particle_tracing > 14.0, "{s:?}");
        assert!(s.density_meshing < 8.0, "{s:?}");
        // More processors cannot break the cap.
        let s64 = parallel_phase_model(&per_patch, 64, 0.005);
        let cap = per_patch.iter().sum::<u64>() as f64 / 30_000.0;
        assert!(s64.density_meshing <= cap + 1e-9, "{s64:?} vs cap {cap}");
    }

    #[test]
    fn balanced_surfaces_let_phase_two_scale() {
        let per_patch = vec![1000u64; 64];
        let s = parallel_phase_model(&per_patch, 16, 0.005);
        assert!(s.density_meshing > 12.0, "{s:?}");
    }

    #[test]
    fn hit_file_is_much_larger_than_photon_bins() {
        // Criticism #1 quantified: raw hits vs Photon's distilled forest on
        // the same workload.
        use photon_core::{SimConfig, Simulator};
        let scene = lit_floor();
        let photons = 50_000;
        let file = particle_trace(&scene, photons, 7);
        let mut sim = Simulator::new(
            lit_floor(),
            SimConfig {
                seed: 7,
                ..Default::default()
            },
        );
        sim.run_photons(photons);
        let forest_bytes = sim.forest().memory_bytes();
        assert!(
            file.bytes() > 5 * forest_bytes,
            "hit file {} vs forest {}",
            file.bytes(),
            forest_bytes
        );
    }
}
