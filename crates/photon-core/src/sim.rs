//! The serial Photon simulator — the paper's Fig 4.1 driver, and the
//! "best serial version" against which all speedups are defined.

use crate::answer::Answer;
use crate::checkpoint::{EngineCheckpoint, RestoreError};
use crate::engine::{BatchReport, SolverEngine, StepBook};
use crate::forest::BinForest;
use crate::generate::PhotonGenerator;
use crate::perf::{MemoryTrace, SpeedTrace};
use crate::trace::{trace_span, Span, Termination};
use photon_geom::Scene;
use photon_hist::SplitConfig;

/// Simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Seed of the global random stream.
    pub seed: u64,
    /// Bin splitting policy.
    pub split: SplitConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x5EED,
            split: SplitConfig::default(),
        }
    }
}

/// Aggregate counters of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Photons emitted.
    pub emitted: u64,
    /// Photons terminated by absorption.
    pub absorbed: u64,
    /// Photons that left the scene.
    pub escaped: u64,
    /// Photons stopped by the bounce cap.
    pub capped: u64,
    /// Total reflections tallied.
    pub reflections: u64,
}

impl SimStats {
    /// Conservation check: every emitted photon terminated exactly one way.
    /// Counters read from a checkpoint file may be anything, so the sum is
    /// checked: one that overflows is not conserved.
    pub fn is_conserved(&self) -> bool {
        let ended = self.absorbed.checked_add(self.escaped);
        ended.and_then(|n| n.checked_add(self.capped)) == Some(self.emitted)
    }

    /// Accounts one traced photon.
    #[inline]
    pub fn record(&mut self, outcome: &crate::trace::TraceOutcome) {
        self.emitted += 1;
        self.reflections += outcome.bounces as u64;
        match outcome.termination {
            Termination::Absorbed => self.absorbed += 1,
            Termination::Escaped => self.escaped += 1,
            Termination::BounceCapped => self.capped += 1,
        }
    }

    /// Folds another counter set into this one (worker/rank aggregation).
    pub fn merge(&mut self, other: &SimStats) {
        self.emitted += other.emitted;
        self.absorbed += other.absorbed;
        self.escaped += other.escaped;
        self.capped += other.capped;
        self.reflections += other.reflections;
    }
}

/// Serial Monte Carlo light-transport simulator.
///
/// The transport loop ([`trace_span`]) over the whole of each batch, with
/// the simulator's own [`BinForest`] as the sink. Photon `j` of a run draws
/// from block substream `j` of the seeded base stream
/// ([`crate::photon_stream`]), so the photon set depends only on
/// `(seed, count)` — the property the parallel backends rely on to
/// reproduce a serial run exactly.
#[derive(Clone, Debug)]
pub struct Simulator {
    scene: Scene,
    generator: PhotonGenerator,
    forest: BinForest,
    seed: u64,
    split: photon_hist::SplitConfig,
    steps: StepBook,
    memory: MemoryTrace,
}

impl Simulator {
    /// Creates a simulator over `scene`.
    pub fn new(scene: Scene, config: SimConfig) -> Self {
        let generator = PhotonGenerator::new(&scene);
        let forest = BinForest::new(scene.polygon_count(), config.split);
        Simulator {
            generator,
            steps: StepBook::new(forest.total_nodes()),
            forest,
            seed: config.seed,
            split: config.split,
            scene,
            memory: MemoryTrace::new(),
        }
    }

    /// The scene being simulated.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// The bin forest accumulated so far.
    pub fn forest(&self) -> &BinForest {
        &self.forest
    }

    /// Counters so far.
    pub fn stats(&self) -> &SimStats {
        &self.steps.stats
    }

    /// Speed-vs-time trace (one sample per `run_batch` call).
    pub fn speed_trace(&self) -> &SpeedTrace {
        &self.steps.speed
    }

    /// Memory-vs-photons trace (one sample per `run_batch` call).
    pub fn memory_trace(&self) -> &MemoryTrace {
        &self.memory
    }

    /// Simulates `n` photons (no batch bookkeeping).
    pub fn run_photons(&mut self, n: u64) {
        let span = Span {
            start: self.steps.cursor,
            count: n,
            offset: 0,
            stride: 1,
        };
        let stats = trace_span(
            &self.scene,
            &self.generator,
            self.seed,
            span,
            &mut self.forest,
        );
        self.steps.advance(n, &stats);
    }

    /// Simulates a batch of `n` photons, recording speed and memory samples
    /// (the paper's per-batch rate trace).
    pub fn run_batch(&mut self, n: u64) {
        let _ = self.step(n);
    }

    /// Finishes the run, producing the answer database.
    pub fn into_answer(self) -> Answer {
        self.answer_snapshot()
    }

    /// Borrow-based snapshot of the answer (keeps simulating afterwards).
    pub fn answer_snapshot(&self) -> Answer {
        Answer::from_forest(&self.forest, self.stats().emitted)
    }
}

impl SolverEngine for Simulator {
    fn step(&mut self, batch: u64) -> BatchReport {
        let batch_start = self.steps.begin();
        self.run_photons(batch);
        if self.steps.wants_compaction(self.forest.total_nodes()) {
            self.forest.compact();
        }
        let report = self
            .steps
            .finish(batch_start, batch, None, self.forest.footprint());
        self.memory
            .push(report.emitted_total, self.forest.memory_bytes());
        report
    }

    fn snapshot(&self) -> Answer {
        self.answer_snapshot()
    }

    fn stats(&self) -> SimStats {
        self.steps.stats
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint::new(
            self.seed,
            self.steps.cursor,
            self.steps.stats,
            self.split,
            self.forest.clone().into_trees(),
        )
    }

    fn restore(&mut self, checkpoint: &EngineCheckpoint) -> Result<(), RestoreError> {
        checkpoint.compatible_with(self.scene.polygon_count(), self.seed, self.split)?;
        self.forest = checkpoint.forest();
        self.steps.restore(checkpoint, self.forest.total_nodes());
        self.memory = MemoryTrace::new();
        Ok(())
    }

    fn backend(&self) -> &'static str {
        "serial"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_geom::{Luminaire, Material, SurfacePatch};
    use photon_math::{Patch, Rgb, Vec3};

    fn tiny_box() -> Scene {
        let g = Rgb::gray(0.6);
        let mk = |o: Vec3, e1: Vec3, e2: Vec3, m: Material| {
            SurfacePatch::new(Patch::from_origin_edges(o, e1, e2), m)
        };
        let patches = vec![
            mk(
                Vec3::ZERO,
                Vec3::X * 2.0,
                Vec3::new(0.0, 0.0, 2.0),
                Material::matte(g),
            ),
            mk(
                Vec3::new(0.0, 2.0, 0.0),
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::X * 2.0,
                Material::matte(g),
            ),
            mk(
                Vec3::ZERO,
                Vec3::new(0.0, 2.0, 0.0),
                Vec3::X * 2.0,
                Material::matte(g),
            ),
            mk(
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::X * 2.0,
                Vec3::new(0.0, 2.0, 0.0),
                Material::matte(g),
            ),
            mk(
                Vec3::ZERO,
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::new(0.0, 2.0, 0.0),
                Material::matte(g),
            ),
            mk(
                Vec3::new(2.0, 0.0, 0.0),
                Vec3::new(0.0, 2.0, 0.0),
                Vec3::new(0.0, 0.0, 2.0),
                Material::matte(g),
            ),
            // light panel faces down into the room (x edge first).
            mk(
                Vec3::new(0.3, 1.99, 0.3),
                Vec3::new(0.5, 0.0, 0.0),
                Vec3::new(0.0, 0.0, 0.5),
                Material::emitter(Rgb::WHITE),
            ),
        ];
        Scene::new(
            patches,
            vec![Luminaire {
                patch_id: 6,
                power: Rgb::gray(100.0),
                collimation: 1.0,
            }],
        )
    }

    #[test]
    fn stats_conserve_photons() {
        let mut sim = Simulator::new(
            tiny_box(),
            SimConfig {
                seed: 1,
                ..Default::default()
            },
        );
        sim.run_photons(5000);
        let s = sim.stats();
        assert_eq!(s.emitted, 5000);
        assert!(s.is_conserved(), "{s:?}");
        assert!(s.absorbed > s.escaped, "closed box should absorb");
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = SimConfig {
            seed: 42,
            ..Default::default()
        };
        let mut a = Simulator::new(tiny_box(), cfg);
        let mut b = Simulator::new(tiny_box(), cfg);
        a.run_photons(3000);
        b.run_photons(3000);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.forest().total_leaf_bins(), b.forest().total_leaf_bins());
        assert_eq!(a.forest().total_tallies(), b.forest().total_tallies());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Simulator::new(
            tiny_box(),
            SimConfig {
                seed: 1,
                ..Default::default()
            },
        );
        let mut b = Simulator::new(
            tiny_box(),
            SimConfig {
                seed: 2,
                ..Default::default()
            },
        );
        a.run_photons(3000);
        b.run_photons(3000);
        assert_ne!(a.stats().reflections, b.stats().reflections);
    }

    #[test]
    fn batches_record_traces() {
        let mut sim = Simulator::new(tiny_box(), SimConfig::default());
        for _ in 0..5 {
            sim.run_batch(1000);
        }
        assert_eq!(sim.speed_trace().samples().len(), 5);
        assert_eq!(sim.memory_trace().samples().len(), 5);
        assert_eq!(sim.stats().emitted, 5000);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_to_uninterrupted() {
        let cfg = SimConfig {
            seed: 77,
            ..Default::default()
        };
        let mut straight = Simulator::new(tiny_box(), cfg);
        straight.run_photons(4_000);
        let mut first = Simulator::new(tiny_box(), cfg);
        first.run_photons(1_500);
        let ck = first.checkpoint();
        assert_eq!(ck.cursor(), 1_500);
        assert_eq!(ck.emitted(), 1_500);
        let mut resumed = Simulator::new(tiny_box(), cfg);
        resumed.restore(&ck).unwrap();
        resumed.run_photons(2_500);
        assert_eq!(resumed.stats(), straight.stats());
        let bytes = |s: &Simulator| {
            let mut buf = Vec::new();
            s.answer_snapshot().write_to(&mut buf).unwrap();
            buf
        };
        assert_eq!(bytes(&resumed), bytes(&straight));
    }

    #[test]
    fn restore_rejects_a_foreign_checkpoint() {
        let mut sim = Simulator::new(
            tiny_box(),
            SimConfig {
                seed: 1,
                ..Default::default()
            },
        );
        sim.run_photons(100);
        let ck = sim.checkpoint();
        let mut other_seed = Simulator::new(
            tiny_box(),
            SimConfig {
                seed: 2,
                ..Default::default()
            },
        );
        assert!(other_seed.restore(&ck).is_err());
        // The failed restore must not have touched the engine.
        assert_eq!(other_seed.stats().emitted, 0);
    }

    #[test]
    fn forest_refines_under_light() {
        // The corner light panel creates a strong spatial gradient on the
        // floor and walls, which the adaptive bins must track.
        let mut sim = Simulator::new(tiny_box(), SimConfig::default());
        sim.run_photons(100_000);
        assert!(
            sim.forest().total_leaf_bins() > 25,
            "{}",
            sim.forest().total_leaf_bins()
        );
    }
}
