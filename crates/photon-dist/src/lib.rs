//! Distributed-memory Photon (dissertation ch. 5, Fig 5.3).
//!
//! The geometry is replicated on every rank; the *bin forest* — the large,
//! growing data structure — is distributed by patch. Each rank generates and
//! traces its leapfrogged share of every batch with the same photon loop as
//! the serial simulator ([`photon_core::trace_span`]); only the sink
//! differs. Tallies for bins the rank owns update locally; the rest are
//! encoded as 32-byte [`record::PhotonRecord`]s and queued per owner. A
//! blocking all-to-all exchange follows every batch; receivers run
//! `DetermineBin` / `UpdateBinCount` / `Split` on their own trees.
//!
//! On top of that loop sit the paper's two control mechanisms:
//! [`balance`] — Best-Fit bin packing of tree ownership from a pilot trace
//! (Table 5.2) — and [`batch`] — the adaptive batch-size controller
//! (Table 5.3). Time is virtual, supplied by [`simmpi`]'s platform models,
//! so the speedup traces of Figs 5.9–5.15 are deterministic.
//!
//! The rank world itself lives behind [`DistEngine`] (see [`engine`]): a
//! resumable [`photon_core::SolverEngine`] whose ranks persist across
//! batches and answer snapshot requests mid-solve. [`run_distributed`]
//! drives that engine to a [`StopRule`] and takes its last snapshot — the
//! original one-shot shape, now a thin wrapper.

#![deny(missing_docs)]

pub mod balance;
pub mod batch;
pub mod engine;
pub mod record;

pub use balance::Ownership;
pub use batch::{AdaptiveBatch, BatchController, BatchMode};
pub use engine::DistEngine;
pub use record::PhotonRecord;

use photon_core::sim::SimStats;
use photon_core::trace::TallySink;
use photon_core::{Answer, BinForest, SolverEngine, SpeedTrace};
use photon_geom::Scene;
use photon_hist::{BinPoint, SplitConfig};
use photon_math::Rgb;
use simmpi::{Comm, Platform};

/// Ownership assignment strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BalanceMode {
    /// Contiguous blocks of patch ids (no light knowledge).
    Naive,
    /// Pilot trace + Best-Fit bin packing (the paper's method).
    BinPacking {
        /// Photons in the redundant pilot phase (the paper's `k`).
        pilot_photons: u64,
    },
}

/// When to stop the main loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopRule {
    /// Stop after at least this many photons (global).
    Photons(u64),
    /// Stop at this much virtual time (the Fig 5.16 "2-minute run").
    VirtualSeconds(f64),
}

/// Configuration of a distributed run.
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Seed of the photon stream (block-split per photon, leapfrogged over
    /// ranks by photon index).
    pub seed: u64,
    /// Bin splitting policy.
    pub split: SplitConfig,
    /// Number of ranks ("processors").
    pub nranks: usize,
    /// Virtual-time platform model.
    pub platform: Platform,
    /// Ownership strategy.
    pub balance: BalanceMode,
    /// Batch sizing.
    pub batch: BatchMode,
    /// Stop rule.
    pub stop: StopRule,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            seed: 0x5EED,
            split: SplitConfig::default(),
            nranks: 2,
            platform: Platform::power_onyx(),
            balance: BalanceMode::BinPacking {
                pilot_photons: 1000,
            },
            batch: BatchMode::Fixed(500),
            stop: StopRule::Photons(10_000),
        }
    }
}

/// Result of a distributed run.
pub struct DistRunResult {
    /// Aggregate photon counters (pilot photons included in `emitted`).
    pub stats: SimStats,
    /// Virtual-time speed trace (global rate per batch).
    pub speed: SpeedTrace,
    /// Photon interactions *processed* per rank (local + received) — the
    /// Table 5.2 metric.
    pub per_rank_tallies: Vec<u64>,
    /// Batch sizes used, in order (Table 5.3).
    pub batch_history: Vec<u64>,
    /// The merged answer (owner trees only, each patch exactly once).
    pub answer: Answer,
    /// Final synchronized virtual clock.
    pub virtual_elapsed: f64,
    /// The ownership map used.
    pub ownership: Ownership,
    /// Bytes shipped through the all-to-all, total.
    pub bytes_forwarded: u64,
}

/// The tally sink of Fig 5.3's inner loop: local tallies update the rank's
/// own trees; foreign tallies are queued for their owner.
pub(crate) struct DistSink<'a> {
    pub(crate) ownership: &'a Ownership,
    pub(crate) my_rank: usize,
    pub(crate) forest: &'a mut BinForest,
    pub(crate) queues: &'a mut [Vec<u8>],
    pub(crate) processed: &'a mut u64,
}

impl TallySink for DistSink<'_> {
    #[inline]
    fn tally(&mut self, patch_id: u32, point: &BinPoint, energy: Rgb) {
        let owner = self.ownership.owner_of(patch_id);
        if owner == self.my_rank {
            self.forest.tally(patch_id, point, energy);
            *self.processed += 1;
        } else {
            PhotonRecord {
                patch_id,
                point: *point,
                energy,
            }
            .encode_into(&mut self.queues[owner]);
        }
    }
}

/// Runs the full distributed simulation; blocks until the [`StopRule`] is
/// met and all ranks finish.
pub fn run_distributed(scene: &Scene, config: &DistConfig) -> DistRunResult {
    let mut engine = DistEngine::new(scene.clone(), *config);
    let per_rank_hint = match config.batch {
        BatchMode::Fixed(n) => n,
        // Adaptive ranks size themselves from their lockstep controllers.
        BatchMode::Adaptive(params) => params.initial,
    };
    loop {
        match config.stop {
            StopRule::Photons(n) => {
                if engine.main_emitted() >= n {
                    break;
                }
            }
            StopRule::VirtualSeconds(t) => {
                if engine.virtual_clock() >= t {
                    break;
                }
            }
        }
        engine.step_round(per_rank_hint);
    }

    // The answer is the engine's last snapshot (every patch's tree from its
    // unique owner); then wind the world down for the per-rank tables.
    let answer = engine.snapshot();
    let stats = engine.stats();
    let speed = engine.speed_trace().clone();
    let ownership = engine.ownership().clone();
    let bytes_forwarded = engine.bytes_forwarded();
    let finals = engine.finish();
    let mut per_rank_tallies = Vec::with_capacity(config.nranks);
    let mut batch_history = Vec::new();
    let mut virtual_elapsed = 0.0f64;
    for (rank, r) in finals.into_iter().enumerate() {
        per_rank_tallies.push(r.processed);
        virtual_elapsed = virtual_elapsed.max(r.final_clock);
        if rank == 0 {
            batch_history = r.batch_history;
        }
    }
    DistRunResult {
        stats,
        speed,
        per_rank_tallies,
        batch_history,
        answer,
        virtual_elapsed,
        ownership,
        bytes_forwarded,
    }
}

/// Synchronizes every rank's virtual clock to the global maximum and
/// returns it.
pub(crate) fn sync_clock(comm: &mut Comm) -> f64 {
    let t = comm.allreduce_max_f64(comm.clock());
    let dt = t - comm.clock();
    if dt > 0.0 {
        comm.advance(dt);
    }
    comm.clock()
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_core::{SimConfig, Simulator};
    use photon_scenes::cornell_box;

    fn base_config() -> DistConfig {
        DistConfig {
            seed: 424242,
            nranks: 4,
            platform: Platform::power_onyx(),
            balance: BalanceMode::BinPacking { pilot_photons: 500 },
            batch: BatchMode::Fixed(250),
            stop: StopRule::Photons(6000),
            ..Default::default()
        }
    }

    #[test]
    fn photons_conserved_across_ranks() {
        let scene = cornell_box();
        let r = run_distributed(&scene, &base_config());
        // emitted = pilot + ceil-to-batch main photons.
        assert!(r.stats.emitted >= 6500, "{:?}", r.stats);
        assert!(r.stats.is_conserved(), "{:?}", r.stats);
    }

    #[test]
    fn merged_forest_has_every_tally_exactly_once() {
        // Every interaction — pilot and main, local and forwarded — lands
        // in exactly one owner tree: total tallies = emissions +
        // reflections, both of which include the pilot via rank 0's stats.
        let scene = cornell_box();
        let r = run_distributed(&scene, &base_config());
        let total_tallies: u64 = (0..r.answer.patch_count() as u32)
            .map(|pid| r.answer.tree(pid).tallies())
            .sum();
        assert_eq!(total_tallies, r.stats.emitted + r.stats.reflections);
    }

    #[test]
    fn single_rank_naive_matches_serial_exactly() {
        let scene = cornell_box();
        let config = DistConfig {
            seed: 777,
            nranks: 1,
            balance: BalanceMode::Naive,
            batch: BatchMode::Fixed(1000),
            stop: StopRule::Photons(5000),
            ..Default::default()
        };
        let dist = run_distributed(&scene, &config);
        let mut serial = Simulator::new(
            cornell_box(),
            SimConfig {
                seed: 777,
                ..Default::default()
            },
        );
        serial.run_photons(5000);
        assert_eq!(dist.stats, *serial.stats());
        let bytes = |a: &Answer| {
            let mut buf = Vec::new();
            a.write_to(&mut buf).expect("encode answer");
            buf
        };
        assert_eq!(bytes(&dist.answer), bytes(&serial.answer_snapshot()));
    }

    #[test]
    fn bin_packing_balances_processed_tallies() {
        let scene = cornell_box();
        let naive = run_distributed(
            &scene,
            &DistConfig {
                balance: BalanceMode::Naive,
                ..base_config()
            },
        );
        let packed = run_distributed(&scene, &base_config());
        let imbalance = |v: &[u64]| {
            let total: u64 = v.iter().sum();
            let mean = total as f64 / v.len() as f64;
            v.iter().copied().max().unwrap() as f64 / mean
        };
        let ni = imbalance(&naive.per_rank_tallies);
        let bi = imbalance(&packed.per_rank_tallies);
        assert!(
            bi < ni,
            "bin packing {bi:.3} not better than naive {ni:.3}: {:?} vs {:?}",
            packed.per_rank_tallies,
            naive.per_rank_tallies
        );
    }

    #[test]
    fn adaptive_batches_grow_from_500() {
        let scene = cornell_box();
        let config = DistConfig {
            batch: BatchMode::Adaptive(AdaptiveBatch::default()),
            stop: StopRule::Photons(30_000),
            ..base_config()
        };
        let r = run_distributed(&scene, &config);
        assert_eq!(r.batch_history[0], 500);
        assert!(r.batch_history.len() > 2);
        assert!(
            r.batch_history.iter().any(|&b| b > 500),
            "batch never grew: {:?}",
            r.batch_history
        );
    }

    #[test]
    fn virtual_time_budget_stops_the_run() {
        let scene = cornell_box();
        let config = DistConfig {
            stop: StopRule::VirtualSeconds(3.0),
            batch: BatchMode::Fixed(200),
            ..base_config()
        };
        let r = run_distributed(&scene, &config);
        assert!(r.virtual_elapsed >= 3.0);
        // One batch of overshoot at most.
        assert!(r.virtual_elapsed < 10.0, "{}", r.virtual_elapsed);
        assert!(r.stats.emitted > 0);
    }

    #[test]
    fn more_ranks_mean_more_photons_per_virtual_second() {
        let scene = cornell_box();
        let rate_of = |nranks: usize| {
            let r = run_distributed(
                &scene,
                &DistConfig {
                    nranks,
                    stop: StopRule::Photons(8000),
                    batch: BatchMode::Fixed(500),
                    ..base_config()
                },
            );
            r.speed.steady_rate()
        };
        let r1 = rate_of(1);
        let r4 = rate_of(4);
        assert!(r4 > 2.0 * r1, "speedup too low: 1 rank {r1}, 4 ranks {r4}");
    }

    #[test]
    fn forwarded_bytes_are_multiple_of_record_size() {
        let scene = cornell_box();
        let r = run_distributed(&scene, &base_config());
        assert!(r.bytes_forwarded > 0);
        assert_eq!(r.bytes_forwarded % record::RECORD_BYTES as u64, 0);
    }

    #[test]
    fn engine_snapshots_refine_mid_solve() {
        let mut e = DistEngine::new(cornell_box(), base_config());
        let r1 = e.step(2000);
        let early = e.snapshot();
        let r2 = e.step(2000);
        let late = e.snapshot();
        assert!(
            r2.elapsed_seconds > r1.elapsed_seconds,
            "virtual time moves"
        );
        assert!(late.emitted() > early.emitted());
        assert!(late.total_leaf_bins() >= early.total_leaf_bins());
        // Snapshot answers account every tally exactly once, mid-solve too.
        let tallies: u64 = (0..late.patch_count() as u32)
            .map(|p| late.tree(p).tallies())
            .sum();
        assert_eq!(tallies, e.stats().emitted + e.stats().reflections);
    }
}
