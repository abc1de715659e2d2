//! The resumable distributed solver engine.
//!
//! [`DistEngine`] wraps the Fig 5.3 loop behind
//! [`photon_core::SolverEngine`]: it owns a [`simmpi::World`] (one virtual
//! clock per rank, the engine's only clock) and every rank's state (the
//! trees it owns and no other, its exchange queues, its processed count),
//! so clocks and trees persist between batches while no thread does. Each
//! [`step`](photon_core::SolverEngine::step) is one round of three
//! bulk-synchronous supersteps:
//!
//! 1. **Trace** — one [`parallel_map`] over the ranks, job `r` handed
//!    `&mut` to rank `r`'s state and nothing else writable (no rank sits
//!    behind a lock): rank `r` traces its stride of the batch, tallying the
//!    patches it owns and queueing records for the rest per owner.
//! 2. **Exchange** — on the calling thread: each rank is charged its
//!    compute, and [`World::alltoallv`] moves every queue of
//!    [`PhotonRecord`]s to its owner.
//! 3. **Tally** — a second [`parallel_map`]: each rank tallies what it
//!    received, in source-rank order, and compacts its trees once they
//!    have grown by half since their last compaction (layout only, as in
//!    the wall-clock engines). Each buffer then goes back to its sender,
//!    emptied, as next round's queue.
//!
//! The clocks then meet ([`World::sync_clocks`]) and the engine's one
//! batch controller observes the round's rate. A world of any size runs
//! on at most the host's cores, and since a clock depends only on segment
//! counts and bytes, the schedule never shows in virtual time.
//! [`snapshot`](photon_core::SolverEngine::snapshot) clones the trees each
//! rank owns and merges them into an [`Answer`], so a progressive solve can
//! publish refining answers between steps. All reported times are
//! **virtual** seconds from the platform model, exactly as in the one-shot
//! runs.
//!
//! Each rank runs the workspace's one photon loop
//! ([`photon_core::trace_span`]) with a sink that tallies the patches it
//! owns and queues the rest: rank `r` of `R` takes every `R`-th index of
//! each batch window, and each photon draws from its own block substream
//! ([`photon_core::photon_stream`]) — so a 1-rank world traces exactly the
//! serial simulator's photons, and builds its bytes.
//!
//! Unlike `photon_par::ParEngine`, which runs a large step in rounds of at
//! most 4T × 2 048 photons, a step here is one round whatever its batch, so
//! the exchange queues grow with the batch: a rank's queues hold every
//! record of its stride that another rank owns. Cutting the step into
//! local rounds would apply an owner's remote records between its own
//! rounds, not after all of them, which moves the pinned multi-rank answer
//! bits and the virtual clocks the figures read.

use crate::balance::{self, Ownership};
use crate::batch::{BatchController, BatchMode};
use crate::record::PhotonRecord;
use crate::{BalanceMode, DistConfig, DistSink};
use photon_core::generate::PhotonGenerator;
use photon_core::sim::SimStats;
use photon_core::trace::trace_photon;
use photon_core::{
    trace_span, Answer, BatchReport, BinForest, CompactionWatermark, EngineCheckpoint,
    ForestFootprint, RestoreError, SolverEngine, Span, SpeedTrace,
};
use photon_geom::Scene;
use photon_hist::BinTree;
use photon_par::parallel_map;
use photon_rng::Lcg48;
use simmpi::World;
use std::num::NonZeroUsize;

/// One rank's solve state, kept in the engine between steps.
struct Rank {
    /// The trees of the patches this rank owns, in increasing patch id:
    /// a patch's tree sits at its [`Ownership::locate`] slot.
    trees: Vec<BinTree>,
    /// Outgoing records per destination rank, empty between steps and
    /// reused across them.
    queues: Vec<Vec<PhotonRecord>>,
    /// Photon interactions processed (local + received): Table 5.2's
    /// metric.
    processed: u64,
    /// Node count of `trees` at their last compaction (or boot, or
    /// restore).
    compaction: CompactionWatermark,
}

impl Rank {
    /// Arena footprint of this rank's trees (each patch counted on exactly
    /// one rank, so the sum over ranks covers the answer).
    fn footprint(&self) -> ForestFootprint {
        let mut fp = ForestFootprint::default();
        for tree in &self.trees {
            fp.add_tree(tree);
        }
        fp
    }
}

/// Arena nodes across `trees`.
fn node_count(trees: &[BinTree]) -> u64 {
    trees.iter().map(|t| t.node_count() as u64).sum()
}

/// The distributed engine: a rank world driven batch by batch.
pub struct DistEngine {
    scene: Scene,
    generator: PhotonGenerator,
    config: DistConfig,
    world: World,
    /// Every rank's state; superstep job `r` gets `&mut ranks[r]`.
    ranks: Vec<Rank>,
    /// Threads a superstep maps its ranks over: the host's cores, at most
    /// one per rank.
    workers: usize,
    ownership: Ownership,
    /// The adaptive batch controller, if any: one for the world, since
    /// its decisions depend only on the synchronized clock.
    controller: Option<BatchController>,
    /// Next main-loop photon index to trace.
    main_start: u64,
    stats: SimStats,
    speed: SpeedTrace,
    main_emitted: u64,
    bytes_forwarded: u64,
}

impl DistEngine {
    /// Boots an `config.nranks`-rank world over `scene` and runs the
    /// load-balancing phase (ch. 5): every rank would trace the same pilot
    /// photons with the same seed into the same forest, so the engine
    /// traces them once, charges them to every rank, and moves each pilot
    /// tree to its owner, the only rank that holds it.
    pub fn new(scene: Scene, config: DistConfig) -> Self {
        let nranks = config.nranks;
        assert!(nranks >= 1);
        let npolys = scene.polygon_count();
        let generator = PhotonGenerator::new(&scene);
        let mut world = World::new(nranks, config.platform);
        let mut pilot = BinForest::new(npolys, config.split);
        let mut stats = SimStats::default();
        let ownership = match config.balance {
            BalanceMode::Naive => balance::naive(npolys, nranks),
            BalanceMode::BinPacking { pilot_photons } => {
                let mut pilot_rng = Lcg48::new(config.seed ^ 0x9E3779B97F4A7C15);
                let mut segments = 0u64;
                for _ in 0..pilot_photons {
                    let out = trace_photon(&scene, &generator, &mut pilot_rng, &mut pilot);
                    segments += 1 + out.bounces as u64;
                    stats.record(&out);
                }
                for r in 0..nranks {
                    world.charge_compute(r, segments, npolys);
                }
                let counts: Vec<u64> = pilot.iter().map(|(_, t)| t.tallies()).collect();
                balance::best_fit(&counts, nranks)
            }
        };
        world.sync_clocks(); // end of the balancing phase
                             // Patch ids ascend, so each rank's trees land in slot order.
        let mut trees: Vec<Vec<BinTree>> = vec![Vec::new(); nranks];
        for (p, tree) in pilot.into_trees().into_iter().enumerate() {
            trees[ownership.owner_of(p as u32)].push(tree);
        }
        let ranks = trees
            .into_iter()
            .map(|trees| Rank {
                compaction: CompactionWatermark::new(node_count(&trees)),
                trees,
                queues: vec![Vec::new(); nranks],
                processed: 0,
            })
            .collect();
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        DistEngine {
            scene,
            generator,
            config,
            world,
            ranks,
            workers: cores.min(nranks),
            ownership,
            controller: match config.batch {
                BatchMode::Adaptive(params) => Some(BatchController::new(params)),
                BatchMode::Fixed(_) => None,
            },
            main_start: 0,
            stats,
            speed: SpeedTrace::new(),
            main_emitted: 0,
            bytes_forwarded: 0,
        }
    }

    /// Main-loop photons emitted so far (excludes the pilot phase).
    pub fn main_emitted(&self) -> u64 {
        self.main_emitted
    }

    /// Synchronized virtual clock, seconds: every collective the engine
    /// ends a phase with leaves all rank clocks equal.
    pub fn virtual_clock(&self) -> f64 {
        self.world.clocks()[0]
    }

    /// Virtual-time speed trace, one sample per step.
    pub fn speed_trace(&self) -> &SpeedTrace {
        &self.speed
    }

    /// Bytes shipped through the all-to-all so far.
    pub fn bytes_forwarded(&self) -> u64 {
        self.bytes_forwarded
    }

    /// Photon interactions processed per rank (local + received).
    pub(crate) fn per_rank_tallies(&self) -> Vec<u64> {
        self.ranks.iter().map(|r| r.processed).collect()
    }

    /// The batch sizes the adaptive controller chose, in order (empty for
    /// fixed batches).
    pub(crate) fn batch_history(&self) -> Vec<u64> {
        self.controller
            .as_ref()
            .map(|c| c.history().to_vec())
            .unwrap_or_default()
    }

    /// Clones every patch's tree from its owner into one forest.
    fn collect_forest(&self) -> BinForest {
        let trees = (0..self.scene.polygon_count() as u32).map(|p| {
            let (owner, slot) = self.ownership.locate(p);
            self.ranks[owner].trees[slot].clone()
        });
        BinForest::from_trees(trees.collect())
    }

    /// One trace→exchange→tally round with `per_rank_hint` photons per
    /// non-adaptive rank. Returns the batch report (virtual time).
    pub fn step_round(&mut self, per_rank_hint: u64) -> BatchReport {
        let nranks = self.config.nranks;
        let npolys = self.scene.polygon_count();
        let platform = self.config.platform;
        let per_rank = match &self.controller {
            Some(c) => c.size(),
            None => per_rank_hint.max(1),
        };
        let global_batch = per_rank * nranks as u64;
        let batch_start = self.virtual_clock();
        let (scene, generator, seed) = (&self.scene, &self.generator, self.config.seed);
        let (ownership, main_start) = (&self.ownership, self.main_start);

        // Superstep 1: rank r leapfrogs over the batch window, `per_rank`
        // photons, the union over ranks exactly the serial set.
        let traced = parallel_map(self.workers, &mut self.ranks, |r, rank| {
            let mut queues = std::mem::take(&mut rank.queues);
            // Counted in a local: neighbouring ranks' counters can share a
            // cache line, and a per-tally write there costs ~9 %.
            let mut processed = 0;
            let span = Span {
                start: main_start,
                count: global_batch,
                offset: r as u64,
                stride: nranks as u64,
            };
            let mut sink = DistSink {
                ownership,
                my_rank: r,
                trees: &mut rank.trees,
                queues: &mut queues,
                processed: &mut processed,
            };
            let stats = trace_span(scene, generator, seed, span, &mut sink);
            rank.processed += processed;
            (stats, queues)
        });

        // Superstep 2: charge each rank its segments (one per tally: the
        // emission and each bounce) and the fixed per-batch bookkeeping the
        // adaptive controller amortizes, then exchange foreign tallies.
        let mut batch_photons = 0;
        let mut outgoing = Vec::with_capacity(nranks);
        for (r, (stats, queues)) in traced.into_iter().enumerate() {
            self.world
                .charge_compute(r, stats.emitted + stats.reflections, npolys);
            self.world.advance(r, platform.batch_overhead_s);
            let records: usize = queues.iter().map(Vec::len).sum();
            self.bytes_forwarded += (records * std::mem::size_of::<PhotonRecord>()) as u64;
            self.stats.merge(&stats);
            batch_photons += stats.emitted;
            outgoing.push(queues);
        }
        let incoming = self.world.alltoallv(outgoing);

        // Superstep 3: every owner tallies what it received, in source
        // order, then compacts its trees if they have grown enough.
        let tallied = parallel_map(self.workers, &mut self.ranks, |r, rank| {
            let mut received = 0u64;
            for rec in incoming[r].iter().flatten() {
                let (owner, slot) = ownership.locate(rec.patch_id);
                debug_assert_eq!(owner, r);
                rank.trees[slot].tally(&rec.point(), rec.energy());
                received += 1;
            }
            rank.processed += received;
            // Layout only: neither the answer's bytes nor a clock sees it.
            if rank.compaction.due(node_count(&rank.trees)) {
                rank.trees.iter_mut().for_each(BinTree::compact);
            }
            (received, rank.footprint())
        });
        let mut footprint = ForestFootprint::default();
        for (r, (received, fp)) in tallied.iter().enumerate() {
            self.world.advance(r, platform.tally_cost(*received));
            footprint.merge(fp);
        }
        // Hand every buffer back to its sender, emptied, for the next round.
        for from in incoming {
            for (s, mut buf) in from.into_iter().enumerate() {
                buf.clear();
                self.ranks[s].queues.push(buf);
            }
        }

        // Batch accounting on the synchronized clock.
        let t_batch_end = self.world.sync_clocks();
        self.main_start += global_batch;
        let batch_seconds = (t_batch_end - batch_start).max(1e-12);
        if let Some(c) = self.controller.as_mut() {
            c.observe(global_batch as f64 / batch_seconds);
        }
        self.main_emitted += batch_photons;
        self.speed
            .push_batch(t_batch_end, batch_photons, batch_seconds);
        BatchReport {
            batch_photons,
            emitted_total: self.stats.emitted,
            leaf_bins: footprint.leaf_bins,
            batch_seconds,
            // Ranks tally inline while tracing (locally or via the
            // exchange), so the whole round counts as trace time.
            trace_seconds: batch_seconds,
            apply_seconds: 0.0,
            elapsed_seconds: t_batch_end,
            stats: self.stats,
            footprint,
        }
    }
}

impl SolverEngine for DistEngine {
    fn step(&mut self, batch: u64) -> BatchReport {
        self.step_round(batch.div_ceil(self.config.nranks as u64).max(1))
    }

    fn snapshot(&self) -> Answer {
        Answer::from_forest(&self.collect_forest(), self.stats.emitted)
    }

    fn stats(&self) -> SimStats {
        self.stats
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint::new(
            self.config.seed,
            // The stream cursor is the main-loop photon count: pilot-phase
            // photons (counted in `stats`) draw from a separate stream and
            // are regenerated deterministically when a world boots.
            self.main_emitted,
            self.stats,
            self.config.split,
            self.collect_forest().into_trees(),
        )
    }

    fn restore(&mut self, checkpoint: &EngineCheckpoint) -> Result<(), RestoreError> {
        checkpoint.compatible_with(
            self.scene.polygon_count(),
            self.config.seed,
            self.config.split,
        )?;
        // Each owner adopts the checkpoint's tree in place of its own.
        for (p, tree) in checkpoint.forest().into_trees().into_iter().enumerate() {
            let (owner, slot) = self.ownership.locate(p as u32);
            self.ranks[owner].trees[slot] = tree;
        }
        for rank in &mut self.ranks {
            rank.compaction = CompactionWatermark::new(node_count(&rank.trees));
        }
        self.main_start = checkpoint.cursor();
        self.stats = checkpoint.stats();
        self.main_emitted = self.main_start;
        // Rates after a resume describe the resumed solve only (the
        // virtual clock itself stays synchronized with the rank world).
        self.speed = SpeedTrace::new();
        Ok(())
    }

    fn backend(&self) -> &'static str {
        "distributed"
    }

    fn virtual_time(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_scenes::cornell_box;

    #[test]
    fn a_long_solve_compacts_every_rank() {
        let mut engine = DistEngine::new(cornell_box(), DistConfig::default());
        let mut compacted = [false; 2];
        for _ in 0..20 {
            let before: Vec<CompactionWatermark> =
                engine.ranks.iter().map(|r| r.compaction).collect();
            engine.step(2000);
            for (r, rank) in engine.ranks.iter().enumerate() {
                if rank.compaction == before[r] {
                    continue;
                }
                compacted[r] = true;
                // A compacted arena holds no spare capacity.
                for tree in &rank.trees {
                    let tight = tree.compacted_clone();
                    assert_eq!(
                        (tree.node_bytes(), tree.leaf_bytes()),
                        (tight.node_bytes(), tight.leaf_bytes()),
                        "rank {r}"
                    );
                }
            }
        }
        assert_eq!(compacted, [true; 2], "every rank compacts");
    }
}
