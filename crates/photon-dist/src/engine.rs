//! The resumable distributed solver engine.
//!
//! [`DistEngine`] wraps the Fig 5.3 message-passing world behind
//! [`photon_core::SolverEngine`]: it owns a persistent [`simmpi::World`]
//! and every rank's state (forest shard, owned patches, batch controller,
//! stream cursor), so clocks and trees persist between batches while no
//! thread does. Booting (the pilot trace and the balancing barrier) is one
//! [`World::run`], and so is each
//! [`step`](photon_core::SolverEngine::step): one trace→exchange→tally
//! round, with the calling thread as rank 0.
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

use crate::balance::{self, Ownership};
use crate::batch::{BatchController, BatchMode};
use crate::record::PhotonRecord;
use crate::{DistConfig, DistSink};
use photon_core::generate::PhotonGenerator;
use photon_core::sim::SimStats;
use photon_core::trace::trace_photon;
use photon_core::{
    trace_span, Answer, BatchReport, BinForest, EngineCheckpoint, ForestFootprint, RestoreError,
    SolverEngine, Span, SpeedTrace,
};
use photon_geom::Scene;
use photon_hist::BinTree;
use photon_rng::Lcg48;
use simmpi::{Comm, World};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One rank's solve state, kept in the engine between world runs.
struct Rank {
    /// Every tree; the rank refines those it owns, and the rest keep the
    /// pilot-phase state every rank builds identically at boot.
    forest: BinForest,
    /// The patches this rank owns (set by the balancing phase).
    owned: Vec<u32>,
    /// The adaptive batch controller (lockstep on every rank), if any.
    controller: Option<BatchController>,
    /// Next main-loop photon index to trace.
    main_start: u64,
    /// Synchronized virtual clock at the start of the current batch.
    batch_start: f64,
    /// Photon interactions processed (local + received): Table 5.2's
    /// metric.
    processed: u64,
}

impl Rank {
    /// Arena footprint of the trees this rank owns (each patch counted on
    /// exactly one rank, so the sum over ranks covers the answer).
    fn owned_footprint(&self) -> ForestFootprint {
        let mut fp = ForestFootprint::default();
        for &p in &self.owned {
            fp.add_tree(self.forest.tree(p));
        }
        fp
    }
}

/// What one rank reports from one batch.
struct RankBatch {
    /// Counters for this batch on this rank.
    stats: SimStats,
    /// Synchronized virtual clock after the batch.
    clock: f64,
    /// Virtual seconds the batch took (identical on every rank).
    seconds: f64,
    /// Bytes this rank queued through the all-to-all.
    bytes: u64,
    /// Arena footprint of this rank's owned trees.
    footprint: ForestFootprint,
}

/// Only the engine's `&self` readers lock a rank, one rank at a time, and a
/// world runs under `&mut self`, so the lock is never contended. Poisoning
/// is ignored, as in `photon_par::SharedForest`: the panic that poisoned a
/// lock has already propagated to its caller.
fn lock(rank: &Mutex<Rank>) -> MutexGuard<'_, Rank> {
    rank.lock().unwrap_or_else(PoisonError::into_inner)
}

fn rank_mut(rank: &mut Mutex<Rank>) -> &mut Rank {
    rank.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// The distributed engine: a persistent rank world driven batch by batch.
pub struct DistEngine {
    scene: Scene,
    generator: PhotonGenerator,
    config: DistConfig,
    world: World,
    ranks: Vec<Mutex<Rank>>,
    ownership: Ownership,
    stats: SimStats,
    speed: SpeedTrace,
    main_emitted: u64,
    clock: f64,
    bytes_forwarded: u64,
}

impl DistEngine {
    /// Boots an `config.nranks`-rank world over `scene` and runs the
    /// load-balancing phase.
    pub fn new(scene: Scene, config: DistConfig) -> Self {
        assert!(config.nranks >= 1);
        let generator = PhotonGenerator::new(&scene);
        let mut world = World::new(config.nranks, config.platform);
        let mut ranks: Vec<Mutex<Rank>> = (0..config.nranks)
            .map(|_| {
                Mutex::new(Rank {
                    forest: BinForest::new(scene.polygon_count(), config.split),
                    owned: Vec::new(),
                    controller: match config.batch {
                        BatchMode::Adaptive(params) => Some(BatchController::new(params)),
                        BatchMode::Fixed(_) => None,
                    },
                    main_start: 0,
                    batch_start: 0.0,
                    processed: 0,
                })
            })
            .collect();
        let booted = world.run(&mut ranks, |comm, rank| {
            boot_rank(&scene, &generator, &config, comm, rank_mut(rank))
        });
        let mut stats = SimStats::default();
        let mut clock = 0.0f64;
        for (pilot, barrier_clock, _) in &booted {
            stats.merge(pilot);
            clock = clock.max(*barrier_clock);
        }
        let (_, _, ownership) = booted.into_iter().next().expect("rank 0 booted");
        DistEngine {
            scene,
            generator,
            config,
            world,
            ranks,
            ownership,
            stats,
            speed: SpeedTrace::new(),
            main_emitted: 0,
            clock,
            bytes_forwarded: 0,
        }
    }

    /// Main-loop photons emitted so far (excludes the pilot phase).
    pub fn main_emitted(&self) -> u64 {
        self.main_emitted
    }

    /// Synchronized virtual clock, seconds.
    pub fn virtual_clock(&self) -> f64 {
        self.clock
    }

    /// The ownership map in force.
    pub fn ownership(&self) -> &Ownership {
        &self.ownership
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
        self.ranks.iter().map(|r| lock(r).processed).collect()
    }

    /// The batch sizes the adaptive controllers chose, in order (empty for
    /// fixed batches; every rank's controller holds the same history).
    pub(crate) fn batch_history(&self) -> Vec<u64> {
        lock(&self.ranks[0])
            .controller
            .as_ref()
            .map(|c| c.history().to_vec())
            .unwrap_or_default()
    }

    /// The latest virtual clock on any rank.
    pub(crate) fn final_clock(&self) -> f64 {
        self.world
            .comms()
            .iter()
            .map(Comm::clock)
            .fold(0.0, f64::max)
    }

    /// Clones every rank's owned trees and merges them into one forest
    /// (each patch exactly once).
    fn collect_forest(&self) -> BinForest {
        let mut trees: Vec<Option<BinTree>> =
            (0..self.scene.polygon_count()).map(|_| None).collect();
        for rank in &self.ranks {
            let rank = &mut *lock(rank);
            for &p in &rank.owned {
                // A snapshot is a batch boundary for this rank, so compact
                // the owned arenas first: both the continuing solve and the
                // clones come out subtree-clustered, and the canonical
                // export order keeps the bytes identical.
                rank.forest.tree_mut(p).compact();
                debug_assert!(trees[p as usize].is_none(), "patch {p} owned twice");
                trees[p as usize] = Some(rank.forest.tree(p).clone());
            }
        }
        BinForest::from_trees(
            trees
                .into_iter()
                .map(|t| t.expect("all patches owned"))
                .collect(),
        )
    }

    /// One trace→exchange→tally round with `per_rank_hint` photons per
    /// non-adaptive rank. Returns the batch report (virtual time).
    pub fn step_round(&mut self, per_rank_hint: u64) -> BatchReport {
        let (scene, generator, config, ownership) =
            (&self.scene, &self.generator, &self.config, &self.ownership);
        let batches = self.world.run(&mut self.ranks, |comm, rank| {
            step_rank(
                scene,
                generator,
                config,
                ownership,
                comm,
                rank_mut(rank),
                per_rank_hint,
            )
        });
        let mut batch_photons = 0;
        let mut footprint = ForestFootprint::default();
        for b in &batches {
            self.stats.merge(&b.stats);
            batch_photons += b.stats.emitted;
            self.clock = self.clock.max(b.clock);
            self.bytes_forwarded += b.bytes;
            footprint.merge(&b.footprint);
        }
        let batch_seconds = batches[0].seconds;
        self.main_emitted += batch_photons;
        self.speed
            .push_batch(self.clock, batch_photons, batch_seconds);
        BatchReport {
            batch_photons,
            emitted_total: self.stats.emitted,
            leaf_bins: footprint.leaf_bins,
            batch_seconds,
            // Ranks tally inline while tracing (locally or via the
            // exchange), so the whole round counts as trace time.
            trace_seconds: batch_seconds,
            apply_seconds: 0.0,
            elapsed_seconds: self.clock,
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
        let trees = checkpoint.forest().into_trees();
        let main_start = checkpoint.cursor();
        for rank in &mut self.ranks {
            // Adopt the checkpoint's state for the trees this rank owns;
            // unowned trees keep the pilot-phase state every rank
            // regenerated identically at boot, exactly as in an
            // uninterrupted run.
            let rank = rank_mut(rank);
            for &p in &rank.owned {
                *rank.forest.tree_mut(p) = trees[p as usize].clone();
            }
            rank.main_start = main_start;
        }
        self.stats = checkpoint.stats();
        self.main_emitted = main_start;
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

/// The balancing phase on one rank (redundant pilot trace; ch. 5): returns
/// the rank's pilot counters, its clock after the balancing barrier, and
/// the ownership map (identical on every rank).
fn boot_rank(
    scene: &Scene,
    generator: &PhotonGenerator,
    config: &DistConfig,
    comm: &mut Comm,
    rank: &mut Rank,
) -> (SimStats, f64, Ownership) {
    let npolys = scene.polygon_count();
    let nranks = comm.size();
    let mut pilot_stats = SimStats::default();
    let ownership = match config.balance {
        crate::BalanceMode::Naive => balance::naive(npolys, nranks),
        crate::BalanceMode::BinPacking { pilot_photons } => {
            // Every rank traces the *same* photons with the same seed,
            // producing the same forest and hence the same packing. Only
            // rank 0 reports the pilot in its stats — the photons are
            // global, not per rank.
            let mut pilot_rng = Lcg48::new(config.seed ^ 0x9E3779B97F4A7C15);
            let mut segments = 0u64;
            for _ in 0..pilot_photons {
                let out = trace_photon(scene, generator, &mut pilot_rng, &mut rank.forest);
                segments += 1 + out.bounces as u64;
                if comm.rank() == 0 {
                    pilot_stats.record(&out);
                }
            }
            comm.charge_compute(segments, npolys);
            let counts: Vec<u64> = rank.forest.iter().map(|(_, t)| t.tallies()).collect();
            balance::best_fit(&counts, nranks)
        }
    };
    comm.barrier(); // end of the balancing phase; clocks sync
    let barrier_clock = comm.clock();
    rank.owned = ownership.patches_of(comm.rank());
    rank.batch_start = crate::sync_clock(comm);
    (pilot_stats, barrier_clock, ownership)
}

/// One Fig 5.3 round on one rank: trace its share of the batch, exchange
/// foreign tallies all-to-all, and tally what it received.
fn step_rank(
    scene: &Scene,
    generator: &PhotonGenerator,
    config: &DistConfig,
    ownership: &Ownership,
    comm: &mut Comm,
    rank: &mut Rank,
    per_rank_hint: u64,
) -> RankBatch {
    let npolys = scene.polygon_count();
    let nranks = comm.size();
    let my_rank = comm.rank();
    let per_rank = match &rank.controller {
        Some(c) => c.size(),
        None => per_rank_hint.max(1),
    };
    let global_batch = per_rank * nranks as u64;
    let mut queues: Vec<Vec<u8>> = (0..nranks).map(|_| Vec::new()).collect();
    // Rank r leapfrogs over the batch window: `per_rank` photons, the union
    // over ranks exactly the serial set.
    let span = Span {
        start: rank.main_start,
        count: global_batch,
        offset: my_rank as u64,
        stride: nranks as u64,
    };
    let mut sink = DistSink {
        ownership,
        my_rank,
        forest: &mut rank.forest,
        queues: &mut queues,
        processed: &mut rank.processed,
    };
    let stats = trace_span(scene, generator, config.seed, span, &mut sink);
    // One ray segment per tally: the emission and each bounce.
    comm.charge_compute(stats.emitted + stats.reflections, npolys);
    // Fixed per-batch bookkeeping (queue setup, flush, rate sampling): the
    // cost the adaptive controller amortizes.
    comm.advance(comm.platform().batch_overhead_s);
    let bytes: u64 = queues.iter().map(|q| q.len() as u64).sum();

    // All-to-all exchange; receivers process foreign tallies.
    let incoming = comm.alltoallv(queues);
    let mut received = 0u64;
    for (src, buf) in incoming.iter().enumerate() {
        if src == my_rank {
            continue;
        }
        for rec in PhotonRecord::decode_all(buf) {
            debug_assert_eq!(ownership.owner_of(rec.patch_id), my_rank);
            rank.forest.tally(rec.patch_id, &rec.point, rec.energy);
            received += 1;
        }
    }
    rank.processed += received;
    comm.advance(comm.platform().tally_cost(received));

    // Batch accounting on the synchronized clock: identical on every rank,
    // so the adaptive controllers stay in lockstep.
    let t_batch_end = crate::sync_clock(comm);
    rank.main_start += global_batch;
    let seconds = (t_batch_end - rank.batch_start).max(1e-12);
    let rate = global_batch as f64 / seconds;
    if let Some(c) = rank.controller.as_mut() {
        c.observe(rate);
    }
    rank.batch_start = t_batch_end;
    RankBatch {
        stats,
        clock: t_batch_end,
        seconds,
        bytes,
        footprint: rank.owned_footprint(),
    }
}
