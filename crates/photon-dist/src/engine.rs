//! The resumable distributed solver engine.
//!
//! [`DistEngine`] wraps the Fig 5.3 message-passing world behind
//! [`photon_core::SolverEngine`]: the ranks live on their own threads
//! inside a background [`run_world`], hold their forest shards and virtual
//! clocks between batches, and advance only when the engine broadcasts a
//! command. Each [`step`](photon_core::SolverEngine::step) is one
//! trace→exchange→tally round; [`snapshot`](photon_core::SolverEngine::snapshot)
//! asks every rank for a clone of the trees it owns and merges them into an
//! [`Answer`] — so a progressive solve can publish refining answers while
//! the world keeps running. All reported times are **virtual** seconds from
//! the platform model, exactly as in the one-shot runs.
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
use photon_hist::SplitConfig;
use photon_rng::Lcg48;
use simmpi::{run_world, Comm};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Commands broadcast from the engine to every rank, processed in order.
enum RankCmd {
    /// Run one trace→exchange→tally round. Non-adaptive ranks emit
    /// `per_rank_hint` photons each; adaptive ranks use their controller.
    Step { per_rank_hint: u64 },
    /// Clone and send back the trees this rank owns.
    Snapshot,
    /// Overwrite the rank's owned trees from a checkpointed forest and
    /// move its photon cursor to `main_start` (the restore path; trees the
    /// rank does not own keep their deterministic pilot-phase state).
    Restore {
        /// The checkpoint's full forest, shared across ranks.
        trees: Arc<Vec<photon_hist::BinTree>>,
        /// Next main-loop photon index to trace.
        main_start: u64,
    },
}

/// Replies flowing back on the shared engine channel, tagged by rank.
enum RankReply {
    /// Sent once after the load-balancing phase.
    Ready {
        /// Pilot-phase counters (nonzero only on rank 0 — pilot photons
        /// are global, not per rank).
        stats: SimStats,
        /// Virtual clock after the balancing barrier.
        clock: f64,
        /// The ownership map (identical on every rank).
        ownership: Ownership,
    },
    /// One batch finished.
    Stepped {
        /// Counters for this batch on this rank.
        stats: SimStats,
        /// Synchronized virtual clock after the batch.
        clock: f64,
        /// Virtual seconds the batch took (identical on every rank).
        batch_seconds: f64,
        /// Bytes this rank queued through the all-to-all this batch.
        bytes: u64,
        /// Arena footprint of this rank's owned trees (each patch counted
        /// on exactly one rank, so the engine's sum covers the answer).
        footprint_owned: ForestFootprint,
    },
    /// Snapshot payload: the rank's owned trees.
    Trees(Vec<(u32, BinTree)>),
    /// The rank adopted a restored checkpoint.
    Restored,
}

/// What a rank returns when the world winds down.
pub(crate) struct RankFinal {
    pub(crate) processed: u64,
    pub(crate) batch_history: Vec<u64>,
    pub(crate) final_clock: f64,
}

/// The distributed engine: a persistent rank world driven batch-by-batch.
pub struct DistEngine {
    nranks: usize,
    npolys: usize,
    cmd_txs: Vec<Sender<RankCmd>>,
    reply_rx: Receiver<(usize, RankReply)>,
    world: Option<JoinHandle<Vec<RankFinal>>>,
    ownership: Ownership,
    seed: u64,
    split: SplitConfig,
    stats: SimStats,
    speed: SpeedTrace,
    main_emitted: u64,
    clock: f64,
    bytes_forwarded: u64,
}

impl DistEngine {
    /// Boots an `config.nranks`-rank world over `scene`, runs the
    /// load-balancing phase, and blocks until every rank is ready.
    pub fn new(scene: Scene, config: DistConfig) -> Self {
        assert!(config.nranks >= 1);
        let nranks = config.nranks;
        let npolys = scene.polygon_count();
        let (reply_tx, reply_rx) = channel::<(usize, RankReply)>();
        let mut cmd_txs = Vec::with_capacity(nranks);
        let mut endpoints = Vec::with_capacity(nranks);
        for _ in 0..nranks {
            let (tx, rx) = channel::<RankCmd>();
            cmd_txs.push(tx);
            endpoints.push(Some((rx, reply_tx.clone())));
        }
        let world = std::thread::Builder::new()
            .name("photon-dist-world".into())
            .spawn(move || {
                let endpoints = Mutex::new(endpoints);
                run_world(nranks, config.platform, |comm| {
                    let (cmd_rx, reply_tx) = endpoints.lock().unwrap()[comm.rank()]
                        .take()
                        .expect("endpoint taken once");
                    rank_loop(&scene, &config, comm, cmd_rx, reply_tx)
                })
            })
            .expect("spawn world");

        let mut stats = SimStats::default();
        let mut clock = 0.0f64;
        let mut ownership = None;
        for _ in 0..nranks {
            match reply_rx.recv().expect("world alive") {
                (
                    rank,
                    RankReply::Ready {
                        stats: s,
                        clock: c,
                        ownership: o,
                    },
                ) => {
                    stats.merge(&s);
                    clock = clock.max(c);
                    if rank == 0 {
                        ownership = Some(o);
                    }
                }
                _ => unreachable!("first reply is always Ready"),
            }
        }
        DistEngine {
            nranks,
            npolys,
            cmd_txs,
            reply_rx,
            world: Some(world),
            ownership: ownership.expect("rank 0 reported"),
            seed: config.seed,
            split: config.split,
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

    /// Asks every rank for a clone of its owned trees and merges them into
    /// one forest (each patch exactly once).
    fn collect_forest(&self) -> BinForest {
        self.broadcast(|| RankCmd::Snapshot);
        let mut trees: Vec<Option<BinTree>> = (0..self.npolys).map(|_| None).collect();
        for _ in 0..self.nranks {
            match self.reply_rx.recv().expect("world alive") {
                (_, RankReply::Trees(owned)) => {
                    for (pid, tree) in owned {
                        debug_assert!(trees[pid as usize].is_none(), "patch {pid} owned twice");
                        trees[pid as usize] = Some(tree);
                    }
                }
                _ => unreachable!("only Trees replies outstanding"),
            }
        }
        BinForest::from_trees(
            trees
                .into_iter()
                .map(|t| t.expect("all patches owned"))
                .collect(),
        )
    }

    fn broadcast(&self, make: impl Fn() -> RankCmd) {
        for tx in &self.cmd_txs {
            tx.send(make()).expect("rank alive");
        }
    }

    /// One trace→exchange→tally round with `per_rank_hint` photons per
    /// non-adaptive rank. Returns the batch report (virtual time).
    pub fn step_round(&mut self, per_rank_hint: u64) -> BatchReport {
        self.broadcast(|| RankCmd::Step { per_rank_hint });
        let mut batch_photons = 0;
        let mut batch_seconds = 0.0f64;
        let mut footprint = ForestFootprint::default();
        for _ in 0..self.nranks {
            match self.reply_rx.recv().expect("world alive") {
                (
                    rank,
                    RankReply::Stepped {
                        stats,
                        clock,
                        batch_seconds: secs,
                        bytes,
                        footprint_owned,
                    },
                ) => {
                    self.stats.merge(&stats);
                    batch_photons += stats.emitted;
                    self.clock = self.clock.max(clock);
                    self.bytes_forwarded += bytes;
                    footprint.merge(&footprint_owned);
                    if rank == 0 {
                        batch_seconds = secs;
                    }
                }
                _ => unreachable!("only Stepped replies outstanding"),
            }
        }
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

    /// Winds the world down and returns every rank's final state.
    pub(crate) fn finish(mut self) -> Vec<RankFinal> {
        self.cmd_txs.clear(); // hang up; ranks leave their command loops
        let world = self.world.take().expect("world not yet joined");
        world.join().expect("world panicked")
    }
}

impl Drop for DistEngine {
    fn drop(&mut self) {
        // Hanging up the command channels pops every rank out of its loop.
        self.cmd_txs.clear();
        if let Some(world) = self.world.take() {
            let _ = world.join();
        }
    }
}

impl SolverEngine for DistEngine {
    fn step(&mut self, batch: u64) -> BatchReport {
        self.step_round(batch.div_ceil(self.nranks as u64).max(1))
    }

    fn snapshot(&self) -> Answer {
        Answer::from_forest(&self.collect_forest(), self.stats.emitted)
    }

    fn stats(&self) -> SimStats {
        self.stats
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint::new(
            self.seed,
            // The stream cursor is the main-loop photon count: pilot-phase
            // photons (counted in `stats`) draw from a separate stream and
            // are regenerated deterministically when a world boots.
            self.main_emitted,
            self.stats,
            self.split,
            self.collect_forest().into_trees(),
        )
    }

    fn restore(&mut self, checkpoint: &EngineCheckpoint) -> Result<(), RestoreError> {
        checkpoint.compatible_with(self.npolys, self.seed, self.split)?;
        let trees = Arc::new(checkpoint.forest().into_trees());
        let main_start = checkpoint.cursor();
        self.broadcast(|| RankCmd::Restore {
            trees: Arc::clone(&trees),
            main_start,
        });
        for _ in 0..self.nranks {
            match self.reply_rx.recv().expect("world alive") {
                (_, RankReply::Restored) => {}
                _ => unreachable!("only Restored replies outstanding"),
            }
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

/// The per-rank SPMD body: balancing phase, then the command loop.
fn rank_loop(
    scene: &Scene,
    config: &DistConfig,
    comm: &mut Comm,
    cmd_rx: Receiver<RankCmd>,
    reply_tx: Sender<(usize, RankReply)>,
) -> RankFinal {
    let npolys = scene.polygon_count();
    let nranks = comm.size();
    let my_rank = comm.rank();
    let generator = PhotonGenerator::new(scene);
    let mut pilot_stats = SimStats::default();

    // ---- Load-balancing phase (redundant pilot trace; ch. 5) ----
    let mut forest = BinForest::new(npolys, config.split);
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
                let out = trace_photon(scene, &generator, &mut pilot_rng, &mut forest);
                segments += 1 + out.bounces as u64;
                if my_rank == 0 {
                    pilot_stats.record(&out);
                }
            }
            comm.charge_compute(segments, npolys);
            let counts: Vec<u64> = forest.iter().map(|(_, t)| t.tallies()).collect();
            balance::best_fit(&counts, nranks)
        }
    };
    comm.barrier(); // end of the balancing phase; clocks sync
    let owned_patches = ownership.patches_of(my_rank);
    let owned_footprint = |forest: &BinForest| -> ForestFootprint {
        let mut fp = ForestFootprint::default();
        for &p in &owned_patches {
            fp.add_tree(forest.tree(p));
        }
        fp
    };
    let _ = reply_tx.send((
        my_rank,
        RankReply::Ready {
            stats: pilot_stats,
            clock: comm.clock(),
            ownership: ownership.clone(),
        },
    ));

    // ---- Command loop (each Step is one Fig 5.3 round) ----
    let mut processed = 0u64;
    let mut controller = match config.batch {
        BatchMode::Adaptive(params) => Some(BatchController::new(params)),
        BatchMode::Fixed(_) => None,
    };
    let mut main_start = 0u64;
    let mut t_batch_start = crate::sync_clock(comm);
    // Until the engine hangs up: finished, or dropped.
    while let Ok(cmd) = cmd_rx.recv() {
        match cmd {
            RankCmd::Step { per_rank_hint } => {
                let per_rank = match &controller {
                    Some(c) => c.size(),
                    None => per_rank_hint.max(1),
                };
                let global_batch = per_rank * nranks as u64;
                let mut queues: Vec<Vec<u8>> = (0..nranks).map(|_| Vec::new()).collect();
                // Rank r leapfrogs over the batch window: `per_rank`
                // photons, the union over ranks exactly the serial set.
                let span = Span {
                    start: main_start,
                    count: global_batch,
                    offset: my_rank as u64,
                    stride: nranks as u64,
                };
                let mut sink = DistSink {
                    ownership: &ownership,
                    my_rank,
                    forest: &mut forest,
                    queues: &mut queues,
                    processed: &mut processed,
                };
                let stats = trace_span(scene, &generator, config.seed, span, &mut sink);
                // One ray segment per tally: the emission and each bounce.
                comm.charge_compute(stats.emitted + stats.reflections, npolys);
                // Fixed per-batch bookkeeping (queue setup, flush, rate
                // sampling): the cost the adaptive controller amortizes.
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
                        forest.tally(rec.patch_id, &rec.point, rec.energy);
                        received += 1;
                    }
                }
                processed += received;
                comm.advance(comm.platform().tally_cost(received));

                // Batch accounting on the synchronized clock: identical on
                // every rank, so the adaptive controllers stay in lockstep.
                let t_batch_end = crate::sync_clock(comm);
                main_start += global_batch;
                let batch_seconds = (t_batch_end - t_batch_start).max(1e-12);
                let rate = global_batch as f64 / batch_seconds;
                if let Some(c) = controller.as_mut() {
                    c.observe(rate);
                }
                t_batch_start = t_batch_end;
                let _ = reply_tx.send((
                    my_rank,
                    RankReply::Stepped {
                        stats,
                        clock: t_batch_end,
                        batch_seconds,
                        bytes,
                        footprint_owned: owned_footprint(&forest),
                    },
                ));
            }
            RankCmd::Snapshot => {
                // A snapshot is a batch boundary for this rank, so compact
                // the owned arenas first: both the continuing solve and the
                // shipped clones come out subtree-clustered, and the
                // canonical export order keeps the bytes identical.
                for &p in &owned_patches {
                    forest.tree_mut(p).compact();
                }
                let trees: Vec<(u32, BinTree)> = owned_patches
                    .iter()
                    .map(|&p| (p, forest.tree(p).clone()))
                    .collect();
                let _ = reply_tx.send((my_rank, RankReply::Trees(trees)));
            }
            RankCmd::Restore {
                trees,
                main_start: at,
            } => {
                // Adopt the checkpoint's state for the trees this rank
                // owns; unowned trees keep the pilot-phase state every
                // rank regenerated identically at boot, exactly as in an
                // uninterrupted run.
                for &p in &owned_patches {
                    *forest.tree_mut(p) = trees[p as usize].clone();
                }
                main_start = at;
                let _ = reply_tx.send((my_rank, RankReply::Restored));
            }
        }
    }

    RankFinal {
        processed,
        batch_history: controller.map(|c| c.history().to_vec()).unwrap_or_default(),
        final_clock: comm.clock(),
    }
}
