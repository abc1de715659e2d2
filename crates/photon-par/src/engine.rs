//! The resumable shared-memory solver engine.
//!
//! [`ParEngine`] is `photon_par`'s implementation of
//! [`photon_core::SolverEngine`]: it owns its [`SharedForest`] and a
//! persistent worker pool, so the solve advances batch by batch across
//! [`step`](photon_core::SolverEngine::step) calls instead of running once
//! and exiting. `photon_par::run` is a thin driver over this engine.
//!
//! **Photon assignment.** Step `k` covers global photon indices
//! `[cursor, cursor + batch)`; worker `t` of `T` leapfrogs through them,
//! taking every `T`-th index. Each photon draws from its own block
//! substream ([`photon_core::photon_stream`]), so the photon *set* is
//! independent of the worker count.
//!
//! **The step** is one function body, [`ParEngine::step`], reading
//! generate → trace → partition → apply → compact → report:
//!
//! 1. *Trace* — every worker runs the workspace's one photon loop
//!    ([`photon_core::trace_span`]) over its stride, lock-free, its sink a
//!    [`RecordSink`] over its own scratch buffer (reused across steps), and
//!    replies with its photon counters only.
//! 2. *Partition* — the engine thread counting-sorts all records by patch,
//!    scattering in global `(photon, bounce)` order into one reused buffer:
//!    each patch's run is exactly the serial tally subsequence for that
//!    tree.
//! 3. *Apply* — workers claim whole patch runs from an atomic cursor and
//!    fold each into its tree under a single write-lock acquisition, with
//!    the leaf-descent cache skipping root re-descents inside a run.
//! 4. *Compact, report* — the bookkeeping [`StepBook`] shared with the
//!    serial simulator.
//!
//! Because every tree sees exactly the serial tally order and each run is
//! applied by exactly one worker, the resulting [`Answer`] is
//! **bit-identical** to `Simulator`'s for the same seed and photon count,
//! at any thread count — one worker included, which runs the same three
//! phases — while runs on distinct trees apply concurrently. Steady-state
//! steps allocate nothing: trace buffers, the sorted buffer, the run list,
//! and the per-patch counters are all reused.

use crate::{ParConfig, SharedForest};
use photon_core::batch::{PartitionScratch, RecordSink, TallyRecord};
use photon_core::generate::PhotonGenerator;
use photon_core::sim::SimStats;
use photon_core::{
    trace_span, Answer, BatchReport, EngineCheckpoint, RestoreError, SolverEngine, Span,
    SpeedTrace, StepBook,
};
use photon_geom::Scene;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;

/// Buffers shared between the engine thread and the workers, reused across
/// steps. The phases alternate strict ownership: workers write `traces`
/// (each its own slot) while tracing and the engine reads them all during
/// the partition; the engine writes `partition` during the partition and
/// workers read it during the apply. The locks are therefore uncontended —
/// they exist to prove the handoff to the compiler, not to arbitrate races.
struct StepShared {
    /// Per-worker trace records; slot `t` belongs to worker `t`.
    traces: Vec<Mutex<Vec<TallyRecord>>>,
    /// The partition output the apply phase consumes.
    partition: RwLock<PartitionScratch>,
    /// Next un-claimed index into `partition.runs` during the apply phase.
    next_run: AtomicUsize,
}

#[derive(Clone, Copy)]
enum Cmd {
    /// Trace this worker's leapfrogged share of photons
    /// `[start, start + count)` into its scratch buffer.
    Trace { start: u64, count: u64 },
    /// Claim patch runs from the shared partition and apply them.
    Apply,
}

struct WorkerCtx {
    tid: usize,
    threads: usize,
    seed: u64,
    scene: Arc<Scene>,
    generator: Arc<PhotonGenerator>,
    forest: Arc<SharedForest>,
    shared: Arc<StepShared>,
}

/// Runs commands until the engine hangs up, acknowledging each with the
/// counters of the photons it traced (none, for an apply).
fn worker_loop(ctx: WorkerCtx, rx: Receiver<Cmd>, tx: Sender<SimStats>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Trace { start, count } => {
                // Trace into the buffer from this worker's own stack, not in
                // its slot: a `Vec`'s length is stored at every push, the
                // slots are 32 bytes apart, and whether two of them share a
                // cache line is the allocator's whim — so pushing in place
                // cost 0–15 % of the trace phase, differently every run.
                let slot = &ctx.shared.traces[ctx.tid];
                let mut out =
                    std::mem::take(&mut *slot.lock().unwrap_or_else(PoisonError::into_inner));
                out.clear(); // keep capacity: steady state reallocates nothing
                let span = Span {
                    start,
                    count,
                    offset: ctx.tid as u64,
                    stride: ctx.threads as u64,
                };
                let stats = trace_span(
                    &ctx.scene,
                    &ctx.generator,
                    ctx.seed,
                    span,
                    &mut RecordSink::new(&mut out),
                );
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = out;
                let _ = tx.send(stats);
            }
            Cmd::Apply => {
                let partition = ctx
                    .shared
                    .partition
                    .read()
                    .unwrap_or_else(PoisonError::into_inner);
                loop {
                    let i = ctx.shared.next_run.fetch_add(1, Ordering::Relaxed);
                    let Some(run) = partition.runs.get(i) else {
                        break;
                    };
                    ctx.forest
                        .tally_run(run.patch_id, partition.run_records(run));
                }
                drop(partition);
                let _ = tx.send(SimStats::default());
            }
        }
    }
}

/// The resumable shared-memory engine: a worker pool over a shared,
/// reader/writer-locked bin forest, stepped batch by batch through the
/// trace→partition→apply pipeline.
pub struct ParEngine {
    config: ParConfig,
    forest: Arc<SharedForest>,
    shared: Arc<StepShared>,
    /// One command channel per worker (`config.threads` of them).
    cmd_txs: Vec<Sender<Cmd>>,
    reply_rx: Receiver<SimStats>,
    handles: Vec<JoinHandle<()>>,
    steps: StepBook,
}

impl ParEngine {
    /// Spawns `config.threads` workers over `scene` and an empty forest.
    pub fn new(scene: Scene, config: ParConfig) -> Self {
        assert!(config.threads >= 1);
        let workers = config.threads;
        let forest = Arc::new(SharedForest::new(scene.polygon_count(), config.split));
        let shared = Arc::new(StepShared {
            traces: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            partition: RwLock::new(PartitionScratch::new(scene.polygon_count())),
            next_run: AtomicUsize::new(0),
        });
        let generator = Arc::new(PhotonGenerator::new(&scene));
        let scene = Arc::new(scene);
        let (reply_tx, reply_rx) = channel();
        let mut cmd_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for tid in 0..workers {
            let (tx, rx) = channel();
            cmd_txs.push(tx);
            let ctx = WorkerCtx {
                tid,
                threads: workers,
                seed: config.seed,
                scene: Arc::clone(&scene),
                generator: Arc::clone(&generator),
                forest: Arc::clone(&forest),
                shared: Arc::clone(&shared),
            };
            let reply_tx = reply_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("photon-par-{tid}"))
                    .spawn(move || worker_loop(ctx, rx, reply_tx))
                    .expect("spawn worker"),
            );
        }
        ParEngine {
            config,
            steps: StepBook::new(forest.total_nodes()),
            forest,
            shared,
            cmd_txs,
            reply_rx,
            handles,
        }
    }

    /// The shared forest being refined.
    pub fn forest(&self) -> &SharedForest {
        &self.forest
    }

    /// Speed-vs-time trace, one sample per step.
    pub fn speed_trace(&self) -> &SpeedTrace {
        &self.steps.speed
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &ParConfig {
        &self.config
    }

    /// Sends every worker a command, waits for all of them to finish it,
    /// and returns the counters they report.
    fn round(&self, cmd: Cmd) -> SimStats {
        for tx in &self.cmd_txs {
            tx.send(cmd).expect("worker alive");
        }
        let mut stats = SimStats::default();
        for _ in &self.cmd_txs {
            stats.merge(&self.reply_rx.recv().expect("worker alive"));
        }
        stats
    }

    fn shutdown(&mut self) {
        self.cmd_txs.clear(); // hang up; workers exit their recv loop
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Finishes the run, moving the forest into the answer (no tree
    /// clones, unlike a mid-solve [`SolverEngine::snapshot`]).
    pub fn into_answer(mut self) -> Answer {
        self.shutdown(); // joins workers, dropping their forest handles
        let emitted = self.steps.stats.emitted;
        let dummy = Arc::new(SharedForest::new(0, self.config.split));
        let forest = std::mem::replace(&mut self.forest, dummy);
        let forest = match Arc::try_unwrap(forest) {
            Ok(owned) => owned.into_forest(),
            // Unreachable after shutdown, but cloning stays correct.
            Err(shared) => shared.snapshot_forest(),
        };
        Answer::from_forest(&forest, emitted)
    }
}

impl Drop for ParEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl SolverEngine for ParEngine {
    fn step(&mut self, batch: u64) -> BatchReport {
        let batch_start = self.steps.begin();
        let start = self.steps.cursor;

        // Generate + trace: lock-free, each worker into its own buffer.
        let traced = self.round(Cmd::Trace {
            start,
            count: batch,
        });
        self.steps.advance(batch, &traced);
        let trace_seconds = batch_start.elapsed().as_secs_f64();

        // Partition, on the engine thread.
        {
            let traces = self.shared.traces.iter();
            let guards: Vec<_> = traces
                .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
                .collect();
            let lists: Vec<&[TallyRecord]> = guards.iter().map(|g| g.as_slice()).collect();
            self.shared
                .partition
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .partition(&lists, start, batch);
        }

        // Apply: workers claim whole patch runs.
        self.shared.next_run.store(0, Ordering::Release);
        self.round(Cmd::Apply);

        // Compact: no worker holds a guard between rounds, so this batch
        // boundary is the one safe place. Invisible in the answer
        // (canonical export).
        if self.steps.wants_compaction(self.forest.total_nodes()) {
            self.forest.compact_all();
        }

        self.steps.finish(
            batch_start,
            batch,
            Some(trace_seconds),
            self.forest.footprint(),
        )
    }

    fn snapshot(&self) -> Answer {
        Answer::from_forest(&self.forest.snapshot_forest(), self.steps.stats.emitted)
    }

    fn stats(&self) -> SimStats {
        self.steps.stats
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        // A checkpoint is a batch boundary too: compact the live arenas so
        // both the resumed solve and the cloned trees are subtree-clustered.
        self.forest.compact_all();
        EngineCheckpoint::new(
            self.config.seed,
            self.steps.cursor,
            self.steps.stats,
            self.config.split,
            self.forest.snapshot_forest().into_trees(),
        )
    }

    fn restore(&mut self, checkpoint: &EngineCheckpoint) -> Result<(), RestoreError> {
        checkpoint.compatible_with(
            self.forest.patch_count(),
            self.config.seed,
            self.config.split,
        )?;
        // The workers only hold the shared forest and per-photon stream
        // parameters, so swapping the trees in place restores them too.
        self.forest.replace(checkpoint.forest());
        self.steps.restore(checkpoint, self.forest.total_nodes());
        Ok(())
    }

    fn backend(&self) -> &'static str {
        "threaded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_core::{SimConfig, Simulator};
    use photon_scenes::cornell_box;

    fn engine(threads: usize) -> ParEngine {
        ParEngine::new(
            cornell_box(),
            ParConfig {
                seed: 2024,
                threads,
                ..Default::default()
            },
        )
    }

    fn answer_bytes(a: &Answer) -> Vec<u8> {
        let mut buf = Vec::new();
        a.write_to(&mut buf).expect("encode answer");
        buf
    }

    #[test]
    fn engine_is_resumable_across_steps() {
        let mut e = engine(3);
        let r1 = e.step(1000);
        let r2 = e.step(1000);
        assert_eq!(r1.emitted_total, 1000);
        assert_eq!(r2.emitted_total, 2000);
        assert!(r2.leaf_bins >= r1.leaf_bins, "forest must not coarsen");
        assert_eq!(r2.footprint.leaf_bins, r2.leaf_bins);
        assert!(r2.footprint.node_bytes > 0 && r2.footprint.leaf_bytes > 0);
        assert_eq!(e.speed_trace().samples().len(), 2);
        assert!(e.stats().is_conserved());
        // The report splits the step into trace + apply phases.
        assert!(r2.trace_seconds >= 0.0 && r2.apply_seconds >= 0.0);
        assert!(r2.trace_seconds + r2.apply_seconds <= r2.batch_seconds + 1e-9);
    }

    #[test]
    fn batched_engine_matches_serial_bit_for_bit() {
        let mut serial = Simulator::new(
            cornell_box(),
            SimConfig {
                seed: 2024,
                ..Default::default()
            },
        );
        serial.run_photons(4000);
        let want = answer_bytes(&serial.answer_snapshot());
        for threads in [1, 2, 4, 5] {
            let mut e = engine(threads);
            e.step(1500);
            e.step(2500);
            assert_eq!(
                answer_bytes(&e.snapshot()),
                want,
                "threads={threads} diverged from serial"
            );
        }
    }

    #[test]
    fn batching_does_not_change_the_answer() {
        let mut a = engine(4);
        a.step(3000);
        let mut b = engine(4);
        for _ in 0..6 {
            b.step(500);
        }
        assert_eq!(answer_bytes(&a.snapshot()), answer_bytes(&b.snapshot()));
    }

    #[test]
    fn checkpoint_resume_matches_an_uninterrupted_run() {
        let mut straight = engine(3);
        straight.step(4000);
        let want = answer_bytes(&straight.snapshot());
        let mut first = engine(2);
        first.step(1700);
        let ck = first.checkpoint();
        assert_eq!(ck.cursor(), 1700);
        drop(first); // the original engine (and its workers) are gone
        let mut resumed = engine(5);
        resumed.restore(&ck).expect("compatible checkpoint");
        resumed.step(2300);
        assert_eq!(resumed.stats(), straight.stats());
        assert_eq!(answer_bytes(&resumed.snapshot()), want);
    }

    #[test]
    fn restore_rejects_a_mismatched_seed() {
        let mut a = engine(2);
        a.step(500);
        let ck = a.checkpoint();
        let mut other = ParEngine::new(
            cornell_box(),
            ParConfig {
                seed: 1,
                threads: 2,
                ..Default::default()
            },
        );
        assert!(other.restore(&ck).is_err());
        assert_eq!(other.stats().emitted, 0);
    }

    #[test]
    fn snapshot_does_not_stop_the_engine() {
        let mut e = engine(2);
        e.step(800);
        let early = e.snapshot();
        e.step(800);
        let late = e.snapshot();
        assert_eq!(early.emitted(), 800);
        assert_eq!(late.emitted(), 1600);
        assert!(late.total_leaf_bins() >= early.total_leaf_bins());
    }
}
