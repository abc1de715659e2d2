//! The unified solver engine: every Photon backend as an incremental
//! `step → snapshot` machine.
//!
//! The dissertation's three drivers — the serial simulator (Fig 4.1), the
//! shared-memory `forall` loop (Fig 5.2) and the distributed exchange loop
//! (Fig 5.3) — are all the same computation: advance the photon stream by a
//! batch, fold the tallies into the bin forest, repeat until converged.
//! [`SolverEngine`] is that shape as a trait, so the serving layer can
//! drive any backend batch-by-batch and publish progressively refining
//! [`Answer`] snapshots while the solve is still running.
//!
//! **The photon stream.** All engines draw photon `j` from block substream
//! `j` of one seeded base stream ([`photon_stream`]): photon `j` owns draws
//! `[j·S, (j+1)·S)` with `S = `[`PHOTON_DRAW_STRIDE`]. The stream is
//! therefore a property of `(seed, j)` alone — not of the backend, the
//! worker count, or how batches were sized — which is what makes a serial
//! run and a threaded run of the same seed produce *bit-identical* answers
//! (`photon-par` partitions each batch's tallies back into serial order).
//! All engines also run the same photon loop, [`crate::trace::trace_span`];
//! the two wall-clock engines share their step bookkeeping, [`StepBook`].

use crate::answer::Answer;
use crate::checkpoint::{EngineCheckpoint, RestoreError};
use crate::forest::ForestFootprint;
use crate::perf::SpeedTrace;
use crate::sim::SimStats;
use photon_rng::Lcg48;
use std::time::Instant;

/// Draws reserved per photon in the block-split stream.
///
/// A photon consumes a handful of draws for emission (rejection kernel)
/// plus a few per bounce, capped at [`crate::trace::MAX_BOUNCES`] bounces —
/// comfortably under 2^13 in any physical scene. 2^48 / 2^13 leaves room
/// for 2^35 photons per seed.
pub const PHOTON_DRAW_STRIDE: u64 = 1 << 13;

/// The RNG for global photon `index` of the stream seeded by `seed`.
///
/// Every backend traces photon `index` with exactly this generator, so the
/// photon set of a run depends only on `(seed, photon count)`.
#[inline]
pub fn photon_stream(seed: u64, index: u64) -> Lcg48 {
    Lcg48::new(seed).substream(index, PHOTON_DRAW_STRIDE)
}

/// What one [`SolverEngine::step`] accomplished.
#[derive(Clone, Copy, Debug)]
pub struct BatchReport {
    /// Photons emitted by this step.
    pub batch_photons: u64,
    /// Photons emitted over the engine's whole life.
    pub emitted_total: u64,
    /// Leaf bins in the forest after the step (refinement progress).
    pub leaf_bins: u64,
    /// Time this step took, seconds. Wall clock for the serial and
    /// shared-memory engines; *virtual* time for the distributed engine.
    pub batch_seconds: f64,
    /// Portion of [`BatchReport::batch_seconds`] spent tracing photons.
    /// Backends that tally inline while tracing (serial, distributed) report
    /// the whole step here.
    pub trace_seconds: f64,
    /// Portion of [`BatchReport::batch_seconds`] spent partitioning and
    /// applying tally records (the batched pipeline's partition + apply
    /// phases; see `photon-core::batch`). Zero for inline-tally backends.
    pub apply_seconds: f64,
    /// Time since the engine started, on the same clock as
    /// [`BatchReport::batch_seconds`].
    pub elapsed_seconds: f64,
    /// Cumulative photon counters.
    pub stats: SimStats,
    /// Per-arena resident footprint of the forest after the step (the
    /// distributed engine reports its owned trees — each patch exactly
    /// once across ranks).
    pub footprint: ForestFootprint,
}

/// Step bookkeeping of the two wall-clock engines, [`crate::Simulator`] and
/// `photon_par::ParEngine`, which differ only in what they do between
/// [`StepBook::begin`] and [`StepBook::finish`]. (The distributed engine's
/// clock is virtual and its counters arrive per rank, so it assembles its
/// own reports.)
#[derive(Clone, Debug)]
pub struct StepBook {
    /// Next global photon index to trace. Tracks `stats.emitted` for a
    /// fresh run; they diverge only after restoring a checkpoint whose
    /// counters include photons outside the main stream (the distributed
    /// backend's pilot phase).
    pub cursor: u64,
    /// Counters so far.
    pub stats: SimStats,
    /// Speed-vs-time trace, one sample per finished step.
    pub speed: SpeedTrace,
    started: Option<Instant>,
    /// Forest node count at the last arena compaction. Steps re-compact
    /// once the arenas have grown ~50% past it, so splits stay cheap
    /// appends while steady-state traversal converges to the canonical
    /// cache-resident order. Layout only — never affects answers.
    compact_watermark: u64,
}

impl StepBook {
    /// Bookkeeping for a fresh run over a forest of `nodes` arena nodes.
    pub fn new(nodes: u64) -> Self {
        StepBook {
            cursor: 0,
            stats: SimStats::default(),
            speed: SpeedTrace::new(),
            started: None,
            compact_watermark: nodes,
        }
    }

    /// Accounts `count` traced photons of the stream and their counters.
    pub fn advance(&mut self, count: u64, stats: &SimStats) {
        self.cursor += count;
        self.stats.merge(stats);
    }

    /// Starts a step's clock — and the run's, on the first step since
    /// new/restore.
    pub fn begin(&mut self) -> Instant {
        self.started.get_or_insert_with(Instant::now);
        Instant::now()
    }

    /// True when a forest now holding `nodes` arena nodes has outgrown the
    /// last compaction by half, in which case the caller compacts it. Ask
    /// only at a batch boundary, where no leaf cursor or tree guard is
    /// outstanding; gating on growth amortizes the rebuild.
    pub fn wants_compaction(&mut self, nodes: u64) -> bool {
        let due = nodes > self.compact_watermark + self.compact_watermark / 2;
        if due {
            self.compact_watermark = nodes;
        }
        due
    }

    /// Ends the step of `batch` photons that began at `batch_start`: pushes
    /// the speed sample and assembles the report around the forest's
    /// `footprint`. `trace_seconds` is the trace phase's share of the step,
    /// the rest being apply time; an engine that tallies while it traces
    /// passes `None` and reports the whole step as trace time.
    pub fn finish(
        &mut self,
        batch_start: Instant,
        batch: u64,
        trace_seconds: Option<f64>,
        footprint: ForestFootprint,
    ) -> BatchReport {
        let batch_seconds = batch_start.elapsed().as_secs_f64();
        let trace_seconds = trace_seconds.unwrap_or(batch_seconds);
        let run_start = self.started.expect("finish follows begin");
        let elapsed_seconds = run_start.elapsed().as_secs_f64();
        self.speed.push_batch(elapsed_seconds, batch, batch_seconds);
        BatchReport {
            batch_photons: batch,
            emitted_total: self.stats.emitted,
            leaf_bins: footprint.leaf_bins,
            batch_seconds,
            trace_seconds,
            apply_seconds: batch_seconds - trace_seconds,
            elapsed_seconds,
            stats: self.stats,
            footprint,
        }
    }

    /// Adopts a checkpoint's cursor and counters over a restored forest of
    /// `nodes` arena nodes. The discarded run's speed trace and clock go
    /// with it — rates reported after a resume describe the resumed solve
    /// only.
    pub fn restore(&mut self, checkpoint: &EngineCheckpoint, nodes: u64) {
        *self = StepBook {
            cursor: checkpoint.cursor(),
            stats: checkpoint.stats(),
            ..StepBook::new(nodes)
        };
    }
}

/// An incremental global-illumination solver.
///
/// `step` advances the simulation by roughly `batch` photons and reports
/// what happened; `snapshot` freezes the current view-independent solution
/// without stopping the run. Implementations:
///
/// * [`crate::Simulator`] — the serial reference,
/// * `photon_par::ParEngine` — shared-memory threads, trace → partition → apply,
/// * `photon_dist::DistEngine` — message-passing ranks on virtual time.
pub trait SolverEngine: Send {
    /// Advances the solve by about `batch` photons (backends may round to
    /// their worker/rank granularity) and reports the batch.
    fn step(&mut self, batch: u64) -> BatchReport;

    /// The current view-independent solution; the engine keeps solving.
    fn snapshot(&self) -> Answer;

    /// Cumulative photon counters.
    fn stats(&self) -> SimStats;

    /// Photons emitted so far.
    fn emitted(&self) -> u64 {
        self.stats().emitted
    }

    /// Freezes the resumable state: forest, counters, and the photon-index
    /// cursor the next [`step`](SolverEngine::step) would start from.
    ///
    /// Because every backend draws photon `j` from block substream `j`
    /// ([`photon_stream`]), this is the *complete* solve state: restore the
    /// checkpoint into any engine over the same scene, seed, and split
    /// policy and the solve continues the exact photon stream. For the
    /// order-preserving backends (serial, threaded) the
    /// resumed [`Answer`] is bit-identical to an uninterrupted run.
    fn checkpoint(&self) -> EngineCheckpoint;

    /// Adopts a checkpoint's state, discarding whatever this engine had
    /// solved so far. The engine must have been built over the same scene
    /// (patch count), photon-stream seed, and split policy; the next
    /// [`step`](SolverEngine::step) continues from the checkpoint's cursor.
    fn restore(&mut self, checkpoint: &EngineCheckpoint) -> Result<(), RestoreError>;

    /// Short backend name for logs and progress reports.
    fn backend(&self) -> &'static str;

    /// True when [`BatchReport`] times are virtual (model) seconds rather
    /// than wall clock.
    fn virtual_time(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn photon_stream_sits_at_its_block_boundary() {
        let mut base = Lcg48::new(9);
        base.jump_ahead(3 * PHOTON_DRAW_STRIDE);
        assert_eq!(photon_stream(9, 3).state(), base.state());
    }

    #[test]
    fn photon_stream_is_a_pure_function() {
        let mut x = photon_stream(5, 123);
        let mut y = photon_stream(5, 123);
        assert_eq!(x.next_u48(), y.next_u48());
    }
}
