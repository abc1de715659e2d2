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
//! All engines also run the same photon loop, [`crate::trace::trace_span`],
//! and the two wall-clock engines the same step body,
//! [`crate::Simulator::step_with`]: `photon_par::ParEngine` is a
//! [`crate::Simulator`] whose batches its workers tally.

use crate::answer::Answer;
use crate::checkpoint::{EngineCheckpoint, RestoreError};
use crate::forest::ForestFootprint;
use crate::sim::SimStats;
use photon_rng::Lcg48;

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

/// Arena node count of a set of bin trees at their last compaction. The
/// trees re-compact once their arenas have grown by half past it, so splits
/// stay cheap appends while steady-state traversal converges to the
/// canonical cache-resident order. Layout only — never affects answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionWatermark(u64);

impl CompactionWatermark {
    /// A watermark at `nodes`, the node count of fresh or just-restored
    /// trees.
    pub fn new(nodes: u64) -> Self {
        CompactionWatermark(nodes)
    }

    /// True when the trees, now holding `nodes` arena nodes, have outgrown
    /// the last compaction by half, in which case the caller compacts them
    /// and the watermark moves to `nodes`. Ask only at a batch boundary,
    /// where no leaf cursor or tree guard is outstanding; gating on growth
    /// amortizes the rebuild.
    pub fn due(&mut self, nodes: u64) -> bool {
        let due = nodes > self.0 + self.0 / 2;
        if due {
            self.0 = nodes;
        }
        due
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
