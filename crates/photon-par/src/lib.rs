//! Shared-memory parallel Photon (dissertation ch. 5, Fig 5.2).
//!
//! "The geometry data structure becomes a shared database with multiple
//! processors accessing and modifying it. … Mutually exclusive access is
//! insured through the use of semaphores to lock access to nodes in the bin
//! forest, and follows a multiple reader, single writer protocol."
//!
//! The crate is built around [`ParEngine`] (see [`engine`]): a *resumable*
//! solver implementing [`photon_core::SolverEngine`], holding a serial
//! [`photon_core::Simulator`] as its solve state across batches, stepping
//! it through [`photon_core::Simulator::step_with`], and borrowing its
//! workers from [`parallel_map`] one phase at a time.
//! The paper's semaphores have nothing left to guard: between two joins
//! every tree has exactly one writer, the job whose `&mut` item of the map
//! is the block of consecutive trees holding it (the apply phase hands out
//! about four blocks per worker, longest first). The trace phase cuts each
//! round of a step into four contiguous chunks per worker, claimed one at a
//! time, and runs the one photon loop, [`photon_core::trace_span`], over
//! each.
//! Every photon draws from its own block substream of the seeded base
//! stream, so the photon set and its draws are exactly the serial
//! simulator's, whichever worker traces which chunk.
//!
//! **The pipeline.** Each step runs in contiguous rounds of at most
//! 4T × 2 048 photons, in photon order, so its record buffers hold one
//! round whatever the batch. Each round is trace → partition → apply (the
//! kernel of [`photon_core::batch`]; [`engine`] walks through it): per-tree
//! tally order equals serial order *by construction*, so the engine is
//! simultaneously concurrent **and** bit-identical to the serial simulator
//! at any thread count. (The paper's original loop — a write lock per
//! tally, answers that depend on thread interleaving — survives only as
//! the Fig 5.6 contention experiment in `photon-bench`'s `ablation_locks`.)
//! Each step pushes one sample onto the engine's speed trace
//! ([`ParEngine::speed_trace`]): the traces of Figs 5.6–5.8.

#![deny(missing_docs)]

pub mod engine;
pub mod pool;

pub use engine::ParEngine;
pub use pool::parallel_map;

use photon_hist::SplitConfig;

/// Configuration of a shared-memory run.
#[derive(Clone, Copy, Debug)]
pub struct ParConfig {
    /// Seed of the photon stream (block-split per photon).
    pub seed: u64,
    /// Bin splitting policy.
    pub split: SplitConfig,
    /// Worker count (the paper's "processors"): each phase of a step runs
    /// on this many threads, the caller's included. The answer does not
    /// depend on it.
    pub threads: usize,
    /// Photons per batch (across all threads). [`ParEngine`] does not read
    /// it: the caller sizes each step.
    pub batch_size: u64,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            seed: 0x5EED,
            split: SplitConfig::default(),
            threads: 2,
            batch_size: 2000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_core::SolverEngine;
    use photon_scenes::cornell_box;

    /// An engine stepped `steps` batches of `batch` photons.
    fn stepped(seed: u64, threads: usize, steps: usize, batch: u64) -> ParEngine {
        let config = ParConfig {
            seed,
            threads,
            ..Default::default()
        };
        let mut engine = ParEngine::new(cornell_box(), config);
        for _ in 0..steps {
            engine.step(batch);
        }
        engine
    }

    fn small_run(threads: usize) -> ParEngine {
        stepped(99, threads, 5, 2000)
    }

    #[test]
    fn photons_are_conserved_across_threads() {
        for threads in [1, 2, 4] {
            let stats = small_run(threads).stats();
            assert_eq!(stats.emitted, 10_000, "threads={threads}");
            assert!(stats.is_conserved(), "threads={threads}: {stats:?}");
        }
    }

    #[test]
    fn tallies_equal_emissions_plus_reflections() {
        let engine = stepped(7, 4, 5, 1000);
        let (answer, stats) = (engine.snapshot(), engine.stats());
        // answer trees tally exactly emissions + reflections.
        let total: u64 = (0..answer.patch_count() as u32)
            .map(|pid| answer.tree(pid).tallies())
            .sum();
        assert_eq!(total, stats.emitted + stats.reflections);
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        // Block-split photon streams: 1 thread and 4 threads trace the
        // *same* photons, so every counter agrees exactly.
        let serial = small_run(1);
        let par = small_run(4);
        assert_eq!(serial.stats(), par.stats());
    }

    #[test]
    fn speed_trace_has_one_sample_per_batch() {
        let engine = small_run(2);
        let speed = engine.speed_trace();
        assert_eq!(speed.samples().len(), 5);
        let photons: u64 = speed.samples().iter().map(|s| s.photons).sum();
        assert_eq!(photons, 10_000);
        assert!(speed.total_elapsed() > 0.0);
    }

    #[test]
    fn forest_refines_in_parallel() {
        let leaf_bins = small_run(4).snapshot().total_leaf_bins();
        assert!(leaf_bins > 30, "leaf bins {leaf_bins}");
    }
}
