//! Shared-memory parallel Photon (dissertation ch. 5, Fig 5.2).
//!
//! "The geometry data structure becomes a shared database with multiple
//! processors accessing and modifying it. … Mutually exclusive access is
//! insured through the use of semaphores to lock access to nodes in the bin
//! forest, and follows a multiple reader, single writer protocol."
//!
//! The crate is built around [`ParEngine`] (see [`engine`]): a *resumable*
//! solver implementing [`photon_core::SolverEngine`], holding its
//! [`SharedForest`] — one `RwLock` per patch tree — and a
//! persistent worker pool across batches. Every worker runs the one photon
//! loop, [`photon_core::trace_span`], over its leapfrogged share of each
//! batch (worker `t` of `T` takes every `T`-th photon), and each photon
//! draws from its own block substream of the seeded base stream, so the
//! photon set is exactly the serial simulator's regardless of thread count.
//!
//! **The pipeline.** Each step is trace → partition → apply (the kernel of
//! [`photon_core::batch`]; [`engine`] walks through it): per-tree tally
//! order equals serial order *by construction*, so the engine is
//! simultaneously concurrent **and** bit-identical to the serial simulator
//! at any thread count. (The paper's original loop — a write lock per
//! tally, answers that depend on thread interleaving — survives only as
//! the Fig 5.6 contention experiment in `photon-bench`'s `ablation_locks`.)
//!
//! [`run`] drives the engine for a fixed photon budget, recording a speed
//! sample per batch — the traces of Figs 5.6–5.8.

#![deny(missing_docs)]

pub mod engine;
pub mod pool;

pub use engine::ParEngine;
pub use pool::parallel_map;

use photon_core::batch::TallyRecord;
use photon_core::sim::SimStats;
use photon_core::{Answer, ForestFootprint, SolverEngine, SpeedTrace};
use photon_geom::Scene;
use photon_hist::{BinTree, SplitConfig};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Configuration of a shared-memory run.
#[derive(Clone, Copy, Debug)]
pub struct ParConfig {
    /// Seed of the photon stream (block-split per photon).
    pub seed: u64,
    /// Bin splitting policy.
    pub split: SplitConfig,
    /// Worker thread count (the paper's "processors"). The engine spawns
    /// exactly this many; the answer does not depend on it.
    pub threads: usize,
    /// Photons per batch (across all threads).
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

/// The shared bin forest: one reader/writer lock per patch tree.
pub struct SharedForest {
    trees: Vec<RwLock<BinTree>>,
}

/// The forest's locks ignore poisoning: a worker that panics is reported
/// where the engine waits on it, not by the next thread to touch a tree.
fn read(tree: &RwLock<BinTree>) -> RwLockReadGuard<'_, BinTree> {
    tree.read().unwrap_or_else(PoisonError::into_inner)
}

fn write(tree: &RwLock<BinTree>) -> RwLockWriteGuard<'_, BinTree> {
    tree.write().unwrap_or_else(PoisonError::into_inner)
}

impl SharedForest {
    /// One tree per patch.
    pub fn new(patch_count: usize, split: SplitConfig) -> Self {
        SharedForest {
            trees: (0..patch_count)
                .map(|_| RwLock::new(BinTree::new(split)))
                .collect(),
        }
    }

    /// Applies one patch's run of records under a single write-lock
    /// acquisition, in record order, reusing the previous record's leaf
    /// descent when the next lands in the same leaf
    /// ([`photon_hist::LeafCursor`]) — bit-identical to tallying the records
    /// one at a time in order.
    pub fn tally_run(&self, patch_id: u32, records: &[TallyRecord]) {
        if records.is_empty() {
            return;
        }
        write(&self.trees[patch_id as usize])
            .tally_run(records.iter().map(|r| (&r.point, r.energy)));
    }

    /// Number of patches (trees).
    pub fn patch_count(&self) -> usize {
        self.trees.len()
    }

    /// Replaces every tree with `forest`'s — the restore path of an engine
    /// checkpoint.
    ///
    /// # Panics
    /// Panics if the patch counts differ (callers validate via
    /// [`photon_core::EngineCheckpoint::compatible_with`] first).
    pub fn replace(&self, forest: photon_core::BinForest) {
        assert_eq!(forest.len(), self.trees.len(), "patch count mismatch");
        for (slot, tree) in self.trees.iter().zip(forest.into_trees()) {
            *write(slot) = tree;
        }
    }

    /// Total leaf bins across trees.
    pub fn total_leaf_bins(&self) -> u64 {
        self.trees.iter().map(|t| read(t).leaf_count() as u64).sum()
    }

    /// Arena nodes across the forest, derived from the leaf count: the
    /// packed arenas carry no orphan slots, so every tree holds exactly
    /// `2·leaves − 1` nodes.
    pub(crate) fn total_nodes(&self) -> u64 {
        2 * self.total_leaf_bins() - self.trees.len() as u64
    }

    /// Per-arena footprint gauges summed over the trees, each under a brief
    /// read lock.
    pub fn footprint(&self) -> ForestFootprint {
        let mut fp = ForestFootprint::default();
        for t in &self.trees {
            fp.add_tree(&read(t));
        }
        fp
    }

    /// Rebuilds every tree's arenas into the canonical subtree-clustered
    /// order (see [`BinTree::compact`]). Layout-only: exports, lookups, and
    /// future splits are unchanged, so any snapshot or checkpoint taken
    /// around the compaction is byte-identical. Callers must only compact
    /// at batch boundaries — a compaction invalidates the leaf cursor of a
    /// run being applied.
    pub fn compact_all(&self) {
        for t in &self.trees {
            write(t).compact();
        }
    }

    /// Clones the current trees into a serial forest — the snapshot behind
    /// a progressive answer publish; the engine keeps refining afterwards.
    pub fn snapshot_forest(&self) -> photon_core::BinForest {
        photon_core::BinForest::from_trees(self.trees.iter().map(|t| read(t).clone()).collect())
    }

    /// Collapses into a serial forest.
    pub fn into_forest(self) -> photon_core::BinForest {
        photon_core::BinForest::from_trees(
            self.trees
                .into_iter()
                .map(|t| t.into_inner().unwrap_or_else(PoisonError::into_inner))
                .collect(),
        )
    }
}

/// Result of a shared-memory run.
pub struct ParRunResult {
    /// Aggregate photon counters.
    pub stats: SimStats,
    /// Speed-vs-time trace (one sample per batch).
    pub speed: SpeedTrace,
    /// The answer snapshot.
    pub answer: Answer,
    /// Leaf bins at the end (Table 5.1's view-dependent polygons).
    pub leaf_bins: u64,
}

/// Runs `total_photons` through a [`ParEngine`] batch by batch (Fig 5.2's
/// `forall` loop with per-batch speed samples).
pub fn run(scene: &Scene, config: &ParConfig, total_photons: u64) -> ParRunResult {
    assert!(config.threads >= 1);
    assert!(config.batch_size >= 1);
    let mut engine = ParEngine::new(scene.clone(), *config);
    let mut remaining = total_photons;
    while remaining > 0 {
        let n = remaining.min(config.batch_size);
        engine.step(n);
        remaining -= n;
    }
    let leaf_bins = engine.forest().total_leaf_bins();
    let stats = engine.stats();
    let speed = engine.speed_trace().clone();
    ParRunResult {
        stats,
        speed,
        answer: engine.into_answer(),
        leaf_bins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_scenes::cornell_box;

    fn small_run(threads: usize) -> ParRunResult {
        let scene = cornell_box();
        let config = ParConfig {
            seed: 99,
            threads,
            batch_size: 2000,
            ..Default::default()
        };
        run(&scene, &config, 10_000)
    }

    #[test]
    fn photons_are_conserved_across_threads() {
        for threads in [1, 2, 4] {
            let r = small_run(threads);
            assert_eq!(r.stats.emitted, 10_000, "threads={threads}");
            assert!(r.stats.is_conserved(), "threads={threads}: {:?}", r.stats);
        }
    }

    #[test]
    fn tallies_equal_emissions_plus_reflections() {
        let scene = cornell_box();
        let config = ParConfig {
            seed: 7,
            threads: 4,
            batch_size: 1000,
            ..Default::default()
        };
        let r = run(&scene, &config, 5_000);
        // answer trees tally exactly emissions + reflections.
        let total: u64 = (0..r.answer.patch_count() as u32)
            .map(|pid| r.answer.tree(pid).tallies())
            .sum();
        assert_eq!(total, r.stats.emitted + r.stats.reflections);
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        // Block-split photon streams: 1 thread and 4 threads trace the
        // *same* photons, so every counter agrees exactly.
        let serial = small_run(1);
        let par = small_run(4);
        assert_eq!(serial.stats, par.stats);
    }

    #[test]
    fn speed_trace_has_one_sample_per_batch() {
        let r = small_run(2);
        assert_eq!(r.speed.samples().len(), 5);
        assert_eq!(r.speed.total_photons(), 10_000);
        assert!(r.speed.total_elapsed() > 0.0);
    }

    #[test]
    fn forest_refines_in_parallel() {
        let r = small_run(4);
        assert!(r.leaf_bins > 30, "leaf bins {}", r.leaf_bins);
    }
}
