//! The bin forest: one 4-D adaptive histogram per scene patch (Fig 4.6).

use crate::batch::TallyRecord;
use photon_hist::{BinPoint, BinRange, BinTree, LeafStats, SplitConfig};
use photon_math::Rgb;

/// Resident-memory footprint of a forest, split by arena: hot packed-node
/// bytes (what a descent strides over), cold leaf-statistics bytes (what a
/// tally lands in), and the leaf-bin count. Reported per step through
/// [`crate::BatchReport`] and surfaced as gauges by the serving layer's
/// metrics and exporters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForestFootprint {
    /// Bytes of the hot packed-node arenas across all trees.
    pub node_bytes: u64,
    /// Bytes of the cold leaf-statistics arenas across all trees.
    pub leaf_bytes: u64,
    /// Leaf bins across all trees (Table 5.1's view-dependent polygons).
    pub leaf_bins: u64,
}

impl ForestFootprint {
    /// Folds another footprint into this one (per-rank/per-tree sums).
    pub fn merge(&mut self, other: &ForestFootprint) {
        self.node_bytes += other.node_bytes;
        self.leaf_bytes += other.leaf_bytes;
        self.leaf_bins += other.leaf_bins;
    }

    /// Accounts one tree.
    pub fn add_tree(&mut self, tree: &BinTree) {
        self.node_bytes += tree.node_bytes() as u64;
        self.leaf_bytes += tree.leaf_bytes() as u64;
        self.leaf_bins += tree.leaf_count() as u64;
    }
}

/// A forest of [`BinTree`]s indexed by patch id — the paper's principal data
/// structure, "capable of recording the answer of a global illumination
/// model with the color of every patch as a function of the position on the
/// patch and the viewing direction".
#[derive(Clone, Debug)]
pub struct BinForest {
    trees: Vec<BinTree>,
}

impl BinForest {
    /// One fresh tree per patch.
    pub fn new(patch_count: usize, config: SplitConfig) -> Self {
        BinForest {
            trees: (0..patch_count).map(|_| BinTree::new(config)).collect(),
        }
    }

    /// Number of patches (trees).
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True when the forest has no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Validates a patch id, turning the raw slice-index panic into a
    /// diagnosable one. An out-of-range id here almost always means a
    /// corrupt record crossed a process boundary (distributed exchange,
    /// checkpoint, answer file) — say so instead of `index out of bounds`.
    #[inline]
    #[track_caller]
    fn tree_slot(&self, patch_id: u32) -> usize {
        let idx = patch_id as usize;
        debug_assert!(
            idx < self.trees.len(),
            "patch_id {patch_id} out of range: forest has {} patches",
            self.trees.len()
        );
        if idx >= self.trees.len() {
            panic!(
                "BinForest: patch_id {patch_id} out of range (forest has {} patches) — \
                 corrupt tally record or wrong scene?",
                self.trees.len()
            );
        }
        idx
    }

    /// Tallies a photon interaction on `patch_id`; returns `true` when the
    /// bin split (`UpdateBinCount` + `NeedsSplit`/`Split` of Fig 4.1).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when `patch_id` is outside the
    /// forest (a corrupt record or a forest built for a different scene).
    #[inline]
    pub fn tally(&mut self, patch_id: u32, point: &BinPoint, energy: Rgb) -> bool {
        let idx = self.tree_slot(patch_id);
        self.trees[idx].tally(point, energy)
    }

    /// Applies one patch's batch of records as a single uninterrupted run
    /// (the apply phase of [`crate::batch`]), reusing the leaf descent for
    /// consecutive same-leaf records. Records must already be in serial
    /// order — [`crate::batch::PartitionScratch`] guarantees this — and
    /// the result is bit-identical to tallying them one at a time. Returns
    /// the number of leaf splits triggered.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when `patch_id` is outside the
    /// forest.
    pub fn tally_run(&mut self, patch_id: u32, records: &[TallyRecord]) -> u64 {
        let idx = self.tree_slot(patch_id);
        self.trees[idx].tally_run(records.iter().map(|r| (&r.point, r.energy)))
    }

    /// Read-only leaf lookup (`DetermineBin` for the viewer).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when `patch_id` is outside the
    /// forest.
    #[inline]
    pub fn lookup(&self, patch_id: u32, point: &BinPoint) -> (&LeafStats, BinRange) {
        self.trees[self.tree_slot(patch_id)].lookup(point)
    }

    /// The tree of one patch.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when `patch_id` is outside the
    /// forest.
    #[inline]
    pub fn tree(&self, patch_id: u32) -> &BinTree {
        &self.trees[self.tree_slot(patch_id)]
    }

    /// Mutable access to one patch's tree. Only the ledger's probes call
    /// it; `ParEngine` reaches its trees through [`BinForest::trees_mut`].
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when `patch_id` is outside the
    /// forest.
    #[inline]
    pub fn tree_mut(&mut self, patch_id: u32) -> &mut BinTree {
        let idx = self.tree_slot(patch_id);
        &mut self.trees[idx]
    }

    /// Every tree, indexed by patch id, for callers that hand disjoint
    /// blocks of consecutive patches to different workers.
    pub fn trees_mut(&mut self) -> &mut [BinTree] {
        &mut self.trees
    }

    /// Iterates over `(patch_id, tree)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &BinTree)> {
        self.trees.iter().enumerate().map(|(i, t)| (i as u32, t))
    }

    /// Total leaf bins over all trees — the paper's "view-dependent polygon"
    /// count (Table 5.1).
    pub fn total_leaf_bins(&self) -> u64 {
        self.trees.iter().map(|t| t.leaf_count() as u64).sum()
    }

    /// Total tallies recorded.
    pub fn total_tallies(&self) -> u64 {
        self.trees.iter().map(|t| t.tallies()).sum()
    }

    /// Approximate resident bytes (Fig 5.4's y axis).
    pub fn memory_bytes(&self) -> usize {
        self.trees.iter().map(|t| t.memory_bytes()).sum()
    }

    /// Per-arena footprint gauges across all trees.
    pub fn footprint(&self) -> ForestFootprint {
        let mut fp = ForestFootprint::default();
        for t in &self.trees {
            fp.add_tree(t);
        }
        fp
    }

    /// Total arena nodes across all trees (internals + leaves).
    pub fn total_nodes(&self) -> u64 {
        self.trees.iter().map(|t| t.node_count() as u64).sum()
    }

    /// Rebuilds every tree's arenas into the canonical subtree-clustered
    /// order (see [`BinTree::compact`]), so steady-state traversal is
    /// cache-resident. Purely a layout operation — answers, exports, and
    /// split behaviour are unchanged.
    pub fn compact(&mut self) {
        for t in &mut self.trees {
            t.compact();
        }
    }

    /// Takes the trees out (used when distributing the forest across ranks).
    pub fn into_trees(self) -> Vec<BinTree> {
        self.trees
    }

    /// Rebuilds a forest from trees (inverse of [`BinForest::into_trees`]).
    pub fn from_trees(trees: Vec<BinTree>) -> Self {
        BinForest { trees }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_rng::{Lcg48, PhotonRng};
    use std::f64::consts::TAU;

    #[test]
    fn tallies_route_to_the_right_tree() {
        let mut f = BinForest::new(3, SplitConfig::default());
        let p = BinPoint::new(0.5, 0.5, 1.0, 0.5);
        f.tally(1, &p, Rgb::WHITE);
        f.tally(1, &p, Rgb::WHITE);
        f.tally(2, &p, Rgb::WHITE);
        assert_eq!(f.tree(0).tallies(), 0);
        assert_eq!(f.tree(1).tallies(), 2);
        assert_eq!(f.tree(2).tallies(), 1);
        assert_eq!(f.total_tallies(), 3);
    }

    #[test]
    fn leaf_bins_start_at_one_per_patch() {
        let f = BinForest::new(5, SplitConfig::default());
        assert_eq!(f.total_leaf_bins(), 5);
        assert_eq!(f.len(), 5);
    }

    #[test]
    fn forest_refines_under_concentrated_load() {
        let mut f = BinForest::new(2, SplitConfig::default());
        let mut rng = Lcg48::new(1);
        for _ in 0..20_000 {
            let p = BinPoint::new(
                rng.next_f64() * 0.1,
                rng.next_f64(),
                rng.next_f64() * TAU,
                rng.next_f64(),
            );
            f.tally(0, &p, Rgb::WHITE);
        }
        assert!(f.tree(0).leaf_count() > 1);
        assert_eq!(f.tree(1).leaf_count(), 1);
        assert!(f.memory_bytes() > 0);
    }

    #[test]
    fn out_of_range_patch_id_panics_descriptively() {
        let mut f = BinForest::new(2, SplitConfig::default());
        let p = BinPoint::new(0.5, 0.5, 1.0, 0.5);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.tally(7, &p, Rgb::WHITE);
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains("patch_id 7") && msg.contains("2 patches"),
            "panic message not descriptive: {msg:?}"
        );
    }

    #[test]
    fn footprint_tracks_both_arenas_and_compaction_is_invisible() {
        let mut f = BinForest::new(2, SplitConfig::default());
        let mut rng = Lcg48::new(7);
        for _ in 0..30_000 {
            let p = BinPoint::new(
                rng.next_f64() * 0.05,
                rng.next_f64(),
                rng.next_f64() * TAU,
                rng.next_f64(),
            );
            f.tally(0, &p, Rgb::WHITE);
        }
        let fp = f.footprint();
        assert_eq!(fp.leaf_bins, f.total_leaf_bins());
        assert!(fp.node_bytes >= f.total_nodes() * 8);
        assert!(fp.leaf_bytes > 0);
        // memory_bytes covers both arenas plus headers.
        assert!(f.memory_bytes() as u64 >= fp.node_bytes + fp.leaf_bytes);

        let before: Vec<_> = f.iter().map(|(_, t)| t.export_nodes()).collect();
        f.compact();
        let after: Vec<_> = f.iter().map(|(_, t)| t.export_nodes()).collect();
        assert_eq!(before, after);
        // Compaction trims over-allocated capacity, never grows it.
        assert!(f.footprint().node_bytes <= fp.node_bytes);
    }

    #[test]
    fn round_trip_through_trees() {
        let mut f = BinForest::new(2, SplitConfig::default());
        f.tally(0, &BinPoint::new(0.1, 0.2, 0.3, 0.4), Rgb::WHITE);
        let trees = f.into_trees();
        let f2 = BinForest::from_trees(trees);
        assert_eq!(f2.total_tallies(), 1);
    }
}
