//! Answer files: the stored global-illumination solution.
//!
//! "Photon determines all the light interactions and stores them in a
//! database. Once the simulation is finished, all that remains is to
//! determine what is displayed" (ch. 4). The [`Answer`] owns a snapshot of
//! every patch's bin tree plus the emitted-photon normalization; the viewer
//! renders any number of viewpoints from it without re-simulating
//! (Fig 4.10).
//!
//! The on-disk format is a small hand-rolled binary codec (magic +
//! little-endian fields), keeping the workspace free of serialization
//! dependencies.

use crate::forest::BinForest;
use crate::frame::{bad_data, expect_magic, read_counted, read_f64, read_u32, read_u64, read_u8};
use photon_geom::Scene;
use photon_hist::{
    Axis, BinPoint, BinRange, BinTree, ExportNode, LeafCursor, LeafStats, SplitConfig,
};
use photon_math::{CylDir, Onb, Rgb, Vec3};
use std::io::{self, Read, Write};

/// Magic bytes of the answer-file format.
const MAGIC: &[u8; 8] = b"PHOTANS1";

/// A stored global-illumination solution.
#[derive(Clone, Debug)]
pub struct Answer {
    trees: Vec<BinTree>,
    emitted: u64,
}

impl Answer {
    /// Snapshots a forest at `emitted` photons. The snapshot trees are deep
    /// copies in the canonical subtree-clustered arena order, so render-time
    /// lookups against the answer walk memory nearly sequentially.
    pub fn from_forest(forest: &BinForest, emitted: u64) -> Self {
        let trees = forest.iter().map(|(_, t)| t.compacted_clone()).collect();
        Answer { trees, emitted }
    }

    /// An answer with `patch_count` unrefined trees and zero photons — the
    /// placeholder a progressive solve publishes over (renders black).
    pub fn empty(patch_count: usize) -> Self {
        Answer {
            trees: (0..patch_count)
                .map(|_| BinTree::new(SplitConfig::default()))
                .collect(),
            emitted: 0,
        }
    }

    /// Photons the solution was built from.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Number of patches.
    pub fn patch_count(&self) -> usize {
        self.trees.len()
    }

    /// Tree of one patch.
    pub fn tree(&self, patch_id: u32) -> &BinTree {
        &self.trees[patch_id as usize]
    }

    /// Total leaf bins — Table 5.1's "view-dependent polygons".
    pub fn total_leaf_bins(&self) -> u64 {
        self.trees.iter().map(|t| t.leaf_count() as u64).sum()
    }

    /// Radiance leaving patch `patch_id` at bilinear `(s, t)` in the world
    /// direction `dir` (which must point away from the surface).
    ///
    /// Estimator: a leaf bin holding tallied energy `E` over area fraction
    /// `f_A` of a patch with area `A`, and Lambertian solid-angle fraction
    /// `f_Ω`, estimates
    /// `L = (E / N) / (A · f_A · π · f_Ω)`
    /// (the `π` is the full hemisphere's cosine-weighted measure).
    pub fn radiance(&self, scene: &Scene, patch_id: u32, s: f64, t: f64, dir: Vec3) -> Rgb {
        self.radiance_with(scene, patch_id, s, t, dir, &mut LastLeaf::default())
    }

    /// [`Answer::radiance`] remembering the leaf it read in `last`, so a
    /// run of lookups that stays in one leaf pays for it once.
    ///
    /// A lookup the remembered leaf admits returns the remembered radiance:
    /// [`Answer::leaf_radiance`] reads the leaf, the patch area and
    /// `emitted` — never the point — and admission is the bin tree's
    /// descend-equivalent containment, so that is the value a descent would
    /// have produced, bit for bit. When the leaf spans every direction
    /// ([`LeafCursor::spans_all_directions`]) the descent to it compared
    /// only `s` and `t`, so `dir` is not turned into `(θ, r²)` at all.
    pub(crate) fn radiance_with(
        &self,
        scene: &Scene,
        patch_id: u32,
        s: f64,
        t: f64,
        dir: Vec3,
        last: &mut LastLeaf,
    ) -> Rgb {
        if last.patch != Some(patch_id) {
            *last = LastLeaf {
                patch: Some(patch_id),
                ..LastLeaf::default()
            };
        } else if last.leaf.spans_all_directions()
            && last.leaf.admits(&BinPoint::new(s, t, 0.0, 0.0))
        {
            return last.rgb;
        }
        let sp = scene.patch(patch_id);
        // Choose the frame of the side `dir` leaves from.
        let frame = if dir.dot(sp.frame.w) >= 0.0 {
            sp.frame
        } else {
            Onb {
                u: sp.frame.u,
                v: -sp.frame.v,
                w: -sp.frame.w,
            }
        };
        let cyl = CylDir::from_world(dir.normalized(), &frame);
        let point = BinPoint::new(s, t, cyl.theta, cyl.r_sq);
        if last.leaf.admits(&point) {
            return last.rgb;
        }
        let tree = &self.trees[patch_id as usize];
        let (stats, range) = tree.lookup_with(&point, &mut last.leaf);
        last.rgb = self.leaf_radiance(stats, &range, sp.area);
        last.slot = tree
            .cursor_slot(&last.leaf)
            .expect("lookup_with caches its leaf");
        last.rgb
    }

    /// Every leaf's radiance on patch `patch_id`, indexed by leaf slot: for
    /// a point whose descent ends at slot `k` of this tree — or at a leaf
    /// of an older tree that [`BinTree::leaf_remap`] maps to `k` — entry
    /// `k` is what [`Answer::radiance`] returns, bit for bit. The walk
    /// builds each range by the same [`photon_hist::BinRange::split`]s the
    /// descent does, and [`Answer::leaf_radiance`] reads nothing else of
    /// the point.
    pub(crate) fn slot_radiance(&self, scene: &Scene, patch_id: u32) -> Box<[Rgb]> {
        let tree = &self.trees[patch_id as usize];
        let area = scene.patch(patch_id).area;
        let mut table = vec![Rgb::BLACK; tree.leaf_count() as usize];
        tree.for_each_leaf_slot(|slot, range, stats| {
            table[slot as usize] = self.leaf_radiance(stats, range, area);
        });
        table.into_boxed_slice()
    }

    /// Radiance of a known leaf: a function of the leaf, its range, the
    /// patch area and `emitted` alone, never of the point looked up — which
    /// is what lets `radiance_with` reuse it for every point the leaf
    /// admits, and a view reuse it by slot across answers.
    fn leaf_radiance(&self, stats: &LeafStats, range: &BinRange, patch_area: f64) -> Rgb {
        if self.emitted == 0 || stats.n_total == 0 {
            return Rgb::BLACK;
        }
        let denom = self.emitted as f64
            * patch_area.max(1e-12)
            * range.area_fraction().max(1e-12)
            * std::f64::consts::PI
            * range.solid_angle_fraction().max(1e-12);
        stats.rgb / denom
    }

    /// Mean radiance over a whole patch (all directions) — a cheap exposure
    /// reference for the viewer.
    pub fn mean_patch_radiance(&self, scene: &Scene, patch_id: u32) -> Rgb {
        let sp = scene.patch(patch_id);
        let tree = &self.trees[patch_id as usize];
        if self.emitted == 0 {
            return Rgb::BLACK;
        }
        let mut total = Rgb::BLACK;
        tree.for_each_leaf(|_, stats| total += stats.rgb);
        total / (self.emitted as f64 * sp.area.max(1e-12) * std::f64::consts::PI)
    }

    /// Writes the binary answer file.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&(self.trees.len() as u32).to_le_bytes())?;
        w.write_all(&self.emitted.to_le_bytes())?;
        for tree in &self.trees {
            write_tree(w, tree)?;
        }
        Ok(())
    }

    /// Reads a binary answer file written by [`Answer::write_to`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Answer> {
        expect_magic(r, MAGIC, "not a Photon answer file")?;
        let npatches = read_u32(r)? as usize;
        let emitted = read_u64(r)?;
        let trees = read_counted(r, npatches, |r| read_tree(r, SplitConfig::default()))?;
        Ok(Answer { trees, emitted })
    }
}

/// The last leaf [`Answer::radiance_with`] read: its patch, that patch
/// tree's [`LeafCursor`], the leaf's slot in that tree and its radiance.
/// Empty by default; a new patch empties it. Valid against one answer.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LastLeaf {
    patch: Option<u32>,
    leaf: LeafCursor,
    /// The slot of the leaf `leaf` holds ([`BinTree::cursor_slot`]);
    /// meaningless until `radiance_with` has returned once.
    pub(crate) slot: u32,
    rgb: Rgb,
}

/// Exact encoded size of one tree under [`write_tree`], in bytes.
pub(crate) fn tree_encoded_size(tree: &BinTree) -> u64 {
    // node count (4) + per node: tag (1) + leaf payload (52) or
    // internal payload (9).
    let nodes = tree.node_count() as u64;
    let leaves = tree.leaf_count() as u64;
    let internals = nodes - leaves;
    4 + leaves * 53 + internals * 10
}

/// Writes one tree as `node count (u32) + nodes in canonical order`, the
/// shared tree block of the `PHOTANS1` and `PHOTCK1` codecs. The encoding
/// captures the *complete* node state — including each leaf's speculative
/// split statistics (`stat_n`, per-axis `left` counts) — so a decoded tree
/// continues tallying and splitting exactly like the original. The node
/// order is [`BinTree::export_nodes`]'s canonical subtree-clustered order, a
/// pure function of the logical tree: the same solve state encodes to the
/// same bytes no matter how its arenas grew or compacted.
pub(crate) fn write_tree<W: Write>(w: &mut W, tree: &BinTree) -> io::Result<()> {
    let nodes = tree.export_nodes();
    w.write_all(&(nodes.len() as u32).to_le_bytes())?;
    for n in nodes {
        match n {
            ExportNode::Leaf(s) => {
                w.write_all(&[0u8])?;
                w.write_all(&s.n_total.to_le_bytes())?;
                for c in [s.rgb.r, s.rgb.g, s.rgb.b] {
                    w.write_all(&c.to_le_bytes())?;
                }
                w.write_all(&s.stat_n.to_le_bytes())?;
                for l in s.left {
                    w.write_all(&l.to_le_bytes())?;
                }
            }
            ExportNode::Internal { axis, children } => {
                w.write_all(&[1u8])?;
                w.write_all(&[axis as u8])?;
                w.write_all(&children[0].to_le_bytes())?;
                w.write_all(&children[1].to_le_bytes())?;
            }
        }
    }
    Ok(())
}

/// Reads one tree block written by [`write_tree`], validating tags, axes,
/// and the node graph.
pub(crate) fn read_tree<R: Read>(r: &mut R, config: SplitConfig) -> io::Result<BinTree> {
    let nnodes = read_u32(r)? as usize;
    if nnodes == 0 {
        return Err(bad_data("empty tree"));
    }
    let nodes = read_counted(r, nnodes, |r| match read_u8(r)? {
        0 => Ok(ExportNode::Leaf(LeafStats {
            n_total: read_u64(r)?,
            rgb: Rgb::new(read_f64(r)?, read_f64(r)?, read_f64(r)?),
            stat_n: read_u32(r)?,
            left: [read_u32(r)?, read_u32(r)?, read_u32(r)?, read_u32(r)?],
        })),
        1 => {
            let axis = match read_u8(r)? {
                ax @ 0..=3 => Axis::from_index(ax as usize),
                _ => return Err(bad_data("bad axis")),
            };
            let children = [read_u32(r)?, read_u32(r)?];
            Ok(ExportNode::Internal { axis, children })
        }
        _ => Err(bad_data("bad node tag")),
    })?;
    BinTree::from_export(nodes, config).ok_or_else(|| bad_data("malformed tree"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_hist::SplitConfig;
    use photon_rng::{Lcg48, PhotonRng};
    use std::f64::consts::TAU;

    fn sample_forest() -> BinForest {
        let mut f = BinForest::new(3, SplitConfig::default());
        let mut rng = Lcg48::new(9);
        for _ in 0..30_000 {
            let pid = rng.index(3) as u32;
            let p = BinPoint::new(
                rng.next_f64().powi(2),
                rng.next_f64(),
                rng.next_f64() * TAU,
                rng.next_f64(),
            );
            f.tally(pid, &p, Rgb::new(1.0, 0.5, 0.25));
        }
        f
    }

    #[test]
    fn codec_round_trip_preserves_everything() {
        let forest = sample_forest();
        let answer = Answer::from_forest(&forest, 30_000);
        let mut buf = Vec::new();
        answer.write_to(&mut buf).unwrap();
        let back = Answer::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.emitted(), answer.emitted());
        assert_eq!(back.patch_count(), answer.patch_count());
        assert_eq!(back.total_leaf_bins(), answer.total_leaf_bins());
        // Identical lookups everywhere.
        let mut rng = Lcg48::new(10);
        for _ in 0..200 {
            let p = BinPoint::new(
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64() * TAU,
                rng.next_f64(),
            );
            for pid in 0..3u32 {
                let (a, ra) = answer.tree(pid).lookup(&p);
                let (b, rb) = back.tree(pid).lookup(&p);
                assert_eq!(a.n_total, b.n_total);
                assert_eq!(ra, rb);
                assert_eq!(a.rgb, b.rgb);
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        let garbage = b"NOTMAGIC????????";
        assert!(Answer::read_from(&mut garbage.as_slice()).is_err());
        let empty: &[u8] = &[];
        assert!(Answer::read_from(&mut &empty[..]).is_err());
    }

    #[test]
    fn truncated_file_errors_cleanly() {
        let forest = sample_forest();
        let answer = Answer::from_forest(&forest, 30_000);
        let mut buf = Vec::new();
        answer.write_to(&mut buf).unwrap();
        let cut = &buf[..buf.len() / 2];
        assert!(Answer::read_from(&mut &cut[..]).is_err());
    }

    #[test]
    fn empty_answer_is_black() {
        let f = BinForest::new(1, SplitConfig::default());
        let a = Answer::from_forest(&f, 0);
        // Radiance of an empty solution is black everywhere (no div by 0).
        assert_eq!(a.total_leaf_bins(), 1);
    }
}
