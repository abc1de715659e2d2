//! Four-dimensional adaptive bin trees (dissertation ch. 4, Figs 4.5/4.6).
//!
//! Every scene polygon owns one `BinTree` recording the photons it reflected,
//! binned over four hierarchically subdividable parameters:
//!
//! | axis | meaning | range |
//! |------|---------|-------|
//! | `S` | bilinear position along the patch `s` edge | `[0, 1]` |
//! | `T` | bilinear position along the patch `t` edge | `[0, 1]` |
//! | `Theta` | cylindrical azimuth of the reflection direction | `[0, 2π)` |
//! | `RSq` | squared projected radius of the direction | `[0, 1]` |
//!
//! Color is a fifth, unsubdivided dimension: each leaf accumulates RGB
//! energy. The squared-radius axis is chosen because halving it halves a
//! Lambertian direction distribution (see `photon_math::angle`), so diffuse
//! surfaces refine spatially while mirrors refine angularly.
//!
//! **Speculative binning.** Each leaf tracks, for all four axes, how many of
//! its tallies fell into the lower half of its range on that axis. When any
//! axis rejects the uniform hypothesis at 3σ ([`crate::stats`]), the leaf
//! splits *on the most decisive axis*; the observed half-counts become the
//! daughters' (exact) totals on the split axis, and the daughters restart
//! their speculative statistics.
//!
//! **Storage: hot/cold SoA split.** The traversal-hot data — one packed
//! node word (`PackedNode`) per tree node, 8 bytes — lives in a flat arena the descent
//! strides over; the tally-cold per-leaf statistics (48-byte [`LeafStats`])
//! live in a separate arena addressed by leaf slot. An internal node stores
//! only its split axis and the index of its child *pair* (children are
//! always allocated adjacently), so a descent touches one cache line per
//! ~8 levels instead of one per level. When a leaf splits, its cold slot is
//! reused for the lower daughter and one fresh slot is appended for the
//! upper, keeping the cold arena exactly leaf-count long. [`BinTree::compact`]
//! rebuilds both arenas into the canonical subtree-clustered order (the
//! order [`BinTree::export_nodes`] serializes), so steady-state traversal
//! after a snapshot or checkpoint walks memory nearly sequentially.

use crate::stats::SplitRule;
use photon_math::Rgb;
use std::f64::consts::TAU;

/// The four subdividable histogram axes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Axis {
    /// Bilinear `s` position on the patch.
    S = 0,
    /// Bilinear `t` position on the patch.
    T = 1,
    /// Cylindrical azimuth of the reflected direction.
    Theta = 2,
    /// Squared projected radius of the reflected direction.
    RSq = 3,
}

impl Axis {
    /// All axes in index order.
    pub const ALL: [Axis; 4] = [Axis::S, Axis::T, Axis::Theta, Axis::RSq];

    /// Axis from its index (0..4).
    #[inline]
    pub fn from_index(i: usize) -> Axis {
        Axis::ALL[i]
    }
}

/// A photon interaction in bin coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BinPoint {
    /// Bilinear `s` in `[0, 1]`.
    pub s: f64,
    /// Bilinear `t` in `[0, 1]`.
    pub t: f64,
    /// Azimuth in `[0, 2π)`.
    pub theta: f64,
    /// Squared projected radius in `[0, 1]`.
    pub r_sq: f64,
}

impl BinPoint {
    /// Creates a point, clamping tiny out-of-range rounding noise.
    pub fn new(s: f64, t: f64, theta: f64, r_sq: f64) -> Self {
        BinPoint {
            s: s.clamp(0.0, 1.0),
            t: t.clamp(0.0, 1.0),
            theta: theta.rem_euclid(TAU),
            r_sq: r_sq.clamp(0.0, 1.0),
        }
    }

    /// Coordinate along an axis.
    #[inline]
    pub fn coord(&self, axis: Axis) -> f64 {
        match axis {
            Axis::S => self.s,
            Axis::T => self.t,
            Axis::Theta => self.theta,
            Axis::RSq => self.r_sq,
        }
    }
}

/// Upper bounds of the root range, indexed by `Axis`.
const FULL_HI: [f64; 4] = [1.0, 1.0, TAU, 1.0];

/// The 4-D parameter box covered by a node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BinRange {
    /// Lower bounds, indexed by `Axis`.
    pub lo: [f64; 4],
    /// Upper bounds, indexed by `Axis`.
    pub hi: [f64; 4],
}

impl BinRange {
    /// The root range: full patch, full hemisphere.
    pub fn full() -> Self {
        BinRange {
            lo: [0.0; 4],
            hi: FULL_HI,
        }
    }

    /// Midpoint along an axis.
    #[inline]
    pub fn mid(&self, axis: Axis) -> f64 {
        0.5 * (self.lo[axis as usize] + self.hi[axis as usize])
    }

    /// Width along an axis.
    #[inline]
    pub fn width(&self, axis: Axis) -> f64 {
        self.hi[axis as usize] - self.lo[axis as usize]
    }

    /// True when the point is inside (half-open on every axis, closed at the
    /// global upper boundary which callers clamp to).
    pub fn contains(&self, p: &BinPoint) -> bool {
        Axis::ALL.iter().all(|&a| {
            let x = p.coord(a);
            x >= self.lo[a as usize] && x <= self.hi[a as usize]
        })
    }

    /// The lower/upper half along `axis`.
    pub fn split(&self, axis: Axis) -> (BinRange, BinRange) {
        let m = self.mid(axis);
        let mut lo_half = *self;
        let mut hi_half = *self;
        lo_half.hi[axis as usize] = m;
        hi_half.lo[axis as usize] = m;
        (lo_half, hi_half)
    }

    /// Fraction of the patch area covered: product of `S` and `T` widths
    /// (bilinear parameters; exact for parallelograms, the paper accepts the
    /// approximation for trapezoids).
    pub fn area_fraction(&self) -> f64 {
        self.width(Axis::S) * self.width(Axis::T)
    }

    /// Fraction of the *Lambertian* direction measure covered: the `θ`
    /// fraction of the circle times the `r²` width (projected-disc area —
    /// the reason the paper bins squared radius).
    pub fn solid_angle_fraction(&self) -> f64 {
        (self.width(Axis::Theta) / TAU) * self.width(Axis::RSq)
    }

    /// Center point of the range.
    pub fn center(&self) -> BinPoint {
        BinPoint {
            s: self.mid(Axis::S),
            t: self.mid(Axis::T),
            theta: self.mid(Axis::Theta),
            r_sq: self.mid(Axis::RSq),
        }
    }
}

/// Accumulated statistics of a leaf bin.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LeafStats {
    /// Total photons credited to this bin, including the share inherited
    /// from ancestors at split time (exact on the split axis — see module
    /// docs). Conserved: summing over leaves equals total tallies.
    pub n_total: u64,
    /// Accumulated RGB energy (inherited proportionally at splits).
    pub rgb: Rgb,
    /// Tallies since this leaf was created (basis of the split statistics).
    pub stat_n: u32,
    /// Of `stat_n`, how many fell in the lower half per axis.
    pub left: [u32; 4],
}

/// Split policy knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitConfig {
    /// The statistical rule (3σ by default).
    pub rule: SplitRule,
    /// Maximum tree depth (root = 0). Bounds memory under adversarial input.
    pub max_depth: u16,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            rule: SplitRule::default(),
            max_depth: 24,
        }
    }
}

/// Hot-arena node, packed into 8 bytes.
///
/// Bit layout: bit 63 flags an internal node; bits 33..=32 carry the split
/// axis (internal only); bits 31..=0 carry the payload — the cold-arena leaf
/// slot for a leaf, or the arena index of the `(lower, upper)` child *pair*
/// for an internal node. Children are always allocated adjacently, so one
/// `u32` names both: the lower daughter at `first_child`, the upper at
/// `first_child + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(transparent)]
struct PackedNode(u64);

// The whole point of the hot/cold split: an internal-node entry must stay
// within 8 bytes so a descent touches ~8x fewer cache lines than the old
// enum arena.
const _: () = assert!(std::mem::size_of::<PackedNode>() <= 8);

impl PackedNode {
    const INTERNAL: u64 = 1 << 63;
    const AXIS_SHIFT: u32 = 32;

    #[inline]
    fn leaf(slot: u32) -> Self {
        PackedNode(slot as u64)
    }

    #[inline]
    fn internal(axis: Axis, first_child: u32) -> Self {
        PackedNode(Self::INTERNAL | ((axis as u64) << Self::AXIS_SHIFT) | first_child as u64)
    }

    #[inline]
    fn is_leaf(self) -> bool {
        self.0 & Self::INTERNAL == 0
    }

    /// Leaf slot for leaves, first-child index for internals.
    #[inline]
    fn payload(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn axis(self) -> Axis {
        Axis::from_index(((self.0 >> Self::AXIS_SHIFT) & 0b11) as usize)
    }
}

/// A four-dimensional adaptive histogram tree for one polygon.
///
/// Stored as a hot/cold SoA pair of flat arenas (see the module docs): a
/// packed node arena the descent strides over, and a leaf-stats arena only
/// the final tally touches.
#[derive(Clone, Debug)]
pub struct BinTree {
    /// Hot arena: one [`PackedNode`] per tree node, root at index 0.
    nodes: Vec<PackedNode>,
    /// Cold arena: leaf statistics addressed by the slot a packed leaf
    /// names. Slot reuse at split time keeps this exactly leaf-count long.
    leaves: Vec<LeafStats>,
    config: SplitConfig,
    tallies: u64,
}

impl BinTree {
    /// A fresh tree: one leaf covering the full range.
    pub fn new(config: SplitConfig) -> Self {
        BinTree {
            nodes: vec![PackedNode::leaf(0)],
            leaves: vec![LeafStats::default()],
            config,
            tallies: 0,
        }
    }

    /// Total photons tallied into this tree.
    pub fn tallies(&self) -> u64 {
        self.tallies
    }

    /// Number of leaf bins. This is the paper's "view-dependent polygon"
    /// count for the owning patch (Table 5.1).
    pub fn leaf_count(&self) -> u32 {
        self.leaves.len() as u32
    }

    /// Number of arena nodes (leaves + internals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Resident bytes of the hot (packed node) arena.
    pub fn node_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<PackedNode>()
    }

    /// Resident bytes of the cold (leaf statistics) arena.
    pub fn leaf_bytes(&self) -> usize {
        self.leaves.capacity() * std::mem::size_of::<LeafStats>()
    }

    /// Approximate resident bytes of this tree: both arenas plus the
    /// header.
    pub fn memory_bytes(&self) -> usize {
        self.node_bytes() + self.leaf_bytes() + std::mem::size_of::<Self>()
    }

    /// The split policy in force.
    pub fn config(&self) -> &SplitConfig {
        &self.config
    }

    /// Descends to the leaf containing `p`; returns `(arena index, range,
    /// depth)`.
    fn descend(&self, p: &BinPoint) -> (usize, BinRange, u16) {
        let mut idx = 0usize;
        let mut range = BinRange::full();
        let mut depth = 0u16;
        loop {
            let node = self.nodes[idx];
            if node.is_leaf() {
                return (idx, range, depth);
            }
            let axis = node.axis();
            let (lo_half, hi_half) = range.split(axis);
            if p.coord(axis) < range.mid(axis) {
                idx = node.payload() as usize;
                range = lo_half;
            } else {
                idx = node.payload() as usize + 1;
                range = hi_half;
            }
            depth += 1;
        }
    }

    /// Descend-equivalent containment: the set of points `descend` routes to
    /// a leaf with box `range` is half-open on every axis (`lo <= x < hi`)
    /// except at the global upper boundary, which is closed because
    /// [`BinPoint::new`] clamps onto it and `descend` compares with `<`.
    /// The lower test is written `!(x < lo)`, the negation of the very
    /// comparison `descend` made to go upper, so a NaN coordinate — which
    /// `descend` sends upper at every split — is admitted exactly where
    /// `descend` takes it; in particular an axis the path never split
    /// (`lo == 0`, `hi` the global bound) admits every coordinate
    /// [`BinPoint::new`] can produce.
    ///
    /// [`BinRange::contains`] is closed on *both* ends and must not be used
    /// here: a coordinate exactly on a cached leaf's upper edge belongs to
    /// the sibling, and treating it as a hit would diverge from `descend`
    /// (and therefore from the serial tally order).
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x < lo)` is `descend`'s own test, NaN included
    fn leaf_admits(range: &BinRange, p: &BinPoint) -> bool {
        Axis::ALL.iter().all(|&a| {
            let i = a as usize;
            let x = p.coord(a);
            !(x < range.lo[i]) && (x < range.hi[i] || range.hi[i] >= FULL_HI[i])
        })
    }

    /// Records a photon interaction with energy `rgb`. Returns `true` when
    /// the containing bin split as a result (the `NeedsSplit`/`Split` path of
    /// the paper's Fig 4.1 algorithm).
    pub fn tally(&mut self, p: &BinPoint, rgb: Rgb) -> bool {
        let (idx, range, depth) = self.descend(p);
        self.tally_at(idx, range, depth, p, rgb)
    }

    /// Records a photon interaction through a [`LeafCursor`], skipping the
    /// root descent when `p` lands in the same leaf as the cursor's previous
    /// tally. Behaviour (including split decisions and floating-point
    /// accumulation order) is bit-identical to [`BinTree::tally`]: a cache
    /// hit requires the cached node to still be a leaf *and* the point to
    /// pass a descend-equivalent containment test (`leaf_admits`), so the
    /// leaf reached is exactly the leaf `descend` would reach.
    pub fn tally_with(&mut self, p: &BinPoint, rgb: Rgb, cursor: &mut LeafCursor) -> bool {
        let (idx, range, depth) = match cursor.cached {
            Some((idx, range, depth))
                if self.nodes[idx as usize].is_leaf() && Self::leaf_admits(&range, p) =>
            {
                (idx as usize, range, depth)
            }
            _ => self.descend(p),
        };
        let split = self.tally_at(idx, range, depth, p, rgb);
        // After a split the node at `idx` is internal; drop the cache so the
        // next tally re-descends into the fresh daughters.
        cursor.cached = if split {
            None
        } else {
            Some((idx as u32, range, depth))
        };
        split
    }

    /// Applies a run of tallies in order through one shared [`LeafCursor`].
    /// Equivalent to calling [`BinTree::tally`] per record, but consecutive
    /// records landing in the same leaf skip the root descent. Returns the
    /// number of splits triggered.
    pub fn tally_run<'a, I>(&mut self, records: I) -> u64
    where
        I: IntoIterator<Item = (&'a BinPoint, Rgb)>,
    {
        let mut cursor = LeafCursor::new();
        let mut splits = 0u64;
        for (p, rgb) in records {
            splits += u64::from(self.tally_with(p, rgb, &mut cursor));
        }
        splits
    }

    /// Tally into the leaf at `idx` (with box `range` at `depth`), then run
    /// the split check. Callers must pass exactly what `descend(p)` returns
    /// (or a [`LeafCursor`]-validated equivalent).
    fn tally_at(
        &mut self,
        idx: usize,
        range: BinRange,
        depth: u16,
        p: &BinPoint,
        rgb: Rgb,
    ) -> bool {
        self.tallies += 1;
        let node = self.nodes[idx];
        debug_assert!(node.is_leaf(), "tally_at on internal node");
        let stats = &mut self.leaves[node.payload() as usize];
        stats.n_total += 1;
        stats.rgb += rgb;
        stats.stat_n += 1;
        for (i, &axis) in Axis::ALL.iter().enumerate() {
            if p.coord(axis) < range.mid(axis) {
                stats.left[i] += 1;
            }
        }
        if depth >= self.config.max_depth {
            return false;
        }
        // NeedsSplit: most decisive axis beyond 3σ.
        let mut best_axis = None;
        let mut best_excess = 1.0f64;
        for (i, &axis) in Axis::ALL.iter().enumerate() {
            let l = stats.left[i];
            let r = stats.stat_n - l;
            let e = self.config.rule.excess(l, r);
            if e > best_excess {
                best_excess = e;
                best_axis = Some(axis);
            }
        }
        let Some(axis) = best_axis else { return false };
        self.split_leaf(idx, axis);
        true
    }

    /// Splits leaf `idx` along `axis`, distributing its tallies exactly on
    /// the split axis and proportionally in energy. The split leaf's cold
    /// slot is reused for the lower daughter; the upper daughter takes a
    /// fresh slot, so the cold arena never develops orphan entries.
    fn split_leaf(&mut self, idx: usize, axis: Axis) {
        let node = self.nodes[idx];
        assert!(node.is_leaf(), "split_leaf on internal node");
        let slot = node.payload() as usize;
        let stats = self.leaves[slot];
        let ai = axis as usize;
        let l = stats.left[ai] as u64;
        let r = stats.stat_n as u64 - l;
        // The pre-statistics inheritance (n_total - stat_n) is distributed
        // by the same observed proportion; the observed counts themselves
        // are exact.
        let inherited = stats.n_total - stats.stat_n as u64;
        let frac_l = if stats.stat_n > 0 {
            l as f64 / stats.stat_n as f64
        } else {
            0.5
        };
        let inh_l = (inherited as f64 * frac_l).round() as u64;
        let n_lo = l + inh_l;
        let n_hi = r + (inherited - inh_l.min(inherited));
        let rgb_lo = stats.rgb * frac_l;
        let rgb_hi = stats.rgb * (1.0 - frac_l);
        self.leaves[slot] = LeafStats {
            n_total: n_lo,
            rgb: rgb_lo,
            stat_n: 0,
            left: [0; 4],
        };
        let hi_slot = self.leaves.len() as u32;
        self.leaves.push(LeafStats {
            n_total: n_hi,
            rgb: rgb_hi,
            stat_n: 0,
            left: [0; 4],
        });
        let first = self.nodes.len() as u32;
        self.nodes.push(PackedNode::leaf(slot as u32));
        self.nodes.push(PackedNode::leaf(hi_slot));
        self.nodes[idx] = PackedNode::internal(axis, first);
        #[cfg(debug_assertions)]
        if let Err(e) = self.validate() {
            panic!("BinTree invariant violated after split: {e}");
        }
    }

    /// Looks up the leaf containing `p` without modifying anything.
    /// Returns the leaf statistics and its range (for measure computations).
    pub fn lookup(&self, p: &BinPoint) -> (&LeafStats, BinRange) {
        let (idx, range, _) = self.descend(p);
        let node = self.nodes[idx];
        debug_assert!(node.is_leaf(), "descend ended on internal node");
        (&self.leaves[node.payload() as usize], range)
    }

    /// [`BinTree::lookup`] through a [`LeafCursor`]: the same leaf and range
    /// bit for bit, without the root descent when `p` lands in the cursor's
    /// leaf — the containment test [`BinTree::tally_with`] relies on. It
    /// changes nothing but the cursor, so over a tree nobody tallies into
    /// (an answer's) a cursor stays valid for as long as the tree does. A
    /// cursor is one tree's: a caller moving to another tree starts a fresh
    /// one.
    pub fn lookup_with(&self, p: &BinPoint, cursor: &mut LeafCursor) -> (&LeafStats, BinRange) {
        let (idx, range) = match cursor.cached {
            Some((idx, range, _))
                if self.nodes[idx as usize].is_leaf() && Self::leaf_admits(&range, p) =>
            {
                (idx as usize, range)
            }
            _ => {
                let (idx, range, depth) = self.descend(p);
                cursor.cached = Some((idx as u32, range, depth));
                (idx, range)
            }
        };
        (&self.leaves[self.nodes[idx].payload() as usize], range)
    }

    /// The cold-arena slot of the leaf `cursor` holds, or `None` with
    /// nothing cached. After [`BinTree::lookup_with`] that is the slot of
    /// the leaf the lookup returned — the index [`BinTree::for_each_leaf_slot`]
    /// visits it under.
    #[inline]
    pub fn cursor_slot(&self, cursor: &LeafCursor) -> Option<u32> {
        let (idx, _, _) = cursor.cached?;
        let node = self.nodes[idx as usize];
        node.is_leaf().then(|| node.payload())
    }

    /// True when `other`'s packed node arena is bit-equal to this one's:
    /// the same splits on the same axes *and* the same leaf slots, so every
    /// point descends both trees through the same nodes to the same slot
    /// with the same range. Over trees in the canonical arena order (every
    /// [`BinTree::compacted_clone`] and [`BinTree::from_export`] result —
    /// all an answer holds) that is exactly equality of the exported shape;
    /// two trees that grew in place may share a shape and still differ
    /// here. Leaf statistics are not compared.
    pub fn same_shape(&self, other: &BinTree) -> bool {
        self.nodes == other.nodes
    }

    /// Visits every leaf with its range, in depth-first order.
    pub fn for_each_leaf<F: FnMut(&BinRange, &LeafStats)>(&self, mut f: F) {
        self.for_each_leaf_slot(|_, range, stats| f(range, stats));
    }

    /// [`BinTree::for_each_leaf`] with each leaf's cold-arena slot: every
    /// slot in `0..leaf_count()` once, with the range a descent to that
    /// leaf builds (both split ranges by [`BinRange::split`]). In the
    /// canonical arena order the slots come in ascending order.
    pub fn for_each_leaf_slot<F: FnMut(u32, &BinRange, &LeafStats)>(&self, mut f: F) {
        self.walk(0, BinRange::full(), &mut f);
    }

    fn walk<F: FnMut(u32, &BinRange, &LeafStats)>(&self, idx: usize, range: BinRange, f: &mut F) {
        let node = self.nodes[idx];
        if node.is_leaf() {
            let slot = node.payload();
            f(slot, &range, &self.leaves[slot as usize]);
        } else {
            let (lo, hi) = range.split(node.axis());
            let first = node.payload() as usize;
            self.walk(first, lo, f);
            self.walk(first + 1, hi, f);
        }
    }

    /// Maximum leaf depth.
    pub fn max_depth(&self) -> u16 {
        fn depth_of(nodes: &[PackedNode], idx: usize, d: u16) -> u16 {
            let node = nodes[idx];
            if node.is_leaf() {
                d
            } else {
                let first = node.payload() as usize;
                depth_of(nodes, first, d + 1).max(depth_of(nodes, first + 1, d + 1))
            }
        }
        depth_of(&self.nodes, 0, 0)
    }

    /// Checks the arena invariants the SoA layout relies on: the nodes form
    /// one binary tree rooted at index 0 (every node reachable exactly
    /// once), every internal child pair is adjacent (structural — the
    /// encoding names only the first child), the cold arena has no orphan
    /// or doubly-referenced slots, leaf counts agree, and the per-leaf
    /// photon totals conserve the tally count (up to one photon of
    /// proportional-rounding slack per split).
    ///
    /// Debug builds run this after every split; release builds only pay for
    /// it when a test or tool calls it explicitly.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nodes.len();
        if n == 0 {
            return Err("empty node arena".into());
        }
        let mut seen_node = vec![false; n];
        let mut seen_slot = vec![false; self.leaves.len()];
        let mut internals = 0u64;
        let mut stack = vec![0usize];
        while let Some(idx) = stack.pop() {
            if idx >= n {
                return Err(format!("child index {idx} out of range ({n} nodes)"));
            }
            if seen_node[idx] {
                return Err(format!("node {idx} reached twice (shared child or cycle)"));
            }
            seen_node[idx] = true;
            let node = self.nodes[idx];
            if node.is_leaf() {
                let slot = node.payload() as usize;
                if slot >= self.leaves.len() {
                    return Err(format!(
                        "leaf slot {slot} out of range ({} slots)",
                        self.leaves.len()
                    ));
                }
                if seen_slot[slot] {
                    return Err(format!("leaf slot {slot} referenced twice"));
                }
                seen_slot[slot] = true;
            } else {
                internals += 1;
                let first = node.payload() as usize;
                stack.push(first + 1);
                stack.push(first);
            }
        }
        if let Some(orphan) = seen_node.iter().position(|&v| !v) {
            return Err(format!("node {orphan} unreachable from the root"));
        }
        if let Some(orphan) = seen_slot.iter().position(|&v| !v) {
            return Err(format!("leaf slot {orphan} is an orphan"));
        }
        let leaf_nodes = n as u64 - internals;
        if leaf_nodes != internals + 1 {
            return Err(format!(
                "not a binary tree: {leaf_nodes} leaves vs {internals} internals"
            ));
        }
        let sum: u64 = self.leaves.iter().map(|s| s.n_total).sum();
        if sum.abs_diff(self.tallies) > internals {
            return Err(format!(
                "tally conservation violated: leaves sum to {sum}, tree recorded {} \
                 ({internals} splits of rounding slack allowed)",
                self.tallies
            ));
        }
        Ok(())
    }

    /// A deep copy with both arenas rebuilt in the canonical
    /// subtree-clustered order (see [`BinTree::compact`]).
    pub fn compacted_clone(&self) -> BinTree {
        let mut nodes = vec![PackedNode::leaf(0); self.nodes.len()];
        let mut leaves = Vec::with_capacity(self.leaves.len());
        let mut next = 1usize;
        let mut stack = vec![(0u32, 0usize)];
        while let Some((src, dst)) = stack.pop() {
            let node = self.nodes[src as usize];
            if node.is_leaf() {
                nodes[dst] = PackedNode::leaf(leaves.len() as u32);
                leaves.push(self.leaves[node.payload() as usize]);
            } else {
                let first = node.payload();
                let pair = next;
                next += 2;
                nodes[dst] = PackedNode::internal(node.axis(), pair as u32);
                stack.push((first + 1, pair + 1));
                stack.push((first, pair));
            }
        }
        BinTree {
            nodes,
            leaves,
            config: self.config,
            tallies: self.tallies,
        }
    }

    /// Rebuilds both arenas in the canonical subtree-clustered order: child
    /// pairs are laid out in depth-first discovery order, so every subtree
    /// occupies a contiguous arena span and a coherent run of lookups walks
    /// memory nearly sequentially. Cold slots are re-numbered into the same
    /// traversal order.
    ///
    /// Purely a layout operation: lookups, tallies, splits and exports are
    /// unaffected ([`BinTree::export_nodes`] already serializes in this
    /// canonical order regardless of arena history). Any outstanding
    /// [`LeafCursor`] into this tree is invalidated — engines only compact
    /// at batch boundaries, where cursors are reset anyway.
    pub fn compact(&mut self) {
        *self = self.compacted_clone();
    }

    /// Flat snapshot of the tree for the answer-file codec: internal nodes
    /// as `(axis, child_lo, child_hi)`, leaves as stats, in the *canonical*
    /// subtree-clustered order — a pure function of the logical tree, so two
    /// trees with the same tally history export identically regardless of
    /// their arena histories (in-place growth, decode, or compaction). That
    /// purity is what keeps resumed solves byte-identical to uninterrupted
    /// ones. See `photon-core::answer` for the byte format.
    pub fn export_nodes(&self) -> Vec<ExportNode> {
        let mut out = vec![ExportNode::Leaf(LeafStats::default()); self.nodes.len()];
        let mut next = 1usize;
        let mut stack = vec![(0u32, 0usize)];
        while let Some((src, dst)) = stack.pop() {
            let node = self.nodes[src as usize];
            if node.is_leaf() {
                out[dst] = ExportNode::Leaf(self.leaves[node.payload() as usize]);
            } else {
                let first = node.payload();
                let pair = next;
                next += 2;
                out[dst] = ExportNode::Internal {
                    axis: node.axis(),
                    children: [pair as u32, pair as u32 + 1],
                };
                stack.push((first + 1, pair + 1));
                stack.push((first, pair));
            }
        }
        out
    }

    /// Rebuilds a tree from an export produced by [`BinTree::export_nodes`]
    /// (the nodes are re-numbered into the canonical arena order, whatever
    /// order they arrive in). Returns `None` if the node graph is malformed:
    /// a child index out of range, a node referenced twice (shared child or
    /// cycle), or a node unreachable from the root — and if the leaves'
    /// photon counts overflow their total: an export may come from a file.
    pub fn from_export(nodes: Vec<ExportNode>, config: SplitConfig) -> Option<BinTree> {
        if nodes.is_empty() {
            return None;
        }
        let n = nodes.len();
        let mut packed = vec![PackedNode::leaf(0); n];
        let mut leaves = Vec::with_capacity(n / 2 + 1);
        let mut tallies = 0u64;
        let mut visited = vec![false; n];
        let mut next = 1usize;
        let mut stack = vec![(0usize, 0usize)];
        while let Some((src, dst)) = stack.pop() {
            if visited[src] {
                return None;
            }
            visited[src] = true;
            match nodes[src] {
                ExportNode::Leaf(s) => {
                    packed[dst] = PackedNode::leaf(leaves.len() as u32);
                    tallies = tallies.checked_add(s.n_total)?;
                    leaves.push(s);
                }
                ExportNode::Internal { axis, children } => {
                    if children[0] as usize >= n || children[1] as usize >= n {
                        return None;
                    }
                    // A graph that revisits nodes can name more children than
                    // there are slots before the revisit is popped.
                    let pair = next;
                    if pair + 1 >= n {
                        return None;
                    }
                    next += 2;
                    packed[dst] = PackedNode::internal(axis, pair as u32);
                    stack.push((children[1] as usize, pair + 1));
                    stack.push((children[0] as usize, pair));
                }
            }
        }
        if visited.iter().any(|&v| !v) {
            return None;
        }
        Some(BinTree {
            nodes: packed,
            leaves,
            config,
            tallies,
        })
    }
}

/// Cache of the last leaf a run of tallies or lookups landed in, used by
/// [`BinTree::tally_with`]/[`BinTree::tally_run`] and
/// [`BinTree::lookup_with`] to skip the root descent for coherent runs. A
/// cursor is only meaningful against the tree that populated it, *in the
/// arena layout that populated it*: a split or a [`BinTree::compact`]
/// invalidates it, which is why engines reset cursors at batch boundaries
/// and only compact there.
#[derive(Clone, Copy, Debug, Default)]
pub struct LeafCursor {
    /// `(arena index, leaf box, depth)` of the previous tally's leaf, or
    /// `None` right after that leaf split.
    cached: Option<(u32, BinRange, u16)>,
}

impl LeafCursor {
    /// A cursor with no cached leaf: the first tally descends from the root.
    pub fn new() -> Self {
        LeafCursor::default()
    }

    /// True when `p` lands in the cached leaf — the test
    /// [`BinTree::lookup_with`] makes before it skips the descent. False
    /// with nothing cached. Valid while the tree that filled the cursor is
    /// unchanged.
    #[inline]
    pub fn admits(&self, p: &BinPoint) -> bool {
        matches!(self.cached, Some((_, range, _)) if BinTree::leaf_admits(&range, p))
    }

    /// True when the cached leaf spans every direction: no split on the
    /// path to it compared `θ` or `r²`, so [`LeafCursor::admits`] gives the
    /// same answer for every direction a [`BinPoint::new`] point can carry
    /// — NaN included — and a caller may test a placeholder direction in
    /// place of the real one.
    #[inline]
    pub fn spans_all_directions(&self) -> bool {
        const DIRECTIONS: [usize; 2] = [Axis::Theta as usize, Axis::RSq as usize];
        matches!(self.cached, Some((_, range, _))
            if DIRECTIONS.iter().all(|&i| range.lo[i] == 0.0 && range.hi[i] == FULL_HI[i]))
    }
}

/// Serializable node snapshot (see [`BinTree::export_nodes`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExportNode {
    /// A leaf with its statistics.
    Leaf(LeafStats),
    /// An internal split node.
    Internal {
        /// Split axis.
        axis: Axis,
        /// Arena indices of the two children.
        children: [u32; 2],
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_rng::{Lcg48, PhotonRng};

    fn uniform_point(rng: &mut Lcg48) -> BinPoint {
        BinPoint::new(
            rng.next_f64(),
            rng.next_f64(),
            rng.next_f64() * TAU,
            rng.next_f64(),
        )
    }

    #[test]
    fn packed_node_is_at_most_eight_bytes() {
        // The compile-time assert above enforces this too; keep a runtime
        // witness so the constraint shows up in test listings.
        assert!(std::mem::size_of::<PackedNode>() <= 8);
        let internal = PackedNode::internal(Axis::RSq, 0xDEAD_BEEF);
        assert!(!internal.is_leaf());
        assert_eq!(internal.axis(), Axis::RSq);
        assert_eq!(internal.payload(), 0xDEAD_BEEF);
        let leaf = PackedNode::leaf(u32::MAX);
        assert!(leaf.is_leaf());
        assert_eq!(leaf.payload(), u32::MAX);
    }

    #[test]
    fn root_range_measures() {
        let r = BinRange::full();
        assert!((r.area_fraction() - 1.0).abs() < 1e-12);
        assert!((r.solid_angle_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn range_split_halves_measure() {
        let r = BinRange::full();
        for axis in Axis::ALL {
            let (a, b) = r.split(axis);
            let total = a.area_fraction() * a.solid_angle_fraction()
                + b.area_fraction() * b.solid_angle_fraction();
            assert!((total - 1.0).abs() < 1e-12, "axis {axis:?}");
        }
    }

    #[test]
    fn uniform_data_rarely_splits() {
        let mut tree = BinTree::new(SplitConfig::default());
        let mut rng = Lcg48::new(21);
        for _ in 0..20_000 {
            tree.tally(&uniform_point(&mut rng), Rgb::WHITE);
        }
        // 4 axes tested per tally; a few false splits are expected but the
        // tree must stay tiny.
        assert!(tree.leaf_count() < 32, "leaves = {}", tree.leaf_count());
    }

    #[test]
    fn concentrated_data_splits_on_the_right_axis() {
        // All photons in s < 0.1: the tree must split on S, repeatedly.
        let mut tree = BinTree::new(SplitConfig::default());
        let mut rng = Lcg48::new(22);
        for _ in 0..20_000 {
            let mut p = uniform_point(&mut rng);
            p.s *= 0.1;
            tree.tally(&p, Rgb::WHITE);
        }
        assert!(tree.leaf_count() > 3);
        // The populated fine leaves must lie at small s.
        let mut hot_leaves = 0;
        tree.for_each_leaf(|range, stats| {
            if stats.n_total > 1000 {
                hot_leaves += 1;
                assert!(range.lo[0] < 0.1, "hot leaf outside gradient: {range:?}");
            }
        });
        assert!(hot_leaves >= 1);
    }

    #[test]
    fn angular_concentration_splits_angular_axes() {
        // Mirror-like surface: all directions near r_sq = 1 (grazing) in a
        // narrow theta band. Position is uniform. Expect theta/r_sq splits.
        let mut tree = BinTree::new(SplitConfig::default());
        let mut rng = Lcg48::new(23);
        for _ in 0..20_000 {
            let p = BinPoint::new(
                rng.next_f64(),
                rng.next_f64(),
                0.1 + 0.05 * rng.next_f64(),
                0.9 + 0.1 * rng.next_f64(),
            );
            tree.tally(&p, Rgb::WHITE);
        }
        let mut angular_splits = 0;
        let mut spatial_splits = 0;
        for n in tree.export_nodes() {
            if let ExportNode::Internal { axis, .. } = n {
                match axis {
                    Axis::Theta | Axis::RSq => angular_splits += 1,
                    _ => spatial_splits += 1,
                }
            }
        }
        assert!(
            angular_splits > spatial_splits,
            "angular {angular_splits} vs spatial {spatial_splits}"
        );
    }

    #[test]
    fn tally_conservation_across_splits() {
        let mut tree = BinTree::new(SplitConfig::default());
        let mut rng = Lcg48::new(24);
        let n = 30_000u64;
        for _ in 0..n {
            let mut p = uniform_point(&mut rng);
            p.t = p.t * p.t; // gradient in t
            tree.tally(&p, Rgb::new(0.5, 0.25, 0.125));
        }
        assert_eq!(tree.tallies(), n);
        let mut sum = 0u64;
        let mut rgb_sum = Rgb::BLACK;
        let mut leaf_count = 0;
        tree.for_each_leaf(|_, s| {
            sum += s.n_total;
            rgb_sum += s.rgb;
            leaf_count += 1;
        });
        assert_eq!(leaf_count, tree.leaf_count());
        // Exact count conservation; proportional rounding can drift by at
        // most one photon per split.
        let drift = sum.abs_diff(n);
        assert!(drift <= tree.node_count() as u64 / 2, "drift {drift}");
        assert!((rgb_sum.r - 0.5 * n as f64).abs() / (0.5 * n as f64) < 1e-9);
    }

    #[test]
    fn lookup_finds_populated_leaf() {
        let mut tree = BinTree::new(SplitConfig::default());
        let mut rng = Lcg48::new(25);
        for _ in 0..10_000 {
            let mut p = uniform_point(&mut rng);
            p.s *= 0.25;
            tree.tally(&p, Rgb::WHITE);
        }
        let (stats, range) = tree.lookup(&BinPoint::new(0.1, 0.5, 1.0, 0.5));
        assert!(range.contains(&BinPoint::new(0.1, 0.5, 1.0, 0.5)));
        assert!(stats.n_total > 0);
    }

    #[test]
    fn max_depth_is_respected() {
        let cfg = SplitConfig {
            max_depth: 3,
            ..SplitConfig::default()
        };
        let mut tree = BinTree::new(cfg);
        let mut rng = Lcg48::new(26);
        for _ in 0..100_000 {
            // Pathological: everything at nearly the same point.
            let p = BinPoint::new(
                0.001 * rng.next_f64(),
                0.001 * rng.next_f64(),
                0.001 * rng.next_f64(),
                0.001 * rng.next_f64(),
            );
            tree.tally(&p, Rgb::WHITE);
        }
        assert!(tree.max_depth() <= 3);
        assert!(tree.leaf_count() <= 16);
    }

    #[test]
    fn export_round_trip() {
        let mut tree = BinTree::new(SplitConfig::default());
        let mut rng = Lcg48::new(27);
        for _ in 0..20_000 {
            let mut p = uniform_point(&mut rng);
            p.r_sq = p.r_sq.powi(3);
            tree.tally(&p, Rgb::new(1.0, 0.5, 0.2));
        }
        let export = tree.export_nodes();
        let rebuilt = BinTree::from_export(export, SplitConfig::default()).unwrap();
        assert_eq!(rebuilt.leaf_count(), tree.leaf_count());
        assert_eq!(rebuilt.tallies(), {
            let mut s = 0;
            tree.for_each_leaf(|_, l| s += l.n_total);
            s
        });
        // Lookups agree everywhere.
        for _ in 0..100 {
            let p = uniform_point(&mut rng);
            let (a, ra) = tree.lookup(&p);
            let (b, rb) = rebuilt.lookup(&p);
            assert_eq!(a.n_total, b.n_total);
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn export_is_a_pure_function_of_the_logical_tree() {
        // The canonical export order must not depend on arena history:
        // a rebuilt tree (canonical layout) and the original (in-place
        // growth layout) export the identical vector — the property that
        // keeps resumed solves byte-identical to uninterrupted ones.
        let mut tree = BinTree::new(SplitConfig::default());
        let mut rng = Lcg48::new(31);
        for _ in 0..20_000 {
            let mut p = uniform_point(&mut rng);
            p.s = p.s.powi(2);
            tree.tally(&p, Rgb::new(0.3, 0.6, 0.9));
        }
        let export = tree.export_nodes();
        let rebuilt = BinTree::from_export(export.clone(), SplitConfig::default()).unwrap();
        assert_eq!(rebuilt.export_nodes(), export);
    }

    #[test]
    fn compact_is_invisible_to_exports_and_lookups() {
        let mut tree = BinTree::new(SplitConfig::default());
        let mut rng = Lcg48::new(32);
        for _ in 0..20_000 {
            let mut p = uniform_point(&mut rng);
            p.t = p.t.powi(3);
            tree.tally(&p, Rgb::new(0.7, 0.2, 0.4));
        }
        let export_before = tree.export_nodes();
        let mut compacted = tree.clone();
        compacted.compact();
        compacted.validate().unwrap();
        assert_eq!(compacted.export_nodes(), export_before);
        assert_eq!(compacted.leaf_count(), tree.leaf_count());
        assert_eq!(compacted.tallies(), tree.tallies());
        assert_eq!(compacted.max_depth(), tree.max_depth());
        for _ in 0..200 {
            let p = uniform_point(&mut rng);
            let (a, ra) = tree.lookup(&p);
            let (b, rb) = compacted.lookup(&p);
            assert_eq!(a, b);
            assert_eq!(ra, rb);
        }
        // Tallying after a compaction continues bit-identically.
        for _ in 0..5_000 {
            let mut p = uniform_point(&mut rng);
            p.t = p.t.powi(3);
            let rgb = Rgb::new(rng.next_f64(), 0.5, 0.25);
            assert_eq!(tree.tally(&p, rgb), compacted.tally(&p, rgb));
        }
        assert_eq!(tree.export_nodes(), compacted.export_nodes());
    }

    #[test]
    fn compact_clusters_subtrees_contiguously() {
        let mut tree = BinTree::new(SplitConfig::default());
        let mut rng = Lcg48::new(33);
        for _ in 0..30_000 {
            let mut p = uniform_point(&mut rng);
            p.s = p.s.powi(3);
            p.r_sq = p.r_sq.powi(2);
            tree.tally(&p, Rgb::WHITE);
        }
        tree.compact();
        // After compaction the arena equals the canonical export order, in
        // which every internal's two child subtrees together occupy one
        // contiguous index span starting at the (adjacent) child pair.
        let export = tree.export_nodes();
        fn span(export: &[ExportNode], idx: usize) -> (usize, usize, usize) {
            match export[idx] {
                ExportNode::Leaf(_) => (idx, idx, 1),
                ExportNode::Internal { children, .. } => {
                    assert_eq!(children[1], children[0] + 1, "pair not adjacent");
                    let a = span(export, children[0] as usize);
                    let b = span(export, children[1] as usize);
                    let (min, max, count) = (a.0.min(b.0), a.1.max(b.1), a.2 + b.2);
                    assert_eq!(min, children[0] as usize, "pair region starts late");
                    assert_eq!(max - min + 1, count, "pair region not contiguous");
                    // The full subtree adds this node's own (earlier) slot.
                    (idx.min(min), max, count + 1)
                }
            }
        }
        let (min, max, count) = span(&export, 0);
        assert_eq!((min, max, count), (0, export.len() - 1, export.len()));
    }

    #[test]
    fn validate_rejects_corrupt_arenas() {
        // Hand-build broken trees (test-only: the module can reach the
        // private arenas) and check each invariant trips.
        let good = BinTree::new(SplitConfig::default());
        good.validate().unwrap();

        // Two packed leaves naming the same cold slot.
        let mut shared_slot = BinTree::new(SplitConfig::default());
        shared_slot.nodes = vec![
            PackedNode::internal(Axis::S, 1),
            PackedNode::leaf(0),
            PackedNode::leaf(0),
        ];
        shared_slot.leaves = vec![LeafStats::default()];
        let err = shared_slot.validate().unwrap_err();
        assert!(err.contains("referenced twice") || err.contains("not a binary tree"));

        // An orphan cold slot nothing references.
        let mut orphan = BinTree::new(SplitConfig::default());
        orphan.leaves.push(LeafStats::default());
        assert!(orphan.validate().unwrap_err().contains("orphan"));

        // A child pair pointing past the arena.
        let mut oob = BinTree::new(SplitConfig::default());
        oob.nodes = vec![PackedNode::internal(Axis::T, 7)];
        oob.leaves = vec![];
        assert!(oob.validate().unwrap_err().contains("out of range"));

        // Tally conservation: counter disagrees with the leaf totals.
        let mut skewed = BinTree::new(SplitConfig::default());
        skewed.tallies = 100;
        assert!(skewed.validate().unwrap_err().contains("conservation"));
    }

    #[test]
    fn memory_bytes_counts_both_arenas() {
        let mut tree = BinTree::new(SplitConfig::default());
        let mut rng = Lcg48::new(34);
        for _ in 0..20_000 {
            let mut p = uniform_point(&mut rng);
            p.s *= 0.05;
            tree.tally(&p, Rgb::WHITE);
        }
        assert!(tree.leaf_count() > 1, "need a refined tree");
        let nodes = tree.node_bytes();
        let leaves = tree.leaf_bytes();
        assert!(nodes >= tree.node_count() * 8);
        assert!(leaves >= tree.leaf_count() as usize * std::mem::size_of::<LeafStats>());
        assert_eq!(
            tree.memory_bytes(),
            nodes + leaves + std::mem::size_of::<BinTree>()
        );
    }

    #[test]
    fn from_export_rejects_bad_children() {
        let bad = vec![ExportNode::Internal {
            axis: Axis::S,
            children: [5, 6],
        }];
        assert!(BinTree::from_export(bad, SplitConfig::default()).is_none());
        assert!(BinTree::from_export(vec![], SplitConfig::default()).is_none());
        // A shared child (diamond) is not a tree.
        let diamond = vec![
            ExportNode::Internal {
                axis: Axis::S,
                children: [1, 1],
            },
            ExportNode::Leaf(LeafStats::default()),
        ];
        assert!(BinTree::from_export(diamond, SplitConfig::default()).is_none());
        // An unreachable node is rejected rather than silently dropped (it
        // would change the re-encoded byte stream).
        let unreachable = vec![
            ExportNode::Leaf(LeafStats::default()),
            ExportNode::Leaf(LeafStats::default()),
        ];
        assert!(BinTree::from_export(unreachable, SplitConfig::default()).is_none());
        // Internal nodes that share children name more slots than nodes:
        // refused before the fourth is written, not by an index panic.
        let internal = |children| ExportNode::Internal {
            axis: Axis::S,
            children,
        };
        let overfull = vec![
            internal([1, 2]),
            internal([3, 3]),
            ExportNode::Leaf(LeafStats::default()),
            internal([2, 2]),
        ];
        assert!(BinTree::from_export(overfull, SplitConfig::default()).is_none());
        // Leaf counts that overflow their sum are not a tree's either.
        let heavy = ExportNode::Leaf(LeafStats {
            n_total: u64::MAX,
            ..Default::default()
        });
        let overflowing = vec![internal([1, 2]), heavy, heavy];
        assert!(BinTree::from_export(overflowing, SplitConfig::default()).is_none());
    }

    #[test]
    fn cursor_tallies_match_plain_tallies_bit_for_bit() {
        // Same stream through tally() and tally_with() must build identical
        // trees — including on adversarial streams with long same-leaf runs
        // and points exactly on bin boundaries.
        let mut rng = Lcg48::new(29);
        let mut points = Vec::new();
        for i in 0..30_000u32 {
            let p = match i % 5 {
                // Clustered: long same-leaf runs exercise the cache-hit path.
                0 | 1 => BinPoint::new(
                    0.01 * rng.next_f64(),
                    0.01 * rng.next_f64(),
                    rng.next_f64(),
                    rng.next_f64(),
                ),
                // Exact mid/edge coordinates exercise the half-open test.
                2 => BinPoint::new(0.5, 0.25, 0.0, 1.0),
                _ => uniform_point(&mut rng),
            };
            points.push(p);
        }
        let mut plain = BinTree::new(SplitConfig::default());
        let mut cursed = BinTree::new(SplitConfig::default());
        let mut cursor = LeafCursor::new();
        for p in &points {
            let a = plain.tally(p, Rgb::new(0.9, 0.5, 0.1));
            let b = cursed.tally_with(p, Rgb::new(0.9, 0.5, 0.1), &mut cursor);
            assert_eq!(a, b, "split decisions diverged");
        }
        assert_eq!(plain.export_nodes(), cursed.export_nodes());
    }

    #[test]
    fn tally_run_matches_sequential_tallies() {
        let mut rng = Lcg48::new(30);
        let recs: Vec<(BinPoint, Rgb)> = (0..20_000)
            .map(|_| {
                let mut p = uniform_point(&mut rng);
                p.s = p.s.powi(3);
                (p, Rgb::new(rng.next_f64(), 0.5, 0.25))
            })
            .collect();
        let mut one_by_one = BinTree::new(SplitConfig::default());
        let mut splits_seq = 0u64;
        for (p, rgb) in &recs {
            splits_seq += u64::from(one_by_one.tally(p, *rgb));
        }
        let mut run = BinTree::new(SplitConfig::default());
        let splits_run = run.tally_run(recs.iter().map(|(p, rgb)| (p, *rgb)));
        assert_eq!(splits_seq, splits_run);
        assert_eq!(one_by_one.export_nodes(), run.export_nodes());
        assert_eq!(one_by_one.tallies(), run.tallies());
    }

    #[test]
    fn memory_grows_sublinearly_once_refined() {
        // Fig 5.4's qualitative claim: after initial buildup the forest grows
        // much more slowly than the photon count.
        let mut tree = BinTree::new(SplitConfig::default());
        let mut rng = Lcg48::new(28);
        let tally_n = |tree: &mut BinTree, rng: &mut Lcg48, n: u64| {
            for _ in 0..n {
                let mut p = uniform_point(rng);
                p.s = p.s.powi(2);
                p.t = p.t.powi(2);
                tree.tally(&p, Rgb::WHITE);
            }
        };
        tally_n(&mut tree, &mut rng, 20_000);
        let leaves_early = tree.leaf_count() as f64;
        tally_n(&mut tree, &mut rng, 180_000); // 10x total photons
        let leaves_late = tree.leaf_count() as f64;
        // Sublinear: 10x the photons must grow the forest by strictly less
        // than 10x (bins per photon falls as refinement converges).
        assert!(
            leaves_late / leaves_early < 8.0,
            "10x photons grew bins {leaves_early} -> {leaves_late}"
        );
    }
}
