//! Property tests on the 4-D bin tree invariants.

use photon_hist::{
    Axis, BinPoint, BinRange, BinTree, ExportNode, LeafCursor, LeafStats, SplitConfig, SplitRule,
};
use photon_math::Rgb;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::f64::consts::TAU;

fn arb_point() -> impl Strategy<Value = BinPoint> {
    (0.0f64..1.0, 0.0f64..1.0, 0.0f64..TAU, 0.0f64..1.0)
        .prop_map(|(s, t, th, r)| BinPoint::new(s, t, th, r))
}

/// An arbitrary logical tree shape with a distinguishing marker per leaf.
#[derive(Clone, Debug)]
enum Shape {
    Leaf(u32),
    Split(usize, Box<Shape>, Box<Shape>),
}

/// Builds a shape by consuming one `(axis, marker, coin)` token per node:
/// the coin decides split-vs-leaf (biased to split, capped at depth 6), and
/// an exhausted stream forces a leaf — so the token count bounds the tree.
fn build_shape<I: Iterator<Item = (usize, u32, u32)>>(tokens: &mut I, depth: u32) -> Shape {
    match tokens.next() {
        None => Shape::Leaf(depth),
        Some((axis, marker, coin)) => {
            if depth < 6 && coin % 100 < 60 {
                let lo = build_shape(tokens, depth + 1);
                let hi = build_shape(tokens, depth + 1);
                Shape::Split(axis, Box::new(lo), Box::new(hi))
            } else {
                Shape::Leaf(marker)
            }
        }
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    proptest::collection::vec((0usize..4, 0u32..1_000_000, 0u32..100), 1..64)
        .prop_map(|tokens| build_shape(&mut tokens.into_iter(), 0))
}

/// Recognizable, per-marker-unique leaf statistics.
fn marked_stats(marker: u32) -> LeafStats {
    LeafStats {
        n_total: marker as u64,
        rgb: Rgb::new(marker as f64, (marker / 3) as f64, 0.25),
        stat_n: marker % 97,
        left: [marker % 7, marker % 11, marker % 13, marker % 17],
    }
}

/// Serializes a shape in *breadth-first* arena order — a valid layout that
/// (past depth one) differs from the canonical DFS-pair order, so importing
/// it exercises the renumbering path, not the identity.
fn bfs_layout(shape: &Shape) -> Vec<ExportNode> {
    let placeholder = ExportNode::Leaf(LeafStats::default());
    let mut nodes = vec![placeholder];
    let mut queue: VecDeque<(&Shape, usize)> = VecDeque::from([(shape, 0)]);
    while let Some((s, at)) = queue.pop_front() {
        match s {
            Shape::Leaf(marker) => nodes[at] = ExportNode::Leaf(marked_stats(*marker)),
            Shape::Split(axis, lo, hi) => {
                let lo_at = nodes.len();
                nodes.push(placeholder);
                let hi_at = nodes.len();
                nodes.push(placeholder);
                nodes[at] = ExportNode::Internal {
                    axis: Axis::from_index(*axis),
                    children: [lo_at as u32, hi_at as u32],
                };
                queue.push_back((lo, lo_at));
                queue.push_back((hi, hi_at));
            }
        }
    }
    nodes
}

/// Leaf markers in depth-first (lower-child-first) order — the order
/// [`BinTree::for_each_leaf`] visits.
fn dfs_leaves(shape: &Shape, out: &mut Vec<u32>) {
    match shape {
        Shape::Leaf(marker) => out.push(*marker),
        Shape::Split(_, lo, hi) => {
            dfs_leaves(lo, out);
            dfs_leaves(hi, out);
        }
    }
}

/// Reference lookup: descend the raw [`ExportNode`] vec with the same
/// midpoint rule the tree documents, independent of the SoA arenas.
fn naive_lookup(nodes: &[ExportNode], p: &BinPoint) -> (LeafStats, BinRange) {
    let mut idx = 0usize;
    let mut range = BinRange::full();
    loop {
        match nodes[idx] {
            ExportNode::Leaf(stats) => return (stats, range),
            ExportNode::Internal { axis, children } => {
                let (lo, hi) = range.split(axis);
                if p.coord(axis) < range.mid(axis) {
                    idx = children[0] as usize;
                    range = lo;
                } else {
                    idx = children[1] as usize;
                    range = hi;
                }
            }
        }
    }
}

/// A reference bin tree over a plain [`ExportNode`] arena, independent of
/// the packed arenas and their branch-free kernel: it descends with
/// [`BinRange::split`] and a branch, counts lower halves with a branch,
/// splits on the most decisive axis by [`SplitRule::excess`] on all four,
/// and shares a split leaf's counts and energy out with `split_leaf`'s
/// arithmetic. Children go at the end of the arena, so its order is growth
/// order; [`ReferenceTree::export`] writes the canonical one.
struct ReferenceTree {
    nodes: Vec<ExportNode>,
    config: SplitConfig,
}

impl ReferenceTree {
    fn new(config: SplitConfig) -> Self {
        ReferenceTree {
            nodes: vec![ExportNode::Leaf(LeafStats::default())],
            config,
        }
    }

    fn tally(&mut self, p: &BinPoint, rgb: Rgb) -> bool {
        let (mut idx, mut range, mut depth) = (0, BinRange::full(), 0u16);
        while let ExportNode::Internal { axis, children } = self.nodes[idx] {
            let (lo, hi) = range.split(axis);
            if p.coord(axis) < range.mid(axis) {
                (idx, range) = (children[0] as usize, lo);
            } else {
                (idx, range) = (children[1] as usize, hi);
            }
            depth += 1;
        }
        let ExportNode::Leaf(stats) = &mut self.nodes[idx] else {
            unreachable!("the descent ends on a leaf")
        };
        stats.n_total += 1;
        stats.rgb += rgb;
        stats.stat_n += 1;
        for axis in Axis::ALL {
            if p.coord(axis) < range.mid(axis) {
                stats.left[axis as usize] += 1;
            }
        }
        let stats = *stats;
        if depth >= self.config.max_depth {
            return false;
        }
        let (mut best, mut best_excess) = (None, 1.0);
        for axis in Axis::ALL {
            let l = stats.left[axis as usize];
            let e = self.config.rule.excess(l, stats.stat_n - l);
            if e > best_excess {
                (best, best_excess) = (Some(axis), e);
            }
        }
        let Some(axis) = best else { return false };
        let l = stats.left[axis as usize] as u64;
        let r = stats.stat_n as u64 - l;
        let inherited = stats.n_total - stats.stat_n as u64;
        let frac_l = if stats.stat_n > 0 {
            l as f64 / stats.stat_n as f64
        } else {
            0.5
        };
        let inh_l = (inherited as f64 * frac_l).round() as u64;
        let lower = LeafStats {
            n_total: l + inh_l,
            rgb: stats.rgb * frac_l,
            ..LeafStats::default()
        };
        let upper = LeafStats {
            n_total: r + (inherited - inh_l.min(inherited)),
            rgb: stats.rgb * (1.0 - frac_l),
            ..LeafStats::default()
        };
        let first = self.nodes.len() as u32;
        self.nodes
            .extend([ExportNode::Leaf(lower), ExportNode::Leaf(upper)]);
        self.nodes[idx] = ExportNode::Internal {
            axis,
            children: [first, first + 1],
        };
        true
    }

    /// The nodes in [`BinTree::export_nodes`]'s order: depth first, lower
    /// daughter first, each child pair numbered when its parent is reached.
    fn export(&self) -> Vec<ExportNode> {
        fn place(nodes: &[ExportNode], src: usize, dst: usize, out: &mut Vec<ExportNode>) {
            out[dst] = nodes[src];
            if let ExportNode::Internal { axis, children } = nodes[src] {
                let pair = out.len();
                out.extend([nodes[src]; 2]);
                out[dst] = ExportNode::Internal {
                    axis,
                    children: [pair as u32, pair as u32 + 1],
                };
                place(nodes, children[0] as usize, pair, out);
                place(nodes, children[1] as usize, pair + 1, out);
            }
        }
        let mut out = vec![self.nodes[0]];
        place(&self.nodes, 0, 0, &mut out);
        out
    }
}

/// A node's every bit: axis and children, or the leaf's counts and the
/// `f64` bits of its energy (`==` would let `-0.0` pass for `0.0`).
type NodeBits = (Option<(Axis, [u32; 2])>, u64, [u64; 3], u32, [u32; 4]);

fn node_bits(node: &ExportNode) -> NodeBits {
    match *node {
        ExportNode::Internal { axis, children } => (Some((axis, children)), 0, [0; 3], 0, [0; 4]),
        ExportNode::Leaf(s) => (
            None,
            s.n_total,
            [s.rgb.r.to_bits(), s.rgb.g.to_bits(), s.rgb.b.to_bits()],
            s.stat_n,
            s.left,
        ),
    }
}

/// Point streams with a random warp so some runs have steep gradients —
/// on position and on both direction axes, so trees split on `θ` and `r²`.
fn arb_stream() -> impl Strategy<Value = Vec<BinPoint>> {
    (proptest::collection::vec(arb_point(), 100..2000), 1u32..4).prop_map(|(mut pts, warp)| {
        for p in &mut pts {
            p.s = p.s.powi(warp as i32);
            p.theta = TAU * (p.theta / TAU).powi(warp as i32);
            p.r_sq = p.r_sq.powi(warp as i32);
        }
        pts
    })
}

/// Points a lookup cursor must place exactly, leaf by leaf: the lower
/// corner (every coordinate a split mid or 0), the centre, the upper corner
/// (the sibling's, or the closed global bound), and the centre with each
/// coordinate in turn NaN — then the closed global corner with `θ` from a
/// `rem_euclid` that rounds onto 2π.
fn edge_walk(tree: &BinTree) -> Vec<BinPoint> {
    let corner = |x: [f64; 4]| BinPoint {
        s: x[0],
        t: x[1],
        theta: x[2],
        r_sq: x[3],
    };
    let mut walk = Vec::new();
    tree.for_each_leaf(|range, _| {
        let centre = range.center();
        walk.extend([corner(range.lo), centre, corner(range.hi)]);
        for a in Axis::ALL {
            let mut x = [centre.s, centre.t, centre.theta, centre.r_sq];
            x[a as usize] = f64::NAN;
            walk.push(BinPoint::new(x[0], x[1], x[2], x[3]));
        }
    });
    let rounds_to_tau = BinPoint::new(1.0, 1.0, -1e-20, 1.0);
    assert_eq!(rounds_to_tau.theta, TAU);
    walk.push(rounds_to_tau);
    walk
}

/// A tree's shape as its export gives it: each node's axis, or none for a
/// leaf, and its child indices — everything but the statistics.
fn export_shape(tree: &BinTree) -> Vec<Option<(Axis, [u32; 2])>> {
    let nodes = tree.export_nodes().into_iter();
    nodes
        .map(|n| match n {
            ExportNode::Leaf(_) => None,
            ExportNode::Internal { axis, children } => Some((axis, children)),
        })
        .collect()
}

/// Whether `newer`'s export has a leaf where `older`'s leaf holding `p`
/// is: both descended together, each split on the same axis in both.
fn kept_in_place(older: &[ExportNode], newer: &[ExportNode], p: &BinPoint) -> bool {
    let (mut a, mut b, mut range) = (0, 0, BinRange::full());
    loop {
        match (older[a], newer[b]) {
            (ExportNode::Leaf(_), ExportNode::Leaf(_)) => return true,
            (
                ExportNode::Internal { axis, children: x },
                ExportNode::Internal {
                    axis: other,
                    children: y,
                },
            ) if axis == other => {
                let (lo, hi) = range.split(axis);
                let side = if p.coord(axis) < range.mid(axis) {
                    0
                } else {
                    1
                };
                range = [lo, hi][side];
                (a, b) = (x[side] as usize, y[side] as usize);
            }
            _ => return false,
        }
    }
}

fn range_bits(range: &BinRange) -> [u64; 8] {
    let mut bits = [0; 8];
    for (b, x) in bits.iter_mut().zip(range.lo.iter().chain(&range.hi)) {
        *b = x.to_bits();
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One cursor walked across a tree returns `lookup`'s leaf and range
    /// bits at every step, admits exactly the points whose leaf it holds,
    /// and — when that leaf spans every direction — admits a point exactly
    /// when it admits the point with its direction replaced by `(0, 0)`:
    /// the placeholder the viewer tests instead of computing one.
    #[test]
    fn lookup_with_matches_lookup_along_a_walk(
        stream in arb_stream(),
        probes in proptest::collection::vec(arb_point(), 8..64),
    ) {
        let mut tree = BinTree::new(SplitConfig::default());
        for p in &stream {
            tree.tally(p, Rgb::new(0.2, 0.4, 0.8));
        }
        let walk = edge_walk(&tree);
        let mut cursor = LeafCursor::new();
        let mut held: Option<BinRange> = None;
        for p in walk.iter().chain(&probes).chain(stream.iter().take(64)) {
            let (want_stats, want_range) = tree.lookup(p);
            prop_assert_eq!(cursor.admits(p), held == Some(want_range), "{:?}", p);
            if cursor.spans_all_directions() {
                let placeholder = BinPoint { theta: 0.0, r_sq: 0.0, ..*p };
                prop_assert_eq!(cursor.admits(&placeholder), cursor.admits(p), "{:?}", p);
            }
            let (stats, range) = tree.lookup_with(p, &mut cursor);
            prop_assert!(std::ptr::eq(stats, want_stats), "another leaf for {:?}", p);
            prop_assert_eq!(range_bits(&range), range_bits(&want_range));
            held = Some(range);
        }
    }

    /// After every `lookup_with`, the cursor's slot is the leaf the lookup
    /// returned: the slot the slot walk visits that leaf under.
    #[test]
    fn cursor_slot_is_the_leaf_lookup_returns(
        stream in arb_stream(),
        probes in proptest::collection::vec(arb_point(), 8..64),
    ) {
        let mut tree = BinTree::new(SplitConfig::default());
        for p in &stream {
            tree.tally(p, Rgb::new(0.2, 0.4, 0.8));
        }
        let mut by_slot = vec![std::ptr::null(); tree.leaf_count() as usize];
        tree.for_each_leaf_slot(|slot, _, stats| by_slot[slot as usize] = stats as *const _);
        let mut cursor = LeafCursor::new();
        prop_assert_eq!(tree.cursor_slot(&cursor), None);
        for p in edge_walk(&tree).iter().chain(&probes) {
            let (stats, _) = tree.lookup_with(p, &mut cursor);
            let slot = tree.cursor_slot(&cursor).expect("a leaf is cached");
            prop_assert!(std::ptr::eq(by_slot[slot as usize], stats), "{:?}", p);
        }
    }

    /// The slot walk visits every slot once, each with the range bits
    /// `lookup` returns at that leaf's centre — ascending in the canonical
    /// order of a compacted clone.
    #[test]
    fn the_slot_walk_visits_every_slot_once_with_lookups_range(stream in arb_stream()) {
        let mut tree = BinTree::new(SplitConfig::default());
        for p in &stream {
            tree.tally(p, Rgb::WHITE);
        }
        for tree in [tree.clone(), tree.compacted_clone()] {
            let mut visits = vec![0u32; tree.leaf_count() as usize];
            tree.for_each_leaf_slot(|slot, range, stats| {
                visits[slot as usize] += 1;
                let (want_stats, want_range) = tree.lookup(&range.center());
                assert!(std::ptr::eq(stats, want_stats));
                assert_eq!(range_bits(range), range_bits(&want_range));
            });
            prop_assert!(visits.iter().all(|&n| n == 1), "{:?}", visits);
        }
        let mut order = Vec::new();
        tree.compacted_clone().for_each_leaf_slot(|slot, _, _| order.push(slot));
        prop_assert!(order.iter().enumerate().all(|(i, &slot)| i as u32 == slot));
    }

    /// `same_shape` is exactly "the exports agree on axes and child layout"
    /// over trees in the canonical order (compacted clones and imports —
    /// what an answer holds), whatever their statistics; on any pair it
    /// implies it. A tree with one internal node's axis flipped keeps its
    /// node count and loses its shape.
    #[test]
    fn same_shape_is_export_shape_equality(
        stream in arb_stream(),
        cut in 0usize..2000,
        flip in 0usize..64,
    ) {
        let grow = |points: &[BinPoint], rgb| {
            let mut tree = BinTree::new(SplitConfig::default());
            for p in points {
                tree.tally(p, rgb);
            }
            tree
        };
        let whole = grow(&stream, Rgb::WHITE);
        // Energy never decides a split: the same shape, other statistics.
        let tinted = grow(&stream, Rgb::new(0.1, 0.7, 0.3));
        let prefix = grow(&stream[..cut.min(stream.len())], Rgb::WHITE);
        let mut flipped = whole.export_nodes();
        let internals: Vec<usize> = (0..flipped.len())
            .filter(|&i| matches!(flipped[i], ExportNode::Internal { .. }))
            .collect();
        if let Some(&i) = internals.get(flip % internals.len().max(1)) {
            if let ExportNode::Internal { axis, .. } = &mut flipped[i] {
                *axis = Axis::from_index((*axis as usize + 1) % 4);
            }
        }
        let flipped = BinTree::from_export(flipped, SplitConfig::default()).expect("valid");
        prop_assert_eq!(flipped.node_count(), whole.node_count());
        let canonical = [
            whole.compacted_clone(),
            tinted.compacted_clone(),
            prefix.compacted_clone(),
            BinTree::from_export(whole.export_nodes(), SplitConfig::default()).expect("valid"),
            flipped,
        ];
        let grown = [whole.clone(), tinted, prefix];
        for a in canonical.iter().chain(&grown) {
            for b in canonical.iter().chain(&grown) {
                let equal = export_shape(a) == export_shape(b);
                let both_canonical = canonical.iter().any(|c| std::ptr::eq(c, a))
                    && canonical.iter().any(|c| std::ptr::eq(c, b));
                if both_canonical {
                    prop_assert_eq!(a.same_shape(b), equal);
                } else {
                    prop_assert!(!a.same_shape(b) || equal);
                }
            }
        }
        prop_assert!(whole.same_shape(&whole.clone()));
        prop_assert_eq!(canonical[4].same_shape(&canonical[0]), internals.is_empty());
    }

    /// `leaf_remap` sends an older tree's leaf nowhere or to the slot
    /// `lookup` reaches in the newer tree at every stream point and leaf
    /// centre, and maps it exactly when the newer tree has a leaf in its
    /// place (a reference descent of both exports, split for split). Over
    /// a lineage that is exactly "the newer tree has a leaf with its range
    /// bits"; across lineages a leaf reached by other splits can share
    /// them. Two trees of one shape map to the identity. The cases of
    /// `same_shape_is_export_shape_equality`, plus another stream's tree.
    #[test]
    fn leaf_remap_lands_where_lookup_does(
        stream in arb_stream(),
        other in arb_stream(),
        cut in 0usize..2000,
        flip in 0usize..64,
    ) {
        let grow = |points: &[BinPoint], rgb| {
            let mut tree = BinTree::new(SplitConfig::default());
            for p in points {
                tree.tally(p, rgb);
            }
            tree
        };
        let whole = grow(&stream, Rgb::WHITE);
        let tinted = grow(&stream, Rgb::new(0.1, 0.7, 0.3));
        let prefix = grow(&stream[..cut.min(stream.len())], Rgb::WHITE);
        let foreign = grow(&other, Rgb::WHITE);
        let mut flipped = whole.export_nodes();
        let internals: Vec<usize> = (0..flipped.len())
            .filter(|&i| matches!(flipped[i], ExportNode::Internal { .. }))
            .collect();
        if let Some(&i) = internals.get(flip % internals.len().max(1)) {
            if let ExportNode::Internal { axis, .. } = &mut flipped[i] {
                *axis = Axis::from_index((*axis as usize + 1) % 4);
            }
        }
        let flipped = BinTree::from_export(flipped, SplitConfig::default()).expect("valid");
        // (older, newer, whether newer grew from older)
        let cases = [
            (prefix.compacted_clone(), whole.compacted_clone(), true),
            (prefix.clone(), whole.clone(), true),
            (whole.compacted_clone(), tinted.clone(), true),
            (whole.compacted_clone(), whole.compacted_clone(), true),
            (whole.compacted_clone(), flipped, false),
            (whole.compacted_clone(), foreign.compacted_clone(), false),
            (foreign, whole.clone(), false),
        ];
        for (older, newer, lineage) in &cases {
            let map = older.leaf_remap(newer);
            prop_assert_eq!(map.len(), older.leaf_count() as usize);
            let mut newer_leaves = HashMap::new();
            newer.for_each_leaf_slot(|slot, range, _| {
                newer_leaves.insert(range_bits(range), slot);
            });
            let mut leaves = Vec::new();
            older.for_each_leaf_slot(|slot, range, _| leaves.push((slot, *range)));
            let (was, now) = (older.export_nodes(), newer.export_nodes());
            for (slot, range) in &leaves {
                let mapped = map[*slot as usize];
                let in_place = kept_in_place(&was, &now, &range.center());
                prop_assert_eq!(mapped != u32::MAX, in_place, "slot {}", slot);
                let same_range = newer_leaves.get(&range_bits(range));
                if in_place {
                    prop_assert_eq!(same_range, Some(&mapped), "slot {}", slot);
                } else if *lineage {
                    prop_assert_eq!(same_range, None, "slot {}", slot);
                }
            }
            let centres = leaves.iter().map(|(_, range)| range.center());
            for p in stream.iter().copied().chain(centres) {
                let (mut was, mut now) = (LeafCursor::new(), LeafCursor::new());
                older.lookup_with(&p, &mut was);
                newer.lookup_with(&p, &mut now);
                let (was, now) = (older.cursor_slot(&was), newer.cursor_slot(&now));
                let mapped = map[was.expect("a leaf") as usize];
                prop_assert!(mapped == u32::MAX || Some(mapped) == now, "{:?}", p);
            }
            if older.same_shape(newer) {
                prop_assert!(map.iter().enumerate().all(|(k, &slot)| k as u32 == slot));
            }
        }
    }

    /// Total tallies are conserved and leaf measures partition the domain.
    #[test]
    fn tallies_and_measure_conserved(stream in arb_stream()) {
        let mut tree = BinTree::new(SplitConfig::default());
        for p in &stream {
            tree.tally(p, Rgb::WHITE);
        }
        prop_assert_eq!(tree.tallies(), stream.len() as u64);
        let mut count = 0u64;
        let mut measure = 0.0;
        let mut leaves = 0u32;
        tree.for_each_leaf(|range, stats| {
            count += stats.n_total;
            measure += range.area_fraction() * range.solid_angle_fraction();
            leaves += 1;
        });
        prop_assert_eq!(leaves, tree.leaf_count());
        // Count drift bounded by one photon per split (rounding of the
        // inherited share).
        let drift = count.abs_diff(stream.len() as u64);
        prop_assert!(drift <= tree.node_count() as u64, "drift {}", drift);
        // Leaf 4-D measures tile the unit measure exactly.
        prop_assert!((measure - 1.0).abs() < 1e-9, "measure {}", measure);
    }

    /// Every lookup lands in a leaf whose range contains the query.
    #[test]
    fn lookup_is_consistent(stream in arb_stream(), probe in arb_point()) {
        let mut tree = BinTree::new(SplitConfig::default());
        for p in &stream {
            tree.tally(p, Rgb::WHITE);
        }
        let (_, range) = tree.lookup(&probe);
        prop_assert!(range.contains(&probe), "{:?} not in {:?}", probe, range);
    }

    /// Export/import round-trips arbitrary trees.
    #[test]
    fn export_round_trip(stream in arb_stream()) {
        let mut tree = BinTree::new(SplitConfig::default());
        for p in &stream {
            tree.tally(p, Rgb::new(0.3, 0.5, 0.7));
        }
        let rebuilt = BinTree::from_export(tree.export_nodes(), SplitConfig::default())
            .expect("valid export");
        prop_assert_eq!(rebuilt.leaf_count(), tree.leaf_count());
        prop_assert_eq!(rebuilt.max_depth(), tree.max_depth());
    }

    /// Any valid node layout — here breadth-first, which disagrees with the
    /// canonical arena order past depth one — imports into the SoA arenas
    /// with the logical tree intact, and re-exporting is idempotent (the
    /// export is the canonical form).
    #[test]
    fn arbitrary_layouts_roundtrip_through_the_soa_arenas(shape in arb_shape()) {
        let tree = BinTree::from_export(bfs_layout(&shape), SplitConfig::default())
            .expect("BFS layout is a valid tree");
        let mut want = Vec::new();
        dfs_leaves(&shape, &mut want);
        let mut got = Vec::new();
        tree.for_each_leaf(|_, stats| got.push(*stats));
        prop_assert_eq!(got.len(), want.len());
        for (g, marker) in got.iter().zip(&want) {
            prop_assert_eq!(*g, marked_stats(*marker));
        }
        // Canonical-form idempotence: importing the export reproduces it.
        let canon = tree.export_nodes();
        let again = BinTree::from_export(canon.clone(), SplitConfig::default())
            .expect("canonical export is valid");
        prop_assert_eq!(again.export_nodes(), canon);
    }

    /// The packed-arena descent agrees with a naive reference descend over
    /// the exported nodes — for uniform probes, the tallied points
    /// themselves, and the closed global upper corner.
    #[test]
    fn lookup_matches_a_naive_reference_descend(
        stream in arb_stream(),
        probes in proptest::collection::vec(arb_point(), 8..33),
    ) {
        let mut tree = BinTree::new(SplitConfig::default());
        for p in &stream {
            tree.tally(p, Rgb::new(0.2, 0.4, 0.8));
        }
        let nodes = tree.export_nodes();
        let corner = BinPoint::new(1.0, 1.0, TAU, 1.0);
        for p in probes.iter().chain(stream.iter().take(16)).chain([&corner]) {
            let (stats, range) = tree.lookup(p);
            let (want_stats, want_range) = naive_lookup(&nodes, p);
            prop_assert_eq!(*stats, want_stats);
            prop_assert_eq!(range, want_range);
        }
    }

    /// The tree's branch-free kernel — descent, lower-half counts, the
    /// clearly-uniform shortcut before the split test — builds exactly the
    /// reference tree: the same split decision at every tally, and the same
    /// nodes and leaf bits, over warped streams, every leaf's edge walk and
    /// points with NaN coordinates, under rules from 0.5σ to 4σ, a
    /// `min_count` of 1 or 32, and a depth cap that bites or does not.
    #[test]
    fn tally_matches_a_naive_reference_tally(
        stream in arb_stream(),
        nans in proptest::collection::vec((1usize..16, arb_point()), 0..24),
        rule in (0usize..6, 0usize..2, 0usize..2),
    ) {
        let config = SplitConfig {
            rule: SplitRule {
                sigmas: [0.5, 1.0, 2.0, 3.0, 3.5, 4.0][rule.0],
                min_count: [1, 32][rule.1],
            },
            max_depth: [4, 24][rule.2],
        };
        let mut tree = BinTree::new(config);
        let mut reference = ReferenceTree::new(config);
        let tint = |i: usize| Rgb::new(0.25 + i as f64 * 1e-3, 0.5, 1.0 / (1.0 + i as f64));
        let with_nans = nans.iter().map(|&(mask, p)| {
            let mut x = [p.s, p.t, p.theta, p.r_sq];
            for (i, x) in x.iter_mut().enumerate() {
                if mask >> i & 1 == 1 {
                    *x = f64::NAN;
                }
            }
            BinPoint::new(x[0], x[1], x[2], x[3])
        });
        for (i, p) in stream.iter().copied().chain(with_nans).enumerate() {
            prop_assert_eq!(tree.tally(&p, tint(i)), reference.tally(&p, tint(i)), "{:?}", p);
        }
        for (i, p) in edge_walk(&tree).iter().enumerate() {
            prop_assert_eq!(tree.tally(p, tint(i)), reference.tally(p, tint(i)), "{:?}", p);
        }
        let got: Vec<_> = tree.export_nodes().iter().map(node_bits).collect();
        let want: Vec<_> = reference.export().iter().map(node_bits).collect();
        prop_assert_eq!(got, want);
    }

    /// Ranges produced by splitting always nest inside their parent.
    #[test]
    fn range_split_nests(axis_idx in 0usize..4) {
        let root = BinRange::full();
        let axis = photon_hist::Axis::from_index(axis_idx);
        let (lo, hi) = root.split(axis);
        for child in [lo, hi] {
            for a in photon_hist::Axis::ALL {
                prop_assert!(child.lo[a as usize] >= root.lo[a as usize] - 1e-12);
                prop_assert!(child.hi[a as usize] <= root.hi[a as usize] + 1e-12);
            }
        }
        prop_assert!((lo.width(axis) - hi.width(axis)).abs() < 1e-12);
    }
}
