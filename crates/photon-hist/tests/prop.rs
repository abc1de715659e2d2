//! Property tests on the 4-D bin tree invariants.

use photon_hist::{
    Axis, BinPoint, BinRange, BinTree, ExportNode, LeafCursor, LeafStats, SplitConfig,
};
use photon_math::Rgb;
use proptest::prelude::*;
use std::collections::VecDeque;
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
