//! Octree spatial decomposition for nearest-hit ray queries.
//!
//! Patches are inserted into every leaf octant their bounding box overlaps.
//! A query walks the ray from leaf to leaf in the order it enters them and
//! stops at the first leaf entered beyond the best hit found so far, which
//! makes the first surviving hit the global nearest. A patch referenced from
//! several octants along one ray is tested in the first and skipped in the
//! rest (see *Mailbox* below).
//!
//! Construction is top-down: a node holding more than [`LEAF_CAPACITY`]
//! patches splits into eight octants (until [`MAX_DEPTH`]), each receiving
//! the patches whose boxes overlap it.
//!
//! # Layout and traversal
//!
//! The tree is flat: the eight children of an internal node are contiguous
//! in one node array, every leaf's patch ids are a run of one shared id
//! array, and an internal node carries a mask of its non-empty children.
//! Only internal nodes keep their box, as the three planes per axis
//! (`min`, `center`, `max`) their eight octants share; a leaf's box is read
//! from its parent's planes and its octant code. Every node also keeps six
//! *ropes*: the node of equal or larger size across each of its faces.
//!
//! A query walks the ropes (*Walk* below). The depth-first traversal the
//! walk replaced stays as its tie path: it computes the nine plane
//! parameters `(plane - origin) * inv_dir` once per internal node and
//! assembles each child's slab interval from them, on an explicit
//! fixed-size stack.
//!
//! That is *exactly* the per-child [`Aabb::hit`] it replaces, not an
//! approximation of it: a child's faces are bit for bit its parent's planes
//! ([`Aabb::octants`] copies them), so each of the 48 products a per-child
//! test would form is one of the nine, and the same maxima and minima are
//! taken of them in the same order (NaN slabs, from a ray running inside a
//! plane, are unconstraining in both). Children are ordered by entry
//! parameter with a stable insertion sort, so octants entered at the same
//! parameter keep octant-code order and coplanar patches resolve to the
//! same `patch_id` every time.
//!
//! # Walk
//!
//! The stackless rope traversal of Popov et al., "Stackless KD-Tree
//! Traversal for High Performance GPU Ray Tracing" (2007), on Havran's
//! neighbour links:
//!
//! 1. Find the leaf that holds the ray where it enters the root, by
//!    comparing that entry parameter with each internal node's three
//!    mid-plane parameters `(center - origin) * inv_dir`.
//! 2. Test the leaf's patches (the mailbox, `limit` and the patch test are
//!    the traversal's: the *Leaf sweep* below).
//! 3. Leave through the one face whose far-plane parameter is strictly
//!    smallest.
//! 4. Follow that face's rope, and find the leaf that holds the exit
//!    parameter by the same comparisons, from the rope's node down. On the
//!    exit axis they pick the side the ray came in by, barring a tie.
//! 5. Stop when the exit parameter is greater than `limit`, or when the
//!    rope leads out of the root.
//!
//! A `lab` photon-path ray steps through 3.9 internal nodes this way where
//! the descent expanded 7.3, for the same 17.5 patch tests.
//!
//! *Why no bit moves.* A leaf's planes are bit for bit its parent's, so the
//! parameter at which the walk leaves one leaf is bit for bit the entry
//! parameter the traversal computes for the next, and the comparisons that
//! locate a leaf are the ones that decide which of its parent's octants
//! the traversal enters first. The traversal visits the leaves a ray
//! crosses by entry parameter. Wherever those are distinct, the walk
//! visits the same leaves in the same order (and the empty octants between
//! them, which test nothing), enters the next one under the same rule
//! (its entry parameter is not beyond `limit`), and so makes the same patch
//! tests in the same order, into the same mailbox, under the same `limit`.
//!
//! *Ties.* Where entry parameters are not distinct the traversal orders by
//! octant code, which a walk along the ray cannot see. So on any tie the
//! query restarts from scratch on the traversal ([`OctreeWork::fallbacks`]
//! counts these). The ties are:
//! - two of a leaf's exit parameters that are equal, or NaN: the ray leaves
//!   through an edge or a corner;
//! - a start or exit parameter equal to a mid-plane parameter it is
//!   compared with, or a leaf left at the parameter it was entered: the ray
//!   enters the root, or a leaf, through an edge where a split plane meets
//!   a face;
//! - an axis with an infinite `inv_dir` whose origin lies on a face of a
//!   visited leaf (a root face, or a mid-plane, whose parameter is
//!   `0 * inf`, NaN): the ray runs inside that face, and the traversal
//!   visits the leaves on both sides of it.
//!
//! No photon-path or camera ray of the three test scenes ties; 19–27 % of
//! the adversarial rays of the tests below do.
//!
//! # Mailbox
//!
//! The build stores a patch in every octant its box overlaps (7802
//! references to the lab's 1931 patches), so a ray that crosses several of
//! them meets the same patch again and again. A query keeps the ids it has
//! tested for this ray in a direct-mapped table of 64 slots on its stack
//! (`MAILBOX`) and skips an entry it finds there. Skipping is exact
//! because `limit` only ever shrinks: a patch whose test came to nothing —
//! the sweep dropped it (ray parallel to the plane, `t <= t_min`,
//! `t >= limit`, or point outside the guard box), the second pass found
//! `t >= limit`, or the inversion put the point outside the quad — comes to
//! nothing again under a smaller limit, and a test that hit set `limit = t`
//! and now fails `t >= limit`. Two ids that share a slot evict each other,
//! which costs a repeated test, never a missed one.
//!
//! # Leaf sweep
//!
//! A leaf's patches are tested in two passes, over chunks of at most
//! [`LEAF_CAPACITY`] ids (a leaf of the shipped scenes is one chunk):
//!
//! 1. *The sweep.* For each id in order, the mailbox check, then the
//!    patch's plane parameter `t` and its guard-box test, computed without
//!    a branch ([`PatchIsect::plane_t`](photon_math::PatchIsect::plane_t),
//!    six comparisons joined by `&`) under the `limit` the chunk was
//!    entered with. Each `(id, t)` is written to a stack buffer, and the
//!    count advances only for a survivor.
//! 2. *The survivors, in order.* One whose `t >= limit` under the current
//!    limit is skipped; the rest are inverted (their point recomputed bit
//!    for bit), and a hit lowers `limit` as before.
//!
//! *Why no bit moves.* Of the whole stage only its last comparison,
//! `t >= limit`, reads `limit`. The sweep filters with the chunk's entry
//! limit, which is never below the limit a one-pass loop would test a
//! patch under, so it keeps every patch that loop would invert; the second
//! pass repeats the comparison under the current limit, which is that
//! loop's. So the same patches are inverted, in the same order, under the
//! same limit. A NaN `t` passes the comparisons and fails the guard box,
//! in both. The patch tests and inversions [`OctreeWork`] counts are
//! unchanged; only the two unpredictable branches of each test leave the
//! loop, for a pass over the survivors (1.1 per `lab` photon-path ray,
//! of 17.5 tests).
//!
//! **Bit-identity rule.** Answers are pinned across commits
//! (`tests/golden_answers.rs`), and which bin a photon lands in depends on
//! the last bit of `s`, `v` and `t`. A change here may reorder memory and
//! skip redundant work, but must leave every [`SceneHit`] field equal by
//! `to_bits` — the tests below hold the traversal to a recursive reference
//! traversal, and the walk to both. A filter may only drop a test whose
//! result is already known to be `None`.

use crate::scene::{SceneHit, SurfacePatch};
use photon_math::{Aabb, Ray, Vec3};

/// Maximum tree depth; 2^8 cells per axis is plenty for the paper's scenes.
pub const MAX_DEPTH: u32 = 8;
/// A node holding more than this many patches splits (unless at max depth).
pub const LEAF_CAPACITY: usize = 8;

/// Most entries the traversal stack can hold: all eight children of the
/// deepest internal node, over seven waiting siblings at each level above.
const STACK: usize = 7 * MAX_DEPTH as usize + 1;

/// Slots of the per-ray table of patches already tested; patch `pi` lives
/// in slot `pi % MAILBOX`. A lab path ray meets 17.5 distinct patches.
const MAILBOX: usize = 64;

/// A rope across a face of the root: no node lies beyond it.
const OUTSIDE: u32 = u32::MAX;

/// Flat octree over patch indices.
#[derive(Clone, Debug)]
pub struct Octree {
    /// Node 0 is the root; an internal node's children are contiguous.
    nodes: Vec<Node>,
    /// Split planes of the internal nodes. A node's eight children and its
    /// cell are appended together, so node `c`'s parent has cell
    /// `(c - 1) / 8` ([`parent_cell`]) and `c` is its octant `(c - 1) % 8`.
    cells: Vec<Cell>,
    /// Patch ids of all leaves, each leaf a contiguous run.
    items: Vec<u32>,
    /// Per node, the node across each face, of equal or larger size, or
    /// [`OUTSIDE`]. Face `2 * axis` is the lower, `2 * axis + 1` the upper.
    /// The walk follows leaves' ropes; an internal node's are what its
    /// children's are refined from.
    ropes: Vec<[u32; 6]>,
    bounds: Aabb,
}

#[derive(Clone, Copy, Debug)]
enum Node {
    Internal {
        /// Index of child 0; child `c` (octant code `x | y<<1 | z<<2`) is
        /// `first_child + c`.
        first_child: u32,
        /// Bit `c` is set when child `c` holds any patch.
        occupied: u8,
    },
    Leaf {
        /// Start of this leaf's run in `Octree::items`.
        start: u32,
        /// Length of the run.
        len: u32,
    },
}

impl Node {
    /// A leaf holding nothing: what an empty octant is, and what a node is
    /// until `build_node` fills it in.
    const EMPTY: Node = Node::Leaf { start: 0, len: 0 };
}

/// Index into `Octree::cells` of the parent of node `child` (not the root).
#[inline(always)]
fn parent_cell(child: u32) -> usize {
    (child as usize - 1) / 8
}

/// The box of an internal node, as the planes its octants share.
#[derive(Clone, Copy, Debug)]
struct Cell {
    min: Vec3,
    center: Vec3,
    max: Vec3,
}

/// Structural statistics, reported by the Fig 4.6 demo and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OctreeStats {
    /// Total nodes in the arena.
    pub nodes: usize,
    /// Leaf count.
    pub leaves: usize,
    /// Maximum depth reached.
    pub max_depth: u32,
    /// Total patch references across leaves (can exceed the patch count
    /// because a patch overlapping several octants is stored in each).
    pub item_refs: usize,
}

/// What a query reports about its own work. The production query runs
/// with [`NoProbe`], whose empty methods monomorphise away;
/// [`Octree::intersect_counted`] runs with an [`OctreeWork`].
trait Probe {
    /// An internal node is about to be stepped through.
    fn internal_node(&mut self) {}
    /// Patch `patch_id` is about to be tested.
    fn patch_test(&mut self, _patch_id: u32) {}
    /// A plane point passed the guard box and is about to be inverted.
    fn inversion(&mut self) {}
    /// The walk met a tie and the query restarts on the traversal.
    fn fallback(&mut self) {}
}

struct NoProbe;
impl Probe for NoProbe {}

/// The work one query did, counted by the query itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OctreeWork {
    /// Internal nodes stepped through: each node the walk located a leaf
    /// through (three mid-plane parameters), plus, after a fallback, each
    /// node the traversal expanded (nine slab parameters, eight children).
    pub internal_nodes: u64,
    /// Patches put to the plane test (mailbox skips are not tests),
    /// counting those of a walk abandoned at a tie.
    pub patch_tests: u64,
    /// Of those, the ones whose plane point lay inside the patch's guard
    /// box and paid for the bilinear inversion.
    pub inversions: u64,
    /// Queries whose walk met a tie and restarted from scratch on the
    /// depth-first traversal (see the module doc's *Ties*).
    pub fallbacks: u64,
}

impl Probe for OctreeWork {
    fn internal_node(&mut self) {
        self.internal_nodes += 1;
    }
    fn patch_test(&mut self, _patch_id: u32) {
        self.patch_tests += 1;
    }
    fn inversion(&mut self) {
        self.inversions += 1;
    }
    fn fallback(&mut self) {
        self.fallbacks += 1;
    }
}

impl std::ops::AddAssign for OctreeWork {
    fn add_assign(&mut self, o: OctreeWork) {
        self.internal_nodes += o.internal_nodes;
        self.patch_tests += o.patch_tests;
        self.inversions += o.inversions;
        self.fallbacks += o.fallbacks;
    }
}

/// The walk could not tell the traversal's leaf order apart here.
struct Tie;

/// One query's state from leaf to leaf: the best hit so far, the `limit`
/// it sets, and the mailbox of patches already tested for this ray.
struct Search<'a> {
    patches: &'a [SurfacePatch],
    ray: &'a Ray,
    t_min: f64,
    limit: f64,
    best: Option<SceneHit>,
    /// No patch has id `u32::MAX`.
    tested: [u32; MAILBOX],
}

impl<'a> Search<'a> {
    fn new(patches: &'a [SurfacePatch], ray: &'a Ray, t_min: f64, t_max: f64) -> Self {
        Search {
            patches,
            ray,
            t_min,
            limit: t_max,
            best: None,
            tested: [u32::MAX; MAILBOX],
        }
    }

    /// Tests the patches `ids` of one leaf that this ray has not met yet,
    /// each hit lowering `limit`: the module doc's *Leaf sweep*, a chunk of
    /// at most [`LEAF_CAPACITY`] ids at a time.
    #[inline(always)]
    fn leaf<P: Probe>(&mut self, ids: &[u32], probe: &mut P) {
        for chunk in ids.chunks(LEAF_CAPACITY) {
            // Pass 1: every untested patch's candidate under the limit the
            // chunk was entered with, the survivors kept in order.
            let mut survivors = [(0u32, 0.0f64); LEAF_CAPACITY];
            let mut n = 0;
            for &pi in chunk {
                let slot = &mut self.tested[pi as usize % MAILBOX];
                if *slot == pi {
                    continue;
                }
                *slot = pi;
                probe.patch_test(pi);
                let (t, survives) =
                    self.patches[pi as usize].candidate(self.ray, self.t_min, self.limit);
                survivors[n] = (pi, t);
                n += usize::from(survives);
            }
            // Pass 2: the survivors in order, under the current limit.
            for &(pi, t) in &survivors[..n] {
                if t >= self.limit {
                    continue;
                }
                probe.inversion();
                if let Some(h) = self.patches[pi as usize].invert(pi, self.ray, t) {
                    self.limit = h.t;
                    self.best = Some(h);
                }
            }
        }
    }
}

/// The parameter interval a ray spends between two parallel planes with
/// parameters `a` and `b` — one axis of [`Aabb::hit`]. NaN (0 * inf: the
/// origin sits on a plane the ray runs parallel to) does not constrain.
#[inline(always)]
fn slab(a: f64, b: f64) -> (f64, f64) {
    let (near, far) = if a > b { (b, a) } else { (a, b) };
    if near.is_nan() || far.is_nan() {
        (f64::NEG_INFINITY, f64::INFINITY)
    } else {
        (near, far)
    }
}

/// The larger of two parameters, neither NaN. Unlike `f64::max` this is a
/// single instruction; the two differ only in which zero `later(0.0, -0.0)`
/// is, which no comparison below can tell apart.
#[inline(always)]
fn later(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// The smaller of two parameters, neither NaN (see [`later`]).
#[inline(always)]
fn sooner(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// The slabs of the lower and the upper half of one axis of a cell.
#[inline(always)]
fn half_slabs(min: f64, center: f64, max: f64, origin: f64, inv: f64) -> [(f64, f64); 2] {
    let lo = (min - origin) * inv;
    let mid = (center - origin) * inv;
    let hi = (max - origin) * inv;
    [slab(lo, mid), slab(mid, hi)]
}

impl Octree {
    /// Builds the tree over `patches` within `bounds`.
    pub fn build(patches: &[SurfacePatch], bounds: Aabb) -> Self {
        let boxes: Vec<Aabb> = patches
            .iter()
            .map(|p| p.patch.aabb().padded(1e-9))
            .collect();
        let all: Vec<u32> = (0..patches.len() as u32).collect();
        let mut tree = Octree {
            nodes: vec![Node::EMPTY],
            cells: Vec::new(),
            items: Vec::new(),
            ropes: Vec::new(),
            bounds,
        };
        tree.build_node(0, bounds, all, &boxes, 0);
        tree.ropes = tree.ropes();
        tree
    }

    /// Recursively fills in node `idx`, the box `bounds` holding `items`.
    fn build_node(
        &mut self,
        idx: usize,
        bounds: Aabb,
        items: Vec<u32>,
        boxes: &[Aabb],
        depth: u32,
    ) {
        let octants = bounds.octants();
        let mut parts: [Vec<u32>; 8] = Default::default();
        let mut split = items.len() > LEAF_CAPACITY && depth < MAX_DEPTH;
        if split {
            for &it in &items {
                for (c, ob) in octants.iter().enumerate() {
                    if ob.overlaps(&boxes[it as usize]) {
                        parts[c].push(it);
                    }
                }
            }
            // If splitting separates nothing (every item spans every
            // octant), keep the leaf: descending would cost 8x memory for
            // no pruning.
            split = !parts.iter().all(|p| p.len() == items.len());
        }
        if !split {
            self.nodes[idx] = Node::Leaf {
                start: self.items.len() as u32,
                len: items.len() as u32,
            };
            self.items.extend(items);
            return;
        }
        let first_child = self.nodes.len();
        self.nodes.extend([Node::EMPTY; 8]);
        debug_assert_eq!(parent_cell(first_child as u32), self.cells.len());
        self.cells.push(Cell {
            min: bounds.min,
            center: bounds.center(),
            max: bounds.max,
        });
        let mut occupied = 0u8;
        for (c, (ob, child_items)) in octants.into_iter().zip(parts).enumerate() {
            occupied |= u8::from(!child_items.is_empty()) << c;
            self.build_node(first_child + c, ob, child_items, boxes, depth + 1);
        }
        self.nodes[idx] = Node::Internal {
            first_child: first_child as u32,
            occupied,
        };
    }

    /// Every node's ropes, refined top-down. A child's face inside its
    /// parent leads to the sibling across it. A face on the parent's own
    /// leads where the parent's rope does; when that node is internal it is
    /// the parent's size, so the rope goes one level down, to its child
    /// across from this one.
    fn ropes(&self) -> Vec<[u32; 6]> {
        let mut ropes = vec![[OUTSIDE; 6]; self.nodes.len()];
        // Children are appended after their parent, so a parent's ropes are
        // final before its children's are refined from them.
        for parent in 0..self.nodes.len() {
            let Node::Internal { first_child, .. } = self.nodes[parent] else {
                continue;
            };
            for c in 0..8u32 {
                let child = std::array::from_fn(|face| {
                    let bit = 1 << (face / 2);
                    let upper = face % 2 == 1;
                    if (c & bit != 0) != upper {
                        first_child + (c ^ bit)
                    } else {
                        match ropes[parent][face] {
                            OUTSIDE => OUTSIDE,
                            across => match self.nodes[across as usize] {
                                Node::Internal { first_child, .. } => first_child + (c ^ bit),
                                Node::Leaf { .. } => across,
                            },
                        }
                    }
                });
                ropes[(first_child + c) as usize] = child;
            }
        }
        ropes
    }

    /// Nearest hit along `ray` within `(t_min, t_max)` — the paper's
    /// `DetermineIntersection` accelerated by the geometry octree.
    pub fn intersect(
        &self,
        patches: &[SurfacePatch],
        ray: &Ray,
        t_min: f64,
        t_max: f64,
    ) -> Option<SceneHit> {
        self.query(patches, ray, t_min, t_max, &mut NoProbe)
    }

    /// [`Octree::intersect`], also returning what the query cost.
    pub fn intersect_counted(
        &self,
        patches: &[SurfacePatch],
        ray: &Ray,
        t_min: f64,
        t_max: f64,
    ) -> (Option<SceneHit>, OctreeWork) {
        let mut work = OctreeWork::default();
        let hit = self.query(patches, ray, t_min, t_max, &mut work);
        (hit, work)
    }

    /// The walk, or on a tie the traversal from scratch; `probe` sees each
    /// internal node stepped through, each patch tested, each plane point
    /// inverted and the fallback.
    #[inline]
    fn query<P: Probe>(
        &self,
        patches: &[SurfacePatch],
        ray: &Ray,
        t_min: f64,
        t_max: f64,
        probe: &mut P,
    ) -> Option<SceneHit> {
        match self.walk(patches, ray, t_min, t_max, probe) {
            Ok(hit) => hit,
            Err(Tie) => {
                probe.fallback();
                self.traverse(patches, ray, t_min, t_max, probe)
            }
        }
    }

    /// Patch ids of leaf run `start..start + len`.
    #[inline(always)]
    fn run(&self, start: u32, len: u32) -> &[u32] {
        &self.items[start as usize..(start + len) as usize]
    }

    /// The module doc's *Walk*: the traversal's hit, by its patch tests in
    /// its order, or `Err(Tie)` where the walk cannot tell that order.
    #[inline]
    fn walk<P: Probe>(
        &self,
        patches: &[SurfacePatch],
        ray: &Ray,
        t_min: f64,
        t_max: f64,
        probe: &mut P,
    ) -> Result<Option<SceneHit>, Tie> {
        let (o, inv) = (ray.origin, ray.inv_dir);
        // Per axis, whether the ray runs toward the lower planes, and which
        // of a cell's planes (`min`, `center`, `max`) is the far one of its
        // lower octant (upper: one more).
        let down = [inv.x < 0.0, inv.y < 0.0, inv.z < 0.0];
        let far = down.map(|d| usize::from(!d));
        // Where the ray enters the root (the traversal's entry parameter of
        // the child it visits first) and leaves it: [`Aabb::hit`], whose
        // NaN slabs are ties here.
        let (mut enter, mut out) = (t_min, t_max);
        for k in 0..3 {
            let (lo, hi) = (self.bounds.min[k], self.bounds.max[k]);
            let (a, b) = if down[k] { (hi, lo) } else { (lo, hi) };
            let (near, exit) = ((a - o[k]) * inv[k], (b - o[k]) * inv[k]);
            if near.is_nan() || exit.is_nan() {
                return Err(Tie);
            }
            enter = later(enter, near);
            out = sooner(out, exit);
        }
        // The root box must be entered at all for any hit to exist.
        if enter > out {
            return Ok(None);
        }
        let mut search = Search::new(patches, ray, t_min, t_max);
        let mut node = 0u32;
        loop {
            // Down to the leaf that holds the ray at `enter`.
            let (start, len) = loop {
                match self.nodes[node as usize] {
                    Node::Leaf { start, len } => break (start, len),
                    Node::Internal { first_child, .. } => {
                        probe.internal_node();
                        let center = self.cells[parent_cell(first_child)].center;
                        let mut code = 0;
                        for k in 0..3 {
                            let mid = (center[k] - o[k]) * inv[k];
                            let (past, short) = (enter > mid, enter < mid);
                            // Equal, or NaN.
                            if past == short {
                                return Err(Tie);
                            }
                            code |= u32::from(past != down[k]) << k;
                        }
                        node = first_child + code;
                    }
                }
            };
            search.leaf(self.run(start, len), probe);
            if node == 0 {
                // The root is the only leaf.
                return Ok(search.best);
            }
            // Leave through the face whose far-plane parameter is smallest.
            let (cell, code) = (&self.cells[parent_cell(node)], (node - 1) % 8);
            let mut exit = [0.0f64; 3];
            for k in 0..3 {
                let planes = [cell.min[k], cell.center[k], cell.max[k]];
                let upper = (code >> k & 1) as usize;
                exit[k] = (planes[far[k] + upper] - o[k]) * inv[k];
            }
            let [x, y, z] = exit;
            let axis = if x < y && x < z {
                0
            } else if y < x && y < z {
                1
            } else if z < x && z < y {
                2
            } else {
                return Err(Tie);
            };
            let leave = exit[axis];
            // Neither is NaN: `leave` won a strict comparison, and `enter`
            // is the root's entry or an earlier `leave`.
            if leave <= enter {
                return Err(Tie);
            }
            if leave > search.limit {
                return Ok(search.best);
            }
            node = self.ropes[node as usize][2 * axis + far[axis]];
            if node == OUTSIDE {
                return Ok(search.best);
            }
            enter = leave;
        }
    }

    /// The depth-first traversal, now the walk's tie path; `probe` sees each
    /// internal node expanded, each patch tested and each plane point
    /// inverted.
    #[cold]
    fn traverse<P: Probe>(
        &self,
        patches: &[SurfacePatch],
        ray: &Ray,
        t_min: f64,
        t_max: f64,
        probe: &mut P,
    ) -> Option<SceneHit> {
        let mut search = Search::new(patches, ray, t_min, t_max);
        // The root box must be entered at all for any hit to exist.
        self.bounds.hit(ray, t_min, t_max)?;
        // Nodes still to visit, nearest on top, each with the parameter at
        // which the ray enters it.
        let mut stack = [(0.0f64, 0u32); STACK];
        let mut top = 0;
        let mut node = 0u32;
        loop {
            match self.nodes[node as usize] {
                Node::Leaf { start, len } => search.leaf(self.run(start, len), probe),
                Node::Internal {
                    first_child,
                    occupied,
                } => {
                    probe.internal_node();
                    let cell = &self.cells[parent_cell(first_child)];
                    let limit = search.limit;
                    let (o, inv) = (ray.origin, ray.inv_dir);
                    let xs = half_slabs(cell.min.x, cell.center.x, cell.max.x, o.x, inv.x);
                    let ys = half_slabs(cell.min.y, cell.center.y, cell.max.y, o.y, inv.y);
                    let zs = half_slabs(cell.min.z, cell.center.z, cell.max.z, o.z, inv.z);
                    // Entry and exit parameters of all eight children,
                    // occupied or not: computing them unconditionally keeps
                    // this loop free of data-dependent branches.
                    let mut hit = 0u8;
                    let mut enter = [0.0f64; 8];
                    for c in 0..8usize {
                        let (nx, fx) = xs[c & 1];
                        let (ny, fy) = ys[(c >> 1) & 1];
                        let (nz, fz) = zs[c >> 2];
                        let t0 = later(later(later(t_min, nx), ny), nz);
                        let t1 = sooner(sooner(sooner(limit, fx), fy), fz);
                        enter[c] = t0;
                        hit |= u8::from(t0 <= t1) << c;
                    }
                    // Occupied children the ray crosses within
                    // (t_min, limit), sorted by entry parameter; equal
                    // parameters keep octant-code order.
                    let mut order = [(0.0f64, 0u32); 8];
                    let mut cnt = 0;
                    let mut todo = hit & occupied;
                    while todo != 0 {
                        let c = todo.trailing_zeros();
                        todo &= todo - 1;
                        let t0 = enter[c as usize];
                        let mut i = cnt;
                        while i > 0 && order[i - 1].0 > t0 {
                            order[i] = order[i - 1];
                            i -= 1;
                        }
                        order[i] = (t0, first_child + c);
                        cnt += 1;
                    }
                    for &entry in order[..cnt].iter().rev() {
                        stack[top] = entry;
                        top += 1;
                    }
                }
            }
            // Next node the ray enters before the best hit so far. A
            // closer hit since the push prunes everything entered beyond it.
            loop {
                if top == 0 {
                    return search.best;
                }
                top -= 1;
                let (t0, next) = stack[top];
                if t0 > search.limit {
                    continue;
                }
                node = next;
                break;
            }
        }
    }

    /// Structural statistics.
    pub fn stats(&self) -> OctreeStats {
        let mut s = OctreeStats {
            nodes: self.nodes.len(),
            item_refs: self.items.len(),
            ..Default::default()
        };
        self.stat_walk(0, 0, &mut s);
        s
    }

    fn stat_walk(&self, node: usize, depth: u32, s: &mut OctreeStats) {
        match self.nodes[node] {
            Node::Leaf { .. } => {
                s.leaves += 1;
                s.max_depth = s.max_depth.max(depth);
            }
            Node::Internal { first_child, .. } => {
                for c in 0..8 {
                    self.stat_walk(first_child as usize + c, depth + 1, s);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::material::Material;
    use photon_core::{path_rays, Camera, PhotonGenerator};
    use photon_math::{Patch, Rgb, Vec3};
    use photon_rng::{Lcg48, PhotonRng};
    use photon_scenes::{sun_room, TestScene, ViewSpec};

    /// Work one query did, counted by either traversal (the reference
    /// inverts every plane point and does not count it).
    type Work = OctreeWork;

    /// The traversal this file had before the tree was flattened, kept as
    /// the oracle: recursive, a whole `Aabb::hit` per child on boxes
    /// re-derived with `Aabb::octants`, `sort_by`, and the patch test
    /// computed from scratch. It reads only the topology of the flat tree,
    /// not its cells or occupancy masks.
    fn reference(
        tree: &Octree,
        patches: &[SurfacePatch],
        ray: &Ray,
        t_min: f64,
        t_max: f64,
        work: &mut Work,
    ) -> Option<SceneHit> {
        let mut best = None;
        let mut limit = t_max;
        tree.bounds.hit(ray, t_min, limit)?;
        reference_visit(
            tree,
            (0, tree.bounds),
            patches,
            ray,
            t_min,
            &mut limit,
            &mut best,
            work,
        );
        best
    }

    #[allow(clippy::too_many_arguments)]
    fn reference_visit(
        tree: &Octree,
        (node, bounds): (usize, Aabb),
        patches: &[SurfacePatch],
        ray: &Ray,
        t_min: f64,
        limit: &mut f64,
        best: &mut Option<SceneHit>,
        work: &mut Work,
    ) {
        let first_child = match tree.nodes[node] {
            Node::Leaf { start, len } => {
                for &pi in &tree.items[start as usize..(start + len) as usize] {
                    work.patch_tests += 1;
                    let sp = &patches[pi as usize];
                    if let Some(h) = sp.patch.intersect(ray, t_min, *limit) {
                        *limit = h.t;
                        *best = Some(SceneHit {
                            patch_id: pi,
                            t: h.t,
                            point: h.point,
                            s: h.s,
                            v: h.v,
                            front: ray.dir.dot(sp.frame.w) < 0.0,
                        });
                    }
                }
                return;
            }
            Node::Internal { first_child, .. } => first_child as usize,
        };
        work.internal_nodes += 1;
        let mut order = Vec::new();
        for (c, ob) in bounds.octants().into_iter().enumerate() {
            if matches!(tree.nodes[first_child + c], Node::Leaf { len: 0, .. }) {
                continue;
            }
            if let Some((t0, _)) = ob.hit(ray, t_min, *limit) {
                order.push((t0, first_child + c, ob));
            }
        }
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (t0, child, ob) in order {
            if t0 > *limit {
                break;
            }
            reference_visit(tree, (child, ob), patches, ray, t_min, limit, best, work);
        }
    }

    pub(crate) fn bits(h: Option<SceneHit>) -> Option<(u32, [u64; 6], bool)> {
        let h = h?;
        let f = [h.t, h.s, h.v, h.point.x, h.point.y, h.point.z];
        Some((h.patch_id, f.map(f64::to_bits), h.front))
    }

    /// Casts `rays` through the traversal, the reference and the walk,
    /// asserting ray by ray:
    /// - the traversal's hit equal to the reference's (by bit pattern), with
    ///   equal internal nodes and no more patch tests, since the reference
    ///   has no mailbox;
    /// - the walk's hit equal to the reference's too, and where it did not
    ///   fall back, the traversal's patch tests in the traversal's order.
    ///
    /// Returns the traversal's and the walk's work on the unbounded queries,
    /// and how many of those hit.
    fn assert_identical(
        tree: &Octree,
        patches: &[SurfacePatch],
        rays: &[Ray],
        t_max: impl Fn(&SceneHit) -> f64,
    ) -> (Work, Work, usize) {
        let (mut traversed, mut walked, mut hits) = (Work::default(), Work::default(), 0);
        for ray in rays {
            // Once unbounded, then bounded by a function of the hit found.
            let mut bound = f64::INFINITY;
            for _ in 0..2 {
                let (mut fast_work, mut slow_work) = (Work::default(), Work::default());
                let fast = tree.traverse(patches, ray, 1e-7, bound, &mut fast_work);
                let slow = reference(tree, patches, ray, 1e-7, bound, &mut slow_work);
                assert_eq!(bits(fast), bits(slow), "{ray:?} t_max {bound}");
                assert_eq!(
                    fast_work.internal_nodes, slow_work.internal_nodes,
                    "{ray:?} t_max {bound}"
                );
                assert!(
                    fast_work.inversions <= fast_work.patch_tests
                        && fast_work.patch_tests <= slow_work.patch_tests,
                    "{ray:?} t_max {bound}: {fast_work:?} vs {slow_work:?}"
                );
                let (walk, walk_work) = tree.intersect_counted(patches, ray, 1e-7, bound);
                assert_eq!(bits(walk), bits(slow), "walk: {ray:?} t_max {bound}");
                if walk_work.fallbacks == 0 {
                    let (mut walk_ids, mut traverse_ids) = (Ids(Vec::new()), Ids(Vec::new()));
                    tree.query(patches, ray, 1e-7, bound, &mut walk_ids);
                    tree.traverse(patches, ray, 1e-7, bound, &mut traverse_ids);
                    assert_eq!(walk_ids.0, traverse_ids.0, "walk: {ray:?} t_max {bound}");
                }
                if bound == f64::INFINITY {
                    traversed += fast_work;
                    walked += walk_work;
                    hits += usize::from(fast.is_some());
                }
                let Some(h) = fast else { break };
                bound = t_max(&h);
            }
        }
        (traversed, walked, hits)
    }

    /// The geometry of a scene built elsewhere in the workspace, as this
    /// build of the crate's own types (the scene's are the non-test
    /// build's). Materials play no part in intersection.
    fn rebuilt(patches: impl Iterator<Item = Patch>, bounds: Aabb) -> (Vec<SurfacePatch>, Octree) {
        let patches: Vec<SurfacePatch> = patches
            .map(|p| SurfacePatch::new(p, Material::matte(Rgb::gray(0.5))))
            .collect();
        let tree = Octree::build(&patches, bounds);
        (patches, tree)
    }

    pub(crate) fn camera_rays(view: ViewSpec, width: usize, height: usize) -> Vec<Ray> {
        let camera = Camera {
            eye: view.eye,
            target: view.target,
            up: view.up,
            vfov_deg: view.vfov_deg,
            width,
            height,
        };
        (0..height)
            .flat_map(|y| (0..width).map(move |x| camera.ray(x, y)))
            .collect()
    }

    /// Rays chosen to land on the comparisons the traversal must not get
    /// differently wrong: slabs that are NaN or infinite, entry parameters
    /// that tie, and hits that tie.
    pub(crate) fn adversarial_rays(tree: &Octree, patches: &[SurfacePatch], eye: Vec3) -> Vec<Ray> {
        let axes = [Vec3::X, -Vec3::X, Vec3::Y, -Vec3::Y, Vec3::Z, -Vec3::Z];
        let diagonals = [
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(-1.0, 1.0, -1.0),
            Vec3::new(1.0, -1.0, 0.0),
            Vec3::new(0.0, 1.0, -1.0),
        ];
        let mut rays = Vec::new();
        // Origins exactly on split planes (and where three of them cross),
        // along the axes so `inv_dir` is infinite and `0 * inf` turns up.
        for cell in &tree.cells {
            let c = cell.center;
            for origin in [
                c,
                Vec3::new(c.x, cell.min.y, cell.max.z),
                Vec3::new(cell.min.x, c.y, 0.5 * (c.z + cell.max.z)),
                Vec3::new(0.5 * (cell.min.x + c.x), 0.5 * (c.y + cell.max.y), c.z),
            ] {
                rays.extend(axes.map(|d| Ray::new(origin, d)));
                rays.extend(diagonals.map(|d| Ray::new(origin, d.normalized())));
            }
        }
        for sp in patches {
            let p = &sp.patch;
            let corners = [p.p00, p.p10, p.p11, p.p01];
            for i in 0..4 {
                let (a, b) = (corners[i], corners[(i + 1) % 4]);
                // At corners and edge midpoints, where neighbouring
                // patches (often coplanar) are hit at the same `t`.
                for target in [a, a.lerp(b, 0.5)] {
                    rays.push(Ray::new(eye, (target - eye).normalized()));
                }
                // Along the edge itself, in the plane of the patch, and
                // along the patch normal through a corner.
                let along = (b - a).normalized();
                rays.push(Ray::new(a - along, along));
                rays.push(Ray::new(a + sp.frame.w, -sp.frame.w));
            }
        }
        rays
    }

    /// Per unbounded photon-path query of one scene: the traversal's
    /// internal nodes and patch tests, and the walk's internal nodes (its
    /// steps); and how many path, camera and adversarial queries fell back.
    struct SceneWork {
        nodes: f64,
        tests: f64,
        steps: f64,
        path_fallbacks: u64,
        camera_fallbacks: u64,
        adversarial_fallback_share: f64,
    }

    /// Every kind of ray against one scene, through [`assert_identical`].
    fn assert_scene_identical(
        name: &str,
        scene_patches: impl Iterator<Item = Patch>,
        bounds: Aabb,
        path: &[Ray],
        view: ViewSpec,
        expected: OctreeStats,
    ) -> SceneWork {
        let (patches, tree) = rebuilt(scene_patches, bounds);
        assert_eq!(tree.stats(), expected, "{name}");
        // The second query of each ray stops exactly at the first hit's
        // `t`, or an ulp beyond it.
        let (work, walk, hits) = assert_identical(&tree, &patches, path, |h| h.t);
        assert!(hits * 20 > path.len(), "{name}: only {hits} rays hit");
        let camera = camera_rays(view, 48, 36);
        let (_, camera_walk, _) = assert_identical(&tree, &patches, &camera, |h| {
            f64::from_bits(h.t.to_bits() + 1)
        });
        let adversarial = adversarial_rays(&tree, &patches, view.eye);
        let (_, adversarial_walk, _) = assert_identical(&tree, &patches, &adversarial, |h| h.t);
        assert_identical(&tree, &patches, &adversarial, |h| {
            f64::from_bits(h.t.to_bits() + 1)
        });
        let per_ray = |n: u64| n as f64 / path.len() as f64;
        SceneWork {
            nodes: per_ray(work.internal_nodes),
            tests: per_ray(work.patch_tests),
            steps: per_ray(walk.internal_nodes),
            path_fallbacks: walk.fallbacks,
            camera_fallbacks: camera_walk.fallbacks,
            adversarial_fallback_share: adversarial_walk.fallbacks as f64
                / adversarial.len() as f64,
        }
    }

    #[test]
    fn traversal_is_bit_identical_to_the_recursive_reference() {
        // Per scene: the tree's shape; internal nodes expanded and patches
        // tested per photon-path ray (seed 1, photons 0..4000) by the
        // traversal; and the walk's steps per ray, all rounded up. Shape
        // and nodes are what the recursive tree did on the commit before
        // the flat one; the patch tests are what the mailbox leaves of its
        // 13.72 / 15.78 / 28.95, and the walk makes the same ones. A later
        // change may lower the work, never raise it.
        let expected = [
            (
                OctreeStats {
                    nodes: 49,
                    leaves: 43,
                    max_depth: 2,
                    item_refs: 169,
                },
                (2.21, 9.27, 1.87),
            ),
            (
                OctreeStats {
                    nodes: 129,
                    leaves: 113,
                    max_depth: 4,
                    item_refs: 438,
                },
                (3.49, 12.36, 2.62),
            ),
            (
                OctreeStats {
                    nodes: 2281,
                    leaves: 1996,
                    max_depth: 5,
                    item_refs: 7802,
                },
                (7.28, 17.48, 3.93),
            ),
        ];
        for (kind, (stats, (max_nodes, max_tests, max_steps))) in
            TestScene::ALL.into_iter().zip(expected)
        {
            let scene = kind.build();
            let generator = PhotonGenerator::new(&scene);
            let (first, later) = path_rays(&scene, &generator, 1, 4000);
            let path = [first, later].concat();
            let work = assert_scene_identical(
                kind.name(),
                scene.patches().iter().map(|sp| sp.patch),
                scene.bounds(),
                &path,
                kind.view(),
                stats,
            );
            let name = kind.name();
            assert!(
                work.nodes <= max_nodes && work.tests <= max_tests && work.steps <= max_steps,
                "{name}: {:.3} internal nodes, {:.3} patch tests, {:.3} walk steps per ray",
                work.nodes,
                work.tests,
                work.steps,
            );
            // No ray a solve or a view casts ties, while the adversarial
            // rays keep the tie path exercised.
            assert_eq!(
                (work.path_fallbacks, work.camera_fallbacks),
                (0, 0),
                "{name}: path and camera fallbacks"
            );
            assert!(
                work.adversarial_fallback_share >= 0.10,
                "{name}: {:.3} of adversarial rays fell back",
                work.adversarial_fallback_share
            );
        }
    }

    #[test]
    fn single_leaf_scene_is_bit_identical_too() {
        // The fourth scene of the workspace never splits: the root is the
        // only node and every query is a linear scan.
        let scene = sun_room(1.0, 0.005);
        let generator = PhotonGenerator::new(&scene);
        let (first, later) = path_rays(&scene, &generator, 1, 1000);
        let bounds = scene.bounds();
        assert_scene_identical(
            "sun room",
            scene.patches().iter().map(|sp| sp.patch),
            bounds,
            &[first, later].concat(),
            ViewSpec {
                eye: bounds.max + Vec3::splat(1.0),
                target: bounds.center(),
                up: Vec3::Y,
                vfov_deg: 50.0,
            },
            OctreeStats {
                nodes: 1,
                leaves: 1,
                max_depth: 0,
                item_refs: 4,
            },
        );
    }

    #[test]
    fn jittered_tiles_are_bit_identical_too() {
        // Tiles at random heights: no two coplanar, boxes straddling split
        // planes everywhere, rays that start outside the root box, and more
        // patches than the mailbox has slots.
        let patches = tile_scene(12, 42);
        let bounds = bounds_of(&patches);
        let mut rng = Lcg48::new(11);
        let mut unit = || rng.next_f64() * 2.0 - 1.0;
        let rays: Vec<Ray> = (0..2000)
            .map(|_| {
                let origin = Vec3::new(6.0 + 8.0 * unit(), 1.0 + 3.0 * unit(), 6.0 + 8.0 * unit());
                Ray::new(origin, Vec3::new(unit(), unit(), unit()).normalized())
            })
            .collect();
        let tree = Octree::build(&patches, bounds);
        // Some of those rays must meet two patches that share a slot.
        let sharing = rays.iter().filter(|ray| {
            let mut ids = Ids(Vec::new());
            tree.traverse(&patches, ray, 1e-7, f64::INFINITY, &mut ids);
            let ids = ids.0;
            (0..ids.len()).any(|i| {
                ids[..i]
                    .iter()
                    .any(|&id| id != ids[i] && id as usize % MAILBOX == ids[i] as usize % MAILBOX)
            })
        });
        assert!(sharing.count() >= 10);
        let stats = tree.stats();
        assert_scene_identical(
            "tiles",
            patches.iter().map(|sp| sp.patch),
            bounds,
            &rays,
            ViewSpec {
                eye: Vec3::new(6.0, 11.0, -4.0),
                target: Vec3::new(6.0, 1.0, 6.0),
                up: Vec3::Y,
                vfov_deg: 60.0,
            },
            stats,
        );
    }

    /// Quads through one point at random tilts, every box straddling the
    /// centre of the whole on each axis, so the build keeps a single leaf
    /// of `n` ids, several sweep chunks long. Patches 7 and 8, either side
    /// of the first chunk boundary, are one larger quad twice over, and so
    /// are patches 20 and 21, inside the third chunk.
    fn one_long_leaf(n: usize) -> Vec<SurfacePatch> {
        let mut rng = Lcg48::new(5);
        let mut unit = || rng.next_f64() * 2.0 - 1.0;
        let mut quads: Vec<Patch> = (0..n)
            .map(|i| {
                let normal = loop {
                    let d = Vec3::new(unit(), unit(), unit());
                    let len = d.length();
                    if len > 0.1 && len < 1.0 && [d.x, d.y, d.z].iter().all(|c| c.abs() < 0.9 * len)
                    {
                        break d / len;
                    }
                };
                let f = photon_math::Onb::from_w(normal);
                let half = if i == 7 || i == 20 { 2.5 } else { 1.0 };
                let (u, v) = (f.u * half, f.v * half);
                let center = Vec3::new(unit(), unit(), unit()) * 0.05;
                Patch::from_origin_edges(center - u - v, u * 2.0, v * 2.0)
            })
            .collect();
        quads[8] = quads[7];
        quads[21] = quads[20];
        quads
            .into_iter()
            .map(|p| SurfacePatch::new(p, Material::matte(Rgb::gray(0.5))))
            .collect()
    }

    #[test]
    fn a_leaf_longer_than_the_sweep_buffer_is_bit_identical() {
        use crate::scene::RAY_EPS;
        let n = 5 * LEAF_CAPACITY + 3;
        let patches = one_long_leaf(n);
        let scene = crate::Scene::new(patches.clone(), Vec::new());
        let (tree, patches) = (scene.octree(), scene.patches());
        let stats = OctreeStats {
            nodes: 1,
            leaves: 1,
            max_depth: 0,
            item_refs: n,
        };
        assert_eq!(tree.stats(), stats);

        // Random rays through the middle of the leaf, and rays along each
        // coincident pair's normal onto its rim, which no small quad reaches.
        let mut rng = Lcg48::new(9);
        let mut unit = || rng.next_f64() * 2.0 - 1.0;
        let mut rays: Vec<Ray> = (0..3000)
            .map(|_| {
                let origin = Vec3::new(unit(), unit(), unit()) * 4.0;
                let target = Vec3::new(unit(), unit(), unit());
                Ray::new(origin, (target - origin).normalized())
            })
            .collect();
        for first in [7, 20] {
            let (pair, w) = (&patches[first].patch, patches[first].frame.w);
            for i in 0..8 {
                for j in 0..8 {
                    let (s, t) = (0.02 + 0.12 * f64::from(i), 0.02 + 0.12 * f64::from(j));
                    if (0.15..0.85).contains(&s) && (0.15..0.85).contains(&t) {
                        continue;
                    }
                    let p = pair.point_at(s, t);
                    rays.push(Ray::new(p + w * 3.0, -w));
                    rays.push(Ray::new(p - w * 3.0, w));
                }
            }
        }

        let bounds = scene.bounds();
        let work = assert_scene_identical(
            "one long leaf",
            patches.iter().map(|sp| sp.patch),
            bounds,
            &rays,
            ViewSpec {
                eye: Vec3::new(3.0, 2.0, -4.0),
                target: Vec3::ZERO,
                up: Vec3::Y,
                vfov_deg: 60.0,
            },
            stats,
        );
        assert_eq!(work.path_fallbacks, 0);

        let every_id: Vec<u32> = (0..n as u32).collect();
        let (mut pair_wins, mut hits) = ([0; 2], 0);
        for ray in &rays {
            let (hit, work) = tree.intersect_counted(patches, ray, RAY_EPS, f64::INFINITY);
            assert_eq!(
                bits(hit),
                bits(scene.intersect_brute_force(ray, f64::INFINITY)),
                "{ray:?}"
            );
            let mut ids = Ids(Vec::new());
            tree.query(patches, ray, RAY_EPS, f64::INFINITY, &mut ids);
            if bounds.hit(ray, RAY_EPS, f64::INFINITY).is_some() {
                assert_eq!(ids.0, every_id, "{ray:?}");
                assert_eq!(work.patch_tests, n as u64, "{ray:?}");
            }
            let Some(hit) = hit else { continue };
            hits += 1;
            // A tie goes to the earlier id, across a chunk boundary or not.
            assert!(hit.patch_id != 8 && hit.patch_id != 21, "{ray:?}");
            pair_wins[0] += usize::from(hit.patch_id == 7);
            pair_wins[1] += usize::from(hit.patch_id == 20);
        }
        assert!(hits * 2 > rays.len(), "{hits} of {} rays hit", rays.len());
        assert!(
            pair_wins.iter().all(|&w| w >= 30),
            "the pairs won {pair_wins:?}"
        );
    }

    /// Records the id of every patch a traversal tests.
    struct Ids(Vec<u32>);

    impl Probe for Ids {
        fn patch_test(&mut self, patch_id: u32) {
            self.0.push(patch_id);
        }
    }

    /// A jittered grid of small floor tiles, good octree fodder.
    fn tile_scene(n: usize, seed: u64) -> Vec<SurfacePatch> {
        let mut rng = Lcg48::new(seed);
        let mut patches = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let x = i as f64 + 0.1 * rng.next_f64();
                let z = j as f64 + 0.1 * rng.next_f64();
                let y = rng.next_f64() * 2.0;
                let p = Patch::from_origin_edges(
                    Vec3::new(x, y, z),
                    Vec3::new(0.8, 0.0, 0.0),
                    Vec3::new(0.0, 0.0, 0.8),
                );
                patches.push(SurfacePatch::new(p, Material::matte(Rgb::gray(0.5))));
            }
        }
        patches
    }

    fn bounds_of(patches: &[SurfacePatch]) -> Aabb {
        patches
            .iter()
            .fold(Aabb::EMPTY, |b, p| b.union(&p.patch.aabb()))
            .padded(1e-6)
    }

    fn brute(patches: &[SurfacePatch], ray: &Ray) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        let mut limit = f64::INFINITY;
        for (i, sp) in patches.iter().enumerate() {
            if let Some(h) = sp.patch.intersect(ray, 1e-7, limit) {
                limit = h.t;
                best = Some((i as u32, h.t));
            }
        }
        best
    }

    #[test]
    fn octree_matches_brute_force_on_random_rays() {
        let patches = tile_scene(8, 42);
        let tree = Octree::build(&patches, bounds_of(&patches));
        let mut rng = Lcg48::new(7);
        let mut hits = 0;
        for _ in 0..500 {
            let origin = Vec3::new(
                rng.next_f64() * 8.0,
                rng.next_f64() * 4.0 - 1.0,
                rng.next_f64() * 8.0,
            );
            let dir = Vec3::new(
                rng.next_f64() * 2.0 - 1.0,
                rng.next_f64() * 2.0 - 1.0,
                rng.next_f64() * 2.0 - 1.0,
            )
            .normalized();
            let ray = Ray::new(origin, dir);
            let fast = tree.intersect(&patches, &ray, 1e-7, f64::INFINITY);
            let slow = brute(&patches, &ray);
            match (fast, slow) {
                (None, None) => {}
                (Some(f), Some((pi, t))) => {
                    hits += 1;
                    assert_eq!(f.patch_id, pi, "different patch");
                    assert!((f.t - t).abs() < 1e-9, "different t");
                }
                (f, s) => panic!("octree {f:?} vs brute {s:?}"),
            }
        }
        assert!(hits > 50, "test rays barely hit anything ({hits})");
    }

    #[test]
    fn tree_actually_subdivides() {
        let patches = tile_scene(8, 1);
        let tree = Octree::build(&patches, bounds_of(&patches));
        let s = tree.stats();
        assert!(s.nodes > 8, "{s:?}");
        assert!(s.max_depth >= 1);
        assert!(s.leaves > 1);
        assert!(s.item_refs >= patches.len());
    }

    #[test]
    fn small_scene_stays_single_leaf() {
        let patches = tile_scene(2, 2); // 4 patches <= capacity
        let tree = Octree::build(&patches, bounds_of(&patches));
        assert_eq!(tree.stats().nodes, 1);
    }

    #[test]
    fn ray_outside_bounds_misses_cheaply() {
        let patches = tile_scene(4, 3);
        let tree = Octree::build(&patches, bounds_of(&patches));
        let ray = Ray::new(Vec3::new(100.0, 100.0, 100.0), Vec3::X);
        assert!(tree
            .intersect(&patches, &ray, 1e-7, f64::INFINITY)
            .is_none());
    }

    #[test]
    fn respects_t_max() {
        let patches = tile_scene(4, 4);
        let tree = Octree::build(&patches, bounds_of(&patches));
        // A ray straight down onto a tile from high above.
        let ray = Ray::new(Vec3::new(0.5, 50.0, 0.5), Vec3::new(0.0, -1.0, 0.0));
        let hit = tree.intersect(&patches, &ray, 1e-7, f64::INFINITY);
        assert!(hit.is_some());
        let t = hit.unwrap().t;
        assert!(tree.intersect(&patches, &ray, 1e-7, t - 1.0).is_none());
    }
}
