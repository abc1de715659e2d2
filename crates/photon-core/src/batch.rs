//! Batched photon transport: the **trace → partition → apply** kernel.
//!
//! Tallying each interaction straight into a shared forest spends the
//! parallel budget on coordination: every tally takes a per-tree lock, and
//! bin boundaries come to depend on how the threads interleaved. This module
//! makes coordination *per batch* instead of *per interaction*, in three
//! phases:
//!
//! 1. **Trace** — each worker runs the one photon loop
//!    ([`crate::trace::trace_span`]) over its leapfrogged share of the batch
//!    with a [`RecordSink`], completely lock-free, appending
//!    [`TallyRecord`]s (`patch_id`, `photon`, `bounce`, bin point, energy)
//!    to a reusable scratch buffer instead of tallying.
//! 2. **Partition** ([`PartitionScratch::partition`]) — records are grouped
//!    by `patch_id` with a counting sort that scatters in global
//!    `(photon, bounce)` order, so each patch's run is *exactly* the
//!    subsequence of the serial tally stream that touches that patch.
//! 3. **Apply** — each patch's run is folded into its [`photon_hist::BinTree`]
//!    as one uninterrupted sequence ([`crate::BinForest::tally_run`]).
//!    Per-tree tally order equals serial order *by construction*, so threaded
//!    answers are bit-identical to serial at any thread count — without a
//!    global replay lock — and distinct patches apply in parallel.
//!
//! All buffers are caller-owned and reused across batches: a steady-state
//! solve through this kernel performs no per-batch heap allocation.

use crate::generate::PhotonGenerator;
use crate::sim::SimStats;
use crate::trace::{trace_span, Span, TallySink};
use photon_geom::Scene;
use photon_hist::BinPoint;
use photon_math::Rgb;

/// One buffered photon interaction, tagged with its position in the global
/// photon stream so partitioned runs can reproduce the serial tally order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TallyRecord {
    /// Global photon index in the stream (see [`crate::photon_stream`]).
    pub photon: u64,
    /// Interaction index within the photon: 0 is the emission tally, `k > 0`
    /// is the `k`-th reflection.
    pub bounce: u32,
    /// Patch whose bin tree receives the tally.
    pub patch_id: u32,
    /// 4-D bin coordinates of the interaction.
    pub point: BinPoint,
    /// Outgoing energy tallied.
    pub energy: Rgb,
}

/// A [`TallySink`] that appends [`TallyRecord`]s instead of tallying,
/// tracking the interaction index within the current photon.
pub struct RecordSink<'a> {
    out: &'a mut Vec<TallyRecord>,
    photon: u64,
    bounce: u32,
}

impl<'a> RecordSink<'a> {
    /// A sink appending to `out` (which is *not* cleared; callers clear it
    /// once per batch to reuse its capacity).
    pub fn new(out: &'a mut Vec<TallyRecord>) -> Self {
        RecordSink {
            out,
            photon: 0,
            bounce: 0,
        }
    }
}

impl TallySink for RecordSink<'_> {
    #[inline]
    fn begin_photon(&mut self, index: u64) {
        self.photon = index;
        self.bounce = 0;
    }

    #[inline]
    fn tally(&mut self, patch_id: u32, point: &BinPoint, energy: Rgb) {
        self.out.push(TallyRecord {
            photon: self.photon,
            bounce: self.bounce,
            patch_id,
            point: *point,
            energy,
        });
        self.bounce += 1;
    }
}

/// [`trace_span`] into a [`RecordSink`] over `out`, folding the counters
/// into `stats`: worker `offset`'s share of the batch
/// `[start, start + count)`, with `out` left sorted by `(photon, bounce)`.
#[allow(clippy::too_many_arguments)] // a worker's complete trace contract
pub fn trace_strided(
    scene: &Scene,
    generator: &PhotonGenerator,
    seed: u64,
    start: u64,
    count: u64,
    offset: u64,
    stride: u64,
    out: &mut Vec<TallyRecord>,
    stats: &mut SimStats,
) {
    let span = Span {
        start,
        count,
        offset,
        stride,
    };
    stats.merge(&trace_span(
        scene,
        generator,
        seed,
        span,
        &mut RecordSink::new(out),
    ));
}

/// A contiguous span of one patch's records inside
/// [`PartitionScratch::sorted`], in serial `(photon, bounce)` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatchRun {
    /// Patch whose tree the run applies to.
    pub patch_id: u32,
    /// Offset of the first record in the sorted buffer.
    pub start: usize,
    /// Number of records in the run.
    pub len: usize,
}

/// Reusable buffers for the partition phase. Construct once per engine and
/// feed every batch through it; at steady state [`PartitionScratch::partition`]
/// allocates nothing (buffers only ever grow to the largest batch seen).
#[derive(Debug)]
pub struct PartitionScratch {
    /// Per-patch counters, reused as scatter write cursors.
    counts: Vec<usize>,
    /// Per-worker read cursors into the trace lists.
    cursors: Vec<usize>,
    /// All records of the batch, grouped by patch, each group in serial
    /// `(photon, bounce)` order.
    pub sorted: Vec<TallyRecord>,
    /// One entry per patch that received records this batch, ascending by
    /// `patch_id`.
    pub runs: Vec<PatchRun>,
}

impl PartitionScratch {
    /// Scratch for a scene of `patch_count` patches.
    pub fn new(patch_count: usize) -> Self {
        PartitionScratch {
            counts: vec![0; patch_count],
            cursors: Vec::new(),
            sorted: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Groups the workers' trace lists by patch into [`PartitionScratch::sorted`] /
    /// [`PartitionScratch::runs`].
    ///
    /// `lists[t]` must hold the records of photons `start + t`,
    /// `start + t + T`, … (with `T = lists.len()`) of the batch
    /// `[start, start + count)`, sorted by `(photon, bounce)` — exactly what
    /// a [`RecordSink`] collects for worker `t`.
    ///
    /// The scatter walks photons in global order, so within each patch run
    /// records sit in ascending `(photon, bounce)` order: the serial tally
    /// subsequence for that patch. This is a counting sort — O(records +
    /// patches), no comparisons.
    pub fn partition(&mut self, lists: &[&[TallyRecord]], start: u64, count: u64) {
        let total: usize = lists.iter().map(|l| l.len()).sum();
        self.counts.fill(0);
        for list in lists {
            for rec in *list {
                self.counts[rec.patch_id as usize] += 1;
            }
        }
        // Prefix-sum the counts into run offsets; each count cell becomes
        // its patch's scatter cursor.
        self.runs.clear();
        let mut offset = 0usize;
        for (patch_id, c) in self.counts.iter_mut().enumerate() {
            if *c > 0 {
                self.runs.push(PatchRun {
                    patch_id: patch_id as u32,
                    start: offset,
                    len: *c,
                });
                let next = offset + *c;
                *c = offset;
                offset = next;
            }
        }
        // Scatter in global (photon, bounce) order. The dummy fill is
        // overwritten entirely; `resize` (not `clear` + push) keeps this a
        // plain memset-and-scatter with no reallocation at steady state.
        self.sorted.resize(
            total,
            TallyRecord {
                photon: 0,
                bounce: 0,
                patch_id: 0,
                point: BinPoint::new(0.0, 0.0, 0.0, 0.0),
                energy: Rgb::BLACK,
            },
        );
        self.cursors.clear();
        self.cursors.resize(lists.len(), 0);
        let stride = lists.len() as u64;
        for j in start..start + count {
            let t = ((j - start) % stride) as usize;
            let list = lists[t];
            let cur = &mut self.cursors[t];
            while *cur < list.len() && list[*cur].photon == j {
                let rec = list[*cur];
                let slot = &mut self.counts[rec.patch_id as usize];
                self.sorted[*slot] = rec;
                *slot += 1;
                *cur += 1;
            }
        }
        debug_assert!(
            self.cursors.iter().zip(lists).all(|(c, l)| *c == l.len()),
            "partition consumed every record"
        );
    }

    /// The records of `run`, in serial order.
    #[inline]
    pub fn run_records(&self, run: &PatchRun) -> &[TallyRecord] {
        &self.sorted[run.start..run.start + run.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::BinForest;
    use crate::sim::{SimConfig, Simulator};
    use photon_geom::{Luminaire, Material, SurfacePatch};
    use photon_math::{Patch, Vec3};
    use photon_rng::{Lcg48, PhotonRng};

    fn tiny_box() -> Scene {
        let g = Rgb::gray(0.6);
        let mk = |o: Vec3, e1: Vec3, e2: Vec3, m: Material| {
            SurfacePatch::new(Patch::from_origin_edges(o, e1, e2), m)
        };
        let patches = vec![
            mk(
                Vec3::ZERO,
                Vec3::X * 2.0,
                Vec3::new(0.0, 0.0, 2.0),
                Material::matte(g),
            ),
            mk(
                Vec3::new(0.0, 2.0, 0.0),
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::X * 2.0,
                Material::matte(g),
            ),
            mk(
                Vec3::ZERO,
                Vec3::new(0.0, 2.0, 0.0),
                Vec3::X * 2.0,
                Material::matte(g),
            ),
            mk(
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::X * 2.0,
                Vec3::new(0.0, 2.0, 0.0),
                Material::matte(g),
            ),
            mk(
                Vec3::ZERO,
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::new(0.0, 2.0, 0.0),
                Material::matte(g),
            ),
            mk(
                Vec3::new(2.0, 0.0, 0.0),
                Vec3::new(0.0, 2.0, 0.0),
                Vec3::new(0.0, 0.0, 2.0),
                Material::matte(g),
            ),
            mk(
                Vec3::new(0.3, 1.99, 0.3),
                Vec3::new(0.5, 0.0, 0.0),
                Vec3::new(0.0, 0.0, 0.5),
                Material::emitter(Rgb::WHITE),
            ),
        ];
        Scene::new(
            patches,
            vec![Luminaire {
                patch_id: 6,
                power: Rgb::gray(100.0),
                collimation: 1.0,
            }],
        )
    }

    /// Serial reference: trace the batch inline and collect the tally stream.
    fn serial_records(scene: &Scene, seed: u64, start: u64, count: u64) -> Vec<TallyRecord> {
        let generator = PhotonGenerator::new(scene);
        let mut out = Vec::new();
        let mut stats = SimStats::default();
        trace_strided(
            scene, &generator, seed, start, count, 0, 1, &mut out, &mut stats,
        );
        out
    }

    #[test]
    fn strided_traces_cover_the_batch_exactly() {
        let scene = tiny_box();
        let generator = PhotonGenerator::new(&scene);
        let serial = serial_records(&scene, 7, 100, 64);
        for threads in [1usize, 2, 3, 8] {
            let mut merged = Vec::new();
            let mut stats = SimStats::default();
            for t in 0..threads {
                let mut out = Vec::new();
                trace_strided(
                    &scene,
                    &generator,
                    7,
                    100,
                    64,
                    t as u64,
                    threads as u64,
                    &mut out,
                    &mut stats,
                );
                // Each worker's list is sorted by (photon, bounce).
                for w in out.windows(2) {
                    assert!((w[0].photon, w[0].bounce) < (w[1].photon, w[1].bounce));
                }
                merged.extend(out);
            }
            assert_eq!(stats.emitted, 64);
            merged.sort_by_key(|r| (r.photon, r.bounce));
            assert_eq!(merged, serial, "threads={threads}");
        }
    }

    #[test]
    fn partition_reproduces_serial_per_patch_order() {
        let scene = tiny_box();
        let generator = PhotonGenerator::new(&scene);
        let (start, count) = (5u64, 200u64);
        let serial = serial_records(&scene, 11, start, count);
        for threads in [1usize, 2, 5] {
            let mut lists = Vec::new();
            for t in 0..threads {
                let mut out = Vec::new();
                let mut stats = SimStats::default();
                trace_strided(
                    &scene,
                    &generator,
                    11,
                    start,
                    count,
                    t as u64,
                    threads as u64,
                    &mut out,
                    &mut stats,
                );
                lists.push(out);
            }
            let refs: Vec<&[TallyRecord]> = lists.iter().map(|l| l.as_slice()).collect();
            let mut scratch = PartitionScratch::new(scene.polygon_count());
            scratch.partition(&refs, start, count);
            assert_eq!(scratch.sorted.len(), serial.len());
            // Runs are disjoint, ascending, and cover the sorted buffer.
            let mut covered = 0usize;
            let mut last_patch = None;
            for run in &scratch.runs {
                assert_eq!(run.start, covered);
                assert!(last_patch < Some(run.patch_id));
                last_patch = Some(run.patch_id);
                covered += run.len;
                let records = scratch.run_records(run);
                // Every record belongs to the run's patch, in serial order.
                let expect: Vec<&TallyRecord> = serial
                    .iter()
                    .filter(|r| r.patch_id == run.patch_id)
                    .collect();
                assert_eq!(records.len(), expect.len());
                for (got, want) in records.iter().zip(expect) {
                    assert_eq!(got, want, "threads={threads} patch={}", run.patch_id);
                }
            }
            assert_eq!(covered, serial.len());
        }
    }

    #[test]
    fn applying_runs_matches_the_inline_serial_forest() {
        let scene = tiny_box();
        let generator = PhotonGenerator::new(&scene);
        let count = 3000u64;
        // Inline serial reference.
        let mut sim = Simulator::new(
            scene.clone(),
            SimConfig {
                seed: 3,
                ..Default::default()
            },
        );
        sim.run_photons(count);
        // Batched: trace on 4 strides, partition, apply run-by-run.
        let threads = 4usize;
        let mut lists = Vec::new();
        for t in 0..threads {
            let mut out = Vec::new();
            let mut stats = SimStats::default();
            trace_strided(
                &scene,
                &generator,
                3,
                0,
                count,
                t as u64,
                threads as u64,
                &mut out,
                &mut stats,
            );
            lists.push(out);
        }
        let refs: Vec<&[TallyRecord]> = lists.iter().map(|l| l.as_slice()).collect();
        let mut scratch = PartitionScratch::new(scene.polygon_count());
        scratch.partition(&refs, 0, count);
        let mut forest = BinForest::new(scene.polygon_count(), Default::default());
        for run in &scratch.runs {
            forest.tally_run(run.patch_id, scratch.run_records(run));
        }
        let export =
            |f: &BinForest| -> Vec<_> { f.iter().map(|(_, t)| t.export_nodes()).collect() };
        assert_eq!(export(&forest), export(sim.forest()));
    }

    #[test]
    fn partition_handles_empty_and_tiny_batches() {
        let mut scratch = PartitionScratch::new(4);
        scratch.partition(&[&[], &[]], 0, 0);
        assert!(scratch.runs.is_empty());
        assert!(scratch.sorted.is_empty());
        // A single record lands in a single run.
        let rec = TallyRecord {
            photon: 9,
            bounce: 0,
            patch_id: 2,
            point: BinPoint::new(0.5, 0.5, 1.0, 0.5),
            energy: Rgb::WHITE,
        };
        scratch.partition(&[&[rec], &[]], 9, 1);
        assert_eq!(
            scratch.runs,
            vec![PatchRun {
                patch_id: 2,
                start: 0,
                len: 1
            }]
        );
        assert_eq!(scratch.sorted, vec![rec]);
    }

    #[test]
    fn partition_is_reusable_without_growing() {
        // Feeding the same batch shape twice must not grow the buffers.
        let mut rng = Lcg48::new(99);
        let mk_lists = |rng: &mut Lcg48| -> Vec<Vec<TallyRecord>> {
            let threads = 2u64;
            (0..threads)
                .map(|t| {
                    let mut v = Vec::new();
                    for j in (t..40).step_by(threads as usize) {
                        for b in 0..2u32 {
                            v.push(TallyRecord {
                                photon: j,
                                bounce: b,
                                patch_id: (rng.next_f64() * 4.0) as u32,
                                point: BinPoint::new(0.1, 0.2, 0.3, 0.4),
                                energy: Rgb::WHITE,
                            });
                        }
                    }
                    v
                })
                .collect()
        };
        let mut scratch = PartitionScratch::new(4);
        let lists = mk_lists(&mut rng);
        let refs: Vec<&[TallyRecord]> = lists.iter().map(|l| l.as_slice()).collect();
        scratch.partition(&refs, 0, 40);
        let cap_sorted = scratch.sorted.capacity();
        let cap_runs = scratch.runs.capacity();
        let lists = mk_lists(&mut rng);
        let refs: Vec<&[TallyRecord]> = lists.iter().map(|l| l.as_slice()).collect();
        scratch.partition(&refs, 0, 40);
        assert_eq!(scratch.sorted.capacity(), cap_sorted);
        assert_eq!(scratch.runs.capacity(), cap_runs);
    }
}
