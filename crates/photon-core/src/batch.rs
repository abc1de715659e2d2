//! Batched photon transport: the **trace → partition → apply** kernel.
//!
//! Tallying each interaction straight into a shared forest spends the
//! parallel budget on coordination: every tally takes a per-tree lock, and
//! bin boundaries come to depend on how the threads interleaved. This module
//! makes coordination *per batch* instead of *per interaction*, in three
//! phases:
//!
//! 1. **Trace** — each job runs the one photon loop
//!    ([`crate::trace::trace_span`]) over a contiguous chunk of the batch
//!    into its own `Vec<TallyRecord>`, completely lock-free, appending
//!    [`TallyRecord`]s (`patch_id`, bin point, energy) instead of tallying.
//!    The chunks are consecutive and in order, so their lists, concatenated,
//!    are the serial tally stream.
//! 2. **Partition** ([`PartitionScratch::partition`]) — records are grouped
//!    by `patch_id` with a stable counting sort that scatters the lists in
//!    order, so each patch's run is *exactly* the subsequence of the serial
//!    tally stream that touches that patch.
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

/// One buffered photon interaction. A trace list holds its records in
/// tally order, which is all the partition needs to keep serial order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TallyRecord {
    /// Patch whose bin tree receives the tally.
    pub patch_id: u32,
    /// 4-D bin coordinates of the interaction.
    pub point: BinPoint,
    /// Outgoing energy tallied.
    pub energy: Rgb,
}

/// A record list is a sink: tracing into it appends each interaction
/// instead of tallying it. Callers clear it once per batch to reuse its
/// capacity.
impl TallySink for Vec<TallyRecord> {
    #[inline]
    fn tally(&mut self, patch_id: u32, point: &BinPoint, energy: Rgb) {
        self.push(TallyRecord {
            patch_id,
            point: *point,
            energy,
        });
    }
}

/// [`trace_span`] into `out`, folding the counters into `stats`: worker
/// `offset`'s share of the batch `[start, start + count)`, its photons'
/// records appended in ascending photon order.
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
    stats.merge(&trace_span(scene, generator, seed, span, out));
}

/// A contiguous span of one patch's records inside a [`PartitionScratch`]'s
/// sorted buffer ([`PartitionScratch::run_records`]), in serial order.
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
/// feed every round through it; at steady state
/// [`PartitionScratch::partition`] allocates nothing (buffers only ever grow
/// to the largest round seen: `photon_par::ParEngine` cuts a step into
/// rounds of at most 4T × 2 048 photons).
#[derive(Debug)]
pub struct PartitionScratch {
    /// Per-patch counters, reused as scatter write cursors.
    counts: Vec<usize>,
    /// All records of the batch, grouped by patch, each group in serial
    /// order.
    sorted: Vec<TallyRecord>,
    /// One entry per patch that received records this batch, ascending by
    /// `patch_id`.
    pub runs: Vec<PatchRun>,
}

impl PartitionScratch {
    /// Scratch for a scene of `patch_count` patches.
    pub fn new(patch_count: usize) -> Self {
        PartitionScratch {
            counts: vec![0; patch_count],
            sorted: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Groups the trace lists by patch into the sorted buffer and
    /// [`PartitionScratch::runs`].
    ///
    /// `lists`, concatenated in order, must be the batch's serial tally
    /// stream — what [`trace_span`] collects over consecutive chunks of it.
    /// The sort is stable (count, prefix-sum, scatter each list in order),
    /// so each patch run is the serial tally subsequence for that patch.
    /// O(records + patches), no comparisons.
    ///
    /// `_start` and `_count` are not read. They stay only because the
    /// photon ledger's batch probe calls `partition(&[&records], 0, n)`.
    pub fn partition<L: AsRef<[TallyRecord]>>(&mut self, lists: &[L], _start: u64, _count: u64) {
        let records = || lists.iter().flat_map(|l| l.as_ref());
        self.counts.fill(0);
        for rec in records() {
            self.counts[rec.patch_id as usize] += 1;
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
        // Scatter in list order. The dummy fill is overwritten entirely;
        // `resize` (not `clear` + push) keeps this a plain memset-and-scatter
        // with no reallocation at steady state.
        self.sorted.resize(
            offset,
            TallyRecord {
                patch_id: 0,
                point: BinPoint::new(0.0, 0.0, 0.0, 0.0),
                energy: Rgb::BLACK,
            },
        );
        for rec in records() {
            let slot = &mut self.counts[rec.patch_id as usize];
            self.sorted[*slot] = *rec;
            *slot += 1;
        }
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

    /// The batch traced as `chunks` contiguous chunks of ⌈count / chunks⌉
    /// photons each, one list per chunk (those past the end empty).
    fn chunk_lists(
        scene: &Scene,
        seed: u64,
        start: u64,
        count: u64,
        chunks: u64,
    ) -> Vec<Vec<TallyRecord>> {
        let generator = PhotonGenerator::new(scene);
        let len = count.div_ceil(chunks);
        let mut stats = SimStats::default();
        let lists = (0..chunks)
            .map(|c| {
                let from = (c * len).min(count);
                let mut out = Vec::new();
                trace_strided(
                    scene,
                    &generator,
                    seed,
                    start + from,
                    len.min(count - from),
                    0,
                    1,
                    &mut out,
                    &mut stats,
                );
                out
            })
            .collect();
        assert_eq!(stats.emitted, count);
        lists
    }

    #[test]
    fn records_are_one_cache_line() {
        assert_eq!(std::mem::size_of::<TallyRecord>(), 64);
    }

    #[test]
    fn strided_traces_cover_the_batch_exactly() {
        let scene = tiny_box();
        let generator = PhotonGenerator::new(&scene);
        let serial = serial_records(&scene, 7, 100, 64);
        for threads in [1u64, 2, 3, 8] {
            let mut stats = SimStats::default();
            let mut records = 0;
            for t in 0..threads {
                let mut out = Vec::new();
                trace_strided(
                    &scene, &generator, 7, 100, 64, t, threads, &mut out, &mut stats,
                );
                // Each stripe is the serial traces of its photons, in order.
                let want: Vec<TallyRecord> = (100 + t..164)
                    .step_by(threads as usize)
                    .flat_map(|j| serial_records(&scene, 7, j, 1))
                    .collect();
                assert_eq!(out, want, "threads={threads} stripe={t}");
                records += out.len();
            }
            assert_eq!(stats.emitted, 64);
            assert_eq!(records, serial.len(), "threads={threads}");
        }
    }

    #[test]
    fn partition_reproduces_serial_per_patch_order() {
        let scene = tiny_box();
        let (start, count) = (5u64, 200u64);
        let serial = serial_records(&scene, 11, start, count);
        for chunks in [1u64, 2, 5, 12, 300] {
            let lists = chunk_lists(&scene, 11, start, count, chunks);
            // The chunks, in order, are the serial stream (past the 200th
            // of 300, each chunk is empty).
            assert_eq!(lists.concat(), serial, "chunks={chunks}");
            let mut scratch = PartitionScratch::new(scene.polygon_count());
            scratch.partition(&lists, start, count);
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
                    assert_eq!(got, want, "chunks={chunks} patch={}", run.patch_id);
                }
            }
            assert_eq!(covered, serial.len());
        }
    }

    #[test]
    fn applying_runs_matches_the_inline_serial_forest() {
        let scene = tiny_box();
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
        // Batched: trace in 4 chunks, partition, apply run-by-run.
        let lists = chunk_lists(&scene, 3, 0, count, 4);
        let mut scratch = PartitionScratch::new(scene.polygon_count());
        scratch.partition(&lists, 0, count);
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
        scratch.partition::<&[TallyRecord]>(&[&[], &[]], 0, 0);
        assert!(scratch.runs.is_empty());
        assert!(scratch.sorted.is_empty());
        // A single record lands in a single run.
        let rec = TallyRecord {
            patch_id: 2,
            point: BinPoint::new(0.5, 0.5, 1.0, 0.5),
            energy: Rgb::WHITE,
        };
        scratch.partition(&[&[rec][..], &[]], 9, 1);
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
            (0..2)
                .map(|_| {
                    (0..40)
                        .map(|_| TallyRecord {
                            patch_id: (rng.next_f64() * 4.0) as u32,
                            point: BinPoint::new(0.1, 0.2, 0.3, 0.4),
                            energy: Rgb::WHITE,
                        })
                        .collect()
                })
                .collect()
        };
        let mut scratch = PartitionScratch::new(4);
        scratch.partition(&mk_lists(&mut rng), 0, 40);
        let cap_sorted = scratch.sorted.capacity();
        let cap_runs = scratch.runs.capacity();
        scratch.partition(&mk_lists(&mut rng), 0, 40);
        assert_eq!(scratch.sorted.capacity(), cap_sorted);
        assert_eq!(scratch.runs.capacity(), cap_runs);
    }
}
