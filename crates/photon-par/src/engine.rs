//! The resumable shared-memory solver engine.
//!
//! [`ParEngine`] is `photon_par`'s implementation of
//! [`photon_core::SolverEngine`]: a serial [`Simulator`] (scene, stream
//! cursor, counters and the [`photon_core::BinForest`]) plus the step
//! buffers of its workers, so the solve advances batch by batch across
//! [`step`](photon_core::SolverEngine::step) calls instead of running once
//! and exiting. It owns no thread and no lock: each parallel phase of a
//! step is one [`parallel_map`] over the workers, which borrows `T − 1`
//! threads beside the calling one for that phase alone and hands each job
//! `&mut` to the one item it writes, so nothing is parked between steps
//! and nothing is shared while a phase runs.
//!
//! **Photon assignment.** Step `k` covers global photon indices
//! `[cursor, cursor + batch)`, cut into ⌈batch / (4T × 2 048)⌉ contiguous
//! *rounds* of equal size, run one after another in photon order. Each
//! round is cut into `4T` contiguous chunks of ⌈round / 4T⌉ photons (those
//! past the end empty), at most 2 048 each, that the workers claim one at a
//! time, so a slow or pre-empted worker holds up one chunk, not a fixed
//! share. Each photon draws from its own block substream
//! ([`photon_core::photon_stream`]), so which worker traces a chunk
//! changes no draw, and the rounds' chunks' record lists, in order, are the
//! serial tally stream.
//!
//! **The step** is [`Simulator::step_with`] with the tally phases of
//! [`ParEngine::step`] inside it, reading generate → (trace → partition →
//! apply) per round → compact → report:
//!
//! 1. *Trace* — each chunk of the round runs the workspace's one photon
//!    loop ([`photon_core::trace_span`]) at stride 1, its item of the map
//!    its own record buffer (reused across rounds and steps), and returns
//!    its photon counters only.
//! 2. *Partition* — the calling thread counting-sorts the round's records
//!    by patch, reading the trace buffers in place and in chunk order into
//!    one reused buffer: each patch's run is exactly the serial tally
//!    subsequence for that tree.
//! 3. *Apply* — the forest's trees are cut into blocks of consecutive
//!    patches, each holding about a `4T`-th of the round's records, a run
//!    that long alone in its block, and the blocks go to the workers
//!    longest first, each claimed by whichever worker is free. A worker
//!    owns its block outright and folds its runs into its trees, with the
//!    leaf-descent cache skipping root re-descents inside a run.
//! 4. *Compact, report* — `step_with`'s own, once per step, the same lines
//!    a serial step runs. The report's trace time is the sum of the
//!    rounds' trace phases.
//!
//! Because the rounds apply in photon order, every tree sees exactly the
//! serial tally order and each run is applied by exactly one worker, the
//! resulting [`Answer`] is **bit-identical** to `Simulator`'s for the same
//! seed and photon count, at any thread count — one worker included, which
//! runs the same three phases — while blocks of distinct trees apply
//! concurrently. Between steps the engine *is* the serial simulator, so
//! snapshot, checkpoint and restore are `Simulator`'s. The buffers — trace
//! buffers, the sorted buffer, the run list and the per-patch counters —
//! are sized by one round whatever the batch (`tests/step_memory.rs`), and
//! steady-state steps reuse them. What a step still allocates is each
//! round's two phases' spawns and slots and the block list, at most 8T + 1
//! entries whatever the patch count (`tests/steady_state_alloc.rs`).

use crate::{parallel_map, ParConfig};
use photon_core::batch::{PartitionScratch, PatchRun, TallyRecord};
use photon_core::sim::SimStats;
use photon_core::{
    trace_span, Answer, BatchReport, EngineCheckpoint, RestoreError, SimConfig, Simulator,
    SolverEngine, Span, SpeedTrace,
};
use photon_geom::Scene;
use photon_hist::BinTree;
use std::time::Instant;

/// The resumable shared-memory engine: a [`Simulator`] stepped batch by
/// batch through the trace→partition→apply pipeline, each parallel phase
/// one [`parallel_map`] over the workers.
pub struct ParEngine {
    threads: usize,
    /// The solve state: scene, stream cursor, counters and forest.
    sim: Simulator,
    /// Per-chunk trace records, reused across rounds and steps; slot `c`
    /// holds the records of the round's `c`-th chunk and is trace job `c`'s
    /// item.
    traces: Vec<Vec<TallyRecord>>,
    /// The partition output the apply phase consumes.
    partition: PartitionScratch,
}

/// One apply job's item: a block of consecutive patch trees and the
/// partition runs that land in it.
struct Block<'a> {
    /// Patch id of `trees[0]`.
    first: usize,
    trees: &'a mut [BinTree],
    runs: &'a [PatchRun],
    /// Records in `runs`: the block's share of the apply work.
    records: usize,
}

/// Jobs per worker in both maps of a step: the trace phase's photon
/// chunks and the apply phase's tree blocks. One apply block per worker
/// balanced badly: on `cornell` at two workers the block holding the
/// light's 10 000-record run also took six more patches, 20 069 records
/// against 3 622 (2.5 ms against 0.45 ms), so apply ran only 1.15× faster
/// than on one thread. At four per worker, longest first, apply on a
/// 1 M-photon forest fell from 2.82–3.18 ms to 1.91–2.36 ms a 10 000-photon
/// step on `cornell` and from 1.72–1.97 ms to 1.47–1.63 ms on `lab`; one
/// job per run (≈1 000 jobs on `lab`) read 1.75–2.05 ms, its tiny jobs
/// costing more than they balance.
const JOBS_PER_WORKER: usize = 4;

/// Most photons in one trace chunk: a step runs in rounds of at most
/// `JOBS_PER_WORKER × T × MAX_CHUNK` photons, so its buffers hold one
/// round's records (128 B a tally: the record and its partitioned copy)
/// whatever the batch. A bound per chunk, not per round, keeps the work
/// between two joins growing with T, as each map's T − 1 spawns do. At
/// 2 048 and two workers, the ledger's 10 000-photon solve steps and
/// 5 000-photon cold slices stay one round, its 20 000-photon slices take
/// two, and its 80 000-photon set-up step five of 16 000: that step's RSS
/// growth fell from 23.3 to 5.3 MiB on `cornell` and from 19.8 to 4.7 MiB
/// on `lab`, and `cornell`'s `peak_rss_mb` from a median 92.8 to 67.6 MiB
/// (seeds 21–25, 2-core host), every timing row inside the host's noise.
const MAX_CHUNK: u64 = 2_048;

/// Cuts `trees` into blocks of consecutive patches holding about
/// `share` = ⌈records / 4`threads`⌉ of `runs`' records each, sorted by
/// record count, longest first, so the map's dynamic claiming hands the
/// largest block left to whichever worker is free.
///
/// A block closes at the run that brings it to `share`, and a run of at
/// least `share` records closes the block before it and sits alone, so a
/// block of several runs holds fewer than 2·`share` records. Each block
/// takes the trees up to the next block's first run, and the last every
/// tree left. Blocks of `share` or more records number at most 4T and the
/// others one per long run plus the last, so the list never exceeds
/// 8T + 1 entries, whatever the patch count. No runs, no blocks.
fn blocks<'a>(
    mut trees: &'a mut [BinTree],
    runs: &'a [PatchRun],
    threads: usize,
) -> Vec<Block<'a>> {
    let jobs = JOBS_PER_WORKER * threads;
    let share = runs.iter().map(|r| r.len).sum::<usize>().div_ceil(jobs);
    let mut blocks = Vec::with_capacity(2 * jobs + 1);
    let (mut first, mut from, mut records) = (0, 0, 0);
    for (i, run) in runs.iter().enumerate() {
        records += run.len;
        let next = runs.get(i + 1);
        if records >= share || next.is_none_or(|n| n.len >= share) {
            let end = next.map_or(first + trees.len(), |n| n.patch_id as usize);
            let (mine, rest) = std::mem::take(&mut trees).split_at_mut(end - first);
            blocks.push(Block {
                first,
                trees: mine,
                runs: &runs[from..=i],
                records,
            });
            (trees, first, from, records) = (rest, end, i + 1, 0);
        }
    }
    blocks.sort_unstable_by_key(|b| std::cmp::Reverse(b.records));
    blocks
}

/// The `i`-th of `span`'s contiguous pieces of `size` photons, cut short
/// at its end (empty past it).
fn piece(span: Span, size: u64, i: u64) -> Span {
    let from = (i * size).min(span.count);
    Span {
        start: span.start + from,
        count: size.min(span.count - from),
        ..span
    }
}

impl ParEngine {
    /// An engine over `scene` and an empty forest, tracing on
    /// `config.threads` workers.
    pub fn new(scene: Scene, config: ParConfig) -> Self {
        assert!(config.threads >= 1);
        ParEngine {
            threads: config.threads,
            traces: vec![Vec::new(); JOBS_PER_WORKER * config.threads],
            partition: PartitionScratch::new(scene.polygon_count()),
            sim: Simulator::new(
                scene,
                SimConfig {
                    seed: config.seed,
                    split: config.split,
                },
            ),
        }
    }

    /// Speed-vs-time trace, one sample per step.
    pub fn speed_trace(&self) -> &SpeedTrace {
        self.sim.speed_trace()
    }
}

impl SolverEngine for ParEngine {
    fn step(&mut self, batch: u64) -> BatchReport {
        let ParEngine {
            threads,
            sim,
            traces,
            partition,
        } = self;
        let threads = *threads;
        sim.step_with(batch, |scene, generator, seed, span, forest| {
            // Cut the step into equal contiguous rounds of at most
            // `MAX_CHUNK` photons a chunk; each round traces, partitions and
            // applies before the next, so the buffers hold one round.
            let rounds = span.count.div_ceil(traces.len() as u64 * MAX_CHUNK).max(1);
            let round = span.count.div_ceil(rounds);
            let mut traced = SimStats::default();
            let mut trace_seconds = 0.0;
            for r in 0..rounds {
                let span = piece(span, round, r);
                let trace_start = Instant::now();

                // Generate + trace: chunk `c` of the round into buffer `c`.
                let chunk = span.count.div_ceil(traces.len() as u64);
                for stats in parallel_map(threads, traces, |c, slot| {
                    // Trace into the buffer from this worker's own stack,
                    // not in its slot: a `Vec`'s length is stored at every
                    // push, the slots are 24 bytes apart, and whether two of
                    // them share a cache line is the allocator's whim — so
                    // pushing in place cost 0–15 % of the trace phase,
                    // differently every run.
                    let mut out = std::mem::take(slot);
                    out.clear(); // keep capacity: steady state reallocates nothing
                    let span = piece(span, chunk, c as u64);
                    let stats = trace_span(scene, generator, seed, span, &mut out);
                    *slot = out;
                    stats
                }) {
                    traced.merge(&stats);
                }
                trace_seconds += trace_start.elapsed().as_secs_f64();

                // Partition, on the calling thread.
                partition.partition(traces, span.start, span.count);

                // Apply: workers claim blocks of trees, longest first, and
                // fold each block's runs into its trees.
                let partition = &*partition;
                let mut blocks = blocks(forest.trees_mut(), &partition.runs, threads);
                parallel_map(threads, &mut blocks, |_, block| {
                    for run in block.runs {
                        let records = partition.run_records(run).iter();
                        block.trees[run.patch_id as usize - block.first]
                            .tally_run(records.map(|r| (&r.point, r.energy)));
                    }
                });
            }
            (traced, Some(trace_seconds))
        })
    }

    fn snapshot(&self) -> Answer {
        self.sim.snapshot()
    }

    fn stats(&self) -> SimStats {
        *self.sim.stats()
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        self.sim.checkpoint()
    }

    fn restore(&mut self, checkpoint: &EngineCheckpoint) -> Result<(), RestoreError> {
        self.sim.restore(checkpoint)
    }

    fn backend(&self) -> &'static str {
        "threaded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_scenes::{computer_lab, cornell_box};

    fn engine_on(scene: Scene, threads: usize) -> ParEngine {
        ParEngine::new(
            scene,
            ParConfig {
                seed: 2024,
                threads,
                ..Default::default()
            },
        )
    }

    fn engine(threads: usize) -> ParEngine {
        engine_on(cornell_box(), threads)
    }

    fn answer_bytes(a: &Answer) -> Vec<u8> {
        let mut buf = Vec::new();
        a.write_to(&mut buf).expect("encode answer");
        buf
    }

    #[test]
    fn engine_is_resumable_across_steps() {
        let mut e = engine(3);
        let r1 = e.step(1000);
        let r2 = e.step(1000);
        assert_eq!(r1.emitted_total, 1000);
        assert_eq!(r2.emitted_total, 2000);
        assert!(r2.leaf_bins >= r1.leaf_bins, "forest must not coarsen");
        assert_eq!(r2.footprint.leaf_bins, r2.leaf_bins);
        assert!(r2.footprint.node_bytes > 0 && r2.footprint.leaf_bytes > 0);
        assert_eq!(e.speed_trace().samples().len(), 2);
        assert!(e.stats().is_conserved());
        // The report splits the step into trace + apply phases.
        assert!(r2.trace_seconds >= 0.0 && r2.apply_seconds >= 0.0);
        assert!(r2.trace_seconds + r2.apply_seconds <= r2.batch_seconds + 1e-9);
    }

    #[test]
    fn batched_engine_matches_serial_bit_for_bit() {
        let mut serial = Simulator::new(
            cornell_box(),
            SimConfig {
                seed: 2024,
                ..Default::default()
            },
        );
        serial.run_photons(4000);
        let want = answer_bytes(&serial.answer_snapshot());
        for threads in [1, 2, 4, 5] {
            let mut e = engine(threads);
            e.step(1500);
            e.step(2500);
            assert_eq!(
                answer_bytes(&e.snapshot()),
                want,
                "threads={threads} diverged from serial"
            );
        }
    }

    #[test]
    fn batching_does_not_change_the_answer() {
        let mut a = engine(4);
        a.step(3000);
        let mut b = engine(4);
        for _ in 0..6 {
            b.step(500);
        }
        assert_eq!(answer_bytes(&a.snapshot()), answer_bytes(&b.snapshot()));
    }

    #[test]
    fn checkpoint_resume_matches_an_uninterrupted_run() {
        let mut straight = engine(3);
        straight.step(4000);
        let want = answer_bytes(&straight.snapshot());
        let mut first = engine(2);
        first.step(1700);
        let ck = first.checkpoint();
        assert_eq!(ck.cursor(), 1700);
        drop(first); // the original engine (and its workers) are gone
        let mut resumed = engine(5);
        resumed.restore(&ck).expect("compatible checkpoint");
        resumed.step(2300);
        assert_eq!(resumed.stats(), straight.stats());
        assert_eq!(answer_bytes(&resumed.snapshot()), want);
    }

    #[test]
    fn restore_rejects_a_mismatched_seed() {
        let mut a = engine(2);
        a.step(500);
        let ck = a.checkpoint();
        let mut other = ParEngine::new(
            cornell_box(),
            ParConfig {
                seed: 1,
                threads: 2,
                ..Default::default()
            },
        );
        assert!(other.restore(&ck).is_err());
        assert_eq!(other.stats().emitted, 0);
    }

    #[test]
    fn apply_blocks_cover_the_forest_longest_first() {
        for (name, scene) in [("cornell", cornell_box()), ("lab", computer_lab())] {
            for threads in [1, 2, 3, 8] {
                let at = format!("{name}, threads={threads}");
                let mut e = engine_on(scene.clone(), threads);
                e.step(3000);
                let runs = e.partition.runs.clone();
                let mut forest = e.sim.forest().clone();
                let patches = forest.len();
                let total: usize = runs.iter().map(|r| r.len).sum();
                let share = total.div_ceil(4 * threads);
                let blocks = blocks(forest.trees_mut(), &runs, threads);
                assert!(
                    blocks.len() <= 8 * threads + 1,
                    "{at}: {} blocks",
                    blocks.len()
                );
                for pair in blocks.windows(2) {
                    assert!(
                        pair[0].records >= pair[1].records,
                        "{at}: not longest first"
                    );
                }
                for b in &blocks {
                    assert_eq!(b.records, b.runs.iter().map(|r| r.len).sum::<usize>());
                    if b.runs.len() > 1 {
                        assert!(b.records < 2 * share, "{at}: block of {}", b.records);
                    }
                }
                for run in runs.iter().filter(|r| r.len >= share) {
                    assert!(
                        blocks.iter().any(|b| b.runs == std::slice::from_ref(run)),
                        "{at}: run of {} records on patch {} not alone",
                        run.len,
                        run.patch_id
                    );
                }
                let mut in_patch_order: Vec<&Block> = blocks.iter().collect();
                in_patch_order.sort_by_key(|b| b.first);
                let (mut next_patch, mut next_run) = (0, 0);
                for b in in_patch_order {
                    assert_eq!(b.first, next_patch, "{at}: blocks abut");
                    assert!(!b.trees.is_empty(), "{at}: empty block");
                    next_patch += b.trees.len();
                    for run in b.runs {
                        let patch = run.patch_id as usize;
                        assert!(
                            (b.first..next_patch).contains(&patch),
                            "{at}: run {patch} outside its block"
                        );
                    }
                    assert_eq!(b.runs, &runs[next_run..next_run + b.runs.len()], "{at}");
                    next_run += b.runs.len();
                }
                assert_eq!(next_patch, patches, "{at}: every tree once");
                assert_eq!(next_run, runs.len(), "{at}: every run once");
            }
        }
    }

    #[test]
    fn deep_scene_matches_serial_bit_for_bit() {
        let mut serial = Simulator::new(
            computer_lab(),
            SimConfig {
                seed: 2024,
                ..Default::default()
            },
        );
        serial.run_photons(3000);
        let want = answer_bytes(&serial.answer_snapshot());
        for threads in [2, 3] {
            let mut e = engine_on(computer_lab(), threads);
            e.step(1100);
            e.step(1900);
            assert_eq!(
                answer_bytes(&e.snapshot()),
                want,
                "threads={threads} diverged from serial on lab"
            );
        }
    }

    #[test]
    fn serial_and_threaded_keep_the_same_books() {
        // Uneven batches, 19 600 photons in all: `cornell`'s forest grows
        // 30 → 144 nodes and compacts after the second, third and fifth
        // step; `lab`'s 1 931 trees split too little to compact at all.
        // Then 0, 1 and 7 photons, which leave most of the 4T trace chunks
        // empty (at three workers, 12, 11 and 5 of them).
        let batches = [700, 1_900, 3_000, 5_000, 9_000, 0, 1, 7];
        for (name, scene) in [("cornell", cornell_box()), ("lab", computer_lab())] {
            for threads in [1, 2, 3] {
                let at = format!("{name}, threads={threads}");
                let mut serial = Simulator::new(
                    scene.clone(),
                    SimConfig {
                        seed: 2024,
                        ..Default::default()
                    },
                );
                let mut e = engine_on(scene.clone(), threads);
                for batch in batches {
                    let (want, got) = (serial.step(batch), e.step(batch));
                    assert_eq!(got.emitted_total, want.emitted_total, "{at}");
                    assert_eq!(got.stats, want.stats, "{at}");
                    assert_eq!(got.leaf_bins, want.leaf_bins, "{at}");
                    assert_eq!(got.footprint, want.footprint, "{at}");
                }
                assert_eq!(
                    e.checkpoint().to_bytes(),
                    serial.checkpoint().to_bytes(),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn snapshot_does_not_stop_the_engine() {
        let mut e = engine(2);
        e.step(800);
        let early = e.snapshot();
        e.step(800);
        let late = e.snapshot();
        assert_eq!(early.emitted(), 800);
        assert_eq!(late.emitted(), 1600);
        assert!(late.total_leaf_bins() >= early.total_leaf_bins());
    }
}
