//! Steady-state allocation regression test for the batched engine.
//!
//! The trace→partition→apply pipeline reuses all of its buffers: per-chunk
//! record scratch, the partition's counts/sorted/runs vectors, and the
//! trees themselves once splitting has converged. After warm-up, what the
//! pipeline allocates per `step()` is what its two `parallel_map` phases
//! cost: one thread spawn per extra worker per phase (about 300 bytes
//! each), the per-job slots each map carries its items and results in,
//! the 4T-entry vector the trace phase's counters come back in, and the
//! list of at most 8T + 1 apply blocks — about 2 300 bytes a step at two
//! workers, 590 at one. Measured on Linux x86-64, the whole window of two
//! steps allocates 6 332 bytes at two workers and 2 908 at one on
//! `cornell`, and 7 289 at two workers on `lab` (4 844, 2 668 and 5 801
//! when the trace map had one job per worker, not four); the rest is the
//! bin trees' own small allocations (a few splits still land in the
//! window).
//! So the test asserts a small constant byte bound per measured window —
//! not literal zero — independent of batch size and patch count. The old
//! per-tally path allocated fresh batch bookkeeping every step, and one
//! apply job per run reads 250 745 bytes on `lab`; a regression back to
//! either blows the bound.
//!
//! Lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide; the tests take one lock so that
//! none measures another's allocations.

use photon_core::SolverEngine;
use photon_hist::SplitConfig;
use photon_par::{ParConfig, ParEngine};
use photon_scenes::TestScene;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates straight to `System`; the counter is side-effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

/// Generous ceiling for two steady-state steps: a few spawns and O(T)
/// vectors per phase, nowhere near the megabytes a fresh-buffers-per-step
/// pipeline would burn.
const BUDGET_BYTES: u64 = 64 * 1024;

fn measured_steps(engine: ParEngine, batch: u64) -> u64 {
    measured_after(engine, 6, batch, batch)
}

/// Bytes two steps of `batch` photons allocate after `warmups` steps of
/// `warmup` photons.
fn measured_after(mut engine: ParEngine, warmups: usize, warmup: u64, batch: u64) -> u64 {
    // Warm up: grow every scratch vector to its steady-state capacity and
    // drive the depth-capped trees close to their final shape.
    for _ in 0..warmups {
        engine.step(warmup);
    }
    let before = ALLOCATED.load(Ordering::Relaxed);
    engine.step(batch);
    engine.step(batch);
    ALLOCATED.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_step_reuses_all_scratch() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let batch = 4096u64;
    let engine = ParEngine::new(
        TestScene::CornellBox.build(),
        ParConfig {
            seed: 7,
            threads: 2,
            batch_size: batch,
            // Shallow trees so splitting (which legitimately allocates
            // nodes) finishes during warm-up and the measured window
            // isolates the pipeline's own behavior.
            split: SplitConfig {
                max_depth: 3,
                ..Default::default()
            },
        },
    );
    let delta = measured_steps(engine, batch);
    assert!(
        delta < BUDGET_BYTES,
        "two steady-state steps allocated {delta} bytes (budget {BUDGET_BYTES})"
    );
}

#[test]
fn single_worker_step_reuses_all_scratch() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // threads: 1 runs the same trace→partition→apply phases as any other
    // count, over one record buffer: same budget.
    let batch = 4096u64;
    let engine = ParEngine::new(
        TestScene::CornellBox.build(),
        ParConfig {
            seed: 7,
            threads: 1,
            batch_size: batch,
            split: SplitConfig {
                max_depth: 3,
                ..Default::default()
            },
        },
    );
    let delta = measured_steps(engine, batch);
    assert!(
        delta < BUDGET_BYTES,
        "two one-worker steady-state steps allocated {delta} bytes (budget {BUDGET_BYTES})"
    );
}

#[test]
fn deep_scene_step_allocates_no_job_per_patch() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // `lab`'s 1 931 patches put about a thousand runs in a step: a job
    // list that grew with the runs or the patches would blow the budget,
    // the block list does not. Its sparsely hit trees never quite stop
    // splitting under the 3σ rule, so the warm-up runs 655 360 photons,
    // after which the window adds 14 nodes to 3 179.
    let batch = 4096u64;
    let engine = ParEngine::new(
        TestScene::ComputerLab.build(),
        ParConfig {
            seed: 7,
            threads: 2,
            batch_size: batch,
            split: SplitConfig {
                max_depth: 3,
                ..Default::default()
            },
        },
    );
    let delta = measured_after(engine, 10, 65_536, batch);
    assert!(
        delta < BUDGET_BYTES,
        "two steady-state lab steps allocated {delta} bytes (budget {BUDGET_BYTES})"
    );
}
