//! Steady-state allocation regression test for the batched engine.
//!
//! The trace→partition→apply pipeline reuses all of its buffers: per-worker
//! record scratch, the partition's counts/cursors/sorted/runs vectors, and
//! the trees themselves once splitting has converged. After warm-up, a
//! `step()` should allocate nothing beyond the channel message headers the
//! worker pool sends per round (std's mpsc boxes each message), so the test
//! asserts a small constant byte bound per measured window — not literal
//! zero — independent of batch size. The old per-tally path allocated fresh
//! batch bookkeeping every step; a regression back to that blows the bound
//! by orders of magnitude.
//!
//! Lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide.

use photon_core::SolverEngine;
use photon_hist::SplitConfig;
use photon_par::{ParConfig, ParEngine};
use photon_scenes::TestScene;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Generous ceiling for two steady-state steps: a handful of mpsc message
/// boxes per sync round, nowhere near the megabytes a fresh-buffers-per-step
/// pipeline would burn.
const BUDGET_BYTES: u64 = 64 * 1024;

fn measured_steps(mut engine: ParEngine, batch: u64) -> u64 {
    // Warm up: grow every scratch vector to its steady-state capacity and
    // drive the depth-capped trees to their final shape.
    for _ in 0..6 {
        engine.step(batch);
    }
    let before = ALLOCATED.load(Ordering::Relaxed);
    engine.step(batch);
    engine.step(batch);
    ALLOCATED.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_step_reuses_all_scratch() {
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
