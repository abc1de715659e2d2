//! Allocation regression tests for the distributed engine.
//!
//! *Steady state.* A round reuses its exchange queues: each rank's
//! outgoing buffers travel through the all-to-all and come back to it,
//! emptied, after the owners have tallied them. Once the depth-capped
//! trees stop splitting, what a round allocates is the per-round
//! bookkeeping of its two `parallel_map` supersteps and the exchange's
//! R-entry lists, a few kilobytes. A round that built fresh queues would
//! allocate every forwarded record again: about half a megabyte a round
//! here.
//!
//! *Boot.* Each rank holds only the trees it owns, so booting a 64-rank
//! world costs about what a 1-rank world costs: one pilot forest, moved
//! to its owners. A world that gave each rank its own copy of the forest
//! would allocate R copies.
//!
//! Lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide; the tests take one lock so that
//! neither measures the other's allocations.

use photon_core::SolverEngine;
use photon_dist::{BalanceMode, DistConfig, DistEngine};
use photon_hist::SplitConfig;
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

/// Bytes allocated while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATED.load(Ordering::Relaxed) - before, out)
}

/// Generous ceiling for two steady-state rounds: per-superstep
/// bookkeeping, nowhere near the records a fresh-queues round would
/// allocate.
const BUDGET_BYTES: u64 = 64 * 1024;

#[test]
fn steady_state_round_reuses_its_queues() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    for nranks in [2, 3] {
        let mut engine = DistEngine::new(
            TestScene::CornellBox.build(),
            DistConfig {
                seed: 7,
                nranks,
                balance: BalanceMode::Naive,
                // Shallow trees, so splitting (which legitimately allocates
                // nodes) finishes during warm-up.
                split: SplitConfig {
                    max_depth: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        for _ in 0..6 {
            engine.step(4096);
        }
        let (delta, _) = allocated_by(|| {
            engine.step(4096);
            engine.step(4096)
        });
        assert!(
            delta < BUDGET_BYTES,
            "{nranks} ranks: two steady-state rounds allocated {delta} bytes \
             (budget {BUDGET_BYTES})"
        );
    }
}

#[test]
fn booting_many_ranks_costs_about_one_forest() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let boot = |nranks| {
        let scene = TestScene::ComputerLab.build();
        let config = DistConfig {
            nranks,
            ..Default::default()
        };
        allocated_by(|| DistEngine::new(scene, config)).0
    };
    let (one, wide) = (boot(1), boot(64));
    assert!(
        wide < 2 * one,
        "a 64-rank world allocated {wide} bytes at boot, a 1-rank world {one}"
    );
}
