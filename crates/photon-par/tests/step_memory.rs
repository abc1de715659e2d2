//! A threaded step's memory is a function of its workers, not its batch.
//!
//! `ParEngine` runs a step in rounds of at most 4T × 2 048 photons, each
//! traced, partitioned and applied before the next, so its record buffers
//! (64 B a tally, plus the partitioned copy) hold one round whatever the
//! batch. This binary's allocator tracks live heap bytes and their
//! high-water mark, and the test holds the peak of a 65 536-photon step to
//! that of a 16 384-photon one: both are one round's buffers at two
//! workers. Sizing the buffers by the batch instead grows the peak by
//! about three rounds' records, several megabytes on `cornell`.
//!
//! Lives in its own integration-test binary because the tracking
//! `#[global_allocator]` is process-wide.

use photon_core::SolverEngine;
use photon_hist::SplitConfig;
use photon_par::{ParConfig, ParEngine};
use photon_scenes::TestScene;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct TrackingAlloc;

// SAFETY: delegates straight to `System`; the counters are side-effect only.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the allocate-copy-free it may be: both blocks live at
        // once.
        let live = LIVE.fetch_add(new_size, Ordering::Relaxed) + new_size;
        PEAK.fetch_max(live, Ordering::Relaxed);
        let out = System.realloc(ptr, layout, new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        out
    }
}

#[global_allocator]
static TRACKER: TrackingAlloc = TrackingAlloc;

/// The live-heap high-water mark while `engine` steps `batch` photons.
fn step_peak(engine: &mut ParEngine, batch: u64) -> usize {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    engine.step(batch);
    PEAK.load(Ordering::Relaxed)
}

/// Room for the trees' own splits and a step's spawns and job lists; one
/// 16 384-photon round's records are about 5 MB on `cornell`.
const SLACK_BYTES: usize = 256 * 1024;

#[test]
fn a_large_step_holds_one_round_of_records() {
    let mut engine = ParEngine::new(
        TestScene::CornellBox.build(),
        ParConfig {
            seed: 7,
            threads: 2,
            // Shallow trees, so splitting (which legitimately allocates
            // nodes) all but stops during warm-up.
            split: SplitConfig {
                max_depth: 3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // One round at two workers is 4 × 2 × 2 048 = 16 384 photons: warm up
    // every buffer to it.
    engine.step(16_384);
    engine.step(16_384);
    let one_round = step_peak(&mut engine, 16_384);
    let four_rounds = step_peak(&mut engine, 65_536);
    assert!(
        four_rounds < one_round + SLACK_BYTES,
        "a 65 536-photon step peaked at {four_rounds} live bytes, \
         a 16 384-photon one at {one_round} (slack {SLACK_BYTES})"
    );
}
