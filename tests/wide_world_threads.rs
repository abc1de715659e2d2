//! A distributed world of any size runs on at most the host's cores:
//! `DistEngine` maps its ranks over `parallel_map` workers, one per core,
//! instead of giving each rank a thread. So stepping a world four times
//! wider than the host must never raise the thread count past the core
//! count (plus the sampler, and a core count's slack for a map's threads
//! that have finished but not yet retired when the next map spawns).
//!
//! Its own test binary, so no other test's threads come and go while it
//! counts (a second test beside `no_parked_threads.rs`'s exact count would
//! race it). Linux only: the count is the `Threads:` line of
//! `/proc/self/status`.
#![cfg(target_os = "linux")]

use photon_gi::core::SolverEngine;
use photon_gi::dist::{DistConfig, DistEngine};
use photon_gi::scenes::cornell_box;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn a_wide_world_stays_on_the_host_cores() {
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let nranks = 4 * cores;
    let mut dist = DistEngine::new(
        cornell_box(),
        DistConfig {
            nranks,
            ..Default::default()
        },
    );
    let before = threads();
    let stepping = AtomicBool::new(true);
    let peak = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = threads();
            while stepping.load(Ordering::Relaxed) {
                peak = peak.max(threads());
                std::thread::sleep(Duration::from_micros(200));
            }
            peak
        });
        for _ in 0..20 {
            dist.step(500 * nranks as u64);
        }
        stepping.store(false, Ordering::Relaxed);
        sampler.join().expect("sampler")
    });
    // The sampler and `cores − 1` workers beside the caller, plus a core
    // count's slack for the previous map's threads not yet retired.
    let bound = before + 2 * cores;
    assert!(
        peak <= bound,
        "{nranks} ranks on {cores} cores: threads {before} before stepping, peak {peak} \
         while stepping (bound {bound})"
    );
    assert!(dist.main_emitted() >= 20 * 500 * nranks as u64);
}
