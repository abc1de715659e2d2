//! An engine between steps holds no thread: `ParEngine` and `DistEngine`
//! both borrow their workers from `parallel_map`, each for the length of
//! one phase or superstep. So a live engine of either kind, built and
//! stepped, leaves the process with the threads it had before.
//!
//! Its own test binary, so no other test's threads come and go while it
//! counts. Linux only: the count is the `Threads:` line of
//! `/proc/self/status`.
#![cfg(target_os = "linux")]

use photon_gi::core::SolverEngine;
use photon_gi::dist::{DistConfig, DistEngine};
use photon_gi::par::{ParConfig, ParEngine};
use photon_gi::scenes::cornell_box;
use std::time::{Duration, Instant};

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn stepped_engines_park_no_threads() {
    let before = threads();
    let mut par = ParEngine::new(
        cornell_box(),
        ParConfig {
            threads: 4,
            ..Default::default()
        },
    );
    let mut dist = DistEngine::new(
        cornell_box(),
        DistConfig {
            nranks: 4,
            ..Default::default()
        },
    );
    par.step(2000);
    dist.step(2000);
    // A scope returns once its threads' closures are done; the OS may
    // take a moment longer to retire them, so wait for the count to
    // settle. A parked worker never retires, whatever the wait.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut after = threads();
    while after != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        after = threads();
    }
    assert_eq!(
        after, before,
        "threads before the engines: {before}; with both alive between steps: {after}"
    );
    assert_eq!(par.stats().emitted, 2000);
    assert!(dist.stats().emitted >= 2000);
}
