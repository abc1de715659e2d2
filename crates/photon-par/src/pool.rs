//! A scoped parallel map over index-addressed jobs.
//!
//! Not a pool that outlives a call: [`parallel_map`] opens one
//! `std::thread::scope`, spawns `threads − 1` workers beside the calling
//! thread, and joins them before it returns, so every map (every rendered
//! frame in `photon-serve`, both phases of every `ParEngine` step, the
//! trace and tally supersteps of every `DistEngine` step) pays its own
//! spawns, no thread waits parked between maps, and nothing arbitrates
//! between two maps running at once. It is the only place a data-parallel
//! phase gets its threads, so a persistent pool would be a change here,
//! not in each caller.
//!
//! The shared-memory engine maps over one job per worker, each job a
//! static leapfrog stripe of the photon batch (the RNG demands it — the
//! union of the stripes' draws must be the serial stream). Jobs in general
//! need no such striping, so a map hands out job indices dynamically from
//! a shared counter: fast
//! workers keep pulling while a slow tile (deep octree region, refined bin
//! trees) occupies one thread. Results come back in job order regardless of
//! completion order, which is what makes the tile-parallel viewer in
//! `photon-serve` bit-identical to the serial one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Maps `job` over `0..jobs` on `threads` workers, returning results in
/// index order.
///
/// Scheduling is dynamic: each worker repeatedly claims the next unclaimed
/// index. The calling thread is one of the `threads` workers — a caller
/// parked behind `threads` spawned ones would be one runnable thread too
/// many when `threads` is sized to the host, and a spawn more than a short
/// map needs. With `threads == 1` (or one job) everything runs on the
/// calling thread with no synchronization, so a single-threaded map is
/// exactly the serial loop.
///
/// # Panics
/// Panics if `threads == 0`, and propagates a panic from any job.
pub fn parallel_map<T, F>(threads: usize, jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads >= 1, "a pool needs at least one worker");
    if threads == 1 || jobs <= 1 {
        return (0..jobs).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= jobs {
            break;
        }
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(job(i));
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(jobs) {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .map(|done| done.expect("every job index was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_arrive_in_index_order() {
        for threads in [1, 2, 4, 7] {
            let out = parallel_map(threads, 37, |i| i * i);
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let out = parallel_map(4, 100, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Both jobs wait for each other, so they run on two threads at
        // once; a pool of two has no second thread but the caller's.
        let both = std::sync::Barrier::new(2);
        let ran_on = parallel_map(2, 2, |_| {
            both.wait();
            std::thread::current().id()
        });
        assert_ne!(ran_on[0], ran_on[1]);
        assert!(ran_on.contains(&std::thread::current().id()));
    }

    #[test]
    fn a_panicking_job_panics_the_map() {
        for bad in [0, 5] {
            let caught = std::panic::catch_unwind(|| {
                parallel_map(2, 6, |i| assert_ne!(i, bad));
            });
            assert!(caught.is_err(), "job {bad}");
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = parallel_map(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_job_costs_balance() {
        // A few heavy jobs up front must not serialize the rest: just check
        // correctness under skew (scheduling is dynamic by construction).
        let out = parallel_map(3, 20, |i| {
            if i < 2 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i + 1
        });
        assert_eq!(out, (1..=20).collect::<Vec<_>>());
    }
}
