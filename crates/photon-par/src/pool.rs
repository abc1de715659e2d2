//! A scoped parallel map over the items of a slice.
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
//! Job `i` gets `&mut items[i]` and nothing else writable: whatever a job
//! writes belongs to it alone, so a caller needs no lock of its own (the
//! engines' trace buffers, apply blocks and rank states are all items).
//! Each item rides in the slot its result comes back in, under that
//! slot's mutex; the one worker that claims an index is the only one to
//! take it, so the lock is never contended.
//!
//! The shared-memory engine's trace maps over four contiguous chunks of
//! the photon batch per worker. Any split of a batch traces the serial
//! photon set, because every photon draws from its own block substream.
//! A map hands out indices dynamically from a shared counter: fast workers
//! keep pulling while a slow chunk or tile (deep octree region, refined
//! bin trees, a pre-empted thread) occupies one thread. Results come back
//! in job order regardless of completion order, which is what makes the
//! tile-parallel viewer in `photon-serve` bit-identical to the serial one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Maps `job` over `items` on `threads` workers, job `i` getting
/// `&mut items[i]`, and returns the results in index order.
///
/// Scheduling is dynamic: each worker repeatedly claims the next unclaimed
/// index. The calling thread is one of the `threads` workers — a caller
/// parked behind `threads` spawned ones would be one runnable thread too
/// many when `threads` is sized to the host, and a spawn more than a short
/// map needs. With `threads == 1` (or one item) everything runs on the
/// calling thread with no synchronization, so a single-threaded map is
/// exactly the serial loop.
///
/// # Panics
/// Panics if `threads == 0`, and propagates a panic from any job.
pub fn parallel_map<S, T, F>(threads: usize, items: &mut [S], job: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, &mut S) -> T + Sync,
{
    assert!(threads >= 1, "a pool needs at least one worker");
    let jobs = items.len();
    if threads == 1 || jobs <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, s)| job(i, s))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<(&mut S, Option<T>)>> =
        items.iter_mut().map(|s| Mutex::new((s, None))).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else {
            break;
        };
        // Poisoning is ignored: a job that panicked panics the map when
        // the scope joins, so no slot it held is ever read.
        let (item, done) = &mut *slot.lock().unwrap_or_else(PoisonError::into_inner);
        *done = Some(job(i, item));
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(jobs) {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner).1)
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
            let out = parallel_map(threads, &mut [(); 37], |i, _| i * i);
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
        let out = parallel_map(4, &mut [(); 100], |i, _| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn each_job_owns_its_item() {
        let mut counters = [0u64; 50];
        let out = parallel_map(3, &mut counters, |i, c| {
            *c += i as u64;
            *c * 2
        });
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<u64>>());
        assert_eq!(counters.to_vec(), (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Both jobs wait for each other, so they run on two threads at
        // once; a pool of two has no second thread but the caller's.
        let both = std::sync::Barrier::new(2);
        let ran_on = parallel_map(2, &mut [(); 2], |_, _| {
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
                parallel_map(2, &mut [(); 6], |i, _| assert_ne!(i, bad));
            });
            assert!(caught.is_err(), "job {bad}");
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = parallel_map(4, &mut [(); 0], |i, _| i);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_job_costs_balance() {
        // A few heavy jobs up front must not serialize the rest: just check
        // correctness under skew (scheduling is dynamic by construction).
        let out = parallel_map(3, &mut [(); 20], |i, _| {
            if i < 2 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i + 1
        });
        assert_eq!(out, (1..=20).collect::<Vec<_>>());
    }
}
