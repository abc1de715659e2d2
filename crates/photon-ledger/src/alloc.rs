//! Bytes allocated by the process, counted only in the traced binary.
//!
//! `ledger-traced` installs a `#[global_allocator]` that adds every
//! allocation's size to [`ALLOCATED`]; the timed `ledger` binary keeps the
//! system allocator untouched, so this counter stays at zero there and
//! [`allocated`] says so.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Bytes requested from the allocator so far (traced binary only).
pub static ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Set by the traced binary's `main` before anything else runs.
pub static COUNTING: AtomicBool = AtomicBool::new(false);

/// Bytes allocated so far, or `None` in a binary that does not count.
pub fn allocated() -> Option<u64> {
    // Relaxed: a statistic; nothing is published through it.
    COUNTING
        .load(Ordering::Relaxed)
        .then(|| ALLOCATED.load(Ordering::Relaxed))
}

/// Bytes `f` allocated (on any thread, while it ran).
pub fn bytes_during<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let before = allocated();
    let out = f();
    (out, before.and_then(|b| allocated().map(|a| a - b)))
}
