//! The ledger: one benchmark for solve → store → render → stream, end to
//! end and layer by layer.
//!
//! ROADMAP aim 1 asks for "one ledger" with a row per layer a photon or a
//! pixel crosses, next to the end-to-end figures users feel. This crate is
//! that ledger and the benchmark behind `BENCHMARK.json`:
//!
//! | module | role |
//! |--------|------|
//! | [`spec`] | the fixed names: workloads, end-to-end and per-layer metrics, bounds |
//! | [`workload`] | one run: set-up, the four timed phases, correctness checks |
//! | [`subs`] | stream consumers that timestamp each delta where a client could show it |
//! | [`probes`] | per-layer timings and counts of the traced run |
//! | [`spans`] | harness-side spans and self-time arithmetic |
//! | [`compare`] | verdicts between two sets of runs |
//! | [`cli`] | `run`, `trace`, `compare`, and the single-workload mode the driver calls |
//!
//! See the crate README for every name, its unit and why it exists.

#![deny(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod host;
pub mod json;
pub mod probes;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod subs;
pub mod workload;
