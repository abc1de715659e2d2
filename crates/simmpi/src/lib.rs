//! An in-process message-passing substrate (MPI subset) with virtual-time
//! models of the paper's 1997 platforms.
//!
//! The dissertation runs distributed Photon over MPI on an SGI Power Onyx,
//! a cluster of SGI Indy workstations (Ethernet), and an IBM SP-2 (≤ 64
//! nodes). None of those machines exist anymore, and the repro brief flags
//! MPI bindings as thin — so this crate supplies the substrate
//! (README.md, *Deviations*):
//!
//! * **Bulk-synchronous collectives.** A [`World`] is plain data: the
//!   [`Platform`] and one virtual clock per rank. Its collectives take
//!   every rank's side at once: [`World::alltoallv`] moves each rank's
//!   per-destination buffers of typed items to their owners, charging each
//!   item's in-memory size as its wire bytes, and [`World::sync_clocks`]
//!   is a max all-reduce of the clocks (a barrier is the all-empty
//!   exchange). A caller runs the ranks' local work between
//!   collectives however it likes (`photon-dist` maps it over the host's
//!   cores), so a world of any size needs no thread of its own.
//! * **Virtual time.** Each rank carries a clock advanced by a deterministic
//!   cost model: compute via [`World::advance`] and
//!   [`World::charge_compute`], communication inside the collectives using
//!   the [`Platform`] parameters (per-message latency, per-byte cost, and
//!   the SP-2's per-message *buffer copy* that cannot be overlapped once a
//!   rank sends more than one message per batch — the paper's explanation
//!   for the 2→4 processor performance dip). Blocking collectives
//!   synchronize clocks to the maximum, exactly as wall clocks synchronize
//!   at a real barrier.
//!
//! Speedup *shapes* measured on the virtual clock are therefore
//! deterministic and host-independent: a clock depends only on segment
//! counts and message sizes, never on how the ranks' work was scheduled.

#![deny(missing_docs)]

pub mod comm;
pub mod platform;

pub use comm::World;
pub use platform::Platform;
