//! An in-process message-passing substrate (MPI subset) with virtual-time
//! models of the paper's 1997 platforms.
//!
//! The dissertation runs distributed Photon over MPI on an SGI Power Onyx,
//! a cluster of SGI Indy workstations (Ethernet), and an IBM SP-2 (≤ 64
//! nodes). None of those machines exist anymore, and the repro brief flags
//! MPI bindings as thin — so this crate supplies the substrate
//! (README.md, *Deviations*):
//!
//! * **Real message passing.** Each rank is an OS thread; ranks exchange
//!   real byte buffers over a channel mesh ([`Comm::alltoallv`],
//!   reductions, barriers). The distributed algorithm above runs
//!   unmodified, queues and all.
//! * **Virtual time.** Each rank carries a clock advanced by a deterministic
//!   cost model: compute via [`Comm::advance`], communication inside the
//!   collectives using the [`Platform`] parameters (per-message latency,
//!   per-byte cost, and the SP-2's per-message *buffer copy* that cannot be
//!   overlapped once a rank sends more than one message per batch — the
//!   paper's explanation for the 2→4 processor performance dip). Blocking
//!   collectives synchronize clocks to the maximum, exactly as wall clocks
//!   synchronize at a real barrier.
//!
//! Speedup *shapes* measured on the virtual clock are therefore
//! deterministic and host-independent, while every byte still crosses a real
//! channel (bugs in the messaging layer fail tests, not just models).

#![deny(missing_docs)]

pub mod comm;
pub mod platform;

pub use comm::{run_world, Comm};
pub use platform::Platform;
