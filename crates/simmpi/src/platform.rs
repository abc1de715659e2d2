//! Virtual-time cost models of the paper's three platforms.
//!
//! Parameters are calibrated to the *relative* characteristics the
//! dissertation describes, not to absolute 1997 microseconds (README.md,
//! *Deviations*; `fig5_9_indy` and `fig5_12_sp2` print the resulting shapes):
//!
//! * **SGI Power Onyx** — shared-memory multiprocessor: negligible latency,
//!   very high bandwidth, fastest per-processor compute.
//! * **SGI Indy cluster** — workstations on 10 Mb/s Ethernet: large
//!   per-message latency, low bandwidth, slower processors. "Communication
//!   overhead and slower processors force the initial time to the right and
//!   reduce performance … although performance is lost, scalability is
//!   increased."
//! * **IBM SP-2** — fast switch but *buffered asynchronous messaging*: each
//!   message costs an extra memory copy + buffer management that can only be
//!   hidden while a rank sends ≤ 1 message per batch (the 2-processor case),
//!   producing the characteristic performance dip from 2 to 4 processors
//!   before clean scaling resumes (Figs 5.12–5.14).

/// Deterministic communication/computation cost model for one platform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Platform {
    /// Display name.
    pub name: &'static str,
    /// Photon transport-segment rate per processor (segments/second of
    /// virtual time). A segment is one emission or reflection step.
    pub segment_rate: f64,
    /// Per-message latency in seconds.
    pub latency_s: f64,
    /// Per-byte transfer cost in seconds.
    pub per_byte_s: f64,
    /// Per-message buffer-management + memory-copy cost (SP-2 style
    /// buffered async messaging).
    pub buffer_copy_s: f64,
    /// When true, a rank sending at most one message per exchange overlaps
    /// its communication with computation (cost mostly hidden).
    pub overlap_single_msg: bool,
    /// Fraction of the communication cost that still shows when overlapped.
    pub overlap_residual: f64,
    /// Fixed per-batch bookkeeping cost (queue management, synchronization,
    /// rate measurement). Amortizing this is what drives the adaptive
    /// batch-size controller to grow batches — fastest on the platform with
    /// the cheapest per-photon communication (the paper's Power Onyx column
    /// of Table 5.3 grows past 11k photons/processor).
    pub batch_overhead_s: f64,
}

impl Platform {
    /// SGI Power Onyx (shared-memory) model.
    pub fn power_onyx() -> Platform {
        Platform {
            name: "SGI Power Onyx",
            segment_rate: 30_000.0,
            latency_s: 4e-6,
            per_byte_s: 6e-9, // ~160 MB/s shared bus
            buffer_copy_s: 0.0,
            overlap_single_msg: false,
            overlap_residual: 1.0,
            batch_overhead_s: 12e-3,
        }
    }

    /// SGI Indy cluster (10 Mb/s Ethernet) model.
    pub fn indy_cluster() -> Platform {
        Platform {
            name: "SGI Indy Cluster",
            segment_rate: 18_000.0, // slower workstations
            latency_s: 1.2e-3,      // ~1 ms TCP/Ethernet
            per_byte_s: 9e-7,       // ~1.1 MB/s
            buffer_copy_s: 0.0,
            overlap_single_msg: false,
            overlap_residual: 1.0,
            batch_overhead_s: 6e-3,
        }
    }

    /// IBM SP-2 model (buffered asynchronous messaging).
    pub fn sp2() -> Platform {
        Platform {
            name: "IBM SP-2",
            segment_rate: 26_000.0,
            latency_s: 6e-5,
            per_byte_s: 3e-8, // ~33 MB/s switch
            buffer_copy_s: 7e-4,
            overlap_single_msg: true,
            overlap_residual: 0.08,
            batch_overhead_s: 3e-3,
        }
    }

    /// All three paper platforms.
    pub fn all() -> [Platform; 3] {
        [
            Platform::power_onyx(),
            Platform::indy_cluster(),
            Platform::sp2(),
        ]
    }

    /// Virtual cost for *sending* a set of messages in one exchange:
    /// `sizes` holds the byte length of each (nonempty) outgoing message.
    pub fn send_cost(&self, sizes: &[usize]) -> f64 {
        if sizes.is_empty() {
            return 0.0;
        }
        let raw: f64 = sizes
            .iter()
            .map(|&b| self.latency_s + b as f64 * self.per_byte_s + self.buffer_copy_s)
            .sum();
        if self.overlap_single_msg && sizes.len() <= 1 {
            raw * self.overlap_residual
        } else {
            raw
        }
    }

    /// Virtual cost for *receiving* messages totalling `bytes` in `count`
    /// messages (drain copies; latency was paid by the sender).
    pub fn recv_cost(&self, count: usize, bytes: usize) -> f64 {
        count as f64 * self.buffer_copy_s * 0.5 + bytes as f64 * self.per_byte_s * 0.5
    }

    /// Virtual seconds to trace `segments` photon transport segments on one
    /// processor of this platform, in a scene of `polygons` defining
    /// polygons. The logarithmic factor models octree descent depth; it
    /// reproduces the paper's observation that absolute performance drops
    /// with scene complexity while scalability improves.
    pub fn compute_cost(&self, segments: u64, polygons: usize) -> f64 {
        let depth_factor = 1.0 + 0.35 * ((polygons.max(2) as f64) / 30.0).log2().max(0.0);
        segments as f64 * depth_factor / self.segment_rate
    }

    /// Virtual seconds to process `records` received photon records
    /// (`DetermineBin` + `UpdateBinCount` on the owner): a bin-tree descent
    /// costs about an eighth of a transport segment.
    pub fn tally_cost(&self, records: u64) -> f64 {
        records as f64 / (self.segment_rate * 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_is_much_slower_than_onyx() {
        let onyx = Platform::power_onyx();
        let indy = Platform::indy_cluster();
        let msg = [1000usize];
        assert!(indy.send_cost(&msg) > 50.0 * onyx.send_cost(&msg));
        assert!(indy.segment_rate < onyx.segment_rate);
    }

    #[test]
    fn sp2_overlap_hides_single_message_cost() {
        let sp2 = Platform::sp2();
        let one = sp2.send_cost(&[1000]);
        let two = sp2.send_cost(&[1000, 1000]);
        // Two messages cost far more than double one overlapped message:
        // the buffered-async copy can no longer be hidden.
        assert!(two > 5.0 * one, "one {one} two {two}");
    }

    #[test]
    fn onyx_has_no_overlap_cliff() {
        let onyx = Platform::power_onyx();
        let one = onyx.send_cost(&[1000]);
        let two = onyx.send_cost(&[1000, 1000]);
        assert!((two - 2.0 * one).abs() < 1e-12);
    }

    #[test]
    fn empty_send_is_free() {
        for p in Platform::all() {
            assert_eq!(p.send_cost(&[]), 0.0);
            assert_eq!(p.recv_cost(0, 0), 0.0);
        }
    }

    #[test]
    fn compute_cost_grows_with_scene_complexity() {
        let p = Platform::sp2();
        let small = p.compute_cost(1000, 30);
        let large = p.compute_cost(1000, 2000);
        assert!(large > small * 1.5, "small {small} large {large}");
    }

    #[test]
    fn compute_cost_is_linear_in_segments() {
        let p = Platform::indy_cluster();
        let one = p.compute_cost(1000, 100);
        let ten = p.compute_cost(10_000, 100);
        assert!((ten / one - 10.0).abs() < 1e-9);
    }
}
