//! Pseudo-random numbers for parallel Monte Carlo photon transport.
//!
//! The dissertation (ch. 5, *Random Number Generation*) requires that the `P`
//! processors of a parallel Photon run draw from **disjoint subsequences of a
//! single global pseudo-random stream**, so no work is duplicated and a
//! `P`-processor run is exactly reproducible. It uses the *leapfrog* method:
//! the base sequence `x_0, x_1, x_2, ...` is dealt out like cards, processor
//! `i` of `P` receiving `x_i, x_{i+P}, x_{i+2P}, ...`. The generator's period
//! (2^48 here) divides into `P` per-processor periods of `2^48 / P`.
//!
//! [`Lcg48`] is a 48-bit linear congruential generator (the classic `drand48`
//! multiplier). Leapfrogging an LCG is exact and cheap: the `P`-stride
//! subsequence of an LCG is itself an LCG with multiplier `a^P mod m` and an
//! adjusted increment, both computed in `O(log P)` by modular doubling
//! ([`Lcg48::leapfrog`]); arbitrary jump-ahead works the same way
//! ([`Lcg48::jump_ahead`]), and a jump made once ([`Jump`]) advances any
//! substream of the base stream by the same distance in one multiply.
//!
//! [`CountingRng`] wraps any generator and counts draws — used by the
//! photon-generation FLOP accounting experiment (paper ch. 4 charges
//! 3 floating-point operations per random draw).

#![deny(missing_docs)]

pub mod counting;
pub mod lcg;

pub use counting::CountingRng;
pub use lcg::{Jump, Lcg48};

/// Minimal random-source interface used throughout the workspace.
///
/// Deliberately tiny (one method) so the simulator, the samplers and the
/// tests can swap in counting or scripted implementations.
pub trait PhotonRng {
    /// Next uniform deviate in `[0, 1)`.
    fn next_f64(&mut self) -> f64;

    /// Uniform deviate in `[lo, hi)`.
    #[inline]
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` (n must be > 0 and small relative to 2^48;
    /// modulo bias is negligible at the scales used here).
    #[inline]
    fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        let i = (self.next_f64() * n as f64) as usize;
        i.min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scripted(Vec<f64>, usize);
    impl PhotonRng for Scripted {
        fn next_f64(&mut self) -> f64 {
            let v = self.0[self.1 % self.0.len()];
            self.1 += 1;
            v
        }
    }

    #[test]
    fn range_maps_unit_interval() {
        let mut r = Scripted(vec![0.0, 0.5, 0.999], 0);
        assert_eq!(r.range(2.0, 4.0), 2.0);
        assert_eq!(r.range(2.0, 4.0), 3.0);
        assert!(r.range(2.0, 4.0) < 4.0);
    }

    #[test]
    fn index_never_reaches_n() {
        let mut r = Scripted(vec![0.999_999_999], 0);
        for n in 1..10 {
            assert!(r.index(n) < n);
        }
    }
}
