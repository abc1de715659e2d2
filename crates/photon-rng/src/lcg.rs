//! The 48-bit linear congruential generator and its exact stream splitting.

use crate::PhotonRng;

/// Modulus mask: all arithmetic is mod 2^48.
const MASK: u64 = (1u64 << 48) - 1;
/// The `drand48` multiplier.
const DRAND48_A: u64 = 0x5DEE_CE66D;
/// The `drand48` increment.
const DRAND48_C: u64 = 0xB;

/// 48-bit LCG: `x <- (a*x + c) mod 2^48`.
///
/// With the default (`drand48`) parameters the state sequence has full period
/// 2^48. Subsequence splitting for `P` processors keeps the *same* global
/// stream and hands processor `i` every `P`-th element — the leapfrog scheme
/// of the paper (ch. 5) — so parallel runs consume exactly the deviates a
/// serial run would, partitioned among ranks and never duplicated. Each
/// rank's substream has period `2^48 / P`.
#[derive(Clone, Debug, PartialEq)]
pub struct Lcg48 {
    state: u64,
    a: u64,
    c: u64,
}

impl Lcg48 {
    /// Creates the base stream from a seed.
    pub fn new(seed: u64) -> Self {
        // drand48-style seeding: seed fills the high bits, fixed 0x330E low
        // word, so small seeds still start from well-mixed states.
        let state = ((seed << 16) ^ 0x330E) & MASK;
        Lcg48 {
            state,
            a: DRAND48_A,
            c: DRAND48_C,
        }
    }

    /// Raw `(state, a, c)` parameters, for tests and checkpointing.
    pub fn params(&self) -> (u64, u64, u64) {
        (self.state, self.a, self.c)
    }

    /// Current raw state (the last value produced, or the seed state).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next raw 48-bit value.
    #[inline]
    pub fn next_u48(&mut self) -> u64 {
        self.state = (mul_mod(self.a, self.state).wrapping_add(self.c)) & MASK;
        self.state
    }

    /// The affine map `(a_n, c_n)` equal to `n` applications of the
    /// generator step, computed by repeated squaring in `O(log n)`.
    fn compose_n(&self, mut n: u64) -> (u64, u64) {
        let (mut acc_a, mut acc_c) = (1u64, 0u64); // identity
        let (mut sq_a, mut sq_c) = (self.a, self.c);
        while n > 0 {
            if n & 1 == 1 {
                // acc <- sq ∘ acc
                acc_c = (mul_mod(sq_a, acc_c).wrapping_add(sq_c)) & MASK;
                acc_a = mul_mod(sq_a, acc_a);
            }
            // sq <- sq ∘ sq : multiplier squares, increment becomes (a+1)c.
            sq_c = (mul_mod(sq_a, sq_c).wrapping_add(sq_c)) & MASK;
            sq_a = mul_mod(sq_a, sq_a);
            n >>= 1;
        }
        (acc_a, acc_c)
    }

    /// Advances the stream by `n` steps in `O(log n)` — the block-splitting
    /// primitive, and the workhorse behind [`Lcg48::leapfrog`].
    pub fn jump_ahead(&mut self, n: u64) {
        self.leap(self.jump(n));
    }

    /// `n` steps of this generator as one [`Jump`], composed in
    /// `O(log n)` once.
    pub fn jump(&self, n: u64) -> Jump {
        let (a, c) = self.compose_n(n);
        Jump { a, c }
    }

    /// Advances the stream by a precomputed [`Jump`] — exactly
    /// [`Lcg48::jump_ahead`] by its `n`, in one multiply. The jump must come
    /// from a generator with this one's `(a, c)`, such as the base stream of
    /// this block substream.
    #[inline]
    pub fn leap(&mut self, jump: Jump) {
        self.state = (mul_mod(jump.a, self.state).wrapping_add(jump.c)) & MASK;
    }

    /// Returns block substream `index`: this stream advanced by
    /// `index * stride` steps (`self` is not advanced).
    ///
    /// Block splitting assigns work item `index` the draws
    /// `[index * stride, (index + 1) * stride)` of the base stream. Unlike
    /// [`Lcg48::leapfrog`], the partition does not depend on how many
    /// workers there are — which is what lets a photon be traced by *any*
    /// backend (serial, threaded, distributed) with exactly the same
    /// deviates. Callers pick `stride` comfortably above the worst-case
    /// draws per item so blocks never overlap.
    pub fn substream(&self, index: u64, stride: u64) -> Lcg48 {
        let mut sub = self.clone();
        // O(log n) jump even for index * stride near the 2^48 period.
        sub.jump_ahead(index.wrapping_mul(stride));
        sub
    }

    /// Returns the leapfrog substream for `rank` of `nranks`.
    ///
    /// If this generator would next produce `x_1, x_2, x_3, ...`, the
    /// returned generator produces `x_{rank+1}, x_{rank+1+P}, x_{rank+1+2P},
    /// ...` where `P = nranks`. The union of all ranks' outputs, interleaved
    /// round-robin, is exactly the base stream (tested below). `self` is not
    /// advanced.
    pub fn leapfrog(&self, rank: usize, nranks: usize) -> Lcg48 {
        assert!(nranks > 0, "need at least one rank");
        assert!(rank < nranks, "rank {rank} out of range for {nranks} ranks");
        let (ap, cp) = self.compose_n(nranks as u64);
        // First value the substream must produce: x_{rank+1}.
        let mut probe = self.clone();
        probe.jump_ahead(rank as u64 + 1);
        let first = probe.state;
        // Substream state must be the f_P-preimage of `first` so the first
        // next_u48() lands on it. a_P is odd, hence invertible mod 2^48.
        let ap_inv = inverse_pow2(ap);
        let state = mul_mod(ap_inv, first.wrapping_sub(cp) & MASK);
        Lcg48 {
            state,
            a: ap,
            c: cp,
        }
    }
}

/// A fixed number of generator steps as one affine map
/// `x -> a·x + c (mod 2^48)`, made by [`Lcg48::jump`] and applied by
/// [`Lcg48::leap`]. Composition is exact mod 2^48, so leaping `k` times by
/// the jump of `n` steps lands on the state `k·n` steps on, bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Jump {
    a: u64,
    c: u64,
}

/// `(a * b) mod 2^48` without overflow.
#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) & MASK as u128) as u64
}

/// Multiplicative inverse of an odd number modulo 2^48 (2-adic Newton
/// iteration; each step doubles the number of correct low bits).
fn inverse_pow2(a: u64) -> u64 {
    debug_assert!(a & 1 == 1, "only odd numbers are invertible mod 2^48");
    let mut inv = a; // correct to 3 bits
    for _ in 0..5 {
        inv = mul_mod(inv, 2u64.wrapping_sub(mul_mod(a, inv)) & MASK);
    }
    inv & MASK
}

impl PhotonRng for Lcg48 {
    #[inline]
    fn next_f64(&mut self) -> f64 {
        self.next_u48() as f64 / (MASK as f64 + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_in_unit_interval() {
        let mut g = Lcg48::new(1);
        for _ in 0..1000 {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let mut a = Lcg48::new(7);
        let mut b = Lcg48::new(7);
        let mut c = Lcg48::new(8);
        let sa: Vec<u64> = (0..32).map(|_| a.next_u48()).collect();
        let sb: Vec<u64> = (0..32).map(|_| b.next_u48()).collect();
        let sc: Vec<u64> = (0..32).map(|_| c.next_u48()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn inverse_pow2_is_inverse() {
        for a in [1u64, 3, 0x5DEE_CE66D, MASK, 12345677] {
            let inv = inverse_pow2(a);
            assert_eq!(mul_mod(a, inv), 1, "a={a:#x}");
        }
    }

    #[test]
    fn jump_ahead_matches_sequential_stepping() {
        for n in [0u64, 1, 2, 7, 64, 1000, 48611] {
            let mut fast = Lcg48::new(99);
            fast.jump_ahead(n);
            let mut slow = Lcg48::new(99);
            for _ in 0..n {
                slow.next_u48();
            }
            assert_eq!(fast.state(), slow.state(), "n={n}");
        }
    }

    #[test]
    fn jump_ahead_is_additive() {
        let mut a = Lcg48::new(5);
        a.jump_ahead(1000);
        a.jump_ahead(234);
        let mut b = Lcg48::new(5);
        b.jump_ahead(1234);
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn substream_blocks_tile_the_base_stream() {
        let base = Lcg48::new(777);
        let mut reference = base.clone();
        for index in 0..5u64 {
            let mut sub = base.substream(index, 16);
            for step in 0..16 {
                assert_eq!(
                    sub.next_u48(),
                    reference.next_u48(),
                    "index={index} step={step}"
                );
            }
        }
    }

    #[test]
    fn substream_zero_is_identity() {
        let base = Lcg48::new(41);
        let mut sub = base.substream(0, 4096);
        let mut reference = base.clone();
        for _ in 0..64 {
            assert_eq!(sub.next_u48(), reference.next_u48());
        }
    }

    #[test]
    fn leapfrog_interleave_reconstructs_base_stream() {
        // The defining property of the paper's splitting scheme.
        for nranks in [1usize, 2, 3, 4, 7, 8] {
            let base = Lcg48::new(2024);
            let mut subs: Vec<Lcg48> = (0..nranks).map(|r| base.leapfrog(r, nranks)).collect();
            let mut reference = base.clone();
            for step in 0..200 {
                let expect = reference.next_u48();
                let got = subs[step % nranks].next_u48();
                assert_eq!(got, expect, "nranks={nranks} step={step}");
            }
        }
    }

    #[test]
    fn leapfrog_streams_are_disjoint() {
        let base = Lcg48::new(31337);
        let mut s0 = base.leapfrog(0, 4);
        let mut s1 = base.leapfrog(1, 4);
        let a: std::collections::HashSet<u64> = (0..2000).map(|_| s0.next_u48()).collect();
        let overlap = (0..2000).filter(|_| a.contains(&s1.next_u48())).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn leapfrog_single_rank_is_identity() {
        let base = Lcg48::new(17);
        let mut sub = base.leapfrog(0, 1);
        let mut reference = base.clone();
        for _ in 0..100 {
            assert_eq!(sub.next_u48(), reference.next_u48());
        }
    }

    #[test]
    #[should_panic]
    fn leapfrog_rank_out_of_range_panics() {
        Lcg48::new(0).leapfrog(4, 4);
    }

    #[test]
    fn mean_and_variance_are_uniform() {
        let mut g = Lcg48::new(123);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let v = g.next_f64();
            sum += v;
            sum_sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.005, "var {var}");
    }

    #[test]
    fn low_serial_correlation() {
        let mut g = Lcg48::new(321);
        let n = 100_000;
        let mut prev = g.next_f64();
        let mut cov = 0.0;
        for _ in 0..n {
            let v = g.next_f64();
            cov += (prev - 0.5) * (v - 0.5);
            prev = v;
        }
        let corr = cov / n as f64 / (1.0 / 12.0);
        assert!(corr.abs() < 0.02, "lag-1 correlation {corr}");
    }
}
