//! A wrapper that counts random draws, for operation accounting.

use crate::PhotonRng;

/// Counts how many deviates have been drawn from the wrapped generator.
///
/// Chapter 4 of the dissertation compares photon-generation kernels by
/// floating-point operation count, charging 3 flops per random draw
/// (the Lawrence Livermore convention is used for the transcendental ops).
/// The comparison experiment (`fig4_3`) uses this wrapper to measure the
/// *actual* expected draws per photon of each kernel.
#[derive(Clone, Debug)]
pub struct CountingRng<R> {
    inner: R,
    draws: u64,
}

impl<R: PhotonRng> CountingRng<R> {
    /// Wraps a generator with a zeroed counter.
    pub fn new(inner: R) -> Self {
        CountingRng { inner, draws: 0 }
    }

    /// Number of `next_f64` calls so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Unwraps the inner generator.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: PhotonRng> PhotonRng for CountingRng<R> {
    #[inline]
    fn next_f64(&mut self) -> f64 {
        self.draws += 1;
        self.inner.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lcg48;

    #[test]
    fn counts_every_draw() {
        let mut c = CountingRng::new(Lcg48::new(1));
        for _ in 0..17 {
            c.next_f64();
        }
        assert_eq!(c.draws(), 17);
    }

    #[test]
    fn passes_values_through_unchanged() {
        let mut plain = Lcg48::new(9);
        let mut counted = CountingRng::new(Lcg48::new(9));
        for _ in 0..50 {
            assert_eq!(plain.next_f64(), counted.next_f64());
        }
    }

    #[test]
    fn derived_helpers_count_underlying_draws() {
        let mut c = CountingRng::new(Lcg48::new(2));
        let _ = c.range(0.0, 10.0);
        let _ = c.index(5);
        assert_eq!(c.draws(), 2);
    }
}
