//! One-dimensional histograms: fixed-width and adaptive (splitting).
//!
//! These are the pedagogical structures of dissertation ch. 3 (Figs 3.2–3.5)
//! and the reference implementation of Gustafson's splitting scheme, which
//! the 4-D bin trees generalize. The adaptive histogram starts with a single
//! interval and, as points arrive, splits any bin whose two halves are
//! statistically different (3σ binomial test), concentrating resolution where
//! the sampled density has steep gradients.

use crate::stats::SplitRule;

/// Fixed-width histogram over `[lo, hi)` — the strawman of Fig 3.2.
#[derive(Clone, Debug)]
pub struct FixedHistogram1D {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl FixedHistogram1D {
    /// Creates a histogram with `nbins` equal bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo && nbins > 0);
        FixedHistogram1D {
            lo,
            hi,
            counts: vec![0; nbins],
            total: 0,
        }
    }

    /// Tallies a sample; out-of-range samples are ignored.
    pub fn tally(&mut self, x: f64) {
        if x < self.lo || x >= self.hi {
            return;
        }
        let f = (x - self.lo) / (self.hi - self.lo);
        let i = ((f * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Estimated probability density at bin centers: `(center, density)`.
    pub fn density(&self) -> Vec<(f64, f64)> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let center = self.lo + (i as f64 + 0.5) * w;
                let d = if self.total == 0 {
                    0.0
                } else {
                    c as f64 / (self.total as f64 * w)
                };
                (center, d)
            })
            .collect()
    }
}

/// One bin of the adaptive histogram.
#[derive(Clone, Debug)]
struct Bin1D {
    lo: f64,
    hi: f64,
    /// Count in the lower half `[lo, mid)`.
    left: u32,
    /// Count in the upper half `[mid, hi)`.
    right: u32,
}

impl Bin1D {
    fn count(&self) -> u64 {
        (self.left + self.right) as u64
    }
    fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

/// Adaptive (splitting) histogram over `[lo, hi)` — Figs 3.4/3.5.
///
/// Bins are kept in a sorted `Vec`; splits insert in place. The structure is
/// intentionally simple — the 4-D production version lives in
/// [`crate::bintree`].
#[derive(Clone, Debug)]
pub struct AdaptiveHistogram1D {
    bins: Vec<Bin1D>,
    rule: SplitRule,
    min_width: f64,
    total: u64,
    splits: u64,
}

impl AdaptiveHistogram1D {
    /// Creates the histogram as a single bin over `[lo, hi)`.
    ///
    /// `min_width` bounds refinement so adversarial point streams cannot
    /// split forever.
    pub fn new(lo: f64, hi: f64, rule: SplitRule, min_width: f64) -> Self {
        assert!(hi > lo);
        AdaptiveHistogram1D {
            bins: vec![Bin1D {
                lo,
                hi,
                left: 0,
                right: 0,
            }],
            rule,
            min_width,
            total: 0,
            splits: 0,
        }
    }

    /// Index of the bin containing `x` (bins are sorted and contiguous).
    fn find(&self, x: f64) -> Option<usize> {
        if x < self.bins[0].lo || x >= self.bins[self.bins.len() - 1].hi {
            return None;
        }
        // Binary search on bin lower bounds.
        let mut lo = 0usize;
        let mut hi = self.bins.len();
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bins[mid].lo <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    /// Tallies a sample, splitting the containing bin if its halves are
    /// statistically different. Out-of-range samples are ignored.
    pub fn tally(&mut self, x: f64) {
        let Some(i) = self.find(x) else { return };
        self.total += 1;
        {
            let bin = &mut self.bins[i];
            if x < bin.mid() {
                bin.left += 1;
            } else {
                bin.right += 1;
            }
        }
        let bin = &self.bins[i];
        if bin.hi - bin.lo > 2.0 * self.min_width && self.rule.should_split(bin.left, bin.right) {
            let (lo, hi, mid) = (bin.lo, bin.hi, bin.mid());
            let (l, r) = (bin.left, bin.right);
            // Daughters restart their half-statistics; the observed
            // half-counts become their (exact) totals, recorded by seeding
            // both halves evenly — the uniform hypothesis *within* each
            // daughter is what the next round of statistics will test.
            let left_bin = Bin1D {
                lo,
                hi: mid,
                left: l / 2,
                right: l - l / 2,
            };
            let right_bin = Bin1D {
                lo: mid,
                hi,
                left: r / 2,
                right: r - r / 2,
            };
            self.bins[i] = left_bin;
            self.bins.insert(i + 1, right_bin);
            self.splits += 1;
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when the histogram still has its single initial bin.
    pub fn is_empty(&self) -> bool {
        self.bins.len() == 1 && self.total == 0
    }

    /// Number of splits performed.
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Bin edges and counts: `(lo, hi, count)`.
    pub fn bins(&self) -> Vec<(f64, f64, u64)> {
        self.bins.iter().map(|b| (b.lo, b.hi, b.count())).collect()
    }

    /// Estimated density at bin centers: `(center, width, density)`.
    pub fn density(&self) -> Vec<(f64, f64, f64)> {
        self.bins
            .iter()
            .map(|b| {
                let w = b.hi - b.lo;
                let d = if self.total == 0 {
                    0.0
                } else {
                    b.count() as f64 / (self.total as f64 * w)
                };
                (b.mid(), w, d)
            })
            .collect()
    }

    /// Smallest bin width — resolution achieved where the gradient was
    /// steepest.
    pub fn min_bin_width(&self) -> f64 {
        self.bins
            .iter()
            .map(|b| b.hi - b.lo)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_rng::{Lcg48, PhotonRng};

    #[test]
    fn fixed_histogram_density_integrates_to_one() {
        let mut h = FixedHistogram1D::new(0.0, 1.0, 16);
        let mut rng = Lcg48::new(3);
        for _ in 0..10_000 {
            h.tally(rng.next_f64());
        }
        let w = 1.0 / 16.0;
        let integral: f64 = h.density().iter().map(|(_, d)| d * w).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_histogram_ignores_out_of_range() {
        let mut h = FixedHistogram1D::new(0.0, 1.0, 4);
        h.tally(-0.1);
        h.tally(1.0);
        assert_eq!(h.total, 0);
    }

    #[test]
    fn adaptive_keeps_one_bin_for_uniform_data() {
        let mut h = AdaptiveHistogram1D::new(0.0, 1.0, SplitRule::default(), 1e-6);
        let mut rng = Lcg48::new(11);
        for _ in 0..20_000 {
            h.tally(rng.next_f64());
        }
        // Uniform data should almost never split (3σ, <1% per test);
        // allow a couple of unlucky splits.
        assert!(h.len() <= 4, "bins = {}", h.len());
    }

    #[test]
    fn adaptive_refines_at_steep_gradient() {
        // Density concentrated in [0, 0.1]: bins should pile up there.
        let mut h = AdaptiveHistogram1D::new(0.0, 1.0, SplitRule::default(), 1e-4);
        let mut rng = Lcg48::new(12);
        for _ in 0..50_000 {
            let x = rng.next_f64();
            // 90% of mass in the first decile.
            let v = if rng.next_f64() < 0.9 { x * 0.1 } else { x };
            h.tally(v);
        }
        assert!(h.len() > 8, "expected refinement, got {} bins", h.len());
        // Finest bins should be inside the high-gradient region.
        let finest = h
            .bins()
            .iter()
            .min_by(|a, b| (a.1 - a.0).partial_cmp(&(b.1 - b.0)).unwrap())
            .cloned()
            .unwrap();
        assert!(finest.0 < 0.2, "finest bin at {:?}", finest);
    }

    #[test]
    fn total_is_conserved_across_splits() {
        let mut h = AdaptiveHistogram1D::new(0.0, 1.0, SplitRule::default(), 1e-6);
        let mut rng = Lcg48::new(13);
        let n = 30_000;
        for _ in 0..n {
            let x = rng.next_f64();
            h.tally(x * x); // quadratic warp -> gradient near 0
        }
        assert_eq!(h.total, n);
        let sum: u64 = h.bins().iter().map(|b| b.2).sum();
        assert_eq!(sum, n);
        assert!(h.splits() > 0);
    }

    #[test]
    fn bins_remain_sorted_and_contiguous() {
        let mut h = AdaptiveHistogram1D::new(-2.0, 2.0, SplitRule::default(), 1e-6);
        let mut rng = Lcg48::new(14);
        for _ in 0..40_000 {
            // Gaussian-ish via sum of uniforms, clamped into range.
            let g: f64 = (0..4).map(|_| rng.next_f64()).sum::<f64>() - 2.0;
            h.tally(g);
        }
        let bins = h.bins();
        for w in bins.windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-12, "bins out of order: {w:?}");
            assert!((w[0].1 - w[1].0).abs() < 1e-12, "gap between bins");
        }
        assert_eq!(bins.first().unwrap().0, -2.0);
        assert_eq!(bins.last().unwrap().1, 2.0);
    }

    #[test]
    fn min_width_bounds_refinement() {
        let mut h = AdaptiveHistogram1D::new(0.0, 1.0, SplitRule::default(), 0.1);
        let mut rng = Lcg48::new(15);
        for _ in 0..100_000 {
            h.tally(rng.next_f64() * 0.01); // everything in one sliver
        }
        assert!(h.min_bin_width() >= 0.1 - 1e-12);
    }

    #[test]
    fn adaptive_density_tracks_known_curve() {
        // Sample from density f(x) = 2x on [0,1] (via inverse CDF sqrt(u));
        // the adaptive estimate at bin centers should approximate 2x.
        let mut h = AdaptiveHistogram1D::new(0.0, 1.0, SplitRule::default(), 1e-4);
        let mut rng = Lcg48::new(16);
        for _ in 0..200_000 {
            h.tally(rng.next_f64().sqrt());
        }
        let mut worst: f64 = 0.0;
        for (center, _w, d) in h.density() {
            if center > 0.2 {
                worst = worst.max((d - 2.0 * center).abs());
            }
        }
        assert!(worst < 0.4, "worst density error {worst}");
    }
}
