//! The binomial 3σ split criterion (dissertation ch. 3, Fig 3.5; ch. 4).
//!
//! A bin hypothesized to be uniform receives `n` points, `l` of which land in
//! its left half. Under the null hypothesis the split is binomial with
//! `p = q = 1/2`; for large `n` it is approximated as normal with
//! `σ = sqrt(n·p·q)`. Following the dissertation, `p` is estimated from the
//! *larger* proposed daughter (`p = max(l, n−l)/n`), which widens σ slightly
//! and makes the test more conservative near extreme imbalance. The bin is
//! split when `|l − (n−l)| > k·σ` with `k = 3` by default.
//!
//! **What the 99.7 % is.** `k = 3` is 99.7 % confidence *per test*: one
//! test of a uniform bin fires with probability ≈ 0.27 %. It is not a
//! per-leaf rate. [`crate::BinTree`] re-tests a leaf after every tally
//! from `min_count` on, on four axes, and a random walk tested that often
//! crosses any fixed k·σ sooner or later (the law of the iterated
//! logarithm). A model of four independent fair axes (k = 3, `min_count`
//! 32) puts the chance that a uniform leaf has split spuriously at ≈ 11 %
//! by 100 tallies, ≈ 21 % by 1 000 and ≈ 35 % by 100 000; the test
//! `repeated_testing_splits_uniform_trees_far_more_often_than_once` holds
//! the real trees to a band around that. The paper's rule tests the same
//! way, so this is a faithful reproduction of it, not a departure.

/// Split rule parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitRule {
    /// Number of standard deviations the halves must differ by (paper: 3).
    pub sigmas: f64,
    /// Minimum tallies in a bin before the normal approximation (and hence
    /// the test) is trusted.
    pub min_count: u32,
}

impl Default for SplitRule {
    fn default() -> Self {
        // The paper's choices: 3σ, and "a significant number of points";
        // 32 keeps the normal approximation honest without hoarding storage.
        SplitRule {
            sigmas: 3.0,
            min_count: 32,
        }
    }
}

impl SplitRule {
    /// Returns how decisively the `(left, right)` half-counts reject the
    /// uniform hypothesis, as a multiple of the allowed threshold:
    /// values `> 1` mean *split*. Returns 0 when below `min_count`.
    pub fn excess(&self, left: u32, right: u32) -> f64 {
        split_excess(left, right, self.sigmas, self.min_count)
    }

    /// True when the halves are statistically different.
    pub fn should_split(&self, left: u32, right: u32) -> bool {
        self.excess(left, right) > 1.0
    }

    /// True only when `excess(left, right) ≤ 1` is certain, decided
    /// without `sqrt` or division; false says nothing. The caller must
    /// keep `left + right` within `u32`, as `excess` does.
    ///
    /// With `d = |l − r|`, `n = l + r`, `m = max(l, r)` and `o = min(l, r)`,
    /// `σ² = n·(m/n)·(o/n) = m·o/n`, so `excess ≤ 1` is `d²·n ≤ 4k²·m·o`.
    /// The test asks for `d²·n < 4k²·m·o·(1 − 1e-9)` in `f64`: its own
    /// rounding is a few ulps, and `excess`'s is a few ulps plus the
    /// cancellation in `q = 1 − p`, at most `(m/o)·2⁻⁵³`. Wherever the test
    /// holds, `m/o < max(2, 4k)`, so for `0 < k ≤ 2¹⁶` that stays below
    /// 2⁻³⁵, far inside the margin. Any other `k` — zero, negative, NaN or
    /// larger — and an empty half make the right side 0, which no `d²·n`
    /// is below, so the caller falls through to the exact `excess`.
    #[inline]
    pub(crate) fn clearly_uniform(&self, left: u32, right: u32) -> bool {
        let k = self.sigmas;
        let bound = if k > 0.0 && k <= 65_536.0 {
            4.0 * k * k * (1.0 - 1e-9)
        } else {
            0.0
        };
        let d = f64::from(left.abs_diff(right));
        let (m, o) = (f64::from(left.max(right)), f64::from(left.min(right)));
        let n = left + right;
        (n < self.min_count) | (d * d * f64::from(n) < bound * m * o)
    }
}

/// Core of the criterion; see [`SplitRule::excess`].
///
/// The test statistic is the deviation of one half's count from its null
/// mean: `|l − n/2| / σ` with `σ = sqrt(n·p·q)`, `p = max(l,r)/n`. A split
/// fires when the statistic exceeds `k` (= `sigmas`). At `k = 3` a uniform
/// bin is split spuriously with probability ≈ 0.27 % per test — the 99.74 %
/// confidence the dissertation quotes. That is per call: a caller that
/// re-tests a growing bin after every point, as [`crate::BinTree`] does,
/// splits a uniform bin far more often (see the module doc). (Reading the paper's "halves differ
/// by more than 3σ" as `|l − r| > 3σ` instead would reject ~13 % of uniform
/// bins, contradicting its own stated confidence, so the deviation form is
/// the intended one; the two coincide up to the factor `|l − r| = 2·|l − n/2|`.)
///
/// When one half is empty σ is 0; any imbalance with `n ≥ min_count` is then
/// treated as infinitely decisive (the steepest possible gradient).
fn split_excess(left: u32, right: u32, sigmas: f64, min_count: u32) -> f64 {
    let n = left + right;
    if n < min_count.max(1) {
        return 0.0;
    }
    let half_dev = left.abs_diff(right) as f64 * 0.5;
    if half_dev == 0.0 {
        return 0.0;
    }
    let nf = n as f64;
    let p = left.max(right) as f64 / nf;
    let q = 1.0 - p;
    let sigma = (nf * p * q).sqrt();
    if sigma == 0.0 {
        // All points in one half: maximal evidence.
        return f64::INFINITY;
    }
    half_dev / (sigmas * sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_halves_never_split() {
        let rule = SplitRule::default();
        assert!(!rule.should_split(500, 500));
        assert!(!rule.should_split(0, 0));
    }

    #[test]
    fn below_min_count_never_splits() {
        let rule = SplitRule::default();
        // Wildly imbalanced but too few samples.
        assert!(!rule.should_split(31, 0));
        assert_eq!(rule.excess(31, 0), 0.0);
    }

    #[test]
    fn extreme_imbalance_splits_at_min_count() {
        let rule = SplitRule::default();
        assert!(rule.should_split(32, 0));
        assert!(rule.excess(32, 0).is_infinite());
    }

    #[test]
    fn paper_figure_3_5_example() {
        // Fig 3.5's spirit: with n = 100 points, a ~1σ imbalance must not
        // split, a >3σ imbalance must.
        // (55, 45): half-deviation 5, sigma = sqrt(100*.55*.45) = 4.97 -> 1.0σ.
        let rule = SplitRule::default();
        assert!(!rule.should_split(55, 45));
        // (66, 34): half-deviation 16, sigma = 4.74 -> 3.4σ.
        assert!(rule.should_split(66, 34));
    }

    #[test]
    fn threshold_scales_with_sigmas() {
        let loose = SplitRule {
            sigmas: 1.0,
            min_count: 32,
        };
        let strict = SplitRule {
            sigmas: 6.0,
            min_count: 32,
        };
        // (60, 40): half-deviation 10, sigma ~ 4.9 -> ~2.0σ.
        assert!(loose.should_split(60, 40));
        assert!(!strict.should_split(60, 40));
    }

    #[test]
    fn excess_is_monotonic_in_imbalance() {
        let rule = SplitRule::default();
        let mut last = 0.0;
        for l in 50..100u32 {
            let e = rule.excess(l, 100 - l);
            assert!(e >= last, "excess should grow with imbalance");
            last = e;
        }
    }

    /// `clearly_uniform` must imply `excess ≤ 1`, and must decide every
    /// pair whose `excess` sits clearly below 1 — else it is no shortcut.
    fn check_clearly_uniform(rule: &SplitRule, l: u32, r: u32) -> bool {
        let (clear, e) = (rule.clearly_uniform(l, r), rule.excess(l, r));
        assert!(!clear || e <= 1.0, "{rule:?} ({l}, {r}): excess {e}");
        if rule.sigmas > 0.0 && l.min(r) > 0 && e <= 1.0 - 1e-6 {
            assert!(clear, "{rule:?} ({l}, {r}) undecided at excess {e}");
        }
        clear
    }

    #[test]
    fn clearly_uniform_never_hides_a_split() {
        const SIGMAS: [f64; 7] = [0.0, 0.5, 1.0, 2.0, 3.0, 3.5, 4.0];
        for sigmas in SIGMAS {
            for min_count in [1, 32] {
                let rule = SplitRule { sigmas, min_count };
                let mut decided = 0u64;
                for n in 0..=4096u32 {
                    for l in 0..=n {
                        decided += u64::from(check_clearly_uniform(&rule, l, n - l));
                    }
                    // Balanced halves are the common case the shortcut is for.
                    if sigmas > 0.0 && n % 2 == 0 {
                        assert!(rule.clearly_uniform(n / 2, n / 2), "{rule:?} n = {n}");
                    }
                }
                // k = 0 splits every imbalance; only `n < min_count` is clear.
                if sigmas == 0.0 {
                    assert_eq!(decided, u64::from(min_count) * u64::from(min_count + 1) / 2);
                } else {
                    // About Σ k·√n pairs lie within k·σ of balance.
                    assert!(
                        decided as f64 > 0.9 * sigmas * 174_000.0,
                        "{rule:?}: {decided}"
                    );
                }
            }
        }
        // Around each threshold with `n` near `u32::MAX`, where `d²·n` is
        // ~2⁹⁵: every `d` from well inside to well outside `k·√n`. Then
        // one-sided pairs of that size, where `q = 1 − p` cancels most.
        for sigmas in SIGMAS {
            let rule = SplitRule {
                sigmas,
                min_count: 32,
            };
            for n in [u32::MAX - 1, u32::MAX] {
                let threshold = (sigmas * f64::from(n).sqrt()) as u32;
                let (mut clear, mut unclear) = (0, 0);
                for d in
                    (threshold.saturating_sub(3000)..threshold + 3000).filter(|d| d % 2 == n % 2)
                {
                    let (l, r) = ((n - d) / 2 + d, (n - d) / 2);
                    if check_clearly_uniform(&rule, l, r) {
                        clear += 1;
                    } else {
                        unclear += 1;
                    }
                }
                assert!(unclear > 0, "{rule:?} n = {n}");
                assert!(sigmas == 0.0 || clear > 0, "{rule:?} n = {n}");
            }
            for (l, r) in [(u32::MAX, 0), (u32::MAX - 1, 1), (1, u32::MAX - 1)] {
                assert!(!check_clearly_uniform(&rule, l, r));
            }
        }
    }

    #[test]
    fn false_positive_rate_is_small_under_uniform_null() {
        // Simulate uniform bins; the 3σ rule should fire rarely (< 1%).
        use photon_rng::{Lcg48, PhotonRng};
        let rule = SplitRule::default();
        let mut rng = Lcg48::new(7);
        let trials = 2000;
        let mut fired = 0;
        for _ in 0..trials {
            let mut l = 0u32;
            let n = 256u32;
            for _ in 0..n {
                if rng.next_f64() < 0.5 {
                    l += 1;
                }
            }
            if rule.should_split(l, n - l) {
                fired += 1;
            }
        }
        let rate = fired as f64 / trials as f64;
        assert!(rate < 0.01, "false positive rate {rate}");
    }

    #[test]
    fn repeated_testing_splits_uniform_trees_far_more_often_than_once() {
        // The 0.27 % of the test above is per test. A bin tree re-tests a
        // leaf after every tally from `min_count` on, so trees fed uniform
        // points split spuriously by 1 000 tallies far more often: ≈ 21 %
        // in a model of four independent fair axes. The band is loose: above
        // ten times the per-test rate, below a half.
        use crate::bintree::{BinPoint, BinTree, SplitConfig};
        use photon_math::Rgb;
        use photon_rng::{Lcg48, PhotonRng};
        use std::f64::consts::TAU;
        let mut rng = Lcg48::new(9);
        let trials = 400;
        let split = (0..trials)
            .filter(|_| {
                let mut tree = BinTree::new(SplitConfig::default());
                (0..1000).any(|_| {
                    let (s, t) = (rng.next_f64(), rng.next_f64());
                    let p = BinPoint::new(s, t, rng.next_f64() * TAU, rng.next_f64());
                    tree.tally(&p, Rgb::WHITE)
                })
            })
            .count();
        let rate = split as f64 / trials as f64;
        assert!(
            rate > 10.0 * 0.0027 && rate < 0.5,
            "spurious split rate {rate}"
        );
    }

    #[test]
    fn real_gradient_is_detected() {
        // 70/30 split probability is a real gradient; with enough samples
        // the rule must fire.
        use photon_rng::{Lcg48, PhotonRng};
        let rule = SplitRule::default();
        let mut rng = Lcg48::new(8);
        let n = 1024u32;
        let mut l = 0u32;
        for _ in 0..n {
            if rng.next_f64() < 0.7 {
                l += 1;
            }
        }
        assert!(rule.should_split(l, n - l), "l={l}");
    }
}
