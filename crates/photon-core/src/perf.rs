//! Performance traces: speed-vs-time.
//!
//! The dissertation presents "the full speedup picture as a function of
//! execution time" (ch. 5): a run is divided into batches; after each batch
//! the instantaneous rate (photons/second) is plotted against elapsed time,
//! one curve per processor count, with speedup read off against the best
//! *serial* version. [`SpeedTrace`] records exactly those points; the bench
//! binaries print them as CSV series for every speedup figure (5.6–5.15).
//!
//! A [`SpeedTrace`] is bounded: past 4 096 samples it coalesces adjacent
//! pairs, halving its resolution but never its span, so a week-long solve
//! cannot grow it without limit. The samples' photon total stays exact
//! through coalescing.

/// One batch sample of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeedSample {
    /// Elapsed time at the *end* of the batch (seconds; wall or virtual).
    pub elapsed: f64,
    /// Photons completed in this batch (across all processors).
    pub photons: u64,
    /// Instantaneous rate of this batch (photons/second).
    pub rate: f64,
}

/// Samples a [`SpeedTrace`] retains before coalescing adjacent pairs.
const SPEED_TRACE_CAP: usize = 4096;

/// Speed-vs-time trace of one run.
#[derive(Clone, Debug, Default)]
pub struct SpeedTrace {
    samples: Vec<SpeedSample>,
}

impl SpeedTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a batch that finished at `elapsed` seconds, having simulated
    /// `photons` photons in `batch_seconds`.
    ///
    /// When the trace reaches 4 096 samples, adjacent pairs are merged
    /// (summed photons and durations, the later endpoint), halving
    /// resolution while keeping the full time span and the exact photon
    /// total — a long-lived solve's trace stays a fixed size.
    pub fn push_batch(&mut self, elapsed: f64, photons: u64, batch_seconds: f64) {
        let rate = if batch_seconds > 0.0 {
            photons as f64 / batch_seconds
        } else {
            0.0
        };
        if self.samples.len() >= SPEED_TRACE_CAP {
            self.coalesce();
        }
        self.samples.push(SpeedSample {
            elapsed,
            photons,
            rate,
        });
    }

    /// Merges adjacent sample pairs in place, halving the sample count.
    /// Each merged sample covers both batches: photons add, the batch
    /// durations (reconstructed as `photons / rate`) add to form the new
    /// rate, and the later batch's endpoint carries over.
    fn coalesce(&mut self) {
        let mut merged = Vec::with_capacity(self.samples.len().div_ceil(2));
        for pair in self.samples.chunks(2) {
            if pair.len() == 1 {
                merged.push(pair[0]);
                continue;
            }
            let (a, b) = (pair[0], pair[1]);
            let photons = a.photons + b.photons;
            let seconds = [a, b]
                .iter()
                .map(|s| {
                    if s.rate > 0.0 {
                        s.photons as f64 / s.rate
                    } else {
                        0.0
                    }
                })
                .sum::<f64>();
            let rate = if seconds > 0.0 {
                photons as f64 / seconds
            } else {
                0.0
            };
            merged.push(SpeedSample {
                elapsed: b.elapsed,
                photons,
                rate,
            });
        }
        self.samples = merged;
    }

    /// All samples.
    pub fn samples(&self) -> &[SpeedSample] {
        &self.samples
    }

    /// Total elapsed time (end of last batch), or 0 for an empty trace.
    pub fn total_elapsed(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.elapsed)
    }

    /// Steady-state rate: mean of the last half of the samples (skips
    /// startup/load-balance transients).
    pub fn steady_rate(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let half = &self.samples[self.samples.len() / 2..];
        half.iter().map(|s| s.rate).sum::<f64>() / half.len() as f64
    }

    /// CSV rows `elapsed,rate,photons` (header not included).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&format!("{:.6},{:.3},{}\n", s.elapsed, s.rate, s.photons));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(rates: &[(f64, u64, f64)]) -> SpeedTrace {
        let mut t = SpeedTrace::new();
        for &(e, p, s) in rates {
            t.push_batch(e, p, s);
        }
        t
    }

    #[test]
    fn rates_are_computed_per_batch() {
        let t = trace(&[(1.0, 500, 1.0), (3.0, 500, 2.0)]);
        assert_eq!(t.samples()[0].rate, 500.0);
        assert_eq!(t.samples()[1].rate, 250.0);
        assert_eq!(t.total_elapsed(), 3.0);
    }

    #[test]
    fn steady_rate_skips_warmup() {
        let t = trace(&[
            (1.0, 10, 1.0),
            (2.0, 100, 1.0),
            (3.0, 100, 1.0),
            (4.0, 100, 1.0),
        ]);
        assert_eq!(t.steady_rate(), 100.0);
    }

    #[test]
    fn cap_coalesces_but_keeps_totals_exact() {
        let mut t = SpeedTrace::new();
        let n = (SPEED_TRACE_CAP * 3) as u64;
        for i in 0..n {
            // Odd photon counts so any lossy accounting would show up.
            t.push_batch((i + 1) as f64 * 0.5, 3 * i + 1, 0.5);
        }
        assert!(t.samples().len() <= SPEED_TRACE_CAP);
        let exact: u64 = (0..n).map(|i| 3 * i + 1).sum();
        // The sum of per-sample photons stays exact (merging adds).
        assert_eq!(t.samples().iter().map(|s| s.photons).sum::<u64>(), exact);
        // The span survives: last endpoint is the last batch's.
        assert_eq!(t.total_elapsed(), n as f64 * 0.5);
        // Samples stay time-ordered.
        assert!(t.samples().windows(2).all(|w| w[0].elapsed < w[1].elapsed));
        // Constant-rate input coalesces to the same constant rate.
        let mut c = SpeedTrace::new();
        for i in 0..(SPEED_TRACE_CAP as u64 + 10) {
            c.push_batch((i + 1) as f64, 1000, 1.0);
        }
        for s in c.samples() {
            assert!((s.rate - 1000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn csv_has_one_row_per_batch() {
        let t = trace(&[(1.0, 100, 1.0), (2.0, 100, 1.0)]);
        assert_eq!(t.to_csv().lines().count(), 2);
    }
}
