//! Adaptive batch sizing (ch. 5, Table 5.3).
//!
//! "Photon attempts to match batch size to communication medium. This is
//! accomplished by a growing batch size to maximize overall simulation
//! speed. Batch size starts with just 500 photons per processor and grows as
//! long as overall speed is increased. When a decrease in simulation speed
//! is detected, the batch size is reduced."
//!
//! The arithmetic of Table 5.3 (e.g. 500 → 750 → 1125 → 1687 → 1518 → 2277
//! on the Power Onyx) corresponds to growth ×1.5 and reduction ×0.9; the
//! running text says "15 percent", but the published sequence is consistent
//! with 10 % — we follow the numbers and make both knobs configurable.

/// Batch sizing policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchMode {
    /// Fixed photons per processor per batch.
    Fixed(u64),
    /// The paper's adaptive controller.
    Adaptive(AdaptiveBatch),
}

/// Adaptive controller parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveBatch {
    /// Initial photons per processor (paper: 500).
    pub initial: u64,
    /// Multiplier while speed keeps improving (paper sequence: 1.5).
    pub growth: f64,
    /// Multiplier after a slowdown (paper sequence: 0.9).
    pub shrink: f64,
    /// Relative dead band: rate changes within `±hysteresis` count as
    /// "no change" and keep the size (the plateaus of Table 5.3).
    pub hysteresis: f64,
    /// Hard ceiling to keep virtual batches bounded.
    pub max: u64,
}

impl Default for AdaptiveBatch {
    fn default() -> Self {
        AdaptiveBatch {
            initial: 500,
            growth: 1.5,
            shrink: 0.9,
            hysteresis: 0.02,
            max: 1 << 20,
        }
    }
}

/// Stateful batch-size controller; one instance per world (decisions depend
/// only on the synchronized virtual clock, so every rank would make the
/// same ones).
#[derive(Clone, Debug)]
pub struct BatchController {
    size: u64,
    params: AdaptiveBatch,
    last_rate: Option<f64>,
    history: Vec<u64>,
}

impl BatchController {
    /// Creates a controller with the paper's defaults.
    pub fn new(params: AdaptiveBatch) -> Self {
        BatchController {
            size: params.initial.max(1),
            params,
            last_rate: None,
            history: vec![params.initial.max(1)],
        }
    }

    /// Current photons per processor.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// All sizes used so far, in order (Table 5.3's columns).
    pub fn history(&self) -> &[u64] {
        &self.history
    }

    /// Feeds the measured rate (photons/second) of the batch that just ran;
    /// updates the size for the next batch.
    ///
    /// Grows while speed *increases*, shrinks on a *decrease*, and holds
    /// inside the hysteresis dead band — without the dead band every shrink
    /// "improves" on the slow batch that triggered it and the size ratchets
    /// upward forever.
    pub fn observe(&mut self, rate: f64) {
        let next = match self.last_rate {
            Some(last) if rate < last * (1.0 - self.params.hysteresis) => {
                ((self.size as f64 * self.params.shrink).round() as u64).max(1)
            }
            Some(last) if rate <= last * (1.0 + self.params.hysteresis) => self.size,
            _ => ((self.size as f64 * self.params.growth).round() as u64)
                .min(self.params.max)
                .max(1),
        };
        self.last_rate = Some(rate);
        self.size = next;
        self.history.push(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_table_5_3_prefix() {
        // Feed monotonically improving rates: 500, 750, 1125, 1687 — the
        // shared prefix of all three platform columns.
        let mut c = BatchController::new(AdaptiveBatch::default());
        assert_eq!(c.size(), 500);
        c.observe(1000.0);
        assert_eq!(c.size(), 750);
        c.observe(1100.0);
        assert_eq!(c.size(), 1125);
        c.observe(1200.0);
        assert_eq!(c.size(), 1688); // paper rounds to 1687; we round half up
        c.observe(1100.0); // slowdown
        assert_eq!(c.size(), 1519); // paper: 1518
    }

    #[test]
    fn settles_on_a_saturating_medium() {
        // A realistic medium: rate saturates as latency amortizes, with a
        // mild linear penalty for oversized batches (memory/copy costs) —
        // optimum near s = 2662. The controller must settle in that
        // neighbourhood (the hysteresis band freezes it near the plateau),
        // not run away to the cap.
        let mut c = BatchController::new(AdaptiveBatch::default());
        for _ in 0..40 {
            let s = c.size() as f64;
            let rate = 1e5 * s / (s + 500.0) - 5.0 * s;
            c.observe(rate.max(1.0));
        }
        let final_sizes = &c.history()[30..];
        let mean = final_sizes.iter().sum::<u64>() as f64 / final_sizes.len() as f64;
        assert!(
            (1500.0..6000.0).contains(&mean),
            "controller wandered: mean {mean}, history {:?}",
            c.history()
        );
        assert!(c.history().iter().all(|&s| s < 10_000), "{:?}", c.history());
    }

    #[test]
    fn respects_ceiling() {
        let mut c = BatchController::new(AdaptiveBatch {
            max: 1000,
            ..Default::default()
        });
        for _ in 0..10 {
            c.observe(f64::MAX); // always "faster"
        }
        assert!(c.size() <= 1000);
    }

    #[test]
    fn history_records_every_decision() {
        let mut c = BatchController::new(AdaptiveBatch::default());
        for i in 0..5 {
            c.observe(1000.0 + i as f64);
        }
        assert_eq!(c.history().len(), 6); // initial + 5 decisions
        assert_eq!(c.history()[0], 500);
    }
}
