//! `ledger compare a.json b.json`: the rule that turns two sets of runs
//! into a verdict per (metric, workload).
//!
//! `a` is the base (the parent commit, or the first set of runs of the same
//! code), `b` the candidate. For each end-to-end metric on each workload:
//! both medians and quartiles, the ratio `b ÷ a`, and one of
//!
//! * **regression** — `b`'s median is worse than `a`'s by more than the
//!   metric's bound;
//! * **unresolved** — not a regression, but either side's run-to-run spread
//!   exceeds the bound, so "unchanged" cannot be claimed — unless every run
//!   of `b` reads better than every run of `a`;
//! * **ok** — within the bound, with spreads that can resolve it.
//!
//! A higher share of failed operations in `b` fails the comparison too.

use crate::json::Json;
use crate::spec::{Better, MetricSpec, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;

/// What the comparison concluded for one (metric, workload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound and resolvable.
    Ok,
    /// Worse than the bound allows.
    Regression,
    /// Spread wider than the bound; neither "same" nor "worse" can be said.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the rule to one metric's two sets of values.
pub fn verdict(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > metric.bound || worse_by.is_nan() {
        return Verdict::Regression;
    }
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > metric.bound);
    if wide(a) || wide(b) {
        let every_b_better = b.iter().all(|y| {
            a.iter().all(|x| match metric.better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        if !every_b_better {
            return Verdict::Unresolved;
        }
    }
    Verdict::Ok
}

/// One side of a comparison: values per (workload, metric), and the
/// operation totals.
#[derive(Debug, Default, PartialEq)]
pub struct RunSet {
    /// `values[(workload, metric)]`, one entry per run.
    pub values: BTreeMap<(String, String), Vec<f64>>,
    /// Operations attempted over all runs.
    pub attempted: f64,
    /// Operations failed over all runs.
    pub failed: f64,
}

impl RunSet {
    /// Reads a `ledger run --out` file.
    pub fn from_json(doc: &Json) -> Result<RunSet, String> {
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("no `runs` array")?;
        let mut set = RunSet::default();
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("run without `workload`")?;
            set.attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            set.failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            let metrics = run
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("run without `metrics`")?;
            for (name, value) in metrics {
                if let Some(v) = value.as_f64() {
                    set.values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
        Ok(set)
    }

    fn failed_share(&self) -> f64 {
        if self.attempted > 0.0 {
            self.failed / self.attempted
        } else {
            0.0
        }
    }
}

/// The comparison table and whether it passes.
pub struct Comparison {
    /// One printable row per (metric, workload) present on both sides.
    pub rows: Vec<String>,
    /// Pairs marked regression.
    pub regressions: usize,
    /// Pairs marked unresolved.
    pub unresolved: usize,
    /// True when `b` failed a larger share of its operations than `a`.
    pub more_failures: bool,
}

impl Comparison {
    /// True when nothing regressed and `b` fails no more than `a`.
    pub fn passes(&self) -> bool {
        self.regressions == 0 && !self.more_failures
    }
}

/// Compares `b` against base `a` over every end-to-end metric and workload.
pub fn compare(a: &RunSet, b: &RunSet) -> Comparison {
    let mut out = Comparison {
        rows: Vec::new(),
        regressions: 0,
        unresolved: 0,
        more_failures: b.failed_share() > a.failed_share(),
    };
    let q = |v: &[f64]| match quartiles(v) {
        Some([q1, _, q3]) => format!("{:.5} [{:.5}, {:.5}]", median(v), q1, q3),
        None => format!("{:.5} [n=1]", median(v)),
    };
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let key = (workload.name.to_string(), metric.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let v = verdict(metric, va, vb);
            match v {
                Verdict::Regression => out.regressions += 1,
                Verdict::Unresolved => out.unresolved += 1,
                Verdict::Ok => {}
            }
            out.rows.push(format!(
                "{:<12} {:<32} a={} b={} b/a={:.4} (base a, {} better, bound {:.0}%, n={}/{}) {}",
                workload.name,
                metric.name,
                q(va),
                q(vb),
                median(vb) / median(va),
                metric.better.word(),
                metric.bound * 100.0,
                va.len(),
                vb.len(),
                v.word(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricSpec = MetricSpec {
        name: "t_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: MetricSpec = MetricSpec {
        better: Better::Higher,
        ..LOWER
    };

    #[test]
    fn within_bound_and_tight_is_ok() {
        let a = [100.0, 101.0, 99.0, 100.5, 100.2];
        let b = [104.0, 105.0, 103.0, 104.5, 104.2];
        assert_eq!(verdict(&LOWER, &a, &b), Verdict::Ok);
        assert_eq!(verdict(&HIGHER, &a, &b), Verdict::Ok);
    }

    #[test]
    fn median_past_the_bound_is_a_regression_in_the_metrics_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 100.2];
        let slower = [112.0, 113.0, 111.0, 112.5, 112.2];
        assert_eq!(verdict(&LOWER, &a, &slower), Verdict::Regression);
        // The same numbers are an improvement for a rate.
        assert_eq!(verdict(&HIGHER, &a, &slower), Verdict::Ok);
        assert_eq!(verdict(&HIGHER, &slower, &a), Verdict::Regression);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy_a = [100.0, 130.0, 80.0, 120.0, 90.0];
        let noisy_b = [101.0, 128.0, 82.0, 118.0, 92.0];
        assert_eq!(verdict(&LOWER, &noisy_a, &noisy_b), Verdict::Unresolved);
        // Every run of b beats every run of a: resolved in b's favour.
        let fast_b = [60.0, 70.0, 50.0, 65.0, 55.0];
        assert_eq!(verdict(&LOWER, &noisy_a, &fast_b), Verdict::Ok);
        // A tight base cannot rescue a noisy candidate.
        let tight_a = [100.0, 101.0, 99.0, 100.5, 100.2];
        assert_eq!(verdict(&LOWER, &tight_a, &noisy_b), Verdict::Unresolved);
    }

    fn file(values: &[f64], failed: f64) -> Json {
        Json::obj([(
            "runs",
            Json::Arr(
                values
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("workload", Json::str("cornell")),
                            ("attempted", Json::Num(100.0)),
                            ("failed", Json::Num(failed)),
                            ("metrics", Json::obj([("first_frame_ms", Json::Num(*v))])),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn files_compare_per_pair_and_failures_fail() {
        let a = RunSet::from_json(&file(&[50.0, 51.0, 49.0, 50.5, 50.2], 0.0)).unwrap();
        let same = RunSet::from_json(&file(&[50.1, 51.2, 49.3, 50.4, 50.0], 0.0)).unwrap();
        let c = compare(&a, &same);
        assert_eq!((c.rows.len(), c.regressions, c.unresolved), (1, 0, 0));
        assert!(c.passes() && c.rows[0].contains("b/a=") && c.rows[0].ends_with("ok"));

        let slow = RunSet::from_json(&file(&[70.0, 71.0, 69.0, 70.5, 70.2], 0.0)).unwrap();
        let c = compare(&a, &slow);
        assert!(!c.passes() && c.rows[0].ends_with("REGRESSION"));

        let flaky = RunSet::from_json(&file(&[50.1, 51.2, 49.3, 50.4, 50.0], 1.0)).unwrap();
        let c = compare(&a, &flaky);
        assert!(c.more_failures && !c.passes());
        assert!(RunSet::from_json(&Json::Null).is_err());
    }
}
