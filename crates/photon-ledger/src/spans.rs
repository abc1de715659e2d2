//! Harness-side spans: who called which layer, when, and for how long.
//!
//! The traced run wraps each call into a layer's public functions in a
//! [`span`]. Spans nest per thread (the innermost open span on the calling
//! thread is the parent), live in memory for the whole run, and are written
//! out once at exit. With tracing off — every timed run — [`span`] is one
//! relaxed atomic load and records nothing.
//!
//! A layer's **self time** is its spans' duration minus the part of each
//! interval its child spans cover ([`self_times`]).

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the run, in opening order.
    pub id: u64,
    /// The span open on the same thread when this one began.
    pub parent: Option<u64>,
    /// `layer.operation`, e.g. `par.step`.
    pub name: &'static str,
    /// Start, microseconds since tracing was enabled.
    pub start_us: f64,
    /// End, same clock.
    pub end_us: f64,
    /// Round or epoch the call belonged to, where one applies.
    pub round: Option<u64>,
}

// Relaxed everywhere: the flag publishes no data (spans travel through the
// mutex), and ids only need to be distinct.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static ORIGIN: OnceLock<Instant> = OnceLock::new();
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// True once [`enable`] ran.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct SpanGuard(Option<OpenSpan>);

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    round: Option<u64>,
    start: Instant,
}

/// Opens a span named `name` (no-op unless tracing is enabled).
pub fn span(name: &'static str) -> SpanGuard {
    open(name, None)
}

/// Opens a span tagged with the round or epoch it serves.
pub fn span_round(name: &'static str, round: u64) -> SpanGuard {
    open(name, Some(round))
}

fn open(name: &'static str, round: Option<u64>) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    SpanGuard(Some(OpenSpan {
        id,
        parent,
        name,
        round,
        start: Instant::now(),
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end = Instant::now();
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(at) = stack.iter().rposition(|id| *id == open.id) {
                stack.truncate(at);
            }
        });
        let origin = *ORIGIN.get().expect("enable() set the origin");
        let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        // A poisoned lock only means another thread panicked mid-push; the
        // vector is still a valid list of spans, and Drop must not panic.
        let mut finished = FINISHED.lock().unwrap_or_else(|e| e.into_inner());
        finished.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_us: us(open.start),
            end_us: us(end),
            round: open.round,
        });
    }
}

/// Removes and returns every finished span, in opening order.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *FINISHED.lock().unwrap_or_else(|e| e.into_inner()));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, µs.
    pub total_us: f64,
    /// Sum of their self times (duration minus child coverage), µs.
    pub self_us: f64,
}

/// Self time of one span: its duration minus the part of its interval that
/// `children` (any order, may overlap each other or stick out) cover.
pub fn self_time_us(span: &Span, children: &[&Span]) -> f64 {
    let mut intervals: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = span.start_us;
    for (a, b) in intervals {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    (span.end_us - span.start_us) - covered
}

/// Totals and self times grouped by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push(span);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for span in spans {
        let kids = children.get(&span.id).map_or(&[][..], Vec::as_slice);
        let totals = out.entry(span.name).or_default();
        totals.count += 1;
        totals.total_us += span.end_us - span.start_us;
        totals.self_us += self_time_us(span, kids);
    }
    out
}

/// The span file: `{workload, spans: [{id, parent, name, start_us, end_us,
/// round}]}`.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("id", Json::Num(s.id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("name", Json::str(s.name)),
                            ("start_us", Json::Num(s.start_us)),
                            ("end_us", Json::Num(s.end_us)),
                            ("round", s.round.map_or(Json::Null, |r| Json::Num(r as f64))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u64, parent: Option<u64>, name: &'static str, a: f64, b: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start_us: a,
            end_us: b,
            round: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = mk(1, None, "p", 0.0, 100.0);
        let a = mk(2, Some(1), "c", 10.0, 30.0);
        let b = mk(3, Some(1), "c", 20.0, 50.0); // overlaps a: union is 10..50
        let c = mk(4, Some(1), "c", 90.0, 120.0); // sticks out: only 90..100 counts
        assert_eq!(self_time_us(&parent, &[&a, &b, &c]), 100.0 - 40.0 - 10.0);
        assert_eq!(self_time_us(&parent, &[]), 100.0);
        let outside = mk(5, Some(1), "c", 200.0, 300.0);
        assert_eq!(self_time_us(&parent, &[&outside]), 100.0);
    }

    #[test]
    fn totals_group_by_name_and_nest() {
        let spans = vec![
            mk(1, None, "step", 0.0, 100.0),
            mk(2, Some(1), "publish", 60.0, 90.0),
            mk(3, Some(2), "render", 70.0, 80.0),
            mk(4, None, "step", 100.0, 150.0),
        ];
        let totals = self_times(&spans);
        assert_eq!(
            totals["step"],
            NameTotals {
                count: 2,
                total_us: 150.0,
                self_us: 70.0 + 50.0
            }
        );
        assert_eq!(totals["publish"].self_us, 20.0);
        assert_eq!(totals["render"].self_us, 10.0);
        // Self times partition the root spans' wall time.
        let all_self: f64 = totals.values().map(|t| t.self_us).sum();
        assert_eq!(all_self, 150.0);
    }

    #[test]
    fn disabled_spans_record_nothing_and_enabled_spans_nest() {
        // The only test that touches the process-wide recorder.
        assert!(!enabled());
        drop(span("off"));
        assert!(take().is_empty());
        enable();
        {
            let _outer = span_round("outer", 7);
            let _inner = span("inner");
        }
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].round), ("outer", Some(7)));
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[1].start_us >= spans[0].start_us && spans[1].end_us <= spans[0].end_us);
        let text = to_json("w", &spans).render();
        assert!(text.contains("\"name\":\"inner\""));
    }
}
