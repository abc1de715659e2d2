//! Service metrics: request latency percentiles, throughput, and solver
//! scheduler state, in the `perf` house style.
//!
//! The simulator's perf layer records speed-vs-time traces per batch
//! ([`SpeedTrace`]); the serving layer does the same with dispatch batches —
//! one sample per drained queue batch, rate in requests/second — and adds
//! the request-level accounting a service needs: completed/rendered/cache
//! splits and p50/p99 latency over the full run.
//!
//! The solve side reports through the same snapshot: attach a
//! [`SolverStatsSource`] (any `SolverPool`) with
//! [`ServiceMetrics::attach_solver`] and every [`MetricsSnapshot`] carries
//! a [`SolverMetricsSnapshot`] — queue depth, per-job photons/sec and
//! epochs/sec, and slices granted per tenant — beside the render-side
//! latencies. That is the engine-level backpressure signal: when queue
//! depth grows while per-job photon rates fall, the solve tier is
//! saturated no matter how healthy the render latencies look.

use photon_core::obs::HistogramSnapshot;
use photon_core::{Histogram, SpeedTrace};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Latency distribution summary, milliseconds.
///
/// Percentiles are read from the bounded log-bucketed latency histogram
/// ([`photon_core::Histogram`]): each is the upper bound of the bucket
/// holding the nearest-rank sample, clamped to the exact max — within one
/// log-bucket of the exact statistic, at constant memory forever. `count`,
/// `mean_ms`, and `max_ms` are exact.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Requests measured.
    pub count: u64,
    /// Mean latency (exact).
    pub mean_ms: f64,
    /// Median latency (bucketed).
    pub p50_ms: f64,
    /// 90th-percentile latency (bucketed).
    pub p90_ms: f64,
    /// 99th-percentile latency (bucketed).
    pub p99_ms: f64,
    /// Worst observed latency (exact).
    pub max_ms: f64,
}

impl LatencySummary {
    /// Reads the summary off a histogram snapshot (microsecond samples).
    pub fn from_histogram(h: &HistogramSnapshot) -> Self {
        LatencySummary {
            count: h.count(),
            mean_ms: h.mean() / 1000.0,
            p50_ms: h.quantile(0.50) as f64 / 1000.0,
            p90_ms: h.quantile(0.90) as f64 / 1000.0,
            p99_ms: h.quantile(0.99) as f64 / 1000.0,
            max_ms: h.max as f64 / 1000.0,
        }
    }
}

/// Point-in-time copy of the service counters.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Requests answered (rendered, coalesced, or cache hits).
    pub completed: u64,
    /// Requests answered by actually rendering.
    pub rendered: u64,
    /// Requests answered from the view cache.
    pub cache_hits: u64,
    /// Requests answered by riding an identical render in the same batch.
    pub coalesced: u64,
    /// Dispatch batches drained.
    pub batches: u64,
    /// Completed requests per second of service uptime.
    pub qps: f64,
    /// View-cache entries currently live (after stale-epoch purging).
    pub cache_entries: u64,
    /// Stale-epoch cache keys purged when a fresher publish was observed.
    pub cache_purged: u64,
    /// Scenes the dispatcher is tracking freshest-seen epochs for —
    /// bounded by the scenes with live cache keys, so a long-lived service
    /// over many retired scenes stays flat (the `seen_epoch` leak
    /// regression watches this).
    pub seen_epoch_entries: u64,
    /// Streaming tier: epoch subscriptions and tile-delta traffic.
    pub stream: StreamMetricsSnapshot,
    /// Request latency distribution (read off `latency_hist`).
    pub latency: LatencySummary,
    /// The raw bounded latency histogram (microsecond buckets) — what
    /// exporters turn into Prometheus `le` buckets.
    pub latency_hist: HistogramSnapshot,
    /// Per-dispatch-batch rate trace (requests/second), perf style.
    pub speed: SpeedTrace,
    /// Solve-tier scheduler state, when a solver pool is attached via
    /// [`ServiceMetrics::attach_solver`]; empty otherwise.
    pub solver: SolverMetricsSnapshot,
}

/// What one scheduled solve job is doing right now.
#[derive(Clone, Debug)]
pub struct SolveJobMetrics {
    /// The job's pool-assigned id (`SolveJobId.0`).
    pub job: u64,
    /// The tenant the job was submitted under.
    pub tenant: String,
    /// Weighted-round-robin weight (slices granted per scheduling round).
    pub priority: u32,
    /// Scheduler state: `"queued"`, `"running"`, `"paused"`,
    /// `"quota-blocked"`, `"canceled"`, `"failed"` (its engine panicked),
    /// or `"done"`.
    pub state: &'static str,
    /// Photons emitted so far (including photons inherited from a resume
    /// checkpoint).
    pub emitted: u64,
    /// Photons this job inherited by resuming from a checkpoint (0 for a
    /// fresh solve). Quota accounting charges only `emitted` beyond these.
    pub resumed_photons: u64,
    /// The job's convergence target.
    pub target_photons: u64,
    /// Scheduler slices granted to this job so far.
    pub slices: u64,
    /// Snapshots published into the store so far.
    pub epochs: u64,
    /// Photons per second of solve time actually granted to this job.
    pub photons_per_sec: f64,
    /// Epochs published per second of granted solve time.
    pub epochs_per_sec: f64,
    /// Hot packed-node arena bytes of the job's forest after its latest
    /// slice (zero until the first slice reports).
    pub forest_node_bytes: u64,
    /// Cold leaf-statistics arena bytes of the job's forest.
    pub forest_leaf_bytes: u64,
    /// Leaf bins in the job's forest.
    pub forest_leaf_bins: u64,
}

/// Per-tenant scheduling and quota accounting.
#[derive(Clone, Debug)]
pub struct TenantMetrics {
    /// Tenant tag.
    pub tenant: String,
    /// Scheduler slices granted across the tenant's jobs.
    pub slices: u64,
    /// Photons emitted across the tenant's jobs.
    pub photons_used: u64,
    /// Photon budget still grantable; `None` means unlimited.
    pub budget_remaining: Option<u64>,
    /// Jobs currently parked because the budget ran out.
    pub quota_blocked_jobs: u64,
}

/// Point-in-time copy of a solver pool's scheduler state.
#[derive(Clone, Debug, Default)]
pub struct SolverMetricsSnapshot {
    /// Jobs runnable but waiting for a worker slice (the backpressure
    /// signal: persistent depth means the pool is oversubscribed).
    pub queue_depth: u64,
    /// Jobs currently holding a worker slice.
    pub running: u64,
    /// Jobs paused by their owner.
    pub paused: u64,
    /// Jobs parked on an exhausted tenant photon budget.
    pub quota_blocked: u64,
    /// Jobs finished (converged, canceled or failed).
    pub done: u64,
    /// Engine checkpoints the pool has taken (on pause, cancel, shutdown,
    /// or on demand via `SolveHandle::checkpoint`).
    pub checkpoints_taken: u64,
    /// Total `PHOTCK1`-encoded bytes of those checkpoints — the migration
    /// payload a pool handoff would ship.
    pub checkpoint_bytes: u64,
    /// Hot packed-node arena bytes summed over every job's forest (the
    /// solve tier's resident traversal working set).
    pub forest_node_bytes: u64,
    /// Cold leaf-statistics arena bytes summed over every job's forest.
    pub forest_leaf_bytes: u64,
    /// Leaf bins summed over every job's forest.
    pub forest_leaf_bins: u64,
    /// Per-job progress and rates, in submission order.
    pub jobs: Vec<SolveJobMetrics>,
    /// Per-tenant slice/quota accounting, sorted by tenant tag.
    pub tenants: Vec<TenantMetrics>,
}

/// Point-in-time copy of the streaming (epoch-subscription) counters.
///
/// "Bytes" count raw pixel payload (`pixel count × size_of::<Rgb>()`),
/// ignoring per-tile headers — the quantity a transport would dominate on.
/// `full_frame_bytes` is what a frame-per-epoch protocol would have
/// shipped for the same deltas, so the difference is the bandwidth the
/// tile diffing saved.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamMetricsSnapshot {
    /// Live subscriptions (dropped handles leave on their next delta).
    pub subscribers: u64,
    /// Frame deltas pushed to subscribers.
    pub deltas: u64,
    /// Changed tiles shipped across all deltas.
    pub tiles: u64,
    /// Pixel payload bytes actually shipped (changed tiles only).
    pub tile_bytes: u64,
    /// Pixel payload bytes a whole-frame-per-epoch protocol would ship.
    pub full_frame_bytes: u64,
    /// Epoch deltas coalesced into a squashed delivery instead of being
    /// delivered individually — the slow-consumer policy at work.
    pub deltas_squashed: u64,
    /// Times a subscriber crossed its send window into the lagging state
    /// (each lag episode counts once, however many deltas it squashes).
    pub lag_events: u64,
    /// `PHOTSTRM1` frames sent over TCP by the stream server.
    pub wire_deltas: u64,
    /// Encoded bytes those frames put on the wire (length prefix included).
    pub wire_bytes: u64,
}

impl StreamMetricsSnapshot {
    /// Bandwidth saved by shipping deltas instead of full frames.
    pub fn bytes_saved(&self) -> u64 {
        self.full_frame_bytes.saturating_sub(self.tile_bytes)
    }
}

/// Anything that can report solver scheduler state — implemented by
/// `SolverPool`'s shared scheduler so a `RenderService` can surface the
/// solve tier inside its own [`MetricsSnapshot`].
pub trait SolverStatsSource: Send + Sync {
    /// Current scheduler state.
    fn solver_snapshot(&self) -> SolverMetricsSnapshot;
}

#[derive(Default)]
struct Inner {
    completed: u64,
    rendered: u64,
    cache_hits: u64,
    coalesced: u64,
    batches: u64,
    cache_entries: u64,
    cache_purged: u64,
    seen_epoch_entries: u64,
    stream: StreamMetricsSnapshot,
    speed: SpeedTrace,
    solver: Option<Arc<dyn SolverStatsSource>>,
}

/// Shared metrics sink written by the dispatcher, read by anyone.
///
/// Memory is bounded by construction: latencies go into a fixed-size
/// log-bucketed [`Histogram`] (not a growing `Vec`), and the per-batch
/// [`SpeedTrace`] coalesces past [`photon_core::SPEED_TRACE_CAP`] samples
/// — a service that answers a billion requests holds the same metrics
/// footprint as one that answered a thousand.
pub struct ServiceMetrics {
    start: Instant,
    // Lock-free: recorded outside the counter mutex on the hot path.
    latency: Histogram,
    inner: Mutex<Inner>,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Fresh metrics anchored at "now".
    pub fn new() -> Self {
        ServiceMetrics {
            start: Instant::now(),
            latency: Histogram::new(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Attaches a solver pool so snapshots include the solve-tier
    /// scheduler state beside the render-side counters.
    pub fn attach_solver(&self, source: Arc<dyn SolverStatsSource>) {
        self.inner.lock().unwrap().solver = Some(source);
    }

    /// Records the view cache's live entry count and how many stale-epoch
    /// keys the dispatcher just purged.
    pub fn record_cache(&self, entries: u64, purged: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.cache_entries = entries;
        inner.cache_purged += purged;
    }

    /// Records the dispatcher's per-scene epoch-tracking map size (the
    /// `seen_epoch` bound regression watches this gauge).
    pub fn record_epoch_map(&self, entries: u64) {
        self.inner.lock().unwrap().seen_epoch_entries = entries;
    }

    /// Records the current live-subscription count.
    pub fn record_subscribers(&self, count: u64) {
        self.inner.lock().unwrap().stream.subscribers = count;
    }

    /// Records one frame delta pushed to a subscriber: how many changed
    /// tiles it carried, their pixel payload bytes, and what a full frame
    /// of that view would have cost instead.
    pub fn record_delta(&self, tiles: u64, tile_bytes: u64, full_frame_bytes: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.stream.deltas += 1;
        inner.stream.tiles += tiles;
        inner.stream.tile_bytes += tile_bytes;
        inner.stream.full_frame_bytes += full_frame_bytes;
    }

    /// Records one epoch delta coalesced into a lagging subscriber's
    /// pending squash instead of being delivered. `lag_transition` is true
    /// when this fold *started* a lag episode (the subscriber just crossed
    /// its send window).
    pub fn record_squash(&self, lag_transition: bool) {
        let mut inner = self.inner.lock().unwrap();
        inner.stream.deltas_squashed += 1;
        if lag_transition {
            inner.stream.lag_events += 1;
        }
    }

    /// Records one `PHOTSTRM1` frame sent over TCP and its on-wire size.
    pub fn record_wire(&self, bytes: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.stream.wire_deltas += 1;
        inner.stream.wire_bytes += bytes;
    }

    /// Records one answered request and how it was satisfied. The latency
    /// lands in the bounded histogram without taking the counter lock.
    pub fn record_request(&self, latency: Duration, outcome: RequestOutcome) {
        self.latency.record(latency.as_micros() as u64);
        let mut inner = self.inner.lock().unwrap();
        inner.completed += 1;
        match outcome {
            RequestOutcome::Rendered => inner.rendered += 1,
            RequestOutcome::CacheHit => inner.cache_hits += 1,
            RequestOutcome::Coalesced => inner.coalesced += 1,
        }
    }

    /// Records one drained dispatch batch of `requests`, taking
    /// `batch_seconds` to serve.
    pub fn record_batch(&self, requests: u64, batch_seconds: f64) {
        let elapsed = self.start.elapsed().as_secs_f64();
        let mut inner = self.inner.lock().unwrap();
        inner.batches += 1;
        inner.speed.push_batch(elapsed, requests, batch_seconds);
    }

    /// Snapshots every counter.
    ///
    /// All service counters are copied in ONE critical section, so the
    /// snapshot can never tear (e.g. observe a delta's `tiles` without its
    /// `tile_bytes`). The solver source is cloned inside that same section
    /// but its `solver_snapshot()` — which takes the scheduler's own lock
    /// — runs strictly after the counter lock is released, so the two
    /// locks are never nested and a solver that reports back into these
    /// metrics cannot deadlock.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let uptime = self.start.elapsed().as_secs_f64();
        let latency_hist = self.latency.snapshot();
        let (mut snap, solver_source) = {
            let inner = self.inner.lock().unwrap();
            (
                MetricsSnapshot {
                    completed: inner.completed,
                    rendered: inner.rendered,
                    cache_hits: inner.cache_hits,
                    coalesced: inner.coalesced,
                    batches: inner.batches,
                    qps: if uptime > 0.0 {
                        inner.completed as f64 / uptime
                    } else {
                        0.0
                    },
                    cache_entries: inner.cache_entries,
                    cache_purged: inner.cache_purged,
                    seen_epoch_entries: inner.seen_epoch_entries,
                    stream: inner.stream,
                    latency: LatencySummary::from_histogram(&latency_hist),
                    latency_hist,
                    speed: inner.speed.clone(),
                    solver: SolverMetricsSnapshot::default(),
                },
                inner.solver.clone(),
            )
        };
        if let Some(source) = solver_source {
            snap.solver = source.solver_snapshot();
        }
        snap
    }
}

/// How a request was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// A fresh tile-parallel render.
    Rendered,
    /// Served from the LRU view cache.
    CacheHit,
    /// Shared an identical render within one dispatch batch.
    Coalesced,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_read_off_the_bounded_histogram() {
        // 1..=100 ms in microseconds.
        let m = ServiceMetrics::new();
        for ms in 1..=100u64 {
            m.record_request(Duration::from_millis(ms), RequestOutcome::Rendered);
        }
        let s = m.snapshot().latency;
        assert_eq!(s.count, 100);
        // Exact aggregates stay exact.
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        // Bucketed percentiles are ≥ the exact nearest-rank value and
        // within the same log2 bucket (exact p50 = 50 ms → bucket upper
        // bound 65.535 ms; exact p99 = 99 ms → clamped to max).
        assert_eq!(s.p50_ms, 65.535);
        assert_eq!(s.p90_ms, 100.0);
        assert_eq!(s.p99_ms, 100.0);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = ServiceMetrics::new().snapshot().latency;
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ms, 0.0);
    }

    #[test]
    fn stream_tier_accumulates_deltas_and_saved_bytes() {
        let m = ServiceMetrics::new();
        m.record_subscribers(2);
        m.record_epoch_map(3);
        // Two deltas over a 100-pixel frame (2400 payload bytes each):
        // one shipping 1 tile / 600 bytes, one shipping nothing.
        m.record_delta(1, 600, 2400);
        m.record_delta(0, 0, 2400);
        let s = m.snapshot();
        assert_eq!(s.seen_epoch_entries, 3);
        assert_eq!(s.stream.subscribers, 2);
        assert_eq!(s.stream.deltas, 2);
        assert_eq!(s.stream.tiles, 1);
        assert_eq!(
            (s.stream.tile_bytes, s.stream.full_frame_bytes),
            (600, 4800)
        );
        assert_eq!(s.stream.bytes_saved(), 4200);
    }

    #[test]
    fn squash_and_wire_counters_accumulate() {
        let m = ServiceMetrics::new();
        m.record_squash(true);
        m.record_squash(false);
        m.record_squash(false);
        m.record_wire(100);
        m.record_wire(44);
        let s = m.snapshot().stream;
        assert_eq!((s.deltas_squashed, s.lag_events), (3, 1));
        assert_eq!((s.wire_deltas, s.wire_bytes), (2, 144));
    }

    #[test]
    fn outcomes_split_the_counters() {
        let m = ServiceMetrics::new();
        m.record_request(Duration::from_millis(2), RequestOutcome::Rendered);
        m.record_request(Duration::from_millis(1), RequestOutcome::CacheHit);
        m.record_request(Duration::from_millis(1), RequestOutcome::Coalesced);
        m.record_batch(3, 0.004);
        let s = m.snapshot();
        assert_eq!(s.completed, 3);
        assert_eq!((s.rendered, s.cache_hits, s.coalesced), (1, 1, 1));
        assert_eq!(s.batches, 1);
        assert_eq!(s.speed.total_photons(), 3); // "photons" are requests here
        assert!(s.qps > 0.0);
    }
}
