//! Service metrics: the typed read of the service counters, request
//! latency percentiles, throughput, and solver scheduler state.
//!
//! There is one metric system: the render service, its stream mailboxes
//! and the TCP stream writers count into the store's shared
//! [`ObsHub`] (one row of the [`Counter`] table per number, plus the
//! request-latency histogram). A [`MetricsSnapshot`] is a read of that hub
//! ([`MetricsSnapshot::read`]): completed/rendered/cache splits, stream
//! traffic, and p50/p99 latency over the full run.
//!
//! The solve side reports through the same snapshot: attach a
//! [`SolverStatsSource`] (any `SolverPool`) with [`attach_solver`] and
//! every [`MetricsSnapshot`] carries a [`SolverMetricsSnapshot`] — queue
//! depth, per-job photons/sec and epochs/sec, and slices granted per
//! tenant — beside the render-side latencies. That is the engine-level
//! backpressure signal: when queue depth grows while per-job photon rates
//! fall, the solve tier is saturated no matter how healthy the render
//! latencies look.

use photon_core::obs::{Counter, HistogramSnapshot};
use photon_core::ObsHub;
use std::sync::{Arc, Weak};
use std::time::Instant;

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
    /// Solve-tier scheduler state, when a solver pool is attached via
    /// [`attach_solver`]; empty otherwise.
    pub solver: SolverMetricsSnapshot,
}

impl MetricsSnapshot {
    /// Reads the service counters off `hub`.
    ///
    /// Every counter is copied in ONE critical section, so the snapshot
    /// can never tear (e.g. observe a delta's `tiles` without its
    /// `tile_bytes`). The attached solver source is consulted strictly
    /// after that lock is released: its `solver_snapshot()` takes the
    /// scheduler's own lock, so the two are never nested and a source that
    /// records back into the hub cannot deadlock.
    pub fn read(hub: &ObsHub) -> Self {
        let latency_hist = hub.latency_snapshot();
        let (values, attached) = hub.counters();
        let attached = attached
            .as_deref()
            .and_then(|a| a.downcast_ref::<Attachment>());
        let get = |counter: Counter| values[counter.index()];
        let completed = get(Counter::Rendered) + get(Counter::CacheHits) + get(Counter::Coalesced);
        let uptime = attached.and_then(|a| Some(a.started?.elapsed().as_secs_f64()));
        let uptime = uptime.filter(|&seconds| seconds > 0.0);
        let solver = attached.and_then(|a| a.solver.as_ref()?.upgrade());
        MetricsSnapshot {
            completed,
            rendered: get(Counter::Rendered),
            cache_hits: get(Counter::CacheHits),
            coalesced: get(Counter::Coalesced),
            batches: get(Counter::Batches),
            qps: uptime.map_or(0.0, |uptime| completed as f64 / uptime),
            cache_entries: get(Counter::CacheEntries),
            cache_purged: get(Counter::CachePurged),
            seen_epoch_entries: get(Counter::SeenEpochEntries),
            stream: StreamMetricsSnapshot {
                subscribers: get(Counter::Subscribers),
                deltas: get(Counter::Deltas),
                tiles: get(Counter::Tiles),
                tile_bytes: get(Counter::TileBytes),
                full_frame_bytes: get(Counter::FullFrameBytes),
                deltas_squashed: get(Counter::DeltasSquashed),
                lag_events: get(Counter::LagEvents),
                wire_deltas: get(Counter::WireDeltas),
                wire_bytes: get(Counter::WireBytes),
            },
            latency: LatencySummary::from_histogram(&latency_hist),
            latency_hist,
            solver: solver.map(|s| s.solver_snapshot()).unwrap_or_default(),
        }
    }
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

/// What the serve tier hangs on its hub beside the counters.
#[derive(Clone, Default)]
struct Attachment {
    /// When the first service started over the hub: `qps`'s denominator.
    started: Option<Instant>,
    /// The attached solver pool. Held weakly: the pool records into this
    /// hub, so a strong reference would keep both alive forever.
    solver: Option<Weak<dyn SolverStatsSource>>,
}

/// Replaces `hub`'s attachment with a changed copy, under its lock.
fn update(hub: &ObsHub, change: impl FnOnce(&mut Attachment)) {
    hub.attach(|current| {
        let current = current.and_then(|a| a.downcast_ref::<Attachment>());
        let mut attachment = current.cloned().unwrap_or_default();
        change(&mut attachment);
        Arc::new(attachment)
    });
}

/// Starts `hub`'s uptime, unless a service already started over it.
pub(crate) fn start_serving(hub: &ObsHub) {
    update(hub, |a| {
        a.started.get_or_insert_with(Instant::now);
    });
}

/// Attaches a solver pool's scheduler (see `SolverPool::stats_source`) to
/// `hub`, so every [`MetricsSnapshot`] read off it carries the solve
/// tier's queue depth, per-job rates, and per-tenant slice accounting —
/// exporters built before the attach included. The hub does not keep the
/// pool alive: once the pool is gone, snapshots carry an empty solver.
pub fn attach_solver(hub: &ObsHub, source: Arc<dyn SolverStatsSource>) {
    update(hub, |a| a.solver = Some(Arc::downgrade(&source)));
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

impl RequestOutcome {
    /// The counter a request answered this way adds to.
    pub fn counter(self) -> Counter {
        match self {
            RequestOutcome::Rendered => Counter::Rendered,
            RequestOutcome::CacheHit => Counter::CacheHits,
            RequestOutcome::Coalesced => Counter::Coalesced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// What the dispatcher records for one answered request.
    fn request(hub: &ObsHub, latency: Duration, outcome: RequestOutcome) {
        hub.latency(latency);
        hub.count(&[(outcome.counter(), 1)]);
    }

    /// What a stream mailbox records for one delivered delta.
    fn delta(hub: &ObsHub, tiles: u64, tile_bytes: u64, full_frame_bytes: u64) {
        hub.count(&[
            (Counter::Deltas, 1),
            (Counter::Tiles, tiles),
            (Counter::TileBytes, tile_bytes),
            (Counter::FullFrameBytes, full_frame_bytes),
        ]);
    }

    #[test]
    fn percentiles_read_off_the_bounded_histogram() {
        // 1..=100 ms in microseconds.
        let hub = ObsHub::default();
        for ms in 1..=100u64 {
            request(&hub, Duration::from_millis(ms), RequestOutcome::Rendered);
        }
        let s = MetricsSnapshot::read(&hub).latency;
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
        let s = MetricsSnapshot::read(&ObsHub::default()).latency;
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ms, 0.0);
    }

    #[test]
    fn stream_tier_accumulates_deltas_and_saved_bytes() {
        let hub = ObsHub::default();
        hub.set(Counter::Subscribers, 2);
        hub.set(Counter::SeenEpochEntries, 3);
        // Two deltas over a 100-pixel frame (2400 payload bytes each):
        // one shipping 1 tile / 600 bytes, one shipping nothing.
        delta(&hub, 1, 600, 2400);
        delta(&hub, 0, 0, 2400);
        let s = MetricsSnapshot::read(&hub);
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
        let hub = ObsHub::default();
        hub.count(&[(Counter::DeltasSquashed, 1), (Counter::LagEvents, 1)]);
        hub.count(&[(Counter::DeltasSquashed, 1)]);
        hub.count(&[(Counter::DeltasSquashed, 1)]);
        hub.count(&[(Counter::WireDeltas, 1), (Counter::WireBytes, 100)]);
        hub.count(&[(Counter::WireDeltas, 1), (Counter::WireBytes, 44)]);
        let s = MetricsSnapshot::read(&hub).stream;
        assert_eq!((s.deltas_squashed, s.lag_events), (3, 1));
        assert_eq!((s.wire_deltas, s.wire_bytes), (2, 144));
    }

    #[test]
    fn outcomes_split_the_counters() {
        let hub = ObsHub::default();
        start_serving(&hub);
        request(&hub, Duration::from_millis(2), RequestOutcome::Rendered);
        request(&hub, Duration::from_millis(1), RequestOutcome::CacheHit);
        request(&hub, Duration::from_millis(1), RequestOutcome::Coalesced);
        hub.count(&[(Counter::Batches, 1)]);
        let s = MetricsSnapshot::read(&hub);
        assert_eq!(s.completed, 3);
        assert_eq!((s.rendered, s.cache_hits, s.coalesced), (1, 1, 1));
        assert_eq!(s.batches, 1);
        assert!(s.qps > 0.0);
    }
}
