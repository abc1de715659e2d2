//! Observability substrate: flight recorder, bounded histograms, stage
//! timings.
//!
//! The paper's whole methodology is measurement — speed-vs-time curves per
//! processor count — and a long-lived serving system needs the same
//! discipline turned inward: *what just happened, in what order, and how
//! long did each stage take?* This module is the shared vocabulary every
//! tier (solve, store, serve, stream, checkpoint) records into:
//!
//! | piece | what it is |
//! |-------|------------|
//! | [`FlightRecorder`] | lock-cheap bounded ring buffer of [`ObsEvent`]s — a post-mortem timeline of every lifecycle edge, filterable by scene/job/tenant/kind |
//! | [`Histogram`] | fixed-size log-bucketed latency histogram: constant memory forever, p50/p90/p99 within one bucket of exact, exact count/sum/max, mergeable |
//! | [`StageTimings`] | one histogram per pipeline [`Stage`] (cache probe, render, reshade, diff, reply, wire encode/write, solve slice, checkpoint freeze/encode/restore) |
//! | [`ObsHub`] | the `Arc`-shared bundle of all three that instrumented code records into |
//!
//! Everything here is bounded by construction: the recorder drops its
//! oldest event past capacity (counting the drops), and a histogram is 65
//! fixed buckets no matter how many values it absorbs — recording a
//! billion requests costs the same memory as recording ten.
//!
//! Recording is designed for hot paths: histogram recording is three
//! relaxed atomic operations (no lock at all), and a flight-recorder event
//! takes one short mutex hold to push into the ring.

pub use crate::json::json_escape;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of histogram buckets: bucket `i` holds values whose bit length
/// is `i`, i.e. bucket 0 is exactly `{0}` and bucket `i ≥ 1` covers
/// `[2^(i-1), 2^i - 1]`. 64-bit values need 65 buckets.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Log-bucket index of `v`: its bit length.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-size log-bucketed histogram of `u64` samples (microseconds by
/// convention), recordable from any thread without locking.
///
/// Memory is constant: [`HISTOGRAM_BUCKETS`] atomic counters plus an exact
/// sum and an exact max, no matter how many samples are recorded — the
/// replacement for the unbounded `Vec<u64>` a long-lived service cannot
/// afford. Quantiles read from the buckets land within the reporting
/// bucket's width of the exact nearest-rank statistic (see
/// [`HistogramSnapshot::quantile`]).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample — three relaxed atomics, no lock.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in seconds as whole microseconds.
    pub fn record_seconds(&self, seconds: f64) {
        self.record((seconds.max(0.0) * 1e6) as u64);
    }

    /// A point-in-time copy of the buckets and exact aggregates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: plain counters, mergeable,
/// and the thing quantiles are read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sample count per log bucket (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Exact sum of all recorded samples.
    pub sum: u64,
    /// Exact largest recorded sample (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Exact mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Nearest-rank quantile estimate from the buckets, `q` in `[0, 1]`.
    ///
    /// Returns the upper bound of the bucket holding the nearest-rank
    /// sample, clamped to the exact max — so the estimate is always `≥`
    /// the exact statistic and within the same log bucket (one
    /// bucket-width). The property test in `obs_prop.rs` pins this down.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`. Merging snapshots is exactly equivalent
    /// to having recorded both sample streams into one histogram. Counts
    /// and sums saturate rather than wrap — a merged aggregate pinned at
    /// `u64::MAX` reads as "astronomical", not as a small number again.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// `(inclusive upper bound, cumulative count)` per non-empty bucket,
    /// in ascending order — what a Prometheus exposition's cumulative
    /// `le` buckets are built from.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                cum += n;
                out.push((bucket_upper(i), cum));
            }
        }
        out
    }
}

/// Declares one observability vocabulary — [`Stage`] or [`ObsKind`] — from
/// a single table of `doc comment, Variant = "kebab-name", tier` rows. The
/// enum, the array of every variant in declaration order (its length
/// counted, not written), `name()`, `tier()` and the discriminant `index()`
/// are all derived from the rows, so a variant cannot exist unnamed or
/// unlisted.
macro_rules! vocabulary {
    (
        $(#[$enum_doc:meta])* enum $Enum:ident;
        $(#[$all_doc:meta])* const $ALL:ident;
        $($(#[$doc:meta])* $Variant:ident = $name:literal, $tier:ident;)+
    ) => {
        $(#[$enum_doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $Enum {
            $($(#[$doc])* $Variant,)+
        }

        $(#[$all_doc])*
        pub const $ALL: [$Enum; [$($name),+].len()] = [$($Enum::$Variant),+];

        impl $Enum {
            /// Stable kebab-case name (what exports, dumps and metric
            /// labels print).
            pub fn name(&self) -> &'static str {
                match self {
                    $($Enum::$Variant => $name,)+
                }
            }

            /// The tier this comes from.
            pub fn tier(&self) -> ObsTier {
                match self {
                    $($Enum::$Variant => ObsTier::$tier,)+
                }
            }

            /// Position in the declaration-order array (the discriminant).
            pub fn index(&self) -> usize {
                *self as usize
            }
        }
    };
}

vocabulary! {
    /// Pipeline stages with dedicated duration histograms.
    ///
    /// These split apart the time the dispatcher used to lump into one
    /// request latency — render vs diff vs cache probe vs reply — plus the
    /// solve tier's slice, snapshot and publish durations and the checkpoint
    /// tier's freeze, encode, and restore costs.
    enum Stage;
    /// Every stage, in display order.
    const STAGES;

    /// View-cache lookup on the request path.
    CacheProbe = "cache-probe", Serve;
    /// Tile-parallel render of one view that cast its camera rays (no item
    /// buffer yet, or none kept).
    Render = "render", Serve;
    /// Tile-parallel render of one view that reused its item buffer. A
    /// pixel whose bin-tree leaf in the buffer's last answer is still a
    /// leaf — however much the rest of its patch's tree split — is read by
    /// leaf slot: no ray, no patch test, no descent (`slots-reused` counts
    /// them). A pixel whose leaf split re-tests one patch, no octree, and
    /// — while a tile's pixels stay in the bin-tree leaf the previous pixel
    /// read — no descent, no radiance division and, for a leaf never split
    /// on direction, no eye direction either. No
    /// pixel bit moves. `render` + `reshade` counts are every render; their
    /// ratio is the buffer reuse.
    Reshade = "reshade", Serve;
    /// Tile diff of two frames on the streaming path.
    Diff = "diff", Stream;
    /// Answering a waiter (metrics accounting + channel send).
    Reply = "reply", Serve;
    /// Encoding one delta as a `PHOTSTRM1` frame body for a TCP subscriber,
    /// in the subscriber's payload mode (quantized runs the range coder).
    WireEncode = "wire-encode", Stream;
    /// Writing one encoded delta frame to a TCP subscriber's socket and
    /// flushing it: where a reader that has stopped reading shows up.
    WireWrite = "wire-write", Stream;
    /// One scheduler slice: a single `engine.step` call.
    SolveSlice = "solve-slice", Solve;
    /// The trace phase of a solve slice: photons traced into tally records
    /// (the whole slice for backends that tally inline while tracing).
    SolveTrace = "trace", Solve;
    /// The tally-apply phase of a solve slice: partitioning buffered records
    /// by patch and folding them into the bin forest (zero for inline-tally
    /// backends).
    TallyApply = "tally-apply", Solve;
    /// Turning a leased engine's forest into the answer a solve job
    /// publishes (or a checkpoint that already meets the target into it).
    Snapshot = "snapshot", Solve;
    /// Publishing one answer to the store: the epoch bump and the watchers
    /// it wakes.
    Publish = "publish", Store;
    /// Freezing an engine into an `EngineCheckpoint`.
    CheckpointFreeze = "checkpoint-freeze", Checkpoint;
    /// Encoding a checkpoint to `PHOTCK1` bytes.
    CheckpointEncode = "checkpoint-encode", Checkpoint;
    /// Restoring an engine from a checkpoint.
    CheckpointRestore = "checkpoint-restore", Checkpoint;
}

/// One duration [`Histogram`] per [`Stage`].
#[derive(Debug, Default)]
pub struct StageTimings {
    stages: [Histogram; STAGES.len()],
}

impl StageTimings {
    /// Records `seconds` spent in `stage` (stored as microseconds).
    pub fn record(&self, stage: Stage, seconds: f64) {
        self.stages[stage.index()].record_seconds(seconds);
    }

    /// Point-in-time copy of every stage's histogram.
    pub fn snapshot(&self) -> StageTimingsSnapshot {
        StageTimingsSnapshot {
            stages: std::array::from_fn(|i| self.stages[i].snapshot()),
        }
    }
}

/// A point-in-time copy of [`StageTimings`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimingsSnapshot {
    /// One snapshot per [`STAGES`] entry, same order.
    pub stages: [HistogramSnapshot; STAGES.len()],
}

impl StageTimingsSnapshot {
    /// The named stage's histogram.
    pub fn get(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage.index()]
    }

    /// `(stage, histogram)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, &HistogramSnapshot)> {
        STAGES.iter().copied().zip(self.stages.iter())
    }
}

/// Which tier of the system emitted an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsTier {
    /// The solver pool's scheduler and workers.
    Solve,
    /// The answer store (publishes).
    Store,
    /// The render service's dispatcher.
    Serve,
    /// The streaming (epoch subscription) path.
    Stream,
    /// Checkpoint freeze/restore.
    Checkpoint,
}

impl ObsTier {
    /// Stable kebab-case name (metric label value).
    pub fn name(&self) -> &'static str {
        match self {
            ObsTier::Solve => "solve",
            ObsTier::Store => "store",
            ObsTier::Serve => "serve",
            ObsTier::Stream => "stream",
            ObsTier::Checkpoint => "checkpoint",
        }
    }
}

vocabulary! {
    /// Structured event kinds — one per lifecycle edge the system already has.
    ///
    /// `payload` meaning per kind is listed on each variant; it is always a
    /// plain `u64` so events stay cheap to record and bounded in size.
    enum ObsKind;
    /// Every event kind, in lifecycle order.
    const OBS_KINDS;

    /// A solve job entered the scheduler. Payload: target photons.
    JobSubmitted = "job-submitted", Solve;
    /// The scheduler granted a worker slice. Payload: slice photon cap.
    SliceGranted = "slice-granted", Solve;
    /// A job parked. Payload: 0 = paused by owner, 1 = quota exhausted.
    SliceParked = "slice-parked", Solve;
    /// One `engine.step` finished. Payload: photons emitted this batch.
    BatchStepped = "batch-stepped", Solve;
    /// A leased slice panicked (an engine's `step`, most likely); the job
    /// fails and the worker survives. Payload: photons of the slice's
    /// budget reservation, refunded.
    SlicePanic = "slice-panic", Solve;
    /// A job retired (converged, canceled or failed). Payload: final
    /// photon count.
    JobDone = "job-done", Solve;
    /// The store published a fresher answer. Payload: new epoch.
    EpochPublished = "epoch-published", Store;
    /// Stale-epoch view-cache keys purged. Payload: keys purged.
    CachePurged = "cache-purged", Serve;
    /// One render request answered. Payload: latency in microseconds.
    RequestServed = "request-served", Serve;
    /// A view rendered through its item buffer (every `render` or
    /// `reshade`). Payload: pixels read by leaf slot — whose leaf in the
    /// buffer's last answer is still a leaf of the rendered one.
    SlotsReused = "slots-reused", Serve;
    /// A scene's dispatch panicked; the dispatcher survived. Payload:
    /// requests answered with `RenderFailed`.
    DispatchPanic = "dispatch-panic", Serve;
    /// A frame delta reached a subscriber. Payload: tile payload bytes.
    DeltaPushed = "delta-pushed", Stream;
    /// A new subscription started receiving deltas. Payload: subscribers
    /// now attached to the scene.
    SubscriberConnected = "subscriber-connected", Stream;
    /// A subscriber fell behind its send window; subsequent deltas coalesce
    /// until it catches up. Payload: undelivered deltas in flight.
    SubscriberLagged = "subscriber-lagged", Stream;
    /// A subscription ended (client dropped its handle). Payload: 0.
    SubscriberDropped = "subscriber-dropped", Stream;
    /// An engine froze into a checkpoint. Payload: encoded `PHOTCK1` bytes.
    CheckpointFrozen = "checkpoint-frozen", Checkpoint;
    /// An engine restored from a checkpoint. Payload: photons inherited.
    CheckpointRestored = "checkpoint-restored", Checkpoint;
}

/// The optional context an event carries; default everything you don't
/// have. `payload`'s meaning is per-[`ObsKind`].
#[derive(Clone, Debug, Default)]
pub struct ObsCtx {
    /// Store scene id the event concerns, if any.
    pub scene: Option<u32>,
    /// Solve job id the event concerns, if any.
    pub job: Option<u64>,
    /// Tenant tag the event concerns, if any.
    pub tenant: Option<String>,
    /// Kind-specific numeric payload (photons, bytes, epoch, µs, …).
    pub payload: u64,
}

/// One recorded lifecycle edge.
#[derive(Clone, Debug)]
pub struct ObsEvent {
    /// Monotone sequence number (never reused, survives ring wrap — gaps
    /// at the front mean old events were dropped).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub ts_us: u64,
    /// Emitting tier (derived from `kind`).
    pub tier: ObsTier,
    /// What happened.
    pub kind: ObsKind,
    /// Scene / job / tenant / payload context.
    pub ctx: ObsCtx,
}

struct Ring {
    buf: VecDeque<ObsEvent>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded in-memory event log: the newest `capacity` events, oldest
/// dropped first, with a monotone sequence number so a post-mortem can
/// tell how much history was lost.
///
/// Recording takes one short mutex hold (push + possible pop); draining
/// clones the events out so the recorder is never held open.
pub struct FlightRecorder {
    anchor: Instant,
    capacity: usize,
    state: Mutex<Ring>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap();
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &st.buf.len())
            .field("dropped", &st.dropped)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder retaining the newest `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            anchor: Instant::now(),
            capacity: capacity.max(1),
            state: Mutex::new(Ring {
                buf: VecDeque::new(),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// Records one event, timestamped now.
    pub fn record(&self, kind: ObsKind, ctx: ObsCtx) {
        let ts_us = self.anchor.elapsed().as_micros() as u64;
        let mut st = self.state.lock().unwrap();
        let seq = st.next_seq;
        st.next_seq += 1;
        if st.buf.len() == self.capacity {
            st.buf.pop_front();
            st.dropped += 1;
        }
        st.buf.push_back(ObsEvent {
            seq,
            ts_us,
            tier: kind.tier(),
            kind,
            ctx,
        });
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.state.lock().unwrap().buf.iter().cloned().collect()
    }

    /// The newest `n` retained events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<ObsEvent> {
        let st = self.state.lock().unwrap();
        let skip = st.buf.len().saturating_sub(n);
        st.buf.iter().skip(skip).cloned().collect()
    }

    /// Retained events matching `keep`, oldest first — filter a timeline
    /// down to one scene, tenant, or kind.
    pub fn filtered(&self, keep: impl Fn(&ObsEvent) -> bool) -> Vec<ObsEvent> {
        self.state
            .lock()
            .unwrap()
            .buf
            .iter()
            .filter(|e| keep(e))
            .cloned()
            .collect()
    }

    /// Events recorded over the recorder's lifetime (including dropped).
    pub fn recorded(&self) -> u64 {
        self.state.lock().unwrap().next_seq
    }

    /// Events dropped to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap().dropped
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The `Arc`-shared observability bundle every tier records into: one
/// flight recorder and one set of stage-duration histograms.
///
/// The serve layer's `AnswerStore` owns one hub and every component built
/// over that store (solver pool, render service, exporters) shares it, so
/// a single timeline spans solve → publish → render → delta → checkpoint.
#[derive(Debug)]
pub struct ObsHub {
    recorder: FlightRecorder,
    stages: StageTimings,
}

/// Default flight-recorder capacity for a hub ([`ObsHub::default`]).
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

impl Default for ObsHub {
    fn default() -> Self {
        Self::new(DEFAULT_RECORDER_CAPACITY)
    }
}

impl ObsHub {
    /// A hub whose recorder retains `capacity` events.
    pub fn new(capacity: usize) -> Self {
        ObsHub {
            recorder: FlightRecorder::new(capacity),
            stages: StageTimings::default(),
        }
    }

    /// Records one lifecycle event.
    pub fn emit(&self, kind: ObsKind, ctx: ObsCtx) {
        self.recorder.record(kind, ctx);
    }

    /// Records `seconds` spent in `stage`.
    pub fn stage(&self, stage: Stage, seconds: f64) {
        self.stages.record(stage, seconds);
    }

    /// Times `f` and records its duration under `stage`.
    pub fn time<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.stages.record(stage, t.elapsed().as_secs_f64());
        out
    }

    /// The event timeline.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Point-in-time copy of every stage histogram.
    pub fn stage_snapshot(&self) -> StageTimingsSnapshot {
        self.stages.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_aggregates_are_exact_and_quantiles_bucketed() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum, (1..=100u64).map(|v| v * 1000).sum::<u64>());
        assert_eq!(s.max, 100_000);
        // Exact p50 is 50_000 (bucket [32768, 65535]); the estimate is the
        // bucket's upper bound.
        assert_eq!(s.quantile(0.50), 65_535);
        // Exact p99 is 99_000 (bucket [65536, 131071]); clamped to max.
        assert_eq!(s.quantile(0.99), 100_000);
        assert_eq!(s.quantile(1.0), 100_000);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_equals_concatenation() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [0u64, 1, 7, 900, 4096, u64::MAX] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 3, 65_000] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
        assert_eq!(merged.count(), 9);
    }

    #[test]
    fn cumulative_skips_empty_buckets() {
        let h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(1000);
        let cum = h.snapshot().cumulative();
        assert_eq!(cum, vec![(1, 2), (1023, 3)]);
    }

    #[test]
    fn recorder_bounds_and_sequences() {
        let r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.record(
                ObsKind::BatchStepped,
                ObsCtx {
                    payload: i,
                    ..Default::default()
                },
            );
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.recorded(), 5);
        let events = r.events();
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest dropped first, sequence preserved"
        );
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert_eq!(r.tail(2).len(), 2);
        assert_eq!(r.tail(2)[0].seq, 3);
        assert_eq!(r.filtered(|e| e.ctx.payload >= 3).len(), 2);
    }

    #[test]
    fn kinds_map_to_tiers_and_stable_names() {
        for kind in OBS_KINDS {
            assert!(!kind.name().is_empty());
            assert!(!kind.tier().name().is_empty());
        }
        assert_eq!(ObsKind::EpochPublished.tier(), ObsTier::Store);
        assert_eq!(ObsKind::DeltaPushed.tier(), ObsTier::Stream);
        assert_eq!(ObsKind::CheckpointFrozen.tier(), ObsTier::Checkpoint);
        assert_eq!(Stage::Diff.tier(), ObsTier::Stream);
        // Both tables: names non-empty and unique (they key exporter
        // series), and `index()` is the position in declaration order.
        let kinds = OBS_KINDS.iter().map(|k| (k.name(), k.index()));
        let stages = STAGES.iter().map(|s| (s.name(), s.index()));
        for table in [kinds.collect::<Vec<_>>(), stages.collect()] {
            for (i, (name, index)) in table.iter().enumerate() {
                assert!(!name.is_empty());
                assert_eq!(*index, i, "{name} is out of declaration order");
            }
            let mut names: Vec<_> = table.iter().map(|(name, _)| name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), table.len());
        }
        assert_eq!(STAGES[2], Stage::Reshade);
        assert_eq!(OBS_KINDS[6], ObsKind::EpochPublished);
    }

    #[test]
    fn hub_times_stages() {
        let hub = ObsHub::new(8);
        let out = hub.time(Stage::Render, || 42);
        assert_eq!(out, 42);
        hub.stage(Stage::Render, 0.001);
        let stages = hub.stage_snapshot();
        assert_eq!(stages.get(Stage::Render).count(), 2);
        assert_eq!(stages.get(Stage::Diff).count(), 0);
        assert_eq!(stages.iter().count(), STAGES.len());
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
