//! The render service: a submission queue feeding a batching dispatcher
//! over the answer store.
//!
//! Request lifecycle:
//!
//! 1. [`RenderService::submit`] enqueues a [`RenderRequest`] and hands back
//!    a [`Ticket`].
//! 2. The dispatcher thread drains the queue in batches (up to 64
//!    requests at a time), groups requests by scene so each stored answer
//!    is resolved once per batch, and coalesces requests whose quantized
//!    [`ViewKey`]s collide, so one tile-parallel render answers all of
//!    them.
//! 3. Misses render across the worker pool
//!    ([`render_parallel`](crate::render::render_parallel)), land in the
//!    LRU view cache, and every waiter gets an `Arc` of the same image.
//!    The first render of a camera also fills its item buffer — which
//!    patch each pixel sees, and which leaf slot of that patch's tree — in
//!    a second LRU; every later miss on that camera (each publish makes
//!    one) re-shades from the buffer instead of casting its rays again,
//!    and reads a pixel whose patch's tree kept its shape by slot. Same
//!    pixels, bit for bit.
//!
//! One dispatcher owns the cache (no lock contention on the hot map); the
//! heavy lifting inside a render is already parallel at tile granularity,
//! so the service saturates cores without concurrent dispatchers.
//!
//! Subscriptions ([`RenderService::subscribe`]) ride the same thread: a
//! publish — or a new subscriber, which is simply one with no frame yet —
//! marks a scene, and one function renders (through the same cache), diffs
//! and offers the changed tiles to each due subscriber's mailbox. What a
//! slow consumer costs is decided there, in [`crate::stream`]'s window,
//! which the subscriber and its [`StreamHandle`] share; the dispatcher
//! keeps no per-subscriber delivery state and never wakes on a consumer's
//! behalf — its idle tick only sweeps subscribers whose handles are gone.

use crate::cache::{ItemKey, LruCache, ViewKey};
use crate::metrics::{MetricsSnapshot, RequestOutcome, ServiceMetrics, SolverStatsSource};
use crate::render::render_parallel_memo;
use crate::store::{AnswerStore, SceneId, StoredAnswer, WatcherId};
use crate::stream::{FrameDelta, Mailbox, StreamHandle, StreamRequest};
use photon_core::obs::{ObsCtx, ObsKind, Stage};
use photon_core::view::{diff_tiles, Tile};
use photon_core::{Camera, Image, ItemBuffer, ObsHub};
use photon_math::Rgb;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One view query: which stored answer, seen from where.
#[derive(Clone, Copy, Debug)]
pub struct RenderRequest {
    /// The stored solution to query.
    pub scene_id: SceneId,
    /// The viewpoint.
    pub camera: Camera,
}

/// A served view.
#[derive(Clone, Debug)]
pub struct RenderResponse {
    /// The rendered (or cached) image; shared, never copied per waiter.
    pub image: Arc<Image>,
    /// How the request was satisfied.
    pub outcome: RequestOutcome,
    /// Publication epoch of the answer the image came from — lets clients
    /// of a progressive solve see which refinement they were served.
    pub epoch: u64,
    /// Submission-to-response time.
    pub latency: Duration,
}

impl RenderResponse {
    /// True when the image came from the view cache.
    pub fn from_cache(&self) -> bool {
        self.outcome == RequestOutcome::CacheHit
    }
}

/// Ways a request can fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request named a scene id the store has never seen.
    UnknownScene(SceneId),
    /// The service shut down before answering.
    ServiceStopped,
    /// [`Ticket::wait_timeout`] gave up before the service answered; the
    /// ticket stays valid, so the caller may wait again.
    TimedOut,
    /// The request can never render (degenerate camera); rejected before
    /// reaching the dispatcher, with the reason attached.
    InvalidRequest(&'static str),
    /// The render panicked mid-job. The dispatcher survived — later
    /// requests are unaffected — but this request produced no image.
    RenderFailed,
    /// The ticket's single response was already collected; waiting again
    /// can never yield another.
    TicketConsumed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownScene(id) => write!(f, "unknown {id}"),
            ServeError::ServiceStopped => write!(f, "render service stopped"),
            ServeError::TimedOut => write!(f, "timed out waiting for a response"),
            ServeError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
            ServeError::RenderFailed => write!(f, "render panicked; request abandoned"),
            ServeError::TicketConsumed => write!(f, "response already collected"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A pending response handle.
pub struct Ticket {
    rx: Receiver<Result<RenderResponse, ServeError>>,
    consumed: Cell<bool>,
}

impl Ticket {
    fn new(rx: Receiver<Result<RenderResponse, ServeError>>) -> Self {
        Ticket {
            rx,
            consumed: Cell::new(false),
        }
    }

    /// Blocks until the service answers.
    pub fn wait(self) -> Result<RenderResponse, ServeError> {
        if self.consumed.get() {
            return Err(ServeError::TicketConsumed);
        }
        self.rx.recv().unwrap_or(Err(ServeError::ServiceStopped))
    }

    /// Waits at most `timeout` for the response, so a caller is never
    /// wedged behind a stuck job. On [`ServeError::TimedOut`] the ticket
    /// remains live — the render continues and a later wait can still
    /// collect it. Once a response (success or failure) has been
    /// collected the ticket is consumed: further waits return
    /// [`ServeError::TicketConsumed`] immediately instead of blocking out
    /// the timeout for an answer that can never come.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<RenderResponse, ServeError> {
        if self.consumed.get() {
            return Err(ServeError::TicketConsumed);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(result) => {
                self.consumed.set(true);
                result
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::TimedOut),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::ServiceStopped),
        }
    }
}

/// Service tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads per tile-parallel render.
    pub render_threads: usize,
    /// Tile side in pixels.
    pub tile_size: usize,
    /// View-cache entries, and as many item buffers (one per exact camera,
    /// 8 bytes a pixel, kept across epochs; each also keeps the last answer
    /// it rendered alive until it renders again). Clamped to at least 1.
    pub cache_capacity: usize,
    /// Camera quantization: lattice cells per world unit (larger = finer =
    /// fewer cache collisions).
    pub quant_grid: f64,
    /// Slow-consumer bound: most undelivered deltas a subscriber's window
    /// queues as rendered; behind them one more slot folds every newer
    /// delta into a single squashed one (see [`FrameDelta::squash`]).
    /// Retained memory per stalled subscriber is thereby bounded by
    /// `stream_window + 1` deltas, however many epochs it sleeps through.
    /// Clamped to at least 1.
    pub stream_window: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            render_threads: std::thread::available_parallelism()
                .map_or(2, |n| n.get())
                .min(8),
            tile_size: 32,
            cache_capacity: 256,
            quant_grid: 256.0,
            stream_window: 8,
        }
    }
}

impl ServeConfig {
    /// Clamps degenerate knobs to the nearest working value, so a
    /// misconfigured service serves every request instead of panicking the
    /// shared dispatcher on the first one (`tile_size: 0` used to trip the
    /// tile decomposition's assert and kill the thread — every later
    /// ticket then resolved `ServiceStopped`).
    fn sanitized(mut self) -> Self {
        self.render_threads = self.render_threads.max(1);
        self.tile_size = self.tile_size.max(1);
        self.cache_capacity = self.cache_capacity.max(1);
        if !self.quant_grid.is_finite() || self.quant_grid <= 0.0 {
            self.quant_grid = 256.0;
        }
        self.stream_window = self.stream_window.max(1);
        self
    }
}

struct Job {
    request: RenderRequest,
    submitted: Instant,
    reply: Sender<Result<RenderResponse, ServeError>>,
}

/// Everything that reaches the dispatcher thread: render work, new
/// subscriptions, and store-publish announcements (sent by the watcher the
/// service registers on its `AnswerStore`, so epoch advances arrive on the
/// same queue as work — nobody polls the store).
enum Msg {
    Job(Job),
    Subscribe(Subscriber),
    EpochAdvanced(SceneId),
}

/// How long the dispatcher sleeps on an idle queue before waking to sweep
/// subscribers whose handles were dropped — bounds how long an abandoned
/// handle on a fully idle service can pin its retained frame.
const HOUSEKEEP: Duration = Duration::from_millis(200);

/// Most requests drained into one dispatch batch.
const MAX_BATCH: usize = 64;

/// A camera that can never produce an image, or whose image no frame could
/// carry, is refused up front — by the bound the subscribe decoder applies
/// to a remote one — instead of panicking a render or sizing an image and
/// an item buffer by whatever `width * height` a caller claims.
fn validate_camera(camera: &Camera) -> Result<(), ServeError> {
    camera.validate().map_err(ServeError::InvalidRequest)
}

/// The concurrent answer-serving engine.
///
/// Shareable across client threads by reference (submission is lock-free
/// enqueue); dropping the service (or calling [`shutdown`][Self::shutdown])
/// drains in-flight requests and joins the dispatcher.
pub struct RenderService {
    tx: Option<Sender<Msg>>,
    dispatcher: Option<JoinHandle<()>>,
    metrics: Arc<ServiceMetrics>,
    store: Arc<AnswerStore>,
    watcher: Option<WatcherId>,
    stream_window: usize,
}

impl RenderService {
    /// Starts the dispatcher over `store`.
    ///
    /// Degenerate `config` values are clamped to working ones (see
    /// [`ServeConfig`] — in particular `tile_size: 0` no longer kills the
    /// dispatcher on the first request).
    pub fn start(store: Arc<AnswerStore>, config: ServeConfig) -> Self {
        let config = config.sanitized();
        let (tx, rx) = mpsc::channel::<Msg>();
        let metrics = Arc::new(ServiceMetrics::new());
        // Publishes push an event onto the dispatch queue, so streaming
        // subscribers learn of fresh epochs without anyone polling the
        // store. Unregistered at shutdown — otherwise the callback's
        // sender clone would keep the dispatch channel alive forever and
        // `stop` would never join.
        let watcher = {
            let watcher_tx = tx.clone();
            store.register_watcher(move |scene_id, _| {
                let _ = watcher_tx.send(Msg::EpochAdvanced(scene_id));
            })
        };
        let dispatcher = {
            let store = Arc::clone(&store);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("photon-serve-dispatch".into())
                .spawn(move || Dispatcher::new(store, config, metrics).run(rx))
                .expect("spawn dispatcher")
        };
        RenderService {
            tx: Some(tx),
            dispatcher: Some(dispatcher),
            metrics,
            store,
            watcher: Some(watcher),
            stream_window: config.stream_window,
        }
    }

    /// The store this service answers from.
    pub fn store(&self) -> &Arc<AnswerStore> {
        &self.store
    }

    /// Enqueues a request; the returned ticket resolves when served.
    /// Invalid requests (degenerate camera) resolve immediately with
    /// [`ServeError::InvalidRequest`] without reaching the dispatcher.
    pub fn submit(&self, request: RenderRequest) -> Ticket {
        if let Err(e) = validate_camera(&request.camera) {
            let (reply, rx) = mpsc::channel();
            let _ = reply.send(Err(e));
            return Ticket::new(rx);
        }
        self.enqueue(request)
    }

    /// [`submit`](Self::submit) behind the door: the request goes to the
    /// dispatcher unchecked. The in-module tests use it to hand over a job
    /// whose render panics, which no camera the door lets in does.
    fn enqueue(&self, request: RenderRequest) -> Ticket {
        let (reply, rx) = mpsc::channel();
        let job = Job {
            request,
            submitted: Instant::now(),
            reply,
        };
        if let Some(tx) = &self.tx {
            // A send error means the dispatcher is gone; the dropped reply
            // sender surfaces it as ServiceStopped at wait().
            let _ = tx.send(Msg::Job(job));
        }
        Ticket::new(rx)
    }

    /// Subscribes to a scene: the returned [`StreamHandle`] receives a
    /// [`FrameDelta`] for the current epoch immediately, then one more
    /// each time a publish advances the scene's epoch — only the tiles
    /// that changed since the last delta sent to *this* subscriber.
    /// Reassembling the deltas (see [`FrameDelta::apply`]) reproduces each
    /// epoch's full render bit-for-bit. Drop the handle to unsubscribe.
    pub fn subscribe(&self, request: StreamRequest) -> Result<StreamHandle, ServeError> {
        validate_camera(&request.camera)?;
        if self.store.get(request.scene_id).is_none() {
            return Err(ServeError::UnknownScene(request.scene_id));
        }
        self.attach(request)
    }

    /// [`subscribe`](Self::subscribe) behind the door (see
    /// [`enqueue`](Self::enqueue)).
    fn attach(&self, request: StreamRequest) -> Result<StreamHandle, ServeError> {
        let (metrics, obs) = (Arc::clone(&self.metrics), self.store.obs());
        let (mailbox, handle) = StreamHandle::open(request, self.stream_window, metrics, obs);
        let subscriber = Subscriber {
            last: None,
            mailbox,
        };
        let sender = self.tx.as_ref().ok_or(ServeError::ServiceStopped)?;
        sender
            .send(Msg::Subscribe(subscriber))
            .map_err(|_| ServeError::ServiceStopped)?;
        Ok(handle)
    }

    /// Submits and blocks for the response.
    pub fn render_blocking(&self, request: RenderRequest) -> Result<RenderResponse, ServeError> {
        self.submit(request).wait()
    }

    /// Submits a whole batch up front, then waits for every response in
    /// order — the natural shape for "render these N viewpoints" clients,
    /// and what lets the dispatcher batch and coalesce them.
    pub fn render_batch(
        &self,
        requests: impl IntoIterator<Item = RenderRequest>,
    ) -> Vec<Result<RenderResponse, ServeError>> {
        let tickets: Vec<Ticket> = requests.into_iter().map(|r| self.submit(r)).collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Current service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The shared metrics sink itself (not a snapshot) — what
    /// [`exporter`](Self::exporter) and tests that probe concurrency
    /// hang on to.
    pub fn metrics_handle(&self) -> Arc<ServiceMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Attaches a solver pool's scheduler (see
    /// `SolverPool::stats_source`) so [`metrics`](Self::metrics)
    /// snapshots carry the solve tier's queue depth, per-job rates, and
    /// per-tenant slice accounting beside the render-side latencies.
    pub fn attach_solver(&self, source: Arc<dyn SolverStatsSource>) {
        self.metrics.attach_solver(source);
    }

    /// Stops accepting work, serves what is queued, and joins the
    /// dispatcher.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Unregister the publish watcher first: it owns a sender clone,
        // and the dispatcher only exits when every sender is gone.
        if let Some(watcher) = self.watcher.take() {
            self.store.unregister_watcher(watcher);
        }
        drop(self.tx.take());
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RenderService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One subscription, dispatcher-side. Dropping it closes the mailbox, so
/// the handle drains what was queued and then reads `ServiceStopped`.
struct Subscriber {
    /// The epoch of the last delta offered — fresher publishes trigger the
    /// next — and the frame it brought the subscriber to. `None` only
    /// before the bootstrap delta, whose diff base is a black canvas (what
    /// a fresh client's [`FrameDelta::canvas`] starts from).
    last: Option<(u64, Arc<Image>)>,
    /// The window the handle reads from, slow-consumer policy included.
    mailbox: Mailbox,
}

/// The pixels of one frame delta, pre-extraction: what `diff_tiles`
/// returns and a [`FrameDelta`] carries.
type TileDelta = Vec<(Tile, Vec<Rgb>)>;

/// One pass's diffs, keyed by the `(prev, next)` frame identities —
/// co-located subscribers share both `Arc`s, so they share the diff.
type DiffMemo = HashMap<(Option<*const Image>, *const Image), TileDelta>;

/// The dispatcher thread's state: the view cache, the per-scene epoch
/// tracking that drives purges, and the streaming subscribers.
struct Dispatcher {
    store: Arc<AnswerStore>,
    config: ServeConfig,
    metrics: Arc<ServiceMetrics>,
    /// The store's shared observability hub: stage timings (cache probe,
    /// render, diff, reply) and serve/stream lifecycle events.
    obs: Arc<ObsHub>,
    cache: LruCache<ViewKey, Arc<Image>>,
    /// What each pixel of a camera sees, kept across epochs: `cache`'s
    /// capacity, never purged (see [`crate::cache`]).
    items: LruCache<ItemKey, Arc<ItemBuffer>>,
    /// Freshest epoch seen per scene — when a publish advances it, the
    /// scene's older-epoch cache keys are orphaned (they can never match a
    /// future request) and are purged eagerly instead of squatting in the
    /// LRU until capacity pressure thrashes live views out. Bounded: only
    /// scenes with live cache keys are tracked (see [`note_epoch`]), so a
    /// long-lived service over an ever-growing store stays flat.
    ///
    /// [`note_epoch`]: Dispatcher::note_epoch
    seen_epoch: HashMap<SceneId, u64>,
    /// Ordered by subscription id, so every pass serves a scene's
    /// subscribers oldest first: the time from a publish to the last
    /// subscriber holding it moves by a fifth with where the slowest
    /// consumer falls in the order, and a hash order would draw that
    /// afresh per process.
    subscribers: BTreeMap<u64, Subscriber>,
    next_subscriber: u64,
}

impl Dispatcher {
    fn new(store: Arc<AnswerStore>, config: ServeConfig, metrics: Arc<ServiceMetrics>) -> Self {
        let obs = store.obs();
        Dispatcher {
            store,
            config,
            metrics,
            obs,
            cache: LruCache::new(config.cache_capacity),
            items: LruCache::new(config.cache_capacity),
            seen_epoch: HashMap::new(),
            subscribers: BTreeMap::new(),
            next_subscriber: 0,
        }
    }

    fn run(&mut self, rx: Receiver<Msg>) {
        loop {
            // Wait for the first message — but only up to the housekeeping
            // period, so a fully idle service still sweeps dropped handles
            // within a bounded interval (an abandoned handle used to pin
            // its retained frame until the *next* unrelated activity woke
            // this loop). On a message, opportunistically drain the queue:
            // render jobs batch (and cap the drain at MAX_BATCH),
            // subscriptions and epoch announcements ride along for free.
            let first = rx.recv_timeout(HOUSEKEEP);
            if matches!(first, Err(mpsc::RecvTimeoutError::Disconnected)) {
                return;
            }
            let mut inbox = first.into_iter().chain(rx.try_iter());
            let (mut jobs, mut advanced) = (Vec::new(), BTreeSet::new());
            while jobs.len() < MAX_BATCH {
                let Some(msg) = inbox.next() else { break };
                match msg {
                    Msg::Job(job) => jobs.push(job),
                    Msg::EpochAdvanced(scene_id) => {
                        advanced.insert(scene_id);
                    }
                    // A subscriber with no last frame is due: registering
                    // one is marking its scene for a delta pass.
                    Msg::Subscribe(subscriber) => {
                        advanced.insert(subscriber.mailbox.request().scene_id);
                        self.subscribers.insert(self.next_subscriber, subscriber);
                        self.next_subscriber += 1;
                    }
                }
            }
            if !jobs.is_empty() {
                self.dispatch_jobs(jobs);
            }
            for scene_id in advanced {
                self.push_deltas(scene_id);
            }
            // After every drain *and* on idle ticks: drop subscriptions
            // whose handles are gone and refresh the gauges.
            self.subscribers.retain(|_, s| !s.mailbox.is_closed());
            self.metrics.record_epoch_map(self.seen_epoch.len() as u64);
            let subscribers = self.subscribers.len() as u64;
            self.metrics.record_subscribers(subscribers);
        }
    }

    /// Serves one drained batch of render jobs, grouped so each stored
    /// answer resolves once. Every scene's dispatch runs under a panic
    /// guard: a job that panics the render (a poisoned answer, an
    /// adversarial camera) answers its whole group with
    /// [`ServeError::RenderFailed`] and the dispatcher lives on — one bad
    /// job can no longer turn every future ticket into `ServiceStopped`.
    fn dispatch_jobs(&mut self, jobs: Vec<Job>) {
        let batch_start = Instant::now();
        let drained = jobs.len() as u64;
        let mut by_scene: BTreeMap<SceneId, Vec<Job>> = BTreeMap::new();
        for job in jobs {
            by_scene.entry(job.request.scene_id).or_default().push(job);
        }
        for (scene_id, group) in by_scene {
            let Some(entry) = self.store.get(scene_id) else {
                for job in group {
                    let _ = job.reply.send(Err(ServeError::UnknownScene(scene_id)));
                }
                continue;
            };
            self.note_epoch(scene_id, entry.epoch);
            let replies: Vec<Sender<Result<RenderResponse, ServeError>>> =
                group.iter().map(|job| job.reply.clone()).collect();
            let guarded = catch_unwind(AssertUnwindSafe(|| {
                self.serve_scene_group(&entry, scene_id, group)
            }));
            if guarded.is_err() {
                self.obs.emit(
                    ObsKind::DispatchPanic,
                    ObsCtx {
                        scene: Some(scene_id.0),
                        payload: replies.len() as u64,
                        ..Default::default()
                    },
                );
                // The panicking render consumed the group's jobs; the
                // cloned senders still reach every waiter. Those already
                // answered ignore the second message (tickets read once).
                for reply in replies {
                    let _ = reply.send(Err(ServeError::RenderFailed));
                }
            }
        }
        self.metrics.record_cache(self.cache.len() as u64, 0);
        self.metrics
            .record_batch(drained, batch_start.elapsed().as_secs_f64());
    }

    /// Serves one scene's batch group: coalesce identical quantized views,
    /// render misses, answer every waiter.
    fn serve_scene_group(&mut self, entry: &Arc<StoredAnswer>, scene_id: SceneId, group: Vec<Job>) {
        let epoch = entry.epoch;
        // Coalesce identical quantized views within the batch, preserving
        // first-seen order. Keyed by the entry's epoch: a progressive
        // solve publishing a refined answer re-renders instead of serving
        // the previous epoch's image.
        let mut keyed: Vec<(ViewKey, Vec<Job>)> = Vec::new();
        for job in group {
            let key =
                ViewKey::quantize(scene_id, epoch, &job.request.camera, self.config.quant_grid);
            match keyed.iter_mut().find(|(k, _)| *k == key) {
                Some((_, bucket)) => bucket.push(job),
                None => keyed.push((key, vec![job])),
            }
        }
        for (_, bucket) in keyed {
            let mut bucket = bucket.into_iter();
            let leader = bucket.next().expect("bucket never empty");
            let (image, outcome) = self.resolve_view(entry, scene_id, &leader.request.camera);
            // Followers shared the leader's render in this batch, or its
            // cache hit from an earlier one.
            let follower_outcome = match outcome {
                RequestOutcome::Rendered => RequestOutcome::Coalesced,
                _ => RequestOutcome::CacheHit,
            };
            respond(
                leader,
                Arc::clone(&image),
                outcome,
                epoch,
                &self.metrics,
                &self.obs,
            );
            for job in bucket {
                respond(
                    job,
                    Arc::clone(&image),
                    follower_outcome,
                    epoch,
                    &self.metrics,
                    &self.obs,
                );
            }
        }
    }

    /// Resolves one view of `entry` through the cache: a hit clones the
    /// `Arc`, a miss renders tile-parallel and caches the image. Shared by
    /// the request path and the streaming path, so subscribers coalesce
    /// with interactive traffic (two subscribers on one viewpoint render
    /// once per epoch).
    ///
    /// A miss renders through the camera's item buffer. The first one
    /// casts the rays and fills it ([`Stage::Render`]); while the buffer
    /// stays in its LRU every later one — the same camera after a publish
    /// — only re-shades ([`Stage::Reshade`]), reading every pixel whose
    /// patch's tree kept its shape by leaf slot ([`ObsKind::SlotsReused`]
    /// counts them). Either way the outcome is `Rendered` and the pixels
    /// are those of an un-memoised render.
    fn resolve_view(
        &mut self,
        entry: &Arc<StoredAnswer>,
        scene_id: SceneId,
        camera: &Camera,
    ) -> (Arc<Image>, RequestOutcome) {
        let key = ViewKey::quantize(scene_id, entry.epoch, camera, self.config.quant_grid);
        let probe = || self.cache.get(&key).cloned();
        if let Some(image) = self.obs.time(Stage::CacheProbe, probe) {
            return (image, RequestOutcome::CacheHit);
        }
        let item_key = ItemKey::exact(scene_id, camera);
        let (buffer, stage) = match self.items.get(&item_key) {
            Some(buffer) => (Arc::clone(buffer), Stage::Reshade),
            None => {
                let buffer = Arc::new(ItemBuffer::new(camera));
                self.items.insert(item_key, Arc::clone(&buffer));
                (buffer, Stage::Render)
            }
        };
        let (image, reused) = self.obs.time(stage, || {
            render_parallel_memo(
                &entry.scene,
                &entry.answer,
                camera,
                &buffer,
                entry.exposure,
                self.config.render_threads,
                self.config.tile_size,
            )
        });
        self.obs.emit(
            ObsKind::SlotsReused,
            ObsCtx {
                scene: Some(scene_id.0),
                payload: reused as u64,
                ..Default::default()
            },
        );
        let image = Arc::new(image);
        self.cache.insert(key, Arc::clone(&image));
        (image, RequestOutcome::Rendered)
    }

    /// Observes `scene_id` at `epoch`: a fresher epoch purges the scene's
    /// now-orphaned older cache keys, then drops epoch-tracking entries
    /// for scenes with no cached views left — the map's size is thereby
    /// bounded by the cache's contents instead of growing one entry per
    /// scene forever (the `seen_epoch` leak).
    fn note_epoch(&mut self, scene_id: SceneId, epoch: u64) {
        let cache = &mut self.cache;
        let last = self.seen_epoch.entry(scene_id).or_insert(epoch);
        if epoch > *last {
            *last = epoch;
            let purged = cache.retain(|key| key.scene() != scene_id || key.epoch() >= epoch);
            self.metrics.record_cache(cache.len() as u64, purged as u64);
            if purged > 0 {
                self.obs.emit(
                    ObsKind::CachePurged,
                    ObsCtx {
                        scene: Some(scene_id.0),
                        payload: purged as u64,
                        ..Default::default()
                    },
                );
            }
        }
        // Hard bound, independent of epoch advances: a tracking entry only
        // exists to trigger the purge above, which is a no-op for scenes
        // with no cached views — so whenever the map outgrows the cache
        // (scenes inserted and never republished, evicted views), drop the
        // dead entries. Invariant: len ≤ cache keys + 1 after every call.
        if self.seen_epoch.len() > cache.len() {
            let live: HashSet<SceneId> = cache.keys().map(|key| key.scene()).collect();
            self.seen_epoch
                .retain(|id, _| *id == scene_id || live.contains(id));
        }
    }

    /// Brings every subscriber of `scene_id` that is due — not yet
    /// bootstrapped, or behind the scene's current epoch — up to date.
    /// Renders go through the view cache, so N subscribers sharing a
    /// viewpoint cost one render — and their diffs coalesce the same way
    /// (identical `(prev, next)` frame pairs are diffed once per pass).
    fn push_deltas(&mut self, scene_id: SceneId) {
        // Subscribe validated existence, and the store never forgets ids.
        let Some(entry) = self.store.get(scene_id) else {
            return;
        };
        let due: Vec<u64> = self
            .subscribers
            .iter()
            .filter(|(_, s)| s.mailbox.request().scene_id == scene_id)
            .filter(|(_, s)| !matches!(s.last, Some((epoch, _)) if epoch >= entry.epoch))
            .map(|(&id, _)| id)
            .collect();
        let mut diffed = DiffMemo::new();
        for id in due {
            let pushed = AssertUnwindSafe(|| self.push_delta(id, &entry, &mut diffed));
            if catch_unwind(pushed).is_err() {
                self.subscribers.remove(&id);
            }
        }
        self.note_epoch(scene_id, entry.epoch);
    }

    /// The one path a delta takes to a subscriber, bootstrap or epoch
    /// advance: render `entry` from its camera, diff against the last
    /// frame it was offered — a black canvas before the bootstrap, so
    /// background tiles never ship — and offer the changed tiles to its
    /// mailbox. Runs under [`push_deltas`](Self::push_deltas)' panic
    /// guard: a panicking render drops this subscription (its handle reads
    /// `ServiceStopped`) and spares the dispatcher and the rest.
    ///
    /// An empty diff on a republish is skippable; the bootstrap never is —
    /// the client needs the frame's dimensions and epoch.
    fn push_delta(&mut self, id: u64, entry: &Arc<StoredAnswer>, diffed: &mut DiffMemo) {
        let subscriber = &self.subscribers[&id];
        let StreamRequest { scene_id, camera } = subscriber.mailbox.request();
        let prev = subscriber.last.as_ref().map(|(_, frame)| Arc::clone(frame));
        let (next, _) = self.resolve_view(entry, scene_id, &camera);
        let key = (prev.as_ref().map(Arc::as_ptr), Arc::as_ptr(&next));
        let tiles = diffed
            .entry(key)
            .or_insert_with(|| self.diff_frames(prev.as_deref(), &next));
        let delta = FrameDelta {
            epoch: entry.epoch,
            width: next.width(),
            height: next.height(),
            tiles: tiles.clone(),
        };
        let bootstrap = prev.is_none();
        let skippable = delta.is_empty() && !bootstrap;
        let subscriber = self.subscribers.get_mut(&id).expect("still registered");
        subscriber.last = Some((entry.epoch, next));
        subscriber.mailbox.offer(delta, skippable);
        if bootstrap {
            let of_scene = |s: &&Subscriber| s.mailbox.request().scene_id == scene_id;
            let attached = self.subscribers.values().filter(of_scene).count() as u64;
            self.subscribers[&id]
                .mailbox
                .emit(ObsKind::SubscriberConnected, attached);
        }
    }

    /// Tile-diffs `next` against `prev` — or against the black canvas a
    /// brand-new subscriber implicitly holds.
    fn diff_frames(&self, prev: Option<&Image>, next: &Image) -> TileDelta {
        let tile_size = self.config.tile_size;
        self.obs.time(Stage::Diff, || match prev {
            Some(prev) => diff_tiles(prev, next, tile_size),
            None => diff_tiles(&Image::new(next.width(), next.height()), next, tile_size),
        })
    }
}

fn respond(
    job: Job,
    image: Arc<Image>,
    outcome: RequestOutcome,
    epoch: u64,
    metrics: &ServiceMetrics,
    obs: &ObsHub,
) {
    let reply_start = Instant::now();
    let scene = job.request.scene_id.0;
    let latency = job.submitted.elapsed();
    metrics.record_request(latency, outcome);
    // A dead waiter (dropped ticket) is fine; the render still warmed the
    // cache.
    let _ = job.reply.send(Ok(RenderResponse {
        image,
        outcome,
        epoch,
        latency,
    }));
    obs.emit(
        ObsKind::RequestServed,
        ObsCtx {
            scene: Some(scene),
            payload: latency.as_micros() as u64,
            ..Default::default()
        },
    );
    obs.stage(Stage::Reply, reply_start.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_core::{SimConfig, Simulator};
    use photon_math::Vec3;
    use photon_scenes::TestScene;

    fn store_with_cornell() -> (Arc<AnswerStore>, SceneId) {
        let mut sim = Simulator::new(
            TestScene::CornellBox.build(),
            SimConfig {
                seed: 9,
                ..Default::default()
            },
        );
        sim.run_photons(2_000);
        let answer = sim.answer_snapshot();
        let scene = sim.scene().clone();
        let store = Arc::new(AnswerStore::new());
        let id = store.insert("cornell", scene, answer);
        (store, id)
    }

    fn cornell_cam(phase: f64) -> Camera {
        Camera {
            eye: Vec3::new(2.78 + phase.cos(), 2.73, -7.5 + phase.sin()),
            target: Vec3::new(2.78, 2.73, 2.8),
            up: Vec3::Y,
            vfov_deg: 40.0,
            width: 24,
            height: 18,
        }
    }

    #[test]
    fn repeat_views_hit_the_cache() {
        let (store, id) = store_with_cornell();
        let service = RenderService::start(store, ServeConfig::default());
        let req = RenderRequest {
            scene_id: id,
            camera: cornell_cam(0.0),
        };
        let a = service.render_blocking(req).unwrap();
        assert_eq!(a.outcome, RequestOutcome::Rendered);
        let b = service.render_blocking(req).unwrap();
        assert!(
            b.from_cache(),
            "second identical view should be a cache hit"
        );
        assert_eq!(a.image.pixels(), b.image.pixels());
        let m = service.metrics();
        assert_eq!((m.completed, m.rendered, m.cache_hits), (2, 1, 1));
    }

    /// Renders that cast their camera rays, and renders that reused an
    /// item buffer, so far.
    fn casts_and_reshades(service: &RenderService) -> (u64, u64) {
        let stages = service.store().obs().stage_snapshot();
        let count = |stage| stages.get(stage).count();
        (count(Stage::Render), count(Stage::Reshade))
    }

    /// Every channel of every pixel, as bits.
    fn bits(image: &Image) -> Vec<u64> {
        let channels = image.pixels().iter().flat_map(|p| [p.r, p.g, p.b]);
        channels.map(f64::to_bits).collect()
    }

    /// Asks `service` for `camera`'s view of the scene's current epoch —
    /// which must be a render, not a cache hit — and holds it to an
    /// un-memoised render of the same entry, bit for bit.
    fn assert_renders_exactly(service: &RenderService, id: SceneId, camera: Camera) {
        let request = RenderRequest {
            scene_id: id,
            camera,
        };
        let served = service.render_blocking(request).unwrap();
        assert_eq!(served.outcome, RequestOutcome::Rendered);
        let entry = service.store().get(id).unwrap();
        assert_eq!(served.epoch, entry.epoch);
        let (scene, answer) = (&entry.scene, &entry.answer);
        let reference = crate::render_parallel(scene, answer, &camera, entry.exposure, 1, 32);
        assert!(bits(&served.image) == bits(&reference), "{camera:?}");
    }

    fn republish(service: &RenderService, id: SceneId) {
        let answer = (*service.store().get(id).unwrap().answer).clone();
        service.store().publish(id, answer);
    }

    #[test]
    fn cameras_one_bit_apart_never_share_an_item_buffer() {
        let (store, id) = store_with_cornell();
        let service = RenderService::start(store, ServeConfig::default());
        let a = cornell_cam(0.3);
        let mut b = a;
        b.eye.x = f64::from_bits(a.eye.x.to_bits() + 1);
        let grid = ServeConfig::default().quant_grid;
        assert_eq!(
            ViewKey::quantize(id, 0, &a, grid),
            ViewKey::quantize(id, 0, &b, grid),
            "one quantized cell: one cached image per epoch"
        );
        // Each camera leads one epoch and casts its own rays; after that
        // whichever leads re-shades from its own buffer, and every image
        // is that camera's, not a hybrid of the two.
        let rounds = [
            (a, (1, 0)),
            (b, (2, 0)),
            (b, (2, 1)),
            (a, (2, 2)),
            (a, (2, 3)),
        ];
        for (camera, so_far) in rounds {
            republish(&service, id);
            assert_renders_exactly(&service, id, camera);
            assert_eq!(casts_and_reshades(&service), so_far);
        }
    }

    #[test]
    fn an_evicted_item_buffer_costs_a_trace_not_a_pixel() {
        let (store, id) = store_with_cornell();
        let config = ServeConfig {
            cache_capacity: 1,
            ..Default::default()
        };
        let service = RenderService::start(store, config);
        // Two views take turns in caches of one entry each: every request
        // finds the other's image and buffer, and casts its rays again.
        for round in 1..=3 {
            for camera in [cornell_cam(0.0), cornell_cam(2.0)] {
                assert_renders_exactly(&service, id, camera);
            }
            assert_eq!(casts_and_reshades(&service), (2 * round, 0));
        }
        // One view alone keeps its buffer through any number of epochs.
        for round in 1..=3 {
            republish(&service, id);
            assert_renders_exactly(&service, id, cornell_cam(2.0));
            assert_eq!(casts_and_reshades(&service), (6, round));
        }
    }

    /// A frame of 2^62 pixels: its item buffer trips `Vec`'s
    /// capacity-overflow panic before anything is allocated — a
    /// deterministic stand-in for "a render panicked". Both doors refuse
    /// it (see `both_doors_refuse_the_same_camera`), so these tests go in
    /// behind them.
    fn camera_that_panics_its_render() -> Camera {
        Camera {
            width: 1 << 31,
            height: 1 << 31,
            ..cornell_cam(0.0)
        }
    }

    /// One bad job must not kill the service: a render that panics mid-job
    /// answers its waiter with `RenderFailed` while the dispatcher survives
    /// to serve the next request.
    #[test]
    fn panicking_job_answers_error_and_dispatcher_survives() {
        let (store, id) = store_with_cornell();
        let service = RenderService::start(store, ServeConfig::default());
        let ticket = service.enqueue(RenderRequest {
            scene_id: id,
            camera: camera_that_panics_its_render(),
        });
        let err = ticket.wait().unwrap_err();
        assert_eq!(err, ServeError::RenderFailed, "waiter answered, not hung");
        assert_renders_exactly(&service, id, cornell_cam(0.0));
    }

    /// The streaming half of the same guarantee: a subscription whose
    /// render panics ends — its handle reads `ServiceStopped` instead of
    /// hanging — while a sibling subscriber of the same scene keeps
    /// receiving epochs.
    #[test]
    fn panicking_subscription_ends_only_itself() {
        let (store, id) = store_with_cornell();
        let service = RenderService::start(store, ServeConfig::default());
        let sibling = service
            .subscribe(StreamRequest {
                scene_id: id,
                camera: cornell_cam(0.0),
            })
            .expect("subscribe");
        let wait = Duration::from_secs(30);
        let d0 = sibling.recv_timeout(wait).expect("sibling bootstrap");

        let doomed = service
            .attach(StreamRequest {
                scene_id: id,
                camera: camera_that_panics_its_render(),
            })
            .expect("attached; the render is what fails");
        assert_eq!(
            doomed.recv_timeout(wait).unwrap_err(),
            ServeError::ServiceStopped,
            "the panicked subscription must end, not hang"
        );
        assert!(doomed.drain().is_empty());

        // A republish of the same answer changes no pixel; more photons do.
        let entry = service.store().get(id).unwrap();
        let mut sim = Simulator::new(
            (*entry.scene).clone(),
            SimConfig {
                seed: 10,
                ..Default::default()
            },
        );
        sim.run_photons(4_000);
        let epoch = service.store().publish(id, sim.answer_snapshot());
        let d1 = sibling
            .recv_timeout(wait)
            .expect("sibling survives its neighbor's panic");
        assert_eq!((d0.epoch + 1, d1.epoch), (epoch, epoch));
    }

    #[test]
    fn both_doors_refuse_the_same_camera() {
        use photon_core::wire::{decode_frame, encode_subscribe, SubscribeFrame, WireMode};
        let (store, id) = store_with_cornell();
        let service = RenderService::start(store, ServeConfig::default());
        let refused = |camera: Camera| {
            let (scene_id, over) = (id, "camera frame over MAX_FRAME_BYTES");
            let submitted = service.render_blocking(RenderRequest { scene_id, camera });
            assert_eq!(submitted.unwrap_err(), ServeError::InvalidRequest(over));
            let subscribed = service.subscribe(StreamRequest { scene_id, camera });
            assert_eq!(subscribed.err(), Some(ServeError::InvalidRequest(over)));
        };
        // 2^32 pixels: what a remote peer can claim in its eight bytes.
        let mut camera = cornell_cam(0.0);
        (camera.width, camera.height) = (1 << 16, 1 << 16);
        let frame = SubscribeFrame {
            scene: id.0,
            mode: WireMode::Lossless,
            camera,
        };
        let decoded = decode_frame(&encode_subscribe(&frame));
        assert!(decoded.unwrap_err().to_string().contains("MAX_FRAME_BYTES"));
        refused(camera);
        // What only an in-process caller can: a product past `usize`.
        (camera.width, camera.height) = (usize::MAX, 3);
        refused(camera);
        // Nothing was sized by either claim; the dispatcher serves on.
        assert_renders_exactly(&service, id, cornell_cam(0.0));
    }

    /// A NaN eye used to quantize to the view key of the eye at 0. The key
    /// now holds a non-finite coordinate by its bits, and both doors refuse
    /// the camera all the same: it cannot leave a black image under any
    /// key for the finite camera to be handed as a cache hit.
    #[test]
    fn a_non_finite_camera_cannot_take_a_finite_cameras_cache_entry() {
        use photon_core::wire::{decode_frame, encode_subscribe, SubscribeFrame, WireMode};
        let (store, id) = store_with_cornell();
        let service = RenderService::start(store, ServeConfig::default());
        let mut finite = cornell_cam(0.0);
        finite.eye.x = 0.0;
        let mut nan = finite;
        nan.eye.x = f64::NAN;
        let grid = ServeConfig::default().quant_grid;
        assert_ne!(
            ViewKey::quantize(id, 0, &nan, grid),
            ViewKey::quantize(id, 0, &finite, grid),
            "the alias is closed at the key too"
        );
        let frame = SubscribeFrame {
            scene: id.0,
            mode: WireMode::Lossless,
            camera: nan,
        };
        let decoded = decode_frame(&encode_subscribe(&frame));
        assert!(decoded.unwrap_err().to_string().contains("non-finite"));
        let submitted = service.render_blocking(RenderRequest {
            scene_id: id,
            camera: nan,
        });
        let why = "camera has a non-finite coordinate";
        assert_eq!(submitted.unwrap_err(), ServeError::InvalidRequest(why));
        assert_renders_exactly(&service, id, finite);
    }

    /// Two finite cameras far enough out that `v · grid` saturates an
    /// `i64` used to share one view key: the second was handed the first's
    /// image as a cache hit. Both pass `Camera::validate`, and each now
    /// renders its own view.
    #[test]
    fn far_cameras_are_each_rendered_not_aliased() {
        let (store, id) = store_with_cornell();
        let service = RenderService::start(store, ServeConfig::default());
        let far = |x: f64| Camera {
            eye: Vec3::new(x, 2.73, -7.5),
            vfov_deg: 1e-14,
            ..cornell_cam(0.0)
        };
        let (a, b) = (far(1e17), far(2e17));
        assert_eq!((a.validate(), b.validate()), (Ok(()), Ok(())));
        assert_renders_exactly(&service, id, a);
        assert_renders_exactly(&service, id, b);
    }

    /// A republish of the same answer keeps every tree's shape, so the
    /// view's re-shade reads every pixel that sees the scene by leaf slot.
    #[test]
    fn a_republished_answer_is_read_by_slot_at_every_lit_pixel() {
        let (store, id) = store_with_cornell();
        let service = RenderService::start(store, ServeConfig::default());
        let camera = cornell_cam(0.7);
        let reused = |service: &RenderService| {
            let events = service
                .store()
                .obs()
                .recorder()
                .filtered(|e| e.kind == ObsKind::SlotsReused);
            events.iter().map(|e| e.ctx.payload).collect::<Vec<_>>()
        };
        assert_renders_exactly(&service, id, camera);
        assert_eq!(reused(&service), [0], "a cold render reads no slot");
        republish(&service, id);
        assert_renders_exactly(&service, id, camera);
        let scene = &service.store().get(id).unwrap().scene;
        let lit = (0..camera.height)
            .flat_map(|y| (0..camera.width).map(move |x| (x, y)))
            .filter(|&(x, y)| scene.intersect(&camera.ray(x, y), f64::INFINITY).is_some())
            .count() as u64;
        assert!(lit > 0);
        assert_eq!(reused(&service), [0, lit]);
    }

    #[test]
    fn wait_timeout_returns_instead_of_blocking_forever() {
        let (store, id) = store_with_cornell();
        let service = RenderService::start(store, ServeConfig::default());
        let ticket = service.submit(RenderRequest {
            scene_id: id,
            camera: cornell_cam(0.5),
        });
        // Either the render already finished or the wait gives up quickly;
        // both return control. A timed-out ticket can still collect later.
        match ticket.wait_timeout(Duration::from_millis(1)) {
            Ok(r) => assert_eq!(r.image.width(), 24),
            Err(ServeError::TimedOut) => {
                let r = ticket
                    .wait_timeout(Duration::from_secs(30))
                    .expect("served on the retry");
                assert_eq!(r.image.width(), 24);
            }
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn unknown_scene_is_an_error_not_a_hang() {
        let (store, _) = store_with_cornell();
        let service = RenderService::start(store, ServeConfig::default());
        let req = RenderRequest {
            scene_id: SceneId(99),
            camera: cornell_cam(0.0),
        };
        let err = service.render_blocking(req).unwrap_err();
        assert_eq!(err, ServeError::UnknownScene(SceneId(99)));
    }

    #[test]
    fn batched_duplicates_coalesce_into_one_render() {
        let (store, id) = store_with_cornell();
        // Single-slot batching window large enough to see all four at once.
        let service = RenderService::start(store, ServeConfig::default());
        let req = RenderRequest {
            scene_id: id,
            camera: cornell_cam(1.0),
        };
        let responses = service.render_batch(vec![req; 4]);
        let images: Vec<_> = responses.into_iter().map(|r| r.unwrap()).collect();
        for r in &images[1..] {
            assert_eq!(r.image.pixels(), images[0].image.pixels());
        }
        let m = service.metrics();
        // However the queue drained, an identical view never renders twice:
        // followers are coalesced (same batch) or cache hits (later batch).
        assert_eq!(m.completed, 4);
        assert_eq!(m.rendered, 1, "duplicates re-rendered: {m:?}");
        assert_eq!(m.cache_hits + m.coalesced, 3);
    }

    #[test]
    fn shutdown_answers_queued_work_first() {
        let (store, id) = store_with_cornell();
        let service = RenderService::start(store, ServeConfig::default());
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                service.submit(RenderRequest {
                    scene_id: id,
                    camera: cornell_cam(i as f64),
                })
            })
            .collect();
        service.shutdown();
        for t in tickets {
            assert!(t.wait().is_ok(), "queued request dropped at shutdown");
        }
    }
}
