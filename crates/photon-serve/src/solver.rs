//! The solve pipeline: scenes in, progressively refining answers out,
//! scheduled fairly across many concurrent jobs.
//!
//! Before this layer, photon-serve could only replay answers computed
//! offline. [`SolverPool`] closes the loop: a client submits a
//! [`SolveRequest`] — a scene, a backend choice, and a convergence target —
//! and a pool of background solver threads drives the chosen
//! [`SolverEngine`] batch by batch, publishing snapshots into the shared
//! [`AnswerStore`] under increasing epochs so the render path serves views
//! from the freshest solution while the solve is still running.
//!
//! **Scheduling.** The pool is *not* run-to-completion: because every
//! engine is an incremental `step → snapshot` machine that persists
//! between calls, the scheduler's unit of work is one **slice** — a single
//! `engine.step(batch)`. Workers pull slices via weighted round-robin over
//! all runnable jobs, so a 10M-photon tenant and a 20k-photon tenant on a
//! one-worker pool interleave instead of serializing, and the light job
//! finishes while the heavy one keeps refining. Each job carries a
//! [`priority`](SolveRequest::priority) (its round-robin weight) and a
//! [`tenant`](SolveRequest::tenant) tag; per-tenant photon budgets set via
//! [`SolverPool::set_tenant_budget`] are enforced at slice grant — an
//! exhausted tenant's jobs park until more budget arrives, without
//! stalling anyone else.
//!
//! **Lifecycle.** A running job's [`SolveHandle`] can
//! [`pause`](SolveHandle::pause) (parks after the in-flight slice),
//! [`resume`](SolveHandle::resume), and [`cancel`](SolveHandle::cancel)
//! (publishes a final snapshot of whatever was solved and frees the job's
//! slot). Scheduler state — queue depth, per-job photons/sec and
//! epochs/sec, slices granted per tenant — is observable through
//! [`SolverPool::metrics`] or, attached to a `RenderService`, inside every
//! [`crate::MetricsSnapshot`].
//!
//! **Checkpoint & migrate.** The pool freezes a job's engine into an
//! [`EngineCheckpoint`] whenever it parks on pause, whenever cancel or a
//! pool shutdown finalizes it, and on demand via
//! [`SolveHandle::checkpoint`]. Submitting that checkpoint to any pool
//! through [`SolveRequest::resume_from`] (or [`SolveRequest::resume`])
//! continues the solve where it stopped — on the order-preserving backends
//! (`Serial`, `Threaded`) the final answer is bit-identical to a job that
//! was never interrupted, and tenant budgets are charged only for photons
//! emitted on the resuming pool. Checkpoint counts and encoded bytes
//! surface in [`crate::SolverMetricsSnapshot`].
//!
//! Backends map onto the three engines:
//!
//! | [`BackendChoice`] | engine | notes |
//! |-------------------|--------|-------|
//! | `Serial` | `photon_core::Simulator` | the reference |
//! | `Threaded` | `photon_par::ParEngine` | same photon loop, tallies partitioned back into serial order: bit-identical to `Serial` |
//! | `Distributed` | `photon_dist::DistEngine` | virtual-time ranks; progress reports model seconds |

use crate::metrics::{SolveJobMetrics, SolverMetricsSnapshot, SolverStatsSource, TenantMetrics};
use crate::store::{AnswerStore, SceneId};
use photon_core::obs::{ObsCtx, ObsKind, Stage};
use photon_core::{EngineCheckpoint, ForestFootprint, ObsHub, SimConfig, Simulator, SolverEngine};
use photon_dist::{BalanceMode, BatchMode, DistConfig, DistEngine};
use photon_geom::Scene;
use photon_par::{ParConfig, ParEngine};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tenant tag used when a request does not set one.
pub const DEFAULT_TENANT: &str = "default";

/// Which engine solves the job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendChoice {
    /// The serial reference simulator.
    Serial,
    /// Shared-memory threads — the answer is bit-identical to `Serial` for
    /// the same seed and photon count, at any thread count.
    Threaded {
        /// Worker thread count asked for; the pool spawns at least one
        /// worker and at most one per host core.
        threads: usize,
    },
    /// The message-passing world on virtual time (naive ownership, fixed
    /// batches — progress reports carry model seconds).
    Distributed {
        /// Number of ranks.
        nranks: usize,
    },
}

/// One solve job: a scene, a backend, a convergence target, and how it
/// shares the pool.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// Name for the stored entry (logs, bench reports).
    pub name: String,
    /// The geometry to solve.
    pub scene: Scene,
    /// Which engine runs it.
    pub backend: BackendChoice,
    /// Seed of the photon stream.
    pub seed: u64,
    /// Photons per engine step — also the scheduler's slice size, so it
    /// bounds how long this job can hold a worker before others run.
    pub batch_size: u64,
    /// Convergence target: the job completes once this many photons have
    /// been emitted.
    pub target_photons: u64,
    /// Publish a snapshot into the store every this many batches (the
    /// final state always publishes).
    pub publish_every: u64,
    /// Weighted-round-robin weight: slices granted per scheduling round
    /// relative to other runnable jobs (clamped to ≥ 1).
    pub priority: u32,
    /// Tenant tag for quota accounting and fairness metrics.
    pub tenant: String,
    /// Starting checkpoint: when set, the job's engine restores this state
    /// before its first batch and the solve continues the checkpointed
    /// photon stream — the migration primitive that moves a paused job to
    /// another pool. The checkpoint must match the request's scene (patch
    /// count) and [`seed`](SolveRequest::seed); [`SolverPool::submit`]
    /// panics otherwise. [`target_photons`](SolveRequest::target_photons)
    /// still counts *total* photons, so a checkpoint at or past the target
    /// publishes immediately. Tenant budgets are only charged for photons
    /// emitted on this pool, never for the resumed ones.
    pub resume_from: Option<Arc<EngineCheckpoint>>,
}

impl SolveRequest {
    /// A serial job with service defaults; adjust fields as needed.
    pub fn new(name: impl Into<String>, scene: Scene) -> Self {
        SolveRequest {
            name: name.into(),
            scene,
            backend: BackendChoice::Serial,
            seed: 0x5EED,
            batch_size: 2_000,
            target_photons: 20_000,
            publish_every: 1,
            priority: 1,
            tenant: DEFAULT_TENANT.to_string(),
            resume_from: None,
        }
    }

    /// A request that resumes `checkpoint` over `scene` — seed and split
    /// policy are adopted from the checkpoint so the stream continues.
    pub fn resume(
        name: impl Into<String>,
        scene: Scene,
        checkpoint: Arc<EngineCheckpoint>,
    ) -> Self {
        let mut request = SolveRequest::new(name, scene);
        request.seed = checkpoint.seed();
        request.resume_from = Some(checkpoint);
        request
    }
}

/// Handle to one queued job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SolveJobId(pub u64);

impl std::fmt::Display for SolveJobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "solve#{}", self.0)
    }
}

/// One published epoch of a running (or finished) solve.
#[derive(Clone, Copy, Debug)]
pub struct SolveProgress {
    /// The job that published.
    pub job: SolveJobId,
    /// The store entry the answer went into.
    pub scene_id: SceneId,
    /// The epoch this snapshot was published under.
    pub epoch: u64,
    /// Photons emitted so far.
    pub emitted: u64,
    /// Leaf bins in the forest (refinement progress).
    pub leaf_bins: u64,
    /// Solve time so far — wall seconds, or virtual seconds when
    /// [`SolveProgress::virtual_time`] is set.
    pub elapsed_seconds: f64,
    /// True when `elapsed_seconds` is model time (distributed backend).
    pub virtual_time: bool,
    /// True on the job's final publish.
    pub done: bool,
    /// True when the final publish came from [`SolveHandle::cancel`]
    /// rather than reaching the convergence target.
    pub canceled: bool,
}

/// The client's end of a submitted job: the store id to render against, a
/// stream of per-epoch progress reports, and the job's lifecycle controls.
pub struct SolveHandle {
    job: SolveJobId,
    scene_id: SceneId,
    rx: Receiver<SolveProgress>,
    shared: Arc<Shared>,
}

impl SolveHandle {
    /// The job's id.
    pub fn job_id(&self) -> SolveJobId {
        self.job
    }

    /// The store entry this job publishes into — valid for render requests
    /// immediately (epoch 0 renders black until the first publish).
    pub fn scene_id(&self) -> SceneId {
        self.scene_id
    }

    /// Parks the job after its in-flight slice (if any) completes; no
    /// further slices are granted until [`resume`](Self::resume). Pausing
    /// a finished job is a no-op.
    pub fn pause(&self) {
        self.shared.pause(self.job);
    }

    /// Returns a paused job to the run queue.
    pub fn resume(&self) {
        self.shared.resume(self.job);
    }

    /// Cancels the job: a worker publishes one final snapshot of whatever
    /// has been solved (so renders keep the best available answer), sends
    /// a terminal progress report with [`SolveProgress::canceled`] set,
    /// and the job's slot frees for other tenants. Canceling a finished
    /// job is a no-op.
    pub fn cancel(&self) {
        self.shared.cancel(self.job);
    }

    /// The job's latest [`EngineCheckpoint`] — the migration payload that
    /// resumes this solve on any pool via [`SolveRequest::resume_from`].
    ///
    /// The pool checkpoints a job when it parks on [`pause`](Self::pause),
    /// when [`cancel`](Self::cancel) or a pool shutdown finalizes it, and
    /// on demand here whenever the parked engine has advanced past the
    /// stored checkpoint (the freeze runs outside the scheduler lock, so
    /// other jobs keep receiving slices). The handle outlives its pool, so
    /// the checkpoint of a job canceled by shutdown stays fetchable after
    /// the pool is dropped.
    ///
    /// Returns whatever was last recorded — which may be `None` — while a
    /// worker holds the engine mid-slice (pause first, then wait for the
    /// progress stream to quiesce), for a job that never held any state,
    /// and for a job that ran to normal convergence: a converged job's
    /// engine is dropped without a final freeze, because its complete
    /// answer is already published in the store.
    pub fn checkpoint(&self) -> Option<Arc<EngineCheckpoint>> {
        self.shared.checkpoint_of(self.job)
    }

    /// Waits up to `timeout` for the next progress report. `None` when the
    /// timeout passes, or when the job is finished and fully drained.
    pub fn next_progress(&self, timeout: Duration) -> Option<SolveProgress> {
        match self.rx.recv_timeout(timeout) {
            Ok(p) => Some(p),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Drains progress until a report with `epoch >= epoch` arrives, up to
    /// `timeout` total.
    pub fn wait_epoch(&self, epoch: u64, timeout: Duration) -> Option<SolveProgress> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            let p = self.next_progress(left)?;
            if p.epoch >= epoch {
                return Some(p);
            }
        }
    }

    /// Drains progress until the final (`done`) report, up to `timeout`
    /// total.
    pub fn wait_done(&self, timeout: Duration) -> Option<SolveProgress> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            let p = self.next_progress(left)?;
            if p.done {
                return Some(p);
            }
        }
    }
}

/// Where a job sits in the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Runnable: in the round-robin queue, waiting for a slice.
    Ready,
    /// A worker holds the engine and is stepping it.
    InSlice,
    /// Parked by [`SolveHandle::pause`].
    Paused,
    /// Parked because the tenant's photon budget ran out.
    QuotaBlocked,
    /// Finished — converged or canceled.
    Done,
}

struct JobState {
    id: SolveJobId,
    scene_id: SceneId,
    tenant: String,
    priority: u32,
    target_photons: u64,
    batch_size: u64,
    publish_every: u64,
    /// Everything needed to construct the backend engine (including the
    /// scene geometry). Consumed at the first slice grant so finished
    /// jobs don't retain a `Scene` copy for the pool's lifetime.
    build: Option<SolveRequest>,
    progress: Option<Sender<SolveProgress>>,
    /// The persistent engine, parked here between slices. `None` before
    /// the first slice (built lazily on a worker) and while leased.
    engine: Option<Box<dyn SolverEngine>>,
    /// Latest checkpoint of this job: the starting checkpoint at submit
    /// (when resuming), refreshed whenever the pool checkpoints the job —
    /// on pause, on cancel/shutdown finalization, and on demand through
    /// [`SolveHandle::checkpoint`].
    checkpoint: Option<Arc<EngineCheckpoint>>,
    /// Photons inherited from [`SolveRequest::resume_from`] (0 otherwise).
    resumed_photons: u64,
    phase: Phase,
    /// Remaining slices this scheduling round (refilled to `priority`).
    credit: u32,
    pause_requested: bool,
    cancel_requested: bool,
    canceled: bool,
    emitted: u64,
    batches: u64,
    slices: u64,
    epochs: u64,
    /// Wall seconds of granted slice time (what the pool spent on it).
    busy_seconds: f64,
    /// Forest arena footprint after the job's latest slice (zero until the
    /// first slice lands).
    footprint: ForestFootprint,
}

impl JobState {
    fn metrics_state(&self) -> &'static str {
        match self.phase {
            Phase::Ready => "queued",
            Phase::InSlice => "running",
            Phase::Paused => "paused",
            Phase::QuotaBlocked => "quota-blocked",
            Phase::Done if self.canceled => "canceled",
            Phase::Done => "done",
        }
    }
}

#[derive(Default)]
struct TenantState {
    /// Photon budget still grantable; `None` = unlimited.
    budget: Option<u64>,
    photons_used: u64,
    slices: u64,
}

/// Scheduler state, guarded by one mutex (slices run unlocked; the lock is
/// only held to grant and return them).
struct Sched {
    jobs: BTreeMap<u64, JobState>,
    /// Round-robin order over `Phase::Ready` jobs — id in `rr` iff Ready.
    rr: VecDeque<u64>,
    tenants: HashMap<String, TenantState>,
    /// Checkpoints taken by this pool, and their total `PHOTCK1` bytes.
    checkpoints_taken: u64,
    checkpoint_bytes: u64,
    draining: bool,
    /// The store's shared observability hub (also held by [`Shared`]);
    /// kept here so grant/park/checkpoint edges can be recorded from
    /// methods that only see the scheduler state.
    obs: Arc<ObsHub>,
}

impl Sched {
    fn job(&mut self, id: SolveJobId) -> Option<&mut JobState> {
        self.jobs.get_mut(&id.0)
    }

    /// Stores `checkpoint` as job `id`'s latest and accounts it.
    fn record_checkpoint(&mut self, id: SolveJobId, checkpoint: Arc<EngineCheckpoint>) {
        self.checkpoints_taken += 1;
        self.checkpoint_bytes += checkpoint.encoded_size();
        self.obs.emit(
            ObsKind::CheckpointFrozen,
            ObsCtx {
                job: Some(id.0),
                payload: checkpoint.encoded_size(),
                ..Default::default()
            },
        );
        if let Some(job) = self.job(id) {
            job.checkpoint = Some(checkpoint);
        }
    }

    fn make_ready(&mut self, id: u64) {
        if let Some(job) = self.jobs.get_mut(&id) {
            job.phase = Phase::Ready;
            if !self.rr.contains(&id) {
                self.rr.push_back(id);
            }
        }
    }

    fn unqueue(&mut self, id: u64) {
        self.rr.retain(|&x| x != id);
    }

    fn tenant_remaining(&self, tenant: &str) -> Option<u64> {
        self.tenants.get(tenant).and_then(|t| t.budget)
    }

    /// Returns `tenant`'s quota-blocked jobs to the run queue (after a
    /// budget top-up, or when a slice's reservation reconciles upward).
    fn unblock_tenant(&mut self, tenant: &str) {
        let blocked: Vec<u64> = self
            .jobs
            .values()
            .filter(|j| j.phase == Phase::QuotaBlocked && j.tenant == tenant)
            .map(|j| j.id.0)
            .collect();
        for id in blocked {
            self.make_ready(id);
        }
    }

    /// Weighted round-robin slice grant: cycle the ready queue, spending
    /// one credit per grant; when every ready job is out of credit, refill
    /// each to its priority and go again. A job with priority `p` thus
    /// receives `p` slices per round — interleaved, not bursty. A granted
    /// job leaves the queue ([`Phase::InSlice`]) and rejoins at the tail
    /// when its slice returns, which is what rotates the ring.
    fn grant(&mut self) -> Option<Lease> {
        for pass in 0..2 {
            let mut saw_zero_credit = false;
            for _ in 0..self.rr.len() {
                let Some(id) = self.rr.pop_front() else { break };
                let Some(job) = self.jobs.get(&id) else {
                    continue;
                };
                debug_assert_eq!(job.phase, Phase::Ready, "rr holds only ready jobs");
                let tenant_name = job.tenant.clone();
                let batch = job.batch_size.max(1);
                let cancel = job.cancel_requested;
                let credit = job.credit;
                let remaining = self.tenant_remaining(&tenant_name);
                if !cancel {
                    if remaining == Some(0) {
                        // Parked out of rr until budget arrives.
                        let job = self.jobs.get_mut(&id).unwrap();
                        job.phase = Phase::QuotaBlocked;
                        self.obs.emit(
                            ObsKind::SliceParked,
                            ObsCtx {
                                scene: Some(job.scene_id.0),
                                job: Some(id),
                                tenant: Some(tenant_name),
                                payload: 1, // quota exhausted
                            },
                        );
                        continue;
                    }
                    if credit == 0 {
                        saw_zero_credit = true;
                        self.rr.push_back(id);
                        continue;
                    }
                }
                let job = self.jobs.get_mut(&id).unwrap();
                job.phase = Phase::InSlice;
                if cancel {
                    // Finalization outranks fairness: free the slot now.
                    return Some(Lease {
                        id: job.id,
                        scene_id: job.scene_id,
                        engine: job.engine.take(),
                        build: job.build.take(),
                        kind: LeaseKind::Finalize,
                    });
                }
                job.credit -= 1;
                job.slices += 1;
                let slice = remaining.map_or(batch, |left| batch.min(left));
                let lease = Lease {
                    id: job.id,
                    scene_id: job.scene_id,
                    engine: job.engine.take(),
                    build: job.build.take(),
                    kind: LeaseKind::Step { slice },
                };
                let tenant = self.tenants.entry(tenant_name).or_default();
                tenant.slices += 1;
                // Reserve the slice's photons up front so concurrent
                // workers of one tenant cannot over-grant the budget; the
                // reservation is reconciled against the photons actually
                // emitted when the slice returns.
                if let Some(budget) = tenant.budget.as_mut() {
                    *budget -= slice; // slice ≤ remaining by construction
                }
                return Some(lease);
            }
            if pass == 0 && saw_zero_credit {
                let ready: Vec<u64> = self.rr.iter().copied().collect();
                for id in ready {
                    if let Some(job) = self.jobs.get_mut(&id) {
                        job.credit = job.priority.max(1);
                    }
                }
            } else {
                break;
            }
        }
        None
    }

    /// At drain time, parked jobs can never run again on their own; mark
    /// the first one canceled and runnable so a worker finalizes it.
    fn cancel_one_parked(&mut self) -> bool {
        let parked = self
            .jobs
            .values()
            .find(|j| matches!(j.phase, Phase::Paused | Phase::QuotaBlocked))
            .map(|j| j.id.0);
        match parked {
            Some(id) => {
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.cancel_requested = true;
                }
                self.make_ready(id);
                true
            }
            None => false,
        }
    }

    fn all_done(&self) -> bool {
        self.jobs.values().all(|j| j.phase == Phase::Done)
    }

    fn snapshot(&self) -> SolverMetricsSnapshot {
        let mut snap = SolverMetricsSnapshot {
            checkpoints_taken: self.checkpoints_taken,
            checkpoint_bytes: self.checkpoint_bytes,
            ..Default::default()
        };
        for job in self.jobs.values() {
            match job.phase {
                Phase::Ready => snap.queue_depth += 1,
                Phase::InSlice => snap.running += 1,
                Phase::Paused => snap.paused += 1,
                Phase::QuotaBlocked => snap.quota_blocked += 1,
                Phase::Done => snap.done += 1,
            }
            let rate = |count: u64| {
                if job.busy_seconds > 0.0 {
                    count as f64 / job.busy_seconds
                } else {
                    0.0
                }
            };
            snap.forest_node_bytes += job.footprint.node_bytes;
            snap.forest_leaf_bytes += job.footprint.leaf_bytes;
            snap.forest_leaf_bins += job.footprint.leaf_bins;
            snap.jobs.push(SolveJobMetrics {
                job: job.id.0,
                tenant: job.tenant.clone(),
                priority: job.priority.max(1),
                state: job.metrics_state(),
                emitted: job.emitted,
                resumed_photons: job.resumed_photons,
                target_photons: job.target_photons,
                slices: job.slices,
                epochs: job.epochs,
                photons_per_sec: rate(job.emitted),
                epochs_per_sec: rate(job.epochs),
                forest_node_bytes: job.footprint.node_bytes,
                forest_leaf_bytes: job.footprint.leaf_bytes,
                forest_leaf_bins: job.footprint.leaf_bins,
            });
        }
        let mut tenants: BTreeMap<&str, TenantMetrics> = BTreeMap::new();
        for (name, t) in &self.tenants {
            tenants.insert(
                name,
                TenantMetrics {
                    tenant: name.clone(),
                    slices: t.slices,
                    photons_used: t.photons_used,
                    budget_remaining: t.budget,
                    quota_blocked_jobs: 0,
                },
            );
        }
        for job in self.jobs.values() {
            if job.phase == Phase::QuotaBlocked {
                if let Some(t) = tenants.get_mut(job.tenant.as_str()) {
                    t.quota_blocked_jobs += 1;
                }
            }
        }
        snap.tenants = tenants.into_values().collect();
        snap
    }
}

/// What a worker took out of the scheduler for one unlocked unit of work.
struct Lease {
    id: SolveJobId,
    scene_id: SceneId,
    engine: Option<Box<dyn SolverEngine>>,
    /// The build request, present only on the job's first grant (the
    /// engine does not exist yet); a `Finalize` lease drops it unused.
    build: Option<SolveRequest>,
    kind: LeaseKind,
}

enum LeaseKind {
    /// Step the engine by up to `slice` photons.
    Step { slice: u64 },
    /// Publish the final snapshot of a canceled job and retire it.
    Finalize,
}

struct Shared {
    state: Mutex<Sched>,
    work: Condvar,
    /// The store's observability hub, reachable without the scheduler
    /// lock for emits on the unlocked slice path.
    obs: Arc<ObsHub>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.state.lock().unwrap()
    }

    fn pause(&self, id: SolveJobId) {
        let mut st = self.lock();
        let Some(job) = st.job(id) else { return };
        let scene = job.scene_id.0;
        let parked = match job.phase {
            Phase::Ready => {
                job.phase = Phase::Paused;
                st.unqueue(id.0);
                true
            }
            Phase::InSlice => {
                job.pause_requested = true;
                false
            }
            // A quota-blocked job is pausable too — otherwise a later
            // budget top-up would resume a job its owner explicitly
            // paused.
            Phase::QuotaBlocked => {
                job.phase = Phase::Paused;
                true
            }
            Phase::Paused | Phase::Done => false,
        };
        if parked {
            st.obs.emit(
                ObsKind::SliceParked,
                ObsCtx {
                    scene: Some(scene),
                    job: Some(id.0),
                    payload: 0, // paused by owner
                    ..Default::default()
                },
            );
        }
    }

    fn resume(&self, id: SolveJobId) {
        let mut st = self.lock();
        let Some(job) = st.job(id) else { return };
        match job.phase {
            Phase::Paused => {
                st.make_ready(id.0);
                self.work.notify_all();
            }
            Phase::InSlice => job.pause_requested = false,
            Phase::Ready | Phase::QuotaBlocked | Phase::Done => {}
        }
    }

    fn cancel(&self, id: SolveJobId) {
        let mut st = self.lock();
        let Some(job) = st.job(id) else { return };
        match job.phase {
            Phase::Done => {}
            Phase::InSlice => job.cancel_requested = true,
            Phase::Ready | Phase::Paused | Phase::QuotaBlocked => {
                job.cancel_requested = true;
                st.make_ready(id.0);
                self.work.notify_all();
            }
        }
    }

    /// The job's latest checkpoint, taking a fresh one when the parked
    /// engine has advanced past what was stored. Freezing a large forest
    /// is not cheap, so the engine is *leased* out of the scheduler
    /// (exactly like a worker slice) and checkpointed outside the lock —
    /// other jobs keep getting slices granted meanwhile; pause/resume/
    /// cancel requests arriving during the freeze are honored when the
    /// engine returns, just as after a step.
    fn checkpoint_of(&self, id: SolveJobId) -> Option<Arc<EngineCheckpoint>> {
        let mut st = self.lock();
        let (engine, tenant_name) = {
            let job = st.job(id)?;
            let stored_emitted = job.checkpoint.as_ref().map(|ck| ck.emitted());
            let stale = match job.engine.as_ref() {
                Some(engine) => stored_emitted != Some(engine.emitted()),
                None => false,
            };
            if !stale || job.phase == Phase::InSlice {
                // Done/unstarted jobs and mid-slice fetches fall back to
                // whatever was last recorded (the submit-time checkpoint,
                // or the pause/cancel freeze).
                return job.checkpoint.clone();
            }
            if job.phase == Phase::Paused {
                // Re-park after the freeze unless a resume lands meanwhile
                // (which clears the flag, exactly as during a slice).
                job.pause_requested = true;
            }
            job.phase = Phase::InSlice;
            let engine = job.engine.take().expect("parked engine present");
            (engine, job.tenant.clone())
        };
        st.unqueue(id.0);
        drop(st);
        let ck = self
            .obs
            .time(Stage::CheckpointFreeze, || Arc::new(engine.checkpoint()));
        let mut st = self.lock();
        st.record_checkpoint(id, Arc::clone(&ck));
        let quota_empty = st.tenant_remaining(&tenant_name) == Some(0);
        let flags = st.job(id).map(|job| {
            job.engine = Some(engine);
            (job.cancel_requested, job.pause_requested)
        });
        match flags {
            Some((true, _)) => st.make_ready(id.0),
            Some((false, true)) => {
                let job = st.job(id).expect("job still exists");
                job.pause_requested = false;
                job.phase = Phase::Paused;
            }
            Some((false, false)) if quota_empty => {
                st.job(id).expect("job still exists").phase = Phase::QuotaBlocked;
            }
            Some((false, false)) => st.make_ready(id.0),
            None => {}
        }
        drop(st);
        self.work.notify_all();
        Some(ck)
    }
}

impl SolverStatsSource for Shared {
    fn solver_snapshot(&self) -> SolverMetricsSnapshot {
        self.lock().snapshot()
    }
}

/// A pool of background solver threads feeding an [`AnswerStore`],
/// scheduling all submitted jobs fairly at batch granularity.
///
/// Submission registers the scene immediately (so render requests can
/// target it before the first batch lands) and enters the job into the
/// shared weighted-round-robin run queue; workers repeatedly grant one
/// slice (one `engine.step`) to the next runnable job. Dropping the pool
/// (or [`SolverPool::shutdown`]) finishes runnable jobs first and cancels
/// paused or quota-blocked ones (each still publishes its final snapshot).
pub struct SolverPool {
    store: Arc<AnswerStore>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_job: Mutex<u64>,
}

impl SolverPool {
    /// Starts `workers` solver threads over `store`. The pool records into
    /// the store's observability hub ([`AnswerStore::obs`]), so its events
    /// land on the same timeline as the serve and stream tiers'.
    pub fn start(store: Arc<AnswerStore>, workers: usize) -> Self {
        assert!(workers >= 1, "a solver pool needs at least one worker");
        let obs = store.obs();
        let shared = Arc::new(Shared {
            state: Mutex::new(Sched {
                jobs: BTreeMap::new(),
                rr: VecDeque::new(),
                tenants: HashMap::new(),
                checkpoints_taken: 0,
                checkpoint_bytes: 0,
                draining: false,
                obs: Arc::clone(&obs),
            }),
            work: Condvar::new(),
            obs,
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let store = Arc::clone(&store);
                std::thread::Builder::new()
                    .name(format!("photon-solve-{w}"))
                    .spawn(move || worker_loop(&store, &shared))
                    .expect("spawn solver worker")
            })
            .collect();
        SolverPool {
            store,
            shared,
            workers: handles,
            next_job: Mutex::new(0),
        }
    }

    /// The store this pool publishes into.
    pub fn store(&self) -> &Arc<AnswerStore> {
        &self.store
    }

    /// Registers the scene (epoch 0) and enters the job into the run
    /// queue; returns the handle carrying the renderable [`SceneId`], the
    /// progress stream, and the pause/resume/cancel controls.
    ///
    /// # Panics
    /// Panics when [`SolveRequest::resume_from`] carries a checkpoint that
    /// cannot continue this request's solve — wrong patch count for the
    /// scene, or a different photon-stream seed. (A checkpoint is only
    /// meaningful against the geometry and stream it froze; accepting it
    /// would silently corrupt the answer.)
    pub fn submit(&self, request: SolveRequest) -> SolveHandle {
        if let Some(ck) = request.resume_from.as_deref() {
            // Only the scene and stream are checkable here; the split
            // policy cannot mismatch because `build_engine` adopts the
            // checkpoint's.
            assert_eq!(
                ck.patch_count(),
                request.scene.polygon_count(),
                "resume checkpoint must match the request's scene"
            );
            assert_eq!(
                ck.seed(),
                request.seed,
                "resume checkpoint must match the request's seed"
            );
        }
        let id = {
            let mut next = self.next_job.lock().unwrap();
            let id = SolveJobId(*next);
            *next += 1;
            id
        };
        let scene_id = self
            .store
            .register(request.name.clone(), request.scene.clone());
        let (progress, rx) = channel();
        let mut st = self.shared.lock();
        // A draining pool accepts no jobs; dropping the progress sender
        // surfaces it as an immediately-drained handle.
        if !st.draining {
            let priority = request.priority.max(1);
            let resumed_photons = request.resume_from.as_ref().map_or(0, |ck| ck.emitted());
            let (tenant, target) = (request.tenant.clone(), request.target_photons);
            st.tenants.entry(request.tenant.clone()).or_default();
            st.jobs.insert(
                id.0,
                JobState {
                    id,
                    scene_id,
                    tenant: request.tenant.clone(),
                    priority,
                    target_photons: request.target_photons,
                    batch_size: request.batch_size.max(1),
                    publish_every: request.publish_every.max(1),
                    checkpoint: request.resume_from.clone(),
                    resumed_photons,
                    build: Some(request),
                    progress: Some(progress),
                    engine: None,
                    phase: Phase::Ready,
                    credit: priority,
                    pause_requested: false,
                    cancel_requested: false,
                    canceled: false,
                    emitted: resumed_photons,
                    batches: 0,
                    slices: 0,
                    epochs: 0,
                    busy_seconds: 0.0,
                    footprint: ForestFootprint::default(),
                },
            );
            st.rr.push_back(id.0);
            self.shared.obs.emit(
                ObsKind::JobSubmitted,
                ObsCtx {
                    scene: Some(scene_id.0),
                    job: Some(id.0),
                    tenant: Some(tenant),
                    payload: target,
                },
            );
            self.work_notify();
        }
        drop(st);
        SolveHandle {
            job: id,
            scene_id,
            rx,
            shared: Arc::clone(&self.shared),
        }
    }

    fn work_notify(&self) {
        self.shared.work.notify_all();
    }

    /// Sets tenant `tenant`'s remaining photon budget. Each slice grant
    /// *reserves* its photons against the budget (so concurrent workers
    /// cannot over-grant it) and reconciles to what the engine actually
    /// emitted when the slice returns; at zero the tenant's jobs park
    /// until more budget arrives. Unknown tenants are created, so quotas
    /// can be configured before the first submit.
    pub fn set_tenant_budget(&self, tenant: &str, photons: u64) {
        let mut st = self.shared.lock();
        st.tenants.entry(tenant.to_string()).or_default().budget = Some(photons);
        if photons > 0 {
            st.unblock_tenant(tenant);
            self.work_notify();
        }
    }

    /// Adds `photons` to tenant `tenant`'s remaining budget, waking any of
    /// its quota-blocked jobs. A tenant with no configured budget is
    /// unlimited; adding to it sets a finite budget of `photons`.
    pub fn add_tenant_budget(&self, tenant: &str, photons: u64) {
        let mut st = self.shared.lock();
        let t = st.tenants.entry(tenant.to_string()).or_default();
        t.budget = Some(t.budget.unwrap_or(0).saturating_add(photons));
        if photons > 0 {
            st.unblock_tenant(tenant);
            self.work_notify();
        }
    }

    /// Current scheduler state: queue depth, per-job rates, per-tenant
    /// slice and quota accounting.
    pub fn metrics(&self) -> SolverMetricsSnapshot {
        self.shared.solver_snapshot()
    }

    /// The pool's scheduler as a metrics source, for
    /// [`crate::RenderService::attach_solver`] — the render-side
    /// [`crate::MetricsSnapshot`] then carries the solve-tier state too.
    pub fn stats_source(&self) -> Arc<dyn SolverStatsSource> {
        Arc::clone(&self.shared) as Arc<dyn SolverStatsSource>
    }

    /// Stops accepting jobs, finishes runnable jobs, cancels parked ones
    /// (publishing their final snapshots), and joins the workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.draining = true;
        }
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for SolverPool {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Workers a `Threaded` job gets when its request asks for `requested` on a
/// host of `host` cores: at least one, at most one per core. The request
/// comes from outside the program, threads beyond the cores are pure
/// scheduling overhead for this compute-bound pipeline, and the answer is
/// bit-identical at any worker count, so clamping is invisible in it.
fn clamp_workers(requested: usize, host: usize) -> usize {
    requested.clamp(1, host.max(1))
}

/// Builds the backend engine for one job, restoring the request's starting
/// checkpoint when one is attached. A resumed engine adopts the
/// checkpoint's split policy so the restored trees keep refining exactly
/// as they would have, uninterrupted. The restore (when any) is timed into
/// `obs` and recorded as a [`ObsKind::CheckpointRestored`] event.
fn build_engine(request: &SolveRequest, obs: &ObsHub, id: SolveJobId) -> Box<dyn SolverEngine> {
    let split = request
        .resume_from
        .as_deref()
        .map_or_else(Default::default, |ck| ck.split());
    let mut engine: Box<dyn SolverEngine> = match request.backend {
        BackendChoice::Serial => Box::new(Simulator::new(
            request.scene.clone(),
            SimConfig {
                seed: request.seed,
                split,
            },
        )),
        BackendChoice::Threaded { threads } => {
            let host = std::thread::available_parallelism().map_or(threads, |n| n.get());
            Box::new(ParEngine::new(
                request.scene.clone(),
                ParConfig {
                    seed: request.seed,
                    threads: clamp_workers(threads, host),
                    split,
                    ..Default::default()
                },
            ))
        }
        BackendChoice::Distributed { nranks } => {
            let nranks = nranks.max(1);
            Box::new(DistEngine::new(
                request.scene.clone(),
                DistConfig {
                    seed: request.seed,
                    nranks,
                    // Service jobs skip the pilot so every emitted photon
                    // counts toward the target deterministically. The
                    // Fixed payload is unused on the engine path — ranks
                    // size batches from the step hint; Fixed only means
                    // "no adaptive controller" here.
                    balance: BalanceMode::Naive,
                    batch: BatchMode::Fixed(1),
                    split,
                    ..Default::default()
                },
            ))
        }
    };
    if let Some(ck) = request.resume_from.as_deref() {
        obs.time(Stage::CheckpointRestore, || {
            engine
                .restore(ck)
                .expect("checkpoint compatibility was validated at submit");
        });
        obs.emit(
            ObsKind::CheckpointRestored,
            ObsCtx {
                job: Some(id.0),
                payload: ck.emitted(),
                ..Default::default()
            },
        );
    }
    engine
}

/// The worker loop: grant a slice, run it unlocked, return it; park on the
/// condvar when nothing is runnable.
fn worker_loop(store: &AnswerStore, shared: &Shared) {
    loop {
        let lease = {
            let mut st = shared.lock();
            loop {
                if let Some(lease) = st.grant() {
                    break lease;
                }
                if st.draining {
                    if st.cancel_one_parked() {
                        continue;
                    }
                    if st.all_done() {
                        return;
                    }
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        run_slice(store, shared, lease);
        shared.work.notify_all();
    }
}

/// Runs one granted slice (or cancel finalization) outside the scheduler
/// lock, then returns the engine and accounts the outcome.
fn run_slice(store: &AnswerStore, shared: &Shared, lease: Lease) {
    let Lease {
        id,
        scene_id,
        engine,
        build,
        kind,
    } = lease;
    let slice_start = Instant::now();
    if let LeaseKind::Step { slice } = kind {
        shared.obs.emit(
            ObsKind::SliceGranted,
            ObsCtx {
                scene: Some(scene_id.0),
                job: Some(id.0),
                payload: slice,
                ..Default::default()
            },
        );
    }
    // Parameters are read under the lock; the step and publish run free.
    let (target, publish_every) = {
        let mut st = shared.lock();
        let job = st.job(id).expect("leased job exists");
        (job.target_photons, job.publish_every)
    };

    let finalize = |engine: &dyn SolverEngine,
                    emitted: u64,
                    elapsed: f64,
                    canceled: bool|
     -> (u64, SolveProgress) {
        let answer = engine.snapshot();
        let leaf_bins = answer.total_leaf_bins();
        let epoch = store.publish(scene_id, answer);
        (
            epoch,
            SolveProgress {
                job: id,
                scene_id,
                epoch,
                emitted,
                leaf_bins,
                elapsed_seconds: elapsed,
                virtual_time: engine.virtual_time(),
                done: true,
                canceled,
            },
        )
    };

    match kind {
        LeaseKind::Finalize => {
            let busy = shared.lock().job(id).map_or(0.0, |j| j.busy_seconds);
            match engine {
                // Cancel publishes whatever was solved so renders keep
                // the best snapshot, then retires the job.
                Some(engine) => {
                    // The engine is about to drop: freeze its state (so a
                    // canceled or shutdown-drained job can migrate via its
                    // handle's checkpoint) — unless the stored checkpoint
                    // is already at this photon count, as it is for a
                    // paused job drained by shutdown; re-freezing would
                    // clone the whole forest again for identical bytes.
                    let emitted = engine.emitted();
                    let stored_emitted = shared
                        .lock()
                        .job(id)
                        .and_then(|j| j.checkpoint.as_ref().map(|ck| ck.emitted()));
                    if stored_emitted != Some(emitted) {
                        let ck = shared
                            .obs
                            .time(Stage::CheckpointFreeze, || Arc::new(engine.checkpoint()));
                        shared.lock().record_checkpoint(id, ck);
                    }
                    let (_, progress) = finalize(engine.as_ref(), emitted, busy, true);
                    drop(engine);
                    retire(
                        shared,
                        id,
                        Some(emitted),
                        Some(progress),
                        true,
                        true,
                        slice_start,
                    );
                }
                // The job never received a slice: there is nothing to
                // publish (the registered epoch-0 entry already serves),
                // and building a backend just to snapshot an empty answer
                // would be waste — `build` drops here, freeing the scene.
                None => {
                    let epoch = store.get(scene_id).map_or(0, |entry| entry.epoch);
                    let progress = SolveProgress {
                        job: id,
                        scene_id,
                        epoch,
                        emitted: 0,
                        leaf_bins: 0,
                        elapsed_seconds: busy,
                        virtual_time: false,
                        done: true,
                        canceled: true,
                    };
                    retire(shared, id, None, Some(progress), true, true, slice_start);
                }
            }
        }
        LeaseKind::Step { slice } => {
            // A resumed job whose checkpoint already meets the target
            // needs no engine at all: the published answer is derivable
            // from the checkpoint, so skip booting a worker pool or rank
            // world just to snapshot and drop it.
            if engine.is_none() {
                let met = build
                    .as_ref()
                    .and_then(|b| b.resume_from.clone())
                    .filter(|ck| ck.emitted() >= target);
                if let Some(ck) = met {
                    let busy = refund_reservation(shared, id, slice);
                    let answer = ck.to_answer();
                    let leaf_bins = answer.total_leaf_bins();
                    let epoch = store.publish(scene_id, answer);
                    let progress = SolveProgress {
                        job: id,
                        scene_id,
                        epoch,
                        emitted: ck.emitted(),
                        leaf_bins,
                        elapsed_seconds: busy,
                        virtual_time: false,
                        done: true,
                        canceled: false,
                    };
                    retire(
                        shared,
                        id,
                        Some(ck.emitted()),
                        Some(progress),
                        false,
                        true,
                        slice_start,
                    );
                    return;
                }
            }
            // The engine persists across slices; build it on first grant.
            let mut engine = engine.unwrap_or_else(|| {
                build_engine(
                    &build.expect("first slice carries the build request"),
                    &shared.obs,
                    id,
                )
            });
            // Check the target *before* stepping: a target that is already
            // met (target_photons: 0, or met by a previous slice's
            // overshoot) must publish immediately, not emit another batch.
            if engine.emitted() >= target {
                let busy = refund_reservation(shared, id, slice);
                let emitted = engine.emitted();
                let (_, progress) = finalize(engine.as_ref(), emitted, busy, false);
                drop(engine);
                retire(
                    shared,
                    id,
                    Some(emitted),
                    Some(progress),
                    false,
                    true,
                    slice_start,
                );
                return;
            }
            let step_start = Instant::now();
            let report = engine.step(slice);
            shared
                .obs
                .stage(Stage::SolveSlice, step_start.elapsed().as_secs_f64());
            // Phase split of the slice: where the time went inside the
            // engine (trace vs partition+apply of the batched pipeline).
            shared.obs.stage(Stage::SolveTrace, report.trace_seconds);
            shared.obs.stage(Stage::TallyApply, report.apply_seconds);
            shared.obs.emit(
                ObsKind::BatchStepped,
                ObsCtx {
                    scene: Some(scene_id.0),
                    job: Some(id.0),
                    payload: report.batch_photons,
                    ..Default::default()
                },
            );
            let done = report.emitted_total >= target;
            // Account the slice (time, photons, quota) and read the flags
            // that arrived while the step ran unlocked.
            let (publish_now, cancel_now, pause_now, tenant_name) = {
                let mut st = shared.lock();
                let job = st.job(id).expect("leased job exists");
                job.batches += 1;
                job.emitted = report.emitted_total;
                job.footprint = report.footprint;
                job.busy_seconds += slice_start.elapsed().as_secs_f64();
                let cancel_now = job.cancel_requested;
                let pause_now = job.pause_requested;
                let publish_now = done || job.batches.is_multiple_of(publish_every);
                let tenant_name = job.tenant.clone();
                let tenant = st.tenants.entry(tenant_name.clone()).or_default();
                tenant.photons_used += report.batch_photons;
                // Reconcile the grant-time reservation (`slice` photons)
                // against what the engine actually emitted — backends may
                // round a batch to their worker/rank granularity.
                let mut wake_tenant = false;
                if let Some(budget) = tenant.budget.as_mut() {
                    *budget = budget
                        .saturating_add(slice)
                        .saturating_sub(report.batch_photons);
                    wake_tenant = *budget > 0;
                }
                if wake_tenant {
                    // An upward reconcile can revive jobs that parked on
                    // the reservation; the worker notifies after this
                    // slice returns.
                    st.unblock_tenant(&tenant_name);
                }
                (publish_now, cancel_now, pause_now, tenant_name)
            };
            if cancel_now {
                // The step advanced past any stored checkpoint: freeze the
                // engine before it drops so the canceled job can migrate.
                let ck = shared
                    .obs
                    .time(Stage::CheckpointFreeze, || Arc::new(engine.checkpoint()));
                shared.lock().record_checkpoint(id, ck);
                let busy = shared.lock().job(id).map_or(0.0, |j| j.busy_seconds);
                let (_, progress) = finalize(engine.as_ref(), report.emitted_total, busy, true);
                drop(engine);
                retire(
                    shared,
                    id,
                    Some(report.emitted_total),
                    Some(progress),
                    true,
                    false,
                    slice_start,
                );
                return;
            }
            if done {
                let (_, progress) = finalize(
                    engine.as_ref(),
                    report.emitted_total,
                    report.elapsed_seconds,
                    false,
                );
                drop(engine);
                retire(
                    shared,
                    id,
                    Some(report.emitted_total),
                    Some(progress),
                    false,
                    false,
                    slice_start,
                );
                return;
            }
            let progress = publish_now.then(|| {
                let answer = engine.snapshot();
                let epoch = store.publish(scene_id, answer);
                SolveProgress {
                    job: id,
                    scene_id,
                    epoch,
                    emitted: report.emitted_total,
                    leaf_bins: report.leaf_bins,
                    elapsed_seconds: report.elapsed_seconds,
                    virtual_time: engine.virtual_time(),
                    done: false,
                    canceled: false,
                }
            });
            // A job about to park on pause gets checkpointed while the
            // engine is still leased (outside the scheduler lock) — the
            // freeze that lets its owner migrate it to another pool.
            let park_checkpoint = pause_now.then(|| {
                shared
                    .obs
                    .time(Stage::CheckpointFreeze, || Arc::new(engine.checkpoint()))
            });
            // Return the engine and park or requeue per pending requests.
            let mut st = shared.lock();
            if let Some(ck) = park_checkpoint {
                st.record_checkpoint(id, ck);
            }
            let quota_empty = st.tenant_remaining(&tenant_name) == Some(0);
            let job = st.job(id).expect("leased job exists");
            job.engine = Some(engine);
            if let Some(p) = progress {
                job.epochs += 1;
                if let Some(tx) = job.progress.as_ref() {
                    // A dropped handle is fine; the publish still
                    // refreshed the store.
                    let _ = tx.send(p);
                }
            }
            let job = st.job(id).expect("leased job exists");
            if job.cancel_requested {
                st.make_ready(id.0);
            } else if job.pause_requested {
                job.pause_requested = false;
                job.phase = Phase::Paused;
                st.obs.emit(
                    ObsKind::SliceParked,
                    ObsCtx {
                        scene: Some(scene_id.0),
                        job: Some(id.0),
                        payload: 0, // paused by owner
                        ..Default::default()
                    },
                );
            } else if quota_empty {
                job.phase = Phase::QuotaBlocked;
                st.obs.emit(
                    ObsKind::SliceParked,
                    ObsCtx {
                        scene: Some(scene_id.0),
                        job: Some(id.0),
                        tenant: Some(tenant_name),
                        payload: 1, // quota exhausted
                    },
                );
            } else {
                st.make_ready(id.0);
            }
        }
    }
}

/// Returns one slice's grant-time photon reservation to the tenant budget
/// (for paths that retire without emitting anything) and reports the job's
/// accumulated busy seconds.
fn refund_reservation(shared: &Shared, id: SolveJobId, slice: u64) -> f64 {
    let mut st = shared.lock();
    let Some(job) = st.job(id) else { return 0.0 };
    let busy = job.busy_seconds;
    let tenant_name = job.tenant.clone();
    let tenant = st.tenants.entry(tenant_name.clone()).or_default();
    let mut wake_tenant = false;
    if let Some(budget) = tenant.budget.as_mut() {
        *budget = budget.saturating_add(slice);
        wake_tenant = *budget > 0;
    }
    if wake_tenant {
        st.unblock_tenant(&tenant_name);
    }
    busy
}

/// Marks a leased job finished (callers drop the engine first; `emitted`
/// is its final photon count, `None` when the job never held an engine and
/// published nothing), sends its terminal progress report, and drops the
/// progress sender. `account_time` is false when the caller's slice
/// accounting already added this lease's wall time — adding
/// `slice_start.elapsed()` again would double-count the step.
fn retire(
    shared: &Shared,
    id: SolveJobId,
    emitted: Option<u64>,
    progress: Option<SolveProgress>,
    canceled: bool,
    account_time: bool,
    slice_start: Instant,
) {
    shared.obs.emit(
        ObsKind::JobDone,
        ObsCtx {
            job: Some(id.0),
            payload: emitted.unwrap_or(0),
            ..Default::default()
        },
    );
    let mut st = shared.lock();
    let Some(job) = st.job(id) else { return };
    if account_time {
        job.busy_seconds += slice_start.elapsed().as_secs_f64();
    }
    if let Some(emitted) = emitted {
        job.emitted = emitted.max(job.emitted);
    }
    job.phase = Phase::Done;
    job.canceled = canceled;
    job.engine = None;
    job.build = None;
    if let Some(p) = progress {
        // An engine-less finalize published nothing, so it counts no
        // epoch; every other retirement path just published a snapshot.
        if emitted.is_some() {
            job.epochs += 1;
        }
        if let Some(tx) = job.progress.take() {
            let _ = tx.send(p);
        }
    } else {
        job.progress = None;
    }
    st.unqueue(id.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_scenes::cornell_box;

    #[test]
    fn worker_clamp_stays_between_one_and_the_host() {
        assert_eq!(clamp_workers(0, 8), 1);
        assert_eq!(clamp_workers(0, 0), 1);
        for host in 1..=8 {
            for requested in 0..=16 {
                let workers = clamp_workers(requested, host);
                assert!((1..=host).contains(&workers), "{requested} on {host}");
                if (1..=host).contains(&requested) {
                    assert_eq!(workers, requested);
                }
            }
        }
    }

    fn quick_request(backend: BackendChoice) -> SolveRequest {
        let mut r = SolveRequest::new("cornell", cornell_box());
        r.backend = backend;
        r.seed = 31;
        r.batch_size = 1_000;
        r.target_photons = 3_000;
        r
    }

    #[test]
    fn serial_job_publishes_monotone_epochs_to_done() {
        let store = Arc::new(AnswerStore::new());
        let pool = SolverPool::start(Arc::clone(&store), 1);
        let handle = pool.submit(quick_request(BackendChoice::Serial));
        let mut epochs = Vec::new();
        let mut last = None;
        while let Some(p) = handle.next_progress(Duration::from_secs(60)) {
            epochs.push(p.epoch);
            last = Some(p);
        }
        let last = last.expect("at least one publish");
        assert!(last.done);
        assert!(!last.canceled);
        assert_eq!(last.emitted, 3_000);
        assert_eq!(epochs, vec![1, 2, 3], "one epoch per batch, in order");
        assert_eq!(store.get(handle.scene_id()).unwrap().epoch, 3);
        assert_eq!(
            store.get(handle.scene_id()).unwrap().answer.emitted(),
            3_000
        );
    }

    #[test]
    fn every_backend_reaches_the_target() {
        let store = Arc::new(AnswerStore::new());
        let pool = SolverPool::start(Arc::clone(&store), 2);
        let backends = [
            BackendChoice::Serial,
            BackendChoice::Threaded { threads: 3 },
            BackendChoice::Distributed { nranks: 2 },
        ];
        let handles: Vec<SolveHandle> = backends
            .iter()
            .map(|&b| pool.submit(quick_request(b)))
            .collect();
        for (h, b) in handles.iter().zip(&backends) {
            let done = h.wait_done(Duration::from_secs(120)).expect("job finished");
            assert!(done.emitted >= 3_000, "{:?}", done);
            // Only the distributed backend reports model time.
            assert_eq!(
                done.virtual_time,
                matches!(b, BackendChoice::Distributed { .. })
            );
            let entry = store.get(h.scene_id()).unwrap();
            assert!(entry.epoch >= 1);
            assert_eq!(entry.answer.emitted(), done.emitted);
        }
    }

    #[test]
    fn publish_every_coalesces_intermediate_snapshots() {
        let store = Arc::new(AnswerStore::new());
        let pool = SolverPool::start(Arc::clone(&store), 1);
        let mut req = quick_request(BackendChoice::Serial);
        req.batch_size = 500;
        req.target_photons = 3_000; // 6 batches
        req.publish_every = 4; // publish at batch 4 and at done
        let handle = pool.submit(req);
        let mut reports = Vec::new();
        while let Some(p) = handle.next_progress(Duration::from_secs(60)) {
            reports.push(p);
        }
        assert_eq!(reports.len(), 2, "{reports:?}");
        assert_eq!(reports[0].emitted, 2_000);
        assert!(reports[1].done && reports[1].emitted == 3_000);
    }

    #[test]
    fn shutdown_finishes_queued_jobs() {
        let store = Arc::new(AnswerStore::new());
        let pool = SolverPool::start(Arc::clone(&store), 1);
        let handles: Vec<SolveHandle> = (0..3)
            .map(|i| {
                let mut r = quick_request(BackendChoice::Serial);
                r.seed = i;
                r.target_photons = 1_000;
                pool.submit(r)
            })
            .collect();
        pool.shutdown();
        for h in handles {
            let done = h.wait_done(Duration::from_secs(60)).expect("finished");
            assert!(done.done);
        }
    }

    #[test]
    fn one_worker_interleaves_two_jobs() {
        // The tentpole in miniature: with a single worker, a job submitted
        // second must publish epochs before the first job finishes.
        let store = Arc::new(AnswerStore::new());
        let pool = SolverPool::start(Arc::clone(&store), 1);
        let mut heavy = quick_request(BackendChoice::Serial);
        heavy.target_photons = 12_000; // 12 slices
        let heavy = pool.submit(heavy);
        let mut light = quick_request(BackendChoice::Serial);
        light.target_photons = 2_000; // 2 slices
        let light = pool.submit(light);
        let light_done = light.wait_done(Duration::from_secs(60)).expect("light job");
        assert_eq!(light_done.emitted, 2_000);
        // When the light job finished, the heavy one was still short of
        // its target — FIFO run-to-completion would have solved all 12k
        // photons first.
        let heavy_mid = store.get(heavy.scene_id()).unwrap().answer.emitted();
        assert!(
            heavy_mid < 12_000,
            "heavy job already done ({heavy_mid}) — no interleaving"
        );
        let heavy_done = heavy.wait_done(Duration::from_secs(60)).expect("heavy job");
        assert_eq!(heavy_done.emitted, 12_000);
    }

    #[test]
    fn priority_weights_slice_shares() {
        // Two equal jobs, priorities 3:1 — the favored job must finish
        // first on one worker even though it was submitted second.
        let store = Arc::new(AnswerStore::new());
        let pool = SolverPool::start(Arc::clone(&store), 1);
        let mut slow = quick_request(BackendChoice::Serial);
        slow.target_photons = 8_000;
        slow.priority = 1;
        let slow = pool.submit(slow);
        let mut fast = quick_request(BackendChoice::Serial);
        fast.target_photons = 8_000;
        fast.priority = 3;
        let fast = pool.submit(fast);
        fast.wait_done(Duration::from_secs(60)).expect("fast job");
        let slow_mid = store.get(slow.scene_id()).unwrap().answer.emitted();
        assert!(
            slow_mid < 8_000,
            "priority-1 job ({slow_mid}) kept pace with the priority-3 job"
        );
        slow.wait_done(Duration::from_secs(60)).expect("slow job");
    }
}
