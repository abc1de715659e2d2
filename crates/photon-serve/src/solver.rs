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
//! **Grant → unlocked slice → settle.** The scheduler proper (`Sched`) is
//! a pure state machine: it holds no observability hub, reads no clock and
//! sends on no channel, so its invariants are checked by a seeded
//! simulation with no threads in it. A worker drives it through two
//! transitions. `grant` hands out a lease — the engine, the photons
//! reserved against the tenant budget, and the job facts the slice needs.
//! The worker then does everything slow with the lock released: build or
//! step the engine, freeze a checkpoint, publish a snapshot, and build the
//! owner's [`SolveProgress`]. `settle` takes all of that back in one call
//! and is the only place that reconciles the budget reservation against
//! the photons actually emitted, counts batches and epochs, and decides
//! where the job goes next (cancel pending → back in the queue to be
//! finalized, pause pending → paused, budget empty → quota-blocked, ended
//! → done, otherwise → ready). [`SolveHandle::pause`], `resume`, `cancel`
//! and the on-demand [`SolveHandle::checkpoint`] go through that same
//! decision. What a transition wants the outside world to see — obs events
//! and progress reports — it queues; the driver sends them, in transition
//! order, as the last thing it does before releasing the scheduler lock.
//!
//! **Failure.** The unlocked part of a slice runs under `catch_unwind`. A
//! panicking engine ends its own job and nothing else: the reservation is
//! refunded, the handle receives one terminal report with
//! [`SolveProgress::failed`] set, the job's metrics state reads
//! `"failed"`, an [`ObsKind::SlicePanic`] event records it, and the worker
//! goes on to the next lease.
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
use photon_core::{
    Answer, BatchReport, EngineCheckpoint, ForestFootprint, ObsHub, SimConfig, Simulator,
    SolverEngine,
};
use photon_dist::{BalanceMode, BatchMode, DistConfig, DistEngine};
use photon_geom::Scene;
use photon_par::{ParConfig, ParEngine};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// bounds how long this job can hold a worker before others run. A
    /// threaded step holds at most one round's records, 4T × 2 048 photons'
    /// worth, however large the batch; a distributed step's exchange
    /// queues grow with it.
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
    /// True when `elapsed_seconds` is model time: the report follows a
    /// step of the distributed backend. A report that follows no step
    /// (cancel, a target already met) carries the pool's wall seconds.
    pub virtual_time: bool,
    /// True on the job's final publish.
    pub done: bool,
    /// True when the final publish came from [`SolveHandle::cancel`]
    /// rather than reaching the convergence target.
    pub canceled: bool,
    /// True on the terminal report of a job whose engine panicked; the
    /// report then describes the last answer the job published.
    pub failed: bool,
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
        self.shared
            .with(|st| st.request(self.job, |job| job.pause_requested = true));
    }

    /// Returns a paused job to the run queue.
    pub fn resume(&self) {
        self.shared
            .with(|st| st.request(self.job, |job| job.pause_requested = false));
    }

    /// Cancels the job: a worker publishes one final snapshot of whatever
    /// has been solved (so renders keep the best available answer), sends
    /// a terminal progress report with [`SolveProgress::canceled`] set,
    /// and the job's slot frees for other tenants. Canceling a finished
    /// job is a no-op.
    pub fn cancel(&self) {
        self.shared
            .with(|st| st.request(self.job, |job| job.cancel_requested = true));
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
    /// Leased: a worker (or an on-demand checkpoint) holds the engine.
    InSlice,
    /// Parked by [`SolveHandle::pause`].
    Paused,
    /// Parked because the tenant's photon budget ran out.
    QuotaBlocked,
    /// Finished, and how.
    Done(End),
}

/// How a finished job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum End {
    /// It reached its photon target.
    Converged,
    /// [`SolveHandle::cancel`] or a pool shutdown finalized it.
    Canceled,
    /// Its engine panicked.
    Failed,
}

/// [`ObsKind::SliceParked`] payloads.
const PARKED_BY_OWNER: u64 = 0;
const PARKED_ON_QUOTA: u64 = 1;

struct JobState {
    id: SolveJobId,
    scene_id: SceneId,
    tenant: String,
    priority: u32,
    target_photons: u64,
    batch_size: u64,
    publish_every: u64,
    /// Everything needed to construct the backend engine (including the
    /// scene geometry). Leaves with the first lease so finished jobs don't
    /// retain a `Scene` copy for the pool's lifetime.
    build: Option<SolveRequest>,
    /// The owner's progress stream. The scheduler never sends on it: a
    /// settled report is queued with a clone of it for the driver to send,
    /// and the original leaves with the terminal report so the handle sees
    /// the stream close.
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
    /// Set by pause, cleared by resume; honored whenever the job is placed.
    pause_requested: bool,
    cancel_requested: bool,
    /// The park reason last announced, so a job that re-parks for the same
    /// reason after an on-demand checkpoint lease is not announced twice.
    parked: Option<u64>,
    emitted: u64,
    batches: u64,
    slices: u64,
    epochs: u64,
    /// Wall seconds of leased time (what the pool spent on it).
    busy_seconds: f64,
    /// Forest arena footprint after the job's latest slice (zero until the
    /// first slice lands).
    footprint: ForestFootprint,
}

impl JobState {
    fn new(
        id: SolveJobId,
        scene_id: SceneId,
        request: SolveRequest,
        progress: Sender<SolveProgress>,
    ) -> Self {
        let priority = request.priority.max(1);
        let resumed_photons = request.resume_from.as_ref().map_or(0, |ck| ck.emitted());
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
            parked: None,
            emitted: resumed_photons,
            batches: 0,
            slices: 0,
            epochs: 0,
            busy_seconds: 0.0,
            footprint: ForestFootprint::default(),
        }
    }

    fn metrics_state(&self) -> &'static str {
        match self.phase {
            Phase::Ready => "queued",
            Phase::InSlice => "running",
            Phase::Paused => "paused",
            Phase::QuotaBlocked => "quota-blocked",
            Phase::Done(End::Converged) => "done",
            Phase::Done(End::Canceled) => "canceled",
            Phase::Done(End::Failed) => "failed",
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

/// What a worker took out of the scheduler for one unlocked unit of work:
/// the engine and the job facts the slice needs, so nothing is re-read
/// under a second lock.
struct Lease {
    id: SolveJobId,
    scene_id: SceneId,
    kind: LeaseKind,
    engine: Option<Box<dyn SolverEngine>>,
    /// The build request, present only on the job's first grant (the
    /// engine does not exist yet); a `Finalize` lease drops it unused.
    build: Option<SolveRequest>,
    /// The job's stored checkpoint (on a first grant, its
    /// [`SolveRequest::resume_from`]).
    checkpoint: Option<Arc<EngineCheckpoint>>,
    target_photons: u64,
    publish_every: u64,
    /// Steps the job had completed, and wall seconds the pool had spent on
    /// it, when the lease was granted.
    batches: u64,
    busy_seconds: f64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LeaseKind {
    /// Step the engine by up to `slice` photons — the amount reserved
    /// against the tenant budget.
    Step { slice: u64 },
    /// Publish the final snapshot of a canceled job and retire it.
    Finalize,
}

/// Everything a lease can bring back; [`Sched::settle`] is the only way in.
#[derive(Default)]
struct Settled {
    /// The engine, unless the job ended or never built one.
    engine: Option<Box<dyn SolverEngine>>,
    /// Photons the grant reserved against the tenant budget.
    reserved: u64,
    /// The step the lease ran, if it ran one: photons emitted, the new
    /// total, the forest footprint.
    step: Option<BatchReport>,
    /// Wall seconds the lease took.
    busy_seconds: f64,
    /// A checkpoint frozen under this lease.
    checkpoint: Option<Arc<EngineCheckpoint>>,
    /// Whether a snapshot went into the store (an epoch to count).
    published: bool,
    /// What to tell the job's owner.
    report: Option<SolveProgress>,
    /// How the job ended, if it did.
    end: Option<End>,
}

/// What a transition wants the outside world to see. Transitions queue
/// these; the driver ([`Shared::flush`]) sends them.
enum Outbound {
    Event(ObsKind, ObsCtx),
    Report(Sender<SolveProgress>, SolveProgress),
}

/// The scheduler: a pure state machine — no clock, no observability hub,
/// no channel send, no thread. [`SolverPool`] keeps it behind one mutex;
/// slices run unlocked, and the lock is only held to grant and settle them.
#[derive(Default)]
struct Sched {
    jobs: BTreeMap<u64, JobState>,
    /// Round-robin order over `Phase::Ready` jobs — id in `rr` iff Ready.
    rr: VecDeque<u64>,
    tenants: HashMap<String, TenantState>,
    /// Checkpoints taken by this pool, and their total `PHOTCK1` bytes.
    checkpoints_taken: u64,
    checkpoint_bytes: u64,
    draining: bool,
    outbox: Vec<Outbound>,
}

impl Sched {
    /// Enters a job into the run queue. A draining pool accepts no jobs:
    /// the job drops, and with it the progress sender, which the owner
    /// sees as an immediately-drained handle.
    fn submit(&mut self, job: JobState) {
        if self.draining {
            return;
        }
        self.tenants.entry(job.tenant.clone()).or_default();
        self.outbox.push(Outbound::Event(
            ObsKind::JobSubmitted,
            ObsCtx {
                scene: Some(job.scene_id.0),
                job: Some(job.id.0),
                tenant: Some(job.tenant.clone()),
                payload: job.target_photons,
            },
        ));
        self.rr.push_back(job.id.0);
        self.jobs.insert(job.id.0, job);
    }

    /// Records an owner's request (pause, resume, cancel) and acts on it
    /// now, unless the job is leased — then [`settle`](Self::settle)
    /// honors it when the lease returns. A finished job ignores requests.
    fn request(&mut self, id: SolveJobId, set: impl FnOnce(&mut JobState)) {
        let Some(job) = self.jobs.get_mut(&id.0) else {
            return;
        };
        match job.phase {
            Phase::Done(_) => {}
            Phase::InSlice => set(job),
            Phase::Ready | Phase::Paused | Phase::QuotaBlocked => {
                set(job);
                self.place(id.0);
            }
        }
    }

    /// The requests pending against a leased job: `(cancel, pause)`.
    fn pending(&self, id: SolveJobId) -> (bool, bool) {
        self.jobs
            .get(&id.0)
            .map_or((false, false), |j| (j.cancel_requested, j.pause_requested))
    }

    /// Sets tenant `tenant`'s remaining budget to `update(current)` and
    /// returns its quota-blocked jobs to the run queue if that leaves any.
    fn update_budget(&mut self, tenant: &str, update: impl FnOnce(Option<u64>) -> u64) {
        let state = self.tenants.entry(tenant.to_string()).or_default();
        let budget = update(state.budget);
        state.budget = Some(budget);
        if budget > 0 {
            self.unblock_tenant(tenant);
        }
    }

    fn unblock_tenant(&mut self, tenant: &str) {
        let blocked: Vec<u64> = self
            .jobs
            .values()
            .filter(|j| j.phase == Phase::QuotaBlocked && j.tenant == tenant)
            .map(|j| j.id.0)
            .collect();
        for id in blocked {
            self.place(id);
        }
    }

    /// The next-phase decision for a job nobody holds, made here and
    /// nowhere else: a pending cancel queues it (a worker finalizes it), a
    /// pending pause parks it, an empty tenant budget parks it until a
    /// top-up, and otherwise it is ready to run.
    fn place(&mut self, id: u64) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        let budget = self.tenants.get(&job.tenant).and_then(|t| t.budget);
        let (phase, parked) = if job.cancel_requested {
            (Phase::Ready, None)
        } else if job.pause_requested {
            (Phase::Paused, Some(PARKED_BY_OWNER))
        } else if budget == Some(0) {
            (Phase::QuotaBlocked, Some(PARKED_ON_QUOTA))
        } else {
            (Phase::Ready, None)
        };
        job.phase = phase;
        let announce = parked.filter(|_| parked != job.parked);
        job.parked = parked;
        if let Some(reason) = announce {
            let ctx = ObsCtx {
                scene: Some(job.scene_id.0),
                job: Some(id),
                tenant: (reason == PARKED_ON_QUOTA).then(|| job.tenant.clone()),
                payload: reason,
            };
            self.outbox.push(Outbound::Event(ObsKind::SliceParked, ctx));
        }
        if phase != Phase::Ready {
            self.rr.retain(|&x| x != id);
        } else if !self.rr.contains(&id) {
            self.rr.push_back(id);
        }
    }

    /// Weighted round-robin slice grant: cycle the ready queue, spending
    /// one credit per grant; when every ready job is out of credit, refill
    /// each to its priority and go again. A job with priority `p` thus
    /// receives `p` slices per round — interleaved, not bursty. A granted
    /// job leaves the queue ([`Phase::InSlice`]) and rejoins at the tail
    /// when its lease settles, which is what rotates the ring. While
    /// draining, an empty queue cancels one parked job (it can never run
    /// again on its own) and grants its finalization.
    fn grant(&mut self) -> Option<Lease> {
        loop {
            if let Some(lease) = self.grant_ready() {
                return Some(lease);
            }
            if !self.draining {
                return None;
            }
            let parked = self
                .jobs
                .values()
                .find(|j| matches!(j.phase, Phase::Paused | Phase::QuotaBlocked))?;
            self.request(parked.id, |job| job.cancel_requested = true);
        }
    }

    fn grant_ready(&mut self) -> Option<Lease> {
        for pass in 0..2 {
            let mut saw_zero_credit = false;
            for _ in 0..self.rr.len() {
                let Some(id) = self.rr.pop_front() else { break };
                let Some(job) = self.jobs.get_mut(&id) else {
                    continue;
                };
                debug_assert_eq!(job.phase, Phase::Ready, "rr holds only ready jobs");
                let budget = self.tenants.get(&job.tenant).and_then(|t| t.budget);
                let kind = if job.cancel_requested {
                    // Finalization outranks fairness and quota: free the
                    // slot now.
                    LeaseKind::Finalize
                } else if budget == Some(0) {
                    // Reserved away since the job queued: park it.
                    self.place(id);
                    continue;
                } else if job.credit == 0 {
                    saw_zero_credit = true;
                    self.rr.push_back(id);
                    continue;
                } else {
                    let slice = budget.map_or(job.batch_size, |left| job.batch_size.min(left));
                    LeaseKind::Step { slice }
                };
                job.phase = Phase::InSlice;
                let lease = Lease {
                    id: job.id,
                    scene_id: job.scene_id,
                    kind,
                    engine: job.engine.take(),
                    build: job.build.take(),
                    checkpoint: job.checkpoint.clone(),
                    target_photons: job.target_photons,
                    publish_every: job.publish_every,
                    batches: job.batches,
                    busy_seconds: job.busy_seconds,
                };
                if let LeaseKind::Step { slice } = kind {
                    job.credit -= 1;
                    job.slices += 1;
                    let ctx = ObsCtx {
                        scene: Some(job.scene_id.0),
                        job: Some(id),
                        payload: slice,
                        ..Default::default()
                    };
                    let tenant = self.tenants.entry(job.tenant.clone()).or_default();
                    tenant.slices += 1;
                    // Reserve the slice's photons up front so concurrent
                    // workers of one tenant cannot over-grant the budget;
                    // `settle` reconciles the reservation against the
                    // photons actually emitted.
                    if let Some(budget) = tenant.budget.as_mut() {
                        *budget -= slice; // slice ≤ budget by construction
                    }
                    self.outbox
                        .push(Outbound::Event(ObsKind::SliceGranted, ctx));
                }
                return Some(lease);
            }
            if pass == 0 && saw_zero_credit {
                for id in &self.rr {
                    if let Some(job) = self.jobs.get_mut(id) {
                        job.credit = job.priority;
                    }
                }
            } else {
                break;
            }
        }
        None
    }

    /// Leases a parked engine for an on-demand checkpoint, exactly like a
    /// worker slice: pause/resume/cancel requests arriving during the
    /// freeze are honored when it settles. `Err` carries the stored
    /// checkpoint when there is nothing fresher to freeze — the parked
    /// engine has not advanced past it, or there is no parked engine (the
    /// job is unstarted, finished, or mid-slice on a worker).
    fn lease_parked(
        &mut self,
        id: SolveJobId,
    ) -> Result<Box<dyn SolverEngine>, Option<Arc<EngineCheckpoint>>> {
        let job = self.jobs.get_mut(&id.0).ok_or(None)?;
        let stored = job.checkpoint.as_ref().map(|ck| ck.emitted());
        match job
            .engine
            .take_if(|engine| stored != Some(engine.emitted()))
        {
            Some(engine) => {
                job.phase = Phase::InSlice;
                self.rr.retain(|&x| x != id.0);
                Ok(engine)
            }
            None => Err(job.checkpoint.clone()),
        }
    }

    /// Takes back everything a lease produced. The only place that
    /// reconciles the grant-time budget reservation, counts batches and
    /// epochs, records checkpoints and retires jobs; a job that goes on is
    /// [`place`](Self::place)d.
    fn settle(&mut self, id: SolveJobId, settled: Settled) {
        let Some(job) = self.jobs.get_mut(&id.0) else {
            return;
        };
        debug_assert_eq!(job.phase, Phase::InSlice, "only a leased job settles");
        job.engine = settled.engine;
        job.busy_seconds += settled.busy_seconds;
        job.epochs += u64::from(settled.published);
        if let Some(step) = settled.step {
            job.batches += 1;
            job.emitted = step.emitted_total;
            job.footprint = step.footprint;
        }
        if let Some(checkpoint) = settled.checkpoint {
            let bytes = checkpoint.encoded_size();
            self.checkpoints_taken += 1;
            self.checkpoint_bytes += bytes;
            self.outbox.push(Outbound::Event(
                ObsKind::CheckpointFrozen,
                ObsCtx {
                    job: Some(id.0),
                    payload: bytes,
                    ..Default::default()
                },
            ));
            job.checkpoint = Some(checkpoint);
        }
        // Reconcile the reservation against what the engine actually
        // emitted — backends may round a batch to their worker/rank
        // granularity, and a lease that stepped nothing (a target already
        // met, a panic) refunds it whole. An upward reconcile can revive
        // jobs that parked on the reservation.
        let emitted = settled.step.map_or(0, |step| step.batch_photons);
        let tenant = self.tenants.entry(job.tenant.clone()).or_default();
        tenant.photons_used += emitted;
        let mut revived = None;
        if let Some(budget) = tenant.budget.as_mut() {
            *budget = budget
                .saturating_add(settled.reserved)
                .saturating_sub(emitted);
            revived = (*budget > 0).then(|| job.tenant.clone());
        }
        let owner = match settled.end {
            Some(end) => {
                job.phase = Phase::Done(end);
                self.outbox.push(Outbound::Event(
                    ObsKind::JobDone,
                    ObsCtx {
                        job: Some(id.0),
                        payload: job.emitted,
                        ..Default::default()
                    },
                ));
                job.progress.take()
            }
            None => job.progress.clone(),
        };
        if let (Some(owner), Some(report)) = (owner, settled.report) {
            self.outbox.push(Outbound::Report(owner, report));
        }
        if let Some(tenant) = revived {
            self.unblock_tenant(&tenant);
        }
        if settled.end.is_none() {
            self.place(id.0);
        }
    }

    fn all_done(&self) -> bool {
        self.jobs
            .values()
            .all(|j| matches!(j.phase, Phase::Done(_)))
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
                Phase::Done(_) => snap.done += 1,
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
                priority: job.priority,
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

/// The scheduler behind its lock, and the driver's side of it: the
/// condvar workers sleep on and the hub the queued events go to.
struct Shared {
    state: Mutex<Sched>,
    work: Condvar,
    obs: Arc<ObsHub>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.state
            .lock()
            .expect("scheduler transitions do not panic")
    }

    /// Sends what the transitions so far queued. Callers hold the lock and
    /// do this last thing before it drops, which is what puts events and
    /// progress reports on the wire in transition order: a job's epochs
    /// arrive in order and its terminal report last even when two workers
    /// settle it back to back, and the flight recorder reads as it
    /// happened. (Sending after the release needs a second lock handed
    /// over from this one to keep that order, and that hand-over couples
    /// submitters to workers — measurably: it made a queued job's first
    /// grant race its owner's cancel.)
    fn flush(&self, st: &mut Sched) {
        for item in st.outbox.drain(..) {
            match item {
                Outbound::Event(kind, ctx) => self.obs.emit(kind, ctx),
                // A dropped handle is fine; the publish still refreshed
                // the store.
                Outbound::Report(owner, report) => drop(owner.send(report)),
            }
        }
    }

    /// One scheduler transition from outside the worker loop: lock, apply,
    /// wake the workers — the transition may have made work — and flush.
    fn with<R>(&self, transition: impl FnOnce(&mut Sched) -> R) -> R {
        let mut st = self.lock();
        let out = transition(&mut st);
        self.work.notify_all();
        self.flush(&mut st);
        out
    }

    /// The job's latest checkpoint, taking a fresh one when the parked
    /// engine has advanced past what was stored. Freezing a large forest
    /// is not cheap, so the engine is leased out of the scheduler and
    /// checkpointed outside the lock — other jobs keep getting slices
    /// granted meanwhile.
    fn checkpoint_of(&self, id: SolveJobId) -> Option<Arc<EngineCheckpoint>> {
        let engine = match self.with(|st| st.lease_parked(id)) {
            Ok(engine) => engine,
            Err(stored) => return stored,
        };
        let checkpoint = freeze(&self.obs, engine.as_ref());
        let settled = Settled {
            engine: Some(engine),
            checkpoint: Some(Arc::clone(&checkpoint)),
            ..Default::default()
        };
        self.with(|st| st.settle(id, settled));
        Some(checkpoint)
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
        let shared = Arc::new(Shared {
            state: Mutex::default(),
            work: Condvar::new(),
            obs: store.obs(),
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
        self.enqueue(request, None)
    }

    /// [`submit`](Self::submit) past validation; `engine` lets a test run
    /// the job on a double instead of the request's backend.
    fn enqueue(&self, request: SolveRequest, engine: Option<Box<dyn SolverEngine>>) -> SolveHandle {
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
        let mut job = JobState::new(id, scene_id, request, progress);
        job.engine = engine;
        self.shared.with(|st| st.submit(job));
        SolveHandle {
            job: id,
            scene_id,
            rx,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Sets tenant `tenant`'s remaining photon budget. Each slice grant
    /// *reserves* its photons against the budget (so concurrent workers
    /// cannot over-grant it) and reconciles to what the engine actually
    /// emitted when the slice returns; at zero the tenant's jobs park
    /// until more budget arrives. Unknown tenants are created, so quotas
    /// can be configured before the first submit.
    pub fn set_tenant_budget(&self, tenant: &str, photons: u64) {
        self.shared.with(|st| st.update_budget(tenant, |_| photons));
    }

    /// Adds `photons` to tenant `tenant`'s remaining budget, waking any of
    /// its quota-blocked jobs. A tenant with no configured budget is
    /// unlimited; adding to it sets a finite budget of `photons`.
    pub fn add_tenant_budget(&self, tenant: &str, photons: u64) {
        self.shared.with(|st| {
            st.update_budget(tenant, |budget| budget.unwrap_or(0).saturating_add(photons))
        });
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
        self.shared.with(|st| st.draining = true);
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

/// Freezes `engine` into a checkpoint, timed into `obs`.
fn freeze(obs: &ObsHub, engine: &dyn SolverEngine) -> Arc<EngineCheckpoint> {
    obs.time(Stage::CheckpointFreeze, || Arc::new(engine.checkpoint()))
}

/// The worker loop: grant a lease, run it unlocked, settle it; park on the
/// condvar when nothing is runnable, leave when a draining pool is done.
fn worker_loop(store: &AnswerStore, shared: &Shared) {
    loop {
        let mut st = shared.lock();
        let lease = loop {
            let lease = st.grant();
            shared.flush(&mut st);
            if lease.is_some() || (st.draining && st.all_done()) {
                break lease;
            }
            st = shared.work.wait(st).expect("scheduler lock");
        };
        drop(st);
        match lease {
            Some(lease) => run_lease(store, shared, lease),
            None => return,
        }
    }
}

/// What a lease's reports are built from.
struct ReportCtx<'a> {
    job: SolveJobId,
    scene_id: SceneId,
    /// Wall seconds the pool has spent on the job, as of the call.
    wall_seconds: &'a dyn Fn() -> f64,
}

impl ReportCtx<'_> {
    /// The one place a [`SolveProgress`] is built. `step_clock` is the
    /// engine's own clock — `(elapsed, is it virtual)` — and is passed only
    /// when the report follows a step of a job that goes on or converged;
    /// every other report carries the pool's wall seconds on the job, which
    /// are never virtual.
    fn report(
        &self,
        epoch: u64,
        emitted: u64,
        leaf_bins: u64,
        step_clock: Option<(f64, bool)>,
        end: Option<End>,
    ) -> SolveProgress {
        let (elapsed_seconds, virtual_time) =
            step_clock.unwrap_or_else(|| ((self.wall_seconds)(), false));
        SolveProgress {
            job: self.job,
            scene_id: self.scene_id,
            epoch,
            emitted,
            leaf_bins,
            elapsed_seconds,
            virtual_time,
            done: end.is_some(),
            canceled: end == Some(End::Canceled),
            failed: end == Some(End::Failed),
        }
    }

    /// Ends a job whose lease published nothing; the terminal report
    /// describes the answer the store already serves.
    fn ended_unpublished(&self, store: &AnswerStore, end: End) -> Settled {
        let (epoch, emitted, leaf_bins) = store.get(self.scene_id).map_or((0, 0, 0), |entry| {
            let answer = &entry.answer;
            (entry.epoch, answer.emitted(), answer.total_leaf_bins())
        });
        Settled {
            report: Some(self.report(epoch, emitted, leaf_bins, None, Some(end))),
            end: Some(end),
            ..Default::default()
        }
    }
}

/// Runs one lease outside the scheduler lock and settles it. The unlocked
/// work is contained: a panic in it (an engine's `step`, most likely) ends
/// this job as failed, with its reservation refunded, and costs the pool
/// neither the worker nor any other job.
fn run_lease(store: &AnswerStore, shared: &Shared, lease: Lease) {
    let (started, busy_before) = (Instant::now(), lease.busy_seconds);
    let ctx = ReportCtx {
        job: lease.id,
        scene_id: lease.scene_id,
        wall_seconds: &|| busy_before + started.elapsed().as_secs_f64(),
    };
    let reserved = match lease.kind {
        LeaseKind::Step { slice } => slice,
        LeaseKind::Finalize => 0,
    };
    let work = AssertUnwindSafe(|| leased_work(store, shared, lease, &ctx));
    let mut settled = catch_unwind(work).unwrap_or_else(|_| {
        // The unwind dropped the engine with the rest of the lease.
        shared.obs.emit(
            ObsKind::SlicePanic,
            ObsCtx {
                scene: Some(ctx.scene_id.0),
                job: Some(ctx.job.0),
                payload: reserved,
                ..Default::default()
            },
        );
        ctx.ended_unpublished(store, End::Failed)
    });
    settled.reserved = reserved;
    settled.busy_seconds = started.elapsed().as_secs_f64();
    shared.with(|st| st.settle(ctx.job, settled));
}

/// The unlocked part of a lease: get an engine, step it unless the job is
/// being finalized or is already at its target, freeze and publish as the
/// outcome calls for, and describe all of it for [`Sched::settle`].
fn leased_work(store: &AnswerStore, shared: &Shared, lease: Lease, ctx: &ReportCtx) -> Settled {
    let obs = &*shared.obs;
    let Lease {
        id,
        scene_id,
        kind,
        target_photons: target,
        ..
    } = lease;
    let publish = |answer: Answer| {
        let leaf_bins = answer.total_leaf_bins();
        let epoch = obs.time(Stage::Publish, || store.publish(scene_id, answer));
        (epoch, leaf_bins)
    };
    let stored_emitted = lease.checkpoint.as_ref().map(|ck| ck.emitted());
    let mut engine = match lease.engine {
        Some(engine) => engine,
        // Canceled before its first slice: there is nothing to publish
        // (the registered epoch-0 entry already serves), and building a
        // backend just to snapshot an empty answer would be waste — the
        // build request drops here, freeing the scene.
        None if kind == LeaseKind::Finalize => {
            return ctx.ended_unpublished(store, End::Canceled);
        }
        None => match lease.checkpoint.filter(|ck| ck.emitted() >= target) {
            // A resumed job whose checkpoint already meets the target
            // needs no engine at all: the published answer is derivable
            // from the checkpoint, so skip building an engine (a rank
            // world boots with a pilot trace) just to snapshot and drop it.
            Some(ck) => {
                let (epoch, leaf_bins) = publish(obs.time(Stage::Snapshot, || ck.to_answer()));
                let end = Some(End::Converged);
                return Settled {
                    published: true,
                    report: Some(ctx.report(epoch, ck.emitted(), leaf_bins, None, end)),
                    end,
                    ..Default::default()
                };
            }
            // The engine persists across slices; build it on first grant.
            None => {
                let build = lease
                    .build
                    .expect("a first lease carries the build request");
                build_engine(&build, obs, id)
            }
        },
    };

    let (step, pause, end) = match kind {
        // Cancel publishes whatever was solved so renders keep the best
        // snapshot, then retires the job.
        LeaseKind::Finalize => (None, false, Some(End::Canceled)),
        // Check the target *before* stepping: a target that is already met
        // (target_photons: 0, or met by a previous slice's overshoot) must
        // publish immediately, not emit another batch.
        LeaseKind::Step { .. } if engine.emitted() >= target => (None, false, Some(End::Converged)),
        LeaseKind::Step { slice } => {
            let report = obs.time(Stage::SolveSlice, || engine.step(slice));
            // Phase split of the slice: where the time went inside the
            // engine (trace vs partition+apply of the batched pipeline).
            obs.stage(Stage::SolveTrace, report.trace_seconds);
            obs.stage(Stage::TallyApply, report.apply_seconds);
            obs.emit(
                ObsKind::BatchStepped,
                ObsCtx {
                    scene: Some(scene_id.0),
                    job: Some(id.0),
                    payload: report.batch_photons,
                    ..Default::default()
                },
            );
            // The requests that arrived while the step ran unlocked. One
            // that arrives after this look is honored by `settle`.
            let (cancel, pause) = shared.lock().pending(id);
            let end = if cancel {
                Some(End::Canceled)
            } else if report.emitted_total >= target {
                Some(End::Converged)
            } else {
                None
            };
            (Some(report), pause, end)
        }
    };

    let emitted = engine.emitted();
    // Freeze while the engine is still leased: a canceled job's engine is
    // about to drop, and a job about to park on pause may be migrated by
    // its owner. A canceled job whose stored checkpoint is already at this
    // photon count (a paused job drained by shutdown) is not frozen again;
    // that would clone the whole forest for identical bytes. A converged
    // job is not frozen at all: its complete answer is in the store.
    let freeze_now = match end {
        Some(End::Canceled) => stored_emitted != Some(emitted),
        Some(_) => false,
        None => pause,
    };
    let checkpoint = freeze_now.then(|| freeze(obs, engine.as_ref()));
    // The final state always publishes; a job that goes on publishes every
    // `publish_every` steps.
    let publish_now = end.is_some() || (lease.batches + 1).is_multiple_of(lease.publish_every);
    let report = publish_now.then(|| {
        let (epoch, leaf_bins) = publish(obs.time(Stage::Snapshot, || engine.snapshot()));
        let step_clock = step
            .filter(|_| end != Some(End::Canceled))
            .map(|report| (report.elapsed_seconds, engine.virtual_time()));
        ctx.report(epoch, emitted, leaf_bins, step_clock, end)
    });
    Settled {
        engine: end.is_none().then_some(engine),
        step,
        checkpoint,
        published: report.is_some(),
        report,
        end,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_rng::Lcg48;
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

    /// An engine double that counts photons and nothing else. With
    /// `panics` set, `step` panics instead.
    #[derive(Default)]
    struct FakeEngine {
        patches: usize,
        emitted: u64,
        panics: bool,
    }

    impl SolverEngine for FakeEngine {
        fn step(&mut self, batch: u64) -> BatchReport {
            assert!(!self.panics, "injected engine fault");
            self.emitted += batch;
            BatchReport {
                batch_photons: batch,
                emitted_total: self.emitted,
                leaf_bins: 0,
                batch_seconds: 0.0,
                trace_seconds: 0.0,
                apply_seconds: 0.0,
                elapsed_seconds: 0.0,
                stats: self.stats(),
                footprint: ForestFootprint::default(),
            }
        }

        fn snapshot(&self) -> Answer {
            Answer::empty(self.patches)
        }

        fn stats(&self) -> photon_core::SimStats {
            photon_core::SimStats {
                emitted: self.emitted,
                ..Default::default()
            }
        }

        fn checkpoint(&self) -> EngineCheckpoint {
            unreachable!("the double is never frozen")
        }

        fn restore(&mut self, _: &EngineCheckpoint) -> Result<(), photon_core::RestoreError> {
            Ok(())
        }

        fn backend(&self) -> &'static str {
            "fake"
        }
    }

    /// A panicking `engine.step` used to cost the pool a worker and leave
    /// the job `InSlice` for good, so `drop` waited on it forever. Now the
    /// job fails, and only the job.
    #[test]
    fn panicking_engine_fails_its_job_and_nothing_else() {
        let store = Arc::new(AnswerStore::new());
        let pool = SolverPool::start(Arc::clone(&store), 2);
        pool.set_tenant_budget("faulty", 5_000);
        let mut doomed = quick_request(BackendChoice::Serial);
        doomed.tenant = "faulty".into();
        let double = FakeEngine {
            patches: doomed.scene.polygon_count(),
            panics: true,
            ..Default::default()
        };
        let doomed = pool.enqueue(doomed, Some(Box::new(double)));
        let last = doomed
            .wait_done(Duration::from_secs(30))
            .expect("a failed job still reports");
        assert!(last.done && last.failed && !last.canceled, "{last:?}");
        assert_eq!((last.epoch, last.emitted), (0, 0), "nothing was published");
        assert!(
            doomed.next_progress(Duration::from_secs(30)).is_none(),
            "exactly one terminal report, then the stream closes"
        );
        let m = pool.metrics();
        assert_eq!(m.jobs[0].state, "failed");
        let faulty = m.tenants.iter().find(|t| t.tenant == "faulty").unwrap();
        assert_eq!(faulty.budget_remaining, Some(5_000), "reservation refunded");
        assert_eq!(faulty.photons_used, 0);
        let panics = store
            .obs()
            .recorder()
            .filtered(|e| e.kind == ObsKind::SlicePanic);
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].ctx.job, Some(doomed.job_id().0));

        // The pool is at full strength: another job converges, and
        // shutdown does not wait on the failed one.
        let healthy = pool.submit(quick_request(BackendChoice::Serial));
        let done = healthy
            .wait_done(Duration::from_secs(60))
            .expect("healthy job");
        assert_eq!(done.emitted, 3_000);
        assert!(!done.failed);
        let (dropped, wait) = channel();
        std::thread::spawn(move || {
            drop(pool);
            let _ = dropped.send(());
        });
        wait.recv_timeout(Duration::from_secs(30))
            .expect("shutdown hangs on the failed job");
    }

    /// `0..n`, from the repo's own generator so a seed replays exactly.
    fn pick(rng: &mut Lcg48, n: u64) -> u64 {
        (rng.next_u48() >> 16) % n
    }

    /// A lease the simulation holds, as a worker (or an on-demand
    /// checkpoint) would between two lock acquisitions.
    enum Held {
        Slice(Lease),
        Freeze(SolveJobId, Box<dyn SolverEngine>),
    }

    /// The simulation's side of the ledger: what the invariants are
    /// checked against.
    #[derive(Default)]
    struct Model {
        held: Vec<Held>,
        /// Per tenant with a finite budget: remaining + reserved in flight
        /// + used, which only a set or a top-up may change.
        totals: HashMap<String, u64>,
        reported_done: Vec<u64>,
        retired: Vec<u64>,
    }

    impl Model {
        fn reserved_in_flight(&self, sched: &Sched, tenant: &str) -> u64 {
            self.held
                .iter()
                .map(|held| match held {
                    Held::Slice(Lease {
                        id,
                        kind: LeaseKind::Step { slice },
                        ..
                    }) if sched.jobs[&id.0].tenant == tenant => *slice,
                    _ => 0,
                })
                .sum()
        }

        /// `budget + in flight + used` for a tenant with a finite budget.
        fn total(&self, sched: &Sched, tenant: &str) -> Option<u64> {
            let state = &sched.tenants[tenant];
            Some(state.budget? + self.reserved_in_flight(sched, tenant) + state.photons_used)
        }

        /// Every invariant, after every operation.
        fn check(&mut self, sched: &mut Sched) {
            for out in sched.outbox.drain(..) {
                match out {
                    Outbound::Report(_, report) => {
                        let job = report.job.0;
                        assert!(
                            !self.reported_done.contains(&job),
                            "a report after the terminal one: {report:?}"
                        );
                        if report.done {
                            self.reported_done.push(job);
                        }
                    }
                    Outbound::Event(ObsKind::JobDone, ctx) => {
                        let job = ctx.job.unwrap();
                        assert!(!self.retired.contains(&job), "job {job} retired twice");
                        self.retired.push(job);
                    }
                    Outbound::Event(..) => {}
                }
            }
            for tenant in sched.tenants.keys() {
                assert_eq!(
                    self.total(sched, tenant),
                    self.totals.get(tenant).copied(),
                    "tenant {tenant}: photons appeared or vanished"
                );
            }
            let mut queued = sched.rr.clone();
            queued.make_contiguous().sort_unstable();
            let ready: Vec<u64> = sched
                .jobs
                .values()
                .filter(|j| j.phase == Phase::Ready)
                .map(|j| j.id.0)
                .collect();
            assert_eq!(queued, ready, "rr holds an id iff the job is ready");
            for job in sched.jobs.values() {
                let budget = sched.tenants[&job.tenant].budget;
                let leased = self.held.iter().any(|held| match held {
                    Held::Slice(lease) => lease.id == job.id,
                    Held::Freeze(id, _) => *id == job.id,
                });
                assert_eq!(job.phase == Phase::InSlice, leased, "job {}", job.id);
                match job.phase {
                    Phase::Paused => assert!(job.pause_requested && !job.cancel_requested),
                    Phase::QuotaBlocked => {
                        assert!(!job.pause_requested && !job.cancel_requested);
                        assert_eq!(budget, Some(0), "blocked with budget left");
                    }
                    Phase::Done(_) => assert!(
                        self.reported_done.contains(&job.id.0) && self.retired.contains(&job.id.0),
                        "job {} ended without its terminal report",
                        job.id
                    ),
                    Phase::Ready | Phase::InSlice => {}
                }
            }
        }
    }

    /// What a worker would do with `lease`, minus everything slow: the
    /// same decisions as `leased_work`, a counting engine, and sometimes a
    /// fault.
    fn simulated_work(
        sched: &Sched,
        lease: Lease,
        rng: &mut Lcg48,
        frozen: &Arc<EngineCheckpoint>,
    ) -> Settled {
        let ctx = ReportCtx {
            job: lease.id,
            scene_id: lease.scene_id,
            wall_seconds: &|| 0.0,
        };
        let ended = |end, published, reserved| Settled {
            reserved,
            published,
            report: Some(ctx.report(0, 0, 0, None, Some(end))),
            end: Some(end),
            ..Default::default()
        };
        let LeaseKind::Step { slice } = lease.kind else {
            return ended(End::Canceled, lease.engine.is_some(), 0);
        };
        if pick(rng, 16) == 0 {
            return ended(End::Failed, false, slice);
        }
        let mut engine = lease
            .engine
            .unwrap_or_else(|| Box::new(FakeEngine::default()));
        if engine.emitted() >= lease.target_photons {
            return ended(End::Converged, true, slice);
        }
        // Backends may round a batch; never past the reservation here.
        let step = engine.step(slice - pick(rng, 3).min(slice - 1));
        let (cancel, pause) = sched.pending(lease.id);
        let end = if cancel {
            Some(End::Canceled)
        } else if step.emitted_total >= lease.target_photons {
            Some(End::Converged)
        } else {
            None
        };
        let published = end.is_some() || (lease.batches + 1).is_multiple_of(lease.publish_every);
        Settled {
            engine: end.is_none().then_some(engine),
            reserved: slice,
            step: Some(step),
            checkpoint: (end.is_none() && pause).then(|| Arc::clone(frozen)),
            published,
            report: published.then(|| ctx.report(0, step.emitted_total, 0, None, end)),
            end,
            ..Default::default()
        }
    }

    /// Settles the `index`th held lease.
    fn settle_held(
        sched: &mut Sched,
        model: &mut Model,
        index: usize,
        rng: &mut Lcg48,
        frozen: &Arc<EngineCheckpoint>,
    ) {
        match model.held.swap_remove(index) {
            Held::Slice(lease) => {
                let id = lease.id;
                let settled = simulated_work(sched, lease, rng, frozen);
                sched.settle(id, settled);
            }
            Held::Freeze(id, engine) => sched.settle(
                id,
                Settled {
                    engine: Some(engine),
                    checkpoint: Some(Arc::clone(frozen)),
                    ..Default::default()
                },
            ),
        }
    }

    /// The scheduler's invariants under seeded random operation sequences:
    /// no thread, no sleep, no clock — `Sched` alone, driven the way the
    /// pool drives it. After every operation: each tenant's photons are
    /// conserved (`budget + reserved in flight + used` moves only on a set
    /// or a top-up), `rr` holds exactly the ready jobs, a job is
    /// `InSlice` iff someone holds its lease, parked jobs are parked for
    /// a reason that still holds, and nothing follows a terminal report.
    /// Each sequence ends in a drain, after which every job is done with
    /// exactly one terminal report.
    #[test]
    fn seeded_simulation_holds_the_scheduler_invariants() {
        const TENANTS: [&str; 3] = ["a", "b", "c"];
        const WORKERS: usize = 3;
        let scene = cornell_box();
        let frozen = Arc::new(Simulator::new(scene.clone(), SimConfig::default()).checkpoint());
        for seed in 0..256 {
            let rng = &mut Lcg48::new(seed);
            let (mut sched, mut model) = (Sched::default(), Model::default());
            let mut submitted = 0;
            for _ in 0..160 {
                let job = SolveJobId(pick(rng, submitted.max(1)));
                let tenant = TENANTS[pick(rng, 3) as usize];
                match pick(rng, 16) {
                    0 | 1 => {
                        let mut request = SolveRequest::new("sim", scene.clone());
                        request.tenant = tenant.into();
                        request.priority = 1 + pick(rng, 3) as u32;
                        request.batch_size = 10 + pick(rng, 40);
                        request.target_photons = pick(rng, 400);
                        request.publish_every = 1 + pick(rng, 3);
                        let id = SolveJobId(submitted);
                        submitted += 1;
                        sched.submit(JobState::new(id, SceneId(0), request, channel().0));
                    }
                    2..=6 if model.held.len() < WORKERS => {
                        if let Some(lease) = sched.grant() {
                            model.held.push(Held::Slice(lease));
                        }
                    }
                    2..=8 if !model.held.is_empty() => {
                        let index = pick(rng, model.held.len() as u64) as usize;
                        settle_held(&mut sched, &mut model, index, rng, &frozen);
                    }
                    9 => sched.request(job, |j| j.pause_requested = true),
                    10 => sched.request(job, |j| j.pause_requested = false),
                    11 => sched.request(job, |j| j.cancel_requested = true),
                    12 => {
                        if let Ok(engine) = sched.lease_parked(job) {
                            model.held.push(Held::Freeze(job, engine));
                        }
                    }
                    13 => {
                        let photons = pick(rng, 300);
                        sched.update_budget(tenant, |_| photons);
                        model.totals.remove(tenant);
                    }
                    14 => {
                        let photons = pick(rng, 100);
                        sched.update_budget(tenant, |b| b.unwrap_or(0) + photons);
                        if let Some(total) = model.totals.get_mut(tenant) {
                            *total += photons;
                        }
                    }
                    _ => {}
                }
                for tenant in TENANTS {
                    // A budget set since the last check starts a new total.
                    if sched.tenants.contains_key(tenant) && !model.totals.contains_key(tenant) {
                        if let Some(total) = model.total(&sched, tenant) {
                            model.totals.insert(tenant.into(), total);
                        }
                    }
                }
                model.check(&mut sched);
            }
            sched.draining = true;
            let mut turns = 0;
            while !(sched.all_done() && model.held.is_empty()) {
                turns += 1;
                assert!(turns < 10_000, "seed {seed}: the drain does not finish");
                match sched.grant() {
                    Some(lease) if model.held.len() < WORKERS => {
                        model.held.push(Held::Slice(lease));
                    }
                    Some(lease) => {
                        model.held.push(Held::Slice(lease));
                        settle_held(&mut sched, &mut model, 0, rng, &frozen);
                    }
                    None => settle_held(&mut sched, &mut model, 0, rng, &frozen),
                }
                model.check(&mut sched);
            }
            assert_eq!(model.reported_done.len() as u64, submitted, "seed {seed}");
        }
    }

    /// Weighted round-robin share: while a set of jobs all stay runnable
    /// on one worker, after every grant any two jobs' slice counts, each
    /// measured in rounds of its own priority, are within one round of
    /// each other.
    #[test]
    fn seeded_wrr_share_stays_within_one_round() {
        let scene = cornell_box();
        for seed in 0..64 {
            let rng = &mut Lcg48::new(seed ^ 0x5EED);
            let mut sched = Sched::default();
            let priorities: Vec<u32> = (0..2 + pick(rng, 3))
                .map(|_| 1 + pick(rng, 4) as u32)
                .collect();
            for (id, &priority) in priorities.iter().enumerate() {
                let mut request = SolveRequest::new("share", scene.clone());
                request.priority = priority;
                request.target_photons = u64::MAX;
                let id = SolveJobId(id as u64);
                sched.submit(JobState::new(id, SceneId(0), request, channel().0));
            }
            for grant in 0..200 {
                let lease = sched.grant().expect("all jobs are runnable");
                let LeaseKind::Step { slice } = lease.kind else {
                    panic!("nothing was canceled");
                };
                let mut engine = lease
                    .engine
                    .unwrap_or_else(|| Box::new(FakeEngine::default()));
                let settled = Settled {
                    step: Some(engine.step(slice)),
                    engine: Some(engine),
                    reserved: slice,
                    ..Default::default()
                };
                sched.settle(lease.id, settled);
                let rounds: Vec<f64> = sched
                    .jobs
                    .values()
                    .map(|j| j.slices as f64 / f64::from(j.priority))
                    .collect();
                let most = rounds.iter().copied().fold(0.0, f64::max);
                let least = rounds.iter().copied().fold(f64::MAX, f64::min);
                assert!(
                    most - least <= 1.0,
                    "seed {seed}, grant {grant}: priorities {priorities:?}, rounds {rounds:?}"
                );
            }
        }
    }
}
