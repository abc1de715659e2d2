//! photon-serve: a full solve→store→render pipeline behind one service.
//!
//! The dissertation's payoff is that Photon's output is *view-independent*:
//! "once the simulation is finished, all that remains is to determine what
//! is displayed" (ch. 4). One expensive simulation therefore amortizes over
//! unlimited cheap view queries — and because every backend is an
//! incremental [`photon_core::SolverEngine`], the simulation doesn't even
//! have to be finished: a solve job publishes refining answer snapshots
//! under increasing epochs while the render path serves views from the
//! freshest one. The crate's layers:
//!
//! | module | role |
//! |--------|------|
//! | [`solver`] | multi-job solver pool: weighted-round-robin batch scheduler, per-tenant photon quotas, pause/resume/cancel, checkpoint/resume job migration |
//! | [`store`] | registry of `(Scene, Answer)` pairs with publication epochs, persisted via the `PHOTANS1` codec |
//! | [`render`] | tile-parallel rendering over `photon-par`'s worker pool, bit-identical to the serial viewer |
//! | [`cache`] | LRU of rendered views keyed by (scene, epoch, quantized camera) — a publish invalidates *and purges* stale images — and LRU of item buffers keyed by (scene, exact camera), which no publish touches |
//! | [`service`] | submission queue → batching dispatcher → cache/coalesce/render |
//! | [`stream`] | epoch subscriptions: publishes push [`FrameDelta`]s (changed tiles only) to subscribers, reassembling bit-identical frames |
//! | [`netstream`] | off-box transport: a TCP server fanning each scene's epochs out as `PHOTSTRM1` frames (lossless or quantized), with slow consumers coalesced server-side |
//! | [`metrics`] | the typed read of the hub's service counters: p50/p99 latency, queries/sec, streaming-tier counters, and solve-tier scheduler state (per-job photons/sec, queue depth, per-tenant slices) |
//! | [`obs`] | exporters over the shared observability hub: Prometheus text exposition, versioned JSON dump (metrics + stage histograms + flight-recorder tail), and a scrapeable TCP endpoint |
//!
//! **Multi-job scheduling.** The pool is not FIFO: every backend engine is
//! an incremental `step → snapshot` machine, so the scheduler's unit is
//! one *batch slice* and workers rotate over all runnable jobs by
//! weighted round-robin ([`SolveRequest::priority`] is the weight). A
//! heavy scene therefore cannot starve a light one — they interleave even
//! on a single worker. Jobs carry a [`SolveRequest::tenant`] tag;
//! [`SolverPool::set_tenant_budget`] caps a tenant's total photons,
//! enforced when each slice is granted. Handles
//! [`pause`](SolveHandle::pause) / [`resume`](SolveHandle::resume) /
//! [`cancel`](SolveHandle::cancel) jobs at batch granularity.
//!
//! # Quickstart: scene in, images out
//!
//! ```
//! use photon_serve::{AnswerStore, BackendChoice, RenderRequest, RenderService,
//!                    ServeConfig, SolveRequest, SolverPool};
//! use photon_core::Camera;
//! use photon_math::Vec3;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! // A scene goes in — no precomputed answer anywhere.
//! let store = Arc::new(AnswerStore::new());
//! let solver = SolverPool::start(Arc::clone(&store), 1);
//! let mut request = SolveRequest::new("cornell", photon_scenes::cornell_box());
//! request.backend = BackendChoice::Threaded { threads: 2 };
//! request.batch_size = 1_000;
//! request.target_photons = 2_000;
//! let job = solver.submit(request);
//!
//! // The scene is renderable immediately; epochs refine underneath.
//! let service = RenderService::start(Arc::clone(&store), ServeConfig::default());
//! let solved = job.wait_done(Duration::from_secs(120)).expect("solve converged");
//! assert!(solved.epoch >= 1 && solved.emitted >= 2_000);
//!
//! let camera = Camera {
//!     eye: Vec3::new(2.78, 2.73, -7.5),
//!     target: Vec3::new(2.78, 2.73, 2.8),
//!     up: Vec3::Y,
//!     vfov_deg: 40.0,
//!     width: 32,
//!     height: 24,
//! };
//! let view = service
//!     .render_blocking(RenderRequest { scene_id: job.scene_id(), camera })
//!     .unwrap();
//! assert_eq!(view.image.width(), 32);
//! assert!(view.image.mean_luminance() > 0.0, "the solved scene is lit");
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod metrics;
mod net;
pub mod netstream;
pub mod obs;
pub mod render;
pub mod service;
pub mod solver;
pub mod store;
pub mod stream;

pub use cache::{LruCache, ViewKey};
pub use metrics::{
    LatencySummary, MetricsSnapshot, RequestOutcome, SolveJobMetrics, SolverMetricsSnapshot,
    SolverStatsSource, StreamMetricsSnapshot, TenantMetrics,
};
pub use netstream::{StreamClient, StreamServer};
pub use obs::{ObsExporter, ObsServer};
pub use photon_core::wire::WireMode;
pub use render::render_parallel;
pub use service::{RenderRequest, RenderResponse, RenderService, ServeConfig, ServeError, Ticket};
pub use solver::{
    BackendChoice, SolveHandle, SolveJobId, SolveProgress, SolveRequest, SolverPool, DEFAULT_TENANT,
};
pub use store::{AnswerStore, SceneId, StoredAnswer, WatcherId};
pub use stream::{FrameDelta, StreamHandle, StreamRequest};
