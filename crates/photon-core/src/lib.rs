//! The Photon Monte Carlo light-transport simulator (dissertation ch. 4).
//!
//! Photon simulates light by emitting photons from luminaires and tracing
//! them through the scene until probabilistic absorption. Every reflection is
//! tallied into the owning patch's four-dimensional adaptive histogram
//! ([`photon_hist::BinTree`]), building a discrete, view-*independent* answer
//! to the Rendering Equation: radiance as a function of patch position
//! `(s, t)` and outgoing direction `(θ, r²)`. Rendering afterwards is a
//! single-step ray trace against the stored answer ([`view`]).
//!
//! Module map (the four routines of the paper's Fig 4.1 plus support):
//!
//! | paper routine | module |
//! |---------------|--------|
//! | `GeneratePhoton` | [`generate`] (rejection kernel + Shirley baseline) |
//! | `DetermineIntersection` | `photon_geom::Octree`, driven from [`trace`] (the one photon loop) |
//! | `Reflect` | [`reflect`] |
//! | `DetermineBin` / `UpdateBinCount` / `Split` | [`forest`] (over `photon_hist`) |
//! | batched trace→partition→apply kernel | [`batch`] |
//! | simulation driver | [`sim`] |
//! | incremental solve loop (all backends) | [`engine`] |
//! | answer files | [`answer`] |
//! | solve checkpoints (freeze/resume) | [`checkpoint`] |
//! | viewing | [`view`], [`img`] |
//! | streaming wire format (`PHOTSTRM1`) | [`wire`] |
//! | performance traces | [`perf`] |
//! | observability (flight recorder, histograms) | [`obs`] |
//! | the one JSON writer (the exporter's dump) | [`json`] |

#![deny(missing_docs)]

pub mod answer;
pub mod batch;
pub mod checkpoint;
pub mod engine;
pub mod forest;
mod frame;
pub mod generate;
pub mod img;
pub mod json;
pub mod obs;
pub mod perf;
pub mod reflect;
pub mod sim;
pub mod trace;
pub mod view;
pub mod wire;

pub use answer::Answer;
pub use batch::{trace_strided, PartitionScratch, PatchRun, RecordSink, TallyRecord};
pub use checkpoint::{EngineCheckpoint, RestoreError};
pub use engine::{photon_stream, BatchReport, SolverEngine, StepBook, PHOTON_DRAW_STRIDE};
pub use forest::{BinForest, ForestFootprint};
pub use generate::{EmittedPhoton, PhotonGenerator};
pub use img::Image;
pub use obs::{
    FlightRecorder, Histogram, HistogramSnapshot, ObsCtx, ObsEvent, ObsHub, ObsKind, ObsTier,
    Stage, StageTimings, StageTimingsSnapshot,
};
pub use perf::{MemoryTrace, SpeedTrace, SPEED_TRACE_CAP};
pub use sim::{SimConfig, SimStats, Simulator};
pub use trace::{path_rays, trace_photon, trace_span, Span, TallySink, TraceOutcome};
pub use view::{
    render, render_tile, render_tile_memo, squash_tile_runs, tiles, Camera, ItemBuffer, ItemFrame,
    Tile,
};
pub use wire::{FrameDelta, SubscribeFrame, WireFrame, WireMode};
