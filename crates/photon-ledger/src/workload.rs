//! One workload run: set a scene up, push it through solve → pipeline →
//! fan-out → queries, check every output, and report what a user would
//! have felt.
//!
//! Every workload runs the same four phases on its own scene, so every
//! workload reports every end-to-end metric; what differs between
//! workloads is which layer the scene makes expensive (see
//! [`crate::spec::WORKLOADS`]). Phases never overlap: the fan-out and query
//! phases run with no solver in the process, the solve phase with no
//! renderer.
//!
//! The first lap is a fixed amount of work ([`FirstLap`]) and
//! `peak_rss_mb` is read right after it, so memory is compared at equal
//! work whatever the program's speed. Later laps are time-boxed by shares
//! of `--seconds`, so a run measures for about as long as it was asked to
//! on any host; the lock-step epochs and the open-loop schedule are a
//! function of `--seconds` alone.

use crate::host;
use crate::probes;
use crate::spans::{self, span, span_round};
use crate::spec::Workload;
use crate::stats::{highest_percentile, median, percentile};
use crate::subs::{Subscriber, Transport, WAIT};
use photon_core::wire::quantization_error_bound;
use photon_core::{Answer, Camera, Image, SimConfig, SimStats, Simulator, SolverEngine};
use photon_dist::{DistConfig, DistEngine};
use photon_geom::Scene;
use photon_par::{ParConfig, ParEngine};
use photon_scenes::ViewSpec;
use photon_serve::{
    render_parallel, AnswerStore, BackendChoice, RenderRequest, RenderService, SceneId,
    ServeConfig, SolveHandle, SolveProgress, SolveRequest, SolverPool, StreamClient, StreamServer,
    WireMode,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Photons per engine step in the solve phase (all three backends).
pub const SOLVE_BATCH: u64 = 10_000;
/// Steps per round: serial, threaded, distributed. The distributed world
/// gets half the photons — its wall clock also simulates the 1997 network.
const STEPS_PER_ROUND: [usize; 3] = [4, 4, 2];
/// Fewest solve rounds in the first lap, however short the run.
const MIN_ROUNDS: usize = 3;
/// Slice size of a cold submit: small, so the first frame is early.
const COLD_BATCH: u64 = 5_000;
/// Fewest cold submits in the first lap.
const MIN_COLD: usize = 4;
/// Slice size of the steady pipeline job.
pub const STEADY_BATCH: u64 = 20_000;
/// Fewest epochs of the first lap's steady pipeline job.
const MIN_STEADY_EPOCHS: usize = 4;
/// Photons in the first fan-out snapshot, and between consecutive ones.
pub const SNAPSHOT_BASE: u64 = 80_000;
/// See [`SNAPSHOT_BASE`].
pub const SNAPSHOT_STEP: u64 = 5_000;
/// Photon-stream seed of the pre-solved fan-out chain.
pub const CHAIN_SEED: u64 = 1997;
/// Times every phase gets a slice of its time box; the fan-out phase
/// subscribes its four consumers anew in each.
const LAPS: usize = 6;
/// Viewpoints on each query client's private orbit.
const ORBIT_VIEWS: usize = 8;
/// Fewest query cycles in the first lap (a cycle is republish, miss lap,
/// hit lap).
const MIN_QUERY_CYCLES: usize = 2;
/// One cached response in this many is compared with a fresh render.
const VERIFY_EVERY: usize = 16;
/// Times set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 5;
/// Streaming and query frame size.
pub const FRAME: (usize, usize) = (240, 180);
/// First-frame subscribers watch a thumbnail.
const THUMB: (usize, usize) = (160, 120);

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seeds the photon stream and every viewpoint.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Record spans and run the per-layer probes.
    pub traced: bool,
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// Metric name from [`crate::spec`].
    pub name: &'static str,
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples behind it (1 for a count or a single reading).
    pub samples: usize,
}

/// Operations attempted and failed, with the reasons.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// One line per failure (first few).
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; records `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Counts `n` operations that all succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 16 {
                self.failures.push(f);
            }
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// The end-to-end metrics (always all of them).
    pub end_to_end: Vec<Measured>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Measured>,
    /// Checked operations.
    pub ops: Ops,
    /// Finished spans (traced runs only).
    pub spans: Vec<spans::Span>,
}

impl Report {
    fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        self.end_to_end.push(Measured {
            name,
            value,
            samples,
        });
    }

    /// Records one per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        self.per_layer.push(Measured {
            name,
            value,
            samples,
        });
    }
}

/// The first lap's work, by count: the same on every host and at every
/// speed of the program under test, so that what the process holds when
/// `peak_rss_mb` is read (engine forests, one stored scene per cold submit,
/// the steady job's answer) is a function of `--seconds` alone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FirstLap {
    /// Solve rounds.
    pub rounds: usize,
    /// Cold submits.
    pub cold: usize,
    /// Epochs of the steady pipeline job.
    pub steady_epochs: usize,
    /// Query cycles.
    pub query_cycles: usize,
}

/// Sizes derived from `--seconds` and nothing else.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan {
    /// The fixed-size first lap.
    pub first_lap: FirstLap,
    /// Time box of the solve rounds.
    pub solve: Duration,
    /// Time box of the cold submits.
    pub cold: Duration,
    /// Time box of the steady pipeline job.
    pub steady: Duration,
    /// Lock-step fan-out epochs.
    pub lockstep_epochs: usize,
    /// Open-loop fan-out epochs (at the workload's `open_rate`).
    pub open_epochs: usize,
    /// Time box of the query cycles.
    pub queries: Duration,
    /// Open-loop publish rate of the fan-out phase, epochs per second.
    pub open_rate: f64,
}

impl Plan {
    /// Splits `seconds` over the phases: solve 24%, cold submits 16% (the
    /// widest-spread samples, so the most of them), steady pipeline 15%,
    /// fan-out about 30% (lock step by count, open loop by schedule: 23% of
    /// the window at `open_rate`), queries 13%. The first lap's counts are
    /// about what a lap's slice of those boxes holds at the seed state on a
    /// 2-core host (4 rounds, 12 cold submits, 8 epochs, 3 cycles at 45 s).
    pub fn new(seconds: f64, open_rate: f64) -> Plan {
        let share = |f: f64| Duration::from_secs_f64((seconds * f).max(0.0));
        // Whole epochs per lap, at least one.
        let per_round = |epochs: f64| ((epochs / LAPS as f64).round() as usize).max(1) * LAPS;
        let count =
            |per_second: f64, floor: usize| ((seconds * per_second).round() as usize).max(floor);
        Plan {
            first_lap: FirstLap {
                rounds: count(0.09, MIN_ROUNDS),
                cold: count(0.27, MIN_COLD),
                steady_epochs: count(0.18, MIN_STEADY_EPOCHS),
                query_cycles: count(0.07, MIN_QUERY_CYCLES),
            },
            solve: share(0.24),
            cold: share(0.16),
            steady: share(0.15),
            lockstep_epochs: per_round(seconds * 0.8),
            open_epochs: per_round(seconds * 0.23 * open_rate),
            queries: share(0.13),
            open_rate,
        }
    }

    /// Snapshots the fan-out phase publishes (bootstrap included).
    pub fn snapshots(&self) -> usize {
        1 + self.lockstep_epochs + self.open_epochs
    }
}

/// When an open-loop request `index` is due, and how late the generator
/// ran: requests are timed from their *due* time, so a stall delays — and
/// is charged to — every request scheduled behind it.
pub fn open_loop_due(start: Instant, index: usize, rate_per_s: f64) -> Instant {
    start + Duration::from_secs_f64(index as f64 / rate_per_s)
}

/// Delivery latency of one open-loop request: from when it was due, not
/// from when the (possibly late) generator got round to sending it.
pub fn delivery_ms(due: Instant, landed: Instant) -> f64 {
    landed.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// SplitMix64: spreads the run seed over the inputs it drives.
pub fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform deviate in `[0, 1)` from the run seed.
fn unit(seed: u64, lane: u64) -> f64 {
    (mix(seed, lane) >> 11) as f64 / (1u64 << 53) as f64
}

/// The viewpoints of one run: small seeded offsets on fixed orbits, so
/// different seeds see different pixels at about the same cost.
#[derive(Clone, Copy, Debug)]
pub struct Views {
    view: ViewSpec,
    jitter: f64,
}

impl Views {
    /// Viewpoints for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Views {
        Views {
            view: workload.scene.view(),
            jitter: unit(seed, 1) * 0.002,
        }
    }

    /// The camera at `phase` of a turn around the scene's landmark.
    pub fn orbit(&self, phase: f64, size: (usize, usize)) -> Camera {
        let v = self.view.orbited(phase + self.jitter, 1.0);
        Camera {
            eye: v.eye,
            target: v.target,
            up: v.up,
            vfov_deg: v.vfov_deg,
            width: size.0,
            height: size.1,
        }
    }
}

/// What set-up hands the timed window.
pub struct Stage {
    /// The scene.
    pub scene: Scene,
    /// Photon-stream seed.
    pub solver_seed: u64,
    /// Pre-solved fan-out chain: snapshot `k` holds
    /// `SNAPSHOT_BASE + k·SNAPSHOT_STEP` photons.
    pub snapshots: Vec<Answer>,
    pub(crate) serial: Simulator,
    pub(crate) par: ParEngine,
    pub(crate) dist: DistEngine,
    /// The answer store every tier meets at.
    pub store: Arc<AnswerStore>,
    /// The render service over it.
    pub service: Arc<RenderService>,
    pub(crate) pool: SolverPool,
}

/// The serving configuration of every run: host-sized render pool, library
/// defaults otherwise.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        render_threads: host::threads(),
        ..ServeConfig::default()
    }
}

fn set_up(workload: Workload, plan: &Plan, seed: u64) -> Stage {
    let _s = span("setup");
    let threads = host::threads();
    let scene = workload.scene.build();
    let solver_seed = mix(seed, 0);

    // The fan-out chain: one engine stepped along, a snapshot at each stop.
    // A recorded solve, the same whatever the run seed, so that the bytes
    // its frames cost on the wire are counts that repeat; the seed moves
    // the viewpoints the frames are rendered from.
    let mut chain = ParEngine::new(
        scene.clone(),
        ParConfig {
            seed: CHAIN_SEED,
            threads,
            batch_size: SNAPSHOT_STEP,
            ..ParConfig::default()
        },
    );
    let mut snapshots = Vec::with_capacity(plan.snapshots());
    chain.step(SNAPSHOT_BASE);
    snapshots.push(chain.snapshot());
    for _ in 1..plan.snapshots() {
        chain.step(SNAPSHOT_STEP);
        snapshots.push(chain.snapshot());
    }

    let serial = Simulator::new(
        scene.clone(),
        SimConfig {
            seed: solver_seed,
            ..SimConfig::default()
        },
    );
    let par = ParEngine::new(
        scene.clone(),
        ParConfig {
            seed: solver_seed,
            threads,
            batch_size: SOLVE_BATCH,
            ..ParConfig::default()
        },
    );
    let dist = DistEngine::new(
        scene.clone(),
        DistConfig {
            seed: solver_seed,
            nranks: threads,
            ..DistConfig::default()
        },
    );

    let store = Arc::new(AnswerStore::new());
    let service = Arc::new(RenderService::start(Arc::clone(&store), serve_config()));
    let pool = SolverPool::start(Arc::clone(&store), 1);
    Stage {
        scene,
        solver_seed,
        snapshots,
        serial,
        par,
        dist,
        store,
        service,
        pool,
    }
}

/// Runs one workload and reports it.
pub fn run(args: RunArgs) -> Report {
    if args.traced {
        spans::enable();
    }
    let mut report = Report::default();
    let plan = Plan::new(args.seconds, args.workload.open_rate);
    let views = Views::new(args.workload, args.seed);

    // Set-up, several times over: the median is the metric, the last one
    // is the stage the run plays on.
    let mut setup_seconds = Vec::with_capacity(SETUPS);
    let mut stage = None;
    for _ in 0..SETUPS {
        drop(stage.take());
        let t0 = Instant::now();
        stage = Some(set_up(args.workload, &plan, args.seed));
        setup_seconds.push(t0.elapsed().as_secs_f64());
    }
    let mut stage = stage.expect("SETUPS > 0");
    report.e2e("setup_s", median(&setup_seconds), SETUPS);

    // Every phase runs a slice per lap, and a metric's samples are pooled
    // over the laps: a host stall or a slow minute costs each metric some of
    // its samples instead of costing one metric all of them.
    let mut solve = SolveRounds::default();
    let mut pipeline = Pipeline::default();
    let mut fanout = Fanout::begin(&mut stage);
    let mut queries = Queries::begin(&stage, fanout.id);
    // The fan-out's viewpoints do not move with the run seed: its frames,
    // like its chain, are a recording, so the bytes they cost on the wire
    // are counts that repeat exactly.
    let fanout_views = Views::new(args.workload, CHAIN_SEED);
    for lap in 0..LAPS {
        let first = lap == 0;
        solve_rounds(&mut stage, &plan, first, &mut solve, &mut report);
        pipeline.lap(&stage, &plan, first, &views, &mut report);
        fanout.round(&stage, &plan, &fanout_views, &mut report);
        queries.cycles(&stage, &plan, first, &views, &mut report);
        if first {
            // Read here, after set-up and a lap of fixed size, and not at
            // exit: the later laps are time-boxed and keep what they make
            // (a stored scene per cold submit, ever larger forests), so a
            // peak taken after them would grow with the program's speed.
            report.e2e("peak_rss_mb", host::peak_rss_mib().unwrap_or(f64::NAN), 1);
        }
    }
    let solve = solve_finish(&stage, solve, &mut report);
    let pipeline = pipeline.finish(&mut report);
    let fanout = fanout.finish(&stage, &mut report);
    let queries = queries.finish(&stage, &mut report);

    if args.traced {
        probes::run(
            &mut stage,
            &views,
            probes::PhaseFacts {
                solve,
                pipeline,
                fanout,
                queries,
            },
            &mut report,
        );
    }
    drop(stage);
    if args.traced {
        report.spans = spans::take();
    }
    report
}

// ---------------------------------------------------------------------------
// Phase 1: solve — the three backends on persistent engines, interleaved.
// ---------------------------------------------------------------------------

/// What the solve phase learned beyond its end-to-end rates.
#[derive(Clone, Debug, Default)]
pub struct SolveFacts {
    /// Wall milliseconds of every step, per backend (serial, par, dist).
    pub step_ms: [Vec<f64>; 3],
    /// Median photons/s per backend.
    pub rate: [f64; 3],
    /// Mean share of a threaded step spent tracing / applying.
    pub par_shares: (f64, f64),
    /// Photons the distributed main loop emitted, bytes it forwarded, and
    /// its virtual clock at the end.
    pub dist_totals: (u64, u64, f64),
}

fn tallies(answer: &Answer) -> u64 {
    (0..answer.patch_count() as u32)
        .map(|p| answer.tree(p).tallies())
        .sum()
}

/// `Answer::write_to` bytes — the identity serial and threaded must share.
pub fn answer_bytes(answer: &Answer) -> Vec<u8> {
    let mut bytes = Vec::new();
    answer
        .write_to(&mut bytes)
        .expect("writing to a Vec cannot fail");
    bytes
}

/// The solve phase's running tallies between its slices.
#[derive(Default)]
struct SolveRounds {
    facts: SolveFacts,
    rates: [Vec<f64>; 3],
    /// Seconds of threaded steps: tracing, applying, whole.
    par_seconds: (f64, f64, f64),
    rounds: usize,
}

const ENGINE_SPANS: [&str; 3] = ["sim.step", "par.step", "dist.step"];

/// One lap's share of a phase, as (deadline, least units of work): the
/// first lap is exactly `fixed` units whatever the clock says, a later lap
/// runs until its slice of the time box is spent and holds one unit at least.
fn lap_slice(time_box: Duration, first_lap: bool, fixed: usize) -> (Instant, usize) {
    let now = Instant::now();
    if first_lap {
        (now, fixed)
    } else {
        (now + time_box / LAPS as u32, 1)
    }
}

/// One lap of interleaved serial / threaded / distributed rounds on the
/// stage's persistent engines.
fn solve_rounds(
    stage: &mut Stage,
    plan: &Plan,
    first_lap: bool,
    state: &mut SolveRounds,
    report: &mut Report,
) {
    let _p = span("phase.solve");
    let (deadline, min_rounds) = lap_slice(plan.solve, first_lap, plan.first_lap.rounds);
    let mut done = 0usize;
    while done < min_rounds || Instant::now() < deadline {
        for backend in 0..3 {
            let engine: &mut dyn SolverEngine = match backend {
                0 => &mut stage.serial,
                1 => &mut stage.par,
                _ => &mut stage.dist,
            };
            let t0 = Instant::now();
            let mut photons = 0u64;
            for _ in 0..STEPS_PER_ROUND[backend] {
                let step0 = Instant::now();
                let step = {
                    let _s = span_round(ENGINE_SPANS[backend], state.rounds as u64);
                    engine.step(SOLVE_BATCH)
                };
                state.facts.step_ms[backend].push(step0.elapsed().as_secs_f64() * 1e3);
                photons += step.batch_photons;
                report.ops.check(step.batch_photons >= SOLVE_BATCH, || {
                    format!(
                        "{}: short batch {}",
                        ENGINE_SPANS[backend], step.batch_photons
                    )
                });
                if backend == 1 {
                    state.par_seconds.0 += step.trace_seconds;
                    state.par_seconds.1 += step.apply_seconds;
                    state.par_seconds.2 += step.batch_seconds;
                }
            }
            state.rates[backend].push(photons as f64 / t0.elapsed().as_secs_f64());
        }
        state.rounds += 1;
        done += 1;
    }
}

/// Reports the solve metrics and checks the three engines' answers.
fn solve_finish(stage: &Stage, state: SolveRounds, report: &mut Report) -> SolveFacts {
    let SolveRounds {
        mut facts,
        rates,
        par_seconds,
        ..
    } = state;
    for (backend, name) in [
        "photons_per_s_serial",
        "photons_per_s_threaded",
        "photons_per_s_dist",
    ]
    .into_iter()
    .enumerate()
    {
        facts.rate[backend] = median(&rates[backend]);
        report.e2e(name, facts.rate[backend], rates[backend].len());
    }
    facts.par_shares = (par_seconds.0 / par_seconds.2, par_seconds.1 / par_seconds.2);
    facts.dist_totals = (
        stage.dist.main_emitted(),
        stage.dist.bytes_forwarded(),
        stage.dist.virtual_clock(),
    );

    // Correctness: conservation everywhere, threaded == serial to the
    // byte, and the distributed forest holds every tally exactly once.
    let _c = span("solve.checks");
    let stats: [SimStats; 3] = [
        SolverEngine::stats(&stage.serial),
        stage.par.stats(),
        stage.dist.stats(),
    ];
    for (name, s) in ENGINE_SPANS.iter().zip(&stats) {
        report.ops.check(s.is_conserved(), || {
            format!("{name}: photons not conserved: {s:?}")
        });
    }
    let serial = stage.serial.snapshot();
    let threaded = stage.par.snapshot();
    report.ops.check(
        serial.emitted() == threaded.emitted() && answer_bytes(&serial) == answer_bytes(&threaded),
        || "threaded answer bytes differ from serial at equal photon count".into(),
    );
    let dist = stage.dist.snapshot();
    report.ops.check(
        tallies(&dist) == stats[2].emitted + stats[2].reflections,
        || {
            format!(
                "dist forest holds {} tallies, counters say {} + {}",
                tallies(&dist),
                stats[2].emitted,
                stats[2].reflections
            )
        },
    );
    facts
}

// ---------------------------------------------------------------------------
// Phase 2: pipeline — SolverPool feeding subscribers while it solves.
// ---------------------------------------------------------------------------

/// What the pipeline phase learned beyond its end-to-end metrics.
#[derive(Clone, Debug, Default)]
pub struct PipelineFacts {
    /// `cancel()` → terminal progress, per cold job, ms.
    pub cancel_ms: Vec<f64>,
    /// Connect → bootstrap delta, per cold subscriber, ms.
    pub bootstrap_ms: Vec<f64>,
    /// Epoch-to-epoch intervals of the steady job, seconds.
    pub epoch_intervals_s: Vec<f64>,
    /// Slices and epochs the scheduler granted the steady job.
    pub steady_slices_epochs: (u64, u64),
}

fn solve_request(stage: &Stage, name: &str, batch: u64) -> SolveRequest {
    let mut request = SolveRequest::new(name, stage.scene.clone());
    request.backend = BackendChoice::Threaded {
        threads: host::threads(),
    };
    request.seed = stage.solver_seed;
    request.batch_size = batch;
    // Never reached: every job here ends by `cancel`.
    request.target_photons = 1 << 40;
    request
}

/// Cancels `job` and drains its progress: exactly one terminal report,
/// nothing after it. Returns the terminal report and the last epoch that
/// added photons (a cancel may republish the same answer, and identical
/// pixels are not streamed).
fn cancel_and_drain(
    job: &SolveHandle,
    mut last: Option<SolveProgress>,
    ops: &mut Ops,
) -> Option<(SolveProgress, u64)> {
    job.cancel();
    let mut fresh_epoch = last.map_or(0, |p| p.epoch);
    let terminal = loop {
        let Some(p) = job.next_progress(WAIT) else {
            ops.check(false, || format!("{}: no terminal progress", job.job_id()));
            return None;
        };
        if last.is_none_or(|l| p.emitted > l.emitted) {
            fresh_epoch = p.epoch;
        }
        last = Some(p);
        if p.done {
            break p;
        }
    };
    let extra = job.next_progress(Duration::from_millis(1));
    ops.check(terminal.canceled && extra.is_none(), || {
        format!("{}: more than one terminal progress", job.job_id())
    });
    Some((terminal, fresh_epoch))
}

fn reference_render(stage: &Stage, scene_id: SceneId, camera: &Camera) -> Image {
    let entry = stage.store.get(scene_id).expect("scene was registered");
    let config = serve_config();
    render_parallel(
        &entry.scene,
        &entry.answer,
        camera,
        entry.exposure,
        config.render_threads,
        config.tile_size,
    )
}

/// What the solver pool has done so far: jobs holding or waiting for a
/// slice, and slices granted and epochs published over every job it ran.
fn solver_activity(stage: &Stage) -> (u64, u64, u64) {
    let m = stage.pool.metrics();
    (
        m.running + m.queue_depth,
        m.jobs.iter().map(|j| j.slices).sum(),
        m.jobs.iter().map(|j| j.epochs).sum(),
    )
}

/// The serving phases claim to run with no solver in the process: checks
/// that since `before` the pool held no job and granted and published
/// nothing, and returns the slices it did grant.
fn check_solver_idle(stage: &Stage, before: (u64, u64, u64), phase: &str, ops: &mut Ops) -> u64 {
    let after = solver_activity(stage);
    ops.check(before.0 == 0 && after == before, || {
        format!("{phase}: the solver pool was not idle: {before:?} -> {after:?} (live jobs, slices, epochs)")
    });
    after.1 - before.1
}

/// Largest channel error of `got` against `want`, over the codec's
/// advertised bound for the frame's value range (≤ 1 passes).
pub fn quantized_error_over_bound(got: &Image, want: &Image) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in want.pixels() {
        for v in [p.r, p.g, p.b] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let bound = quantization_error_bound(lo, hi) + 1e-12;
    let mut worst = 0.0f64;
    for (g, w) in got.pixels().iter().zip(want.pixels()) {
        for (g, w) in [g.r, g.g, g.b].into_iter().zip([w.r, w.g, w.b]) {
            worst = worst.max((g - w).abs());
        }
    }
    worst / bound
}

/// The pipeline phase's samples, pooled over the laps.
#[derive(Default)]
struct Pipeline {
    facts: PipelineFacts,
    first_frame_ms: Vec<f64>,
    rates: Vec<f64>,
}

impl Pipeline {
    /// One lap: cold submits for a slice of the cold box, then one steady
    /// job for a slice of the steady box.
    fn lap(
        &mut self,
        stage: &Stage,
        plan: &Plan,
        first_lap: bool,
        views: &Views,
        report: &mut Report,
    ) {
        let _p = span("phase.pipeline");
        let server = match StreamServer::serve(Arc::clone(&stage.service)) {
            Ok(server) => server,
            Err(e) => {
                report.ops.check(false, || format!("stream server: {e}"));
                return;
            }
        };

        // Cold: submit → first solved frame on a fresh TCP subscriber.
        let thumb = views.orbit(0.0, THUMB);
        let (deadline, min_cold) = lap_slice(plan.cold, first_lap, plan.first_lap.cold);
        let mut done = 0usize;
        while done < min_cold || Instant::now() < deadline {
            let n = self.first_frame_ms.len();
            let _s = span_round("pipeline.cold_submit", n as u64);
            let request = solve_request(stage, "cold", COLD_BATCH);
            let t0 = Instant::now();
            let job = stage.pool.submit(request);
            let first = (|| -> Result<f64, String> {
                let mut client = StreamClient::connect(
                    server.local_addr(),
                    job.scene_id(),
                    thumb,
                    WireMode::Lossless,
                )
                .map_err(|e| format!("connect: {e}"))?;
                client
                    .set_read_timeout(Some(WAIT))
                    .map_err(|e| format!("socket timeout: {e}"))?;
                let mut canvas = None;
                loop {
                    let delta = client.recv_delta().map_err(|e| format!("recv: {e}"))?;
                    if canvas.is_none() {
                        self.facts
                            .bootstrap_ms
                            .push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    delta.apply(canvas.get_or_insert_with(|| delta.canvas()));
                    if delta.epoch >= 1 {
                        return Ok(t0.elapsed().as_secs_f64() * 1e3);
                    }
                }
            })();
            match first {
                Ok(ms) => {
                    report.ops.passed(1);
                    self.first_frame_ms.push(ms);
                }
                Err(e) => {
                    report.ops.check(false, || format!("cold submit {n}: {e}"));
                }
            }
            let c0 = Instant::now();
            if cancel_and_drain(&job, None, &mut report.ops).is_some() {
                self.facts.cancel_ms.push(c0.elapsed().as_secs_f64() * 1e3);
            }
            done += 1;
        }

        // Steady: one job, an in-process and a quantized TCP subscriber on
        // different viewpoints, solver and dispatcher sharing the cores.
        let _s = span("pipeline.steady");
        let job = stage
            .pool
            .submit(solve_request(stage, "steady", STEADY_BATCH));
        let subs: Vec<Subscriber> = [
            (views.orbit(0.0, FRAME), Transport::InProcess),
            (views.orbit(0.5, FRAME), Transport::Tcp(WireMode::Quantized)),
        ]
        .into_iter()
        .filter_map(|(camera, transport)| {
            let sub = Subscriber::start(&stage.service, &server, job.scene_id(), camera, transport);
            report.ops.check(sub.is_ok(), || {
                format!("steady subscriber: {:?}", sub.as_ref().err())
            });
            sub.ok()
        })
        .collect();
        let mut last: Option<(Instant, SolveProgress)> = None;
        let (deadline, min_epochs) =
            lap_slice(plan.steady, first_lap, plan.first_lap.steady_epochs);
        let mut epochs = 0usize;
        while epochs < min_epochs || Instant::now() < deadline {
            let Some(p) = job.next_progress(WAIT) else {
                report.ops.check(false, || "steady job stalled".into());
                break;
            };
            let now = Instant::now();
            report.ops.passed(1);
            if let Some((then, prev)) = last {
                let dt = now.duration_since(then).as_secs_f64();
                self.facts.epoch_intervals_s.push(dt);
                self.rates.push((p.emitted - prev.emitted) as f64 / dt);
                epochs += 1;
            }
            last = Some((now, p));
        }
        let drained = cancel_and_drain(&job, last.map(|(_, p)| p), &mut report.ops);
        if let Some(m) = stage
            .pool
            .metrics()
            .jobs
            .iter()
            .find(|m| m.job == job.job_id().0)
        {
            self.facts.steady_slices_epochs.0 += m.slices;
            self.facts.steady_slices_epochs.1 += m.epochs;
        }
        if let Some((_, fresh_epoch)) = drained {
            for sub in &subs {
                let landed = sub.wait_epoch(fresh_epoch);
                report.ops.check(landed, || {
                    format!(
                        "steady {:?}: epoch {fresh_epoch} never landed",
                        sub.transport
                    )
                });
            }
        }
        finish_subscribers(
            stage,
            job.scene_id(),
            "steady",
            subs,
            server,
            &mut report.ops,
        );
    }

    fn finish(self, report: &mut Report) -> PipelineFacts {
        report.e2e(
            "first_frame_ms",
            median(&self.first_frame_ms),
            self.first_frame_ms.len(),
        );
        report.e2e(
            "pipeline_photons_per_s",
            median(&self.rates),
            self.rates.len(),
        );
        self.facts
    }
}

/// Stops `subs`, closes `server` under the TCP ones, joins them, and checks
/// each canvas against a full render of the scene's final epoch: bit-equal,
/// or within the codec's bound for a quantized stream.
fn finish_subscribers(
    stage: &Stage,
    scene_id: SceneId,
    phase: &str,
    subs: Vec<Subscriber>,
    server: StreamServer,
    ops: &mut Ops,
) {
    for sub in &subs {
        sub.stop();
    }
    drop(server);
    subs.into_iter().for_each(|sub| {
        let what = format!("{phase} {:?}", sub.transport);
        let reference = reference_render(stage, scene_id, &sub.camera);
        let transport = sub.transport;
        let seen = sub.join();
        ops.check(seen.error.is_none(), || format!("{what}: {:?}", seen.error));
        match (&seen.canvas, transport) {
            (None, _) => {
                ops.check(false, || format!("{what}: no frame ever arrived"));
            }
            (Some(canvas), Transport::Tcp(WireMode::Quantized)) => {
                let over = quantized_error_over_bound(canvas, &reference);
                ops.check(over <= 1.0, || {
                    format!("{what}: quantized error {over:.3}× the advertised bound")
                });
            }
            (Some(canvas), _) => {
                ops.check(canvas.pixels() == reference.pixels(), || {
                    format!("{what}: canvas differs from a full render of the final epoch")
                });
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Phase 3: fan-out — pre-solved snapshots published to four subscribers.
// ---------------------------------------------------------------------------

/// What the fan-out phase learned beyond its end-to-end metrics.
#[derive(Clone, Debug, Default)]
pub struct FanoutFacts {
    /// `AnswerStore::publish` call time per epoch, µs.
    pub publish_us: Vec<f64>,
    /// Open-loop delivery per transport: in-process, TCP lossless, TCP
    /// quantized, ms.
    pub delivery_ms: [Vec<f64>; 3],
    /// How late the open-loop generator published, ms.
    pub late_ms: Vec<f64>,
    /// Connect → bootstrap frame of the TCP subscribers, ms.
    pub bootstrap_ms: Vec<f64>,
    /// Deltas pushed, deltas squashed, tile bytes — dispatcher counters over
    /// the phase.
    pub stream_counters: (u64, u64, u64),
    /// Epochs published after the bootstrap.
    pub epochs: u64,
    /// The scene the snapshots were published to.
    pub scene_id: Option<SceneId>,
    /// Slices the solver pool granted inside the rounds (checked to be 0).
    pub solver_slices: u64,
}

/// The fan-out phase between its rounds: the chain still to publish, the
/// scene it goes to, and the samples so far.
struct Fanout {
    facts: FanoutFacts,
    chain: std::vec::IntoIter<Answer>,
    id: SceneId,
    epoch: u64,
    rounds: usize,
    cycles_per_s: Vec<f64>,
    /// Open-loop delivery, one sample per (epoch, subscriber).
    all_ms: Vec<f64>,
    /// Open-loop delivery, mean across the subscribers of each epoch.
    epoch_ms: Vec<f64>,
    /// Lossless and quantized bytes over the lock-step epochs, and how
    /// many of those there were.
    wire_bytes: [u64; 2],
    lockstep_epochs: usize,
    counters_before: (u64, u64, u64),
}

impl Fanout {
    /// Registers the first snapshot of the stage's chain as the scene.
    fn begin(stage: &mut Stage) -> Fanout {
        let mut chain = std::mem::take(&mut stage.snapshots).into_iter();
        let first = chain.next().expect("plan.snapshots() >= 1");
        let id = stage.store.insert("fanout", stage.scene.clone(), first);
        let before = stage.service.metrics().stream;
        Fanout {
            facts: FanoutFacts {
                scene_id: Some(id),
                ..FanoutFacts::default()
            },
            chain,
            id,
            epoch: 1,
            rounds: 0,
            cycles_per_s: Vec::new(),
            all_ms: Vec::new(),
            epoch_ms: Vec::new(),
            wire_bytes: [0; 2],
            lockstep_epochs: 0,
            counters_before: (before.deltas, before.deltas_squashed, before.tile_bytes),
        }
    }

    /// One lap's round.
    ///
    /// The dispatcher serves a scene's subscribers in hash order, drawn
    /// afresh per subscription; whether the slow decoder is served first or
    /// last moves a cycle by a fifth. Each round subscribes anew, so one run
    /// samples several orders instead of betting on one.
    fn round(&mut self, stage: &Stage, plan: &Plan, views: &Views, report: &mut Report) {
        let _p = span("phase.fanout");
        let _r = span_round("fanout.round", self.rounds as u64);
        self.rounds += 1;
        let id = self.id;
        let solver_before = solver_activity(stage);
        let server = match StreamServer::serve(Arc::clone(&stage.service)) {
            Ok(server) => server,
            Err(e) => {
                report.ops.check(false, || format!("stream server: {e}"));
                return;
            }
        };
        // In-process A and B, TCP lossless on A's viewpoint (its render
        // coalesces with A's), TCP quantized on a third viewpoint.
        let t0 = Instant::now();
        let subs: Vec<Subscriber> = [
            (views.orbit(0.0, FRAME), Transport::InProcess),
            (views.orbit(0.25, FRAME), Transport::InProcess),
            (views.orbit(0.0, FRAME), Transport::Tcp(WireMode::Lossless)),
            (views.orbit(0.5, FRAME), Transport::Tcp(WireMode::Quantized)),
        ]
        .into_iter()
        .filter_map(|(camera, transport)| {
            let sub = Subscriber::start(&stage.service, &server, id, camera, transport);
            report.ops.check(sub.is_ok(), || {
                format!("fanout subscriber: {:?}", sub.as_ref().err())
            });
            sub.ok()
        })
        .collect();
        // Waits on every subscriber, so each missing delivery is counted.
        let all_landed = |epoch: u64, ops: &mut Ops| -> bool {
            let mut all = true;
            for sub in &subs {
                all &= ops.check(sub.wait_epoch(epoch), || {
                    format!("fanout {:?}: epoch {epoch} never landed", sub.transport)
                });
            }
            all
        };
        all_landed(self.epoch, &mut report.ops);
        for sub in subs.iter().filter(|s| s.transport != Transport::InProcess) {
            if let Some(at) = sub.landed_at(self.epoch) {
                self.facts
                    .bootstrap_ms
                    .push(at.duration_since(t0).as_secs_f64() * 1e3);
            }
        }
        let wire = |mode: WireMode| -> u64 {
            subs.iter()
                .filter(|s| s.transport == Transport::Tcp(mode))
                .map(|s| s.with_seen(|seen| seen.wire_bytes))
                .sum()
        };
        let wire_before = [wire(WireMode::Lossless), wire(WireMode::Quantized)];
        let publish = |answer: Answer, facts: &mut FanoutFacts| -> u64 {
            let t = Instant::now();
            let epoch = {
                let _s = span("store.publish");
                stage.store.publish(id, answer)
            };
            facts.publish_us.push(t.elapsed().as_secs_f64() * 1e6);
            facts.epochs += 1;
            epoch
        };

        // Lock step: publish, wait until all four hold the epoch, repeat.
        for _ in 0..plan.lockstep_epochs / LAPS {
            let Some(answer) = self.chain.next() else {
                break;
            };
            let _s = span_round("fanout.cycle", self.epoch + 1);
            let t = Instant::now();
            self.epoch = publish(answer, &mut self.facts);
            self.lockstep_epochs += 1;
            if all_landed(self.epoch, &mut report.ops) {
                self.cycles_per_s.push(1.0 / t.elapsed().as_secs_f64());
            }
        }
        self.wire_bytes[0] += wire(WireMode::Lossless) - wire_before[0];
        self.wire_bytes[1] += wire(WireMode::Quantized) - wire_before[1];

        // Open loop: publish on a fixed schedule whether or not the
        // previous epoch has landed; each delivery is timed from its due
        // time.
        let start = Instant::now() + Duration::from_millis(20);
        let mut due_epochs = Vec::new();
        for i in 0..plan.open_epochs / LAPS {
            let Some(answer) = self.chain.next() else {
                break;
            };
            let due = open_loop_due(start, i, plan.open_rate);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            self.facts.late_ms.push(delivery_ms(due, Instant::now()));
            let _s = span_round("fanout.open_publish", self.epoch + 1);
            self.epoch = publish(answer, &mut self.facts);
            due_epochs.push((self.epoch, due));
        }
        all_landed(self.epoch, &mut report.ops);
        for (epoch, due) in &due_epochs {
            let mut across_subs = Vec::with_capacity(subs.len());
            for sub in &subs {
                let lane = match sub.transport {
                    Transport::InProcess => 0,
                    Transport::Tcp(WireMode::Lossless) => 1,
                    Transport::Tcp(WireMode::Quantized) => 2,
                };
                if let Some(landed) = sub.landed_at(*epoch) {
                    let ms = delivery_ms(*due, landed);
                    self.facts.delivery_ms[lane].push(ms);
                    across_subs.push(ms);
                }
            }
            if across_subs.len() == subs.len() {
                self.epoch_ms
                    .push(across_subs.iter().sum::<f64>() / subs.len() as f64);
            }
            self.all_ms.extend(across_subs);
        }
        finish_subscribers(stage, id, "fanout", subs, server, &mut report.ops);
        self.facts.solver_slices +=
            check_solver_idle(stage, solver_before, "fan-out", &mut report.ops);
    }

    fn finish(mut self, stage: &Stage, report: &mut Report) -> FanoutFacts {
        report.e2e(
            "fanout_epochs_per_s",
            median(&self.cycles_per_s),
            self.cycles_per_s.len(),
        );
        let lockstep = self.lockstep_epochs.max(1);
        report.e2e(
            "wire_bytes_per_epoch_lossless",
            self.wire_bytes[0] as f64 / lockstep as f64,
            lockstep,
        );
        report.e2e(
            "wire_bytes_per_epoch_quantized",
            self.wire_bytes[1] as f64 / lockstep as f64,
            lockstep,
        );
        // A subscriber's delivery depends on where the dispatcher's hash
        // order puts it (first served or last: a factor of three), so the
        // per-subscriber samples are a mixture of modes and their median
        // jumps between them from run to run. The mean across the four
        // subscribers of one epoch does not depend on the order; its median
        // over epochs is the typical delivery, and the tail is read off the
        // per-subscriber samples: p90 from 100 samples up, else the highest
        // percentile with ten samples beyond it, else the median.
        report.e2e(
            "delivery_ms_p50",
            median(&self.epoch_ms),
            self.epoch_ms.len(),
        );
        let tail = highest_percentile(self.all_ms.len()).map_or(50.0, |p| p.min(90.0));
        report.e2e(
            "delivery_ms_p90",
            percentile(&self.all_ms, tail),
            self.all_ms.len(),
        );
        let after = stage.service.metrics().stream;
        let (deltas, squashed, tile_bytes) = self.counters_before;
        self.facts.stream_counters = (
            after.deltas - deltas,
            after.deltas_squashed - squashed,
            after.tile_bytes - tile_bytes,
        );
        self.facts
    }
}

// ---------------------------------------------------------------------------
// Phase 4: queries — closed-loop clients against a static answer.
// ---------------------------------------------------------------------------

/// What the query phase learned beyond its end-to-end metrics.
#[derive(Clone, Debug, Default)]
pub struct QueryFacts {
    /// Scene the queries ran against.
    pub scene_id: Option<SceneId>,
    /// Cache hits, requests completed, dispatch batches, cache entries
    /// purged and republishes over the phase.
    pub counters: (u64, u64, u64, u64, u64),
    /// Round trips of the responses served from the cache, ms.
    pub hit_ms: Vec<f64>,
    /// Slices the solver pool granted inside the cycles (checked to be 0).
    pub solver_slices: u64,
}

/// One client's walk round its orbit: all misses or all hits.
struct OrbitLap {
    ms: Vec<f64>,
    hit: bool,
}

/// The query phase between its slices.
struct Queries {
    facts: QueryFacts,
    id: SceneId,
    answer: Arc<Answer>,
    laps: Vec<OrbitLap>,
    cycle_rates: Vec<f64>,
    cycles: usize,
    republished: u64,
    /// Sampled cached responses, compared with fresh renders at the end.
    verify: Vec<(Camera, Arc<Image>)>,
    counters_before: (u64, u64, u64, u64),
}

impl Queries {
    /// Registers the static answer: what `solved` holds now (the fan-out
    /// chain's first snapshot).
    fn begin(stage: &Stage, solved: SceneId) -> Queries {
        let answer = Arc::clone(&stage.store.get(solved).expect("inserted").answer);
        let id = stage
            .store
            .insert("queries", stage.scene.clone(), (*answer).clone());
        let before = stage.service.metrics();
        Queries {
            facts: QueryFacts {
                scene_id: Some(id),
                ..QueryFacts::default()
            },
            id,
            answer,
            laps: Vec::new(),
            cycle_rates: Vec::new(),
            cycles: 0,
            republished: 0,
            verify: Vec::new(),
            counters_before: (
                before.cache_hits,
                before.completed,
                before.batches,
                before.cache_purged,
            ),
        }
    }

    /// One lap of closed-loop cycles: the harness republishes (epoch bump,
    /// cache purge), every client walks a miss lap, then a hit lap.
    fn cycles(
        &mut self,
        stage: &Stage,
        plan: &Plan,
        first_lap: bool,
        views: &Views,
        report: &mut Report,
    ) {
        let _p = span("phase.queries");
        let id = self.id;
        let solver_before = solver_activity(stage);
        let clients = host::threads();
        let gate = Barrier::new(clients + 1);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..clients)
                .map(|c| {
                    let (gate, stop, service) = (&gate, &stop, &stage.service);
                    scope.spawn(move || {
                        let orbit: Vec<Camera> = (0..ORBIT_VIEWS)
                            .map(|v| {
                                let slot = (c * ORBIT_VIEWS + v) as f64;
                                views.orbit(slot / (clients * ORBIT_VIEWS) as f64, FRAME)
                            })
                            .collect();
                        let (mut laps, mut ops, mut samples) =
                            (Vec::new(), Ops::default(), Vec::new());
                        let mut hits_seen = 0usize;
                        loop {
                            gate.wait();
                            // SeqCst: the harness stores before its own wait.
                            if stop.load(Ordering::SeqCst) {
                                return (laps, ops, samples);
                            }
                            for expect_hit in [false, true] {
                                let mut lap = OrbitLap {
                                    ms: Vec::with_capacity(ORBIT_VIEWS),
                                    hit: expect_hit,
                                };
                                for camera in &orbit {
                                    let request = RenderRequest {
                                        scene_id: id,
                                        camera: *camera,
                                    };
                                    let t = Instant::now();
                                    let response = {
                                        let _s = span("service.render_blocking");
                                        service.submit(request).wait_timeout(WAIT)
                                    };
                                    let ms = t.elapsed().as_secs_f64() * 1e3;
                                    match response {
                                        Ok(r) if r.from_cache() == expect_hit => {
                                            ops.passed(1);
                                            lap.ms.push(ms);
                                            if expect_hit {
                                                hits_seen += 1;
                                                if hits_seen.is_multiple_of(VERIFY_EVERY) {
                                                    samples.push((*camera, r.image));
                                                }
                                            }
                                        }
                                        Ok(r) => {
                                            ops.check(false, || {
                                                format!(
                                                    "query expected {} got {:?}",
                                                    if expect_hit { "a hit" } else { "a render" },
                                                    r.outcome
                                                )
                                            });
                                        }
                                        Err(e) => {
                                            ops.check(false, || format!("query failed: {e}"));
                                        }
                                    }
                                }
                                laps.push(lap);
                                gate.wait();
                            }
                        }
                    })
                })
                .collect();

            let (deadline, min_cycles) =
                lap_slice(plan.queries, first_lap, plan.first_lap.query_cycles);
            let mut done = 0usize;
            while done < min_cycles || Instant::now() < deadline {
                if self.cycles > 0 {
                    let _s = span("store.publish");
                    stage.store.publish(id, (*self.answer).clone());
                    self.republished += 1;
                }
                let t = Instant::now();
                gate.wait();
                gate.wait();
                gate.wait();
                self.cycle_rates
                    .push((clients * 2 * ORBIT_VIEWS) as f64 / t.elapsed().as_secs_f64());
                self.cycles += 1;
                done += 1;
            }
            stop.store(true, Ordering::SeqCst);
            gate.wait();
            for worker in workers {
                match worker.join() {
                    Ok((laps, ops, samples)) => {
                        self.laps.extend(laps);
                        report.ops.merge(ops);
                        self.verify.extend(samples);
                    }
                    Err(_) => {
                        report.ops.check(false, || "query client panicked".into());
                    }
                }
            }
        });
        self.facts.solver_slices +=
            check_solver_idle(stage, solver_before, "queries", &mut report.ops);
    }

    fn finish(mut self, stage: &Stage, report: &mut Report) -> QueryFacts {
        let lap_ms = |hit: bool| -> Vec<f64> {
            self.laps
                .iter()
                .filter(|l| l.hit == hit)
                .flat_map(|l| l.ms.iter().copied())
                .collect()
        };
        let (hit_ms, miss_ms) = (lap_ms(true), lap_ms(false));
        report.e2e(
            "queries_per_s",
            median(&self.cycle_rates),
            self.cycle_rates.len(),
        );
        report.e2e("query_miss_ms_p50", median(&miss_ms), miss_ms.len());
        self.facts.hit_ms = hit_ms;

        // Outside the timed window: sampled cached responses equal a fresh
        // render, pixel for pixel (every republish carried the same answer).
        let _c = span("queries.checks");
        for (camera, image) in &self.verify {
            let fresh = reference_render(stage, self.id, camera);
            report.ops.check(fresh.pixels() == image.pixels(), || {
                "cached response differs from a fresh render".into()
            });
        }
        let after = stage.service.metrics();
        let (hits, completed, batches, purged) = self.counters_before;
        self.facts.counters = (
            after.cache_hits - hits,
            after.completed - completed,
            after.batches - batches,
            after.cache_purged - purged,
            self.republished,
        );
        self.facts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn open_loop_requests_are_timed_from_their_due_time() {
        let start = Instant::now();
        let due3 = open_loop_due(start, 3, 6.0);
        assert_eq!(due3.duration_since(start), Duration::from_millis(500));
        // The generator stalled: request 3 went out 200 ms late and landed
        // 30 ms after that. Its latency is 230 ms, not 30.
        let sent = due3 + Duration::from_millis(200);
        let landed = sent + Duration::from_millis(30);
        assert!((delivery_ms(due3, sent) - 200.0).abs() < 1e-9, "lateness");
        assert!((delivery_ms(due3, landed) - 230.0).abs() < 1e-9);
        // The stall does not move later due times: request 4 is still due
        // 1/6 s after request 3, so it inherits what is left of the stall.
        let due4 = open_loop_due(start, 4, 6.0);
        assert!(due4 < sent);
        assert!(delivery_ms(due4, landed) > 60.0);
        // A delivery "before" its due time (clock skew between threads)
        // reads as zero, never negative.
        assert_eq!(delivery_ms(due3, start), 0.0);
    }

    #[test]
    fn plan_scales_with_seconds_and_fixes_the_first_lap() {
        let full = Plan::new(45.0, 4.0);
        assert_eq!(full.solve, Duration::from_secs_f64(10.8));
        assert_eq!((full.lockstep_epochs, full.open_epochs), (36, 42));
        // p90 of the open-loop deliveries needs 100 samples: 4 subscribers.
        assert!(full.open_epochs * 4 >= 100);
        assert_eq!(full.snapshots(), 1 + 36 + 42);
        let quick = Plan::new(0.5, 6.0);
        assert_eq!((quick.lockstep_epochs, quick.open_epochs), (6, 6));
        assert!(quick.solve < Duration::from_millis(200));
        assert_eq!(Plan::new(45.0, 4.0), full, "a pure function of its inputs");
        // The first lap is work by count, a function of `--seconds` alone,
        // and never under the floors.
        let lap = |rounds, cold, steady_epochs, query_cycles| FirstLap {
            rounds,
            cold,
            steady_epochs,
            query_cycles,
        };
        assert_eq!(full.first_lap, lap(4, 12, 8, 3));
        assert_eq!(Plan::new(45.0, 6.0).first_lap, full.first_lap);
        assert_eq!(
            quick.first_lap,
            lap(MIN_ROUNDS, MIN_COLD, MIN_STEADY_EPOCHS, MIN_QUERY_CYCLES)
        );
        // It ignores the clock; a later lap runs out its slice of the box.
        let now = Instant::now();
        let (deadline, least) = lap_slice(full.solve, true, 4);
        assert!(deadline <= Instant::now() && least == 4);
        let (deadline, least) = lap_slice(full.solve, false, 4);
        assert!(deadline >= now + full.solve / LAPS as u32 && least == 1);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(mix(7, 0), mix(7, 0));
        assert_ne!(mix(7, 0), mix(8, 0));
        assert_ne!(mix(7, 0), mix(7, 1));
        let a = Views::new(WORKLOADS[0], 7).orbit(0.25, FRAME);
        let b = Views::new(WORKLOADS[0], 7).orbit(0.25, FRAME);
        let c = Views::new(WORKLOADS[0], 8).orbit(0.25, FRAME);
        assert_eq!(a.eye, b.eye);
        assert_ne!(a.eye, c.eye, "another seed looks from somewhere else");
        // ... but not far: at most 2% of a turn.
        assert!((a.eye - c.eye).length() < 0.2 * (a.eye - a.target).length());
    }

    #[test]
    fn ops_count_failures_and_keep_the_first_reasons() {
        let mut ops = Ops::default();
        assert!(ops.check(true, || unreachable!()));
        ops.passed(3);
        for i in 0..40 {
            assert!(!ops.check(false, || format!("reason {i}")));
        }
        assert_eq!(
            (ops.attempted, ops.failed, ops.failures.len()),
            (44, 40, 16)
        );
        let mut total = Ops::default();
        total.merge(ops);
        assert_eq!((total.attempted, total.failed), (44, 40));
    }
}
