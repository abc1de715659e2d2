//! The per-layer half of the ledger (traced runs only).
//!
//! Each layer's public functions are timed from outside, on inputs captured
//! from the workload's own scene and seed: tally records from
//! `trace_strided`, emission rays from `PhotonGenerator::emit`, camera rays
//! from `Camera::ray`, consecutive frames of the fan-out chain. Counts come
//! from values the public calls already return. Nothing here reaches inside
//! another crate.
//!
//! Probe inputs have a fixed size ([`PROBE_PHOTONS`], [`FRAME`]), so the
//! counts among these metrics repeat exactly for a given seed — the
//! noise-free half of the ledger. Metrics taken from the time-boxed phases
//! (`*.step_ms_*`, `solver.*`, `stream.*`) vary with how much fitted the box.

use crate::alloc::bytes_during;
use crate::host;
use crate::spans::span;
use crate::stats::{median, percentile};
use crate::workload::{
    answer_bytes, quantized_error_over_bound, serve_config, FanoutFacts, PipelineFacts, QueryFacts,
    Report, SolveFacts, Stage, Views, FRAME, SNAPSHOT_BASE, SNAPSHOT_STEP, SOLVE_BATCH,
    STEADY_BATCH,
};
use photon_core::batch::{trace_strided, PartitionScratch, TallyRecord};
use photon_core::reflect::{reflect, Bounce};
use photon_core::trace::{trace_photon, Termination, MAX_BOUNCES};
use photon_core::view::{auto_exposure, diff_tiles, render_tile, tiles};
use photon_core::wire::{entropy_encode, read_frame, write_frame};
use photon_core::{
    photon_stream, Answer, BinForest, Camera, EngineCheckpoint, Image, PhotonGenerator, SimConfig,
    SimStats, Simulator, SolverEngine,
};
use photon_geom::scene::RAY_EPS;
use photon_geom::Scene;
use photon_hist::{BinPoint, LeafCursor, SplitConfig};
use photon_math::{Onb, Ray, Rgb};
use photon_par::{ParConfig, ParEngine};
use photon_rng::{CountingRng, Lcg48, PhotonRng};
use photon_serve::{
    render_parallel, FrameDelta, LruCache, RenderRequest, SolveRequest, ViewKey, WireMode,
};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Photons behind every captured-input probe.
pub const PROBE_PHOTONS: u64 = 40_000;
/// Repeats per timing; the median is reported.
const REPS: usize = 3;

/// What the timed phases observed, handed on for the per-layer rows.
pub struct PhaseFacts {
    /// Solve phase.
    pub solve: SolveFacts,
    /// Pipeline phase.
    pub pipeline: PipelineFacts,
    /// Fan-out phase.
    pub fanout: FanoutFacts,
    /// Query phase.
    pub queries: QueryFacts,
}

/// Median seconds of `REPS` runs of `f`.
fn time_s<T>(mut f: impl FnMut() -> T) -> f64 {
    time_with_s(|| (), |()| f())
}

/// Like [`time_s`], with untimed per-repeat set-up.
fn time_with_s<S, T>(mut fresh: impl FnMut() -> S, mut f: impl FnMut(S) -> T) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let state = fresh();
            let t = Instant::now();
            black_box(f(state));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&runs)
}

/// Runs every probe and appends the per-layer metrics to `report`.
pub fn run(stage: &mut Stage, views: &Views, facts: PhaseFacts, report: &mut Report) {
    let _p = span("phase.probes");
    let photon = photon_layers(stage, views, report);
    engine_layers(stage, &facts.solve, report);
    solver_layer(stage, &facts, report);
    let frames = Frames::render(stage, views);
    serve_layers(stage, views, &facts, &frames, report);
    wire_layers(&frames, &facts.fanout, report);
    photon.shares(report);
    report.layer("host.nproc", host::nproc() as f64, 1);
    report.layer("host.threads_T", host::threads() as f64, 1);
}

/// Per-photon costs, kept to apportion a photon's time between layers.
struct PhotonCosts {
    draw_ns: f64,
    substream_ns: f64,
    draws_per_photon: f64,
    emit_ns: f64,
    draws_per_emit: f64,
    intersect_ns_per_photon: f64,
    tallies_per_photon: f64,
    trace_ns_per_photon: f64,
    partition_ns_per_record: f64,
    apply_ns_per_record: f64,
}

impl PhotonCosts {
    /// Where one photon's time goes in the batched step, as shares of
    /// trace + partition + apply. An apportionment from isolated probes,
    /// not a measurement of the running step: it says which layer bounds
    /// the scene, not to three digits by how much.
    fn shares(&self, report: &mut Report) {
        let rng = self.substream_ns + self.draws_per_photon * self.draw_ns;
        let generate = (self.emit_ns - self.draws_per_emit * self.draw_ns).max(0.0);
        let octree = self.intersect_ns_per_photon;
        let bintree = self.apply_ns_per_record * self.tallies_per_photon;
        let batch = self.partition_ns_per_record * self.tallies_per_photon;
        let total = self.trace_ns_per_photon + bintree + batch;
        let named = rng + generate + octree + bintree + batch;
        report.layer("share.rng", rng / total, 1);
        report.layer("share.generate", generate / total, 1);
        report.layer("share.octree", octree / total, 1);
        report.layer("share.bintree", bintree / total, 1);
        report.layer("share.batch", batch / total, 1);
        report.layer("share.other", ((total - named) / total).max(0.0), 1);
    }
}

/// The rays photons `0..n` of the stream cast: each photon's first segment,
/// and every later one. Mirrors `photon_core::trace::trace_emitted` through
/// the same public calls (`emit`, `intersect`, `reflect`), so the octree is
/// probed with exactly the rays a solve sends it; the caller checks the ray
/// count against the tally count of the real kernel.
fn photon_path_rays(
    scene: &Scene,
    generator: &PhotonGenerator,
    seed: u64,
    n: u64,
) -> (Vec<Ray>, Vec<Ray>) {
    const MIN_ENERGY: f64 = 1e-12;
    let (mut first, mut later) = (Vec::with_capacity(n as usize), Vec::new());
    for j in 0..n {
        let mut rng = photon_stream(seed, j);
        let photon = generator.emit(scene, &mut rng);
        let mut ray = Ray::new(photon.origin, photon.dir).nudged(RAY_EPS);
        first.push(ray);
        let mut energy = photon.energy;
        let mut bounces = 0;
        while let Some(hit) = scene.intersect(&ray, f64::INFINITY) {
            let sp = scene.patch(hit.patch_id);
            let frame = if hit.front {
                sp.frame
            } else {
                Onb {
                    u: sp.frame.u,
                    v: -sp.frame.v,
                    w: -sp.frame.w,
                }
            };
            let Bounce::Reflected {
                dir, energy: out, ..
            } = reflect(&sp.material, &frame, ray.dir, energy, &mut rng)
            else {
                break;
            };
            bounces += 1;
            if out.max_channel() < MIN_ENERGY || bounces >= MAX_BOUNCES {
                break;
            }
            energy = out;
            ray = Ray::new(hit.point, dir).nudged(RAY_EPS);
            later.push(ray);
        }
    }
    (first, later)
}

/// rng, generate, trace, octree, batch, bintree.
fn photon_layers(stage: &Stage, views: &Views, report: &mut Report) -> PhotonCosts {
    let scene = &stage.scene;
    let seed = stage.solver_seed;
    let n = PROBE_PHOTONS;
    let generator = PhotonGenerator::new(scene);

    let _s = span("probe.rng");
    const DRAWS: u64 = 2_000_000;
    let draw_ns = time_s(|| {
        let mut rng = Lcg48::new(seed);
        (0..DRAWS).map(|_| rng.next_f64()).sum::<f64>()
    }) * 1e9
        / DRAWS as f64;
    let substream_ns = time_s(|| {
        (0..n)
            .map(|j| photon_stream(seed, j).state())
            .fold(0, |a, s| a ^ s)
    }) * 1e9
        / n as f64;
    report.layer("rng.draw_ns", draw_ns, REPS);
    report.layer("rng.substream_ns", substream_ns, REPS);
    drop(_s);

    let _s = span("probe.generate");
    let mut counting = CountingRng::new(Lcg48::new(seed));
    for _ in 0..n {
        black_box(generator.emit(scene, &mut counting));
    }
    let draws_per_emit = counting.draws() as f64 / n as f64;
    let emit_ns = time_s(|| {
        let mut rng = Lcg48::new(seed);
        (0..n)
            .map(|_| generator.emit(scene, &mut rng).s)
            .sum::<f64>()
    }) * 1e9
        / n as f64;
    report.layer("generate.emit_ns", emit_ns, REPS);
    report.layer("generate.draws_per_emit", draws_per_emit, 1);
    drop(_s);

    let _s = span("probe.trace");
    let (mut draws, mut tallied, mut absorbed) = (0u64, 0u64, 0u64);
    for j in 0..n {
        let mut rng = CountingRng::new(photon_stream(seed, j));
        let mut sink = |_: u32, _: &BinPoint, _: Rgb| tallied += 1;
        let outcome = trace_photon(scene, &generator, &mut rng, &mut sink);
        absorbed += u64::from(outcome.termination == Termination::Absorbed);
        draws += rng.draws();
    }
    let draws_per_photon = draws as f64 / n as f64;
    let tallies_per_photon = tallied as f64 / n as f64;
    report.layer("rng.draws_per_photon", draws_per_photon, 1);
    report.layer(
        "trace.photon_ns",
        time_s(|| {
            let mut sink = |_: u32, _: &BinPoint, _: Rgb| {};
            (0..n)
                .map(|j| {
                    let mut rng = photon_stream(seed, j);
                    trace_photon(scene, &generator, &mut rng, &mut sink).bounces
                })
                .sum::<u32>()
        }) * 1e9
            / n as f64,
        REPS,
    );
    report.layer("trace.tallies_per_photon", tallies_per_photon, 1);
    report.layer("trace.absorbed_ratio", absorbed as f64 / n as f64, 1);
    drop(_s);

    let _s = span("probe.octree");
    let (emission_rays, bounce_rays) = photon_path_rays(scene, &generator, seed, n);
    let path_rays = (emission_rays.len() + bounce_rays.len()) as u64;
    // The mirror of the transport loop casts a ray per tally, bar photons
    // that end on the energy floor or the bounce cap.
    report.ops.check(
        path_rays <= tallied && tallied - path_rays <= n / 100,
        || format!("captured {path_rays} path rays for {tallied} tallies"),
    );
    let camera = views.orbit(0.0, FRAME);
    let camera_rays: Vec<Ray> = (0..camera.height)
        .flat_map(|y| (0..camera.width).map(move |x| camera.ray(x, y)))
        .collect();
    let cast = |rays: &[Ray]| -> usize {
        rays.iter()
            .filter(|ray| scene.intersect(ray, f64::INFINITY).is_some())
            .count()
    };
    let hits = cast(&emission_rays) + cast(&bounce_rays) + cast(&camera_rays);
    let ns_per_ray = |rays: &[Ray]| time_s(|| cast(rays)) * 1e9 / rays.len().max(1) as f64;
    let emission_ns = ns_per_ray(&emission_rays);
    let bounce_ns = ns_per_ray(&bounce_rays);
    report.layer("octree.intersect_ns.emission", emission_ns, REPS);
    report.layer("octree.intersect_ns.bounce", bounce_ns, REPS);
    report.layer("octree.intersect_ns.camera", ns_per_ray(&camera_rays), REPS);
    report.layer(
        "octree.hit_ratio",
        hits as f64 / (path_rays as usize + camera_rays.len()) as f64,
        1,
    );
    let octree = scene.octree().stats();
    report.layer("octree.nodes", octree.nodes as f64, 1);
    report.layer("octree.item_refs", octree.item_refs as f64, 1);
    let intersect_ns_per_photon =
        emission_ns + bounce_ns * bounce_rays.len() as f64 / emission_rays.len() as f64;
    drop(_s);

    let _s = span("probe.batch");
    let mut records: Vec<TallyRecord> = Vec::new();
    let trace_ns_per_photon = time_s(|| {
        records.clear();
        let mut stats = SimStats::default();
        trace_strided(
            scene,
            &generator,
            seed,
            0,
            n,
            0,
            1,
            &mut records,
            &mut stats,
        );
        stats.emitted
    }) * 1e9
        / n as f64;
    let patches = scene.polygon_count();
    let mut scratch = PartitionScratch::new(patches);
    let partition_ns_per_record = time_s(|| {
        scratch.partition(&[&records], 0, n);
        scratch.runs.len()
    }) * 1e9
        / records.len() as f64;
    let fresh = || BinForest::new(patches, SplitConfig::default());
    let apply_ns_per_record = time_with_s(fresh, |mut forest| {
        for run in &scratch.runs {
            forest.tally_run(run.patch_id, scratch.run_records(run));
        }
        forest.total_tallies()
    }) * 1e9
        / records.len() as f64;
    report.layer("batch.trace_ns_per_photon", trace_ns_per_photon, REPS);
    report.layer(
        "batch.partition_ns_per_record",
        partition_ns_per_record,
        REPS,
    );
    report.layer("batch.apply_ns_per_record", apply_ns_per_record, REPS);
    report.layer(
        "batch.records_per_photon",
        records.len() as f64 / n as f64,
        1,
    );
    drop(_s);

    let _s = span("probe.bintree");
    report.layer(
        "bintree.tally_ns",
        time_with_s(fresh, |mut forest| {
            for r in &records {
                forest.tally(r.patch_id, &r.point, r.energy);
            }
            forest.total_tallies()
        }) * 1e9
            / records.len() as f64,
        REPS,
    );
    report.layer(
        "bintree.tally_cursor_ns",
        time_with_s(fresh, |mut forest| {
            for run in &scratch.runs {
                let tree = forest.tree_mut(run.patch_id);
                let mut cursor = LeafCursor::new();
                for r in scratch.run_records(run) {
                    tree.tally_with(&r.point, r.energy, &mut cursor);
                }
            }
            forest.total_tallies()
        }) * 1e9
            / records.len() as f64,
        REPS,
    );
    let mut forest = fresh();
    for r in &records {
        forest.tally(r.patch_id, &r.point, r.energy);
    }
    report.layer(
        "bintree.lookup_ns",
        time_s(|| {
            records
                .iter()
                .map(|r| forest.lookup(r.patch_id, &r.point).0.n_total)
                .sum::<u64>()
        }) * 1e9
            / records.len() as f64,
        REPS,
    );
    report.layer(
        "bintree.compact_us",
        time_with_s(|| forest.clone(), |mut f| f.compact()) * 1e6,
        REPS,
    );
    let footprint = forest.footprint();
    report.layer("bintree.leaf_bins", footprint.leaf_bins as f64, 1);
    report.layer("bintree.node_bytes", footprint.node_bytes as f64, 1);
    report.layer("bintree.leaf_bytes", footprint.leaf_bytes as f64, 1);
    let depth = forest.iter().map(|(_, t)| t.max_depth()).max().unwrap_or(0);
    report.layer("bintree.max_depth", f64::from(depth), 1);

    PhotonCosts {
        draw_ns,
        substream_ns,
        draws_per_photon,
        emit_ns,
        draws_per_emit,
        intersect_ns_per_photon,
        tallies_per_photon,
        trace_ns_per_photon,
        partition_ns_per_record,
        apply_ns_per_record,
    }
}

/// sim, par, dist, checkpoint.
fn engine_layers(stage: &mut Stage, solve: &SolveFacts, report: &mut Report) {
    let _s = span("probe.engines");
    let names = [
        [
            "sim.step_ms_p50",
            "sim.snapshot_us",
            "sim.alloc_bytes_per_step",
        ],
        [
            "par.step_ms_p50",
            "par.snapshot_us",
            "par.alloc_bytes_per_step",
        ],
        ["dist.step_ms_p50", "dist.snapshot_us", ""],
    ];
    let engines: [&mut dyn SolverEngine; 3] = [&mut stage.serial, &mut stage.par, &mut stage.dist];
    for (b, engine) in engines.into_iter().enumerate() {
        report.layer(
            names[b][0],
            median(&solve.step_ms[b]),
            solve.step_ms[b].len(),
        );
        report.layer(
            names[b][1],
            time_s(|| engine.snapshot().emitted()) * 1e6,
            REPS,
        );
        if !names[b][2].is_empty() {
            let (_, bytes) = bytes_during(|| engine.step(SOLVE_BATCH));
            report.layer(names[b][2], bytes.map_or(f64::NAN, |b| b as f64), 1);
        }
    }
    report.layer(
        "sim.step_ms_max",
        solve.step_ms[0].iter().copied().fold(0.0, f64::max),
        solve.step_ms[0].len(),
    );
    report.layer("par.trace_share", solve.par_shares.0, 1);
    report.layer("par.apply_share", solve.par_shares.1, 1);
    // Ratios of medians from the same interleaved rounds; read them as
    // wall-clock scaling only when `host::scaling_is_wall_clock` says so.
    report.layer("par.speedup", solve.rate[1] / solve.rate[0], 1);
    report.layer("dist.speedup", solve.rate[2] / solve.rate[0], 1);
    let (photons, bytes, virtual_s) = solve.dist_totals;
    report.layer(
        "dist.bytes_forwarded_per_photon",
        bytes as f64 / photons.max(1) as f64,
        1,
    );
    report.layer("dist.virtual_s", virtual_s, 1);

    // One fused worker against the plain serial loop, same photons.
    let seed = stage.solver_seed;
    let rate = |engine: &mut dyn SolverEngine| -> f64 {
        engine.step(SOLVE_BATCH); // grow the scratch buffers first
        let t = Instant::now();
        for _ in 0..3 {
            engine.step(SOLVE_BATCH);
        }
        3.0 * SOLVE_BATCH as f64 / t.elapsed().as_secs_f64()
    };
    let mut fused = ParEngine::new(
        stage.scene.clone(),
        ParConfig {
            seed,
            threads: 1,
            batch_size: SOLVE_BATCH,
            ..ParConfig::default()
        },
    );
    let config = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut plain = Simulator::new(stage.scene.clone(), config);
    report.layer(
        "par.fused_vs_serial",
        rate(&mut fused) / rate(&mut plain),
        1,
    );

    let _s = span("probe.checkpoint");
    let checkpoint = plain.checkpoint();
    let bytes = checkpoint.to_bytes();
    report.layer("checkpoint.bytes", bytes.len() as f64, 1);
    report.layer(
        "checkpoint.encode_us",
        time_s(|| checkpoint.to_bytes().len()) * 1e6,
        REPS,
    );
    report.layer(
        "checkpoint.decode_us",
        time_s(|| EngineCheckpoint::from_bytes(&bytes).is_ok()) * 1e6,
        REPS,
    );
    report.layer(
        "checkpoint.restore_us",
        time_with_s(
            || Simulator::new(stage.scene.clone(), config),
            |mut sim| sim.restore(&checkpoint).is_ok(),
        ) * 1e6,
        REPS,
    );
    let answer = plain.snapshot();
    let encoded = answer_bytes(&answer);
    report.layer("answer.bytes", encoded.len() as f64, 1);
    report.layer(
        "answer.write_us",
        time_s(|| answer_bytes(&answer).len()) * 1e6,
        REPS,
    );
    report.layer(
        "answer.read_us",
        time_s(|| Answer::read_from(&mut &encoded[..]).is_ok()) * 1e6,
        REPS,
    );
}

/// solver: the scheduler's own overheads.
fn solver_layer(stage: &Stage, facts: &PhaseFacts, report: &mut Report) {
    let _s = span("probe.solver");
    let (slices, epochs) = facts.pipeline.steady_slices_epochs;
    report.layer("solver.slices", slices as f64, 1);
    report.layer("solver.epochs", epochs as f64, 1);
    report.layer(
        "solver.slices_while_serving",
        (facts.fanout.solver_slices + facts.queries.solver_slices) as f64,
        1,
    );
    // What a slice costs beyond stepping the engine: the epoch interval of
    // the steady job minus a bare threaded step of the same batch.
    let bare_step_s = STEADY_BATCH as f64 / facts.solve.rate[1];
    report.layer(
        "solver.slice_overhead_us",
        (median(&facts.pipeline.epoch_intervals_s) - bare_step_s) * 1e6,
        facts.pipeline.epoch_intervals_s.len(),
    );
    let mut to_epoch1 = Vec::new();
    for _ in 0..4 {
        let mut request = SolveRequest::new("probe", stage.scene.clone());
        request.seed = stage.solver_seed;
        request.batch_size = 5_000;
        request.target_photons = 5_000;
        let t = Instant::now();
        let job = stage.pool.submit(request);
        let reached = job.wait_epoch(1, crate::subs::WAIT).is_some();
        report
            .ops
            .check(reached, || "probe job never published".into());
        to_epoch1.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.layer(
        "solver.submit_to_epoch1_ms",
        median(&to_epoch1),
        to_epoch1.len(),
    );
    report.layer(
        "solver.cancel_to_terminal_ms",
        median(&facts.pipeline.cancel_ms),
        facts.pipeline.cancel_ms.len(),
    );
}

/// Three consecutive frames of the fan-out chain, rendered once.
struct Frames {
    camera: Camera,
    frames: [Image; 3],
    deltas: [FrameDelta; 3],
    tile_count: usize,
}

impl Frames {
    fn render(stage: &Stage, views: &Views) -> Frames {
        let _s = span("probe.frames");
        let config = serve_config();
        let camera = views.orbit(0.0, FRAME);
        let mut chain = Simulator::new(
            stage.scene.clone(),
            SimConfig {
                seed: stage.solver_seed,
                ..SimConfig::default()
            },
        );
        let mut frame_after = |photons: u64| -> Image {
            chain.step(photons);
            let answer = chain.snapshot();
            let exposure = auto_exposure(&stage.scene, &answer);
            render_parallel(
                &stage.scene,
                &answer,
                &camera,
                exposure,
                config.render_threads,
                config.tile_size,
            )
        };
        let frames = [
            frame_after(SNAPSHOT_BASE),
            frame_after(SNAPSHOT_STEP),
            frame_after(SNAPSHOT_STEP),
        ];
        let black = Image::new(camera.width, camera.height);
        let delta = |epoch: u64, prev: &Image, next: &Image| FrameDelta {
            epoch,
            width: camera.width,
            height: camera.height,
            tiles: diff_tiles(prev, next, config.tile_size),
        };
        let deltas = [
            delta(1, &black, &frames[0]),
            delta(2, &frames[0], &frames[1]),
            delta(3, &frames[1], &frames[2]),
        ];
        Frames {
            camera,
            frames,
            deltas,
            tile_count: tiles(camera.width, camera.height, config.tile_size).len(),
        }
    }
}

/// store, render, view, cache, service, stream.
fn serve_layers(
    stage: &Stage,
    views: &Views,
    facts: &PhaseFacts,
    frames: &Frames,
    report: &mut Report,
) {
    let config = serve_config();
    let Some(id) = facts.queries.scene_id else {
        return;
    };
    let entry = stage.store.get(id).expect("query scene is stored");

    let _s = span("probe.store");
    report.layer(
        "store.publish_us",
        median(&facts.fanout.publish_us),
        facts.fanout.publish_us.len(),
    );
    const GETS: usize = 200_000;
    report.layer(
        "store.get_ns",
        time_s(|| (0..GETS).filter(|_| stage.store.get(id).is_some()).count()) * 1e9 / GETS as f64,
        REPS,
    );
    let mut saved = Vec::new();
    report.layer(
        "store.save_us",
        time_s(|| {
            saved.clear();
            stage.store.save(id, &mut saved).is_ok()
        }) * 1e6,
        REPS,
    );
    report.layer(
        "store.load_us",
        time_with_s(
            || stage.scene.clone(),
            |scene| stage.store.load("probe", scene, &mut &saved[..]).is_ok(),
        ) * 1e6,
        REPS,
    );
    drop(_s);

    let _s = span("probe.render");
    let camera = frames.camera;
    let tile_us: Vec<f64> = tiles(camera.width, camera.height, config.tile_size)
        .into_iter()
        .map(|tile| {
            let t = Instant::now();
            black_box(render_tile(
                &entry.scene,
                &entry.answer,
                &camera,
                tile,
                entry.exposure,
            ));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.layer("render.tile_us_p50", median(&tile_us), tile_us.len());
    let frame_s = |threads: usize| {
        time_s(|| {
            render_parallel(
                &entry.scene,
                &entry.answer,
                &camera,
                entry.exposure,
                threads,
                config.tile_size,
            )
        })
    };
    let (t1, tt) = (frame_s(1), frame_s(config.render_threads));
    report.layer("render.frame_ms.t1", t1 * 1e3, REPS);
    report.layer("render.frame_ms.tT", tt * 1e3, REPS);
    report.layer("render.parallel_speedup", t1 / tt, 1);
    report.layer(
        "render.rays_per_s",
        (camera.width * camera.height) as f64 / tt,
        REPS,
    );
    drop(_s);

    let _s = span("probe.view");
    report.layer(
        "view.diff_us",
        time_s(|| diff_tiles(&frames.frames[0], &frames.frames[1], config.tile_size).len()) * 1e6,
        REPS,
    );
    report.layer(
        "view.tiles_changed_ratio",
        frames.deltas[1].tiles.len() as f64 / frames.tile_count as f64,
        1,
    );
    report.layer(
        "view.squash_us",
        time_s(|| FrameDelta::squash(&frames.deltas[1..]).tiles.len()) * 1e6,
        REPS,
    );
    drop(_s);

    let _s = span("probe.cache");
    let (hits, completed, batches, purged, republished) = facts.queries.counters;
    report.layer("cache.hit_ratio", hits as f64 / completed.max(1) as f64, 1);
    report.layer(
        "cache.purged_per_publish",
        purged as f64 / republished.max(1) as f64,
        1,
    );
    let image = Arc::new(frames.frames[0].clone());
    let keys: Vec<ViewKey> = (0..config.cache_capacity)
        .map(|i| {
            let camera = views.orbit(i as f64 / config.cache_capacity as f64, FRAME);
            ViewKey::quantize(id, 1, &camera, config.quant_grid)
        })
        .collect();
    let mut cache: LruCache<ViewKey, Arc<Image>> = LruCache::new(config.cache_capacity);
    let insert_s = time_s(|| {
        for key in &keys {
            cache.insert(*key, Arc::clone(&image));
        }
        cache.len()
    });
    report.layer("cache.insert_ns", insert_s * 1e9 / keys.len() as f64, REPS);
    report.layer(
        "cache.get_ns",
        time_s(|| keys.iter().filter(|k| cache.get(k).is_some()).count()) * 1e9 / keys.len() as f64,
        REPS,
    );
    drop(_s);

    let _s = span("probe.service");
    let request = |camera: Camera| RenderRequest {
        scene_id: id,
        camera,
    };
    let warm = request(views.orbit(0.0, FRAME));
    let _ = stage.service.render_blocking(warm);
    const HITS: usize = 200;
    let (hit_us, hit_bytes) = bytes_during(|| {
        (0..HITS)
            .map(|_| {
                let t = Instant::now();
                let ok = stage.service.render_blocking(warm).is_ok();
                report.ops.check(ok, || "probe hit failed".into());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect::<Vec<f64>>()
    });
    let query_hits = &facts.queries.hit_ms;
    report.layer(
        "service.query_hit_ms_p50",
        median(query_hits),
        query_hits.len(),
    );
    report.layer("service.hit_roundtrip_us", median(&hit_us), HITS);
    report.layer(
        "service.alloc_bytes_per_hit",
        hit_bytes.map_or(f64::NAN, |b| b as f64 / HITS as f64),
        1,
    );
    // Never-seen viewpoints between the query orbits' slots: a service
    // miss against the same render called directly.
    let overhead_ms: Vec<f64> = (0..8)
        .map(|i| {
            let camera = views.orbit(0.003 + i as f64 / 8.0, FRAME);
            let t = Instant::now();
            let served = stage.service.render_blocking(request(camera));
            let service_s = t.elapsed().as_secs_f64();
            report.ops.check(served.is_ok_and(|r| !r.from_cache()), || {
                "probe miss was not rendered".into()
            });
            let t = Instant::now();
            black_box(render_parallel(
                &entry.scene,
                &entry.answer,
                &camera,
                entry.exposure,
                config.render_threads,
                config.tile_size,
            ));
            (service_s - t.elapsed().as_secs_f64()) * 1e3
        })
        .collect();
    report.layer(
        "service.miss_overhead_ms",
        median(&overhead_ms),
        overhead_ms.len(),
    );
    report.layer(
        "service.batch_size_mean",
        completed as f64 / batches.max(1) as f64,
        1,
    );
    drop(_s);

    let (deltas, squashed, tile_bytes) = facts.fanout.stream_counters;
    report.layer("stream.deltas", deltas as f64, 1);
    report.layer(
        "stream.squashed_ratio",
        squashed as f64 / (deltas + squashed).max(1) as f64,
        1,
    );
    report.layer(
        "stream.tile_bytes_per_epoch",
        tile_bytes as f64 / facts.fanout.epochs.max(1) as f64,
        1,
    );
    let inproc = &facts.fanout.delivery_ms[0];
    report.layer(
        "stream.inproc_delivery_ms_p50",
        median(inproc),
        inproc.len(),
    );
    report.layer(
        "stream.generator_late_ms_p90",
        percentile(&facts.fanout.late_ms, 90.0),
        facts.fanout.late_ms.len(),
    );
}

/// wire, netstream.
fn wire_layers(frames: &Frames, fanout: &FanoutFacts, report: &mut Report) {
    let _s = span("probe.wire");
    // The second delta: a steady-state epoch, not the bootstrap.
    let delta = &frames.deltas[1];
    let full = delta.full_frame_bytes() as f64;
    let mut lossless_body = Vec::new();
    for (mode, names) in [
        (
            WireMode::Lossless,
            [
                "wire.encode_ms.lossless",
                "wire.decode_ms.lossless",
                "wire.bytes_ratio.lossless",
            ],
        ),
        (
            WireMode::Quantized,
            [
                "wire.encode_ms.quantized",
                "wire.decode_ms.quantized",
                "wire.bytes_ratio.quantized",
            ],
        ),
    ] {
        let body = delta.encode(mode);
        report.layer(names[0], time_s(|| delta.encode(mode).len()) * 1e3, REPS);
        report.layer(
            names[1],
            time_s(|| FrameDelta::decode(&body).is_ok()) * 1e3,
            REPS,
        );
        report.layer(names[2], body.len() as f64 / full, 1);
        if mode == WireMode::Lossless {
            lossless_body = body;
        }
    }
    let sample = &lossless_body[..lossless_body.len().min(1 << 20)];
    report.layer(
        "wire.entropy_mb_per_s",
        sample.len() as f64 / 1e6 / time_s(|| entropy_encode(sample).len()),
        REPS,
    );
    // Bootstrap then one epoch through the quantized codec, against the
    // exact frame: worst channel error over the advertised bound.
    let mut canvas = frames.deltas[0].canvas();
    let mut decoded_ok = true;
    for d in &frames.deltas[..2] {
        match FrameDelta::decode(&d.encode(WireMode::Quantized)) {
            Ok((decoded, _)) => decoded.apply(&mut canvas),
            Err(_) => decoded_ok = false,
        }
    }
    let over = quantized_error_over_bound(&canvas, &frames.frames[1]);
    report.ops.check(decoded_ok && over <= 1.0, || {
        format!("quantized codec error {over:.3}× its bound")
    });
    report.layer("wire.quant_err_over_bound", over, 1);
    drop(_s);

    let _s = span("probe.netstream");
    match frame_rtt_us(&lossless_body) {
        Ok(rtts) => report.layer("netstream.frame_rtt_us", median(&rtts), rtts.len()),
        Err(e) => {
            report.ops.check(false, || format!("loopback rtt: {e}"));
        }
    }
    for (lane, name) in [
        (1, "netstream.tcp_delivery_ms_p50.lossless"),
        (2, "netstream.tcp_delivery_ms_p50.quantized"),
    ] {
        let ms = &fanout.delivery_ms[lane];
        report.layer(name, median(ms), ms.len());
    }
    report.layer(
        "netstream.connect_to_bootstrap_ms",
        median(&fanout.bootstrap_ms),
        fanout.bootstrap_ms.len(),
    );
}

/// `write_frame` of `payload` answered by a one-byte frame, on loopback.
fn frame_rtt_us(payload: &[u8]) -> std::io::Result<Vec<f64>> {
    const ROUNDS: usize = 20;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let (mut sock, _) = listener.accept()?;
            sock.set_nodelay(true)?;
            for _ in 0..ROUNDS {
                read_frame(&mut sock)?;
                write_frame(&mut sock, &[0])?;
            }
            Ok(())
        });
        let client = (|| {
            let mut sock = TcpStream::connect(addr)?;
            sock.set_nodelay(true)?;
            sock.set_read_timeout(Some(crate::subs::WAIT))?;
            (0..ROUNDS)
                .map(|_| {
                    let t = Instant::now();
                    write_frame(&mut sock, payload)?;
                    read_frame(&mut sock)?;
                    Ok(t.elapsed().as_secs_f64() * 1e6)
                })
                .collect::<std::io::Result<Vec<f64>>>()
        })();
        // Closing the client side first unblocks an echo stuck in a read.
        let echoed = echo
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("echo panicked")));
        client.and_then(|rtts| echoed.map(|()| rtts))
    })
}
