//! Observability acceptance: the flight recorder captures the full
//! solve→publish→render→delta→checkpoint lifecycle in causal order,
//! `ServiceMetrics` stays memory-bounded after a million recorded
//! requests, concurrent snapshots neither deadlock nor tear, and a live
//! pool's exporter serves scrapeable text and JSON.

use photon_core::obs::{ObsKind, OBS_KINDS, STAGES};
use photon_core::{Camera, SPEED_TRACE_CAP};
use photon_math::Vec3;
use photon_scenes::{cornell_box, TestScene};
use photon_serve::metrics::ServiceMetrics;
use photon_serve::{
    AnswerStore, BackendChoice, ObsExporter, ObsServer, RenderRequest, RenderService,
    RequestOutcome, ServeConfig, SolveRequest, SolverMetricsSnapshot, SolverPool,
    SolverStatsSource, StreamRequest,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn distant_cornell_camera() -> Camera {
    let v = TestScene::CornellBox.view();
    Camera {
        eye: Vec3::new(v.eye.x, v.eye.y, -15.0),
        target: v.target,
        up: v.up,
        vfov_deg: v.vfov_deg,
        width: 48,
        height: 36,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        render_threads: 2,
        tile_size: 16,
        ..ServeConfig::default()
    }
}

/// The tentpole acceptance: one shared hub sees every tier. A budgeted
/// solve job is driven through submit → slice → publish → quota-park →
/// checkpoint → finish, with a subscriber streaming deltas and a render
/// served off the result; a second job resumes the frozen checkpoint.
/// The recorder must hold the whole story in causal order.
#[test]
fn flight_recorder_captures_the_lifecycle_in_order() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    let service = RenderService::start(Arc::clone(&store), serve_config());
    let camera = distant_cornell_camera();

    // Budget = one batch: the job publishes epoch 1 then parks on quota,
    // which is the deterministic window to freeze a checkpoint.
    pool.set_tenant_budget("obs", 2_000);
    let mut request = SolveRequest::new("cornell-obs", cornell_box());
    request.backend = BackendChoice::Serial;
    request.seed = 33;
    request.batch_size = 2_000;
    request.target_photons = 4_000;
    request.tenant = "obs".into();

    let job = pool.submit(request);
    let stream = service
        .subscribe(StreamRequest {
            scene_id: job.scene_id(),
            camera,
        })
        .expect("subscribe");
    // The solver runs on its own clock: a 2000-photon batch can publish
    // epoch 1 before the subscription is registered, and then the
    // bootstrap delta is already the epoch-1 frame. Wait for epochs, not
    // for a count of deltas.
    let mut streamed_epoch = None;
    let mut recv_until_epoch = |epoch: u64| {
        while streamed_epoch < Some(epoch) {
            let delta = stream
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("no delta reached epoch {epoch}: {e:?}"));
            streamed_epoch = Some(delta.epoch);
        }
    };
    recv_until_epoch(0); // bootstrap

    // Epoch 1 lands, then the quota parks the job.
    job.wait_epoch(1, Duration::from_secs(120))
        .expect("first publish");
    recv_until_epoch(1);
    let deadline = Instant::now() + Duration::from_secs(60);
    while pool.metrics().quota_blocked == 0 {
        assert!(Instant::now() < deadline, "job never quota-parked");
        std::thread::sleep(Duration::from_millis(5));
    }

    let ck = job.checkpoint().expect("parked job freezes a checkpoint");
    assert!(ck.emitted() >= 2_000);

    // Top up → the job finishes; then serve a view off the final answer.
    pool.add_tenant_budget("obs", 2_000);
    let done = job.wait_done(Duration::from_secs(120)).expect("converged");
    assert!(done.emitted >= 4_000);
    recv_until_epoch(2);
    service
        .render_blocking(RenderRequest {
            scene_id: job.scene_id(),
            camera,
        })
        .expect("served");

    // Resume the frozen checkpoint as a second job on the same pool.
    let mut resumed = SolveRequest::resume("cornell-obs-resumed", cornell_box(), ck);
    resumed.backend = BackendChoice::Serial;
    resumed.batch_size = 2_000;
    resumed.target_photons = 4_000;
    let job2 = pool.submit(resumed);
    job2.wait_done(Duration::from_secs(120))
        .expect("resumed job");

    drop(stream); // emits SubscriberDropped

    let hub = store.obs();
    let recorder = hub.recorder();
    let events = recorder.events();
    assert!(recorder.dropped() == 0, "capacity 4096 must hold this run");

    // Sequence numbers and timestamps are monotone.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seq must be strictly monotone");
        assert!(
            pair[0].ts_us <= pair[1].ts_us,
            "time must not run backwards"
        );
    }

    // Every lifecycle edge fired at least once.
    let first = |kind: ObsKind| -> usize {
        events
            .iter()
            .position(|e| e.kind == kind)
            .unwrap_or_else(|| panic!("no {} event recorded", kind.name()))
    };
    let last = |kind: ObsKind| -> usize { events.iter().rposition(|e| e.kind == kind).unwrap() };

    // The causal chain of the first job, in order: submitted before its
    // first slice, stepped before its first publish, published before it
    // finished; the quota park happened between grant and done.
    let submitted = first(ObsKind::JobSubmitted);
    let granted = first(ObsKind::SliceGranted);
    let stepped = first(ObsKind::BatchStepped);
    // Epoch 0 is announced at registration, before any solving — the
    // first *refinement* publish is the one the solve chain produces.
    let published = events
        .iter()
        .position(|e| e.kind == ObsKind::EpochPublished && e.ctx.payload >= 1)
        .expect("a refinement publish was recorded");
    let parked = first(ObsKind::SliceParked);
    let frozen = first(ObsKind::CheckpointFrozen);
    let done = first(ObsKind::JobDone);
    assert!(submitted < granted, "submit precedes the first slice grant");
    assert!(granted < stepped, "grant precedes the first step");
    assert!(stepped < published, "a step precedes the first publish");
    assert!(published < done, "publishes precede completion");
    assert!(granted < parked && parked < done, "quota park is mid-job");
    assert!(parked < frozen, "checkpoint frozen while parked");
    assert!(
        frozen < first(ObsKind::CheckpointRestored),
        "freeze before restore"
    );

    // The serve/stream tiers reacted to the publishes: a delta was pushed
    // after the first publish, a request served after it, and the dropped
    // subscription was recorded.
    assert!(
        last(ObsKind::DeltaPushed) > published,
        "publish pushed a delta"
    );
    assert!(
        last(ObsKind::RequestServed) > published,
        "render served post-publish"
    );
    assert!(first(ObsKind::SubscriberDropped) > first(ObsKind::DeltaPushed));

    // The park reason payload distinguishes quota exhaustion (1).
    assert!(
        events
            .iter()
            .any(|e| e.kind == ObsKind::SliceParked && e.ctx.payload == 1),
        "quota park must carry payload 1"
    );

    // Filtering by the first job's id yields its chain: submitted first,
    // done last, with at least one grant and step between.
    let job_events = recorder.filtered(|e| e.ctx.job == Some(job.job_id().0));
    assert_eq!(job_events.first().unwrap().kind, ObsKind::JobSubmitted);
    assert_eq!(job_events.last().unwrap().kind, ObsKind::JobDone);
    assert!(job_events.iter().any(|e| e.kind == ObsKind::SliceGranted));
    assert!(job_events.iter().any(|e| e.kind == ObsKind::BatchStepped));

    // Tenant attribution survives into the recorder.
    assert!(
        job_events
            .iter()
            .any(|e| e.ctx.tenant.as_deref() == Some("obs")),
        "the job's tenant tag must appear in its events"
    );

    // Stage timings accumulated across the tiers the run exercised.
    let stages = store.obs().stage_snapshot();
    assert!(stages.get(photon_core::Stage::SolveSlice).count() >= 2);
    assert!(stages.get(photon_core::Stage::Render).count() >= 1);
    assert!(stages.get(photon_core::Stage::Diff).count() >= 1);
    assert!(stages.get(photon_core::Stage::CheckpointFreeze).count() >= 1);
    assert!(stages.get(photon_core::Stage::CheckpointRestore).count() >= 1);

    pool.shutdown();
}

/// `subscriber-connected` carries the subscribers now attached to *that
/// scene*, not the service-wide total.
#[test]
fn subscriber_connected_counts_the_scene_not_the_service() {
    let store = Arc::new(AnswerStore::new());
    let service = RenderService::start(Arc::clone(&store), serve_config());
    let camera = distant_cornell_camera();
    let a = store.register("a", cornell_box());
    let b = store.register("b", cornell_box());
    let streams: Vec<_> = [a, b, a]
        .into_iter()
        .map(|scene_id| {
            let stream = service
                .subscribe(StreamRequest { scene_id, camera })
                .expect("subscribe");
            stream
                .recv_timeout(Duration::from_secs(30))
                .expect("bootstrap");
            stream
        })
        .collect();
    // The event follows the bootstrap delta; a request queued behind the
    // subscriptions has been answered only once all three were emitted.
    service
        .render_blocking(RenderRequest {
            scene_id: a,
            camera,
        })
        .expect("served");
    let connected: Vec<_> = store
        .obs()
        .recorder()
        .filtered(|e| e.kind == ObsKind::SubscriberConnected)
        .iter()
        .map(|e| (e.ctx.scene, e.ctx.payload))
        .collect();
    assert_eq!(
        connected,
        [(Some(a.0), 1), (Some(b.0), 1), (Some(a.0), 2)],
        "payload is the scene's own subscriber count"
    );
    drop(streams);
}

/// The memory-bound acceptance: a million recorded requests (and a
/// hundred thousand batch samples) leave every collection at its fixed
/// cap — 65 histogram buckets, ≤ `SPEED_TRACE_CAP` speed samples — while
/// the exact counters still account for every single event.
#[test]
fn metrics_stay_bounded_after_a_million_requests() {
    let metrics = ServiceMetrics::new();
    let total: u64 = 1_000_000;
    for i in 0..total {
        // Latencies sweep 0..~16ms so many buckets populate.
        let outcome = match i % 3 {
            0 => RequestOutcome::Rendered,
            1 => RequestOutcome::CacheHit,
            _ => RequestOutcome::Coalesced,
        };
        metrics.record_request(Duration::from_micros(i % 16_384), outcome);
    }
    for i in 0..100_000u64 {
        metrics.record_batch(1 + i % 3, 0.0005);
    }

    let snap = metrics.snapshot();
    assert_eq!(snap.completed, total, "every request counted");
    assert_eq!(snap.latency.count, total);
    assert_eq!(
        snap.rendered + snap.cache_hits + snap.coalesced,
        total,
        "outcome counters account for every request"
    );

    // The histogram is a fixed array — by construction it cannot grow —
    // and its statistics still describe the stream.
    assert_eq!(
        snap.latency_hist.buckets.len(),
        photon_core::obs::HISTOGRAM_BUCKETS
    );
    assert!(snap.latency.p50_ms > 0.0 && snap.latency.p50_ms <= snap.latency.p99_ms);
    assert!(snap.latency.p99_ms <= snap.latency.max_ms);
    assert!((snap.latency.max_ms - 16.383).abs() < 1e-9, "max is exact");

    // The speed trace coalesced instead of growing: bounded length, exact
    // totals.
    assert!(
        snap.speed.samples().len() <= SPEED_TRACE_CAP,
        "speed trace exceeded its cap: {}",
        snap.speed.samples().len()
    );
    let expected: u64 = (0..100_000u64).map(|i| 1 + i % 3).sum();
    assert_eq!(snap.speed.total_photons(), expected);
}

/// A stats source that re-enters the metrics sink from inside
/// `solver_snapshot` — the exact shape that deadlocked when `snapshot`
/// held the service lock across the solver call.
struct ReentrantSource {
    metrics: std::sync::Mutex<Option<Arc<ServiceMetrics>>>,
    calls: AtomicU64,
}

impl SolverStatsSource for ReentrantSource {
    fn solver_snapshot(&self) -> SolverMetricsSnapshot {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(metrics) = self.metrics.lock().unwrap().as_ref() {
            // Both of these take the service lock `snapshot` used to hold.
            metrics.record_request(Duration::from_micros(7), RequestOutcome::CacheHit);
            metrics.record_cache(1, 0);
        }
        SolverMetricsSnapshot::default()
    }
}

/// Regression: `snapshot` must not hold its lock while consulting the
/// solver source, and concurrent `record_*` traffic must never tear the
/// stream tier — every snapshot sees delta/tile/byte counters in exact
/// lockstep.
#[test]
fn concurrent_snapshots_never_deadlock_or_tear() {
    let metrics = Arc::new(ServiceMetrics::new());
    let source = Arc::new(ReentrantSource {
        metrics: std::sync::Mutex::new(Some(Arc::clone(&metrics))),
        calls: AtomicU64::new(0),
    });
    metrics.attach_solver(Arc::clone(&source) as Arc<dyn SolverStatsSource>);

    // Writers hammer the lock in lockstep units: every delta carries
    // exactly 1 tile, 100 tile-bytes, 200 full-frame-bytes, so any torn
    // read breaks an exact ratio.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if w == 0 {
                        metrics.record_delta(1, 100, 200);
                        metrics.record_subscribers(1);
                    } else {
                        metrics.record_request(Duration::from_micros(42), RequestOutcome::Rendered);
                        metrics.record_batch(1, 0.0001);
                    }
                }
            })
        })
        .collect();

    // Snapshots run on a watchdog thread: if the old double-lock deadlock
    // regresses, the channel times out instead of hanging the test binary.
    let (tx, rx) = mpsc::channel();
    let snapper = {
        let metrics = Arc::clone(&metrics);
        std::thread::spawn(move || {
            for _ in 0..500 {
                let snap = metrics.snapshot();
                assert_eq!(
                    snap.stream.tile_bytes,
                    snap.stream.deltas * 100,
                    "stream tier tore: tile_bytes out of lockstep"
                );
                assert_eq!(
                    snap.stream.full_frame_bytes,
                    snap.stream.deltas * 200,
                    "stream tier tore: full_frame_bytes out of lockstep"
                );
                assert_eq!(snap.stream.tiles, snap.stream.deltas);
            }
            tx.send(()).unwrap();
        })
    };
    rx.recv_timeout(Duration::from_secs(60))
        .expect("snapshot deadlocked against concurrent record_* traffic");
    snapper.join().unwrap();
    stop.store(true, Ordering::Release);
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(source.calls.load(Ordering::Relaxed), 500);

    // The reentrant writes landed — proof the lock was free during the
    // solver call.
    let snap = metrics.snapshot();
    assert!(snap.cache_hits >= 500);
    *source.metrics.lock().unwrap() = None; // break the Arc cycle
}

/// The exporter acceptance: a live pool + service, scraped over TCP,
/// serves a text exposition with nonzero solve, render, and stream
/// series, and a versioned JSON dump carrying the flight-recorder tail.
#[test]
fn live_pool_exporter_serves_text_and_json() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    let service = RenderService::start(Arc::clone(&store), serve_config());
    service.attach_solver(pool.stats_source());
    let camera = distant_cornell_camera();

    // The job waits on an empty budget until the bootstrap delta is in:
    // left to its own clock, a 2000-photon batch can publish epoch 1
    // before the subscription registers, and then the bootstrap is the
    // only delta there will ever be.
    pool.set_tenant_budget("export", 0);
    let mut request = SolveRequest::new("cornell-export", cornell_box());
    request.backend = BackendChoice::Serial;
    request.seed = 91;
    request.batch_size = 2_000;
    request.target_photons = 2_000;
    request.tenant = "export".into();
    let job = pool.submit(request);
    let stream = service
        .subscribe(StreamRequest {
            scene_id: job.scene_id(),
            camera,
        })
        .expect("subscribe");
    stream
        .recv_timeout(Duration::from_secs(60))
        .expect("bootstrap delta");
    pool.add_tenant_budget("export", 2_000);
    job.wait_done(Duration::from_secs(120)).expect("solved");
    stream
        .recv_timeout(Duration::from_secs(60))
        .expect("epoch-1 delta");
    service
        .render_blocking(RenderRequest {
            scene_id: job.scene_id(),
            camera,
        })
        .expect("served");

    let server = ObsServer::serve(service.exporter()).expect("bind");
    let addr = server.local_addr();
    let fetch = |path: &str| -> String {
        use std::io::{Read, Write};
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        write!(conn, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).expect("read");
        out
    };

    let text = fetch("/metrics");
    assert!(text.starts_with("HTTP/1.1 200 OK"));
    let body = text.split("\r\n\r\n").nth(1).expect("body");
    let series_value = |name_and_labels: &str| -> f64 {
        body.lines()
            .find(|l| l.starts_with(name_and_labels))
            .unwrap_or_else(|| panic!("series {name_and_labels} missing"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    // Solve tier: the finished job and its photons are visible.
    assert!(series_value("photon_solver_done_total") >= 1.0);
    assert!(series_value("photon_solve_photons_total") >= 2_000.0);
    // Render tier: the served request (whatever its outcome — the
    // subscriber's delta render may have warmed the cache) and its
    // latency histogram.
    let served = series_value("photon_requests_total{outcome=\"rendered\"}")
        + series_value("photon_requests_total{outcome=\"cache_hit\"}")
        + series_value("photon_requests_total{outcome=\"coalesced\"}");
    assert!(served >= 1.0);
    assert!(series_value("photon_request_latency_us_count") >= 1.0);
    // Stream tier: deltas were pushed to a live subscriber.
    assert!(series_value("photon_stream_deltas_total") >= 2.0);
    assert!(series_value("photon_events_recorded_total") > 0.0);
    // Every sample is one of ours.
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        assert!(line.starts_with("photon_"), "unexpected series: {line:?}");
    }

    let json = fetch("/metrics.json");
    let body = json.split("\r\n\r\n").nth(1).expect("json body");
    assert!(body.starts_with("{\"version\":1,"));
    for kind in [
        "job-submitted",
        "epoch-published",
        "job-done",
        "delta-pushed",
    ] {
        assert!(
            body.contains(&format!("\"kind\":\"{kind}\"")),
            "flight-recorder tail missing {kind}"
        );
    }
    assert!(body.contains("\"stages\":{"));

    // Unknown routes 404 instead of confusing a scraper.
    assert!(fetch("/other").starts_with("HTTP/1.1 404"));

    drop(server);
    pool.shutdown();
}

/// Docs that cannot drift: README *Observability* names every event kind,
/// every stage and every Prometheus family the exporter writes. An
/// exporter over nothing still writes each family's `TYPE` line.
#[test]
fn readme_names_every_kind_stage_and_family() {
    let readme = include_str!("../../../README.md");
    let text = ObsExporter::new(Arc::default(), Arc::default()).prometheus_text();
    let families: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
        .collect();
    // Families with no sample to show (no tenant, no timed stage) are
    // listed all the same, so this walks the whole table.
    assert!(families.contains(&"photon_tenant_budget_remaining"));
    assert!(families.contains(&"photon_stage_duration_us"));
    let kinds = OBS_KINDS.iter().map(|k| k.name());
    let stages = STAGES.iter().map(|s| s.name());
    for name in kinds.chain(stages).chain(families) {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README lacks `{name}`"
        );
    }
}

/// Docs that cannot name a command that is gone: every `--bin`,
/// `--example` and `--bench` target the README and the verify skill
/// mention has its source file in some package of the tree — and module
/// docs that cannot name a document that is gone.
#[test]
fn docs_name_only_targets_that_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut packages = vec![root.clone()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        packages.push(entry.expect("crates/ entry").path());
    }
    let docs = [
        ("README.md", include_str!("../../../README.md")),
        (
            "the verify skill",
            include_str!("../../../.claude/skills/verify/SKILL.md"),
        ),
    ];
    for (doc, text) in docs {
        let mut named = 0;
        let mut words = text.split_whitespace();
        while let Some(word) = words.next() {
            let dir = match word.trim_start_matches('`') {
                "--bin" => "src/bin",
                "--example" => "examples",
                "--bench" => "benches",
                _ => continue,
            };
            let name: String = words
                .next()
                .unwrap_or_default()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-'))
                .collect();
            let file = format!("{dir}/{name}.rs");
            assert!(
                packages.iter().any(|p| p.join(&file).is_file()),
                "{doc} names `{word} {name}`, and no package has {file}"
            );
            named += 1;
        }
        assert!(named > 0, "{doc}: the scan found no target to check");
    }
    // Nor a document that is gone: a `*.md` a module doc under `crates/`
    // names is a file at the root or beside one of the source's ancestors.
    let root = root.canonicalize().expect("the repo root");
    let mut named = 0;
    let mut dirs = vec![root.join("crates")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("a directory under crates/") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let source = std::fs::read_to_string(&path).expect("a source file");
                let docs = source.lines().filter(|line| line.starts_with("//!"));
                let is_path = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
                for word in docs.flat_map(|line| line.split(|c| !is_path(c))) {
                    let name = word.trim_end_matches('.');
                    if name.ends_with(".md") {
                        let mut inside = path.ancestors().take_while(|dir| dir.starts_with(&root));
                        let found = inside.any(|dir| dir.join(name).is_file());
                        assert!(found, "{} names {name}, which is not there", path.display());
                        named += 1;
                    }
                }
            }
        }
    }
    assert!(named > 0, "the scan found no module doc naming a document");
}
