//! Streaming acceptance + dispatcher-robustness regressions.
//!
//! The tentpole bar: a subscriber to a progressively solved scene receives
//! ≥ 2 [`FrameDelta`]s without polling, reassembles them into images
//! bit-identical to full renders of the same epochs, and ships strictly
//! fewer tile-bytes than a frame-per-epoch protocol would. The satellite
//! bars: a degenerate job errors without killing the shared dispatcher (a
//! *panicking* one is tested inside `service.rs`: no request the public
//! doors let in panics a render), consumed tickets fail fast, and the
//! dispatcher's per-scene epoch map stays bounded across many scenes.

use photon_core::{Camera, SimConfig, Simulator, Stage};
use photon_math::Vec3;
use photon_scenes::{cornell_box, TestScene};
use photon_serve::{
    render_parallel, AnswerStore, BackendChoice, RenderRequest, RenderService, ServeConfig,
    ServeError, SolveRequest, SolverPool, StreamRequest,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The Cornell view pulled back so the box floats against black background
/// — those tiles never change across epochs, which is what makes tile
/// deltas strictly cheaper than full frames.
fn distant_cornell_camera() -> Camera {
    let v = TestScene::CornellBox.view();
    Camera {
        eye: Vec3::new(v.eye.x, v.eye.y, -15.0),
        target: v.target,
        up: v.up,
        vfov_deg: v.vfov_deg,
        width: 64,
        height: 48,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        render_threads: 2,
        tile_size: 16,
        ..ServeConfig::default()
    }
}

/// Deterministic tentpole acceptance: manual publishes drive the epochs,
/// so the exact delta sequence is fixed — bootstrap at epoch 0, one delta
/// per publish — and every reassembled frame must equal a from-scratch
/// `render_parallel` of that epoch, bit for bit.
#[test]
fn deltas_reassemble_bit_identical_to_full_renders() {
    let store = Arc::new(AnswerStore::new());
    let config = serve_config();
    let service = RenderService::start(Arc::clone(&store), config);
    let camera = distant_cornell_camera();

    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 604,
            ..Default::default()
        },
    );
    let id = store.register("cornell-deltas", sim.scene().clone());
    let stream = service
        .subscribe(StreamRequest {
            scene_id: id,
            camera,
        })
        .expect("subscribe");

    // Bootstrap: epoch 0 renders black, and black-vs-black diffs empty.
    let d0 = stream
        .recv_timeout(Duration::from_secs(30))
        .expect("bootstrap delta");
    assert_eq!(d0.epoch, 0);
    assert!(d0.is_empty(), "black scene must ship zero tiles");
    let mut canvas = d0.canvas();
    d0.apply(&mut canvas);

    // Two refining publishes → two deltas, each reassembling exactly.
    let mut received = vec![d0];
    for round in 1..=2u64 {
        sim.run_photons(3_000);
        assert_eq!(store.publish(id, sim.answer_snapshot()), round);
        let delta = stream
            .recv_timeout(Duration::from_secs(60))
            .expect("publish pushes a delta");
        assert_eq!(delta.epoch, round);
        assert!(!delta.is_empty(), "a refinement must change pixels");
        delta.apply(&mut canvas);

        let entry = store.get(id).expect("stored");
        assert_eq!(entry.epoch, round);
        let reference = render_parallel(
            &entry.scene,
            &entry.answer,
            &camera,
            entry.exposure,
            config.render_threads,
            config.tile_size,
        );
        assert_eq!(
            canvas.pixels(),
            reference.pixels(),
            "epoch {round}: reassembled frame diverged from a full render"
        );
        received.push(delta);
    }
    assert!(received.len() >= 2, "acceptance: at least two deltas");

    // Three epochs of one camera: its rays were cast once, for the black
    // bootstrap; both refinements re-shaded from the item buffer — and
    // reassembled to the un-memoised reference above all the same.
    let stages = store.obs().stage_snapshot();
    assert_eq!(stages.get(Stage::Render).count(), 1);
    assert_eq!(stages.get(Stage::Reshade).count(), 2);

    // Strictly fewer bytes than a frame-per-epoch protocol: background
    // tiles never ship, and unchanged interior tiles are skipped.
    let tile_bytes: usize = received.iter().map(|d| d.tile_bytes()).sum();
    let full_bytes: usize = received.iter().map(|d| d.full_frame_bytes()).sum();
    assert!(
        tile_bytes < full_bytes,
        "deltas ({tile_bytes} B) must undercut full frames ({full_bytes} B)"
    );
    for delta in &received[1..] {
        assert!(
            delta.tile_bytes() < delta.full_frame_bytes(),
            "every refinement delta must skip the background tiles"
        );
    }

    let m = service.metrics();
    assert_eq!(m.stream.subscribers, 1);
    assert_eq!(m.stream.deltas, 3);
    assert!(m.stream.bytes_saved() > 0);

    // Dropping the handle unsubscribes: the next publish finds the dead
    // channel and removes the subscriber.
    drop(stream);
    sim.run_photons(1_000);
    store.publish(id, sim.answer_snapshot());
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if service.metrics().stream.subscribers == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dropped handle never unsubscribed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The end-to-end acceptance: a pool-driven progressive solve pushes
/// deltas to a subscriber with no polling anywhere — epoch advances are
/// gated deterministically through tenant-budget top-ups.
#[test]
fn progressive_solve_pushes_deltas_without_polling() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    let service = RenderService::start(Arc::clone(&store), serve_config());
    let camera = distant_cornell_camera();

    // Zero budget parks the job at submission, so the subscription is in
    // place before the first photon — no publish can be missed.
    pool.set_tenant_budget("stream", 0);
    let mut request = SolveRequest::new("cornell-push", cornell_box());
    request.backend = BackendChoice::Serial;
    request.seed = 71;
    request.batch_size = 2_000;
    request.target_photons = 4_000;
    request.tenant = "stream".into();
    let job = pool.submit(request);
    let stream = service
        .subscribe(StreamRequest {
            scene_id: job.scene_id(),
            camera,
        })
        .expect("subscribe");
    let d0 = stream
        .recv_timeout(Duration::from_secs(30))
        .expect("bootstrap");
    assert_eq!(d0.epoch, 0);
    let mut canvas = d0.canvas();
    d0.apply(&mut canvas);
    // A second subscriber on the same exact camera: every epoch it is
    // pushed costs a cache hit, not a render. Its bootstrap is awaited
    // too, so it is in place before the first photon as well.
    let twin = service
        .subscribe(StreamRequest {
            scene_id: job.scene_id(),
            camera,
        })
        .expect("subscribe twin");
    let t0 = twin.recv_timeout(Duration::from_secs(30)).expect("twin");
    assert_eq!(t0.epoch, 0);

    // Each top-up funds exactly one batch → one publish → one delta.
    let mut deltas = 1u64;
    for expected_epoch in 1..=2u64 {
        pool.add_tenant_budget("stream", 2_000);
        let delta = stream
            .recv_timeout(Duration::from_secs(120))
            .expect("delta pushed, not polled");
        assert_eq!(delta.epoch, expected_epoch);
        delta.apply(&mut canvas);
        deltas += 1;
    }
    assert!(deltas >= 2, "acceptance: ≥ 2 deltas");
    job.wait_done(Duration::from_secs(120)).expect("converged");

    // The reassembled viewport equals what an interactive client is served
    // for the same epoch — the service's own render of epoch 2.
    let view = service
        .render_blocking(RenderRequest {
            scene_id: job.scene_id(),
            camera,
        })
        .expect("served");
    assert_eq!(view.epoch, 2);
    assert_eq!(
        canvas.pixels(),
        view.image.pixels(),
        "streamed viewport diverged from the served frame"
    );
    assert!(canvas.mean_luminance() > 0.0, "the solve lit the scene");

    // Shared viewpoints coalesce through the cache: three epochs to two
    // subscribers are six deltas and three renders. `rendered` counts only
    // interactive requests, so the stage histograms count the renders.
    for epoch in 1..=2u64 {
        let delta = twin.recv_timeout(Duration::from_secs(30)).expect("twin");
        assert_eq!(delta.epoch, epoch);
    }
    let m = service.metrics();
    let stages = store.obs().stage_snapshot();
    let renders = stages.get(Stage::Render).count() + stages.get(Stage::Reshade).count();
    assert_eq!((renders, m.stream.deltas), (3, 6), "{m:?}");
    assert!(m.rendered < m.stream.deltas + m.completed, "{m:?}");
}

/// Regression (one bad job kills the service): a zero-area camera is
/// rejected with `InvalidRequest` before rendering, and the dispatcher
/// keeps serving afterwards.
#[test]
fn degenerate_camera_is_rejected_not_fatal() {
    let store = Arc::new(AnswerStore::new());
    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 8,
            ..Default::default()
        },
    );
    sim.run_photons(2_000);
    let id = store.insert("cornell", sim.scene().clone(), sim.answer_snapshot());
    let service = RenderService::start(Arc::clone(&store), serve_config());

    let mut flat = distant_cornell_camera();
    flat.width = 0;
    let err = service
        .render_blocking(RenderRequest {
            scene_id: id,
            camera: flat,
        })
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::InvalidRequest("camera has zero pixel area")
    );

    let mut thin = distant_cornell_camera();
    thin.height = 0;
    assert!(matches!(
        service.subscribe(StreamRequest {
            scene_id: id,
            camera: thin
        }),
        Err(ServeError::InvalidRequest(_))
    ));

    // The dispatcher never saw the poison; real work still flows.
    let ok = service
        .render_blocking(RenderRequest {
            scene_id: id,
            camera: distant_cornell_camera(),
        })
        .expect("valid request after the rejected one");
    assert!(ok.image.mean_luminance() > 0.0);
}

/// Regression (one bad job kills the service): `tile_size: 0` used to trip
/// `tiles()`'s assert inside the dispatcher — the first request killed the
/// thread and every later ticket resolved `ServiceStopped`. Degenerate
/// configs are now clamped at start.
#[test]
fn tile_size_zero_config_still_serves() {
    let store = Arc::new(AnswerStore::new());
    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 9,
            ..Default::default()
        },
    );
    sim.run_photons(2_000);
    let id = store.insert("cornell", sim.scene().clone(), sim.answer_snapshot());
    let service = RenderService::start(
        Arc::clone(&store),
        ServeConfig {
            tile_size: 0,
            render_threads: 0,
            cache_capacity: 0,
            quant_grid: f64::NAN,
            ..ServeConfig::default()
        },
    );
    let camera = distant_cornell_camera();
    let a = service
        .render_blocking(RenderRequest {
            scene_id: id,
            camera,
        })
        .expect("degenerate config clamped, request served");
    // Tile decomposition never changes pixels: the clamped config renders
    // the same image as the defaults.
    let reference = render_parallel(
        &sim.scene().clone(),
        &sim.answer_snapshot(),
        &camera,
        store.get(id).unwrap().exposure,
        2,
        32,
    );
    assert_eq!(a.image.pixels(), reference.pixels());
    // And a second request proves the dispatcher survived the first.
    let b = service
        .render_blocking(RenderRequest {
            scene_id: id,
            camera,
        })
        .expect("still serving");
    assert!(b.from_cache());
}

/// Regression (consumed tickets mislead): after a response is collected,
/// waiting again returns `TicketConsumed` immediately instead of blocking
/// out the whole timeout and claiming `TimedOut`.
#[test]
fn consumed_ticket_rewait_is_immediate() {
    let store = Arc::new(AnswerStore::new());
    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 11,
            ..Default::default()
        },
    );
    sim.run_photons(2_000);
    let id = store.insert("cornell", sim.scene().clone(), sim.answer_snapshot());
    let service = RenderService::start(Arc::clone(&store), serve_config());
    let ticket = service.submit(RenderRequest {
        scene_id: id,
        camera: distant_cornell_camera(),
    });
    ticket
        .wait_timeout(Duration::from_secs(60))
        .expect("served");
    let t0 = Instant::now();
    let err = ticket.wait_timeout(Duration::from_secs(10)).unwrap_err();
    assert_eq!(err, ServeError::TicketConsumed);
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "consumed ticket must fail fast, not burn the timeout"
    );
}

/// A dropped handle on a scene that never publishes again must still be
/// swept (freeing its retained frame) as soon as the dispatcher does any
/// work at all — not only when that scene's epoch advances.
#[test]
fn dropped_handle_on_quiet_scene_is_swept() {
    let store = Arc::new(AnswerStore::new());
    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 13,
            ..Default::default()
        },
    );
    sim.run_photons(2_000);
    let quiet = store.insert("finished", sim.scene().clone(), sim.answer_snapshot());
    let busy = store.insert("busy", sim.scene().clone(), sim.answer_snapshot());
    let service = RenderService::start(Arc::clone(&store), serve_config());
    let camera = distant_cornell_camera();

    let stream = service
        .subscribe(StreamRequest {
            scene_id: quiet,
            camera,
        })
        .expect("subscribe");
    stream
        .recv_timeout(Duration::from_secs(30))
        .expect("bootstrap");
    drop(stream);

    // Unrelated traffic — no publish ever touches `quiet` again.
    service
        .render_blocking(RenderRequest {
            scene_id: busy,
            camera,
        })
        .expect("served");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if service.metrics().stream.subscribers == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "abandoned subscription to a quiet scene was never swept"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Regression (idle service never sweeps): a dropped handle used to be
/// swept only on the dispatcher's *next activity* — on a fully idle
/// service (no publishes, no requests, nothing) the dispatcher blocked in
/// `recv()` forever and the abandoned subscription pinned its retained
/// frame for the service's life. The housekeeping tick now bounds the
/// wait to a fraction of a second.
#[test]
fn dropped_handle_on_idle_service_is_swept_by_housekeeping() {
    let store = Arc::new(AnswerStore::new());
    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 14,
            ..Default::default()
        },
    );
    sim.run_photons(2_000);
    let id = store.insert("idle", sim.scene().clone(), sim.answer_snapshot());
    let service = RenderService::start(Arc::clone(&store), serve_config());
    let stream = service
        .subscribe(StreamRequest {
            scene_id: id,
            camera: distant_cornell_camera(),
        })
        .expect("subscribe");
    stream
        .recv_timeout(Duration::from_secs(30))
        .expect("bootstrap");
    // The gauge lands when the dispatcher finishes the iteration that
    // registered the subscription — poll briefly.
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.metrics().stream.subscribers != 1 {
        assert!(Instant::now() < deadline, "subscription never registered");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stream);

    // No publish, no request, no traffic of any kind from here on.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if service.metrics().stream.subscribers == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "idle service never swept the dropped handle"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Regression (unbounded subscriber queue): a consumer that stops
/// receiving used to accumulate one queued delta per publish, unbounded.
/// Now at most `stream_window` deltas queue as rendered; everything
/// beyond folds into a single squashed delta behind them (counted by
/// `deltas_squashed`, entered via one `lag_events`), and draining later
/// — one call, no dispatcher wake-up in between — still reassembles the
/// final epoch bit-identically.
#[test]
fn stalled_consumer_is_coalesced_and_reassembles_exactly() {
    let store = Arc::new(AnswerStore::new());
    let config = ServeConfig {
        stream_window: 2,
        ..serve_config()
    };
    let service = RenderService::start(Arc::clone(&store), config);
    let camera = distant_cornell_camera();
    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 15,
            ..Default::default()
        },
    );
    let id = store.register("stall", sim.scene().clone());
    let stream = service
        .subscribe(StreamRequest {
            scene_id: id,
            camera,
        })
        .expect("subscribe");
    let d0 = stream
        .recv_timeout(Duration::from_secs(30))
        .expect("bootstrap");
    let mut canvas = d0.canvas();
    d0.apply(&mut canvas);

    // Five refining publishes, never receiving: the first two fill the
    // window, the remaining three fold into one squashed delta. Each
    // publish is gated on the dispatcher's accounting so the sequence is
    // deterministic.
    let rounds = 5u64;
    for round in 1..=rounds {
        sim.run_photons(1_000);
        assert_eq!(store.publish(id, sim.answer_snapshot()), round);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let m = service.metrics().stream;
            if m.deltas + m.deltas_squashed == 1 + round {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "publish {round} never accounted for"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let m = service.metrics().stream;
    assert_eq!(
        (m.deltas, m.deltas_squashed, m.lag_events),
        (3, 3, 1),
        "bootstrap + window of 2 delivered; 3 folded behind 1 lag transition"
    );

    // Drain the window: epochs 1 and 2 arrive verbatim, and behind them
    // the fold — one delta carrying the final epoch, skipping 3 and 4
    // entirely — is the consumer's to take in the same call.
    let drained = stream.drain();
    assert_eq!(
        drained.iter().map(|d| d.epoch).collect::<Vec<_>>(),
        vec![1, 2, rounds]
    );
    for delta in &drained {
        delta.apply(&mut canvas);
    }
    let m = service.metrics().stream;
    assert_eq!(
        (m.deltas, m.deltas_squashed, m.lag_events),
        (4, 3, 1),
        "the fold counts as one delivered delta, at the take"
    );

    let entry = store.get(id).expect("stored");
    let reference = render_parallel(
        &entry.scene,
        &entry.answer,
        &camera,
        entry.exposure,
        config.render_threads,
        config.tile_size,
    );
    assert_eq!(
        canvas.pixels(),
        reference.pixels(),
        "coalesced stream diverged from a full render of the final epoch"
    );
}

/// Regression (empty republish spam): republishing bit-identical pixels
/// advances the epoch but used to push an empty delta to every
/// subscriber. Empty deltas are suppressed — and the subscriber's cursor
/// still advances, so the next real refinement diffs correctly. (The name
/// keeps a knob that is gone: there is no keepalive to opt into.)
#[test]
fn identical_republish_sends_nothing_unless_keepalive() {
    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 16,
            ..Default::default()
        },
    );
    sim.run_photons(2_000);
    let first = sim.answer_snapshot();
    sim.run_photons(2_000);
    let second = sim.answer_snapshot();
    let scene = sim.scene().clone();
    let camera = distant_cornell_camera();

    let store = Arc::new(AnswerStore::new());
    let id = store.insert("quiet", scene, first.clone());
    let service = RenderService::start(Arc::clone(&store), serve_config());
    let stream = service
        .subscribe(StreamRequest {
            scene_id: id,
            camera,
        })
        .expect("subscribe");
    let d0 = stream
        .recv_timeout(Duration::from_secs(30))
        .expect("bootstrap");
    assert!(!d0.is_empty(), "solved scene bootstraps with pixels");
    let mut canvas = d0.canvas();
    d0.apply(&mut canvas);

    // `insert` seeds epoch 1, so the republish lands at epoch 2.
    assert_eq!(store.publish(id, first.clone()), 2, "identical republish");
    assert!(
        matches!(
            stream.recv_timeout(Duration::from_secs(2)),
            Err(ServeError::TimedOut)
        ),
        "identical pixels must not produce a delta"
    );
    assert_eq!(service.metrics().stream.deltas, 1, "bootstrap only");

    // The suppressed epoch still advanced the cursor: the next real
    // refinement arrives at epoch 3 and reassembles exactly.
    assert_eq!(store.publish(id, second), 3);
    let d2 = stream
        .recv_timeout(Duration::from_secs(60))
        .expect("real refinement still flows");
    assert_eq!(d2.epoch, 3);
    assert!(!d2.is_empty());
    d2.apply(&mut canvas);
    let entry = store.get(id).expect("stored");
    let reference = render_parallel(&entry.scene, &entry.answer, &camera, entry.exposure, 2, 16);
    assert_eq!(canvas.pixels(), reference.pixels());
}

/// Regression (`seen_epoch` leaks): the dispatcher's per-scene epoch map
/// used to grow one entry per scene forever; it is now bounded by the
/// scenes that still hold cached views, observable through metrics.
#[test]
fn epoch_tracking_stays_bounded_across_many_scenes() {
    let store = Arc::new(AnswerStore::new());
    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 12,
            ..Default::default()
        },
    );
    sim.run_photons(1_000);
    let early = sim.answer_snapshot();
    sim.run_photons(1_000);
    let late = sim.answer_snapshot();
    let scene = sim.scene().clone();

    let cache_capacity = 4;
    let service = RenderService::start(
        Arc::clone(&store),
        ServeConfig {
            cache_capacity,
            render_threads: 1,
            ..serve_config()
        },
    );
    let mut camera = distant_cornell_camera();
    camera.width = 24;
    camera.height = 18;

    // Many scenes, each rendered once: every one lands an epoch-tracking
    // entry and a cache key (older keys fall to LRU eviction).
    let ids: Vec<_> = (0..10)
        .map(|i| store.insert(format!("scene-{i}"), scene.clone(), early.clone()))
        .collect();
    for &id in &ids {
        service
            .render_blocking(RenderRequest {
                scene_id: id,
                camera,
            })
            .expect("served");
    }
    // Serve-only bound: even with no publish ever (static scenes), the
    // map must not exceed the cache's contents — entries for scenes whose
    // views were LRU-evicted are dead weight and get dropped.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = service.metrics();
        if m.seen_epoch_entries <= cache_capacity as u64 + 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "epoch map leaked without any publish: {} entries for {} scenes",
            m.seen_epoch_entries,
            ids.len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Touch scene 0 so its view is freshly cached, then publish: the
    // purge path drops the now-stale key and, with it, the tracking
    // entries of every scene whose cached views are all gone.
    service
        .render_blocking(RenderRequest {
            scene_id: ids[0],
            camera,
        })
        .expect("re-served");
    store.publish(ids[0], late.clone());
    service
        .render_blocking(RenderRequest {
            scene_id: ids[0],
            camera,
        })
        .expect("served after publish");
    // The gauge lands when the dispatcher finishes its drain, which can
    // trail the response by a moment — poll briefly.
    let deadline = Instant::now() + Duration::from_secs(30);
    let m = loop {
        let m = service.metrics();
        if m.seen_epoch_entries <= cache_capacity as u64 + 1 {
            break m;
        }
        assert!(
            Instant::now() < deadline,
            "epoch map leaked: {} entries for {} scenes (cache holds {})",
            m.seen_epoch_entries,
            ids.len(),
            m.cache_entries
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(m.cache_purged >= 1, "stale epoch-1 key was purged");
}
