//! Off-box transport acceptance: N TCP subscribers over a loopback
//! `StreamServer` each reassemble every epoch bit-identical to a
//! server-side `render_parallel`; a quantized subscriber stays within the
//! advertised error bound; a deliberately stalled consumer is coalesced
//! server-side (squash counter observed, retained state bounded) while a
//! fast consumer on the same scene streams on unaffected.

use photon_core::obs::Stage;
use photon_core::{Camera, Image, SimConfig, Simulator};
use photon_math::Vec3;
use photon_scenes::{cornell_box, TestScene};
use photon_serve::{
    render_parallel, AnswerStore, RenderService, SceneId, ServeConfig, StreamClient, StreamServer,
    WireMode,
};
use std::sync::Arc;
use std::time::Duration;

fn cornell_camera(phase: f64, width: usize, height: usize) -> Camera {
    let v = TestScene::CornellBox.view();
    Camera {
        eye: Vec3::new(v.eye.x + phase.cos(), v.eye.y, -15.0 + phase.sin()),
        target: v.target,
        up: v.up,
        vfov_deg: v.vfov_deg,
        width,
        height,
    }
}

fn reference_frame(
    store: &AnswerStore,
    id: SceneId,
    camera: &Camera,
    config: &ServeConfig,
) -> Image {
    let entry = store.get(id).expect("stored");
    render_parallel(
        &entry.scene,
        &entry.answer,
        camera,
        entry.exposure,
        config.render_threads,
        config.tile_size,
    )
}

/// The tentpole acceptance: three TCP subscribers (two sharing a
/// viewpoint, one apart) each receive the bootstrap plus one delta per
/// publish, and applying them reassembles every epoch bit-for-bit.
#[test]
fn tcp_subscribers_reassemble_every_epoch_bit_identical() {
    let store = Arc::new(AnswerStore::new());
    let config = ServeConfig {
        render_threads: 2,
        tile_size: 16,
        ..ServeConfig::default()
    };
    let service = Arc::new(RenderService::start(Arc::clone(&store), config));
    let server = StreamServer::serve(Arc::clone(&service)).expect("bind loopback");

    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 31,
            ..Default::default()
        },
    );
    sim.run_photons(2_000);
    let id = store.insert("cornell-tcp", sim.scene().clone(), sim.answer_snapshot());

    let cameras = [
        cornell_camera(0.0, 48, 36),
        cornell_camera(0.0, 48, 36),
        cornell_camera(1.3, 48, 36),
    ];
    let mut clients: Vec<StreamClient> = cameras
        .iter()
        .map(|&camera| {
            StreamClient::connect(server.local_addr(), id, camera, WireMode::Lossless)
                .expect("connect")
        })
        .collect();
    for client in &clients {
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
    }

    // Bootstrap: epoch 1 (insert seeds epoch 1), non-empty for a solved
    // scene, already bit-identical to a full render.
    let mut canvases: Vec<Image> = Vec::new();
    for (client, camera) in clients.iter_mut().zip(cameras.iter()) {
        let d = client.recv_delta().expect("bootstrap");
        assert_eq!(d.epoch, 1);
        assert!(!d.is_empty());
        let mut canvas = d.canvas();
        d.apply(&mut canvas);
        let reference = reference_frame(&store, id, camera, &config);
        assert_eq!(canvas.pixels(), reference.pixels(), "bootstrap diverged");
        canvases.push(canvas);
    }

    // Two refining publishes; every client reassembles each epoch exactly.
    for round in 2..=3u64 {
        sim.run_photons(2_000);
        assert_eq!(store.publish(id, sim.answer_snapshot()), round);
        for ((client, canvas), camera) in clients
            .iter_mut()
            .zip(canvases.iter_mut())
            .zip(cameras.iter())
        {
            let delta = client.recv_delta().expect("publish pushes a delta");
            assert_eq!(delta.epoch, round);
            delta.apply(canvas);
            let reference = reference_frame(&store, id, camera, &config);
            assert_eq!(
                canvas.pixels(),
                reference.pixels(),
                "epoch {round}: TCP reassembly diverged from a full render"
            );
        }
    }

    for client in &clients {
        assert!(client.wire_bytes() > 0, "wire accounting never moved");
    }
    let m = service.metrics().stream;
    assert_eq!(m.wire_deltas, 9, "3 clients × (bootstrap + 2 publishes)");
    assert!(m.wire_bytes > 0);
}

/// Quantized mode over the wire: smaller payloads, error never beyond the
/// global-range quantization bound, refreshed correctly across epochs.
#[test]
fn quantized_tcp_subscriber_error_is_bounded() {
    let store = Arc::new(AnswerStore::new());
    let config = ServeConfig {
        render_threads: 2,
        tile_size: 16,
        ..ServeConfig::default()
    };
    let service = Arc::new(RenderService::start(Arc::clone(&store), config));
    let server = StreamServer::serve(Arc::clone(&service)).expect("bind loopback");

    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 32,
            ..Default::default()
        },
    );
    sim.run_photons(2_000);
    let id = store.insert("cornell-lossy", sim.scene().clone(), sim.answer_snapshot());
    let camera = cornell_camera(0.4, 48, 36);
    let mut client = StreamClient::connect(server.local_addr(), id, camera, WireMode::Quantized)
        .expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");

    // A lossless twin on the same viewpoint: the yardstick for "smaller".
    let mut twin = StreamClient::connect(server.local_addr(), id, camera, WireMode::Lossless)
        .expect("connect twin");
    twin.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");

    let d = client.recv_delta().expect("bootstrap");
    let mut canvas = d.canvas();
    d.apply(&mut canvas);
    let mut full_frame_bytes = d.full_frame_bytes() as u64;
    assert_eq!(twin.recv_delta().expect("twin bootstrap").epoch, 1);
    sim.run_photons(2_000);
    store.publish(id, sim.answer_snapshot());
    let d = client.recv_delta().expect("refinement");
    d.apply(&mut canvas);
    full_frame_bytes += d.full_frame_bytes() as u64;

    // The point of the transport: over the same two epochs quantized
    // undercuts lossless, and lossless undercuts shipping whole frames.
    assert_eq!(twin.recv_delta().expect("twin refinement").epoch, 2);
    assert!(
        client.wire_bytes() < twin.wire_bytes() && twin.wire_bytes() < full_frame_bytes,
        "quantized {} < lossless {} < full frames {full_frame_bytes}",
        client.wire_bytes(),
        twin.wire_bytes()
    );

    // Per-tile quantization bounds are at most the global-range bound, so
    // every pixel must sit within it — across epochs, since stale pixels
    // were within bound of reference values that have not changed since.
    let reference = reference_frame(&store, id, &camera, &config);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in reference.pixels() {
        for v in [p.r, p.g, p.b] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let bound = photon_core::wire::quantization_error_bound(lo, hi);
    assert!(bound > 0.0, "a lit scene must span a range");
    let mut worst = 0.0f64;
    for (got, want) in canvas.pixels().iter().zip(reference.pixels()) {
        for (g, w) in [got.r, got.g, got.b]
            .into_iter()
            .zip([want.r, want.g, want.b])
        {
            worst = worst.max((g - w).abs());
        }
    }
    assert!(
        worst <= bound + 1e-12,
        "quantized error {worst} beyond the advertised bound {bound}"
    );
    assert!(worst > 0.0, "quantized mode is actually lossy");

    // Both wire stages timed every delta written. `wire-write` is recorded
    // after the flush a client can already have read past, so join the
    // connection writers before counting.
    drop(server);
    let written = service.metrics().stream.wire_deltas;
    assert_eq!(written, 4, "2 clients × (bootstrap + 1 publish)");
    let stages = store.obs().stage_snapshot();
    assert_eq!(stages.get(Stage::WireEncode).count(), written);
    assert_eq!(stages.get(Stage::WireWrite).count(), written);
}

/// A server refusal (unknown scene) reaches the client as a readable
/// error frame instead of a hang or a silent close.
#[test]
fn unknown_scene_is_refused_over_the_wire() {
    let store = Arc::new(AnswerStore::new());
    let service = Arc::new(RenderService::start(
        Arc::clone(&store),
        ServeConfig::default(),
    ));
    let server = StreamServer::serve(Arc::clone(&service)).expect("bind loopback");
    let camera = cornell_camera(0.0, 16, 12);
    let mut client =
        StreamClient::connect(server.local_addr(), SceneId(7), camera, WireMode::Lossless)
            .expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let err = client.recv_delta().expect_err("no such scene");
    assert!(
        err.to_string().contains("unknown"),
        "refusal should carry the reason, got: {err}"
    );
}

/// A subscribe frame naming a camera whose raw frame no `PHOTSTRM1` frame
/// could carry is refused while decoding: the connection closes, the one
/// dispatcher thread never hears of it (it used to render the view — for
/// hours, or to an allocation abort, at a peer's choice of eight bytes),
/// and the server goes on serving.
#[test]
fn oversized_subscribe_is_refused_before_the_dispatcher() {
    let store = Arc::new(AnswerStore::new());
    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 33,
            ..Default::default()
        },
    );
    sim.run_photons(2_000);
    let id = store.insert("cornell", sim.scene().clone(), sim.answer_snapshot());
    let service = Arc::new(RenderService::start(
        Arc::clone(&store),
        ServeConfig::default(),
    ));
    let server = StreamServer::serve(Arc::clone(&service)).expect("bind loopback");

    // 4096 × 4096 × 24 B = 384 MiB, over the 256 MiB frame cap.
    let oversized = cornell_camera(0.0, 4096, 4096);
    let mut hostile = StreamClient::connect(server.local_addr(), id, oversized, WireMode::Lossless)
        .expect("connect");
    hostile
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    hostile
        .recv_delta()
        .expect_err("refused or closed, never served");
    assert_eq!(
        service.metrics().stream.deltas,
        0,
        "the dispatcher must never see the oversized camera"
    );

    let mut normal = StreamClient::connect(
        server.local_addr(),
        id,
        cornell_camera(0.0, 48, 36),
        WireMode::Lossless,
    )
    .expect("connect");
    normal
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let d = normal.recv_delta().expect("the server still bootstraps");
    assert_eq!(d.epoch, 1);
    assert!(!d.is_empty());
}

/// A connection that never sends its subscribe frame is closed after the
/// listener's five-second request timeout — the same one the metrics
/// endpoint has — instead of pinning a server thread for as long as the
/// peer likes.
#[test]
fn idle_handshake_is_closed_by_the_server() {
    use std::io::Read;
    let store = Arc::new(AnswerStore::new());
    let service = Arc::new(RenderService::start(store, ServeConfig::default()));
    let server = StreamServer::serve(service).expect("bind loopback");
    let mut idle = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let read = idle.read(&mut [0]).expect("closed, not left open");
    assert_eq!(read, 0, "the server sends nothing before a subscribe");
}

/// The slow-consumer acceptance, end to end over TCP: a client that stops
/// reading backs the socket up, the per-connection writer blocks, the
/// subscription's window fills, and the dispatcher coalesces — the squash
/// counter moves, the stalled client later receives *fewer* deltas than
/// epochs published yet reassembles the final epoch bit-identically, and
/// a fast consumer of the same scene sees every epoch undisturbed.
#[test]
fn stalled_tcp_consumer_is_coalesced_fast_one_unaffected() {
    let store = Arc::new(AnswerStore::new());
    let config = ServeConfig {
        render_threads: 2,
        tile_size: 16,
        stream_window: 1,
        ..ServeConfig::default()
    };
    let service = Arc::new(RenderService::start(Arc::clone(&store), config));
    let server = StreamServer::serve(Arc::clone(&service)).expect("bind loopback");

    // Two answers with equal photon counts but different seeds: publishes
    // alternate between them, so every epoch changes pixels without
    // paying for more solving.
    let mut sim_a = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 41,
            ..Default::default()
        },
    );
    sim_a.run_photons(2_000);
    let answer_a = sim_a.answer_snapshot();
    let mut sim_b = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 42,
            ..Default::default()
        },
    );
    sim_b.run_photons(2_000);
    let answer_b = sim_b.answer_snapshot();
    let id = store.insert("cornell-stall", sim_a.scene().clone(), answer_a.clone());

    // The stalled client views a larger frame so its deltas fill the
    // socket buffers quickly; the fast client keeps draining.
    let fast_camera = cornell_camera(0.0, 48, 36);
    let stalled_camera = cornell_camera(0.9, 128, 96);
    let mut fast = StreamClient::connect(server.local_addr(), id, fast_camera, WireMode::Lossless)
        .expect("connect fast");
    fast.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut stalled =
        StreamClient::connect(server.local_addr(), id, stalled_camera, WireMode::Lossless)
            .expect("connect stalled");
    stalled
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");

    let d = fast.recv_delta().expect("fast bootstrap");
    assert_eq!(d.epoch, 1);
    let mut fast_canvas = d.canvas();
    d.apply(&mut fast_canvas);
    let d = stalled.recv_delta().expect("stalled bootstrap");
    let mut stalled_canvas = d.canvas();
    d.apply(&mut stalled_canvas);
    // ... and from here the stalled client stops reading entirely.

    // Publish until the dispatcher demonstrably coalesced for the stalled
    // subscriber. The fast client is drained after every publish, so each
    // epoch is processed separately and the fast stream sees all of them.
    let mut final_epoch = 0u64;
    for round in 2..=300u64 {
        let snapshot = if round % 2 == 0 {
            answer_b.clone()
        } else {
            answer_a.clone()
        };
        assert_eq!(store.publish(id, snapshot), round);
        let delta = fast.recv_delta().expect("fast client keeps streaming");
        assert_eq!(delta.epoch, round, "fast consumer must see every epoch");
        delta.apply(&mut fast_canvas);
        if service.metrics().stream.deltas_squashed > 0 {
            final_epoch = round;
            break;
        }
    }
    let m = service.metrics().stream;
    assert!(
        final_epoch > 0,
        "stalled TCP consumer never triggered coalescing: {m:?}"
    );
    assert!(m.lag_events >= 1, "lag transition not observed");

    // Fast consumer: bit-identical to a full render of the final epoch.
    let reference = reference_frame(&store, id, &fast_camera, &config);
    assert_eq!(
        fast_canvas.pixels(),
        reference.pixels(),
        "fast consumer diverged while its neighbor stalled"
    );

    // Unstall: the backlog drains as the already-encoded window plus the
    // flushed squash — strictly fewer deltas than epochs published — and
    // reassembly still lands exactly on the final epoch.
    let mut received = 0u64;
    loop {
        let delta = stalled.recv_delta().expect("backlog drains after unstall");
        received += 1;
        let epoch = delta.epoch;
        delta.apply(&mut stalled_canvas);
        if epoch >= final_epoch {
            break;
        }
        assert!(received < 10_000, "runaway backlog");
    }
    assert!(
        received < final_epoch,
        "coalescing must deliver fewer deltas ({received}) than epochs ({final_epoch})"
    );
    let reference = reference_frame(&store, id, &stalled_camera, &config);
    assert_eq!(
        stalled_canvas.pixels(),
        reference.pixels(),
        "stalled consumer's reassembly diverged after coalescing"
    );
}
