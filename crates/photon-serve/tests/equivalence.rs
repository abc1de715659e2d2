//! Backend equivalence: every engine solves the *same* simulation.
//!
//! The unified photon stream (block substream per photon; threads trace
//! contiguous chunks of a batch, ranks leapfrog over it) makes strong
//! cross-backend claims testable:
//!
//! * serial `Simulator` and the threaded `ParEngine` (deterministic tally
//!   replay) produce **bit-identical** `Answer`s for the same seed and
//!   photon count;
//! * the distributed engine traces the same photon set, so its counters
//!   match serial exactly and its merged forest holds every tally exactly
//!   once;
//! * successive `SolveJob` epochs are monotonically non-decreasing in
//!   tallied photons;
//! * a checkpoint taken at photon `N` under any order-preserving backend,
//!   restored into any order-preserving backend (after a `PHOTCK1` codec
//!   round trip), and stepped to `M` photons is **bit-identical** to an
//!   uninterrupted `M`-photon solve — and a distributed world resumes
//!   bit-identically into a freshly booted world of the same shape.

use photon_core::{Answer, EngineCheckpoint, SimConfig, Simulator, SolverEngine};
use photon_dist::{BalanceMode, BatchMode, DistConfig, DistEngine};
use photon_par::{ParConfig, ParEngine};
use photon_scenes::{cornell_box, TestScene};
use photon_serve::{AnswerStore, BackendChoice, SolveRequest, SolverPool};
use std::sync::Arc;
use std::time::Duration;

fn answer_bytes(a: &Answer) -> Vec<u8> {
    let mut buf = Vec::new();
    a.write_to(&mut buf).expect("encode answer");
    buf
}

fn serial_answer(scene_kind: TestScene, seed: u64, photons: u64) -> (Answer, Simulator) {
    let mut sim = Simulator::new(
        scene_kind.build(),
        SimConfig {
            seed,
            ..Default::default()
        },
    );
    sim.run_photons(photons);
    (sim.answer_snapshot(), sim)
}

#[test]
fn threaded_engine_answers_are_bit_identical_to_serial() {
    for scene_kind in [TestScene::CornellBox, TestScene::HarpsichordRoom] {
        let (serial, _) = serial_answer(scene_kind, 4097, 5_000);
        let want = answer_bytes(&serial);
        for threads in [1, 2, 4, 7] {
            let mut engine = ParEngine::new(
                scene_kind.build(),
                ParConfig {
                    seed: 4097,
                    threads,
                    ..Default::default()
                },
            );
            // Uneven batching on purpose: the answer may not depend on it.
            engine.step(1_234);
            engine.step(2_766);
            engine.step(1_000);
            assert_eq!(
                answer_bytes(&engine.snapshot()),
                want,
                "{}: threads={threads} diverged from serial",
                scene_kind.name()
            );
        }
    }
}

#[test]
fn distributed_engine_matches_serial_counters_and_tally_invariants() {
    let seed = 515;
    let photons = 6_000u64;
    let (_, serial) = serial_answer(TestScene::CornellBox, seed, photons);
    for nranks in [1usize, 3] {
        let mut engine = DistEngine::new(
            cornell_box(),
            DistConfig {
                seed,
                nranks,
                balance: BalanceMode::Naive,
                batch: BatchMode::Fixed(1),
                ..Default::default()
            },
        );
        // Step in windows that tile the serial photon index space exactly.
        let mut emitted = 0;
        while emitted < photons {
            let report =
                engine.step_round((photons - emitted).min(600 * nranks as u64) / nranks as u64);
            emitted += report.batch_photons;
        }
        // Same photon set ⇒ identical counters, despite rank partitioning.
        assert_eq!(engine.stats(), *serial.stats(), "nranks={nranks}");
        // Merged snapshot holds every tally exactly once.
        let answer = engine.snapshot();
        let tallies: u64 = (0..answer.patch_count() as u32)
            .map(|p| answer.tree(p).tallies())
            .sum();
        assert_eq!(
            tallies,
            serial.forest().total_tallies(),
            "nranks={nranks}: merged tally count diverged"
        );
        assert_eq!(answer.emitted(), photons);
    }
}

/// The tentpole invariant, engine-to-engine: checkpoint at `N`, restore
/// across the serial↔threaded boundary (both directions, several split
/// points, uneven thread counts), step to `M` — the answer is bit-identical
/// to the uninterrupted reference. Every checkpoint crosses the `PHOTCK1`
/// codec on the way, so the bytes on disk carry the whole resume state.
#[test]
fn checkpoint_resume_is_bit_identical_across_serial_and_threaded() {
    let seed = 777;
    let total = 6_000u64;
    let (reference, _) = serial_answer(TestScene::CornellBox, seed, total);
    let want = answer_bytes(&reference);
    let par_engine = |threads: usize| {
        ParEngine::new(
            cornell_box(),
            ParConfig {
                seed,
                threads,
                ..Default::default()
            },
        )
    };
    let roundtrip = |ck: EngineCheckpoint| {
        EngineCheckpoint::from_bytes(&ck.to_bytes()).expect("codec round trip")
    };
    for split_at in [1u64, 1_234, 3_000, 5_999] {
        // Serial solves the prefix; the suffix runs threaded.
        let mut serial = Simulator::new(
            cornell_box(),
            SimConfig {
                seed,
                ..Default::default()
            },
        );
        serial.run_photons(split_at);
        let ck = roundtrip(serial.checkpoint());
        assert_eq!(ck.cursor(), split_at);
        let mut threaded = par_engine(3);
        threaded.restore(&ck).expect("serial → threaded restore");
        threaded.step(total - split_at);
        assert_eq!(
            answer_bytes(&threaded.snapshot()),
            want,
            "serial→threaded resume at {split_at} diverged"
        );

        // Threaded solves the prefix; the suffix runs serial.
        let mut threaded = par_engine(4);
        threaded.step(split_at);
        let ck = roundtrip(threaded.checkpoint());
        let mut serial = Simulator::new(
            cornell_box(),
            SimConfig {
                seed,
                ..Default::default()
            },
        );
        serial.restore(&ck).expect("threaded → serial restore");
        serial.run_photons(total - split_at);
        assert_eq!(
            answer_bytes(&serial.answer_snapshot()),
            want,
            "threaded→serial resume at {split_at} diverged"
        );

        // Threaded → threaded across a different worker count.
        let mut threaded = par_engine(2);
        threaded.step(split_at);
        let ck = roundtrip(threaded.checkpoint());
        let mut wider = par_engine(7);
        wider.restore(&ck).expect("threaded → threaded restore");
        wider.step(total - split_at);
        assert_eq!(
            answer_bytes(&wider.snapshot()),
            want,
            "2→7-thread resume at {split_at} diverged"
        );
    }
}

/// A distributed world's checkpoint resumes bit-identically into a *fresh*
/// world of the same shape: the original engine is dropped entirely, a new
/// rank world boots, restores, and continues the same step schedule.
#[test]
fn distributed_checkpoint_resumes_bit_identically_on_a_fresh_world() {
    let config = DistConfig {
        seed: 901,
        nranks: 3,
        balance: BalanceMode::Naive,
        batch: BatchMode::Fixed(1),
        ..Default::default()
    };
    let per_rank = 400u64;
    let rounds_total = 6;
    let rounds_before = 2;

    let mut straight = DistEngine::new(cornell_box(), config);
    for _ in 0..rounds_total {
        straight.step_round(per_rank);
    }
    let want = answer_bytes(&straight.snapshot());

    let mut first = DistEngine::new(cornell_box(), config);
    for _ in 0..rounds_before {
        first.step_round(per_rank);
    }
    let ck = EngineCheckpoint::from_bytes(&first.checkpoint().to_bytes()).expect("codec");
    assert_eq!(ck.cursor(), per_rank * 3 * rounds_before);
    drop(first);

    let mut resumed = DistEngine::new(cornell_box(), config);
    resumed.restore(&ck).expect("same-shape world restore");
    for _ in 0..rounds_total - rounds_before {
        resumed.step_round(per_rank);
    }
    assert_eq!(resumed.stats(), straight.stats());
    assert_eq!(
        answer_bytes(&resumed.snapshot()),
        want,
        "fresh-world resume diverged from the uninterrupted distributed run"
    );
}

/// Crossing the order boundary — a serial checkpoint restored into a
/// distributed world — keeps the photon-set invariants: the union of
/// photons is exactly the serial stream, so the counters and tally totals
/// match the uninterrupted serial run even though rank-partitioned tally
/// order may move bin boundaries.
#[test]
fn serial_checkpoint_restored_into_distributed_keeps_photon_set_invariants() {
    let seed = 640;
    let total = 5_000u64;
    let split_at = 2_000u64;
    let (_, serial) = serial_answer(TestScene::CornellBox, seed, total);

    let mut prefix = Simulator::new(
        cornell_box(),
        SimConfig {
            seed,
            ..Default::default()
        },
    );
    prefix.run_photons(split_at);
    let ck = prefix.checkpoint();

    let mut dist = DistEngine::new(
        cornell_box(),
        DistConfig {
            seed,
            nranks: 3,
            balance: BalanceMode::Naive,
            batch: BatchMode::Fixed(1),
            ..Default::default()
        },
    );
    dist.restore(&ck).expect("serial → distributed restore");
    let mut emitted = split_at;
    while emitted < total {
        let report = dist.step_round((total - emitted).min(1_500) / 3);
        emitted += report.batch_photons;
    }
    assert_eq!(dist.stats(), *serial.stats());
    let answer = dist.snapshot();
    let tallies: u64 = (0..answer.patch_count() as u32)
        .map(|p| answer.tree(p).tallies())
        .sum();
    assert_eq!(tallies, serial.forest().total_tallies());
    assert_eq!(answer.emitted(), total);
}

#[test]
fn solve_job_epochs_are_monotone_in_tallied_photons() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    let mut request = SolveRequest::new("cornell", cornell_box());
    request.backend = BackendChoice::Threaded { threads: 2 };
    request.seed = 88;
    request.batch_size = 800;
    request.target_photons = 4_000; // 5 epochs
    let handle = pool.submit(request);

    let mut reports = Vec::new();
    while let Some(p) = handle.next_progress(Duration::from_secs(120)) {
        // The store entry visible at (or after) this publish carries at
        // least this epoch and at least these photons.
        let entry = store.get(handle.scene_id()).unwrap();
        assert!(entry.epoch >= p.epoch);
        assert!(entry.answer.emitted() >= p.emitted);
        reports.push(p);
    }
    assert_eq!(reports.len(), 5);
    for pair in reports.windows(2) {
        assert!(pair[1].epoch == pair[0].epoch + 1, "epochs skip: {pair:?}");
        assert!(
            pair[1].emitted >= pair[0].emitted,
            "tallied photons regressed: {pair:?}"
        );
        assert!(
            pair[1].leaf_bins >= pair[0].leaf_bins,
            "refinement regressed: {pair:?}"
        );
    }
    assert!(reports.last().unwrap().done);

    // The threaded deterministic backend's published answer equals the
    // serial reference at the same photon count — through the whole
    // pipeline, not just engine-to-engine.
    let (serial, _) = serial_answer(TestScene::CornellBox, 88, 4_000);
    let published = store.get(handle.scene_id()).unwrap();
    assert_eq!(answer_bytes(&published.answer), answer_bytes(&serial));
}
