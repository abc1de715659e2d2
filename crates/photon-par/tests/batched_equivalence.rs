//! Determinism contract of the batched pipeline: the threaded answer is
//! byte-identical to the serial simulator for *any* batch size and *any*
//! thread count — including batches smaller than the thread count and
//! thread counts beyond the host's cores. This is the property that let the
//! engine collapse its old deterministic/concurrent split into one mode.

use photon_core::{Answer, SimConfig, Simulator, SolverEngine};
use photon_par::{ParConfig, ParEngine};
use photon_scenes::TestScene;

const SEED: u64 = 4242;
const TOTAL: u64 = 4096;

fn answer_bytes(a: &Answer) -> Vec<u8> {
    let mut buf = Vec::new();
    a.write_to(&mut buf).expect("encode answer");
    buf
}

fn serial_answer() -> Vec<u8> {
    let mut sim = Simulator::new(
        TestScene::CornellBox.build(),
        SimConfig {
            seed: SEED,
            ..Default::default()
        },
    );
    sim.run_photons(TOTAL);
    answer_bytes(&sim.answer_snapshot())
}

#[test]
fn every_batch_size_and_thread_count_matches_serial_byte_for_byte() {
    let want = serial_answer();
    for &batch in &[1u64, 7, 64, 4096] {
        for &threads in &[1usize, 2, 8] {
            let mut engine = ParEngine::new(
                TestScene::CornellBox.build(),
                ParConfig {
                    seed: SEED,
                    threads,
                    batch_size: batch,
                    ..Default::default()
                },
            );
            let mut left = TOTAL;
            while left > 0 {
                let n = batch.min(left);
                engine.step(n);
                left -= n;
            }
            assert_eq!(
                answer_bytes(&engine.snapshot()),
                want,
                "batch={batch} threads={threads} diverged from serial"
            );
        }
    }
}

/// Photons in one round of a threaded step per worker: four chunks of at
/// most 2 048 photons each.
const ROUND_PER_WORKER: u64 = 4 * 2_048;

/// Steps `batches` on a serial simulator and a `threads`-worker engine over
/// `scene` side by side, comparing answer and checkpoint bytes after each.
fn matches_serial_at_every_step(scene: TestScene, threads: usize, batches: &[u64]) {
    let config = SimConfig {
        seed: SEED,
        ..Default::default()
    };
    let mut serial = Simulator::new(scene.build(), config);
    let mut engine = ParEngine::new(
        scene.build(),
        ParConfig {
            seed: SEED,
            threads,
            ..Default::default()
        },
    );
    for &batch in batches {
        serial.step(batch);
        engine.step(batch);
        let at = format!("{scene:?}, threads={threads}, after {batch}");
        assert_eq!(
            answer_bytes(&engine.snapshot()),
            answer_bytes(&serial.answer_snapshot()),
            "{at}: answer"
        );
        assert_eq!(
            engine.checkpoint().to_bytes(),
            serial.checkpoint().to_bytes(),
            "{at}: checkpoint"
        );
    }
}

#[test]
fn steps_cut_at_round_edges_match_serial_byte_for_byte() {
    // Exactly one round, one round and a photon (two rounds, the cursor
    // now off any round edge), then two and a half rounds (three).
    for threads in [1, 2, 3] {
        let round = ROUND_PER_WORKER * threads as u64;
        let batches = [round, round + 1, 5 * round / 2];
        matches_serial_at_every_step(TestScene::CornellBox, threads, &batches);
    }
    let lab_round = ROUND_PER_WORKER * 2;
    matches_serial_at_every_step(TestScene::ComputerLab, 2, &[5 * lab_round / 2]);
}
