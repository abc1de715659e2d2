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
