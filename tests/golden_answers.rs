//! Cross-commit golden: pins the exact `PHOTANS1` bytes of two serial
//! solves, so a change that alters a single hit, tally or split anywhere
//! between the RNG and the answer codec fails here even when every backend
//! still agrees with every other (which is all the equivalence suites
//! compare). The constants were recorded on the commit before the
//! intersection kernel was rewritten; a perf change must leave them alone,
//! and a change that means to alter answers re-records them and says why.

use photon_gi::core::{SimConfig, Simulator};
use photon_gi::scenes::TestScene;

const SEED: u64 = 1;
const PHOTONS: u64 = 20_000;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn answer_digest(kind: TestScene) -> (usize, u64) {
    let config = SimConfig {
        seed: SEED,
        ..Default::default()
    };
    let mut sim = Simulator::new(kind.build(), config);
    sim.run_photons(PHOTONS);
    let mut bytes = Vec::new();
    sim.into_answer()
        .write_to(&mut bytes)
        .expect("writing to a Vec cannot fail");
    (bytes.len(), fnv1a64(&bytes))
}

#[test]
fn cornell_box_answer_bytes_are_pinned() {
    assert_eq!(
        answer_digest(TestScene::CornellBox),
        (7148, 0x2cd2_2705_0924_0894),
        "(len, fnv1a64) of the Cornell Box answer changed"
    );
}

#[test]
fn computer_lab_answer_bytes_are_pinned() {
    assert_eq!(
        answer_digest(TestScene::ComputerLab),
        (111_284, 0x46a1_b246_1a9c_e185),
        "(len, fnv1a64) of the Computer Laboratory answer changed"
    );
}
