//! Cross-commit golden: pins the exact `PHOTANS1` bytes of two serial
//! solves, so a change that alters a single hit, tally or split anywhere
//! between the RNG and the answer codec fails here even when every backend
//! still agrees with every other (which is all the equivalence suites
//! compare). The constants were recorded on the commit before the
//! intersection kernel was rewritten; a perf change must leave them alone,
//! and a change that means to alter answers re-records them and says why.
//!
//! The same two solves also pin the other two byte formats — the `PHOTCK1`
//! checkpoint and, in both payload modes, the `PHOTSTRM1` delta that takes
//! a black canvas to a 64 × 48 render from the scene's recommended view —
//! recorded on the commit before the three decoders moved onto one reader.
//! A codec change that means to keep every byte leaves them alone too.

use photon_gi::core::view::{diff_tiles, render};
use photon_gi::core::{Camera, Image, SimConfig, Simulator, SolverEngine};
use photon_gi::scenes::TestScene;
use photon_gi::serve::{FrameDelta, WireMode};

const SEED: u64 = 1;
const PHOTONS: u64 = 20_000;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a64(bytes))
}

fn solved(kind: TestScene) -> Simulator {
    let config = SimConfig {
        seed: SEED,
        ..Default::default()
    };
    let mut sim = Simulator::new(kind.build(), config);
    sim.run_photons(PHOTONS);
    sim
}

fn answer_digest(kind: TestScene) -> (usize, u64) {
    let mut bytes = Vec::new();
    solved(kind)
        .into_answer()
        .write_to(&mut bytes)
        .expect("writing to a Vec cannot fail");
    digest(&bytes)
}

/// `(len, fnv1a64)` of the solve's `PHOTCK1` bytes, then of its bootstrap
/// delta's `PHOTSTRM1` body, lossless and quantized.
fn checkpoint_and_delta_digests(kind: TestScene) -> [(usize, u64); 3] {
    let sim = solved(kind);
    let checkpoint = sim.checkpoint().to_bytes();
    let view = kind.view();
    let camera = Camera {
        eye: view.eye,
        target: view.target,
        up: view.up,
        vfov_deg: view.vfov_deg,
        width: 64,
        height: 48,
    };
    let frame = render(sim.scene(), &sim.answer_snapshot(), &camera, 1.0);
    let delta = FrameDelta {
        epoch: 1,
        width: camera.width,
        height: camera.height,
        tiles: diff_tiles(&Image::new(camera.width, camera.height), &frame, 16),
    };
    assert!(!delta.tiles.is_empty(), "the view is lit");
    [
        digest(&checkpoint),
        digest(&delta.encode(WireMode::Lossless)),
        digest(&delta.encode(WireMode::Quantized)),
    ]
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

#[test]
fn cornell_box_checkpoint_and_delta_bytes_are_pinned() {
    assert_eq!(
        checkpoint_and_delta_digests(TestScene::CornellBox),
        [
            (7210, 0xe954_1f94_7a2e_e5fa),
            (73_951, 0x81f7_df16_25f0_bada),
            (7775, 0xbde5_db9a_4626_ab5a),
        ],
        "(len, fnv1a64) of the Cornell Box PHOTCK1 / PHOTSTRM1 bytes changed"
    );
}

#[test]
fn computer_lab_checkpoint_and_delta_bytes_are_pinned() {
    assert_eq!(
        checkpoint_and_delta_digests(TestScene::ComputerLab),
        [
            (111_346, 0x8dfb_d00b_e874_febf),
            (73_951, 0x6d43_7d39_9011_4c26),
            (3310, 0x6d84_cf86_2884_d2bf),
        ],
        "(len, fnv1a64) of the Computer Laboratory PHOTCK1 / PHOTSTRM1 bytes changed"
    );
}
