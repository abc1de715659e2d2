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
//!
//! The 64 × 48 delta (18 432 coded bytes) takes the range coder's model
//! through 17 halvings; the ledger's fan-out phase streams 240 × 180 frames,
//! 259 200 coded bytes and some 250 halvings each. Two tests pin the
//! quantized encoding of one such frame per scene, recorded on the commit
//! before `ByteModel` grew its block sums.
//!
//! The 20 000-photon trees are too shallow to pin the viewer's pixels
//! where it matters, so the last three tests pin the lossless 240 × 180
//! frames of an 80 000-photon solve (the fan-out phase's size) at three
//! orbit phases of all three scenes — the harpsichord's mirror shelf and
//! sun give leaves split on θ and r² — recorded on the commit before the
//! tile loop carried a leaf cursor from pixel to pixel.

use photon_gi::core::view::{diff_tiles, render};
use photon_gi::core::{Camera, Image, SimConfig, Simulator, SolverEngine};
use photon_gi::scenes::{TestScene, ViewSpec};
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

fn solved(kind: TestScene, photons: u64) -> Simulator {
    let config = SimConfig {
        seed: SEED,
        ..Default::default()
    };
    let mut sim = Simulator::new(kind.build(), config);
    sim.run_photons(photons);
    sim
}

fn answer_digest(kind: TestScene) -> (usize, u64) {
    let mut bytes = Vec::new();
    solved(kind, PHOTONS)
        .into_answer()
        .write_to(&mut bytes)
        .expect("writing to a Vec cannot fail");
    digest(&bytes)
}

/// The delta that takes a black canvas to a `width × height` render of the
/// solve from `view` (exposure 1.0, tile 16).
fn bootstrap_delta(view: ViewSpec, sim: &Simulator, width: usize, height: usize) -> FrameDelta {
    let camera = Camera {
        eye: view.eye,
        target: view.target,
        up: view.up,
        vfov_deg: view.vfov_deg,
        width,
        height,
    };
    let frame = render(sim.scene(), &sim.answer_snapshot(), &camera, 1.0);
    let delta = FrameDelta {
        epoch: 1,
        width,
        height,
        tiles: diff_tiles(&Image::new(width, height), &frame, 16),
    };
    assert!(!delta.tiles.is_empty(), "the view is lit");
    delta
}

/// `(len, fnv1a64)` of the solve's `PHOTCK1` bytes, then of its bootstrap
/// delta's `PHOTSTRM1` body, lossless and quantized.
fn checkpoint_and_delta_digests(kind: TestScene) -> [(usize, u64); 3] {
    let sim = solved(kind, PHOTONS);
    let checkpoint = sim.checkpoint().to_bytes();
    let delta = bootstrap_delta(kind.view(), &sim, 64, 48);
    [
        digest(&checkpoint),
        digest(&delta.encode(WireMode::Lossless)),
        digest(&delta.encode(WireMode::Quantized)),
    ]
}

/// `(len, fnv1a64)` of the lossless bootstrap delta of a 240 × 180 render
/// of an 80 000-photon solve — the fan-out phase's answer and frame size —
/// from the scene's view orbited to phases 0, 0.25 and 0.5. Trees this deep
/// give long runs of pixels that share a leaf, which is what the tile
/// loop's leaf cursor skips work on.
fn orbit_frame_digests(kind: TestScene) -> [(usize, u64); 3] {
    let sim = solved(kind, 80_000);
    [0.0, 0.25, 0.5].map(|phase| {
        let delta = bootstrap_delta(kind.view().orbited(phase, 1.0), &sim, 240, 180);
        digest(&delta.encode(WireMode::Lossless))
    })
}

/// `(len, fnv1a64)` of the quantized body of one fan-out-sized frame, after
/// checking that decoding it gives a delta that encodes to the same bytes.
fn full_frame_quantized_digest(kind: TestScene) -> (usize, u64) {
    let delta = bootstrap_delta(kind.view(), &solved(kind, PHOTONS), 240, 180);
    let body = delta.encode(WireMode::Quantized);
    let (back, mode) = FrameDelta::decode(&body).expect("own encoding decodes");
    assert_eq!(mode, WireMode::Quantized);
    assert!(
        back.encode(WireMode::Quantized) == body,
        "decoded 240 x 180 frame does not re-encode to the bytes it came from"
    );
    digest(&body)
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

#[test]
fn cornell_box_full_frame_quantized_bytes_are_pinned() {
    assert_eq!(
        full_frame_quantized_digest(TestScene::CornellBox),
        (27_654, 0xdc6c_b8df_460c_6b6f),
        "(len, fnv1a64) of the Cornell Box 240 x 180 quantized delta changed"
    );
}

#[test]
fn computer_lab_full_frame_quantized_bytes_are_pinned() {
    assert_eq!(
        full_frame_quantized_digest(TestScene::ComputerLab),
        (18_610, 0x71cf_b59c_d280_20b6),
        "(len, fnv1a64) of the Computer Laboratory 240 x 180 quantized delta changed"
    );
}

#[test]
fn cornell_box_orbit_frames_are_pinned() {
    assert_eq!(
        orbit_frame_digests(TestScene::CornellBox),
        [
            (901_087, 0x6bb6_a3a1_f2d6_3835),
            (901_087, 0x66dd_1e9f_8544_16e1),
            (901_087, 0x9567_e0d3_a998_10e0),
        ],
        "(len, fnv1a64) of a Cornell Box 240 x 180 lossless orbit frame changed"
    );
}

#[test]
fn computer_lab_orbit_frames_are_pinned() {
    assert_eq!(
        orbit_frame_digests(TestScene::ComputerLab),
        [
            (1_039_711, 0x2318_5338_6a74_c659),
            (1_039_711, 0x81c3_e290_9b26_6b7b),
            (947_311, 0x019d_4b2c_954a_f663),
        ],
        "(len, fnv1a64) of a Computer Laboratory 240 x 180 lossless orbit frame changed"
    );
}

#[test]
fn harpsichord_room_orbit_frames_are_pinned() {
    assert_eq!(
        orbit_frame_digests(TestScene::HarpsichordRoom),
        [
            (1_039_711, 0xbf7b_90ec_bba4_eba0),
            (1_039_711, 0xb48b_32bc_fd74_79e2),
            (862_431, 0x60e0_11da_2c5b_fcb9),
        ],
        "(len, fnv1a64) of a Harpsichord Practice Room 240 x 180 lossless orbit frame changed"
    );
}
