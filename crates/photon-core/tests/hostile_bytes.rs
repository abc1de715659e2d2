//! Hunts for a byte string that makes a decoder panic or allocate on a
//! claim — over all three formats, through the one reader they share
//! (`photon-core/src/frame.rs`).
//!
//! Valid `PHOTANS1`, `PHOTCK1` and `PHOTSTRM1` encodings are mutated — a
//! flipped byte, a truncation, a splice of two encodings, a `u32`
//! overwritten with `u32::MAX` or `len + 1`, where and with what sampled —
//! and decoded under a counting allocator. No mutant may panic its decoder, and one the decoder *refuses*
//! may have cost at most one `RESERVE_BYTES` per claim its format nests (and
//! the refusal's own few hundred bytes) more than twice what decoding the
//! unmutated original allocates. The yardstick is the valid decode, not the
//! input's length: a compressed plane block honestly decodes to many times
//! its size. The fixed cases are the lies that used to buy megabytes.
//!
//! Lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide (the idiom of
//! `photon-par/tests/steady_state_alloc.rs`); it counts per thread, so the
//! tests of this binary can run side by side.

use photon_core::view::{diff_tiles, render};
use photon_core::wire::{
    self, FrameDelta, SubscribeFrame, WireMode, KIND_DELTA, MAGIC, MAX_FRAME_BYTES, VERSION,
};
use photon_core::{Answer, Camera, EngineCheckpoint, Image, SimConfig, Simulator, SolverEngine};
use photon_math::Rgb;
use photon_scenes::TestScene;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::sync::OnceLock;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates straight to `System`; the counter is side-effect only
// (a `const`-initialised `Cell` with no destructor, so touching it neither
// allocates nor outlives its thread; `realloc` and `alloc_zeroed` default
// to `alloc`, so growth is counted too).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `frame::RESERVE_BYTES` (crate-private): the most one claim reserves.
const RESERVE_BYTES: u64 = 64 * 1024;

/// Slack for what a refusal itself costs: the error's message, a `Vec`'s
/// rounding.
const SLACK: u64 = 4 * 1024;

/// Bytes this thread allocated while `decode` ran, and whether it refused.
fn cost<T>(decode: impl FnOnce() -> io::Result<T>) -> (u64, bool) {
    let before = ALLOCATED.with(Cell::get);
    let refused = decode().is_err();
    (ALLOCATED.with(Cell::get) - before, refused)
}

/// One format under test: a valid encoding, the decoder it is for, and how
/// deep the format nests its claims — a file's tree count holds its
/// reservation while a tree's node count takes another; no frame of a stream
/// has a count inside a count.
struct Format {
    name: &'static str,
    valid: Vec<u8>,
    decode: fn(&[u8]) -> io::Result<()>,
    claims: u64,
}

fn decode_answer(bytes: &[u8]) -> io::Result<()> {
    Answer::read_from(&mut &bytes[..]).map(drop)
}

fn decode_checkpoint(bytes: &[u8]) -> io::Result<()> {
    EngineCheckpoint::from_bytes(bytes).map(drop)
}

/// A `PHOTSTRM1` peer's whole read path: the length prefix, then the body.
fn decode_stream(bytes: &[u8]) -> io::Result<()> {
    let body = wire::read_frame(&mut &bytes[..])?;
    wire::decode_frame(&body).map(drop)
}

fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_frame(&mut out, body).expect("a small frame");
    out
}

fn formats() -> &'static [Format] {
    static FORMATS: OnceLock<Vec<Format>> = OnceLock::new();
    FORMATS.get_or_init(|| {
        let kind = TestScene::CornellBox;
        let config = SimConfig {
            seed: 1,
            ..Default::default()
        };
        let mut sim = Simulator::new(kind.build(), config);
        sim.run_photons(5_000);
        let answer = sim.answer_snapshot();
        let mut answer_bytes = Vec::new();
        answer.write_to(&mut answer_bytes).expect("a Vec");
        let view = kind.view();
        let camera = Camera {
            eye: view.eye,
            target: view.target,
            up: view.up,
            vfov_deg: view.vfov_deg,
            width: 32,
            height: 24,
        };
        let frame = render(sim.scene(), &answer, &camera, 1.0);
        let delta = FrameDelta {
            epoch: 1,
            width: camera.width,
            height: camera.height,
            tiles: diff_tiles(&Image::new(camera.width, camera.height), &frame, 16),
        };
        let subscribe = wire::encode_subscribe(&SubscribeFrame {
            scene: 3,
            mode: WireMode::Quantized,
            camera,
        });
        let stream = |name, body: Vec<u8>| Format {
            name,
            valid: framed(&body),
            decode: decode_stream,
            claims: 1,
        };
        vec![
            Format {
                name: "PHOTANS1",
                valid: answer_bytes,
                decode: decode_answer,
                claims: 2,
            },
            Format {
                name: "PHOTCK1",
                valid: sim.checkpoint().to_bytes(),
                decode: decode_checkpoint,
                claims: 2,
            },
            stream(
                "PHOTSTRM1 delta, lossless",
                delta.encode(WireMode::Lossless),
            ),
            stream(
                "PHOTSTRM1 delta, quantized",
                delta.encode(WireMode::Quantized),
            ),
            stream("PHOTSTRM1 subscribe", subscribe),
            stream("PHOTSTRM1 error", wire::encode_error("scene 7 not stored")),
        ]
    })
}

/// One mutant of `valid`: `kind` picks the mutation, the three fractions in
/// `[0, 1)` say where and with what.
fn mutate(valid: &[u8], kind: usize, [a, b, c]: [f64; 3]) -> Vec<u8> {
    let at = |fraction: f64, n: usize| (fraction * n as f64) as usize;
    let mut bytes = valid.to_vec();
    match kind {
        0 => bytes[at(a, valid.len())] ^= 1 + at(b, 255) as u8,
        1 => bytes.truncate(at(a, valid.len())),
        2 => {
            let other = &formats()[at(b, formats().len())].valid;
            bytes.truncate(at(a, valid.len()));
            bytes.extend_from_slice(&other[at(c, other.len())..]);
        }
        _ => {
            let field = at(a, valid.len() - 3);
            let lie = [u32::MAX, valid.len() as u32 + 1][at(b, 2)];
            bytes[field..field + 4].copy_from_slice(&lie.to_le_bytes());
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_mutant_panics_a_decoder_or_allocates_on_a_claim(
        kind in 0usize..4,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        c in 0.0f64..1.0,
    ) {
        for format in formats() {
            let (valid_cost, refused) = cost(|| (format.decode)(&format.valid));
            prop_assert!(!refused, "{}: the valid encoding was refused", format.name);
            let mutant = mutate(&format.valid, kind, [a, b, c]);
            let (mutant_cost, refused) = cost(|| (format.decode)(&mutant));
            let bound = 2 * valid_cost + format.claims * RESERVE_BYTES + SLACK;
            prop_assert!(
                !refused || mutant_cost <= bound,
                "{}, mutation {kind} at {a} {b} {c}: a refused {}-byte mutant allocated \
                 {mutant_cost} bytes, the valid decode {valid_cost}",
                format.name,
                mutant.len(),
            );
        }
    }
}

/// A `PHOTSTRM1` delta body up to and including its tile count.
fn delta_head(mode: u8, (width, height): (u32, u32), tiles: u32) -> Vec<u8> {
    let mut body = MAGIC.to_vec();
    body.extend_from_slice(&[VERSION, KIND_DELTA, mode]);
    body.extend_from_slice(&1u64.to_le_bytes());
    for v in [width, height, tiles] {
        body.extend_from_slice(&v.to_le_bytes());
    }
    body
}

/// The lies that used to buy megabytes, each told in a few dozen bytes; what
/// each allocated before the decoders shared one reader is in the comments.
#[test]
fn a_few_dozen_lying_bytes_buy_one_reservation() {
    // The largest frame a camera may ask for, and one tile covering it.
    let side = 4096u32;
    let frame = (
        side,
        MAX_FRAME_BYTES / std::mem::size_of::<Rgb>() as u32 / side,
    );
    let full_tile = [0, 0, frame.0, frame.1].map(u32::to_le_bytes).concat();
    let pixels = frame.0 * frame.1;

    // `u32::MAX` tiles: 2 MiB of `Tile`s.
    let tiles = delta_head(0, frame, u32::MAX);
    assert_eq!(tiles.len(), 31);
    // One honest rectangle, no pixels behind it: 1.5 MiB of `Rgb`s.
    let mut lossless = delta_head(0, frame, 1);
    lossless.extend_from_slice(&full_tile);
    assert_eq!(lossless.len(), 47);
    // The same rectangle quantized, four bytes of code behind a plane
    // length that agrees with it: 1 MiB of planes.
    let mut quantized = delta_head(1, frame, 1);
    quantized.extend_from_slice(&full_tile);
    quantized.extend_from_slice(&[0; 48]);
    quantized.extend_from_slice(&(pixels * 6).to_le_bytes());
    quantized.extend_from_slice(&4u32.to_le_bytes());
    quantized.extend_from_slice(&[0; 4]);
    assert_eq!(quantized.len(), 107);
    for (name, body) in [
        ("tiles", tiles),
        ("lossless", lossless),
        ("quantized", quantized),
    ] {
        let (bytes, refused) = cost(|| wire::decode_frame(&body));
        assert!(refused, "{name}");
        assert!(bytes <= RESERVE_BYTES + SLACK, "{name}: {bytes} bytes");
    }

    // A `PHOTANS1` header claiming `u32::MAX` trees: 5 MiB of `BinTree`s.
    let answer = |trees: u32| {
        let mut file = b"PHOTANS1".to_vec();
        file.extend_from_slice(&trees.to_le_bytes());
        file.extend_from_slice(&0u64.to_le_bytes());
        file
    };
    let trees = answer(u32::MAX);
    assert_eq!(trees.len(), 20);
    // One tree claiming `u32::MAX` nodes: 4 MiB of `ExportNode`s.
    let mut nodes = answer(1);
    nodes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(nodes.len(), 24);
    // Both at once: the formats nest claims two deep, so two reservations.
    let mut both = answer(u32::MAX);
    both.extend_from_slice(&u32::MAX.to_le_bytes());
    for (name, file, claims) in [("trees", trees, 1), ("nodes", nodes, 1), ("both", both, 2)] {
        let (bytes, refused) = cost(|| decode_answer(&file));
        assert!(refused, "{name}");
        assert!(
            bytes <= claims * RESERVE_BYTES + SLACK,
            "{name}: {bytes} bytes"
        );
    }
}
