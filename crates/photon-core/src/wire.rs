//! `PHOTSTRM1`: the length-prefixed streaming wire format.
//!
//! The third member of the codec family (`PHOTANS1` answers, `PHOTCK1`
//! checkpoints): frames that carry a progressive render's tile deltas to
//! off-box subscribers. A connection speaks length-prefixed frames
//! ([`write_frame`] / [`read_frame`]); every frame body opens with the
//! shared magic, a version byte, and a kind tag, then one of:
//!
//! | kind | frame | direction |
//! |------|-------|-----------|
//! | [`KIND_DELTA`] | one epoch's changed tiles ([`encode_delta`]) | server → client |
//! | [`KIND_SUBSCRIBE`] | scene + camera + payload mode ([`SubscribeFrame`]) | client → server |
//! | [`KIND_ERROR`] | a refusal message ([`encode_error`]) | server → client |
//!
//! Delta payloads come in two modes. [`WireMode::Lossless`] ships raw
//! little-endian `f64` pixels — decode is **bit-identical** to the encoded
//! frame, so every equivalence suite built on exact reassembly holds over
//! the wire. [`WireMode::Quantized`] is the opt-in lossy mode: each tile
//! stores per-channel min/max bounds and 16-bit quantized pixels, and the
//! quantized planes of the whole frame are squeezed through an adaptive
//! order-0 range coder. Roundtrip error is bounded by half a quantization
//! step (`(max - min) / 65535 / 2` per channel) and fully deterministic —
//! the same frame always encodes to the same bytes.
//!
//! Decoding validates magic, version, kind, mode, tile bounds, and payload
//! sizes, and rejects truncated input and trailing garbage — same
//! discipline as the sibling codecs, because stream bytes arrive from a
//! network socket, the least trusted input the system reads.

use crate::frame::{
    bad_data, expect_end, expect_magic, read_array, read_bytes, read_counted, read_f64, read_u32,
    read_u64, read_u8, RESERVE_BYTES,
};
use crate::view::{blit_tile, squash_tile_runs, Camera, Tile};
use crate::Image;
use photon_math::{Rgb, Vec3};
use std::io::{self, Read, Write};

/// Magic bytes opening every frame body (version follows as one byte).
pub const MAGIC: &[u8; 8] = b"PHOTSTRM";

/// Format version written after the magic; bump on layout changes.
pub const VERSION: u8 = 1;

/// Frame kind: one epoch's tile delta (server → client).
pub const KIND_DELTA: u8 = 0;

/// Frame kind: a subscribe request (client → server).
pub const KIND_SUBSCRIBE: u8 = 1;

/// Frame kind: a refusal message (server → client, then close).
pub const KIND_ERROR: u8 = 2;

/// Hard cap on a length-prefixed frame (256 MiB): large enough for any
/// real frame, small enough that a corrupt length prefix cannot ask the
/// reader to buffer gigabytes.
pub const MAX_FRAME_BYTES: u32 = 1 << 28;

/// Most pixels one frame holds: [`MAX_FRAME_BYTES`] of `Rgb`s. It is the
/// bound [`Camera::validate`] puts on a camera, so a delta decoder that
/// holds a frame's geometry to it refuses nothing an encoder writes.
const MAX_FRAME_PIXELS: usize = MAX_FRAME_BYTES as usize / std::mem::size_of::<Rgb>();

/// Delta payload encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireMode {
    /// Raw `f64` pixels — decode reassembles bit-identically.
    Lossless,
    /// Per-tile min/max quantization to `u16` + adaptive range coding.
    /// Lossy but bounded and deterministic.
    Quantized,
}

impl WireMode {
    fn tag(self) -> u8 {
        match self {
            WireMode::Lossless => 0,
            WireMode::Quantized => 1,
        }
    }

    fn from_tag(tag: u8) -> io::Result<Self> {
        match tag {
            0 => Ok(WireMode::Lossless),
            1 => Ok(WireMode::Quantized),
            _ => Err(bad_data("unknown wire mode")),
        }
    }
}

/// One pushed refinement: the tiles that changed between the last frame
/// sent to a subscriber and the named epoch's frame — the same value on both
/// sides of the wire.
///
/// The very first delta of a subscription is diffed against a black canvas
/// (what [`FrameDelta::canvas`] returns), so all-black background tiles
/// are never shipped at all. A delta may carry zero tiles — the bootstrap
/// of an all-black view, or an epoch that republished identical pixels —
/// and still announces the epoch advance.
#[derive(Clone, Debug)]
pub struct FrameDelta {
    /// The publication epoch this delta brings the subscriber up to.
    pub epoch: u64,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Changed tiles and their complete new pixels (dequantized, when the
    /// delta was decoded from a lossy frame), in row-major tile order —
    /// the format [`blit_tile`] consumes.
    pub tiles: Vec<(Tile, Vec<Rgb>)>,
}

impl FrameDelta {
    /// A black canvas of the frame's dimensions — the implicit "previous
    /// frame" of a brand-new subscriber. Apply every received delta in
    /// order to reassemble each epoch's image exactly.
    pub fn canvas(&self) -> Image {
        Image::new(self.width, self.height)
    }

    /// Blits the changed tiles onto `img`, advancing it to this delta's
    /// epoch.
    ///
    /// # Panics
    /// Panics if `img` does not match the frame's dimensions.
    pub fn apply(&self, img: &mut Image) {
        assert_eq!(
            (img.width(), img.height()),
            (self.width, self.height),
            "delta applied to a mismatched canvas"
        );
        for (tile, buf) in &self.tiles {
            blit_tile(img, *tile, buf);
        }
    }

    /// Pixels carried by the changed tiles.
    pub fn tile_pixels(&self) -> usize {
        self.tiles.iter().map(|(t, _)| t.pixel_count()).sum()
    }

    /// Pixel payload bytes carried by the changed tiles.
    pub fn tile_bytes(&self) -> usize {
        self.tile_pixels() * std::mem::size_of::<Rgb>()
    }

    /// Pixel payload bytes a full frame of this view would cost — the
    /// number a frame-per-epoch protocol would have shipped instead.
    pub fn full_frame_bytes(&self) -> usize {
        self.width * self.height * std::mem::size_of::<Rgb>()
    }

    /// True when the epoch advanced without changing any pixel.
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// Squashes a contiguous run of deltas (oldest first) into one delta
    /// whose application is bit-identical to applying each in order — the
    /// slow-consumer coalescing primitive. A tile touched by several
    /// epochs keeps only its newest pixels ([`squash_tile_runs`]), so the
    /// squash is bounded by the distinct tiles touched, not by how many
    /// epochs it covers.
    ///
    /// # Panics
    /// Panics on an empty run or mismatched frame dimensions.
    pub fn squash(run: &[FrameDelta]) -> FrameDelta {
        let last = run.last().expect("squash of an empty run");
        assert!(
            run.iter()
                .all(|d| (d.width, d.height) == (last.width, last.height)),
            "squash over mismatched frame dimensions"
        );
        FrameDelta {
            epoch: last.epoch,
            width: last.width,
            height: last.height,
            tiles: squash_tile_runs(run.iter().map(|d| d.tiles.clone())),
        }
    }

    /// Encodes this delta as a `PHOTSTRM1` frame body ([`encode_delta`]).
    /// Lossless mode decodes bit-identically; quantized mode is smaller
    /// but lossy (bounded, deterministic error).
    pub fn encode(&self, mode: WireMode) -> Vec<u8> {
        encode_delta(self.epoch, self.width, self.height, &self.tiles, mode)
    }

    /// Decodes a `PHOTSTRM1` delta frame body back into a delta plus the
    /// mode it was encoded with.
    pub fn decode(bytes: &[u8]) -> io::Result<(FrameDelta, WireMode)> {
        match decode_frame(bytes)? {
            WireFrame::Delta(delta, mode) => Ok((delta, mode)),
            _ => Err(bad_data("expected a delta frame")),
        }
    }
}

/// A decoded subscribe request: which scene, through which camera, in
/// which payload mode.
#[derive(Clone, Debug)]
pub struct SubscribeFrame {
    /// Raw scene id in the server's answer store.
    pub scene: u32,
    /// Delta payload mode the client wants.
    pub mode: WireMode,
    /// Viewpoint to stream.
    pub camera: Camera,
}

/// Any frame a `PHOTSTRM1` peer can receive.
#[derive(Clone, Debug)]
pub enum WireFrame {
    /// One epoch's tile delta, and the payload mode it was encoded with.
    Delta(FrameDelta, WireMode),
    /// A subscribe request.
    Subscribe(SubscribeFrame),
    /// A refusal message.
    Error(String),
}

// ---------------------------------------------------------------------------
// Length-prefixed framing
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame: `u32` payload length, then the payload.
/// A payload over [`MAX_FRAME_BYTES`] is `InvalidInput`, and nothing of it
/// is written: no reader would take the frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame payload over MAX_FRAME_BYTES",
            )
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame, rejecting lengths over
/// [`MAX_FRAME_BYTES`]. An EOF before the length prefix surfaces as
/// `UnexpectedEof` — a cleanly closed peer — and so does one inside the
/// payload. The prefix is unauthenticated (it arrives before the
/// handshake), so the buffer grows in step with delivered bytes.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let len = read_u32(r)?;
    if len > MAX_FRAME_BYTES {
        return Err(bad_data("frame length over MAX_FRAME_BYTES"));
    }
    let mut payload = Vec::new();
    read_bytes(r, len as usize, &mut payload)?;
    Ok(payload)
}

fn write_header(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(kind);
}

fn read_header<R: Read>(r: &mut R) -> io::Result<u8> {
    let short = |e: io::Error| match e.kind() {
        io::ErrorKind::UnexpectedEof => bad_data("frame shorter than the PHOTSTRM header"),
        _ => e,
    };
    expect_magic(r, MAGIC, "not a PHOTSTRM frame").map_err(short)?;
    let [version, kind] = read_array(r).map_err(short)?;
    if version != VERSION {
        return Err(bad_data("unsupported PHOTSTRM version"));
    }
    Ok(kind)
}

/// Decodes any frame body, dispatching on its kind tag.
pub fn decode_frame(bytes: &[u8]) -> io::Result<WireFrame> {
    let r = &mut &bytes[..];
    let frame = match read_header(r)? {
        KIND_DELTA => {
            let (delta, mode) = decode_delta_body(r)?;
            WireFrame::Delta(delta, mode)
        }
        KIND_SUBSCRIBE => WireFrame::Subscribe(decode_subscribe_body(r)?),
        KIND_ERROR => WireFrame::Error(decode_error_body(r)?),
        _ => return Err(bad_data("unknown PHOTSTRM frame kind")),
    };
    expect_end(r, "trailing garbage after PHOTSTRM frame")?;
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Delta frames
// ---------------------------------------------------------------------------

/// Encodes one epoch's tile delta as a `PHOTSTRM1` frame body.
///
/// Layout: header, mode (`u8`), epoch (`u64`), width/height (`u32`), tile
/// count (`u32`), the tile rectangles (4 × `u32` each), then the pixel
/// payload — raw `f64`s in lossless mode; per-tile channel bounds plus one
/// range-coded block of `u16` planes in quantized mode.
///
/// # Panics
/// Panics if a tile lies outside `width × height` or a buffer's length
/// does not match its tile — deltas come from the renderer's own diff, so
/// a mismatch is a caller bug, not a data error.
pub fn encode_delta(
    epoch: u64,
    width: usize,
    height: usize,
    tiles: &[(Tile, Vec<Rgb>)],
    mode: WireMode,
) -> Vec<u8> {
    let pixels: usize = tiles.iter().map(|(t, _)| t.pixel_count()).sum();
    // Quantized: 16 bytes of rectangle and 48 of bounds a tile, and the
    // half of the 6-byte-a-pixel plane block `entropy_encode` guesses too.
    let mut out = Vec::with_capacity(match mode {
        WireMode::Lossless => 64 + tiles.len() * 16 + pixels * 24,
        WireMode::Quantized => 64 + tiles.len() * 64 + pixels * 3,
    });
    write_header(&mut out, KIND_DELTA);
    out.push(mode.tag());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(width as u32).to_le_bytes());
    out.extend_from_slice(&(height as u32).to_le_bytes());
    out.extend_from_slice(&(tiles.len() as u32).to_le_bytes());
    for (tile, buf) in tiles {
        assert!(
            tile.x0 < tile.x1 && tile.y0 < tile.y1 && tile.x1 <= width && tile.y1 <= height,
            "tile outside the frame"
        );
        assert_eq!(buf.len(), tile.pixel_count(), "tile buffer size mismatch");
        for v in [tile.x0, tile.y0, tile.x1, tile.y1] {
            out.extend_from_slice(&(v as u32).to_le_bytes());
        }
    }
    match mode {
        WireMode::Lossless => {
            for (_, buf) in tiles {
                for px in buf {
                    for c in [px.r, px.g, px.b] {
                        out.extend_from_slice(&c.to_le_bytes());
                    }
                }
            }
        }
        WireMode::Quantized => {
            let mut planes = Vec::with_capacity(pixels * 6);
            for (_, buf) in tiles {
                let bounds = channel_bounds(buf);
                for (lo, hi) in bounds {
                    out.extend_from_slice(&lo.to_le_bytes());
                    out.extend_from_slice(&hi.to_le_bytes());
                }
                for px in buf {
                    for (c, (lo, hi)) in [px.r, px.g, px.b].into_iter().zip(bounds) {
                        planes.extend_from_slice(&quantize(c, lo, hi).to_le_bytes());
                    }
                }
            }
            let coded = entropy_encode(&planes);
            out.extend_from_slice(&(planes.len() as u32).to_le_bytes());
            out.extend_from_slice(&(coded.len() as u32).to_le_bytes());
            out.extend_from_slice(&coded);
        }
    }
    out
}

fn decode_delta_body<R: Read>(r: &mut R) -> io::Result<(FrameDelta, WireMode)> {
    let mode = WireMode::from_tag(read_u8(r)?)?;
    let epoch = read_u64(r)?;
    let width = read_u32(r)? as usize;
    let height = read_u32(r)? as usize;
    if width == 0 || height == 0 {
        return Err(bad_data("zero-sized frame"));
    }
    // No tile of a frame this size has a pixel count that overflows.
    if !matches!(width.checked_mul(height), Some(p) if p <= MAX_FRAME_PIXELS) {
        return Err(bad_data("frame over MAX_FRAME_BYTES"));
    }
    let ntiles = read_u32(r)? as usize;
    // Tiles may repeat or overlap, so their total is bounded on its own: the
    // quantized plane block is sized by it.
    let mut pixels = 0usize;
    let rects = read_counted(r, ntiles, |r| {
        let tile = Tile {
            x0: read_u32(r)? as usize,
            y0: read_u32(r)? as usize,
            x1: read_u32(r)? as usize,
            y1: read_u32(r)? as usize,
        };
        if tile.x0 >= tile.x1 || tile.y0 >= tile.y1 || tile.x1 > width || tile.y1 > height {
            return Err(bad_data("tile outside the frame"));
        }
        pixels = match pixels.checked_add(tile.pixel_count()) {
            Some(p) if p <= MAX_FRAME_PIXELS => p,
            _ => return Err(bad_data("tiles hold more pixels than a frame")),
        };
        Ok(tile)
    })?;
    let mut tiles = Vec::with_capacity(rects.len());
    match mode {
        WireMode::Lossless => {
            for tile in rects {
                let buf = read_counted(r, tile.pixel_count(), |r| {
                    Ok(Rgb::new(read_f64(r)?, read_f64(r)?, read_f64(r)?))
                })?;
                tiles.push((tile, buf));
            }
        }
        WireMode::Quantized => {
            // Frame layout interleaves each tile's bounds ahead of the
            // shared plane block, so bounds all parse first.
            let bounds = read_counted(r, rects.len(), |r| {
                let mut b = [(0.0, 0.0); 3];
                for ch in &mut b {
                    *ch = (read_f64(r)?, read_f64(r)?);
                }
                Ok(b)
            })?;
            let raw_len = read_u32(r)? as usize;
            let coded_len = read_u32(r)? as usize;
            if raw_len != pixels * 6 {
                return Err(bad_data("quantized plane length mismatch"));
            }
            let mut coded = Vec::new();
            read_bytes(r, coded_len, &mut coded)
                .map_err(|_| bad_data("coded planes longer than their frame"))?;
            let planes = entropy_decode(&coded, raw_len)?;
            let mut quanta = planes
                .chunks_exact(2)
                .map(|q| u16::from_le_bytes([q[0], q[1]]));
            for (tile, b) in rects.into_iter().zip(bounds) {
                let px = |_| {
                    let ch = b.map(|(lo, hi)| {
                        let q = quanta.next().expect("raw_len is six bytes a pixel");
                        dequantize(q, lo, hi)
                    });
                    Rgb::new(ch[0], ch[1], ch[2])
                };
                tiles.push((tile, (0..tile.pixel_count()).map(px).collect()));
            }
        }
    }
    let delta = FrameDelta {
        epoch,
        width,
        height,
        tiles,
    };
    Ok((delta, mode))
}

// ---------------------------------------------------------------------------
// Subscribe and error frames
// ---------------------------------------------------------------------------

/// Encodes a subscribe request as a `PHOTSTRM1` frame body.
pub fn encode_subscribe(req: &SubscribeFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    write_header(&mut out, KIND_SUBSCRIBE);
    out.extend_from_slice(&req.scene.to_le_bytes());
    out.push(req.mode.tag());
    let cam = &req.camera;
    for v in [cam.eye, cam.target, cam.up] {
        for c in [v.x, v.y, v.z] {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
    out.extend_from_slice(&cam.vfov_deg.to_le_bytes());
    out.extend_from_slice(&(cam.width as u32).to_le_bytes());
    out.extend_from_slice(&(cam.height as u32).to_le_bytes());
    out
}

fn decode_subscribe_body<R: Read>(r: &mut R) -> io::Result<SubscribeFrame> {
    let scene = read_u32(r)?;
    let mode = WireMode::from_tag(read_u8(r)?)?;
    let mut vecs = [Vec3::ZERO; 3];
    for v in &mut vecs {
        *v = Vec3::new(read_f64(r)?, read_f64(r)?, read_f64(r)?);
    }
    let camera = Camera {
        eye: vecs[0],
        target: vecs[1],
        up: vecs[2],
        vfov_deg: read_f64(r)?,
        width: read_u32(r)? as usize,
        height: read_u32(r)? as usize,
    };
    // A frame that could never be written is refused here, before a peer's
    // eight bytes make the server's one dispatcher build the tile list and
    // render it.
    camera.validate().map_err(bad_data)?;
    Ok(SubscribeFrame {
        scene,
        mode,
        camera,
    })
}

/// Encodes a refusal message as a `PHOTSTRM1` frame body.
pub fn encode_error(msg: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + msg.len());
    write_header(&mut out, KIND_ERROR);
    out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    out.extend_from_slice(msg.as_bytes());
    out
}

fn decode_error_body<R: Read>(r: &mut R) -> io::Result<String> {
    let len = read_u32(r)? as usize;
    let mut bytes = Vec::new();
    read_bytes(r, len, &mut bytes).map_err(|_| bad_data("error message longer than its frame"))?;
    String::from_utf8(bytes).map_err(|_| bad_data("error message is not UTF-8"))
}

// ---------------------------------------------------------------------------
// Quantization
// ---------------------------------------------------------------------------

/// Per-channel `(min, max)` over a tile's pixels.
fn channel_bounds(buf: &[Rgb]) -> [(f64, f64); 3] {
    let mut b = [(f64::INFINITY, f64::NEG_INFINITY); 3];
    for px in buf {
        for (ch, c) in b.iter_mut().zip([px.r, px.g, px.b]) {
            ch.0 = ch.0.min(c);
            ch.1 = ch.1.max(c);
        }
    }
    if buf.is_empty() {
        return [(0.0, 0.0); 3];
    }
    b
}

fn quantize(v: f64, lo: f64, hi: f64) -> u16 {
    if hi <= lo {
        return 0;
    }
    (((v - lo) / (hi - lo) * 65535.0).round()).clamp(0.0, 65535.0) as u16
}

fn dequantize(q: u16, lo: f64, hi: f64) -> f64 {
    if hi <= lo {
        return lo;
    }
    lo + q as f64 / 65535.0 * (hi - lo)
}

/// The worst-case roundtrip error of one channel quantized over `[lo, hi]`:
/// half a quantization step.
pub fn quantization_error_bound(lo: f64, hi: f64) -> f64 {
    if hi <= lo {
        0.0
    } else {
        (hi - lo) / 65535.0 * 0.5
    }
}

// ---------------------------------------------------------------------------
// Adaptive order-0 range coder (carryless, Subbotin style)
// ---------------------------------------------------------------------------
//
// The coder narrows `[low, low + range)` by a symbol's `(cum, freq)` out of
// the model's `total`, and those three numbers are all it ever sees of the
// model. The model keeps them in two levels — 256 frequencies under 16 block
// sums — so finding a symbol's span costs at most 30 steps where a flat
// table costs 255, and since the numbers it returns are the flat table's
// own, the coded bytes cannot tell the difference.

const RC_TOP: u32 = 1 << 24;
const RC_BOT: u32 = 1 << 16;

/// Adaptive order-0 byte model: per-symbol frequencies, incremented on
/// every coded byte and halved when the total nears the coder's precision
/// limit. Encoder and decoder evolve the model identically, so no table
/// ships on the wire.
///
/// Two levels: `block[b]` is the sum of the sixteen frequencies
/// `freq[16 * b..16 * b + 16]`, and `total` the sum of the blocks — every
/// method leaves both true. A cumulative frequency is then whole blocks plus
/// a partial run of entries; it is the same sum of the same `freq` entries a
/// scan from symbol 0 would make, so `(cum, freq, total)` for every symbol —
/// and with them every coded byte — are those of a flat 256-entry table
/// (`tests::LinearModel`, which the tests hold this one to).
struct ByteModel {
    freq: [u32; 256],
    block: [u32; 16],
    total: u32,
}

impl ByteModel {
    fn new() -> Self {
        ByteModel {
            freq: [1; 256],
            block: [16; 16],
            total: 256,
        }
    }

    /// `(cumulative frequency below sym, sym's frequency)`.
    fn span(&self, sym: u8) -> (u32, u32) {
        let sym = sym as usize;
        // Two contiguous slice sums, which the compiler reduces with vector
        // adds; a masked fixed-length sum measured slower than the flat scan.
        let blocks: u32 = self.block[..sym >> 4].iter().sum();
        let entries: u32 = self.freq[sym & !15..sym].iter().sum();
        (blocks + entries, self.freq[sym])
    }

    /// The symbol whose span covers cumulative value `target`, which must be
    /// below `total`: some block and some entry in it then cover `target`,
    /// so neither walk needs to test its last candidate.
    fn symbol_at(&self, target: u32) -> (u8, u32, u32) {
        debug_assert!(target < self.total);
        let mut cum = 0u32;
        let mut b = 0;
        while b < 15 && target >= cum + self.block[b] {
            cum += self.block[b];
            b += 1;
        }
        let run = &self.freq[b << 4..][..16];
        let mut k = 0;
        while k < 15 && target >= cum + run[k] {
            cum += run[k];
            k += 1;
        }
        ((b << 4 | k) as u8, cum, run[k])
    }

    fn update(&mut self, sym: u8) {
        self.freq[sym as usize] += 32;
        self.block[sym as usize >> 4] += 32;
        self.total += 32;
        if self.total >= RC_BOT {
            self.total = 0;
            for (block, run) in self.block.iter_mut().zip(self.freq.chunks_exact_mut(16)) {
                *block = 0;
                for f in run {
                    *f -= *f >> 1; // halve, floor 1
                    *block += *f;
                }
                self.total += *block;
            }
        }
    }
}

/// Compresses `bytes` with the adaptive model. Deterministic: equal input,
/// equal output.
pub fn entropy_encode(bytes: &[u8]) -> Vec<u8> {
    let mut model = ByteModel::new();
    let mut low: u32 = 0;
    let mut range: u32 = u32::MAX;
    let mut out = Vec::with_capacity(bytes.len() / 2 + 16);
    for &sym in bytes {
        let (cum, freq) = model.span(sym);
        let r = range / model.total;
        low = low.wrapping_add(r.wrapping_mul(cum));
        range = r * freq;
        loop {
            if (low ^ low.wrapping_add(range)) < RC_TOP {
                // Top byte settled.
            } else if range < RC_BOT {
                // Underflow: pin the range to the next BOT boundary.
                range = low.wrapping_neg() & (RC_BOT - 1);
            } else {
                break;
            }
            out.push((low >> 24) as u8);
            low <<= 8;
            range <<= 8;
        }
        model.update(sym);
    }
    for _ in 0..4 {
        out.push((low >> 24) as u8);
        low <<= 8;
    }
    out
}

/// Decompresses an [`entropy_encode`] stream back into `expect_len` bytes.
pub fn entropy_decode(coded: &[u8], expect_len: usize) -> io::Result<Vec<u8>> {
    let mut model = ByteModel::new();
    let mut low: u32 = 0;
    let mut range: u32 = u32::MAX;
    // The encoder writes one byte per renormalisation and four to flush; the
    // decoder reads in the same places, so a valid block is read exactly to
    // its end and a short one must not be padded into `expect_len` bytes.
    let mut rest = coded.iter();
    let mut next_byte = || {
        rest.next()
            .copied()
            .ok_or_else(|| bad_data("range-coded block truncated"))
    };
    let mut code: u32 = 0;
    for _ in 0..4 {
        code = (code << 8) | next_byte()? as u32;
    }
    let mut out = Vec::with_capacity(expect_len.min(RESERVE_BYTES));
    for _ in 0..expect_len {
        let r = range / model.total;
        let target = (code.wrapping_sub(low) / r).min(model.total - 1);
        let (sym, cum, freq) = model.symbol_at(target);
        low = low.wrapping_add(r.wrapping_mul(cum));
        range = r * freq;
        loop {
            if (low ^ low.wrapping_add(range)) < RC_TOP {
            } else if range < RC_BOT {
                range = low.wrapping_neg() & (RC_BOT - 1);
            } else {
                break;
            }
            code = (code << 8) | next_byte()? as u32;
            low <<= 8;
            range <<= 8;
        }
        model.update(sym);
        out.push(sym);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::tiles;
    use proptest::prelude::*;
    use std::io::Cursor;

    /// The model as one flat table, every cumulative frequency a scan from
    /// symbol 0: what `ByteModel` was before it grew block sums, kept as the
    /// reference its `(cum, freq, total)` are held to.
    struct LinearModel {
        freq: [u32; 256],
        total: u32,
    }

    impl LinearModel {
        fn new() -> Self {
            LinearModel {
                freq: [1; 256],
                total: 256,
            }
        }

        fn span(&self, sym: u8) -> (u32, u32) {
            let cum = self.freq[..sym as usize].iter().sum();
            (cum, self.freq[sym as usize])
        }

        fn symbol_at(&self, target: u32) -> (u8, u32, u32) {
            let mut cum = 0u32;
            for (sym, &f) in self.freq.iter().enumerate() {
                if target < cum + f {
                    return (sym as u8, cum, f);
                }
                cum += f;
            }
            (255, self.total - self.freq[255], self.freq[255])
        }

        fn update(&mut self, sym: u8) {
            self.freq[sym as usize] += 32;
            self.total += 32;
            if self.total >= RC_BOT {
                self.total = 0;
                for f in &mut self.freq {
                    *f -= *f >> 1; // halve, floor 1
                    self.total += *f;
                }
            }
        }
    }

    /// Drives both models through `stream`: after every update `total` and
    /// the coded symbol's span agree, and at every 257th step — a stride
    /// that lands on every phase of the 16-entry blocks and on both sides
    /// of a halving — so does `symbol_at` for every target below `total`.
    fn models_agree(name: &str, stream: &[u8]) -> Result<(), String> {
        let mut model = ByteModel::new();
        let mut linear = LinearModel::new();
        let mut halvings = 0;
        for (step, &sym) in stream.iter().enumerate() {
            let before = model.total;
            model.update(sym);
            linear.update(sym);
            halvings += usize::from(model.total < before);
            prop_assert_eq!(model.total, linear.total, "{name}: total at step {step}");
            prop_assert_eq!(
                model.span(sym),
                linear.span(sym),
                "{name}: span of {sym} at step {step}"
            );
            if step % 257 == 0 {
                for target in 0..model.total {
                    prop_assert_eq!(
                        model.symbol_at(target),
                        linear.symbol_at(target),
                        "{name}: symbol_at({target}) at step {step}"
                    );
                }
            }
        }
        prop_assert!(halvings >= 3, "{name}: only {halvings} halvings");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn two_level_model_matches_the_linear_scan(
            noise in proptest::collection::vec(0u32..1 << 16, 8_000..10_000),
            hot in 0u32..256,
            start in 0u32..1 << 16,
        ) {
            let len = noise.len();
            let uniform: Vec<u8> = noise.iter().map(|&n| n as u8).collect();
            // Nine symbols in ten are `hot`, whichever block it falls in.
            let skewed: Vec<u8> = noise
                .iter()
                .map(|&n| if n % 10 == 0 { (n >> 8) as u8 } else { hot as u8 })
                .collect();
            // What a quantized plane block looks like: a slow high byte
            // interleaved with a low byte that cycles through every symbol.
            let ramp: Vec<u8> = (0..len as u32 / 2)
                .flat_map(|i| ((start + i) as u16).to_le_bytes())
                .collect();
            models_agree("uniform", &uniform)?;
            models_agree("skewed", &skewed)?;
            models_agree("all 0xFF", &vec![0xFF; len])?;
            models_agree("all 0x00", &vec![0x00; len])?;
            models_agree("16-bit ramp", &ramp)?;
        }
    }

    fn ramp_pixels(tile: Tile) -> Vec<Rgb> {
        (0..tile.pixel_count())
            .map(|i| {
                let t = i as f64 / tile.pixel_count().max(1) as f64;
                Rgb::new(t, 1.0 - t, 0.25 + t * 0.5)
            })
            .collect()
    }

    fn sample_tiles(width: usize, height: usize) -> Vec<(Tile, Vec<Rgb>)> {
        tiles(width, height, 8)
            .into_iter()
            .step_by(2)
            .map(|t| (t, ramp_pixels(t)))
            .collect()
    }

    #[test]
    fn entropy_coder_round_trips() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![255; 10_000],
            (0..=255u8).cycle().take(5_000).collect(),
            (0..20_000u32)
                .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
                .collect(),
            b"aaaaabbbbbcccccaaaaa".to_vec(),
        ];
        for raw in cases {
            let coded = entropy_encode(&raw);
            let back = entropy_decode(&coded, raw.len()).unwrap();
            assert_eq!(back, raw, "roundtrip failed for {} bytes", raw.len());
            assert_eq!(
                coded,
                entropy_encode(&raw),
                "encoding must be deterministic"
            );
        }
    }

    #[test]
    fn entropy_coder_compresses_skewed_input() {
        let raw = vec![7u8; 100_000];
        let coded = entropy_encode(&raw);
        assert!(
            coded.len() < raw.len() / 20,
            "constant input barely compressed: {} bytes",
            coded.len()
        );
    }

    #[test]
    fn lossless_delta_round_trips_bit_identically() {
        let tiles = sample_tiles(40, 24);
        let body = encode_delta(9, 40, 24, &tiles, WireMode::Lossless);
        let WireFrame::Delta(delta, mode) = decode_frame(&body).unwrap() else {
            panic!("wrong frame kind");
        };
        assert_eq!(delta.epoch, 9);
        assert_eq!((delta.width, delta.height), (40, 24));
        assert_eq!(mode, WireMode::Lossless);
        assert_eq!(delta.tiles.len(), tiles.len());
        for ((ta, ba), (tb, bb)) in delta.tiles.iter().zip(&tiles) {
            assert_eq!(ta, tb);
            assert_eq!(ba, bb, "lossless pixels must be bit-identical");
        }
    }

    #[test]
    fn quantized_delta_error_is_bounded_and_deterministic() {
        let tiles = sample_tiles(40, 24);
        let body = encode_delta(3, 40, 24, &tiles, WireMode::Quantized);
        assert_eq!(
            body,
            encode_delta(3, 40, 24, &tiles, WireMode::Quantized),
            "quantized encoding must be deterministic"
        );
        let WireFrame::Delta(delta, _) = decode_frame(&body).unwrap() else {
            panic!("wrong frame kind");
        };
        for ((_, orig), (_, back)) in tiles.iter().zip(&delta.tiles) {
            let bounds = channel_bounds(orig);
            for (o, b) in orig.iter().zip(back) {
                for ((oc, bc), (lo, hi)) in
                    [(o.r, b.r), (o.g, b.g), (o.b, b.b)].into_iter().zip(bounds)
                {
                    let tol = quantization_error_bound(lo, hi) * (1.0 + 1e-9);
                    assert!(
                        (oc - bc).abs() <= tol,
                        "channel error {} over bound {}",
                        (oc - bc).abs(),
                        tol
                    );
                }
            }
        }
        // Decoding the decoded pixels' re-encode is a fixed point: the
        // quantized values themselves roundtrip exactly.
        let again = encode_delta(3, 40, 24, &delta.tiles, WireMode::Quantized);
        let WireFrame::Delta(twice, _) = decode_frame(&again).unwrap() else {
            panic!("wrong frame kind");
        };
        for ((_, a), (_, b)) in delta.tiles.iter().zip(&twice.tiles) {
            assert_eq!(a, b, "quantized values must be a roundtrip fixed point");
        }
    }

    #[test]
    fn empty_delta_round_trips() {
        for mode in [WireMode::Lossless, WireMode::Quantized] {
            let body = encode_delta(5, 16, 16, &[], mode);
            let WireFrame::Delta(delta, _) = decode_frame(&body).unwrap() else {
                panic!("wrong frame kind");
            };
            assert_eq!(delta.epoch, 5);
            assert!(delta.tiles.is_empty());
        }
    }

    #[test]
    fn subscribe_round_trips() {
        let req = SubscribeFrame {
            scene: 42,
            mode: WireMode::Quantized,
            camera: Camera {
                eye: Vec3::new(1.0, 2.5, -4.0),
                target: Vec3::new(0.0, 0.5, 0.0),
                up: Vec3::Y,
                vfov_deg: 50.0,
                width: 96,
                height: 72,
            },
        };
        let body = encode_subscribe(&req);
        let WireFrame::Subscribe(back) = decode_frame(&body).unwrap() else {
            panic!("wrong frame kind");
        };
        assert_eq!(back.scene, 42);
        assert_eq!(back.mode, WireMode::Quantized);
        assert_eq!(back.camera.eye, req.camera.eye);
        assert_eq!(back.camera.target, req.camera.target);
        assert_eq!(back.camera.up, req.camera.up);
        assert_eq!(back.camera.vfov_deg, req.camera.vfov_deg);
        assert_eq!(
            (back.camera.width, back.camera.height),
            (req.camera.width, req.camera.height)
        );
    }

    #[test]
    fn error_frame_round_trips() {
        let body = encode_error("scene 7 not registered");
        let WireFrame::Error(msg) = decode_frame(&body).unwrap() else {
            panic!("wrong frame kind");
        };
        assert_eq!(msg, "scene 7 not registered");
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let tiles = sample_tiles(16, 16);
        let good = encode_delta(1, 16, 16, &tiles, WireMode::Lossless);
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(decode_frame(&bad).is_err());
        // Bad version.
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(decode_frame(&bad).is_err());
        // Unknown kind.
        let mut bad = good.clone();
        bad[9] = 77;
        assert!(decode_frame(&bad).is_err());
        // Truncation.
        assert!(decode_frame(&good[..good.len() - 1]).is_err());
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(decode_frame(&bad).is_err());
        // Tile outside the claimed frame: shrink the declared width.
        let mut bad = good.clone();
        bad[19..23].copy_from_slice(&4u32.to_le_bytes());
        assert!(decode_frame(&bad).is_err());
    }

    #[test]
    fn framing_round_trips_and_rejects_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = Cursor::new(buf.as_slice());
        assert_eq!(read_frame(&mut cur).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap(), b"");
        assert!(
            read_frame(&mut cur).is_err(),
            "EOF must surface as an error"
        );
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(read_frame(&mut Cursor::new(huge.as_slice())).is_err());
    }

    #[test]
    fn an_oversized_payload_is_an_error_and_writes_nothing() {
        // Never touched, so the zeroed 256 MiB cost no memory.
        let payload = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        let mut out = Vec::new();
        let err = write_frame(&mut out, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
    }

    #[test]
    fn a_lying_inner_length_is_refused_before_allocating() {
        // An 18-byte ERROR frame claiming a 256 MiB message: refused as
        // bad data on the claim, not `UnexpectedEof` after allocating it.
        let mut lie = Vec::new();
        write_header(&mut lie, KIND_ERROR);
        lie.extend_from_slice(&MAX_FRAME_BYTES.to_le_bytes());
        lie.extend_from_slice(b"oops");
        assert_eq!(lie.len(), 18);
        let err = decode_frame(&lie).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Same for the coded-plane length of an (empty) quantized delta.
        let mut lie = encode_delta(1, 8, 8, &[], WireMode::Quantized);
        let at = lie.len() - 8; // the length field, then four coded bytes
        lie[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_frame(&lie).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A quantized `KIND_DELTA` frame of `width × height` whose tiles are
    /// `rects` (`[x0, y0, x1, y1]`), claiming `raw_len` plane bytes behind
    /// `coded` — what a peer can send, not what [`encode_delta`] writes.
    fn forged_quantized_delta(
        (width, height): (u32, u32),
        rects: &[[u32; 4]],
        raw_len: u32,
        coded: &[u8],
    ) -> Vec<u8> {
        let mut frame = Vec::new();
        write_header(&mut frame, KIND_DELTA);
        frame.push(WireMode::Quantized.tag());
        frame.extend_from_slice(&1u64.to_le_bytes());
        for v in [width, height, rects.len() as u32] {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        for v in rects.iter().flatten() {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        for _ in 0..rects.len() * 6 {
            frame.extend_from_slice(&0f64.to_le_bytes());
        }
        frame.extend_from_slice(&raw_len.to_le_bytes());
        frame.extend_from_slice(&(coded.len() as u32).to_le_bytes());
        frame.extend_from_slice(coded);
        frame
    }

    /// How `decode_frame` refuses `frame` (a frame it takes instead is
    /// kept out of the panic message: it can be megabytes of pixels).
    fn refusal(frame: &[u8]) -> io::ErrorKind {
        decode_frame(frame).map(|_| ()).unwrap_err().kind()
    }

    #[test]
    fn tile_geometry_that_wraps_the_plane_length_is_refused() {
        // Two tiles of a `u32::MAX`-square frame holding (2^64 + 2) / 6
        // pixels between them: six bytes a pixel wraps to a plane length
        // of 2, which a two-byte block honestly delivers.
        let side = u32::MAX;
        let pixels = ((1u128 << 64) + 2) / 6;
        let rows = (pixels / side as u128) as u32;
        let rest = (pixels % side as u128) as u32;
        let coded = entropy_encode(&[0, 0]);
        let lie = forged_quantized_delta(
            (side, side),
            &[[0, 0, side, rows], [0, 0, rest, 1]],
            2,
            &coded,
        );
        assert_eq!(lie.len(), 172);
        assert_eq!(refusal(&lie), io::ErrorKind::InvalidData);
        // Inside a frame of legal size the same tile twice is over the bound
        // too: the plane block is sized by the tiles' total.
        let (width, height) = (4096, (MAX_FRAME_PIXELS / 4096) as u32);
        let full = [0, 0, width, height];
        let claim = width * height * 2 * 6;
        let lie = forged_quantized_delta((width, height), &[full, full], claim, &[0; 4]);
        assert_eq!(refusal(&lie), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_short_code_block_is_not_padded_into_its_claim() {
        // Four bytes of code behind a 24 MB claim: the decoder stops at the
        // first byte it needs and does not have, instead of reading zeros
        // until the claim is met.
        let claim = 2048 * 2048 * 6;
        let err = entropy_decode(&[0; 4], claim)
            .map(|planes| planes.len())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The same through the frame decoder, where the claim is consistent
        // with the tile list and only the block is short.
        let lie =
            forged_quantized_delta((2048, 2048), &[[0, 0, 2048, 2048]], claim as u32, &[0; 4]);
        assert_eq!(refusal(&lie), io::ErrorKind::InvalidData);
        // A block cut anywhere short of its end is refused; whole, it decodes.
        let raw: Vec<u8> = (0..4_000u32).map(|i| ((i * i) >> 5) as u8).collect();
        let coded = entropy_encode(&raw);
        for cut in [0, 3, 4, coded.len() / 2, coded.len() - 1] {
            assert!(entropy_decode(&coded[..cut], raw.len()).is_err(), "{cut}");
        }
        assert_eq!(entropy_decode(&coded, raw.len()).unwrap(), raw);
    }

    #[test]
    fn a_camera_no_frame_could_carry_is_refused_at_decode() {
        let mut req = SubscribeFrame {
            scene: 0,
            mode: WireMode::Lossless,
            camera: Camera {
                eye: Vec3::new(0.0, 0.0, -1.0),
                target: Vec3::ZERO,
                up: Vec3::Y,
                vfov_deg: 40.0,
                width: 4096,
                height: MAX_FRAME_BYTES as usize / std::mem::size_of::<Rgb>() / 4096,
            },
        };
        assert!(
            decode_frame(&encode_subscribe(&req)).is_ok(),
            "at the bound"
        );
        req.camera.height += 1;
        assert!(
            decode_frame(&encode_subscribe(&req)).is_err(),
            "one row over"
        );
        // The product of the two largest `u32`s overflows nothing.
        (req.camera.width, req.camera.height) = (u32::MAX as usize, u32::MAX as usize);
        assert!(decode_frame(&encode_subscribe(&req)).is_err());
    }

    #[test]
    fn a_lying_length_prefix_cannot_make_the_reader_allocate() {
        // The largest length the framing accepts, then ten bytes and EOF.
        let mut lie = MAX_FRAME_BYTES.to_le_bytes().to_vec();
        lie.extend_from_slice(&[7u8; 10]);
        let err = read_frame(&mut Cursor::new(lie.as_slice())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Same read, buffer in hand: it never grew past the reservation cap.
        let mut payload = Vec::new();
        let err = read_bytes(
            &mut Cursor::new(&lie[4..]),
            MAX_FRAME_BYTES as usize,
            &mut payload,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(payload, [7u8; 10]);
        assert!(payload.capacity() <= RESERVE_BYTES);
    }
}
