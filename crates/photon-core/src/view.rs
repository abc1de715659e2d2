//! Viewing: single-step ray trace against the stored answer (ch. 4,
//! Figs 4.9/4.10).
//!
//! "Rays go to first visible surface only": each pixel casts one ray; at the
//! first hit the displayed color is the stored radiance of the bin a photon
//! *leaving* the surface toward the eye would have been tallied into. No
//! recursion, no shading model — the global illumination already lives in
//! the bin forest, so any number of viewpoints render from one answer file.
//!
//! *Which* patch a pixel sees depends on scene and camera alone; only the
//! radiance stored there changes as a solve refines. An [`ItemBuffer`]
//! remembers the first, and the slot of the bin-tree leaf the pixel's bin
//! point reached, for the answer it last rendered. A later render of the
//! view ([`ItemFrame`]) reads a pixel whose leaf is still a leaf of the new
//! answer's tree straight from that leaf's slot there — no ray, no patch
//! test, no descent — and re-tests the remembered patch for every pixel
//! whose leaf split instead of searching the octree.
//!
//! Neighbouring pixels mostly read one bin: the tile loop keeps the last
//! leaf it shaded (its patch, that tree's `photon_hist::LeafCursor`, its
//! radiance), and a pixel on the same patch whose bin point the leaf
//! admits reuses the radiance — no descent, no division, and for a leaf
//! whose path never split on `θ` or `r²` no eye direction at all, since
//! only `s, t` decide it. No bit can move: admission is the bin tree's
//! descend-equivalent containment test, and a leaf's radiance depends on
//! the leaf alone, never on the point looked up.

use crate::answer::{Answer, LastLeaf};
use crate::img::Image;
use crate::wire::MAX_FRAME_BYTES;
use photon_geom::{Scene, SceneHit};
use photon_math::{Ray, Rgb, Vec3};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A pinhole camera.
#[derive(Clone, Copy, Debug)]
pub struct Camera {
    /// Eye position.
    pub eye: Vec3,
    /// Point looked at.
    pub target: Vec3,
    /// Up hint.
    pub up: Vec3,
    /// Vertical field of view in degrees.
    pub vfov_deg: f64,
    /// Output width in pixels.
    pub width: usize,
    /// Output height in pixels.
    pub height: usize,
}

impl Camera {
    /// The primary ray through the center of pixel `(x, y)`.
    pub fn ray(&self, x: usize, y: usize) -> Ray {
        self.basis().ray(x, y)
    }

    /// The pose's ten `f64`s — eye, target, up, `vfov_deg` — by `to_bits`:
    /// what tells two cameras' rays apart exactly (one ulp of the eye, or
    /// `-0.0` for `0.0`, already changes `Ray::inv_dir`).
    pub fn pose_bits(&self) -> [u64; 10] {
        let (e, t, u) = (self.eye, self.target, self.up);
        [e.x, e.y, e.z, t.x, t.y, t.z, u.x, u.y, u.z, self.vfov_deg].map(f64::to_bits)
    }

    /// Everything [`Camera::ray`] needs that no pixel changes.
    fn basis(&self) -> Basis {
        let w = (self.eye - self.target).normalized(); // backward
        let u = self.up.cross(w).normalized();
        let v = w.cross(u);
        let aspect = self.width as f64 / self.height as f64;
        let half_h = (self.vfov_deg.to_radians() * 0.5).tan();
        Basis {
            eye: self.eye,
            u,
            v,
            w,
            half_w: half_h * aspect,
            half_h,
            width: self.width as f64,
            height: self.height as f64,
        }
    }

    /// Refuses a camera that could never be rendered or shipped, with the
    /// reason: no pixels, or more than one [`crate::wire`] frame carries
    /// (`MAX_FRAME_BYTES` of `Rgb`s; the bootstrap delta of a lit view holds
    /// every pixel); a non-finite `eye`, `target`, `up` or `vfov_deg`, or a
    /// field of view outside (0°, 180°); or no view basis — `eye` on
    /// `target`, or `up` zero or along the view, where [`Vec3::normalized`]
    /// would fall back to `Z` and every ray go one way. Every door a camera
    /// comes in by — the subscribe decoder, the render service — checks it
    /// before anything is sized by `width * height`, rendered or cached.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.width == 0 || self.height == 0 {
            return Err("camera has zero pixel area");
        }
        let max_pixels = MAX_FRAME_BYTES as usize / std::mem::size_of::<Rgb>();
        if !matches!(self.width.checked_mul(self.height), Some(p) if p <= max_pixels) {
            return Err("camera frame over MAX_FRAME_BYTES");
        }
        let finite = |v: Vec3| v.x.is_finite() && v.y.is_finite() && v.z.is_finite();
        if ![self.eye, self.target, self.up].into_iter().all(finite) || !self.vfov_deg.is_finite() {
            return Err("camera has a non-finite coordinate");
        }
        if !(self.vfov_deg > 0.0 && self.vfov_deg < 180.0) {
            return Err("camera field of view outside (0, 180) degrees");
        }
        // What `basis` normalizes must have a length it can divide by.
        let normalizable = |v: Vec3| v.length_sq() > 0.0 && v.length_sq().is_finite();
        let back = self.eye - self.target;
        if !normalizable(back) || !normalizable(self.up.cross(back.normalized())) {
            return Err("camera has no view basis: eye on target, or up zero or along the view");
        }
        Ok(())
    }
}

/// The per-camera half of [`Camera::ray`], so a tile computes it once.
#[derive(Clone, Copy)]
struct Basis {
    eye: Vec3,
    u: Vec3,
    v: Vec3,
    w: Vec3,
    half_w: f64,
    half_h: f64,
    width: f64,
    height: f64,
}

impl Basis {
    fn ray(&self, x: usize, y: usize) -> Ray {
        let px = (x as f64 + 0.5) / self.width * 2.0 - 1.0;
        let py = 1.0 - (y as f64 + 0.5) / self.height * 2.0;
        let dir = (self.u * (px * self.half_w) + self.v * (py * self.half_h) - self.w).normalized();
        Ray::new(self.eye, dir)
    }
}

/// The item buffer of one view (Weghorst, Hooper & Greenberg 1984): per
/// pixel, the id of the patch its camera ray meets first and the slot of
/// the bin-tree leaf its bin point reached, plus the answer those slots
/// are exact for (the *stamp*).
///
/// The id is a function of scene and camera alone, so a buffer filled by
/// one render serves every later render of the *same camera over the same
/// scene*, whatever answer is looked up: a known pixel re-runs the patch
/// test on the remembered patch ([`Scene::intersect_patch`]) and gets the
/// traversal's hit back bit for bit; an unknown one searches the octree and
/// records the winner. The hit, and so the pixel's bin point, is then
/// fixed too, so wherever the stamp's leaf is still a leaf of the tree in
/// the answer being rendered ([`photon_hist::BinTree::leaf_remap`]) the
/// point lands in that leaf, and the pixel is its radiance — read by slot,
/// without the ray ([`ItemFrame`]). Keeping a buffer with its scene is the
/// holder's job; the camera is checked bit for bit.
///
/// 8 bytes a pixel and one `Arc` of the stamp, which keeps the last answer
/// rendered through the buffer alive until the next render replaces it; a
/// frame adds 4 bytes per stamp leaf of each changed patch it sees, and
/// drops them when it ends.
/// Pixels are independent and each entry is a relaxed atomic, so the tiles
/// of one frame fill one shared buffer from several threads, and a render
/// that stops half way leaves a valid, partly filled buffer with no stamp.
#[derive(Debug)]
pub struct ItemBuffer {
    camera: Camera,
    ids: Vec<AtomicU32>,
    slots: Vec<AtomicU32>,
    stamp: Mutex<Option<Arc<Answer>>>,
}

/// The ray left the scene: nothing to shade, ever.
const LEFT_SCENE: u32 = u32::MAX;
/// Not traced yet. Any id the scene does not have reads the same way.
const UNTRACED: u32 = u32::MAX - 1;
/// No leaf slot recorded: the pixel was never shaded, or left the scene.
const NO_SLOT: u32 = u32::MAX;

impl ItemBuffer {
    /// An empty buffer for `camera`'s frame: 8 bytes a pixel, no stamp.
    pub fn new(camera: &Camera) -> Self {
        let pixels = camera.width * camera.height;
        let filled = |value| (0..pixels).map(|_| AtomicU32::new(value)).collect();
        ItemBuffer {
            camera: *camera,
            ids: filled(UNTRACED),
            slots: filled(NO_SLOT),
            stamp: Mutex::new(None),
        }
    }

    /// Opens one render of the view against `answer` over `scene`. The
    /// frame holds the buffer's stamp until it ends, so a second frame on
    /// the same buffer waits for the first. [`ItemFrame::finish`] it once
    /// every tile is rendered; a frame dropped before (a panicking tile)
    /// clears the stamp, and the next frame trusts no slot.
    pub fn frame<'a>(&'a self, scene: &'a Scene, answer: &Arc<Answer>) -> ItemFrame<'a> {
        // Only a frame holds the lock, and one that unwinds clears the stamp
        // in its `Drop` before the guard goes: a poisoned stamp is `None`.
        let mut stamp = self.stamp.lock().unwrap_or_else(PoisonError::into_inner);
        if stamp
            .as_ref()
            .is_some_and(|was| was.patch_count() != answer.patch_count())
        {
            *stamp = None;
        }
        ItemFrame {
            items: self,
            stamp,
            scene,
            answer: Arc::clone(answer),
            tables: (0..answer.patch_count()).map(|_| OnceLock::new()).collect(),
            rendered: AtomicUsize::new(0),
            reused: AtomicUsize::new(0),
            finished: false,
        }
    }

    /// First hit of `ray`, the camera ray through pixel `index`. A
    /// remembered id that misses (it was never traced, or belongs to
    /// another view) falls back to the search.
    #[inline]
    fn first_hit(&self, scene: &Scene, index: usize, ray: &Ray) -> Option<SceneHit> {
        let slot = &self.ids[index];
        let id = slot.load(Ordering::Relaxed);
        if id == LEFT_SCENE {
            return None;
        }
        if let Some(hit) = scene.intersect_patch(id, ray) {
            return Some(hit);
        }
        let hit = scene.intersect(ray, f64::INFINITY);
        slot.store(hit.map_or(LEFT_SCENE, |h| h.patch_id), Ordering::Relaxed);
        hit
    }
}

/// One render of a view through its [`ItemBuffer`], opened by
/// [`ItemBuffer::frame`]: what [`render_tile_memo`] needs to serve a pixel
/// from its leaf slot.
///
/// A *leaf* is trusted, not a tree. On the first pixel of a patch the
/// frame maps the stamp's leaf slots onto the answer's tree — the identity
/// when the trees have one shape ([`photon_hist::BinTree::same_shape`]; one
/// `Arc` twice trusts every patch), else one paired walk of the two trees
/// ([`photon_hist::BinTree::leaf_remap`]) — and, unless no leaf maps,
/// builds the answer's radiance by leaf slot. A pixel whose slot maps is
/// that entry, and its slot moves to the mapped one. No bit can move: the
/// pixel's bin point is fixed by scene and camera, paired nodes split
/// equal ranges on equal axes, so the point follows the same path in both
/// trees to the paired leaf with a bit-equal range, and a leaf's radiance
/// reads only the leaf, its range, the patch area and the answer's
/// `emitted`. A pixel whose leaf split takes the ray and records the slot
/// it reached, so a finished frame leaves every slot exact for the answer
/// it stamps.
#[derive(Debug)]
pub struct ItemFrame<'a> {
    items: &'a ItemBuffer,
    stamp: MutexGuard<'a, Option<Arc<Answer>>>,
    scene: &'a Scene,
    answer: Arc<Answer>,
    tables: Box<[SlotTable]>,
    rendered: AtomicUsize,
    reused: AtomicUsize,
    finished: bool,
}

/// One patch's entry in an [`ItemFrame`], built on first use; `None` when
/// none of the stamp's leaves is a leaf of the answer's tree.
type SlotTable = OnceLock<Option<Remap>>;

/// How a patch's pixels are read by slot in one frame.
#[derive(Debug)]
struct Remap {
    /// The stamp's slot → the answer's, `u32::MAX` for a leaf that split;
    /// `None` when the trees have one shape and every slot stays.
    slots: Option<Box<[u32]>>,
    /// The answer's radiance by its own slots.
    radiance: Box<[Rgb]>,
}

impl ItemFrame<'_> {
    /// Ends the frame and returns how many of its pixels were served from
    /// a leaf slot. Once every pixel of the view was rendered the buffer's
    /// slots are exact for this frame's answer and it becomes the stamp;
    /// after a partial frame nothing is.
    pub fn finish(mut self) -> usize {
        let whole = *self.rendered.get_mut() == self.items.ids.len();
        *self.stamp = whole.then(|| Arc::clone(&self.answer));
        self.finished = true;
        *self.reused.get_mut()
    }

    /// Pixel `index`'s radiance from its leaf slot, when its slot is known
    /// and its leaf still a leaf; the slot then becomes the answer's.
    #[inline]
    fn reused(&self, index: usize) -> Option<Rgb> {
        let stamp = self.stamp.as_ref()?;
        let id = self.items.ids[index].load(Ordering::Relaxed);
        let table = self.tables.get(id as usize)?;
        let remap = table.get_or_init(|| self.remap(stamp, id)).as_ref()?;
        let cell = &self.items.slots[index];
        let slot = cell.load(Ordering::Relaxed);
        let Some(map) = &remap.slots else {
            return remap.radiance.get(slot as usize).copied();
        };
        // An unmapped leaf, like an unknown slot, is past every table.
        let new = *map.get(slot as usize)?;
        let rgb = remap.radiance.get(new as usize).copied()?;
        cell.store(new, Ordering::Relaxed);
        Some(rgb)
    }

    /// Patch `id`'s [`Remap`] from the stamp's tree to the answer's.
    fn remap(&self, stamp: &Arc<Answer>, id: u32) -> Option<Remap> {
        let (was, now) = (stamp.tree(id), self.answer.tree(id));
        let slots = if Arc::ptr_eq(stamp, &self.answer) || was.same_shape(now) {
            None
        } else {
            let map = was.leaf_remap(now);
            if map.iter().all(|&slot| slot == u32::MAX) {
                return None;
            }
            Some(map.into_boxed_slice())
        };
        let radiance = self.answer.slot_radiance(self.scene, id);
        Some(Remap { slots, radiance })
    }
}

impl Drop for ItemFrame<'_> {
    fn drop(&mut self) {
        if !self.finished {
            *self.stamp = None;
        }
    }
}

/// Default tile side used by [`render`]'s decomposition.
pub const DEFAULT_TILE_SIZE: usize = 32;

/// A rectangular image region: pixels `[x0, x1) × [y0, y1)`.
///
/// Tiles are the unit of work shared by the serial viewer and the
/// tile-parallel serving layer (`photon-serve`): both call [`render_tile`]
/// per tile, so they produce bit-identical pixels by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// Left edge (inclusive).
    pub x0: usize,
    /// Top edge (inclusive).
    pub y0: usize,
    /// Right edge (exclusive).
    pub x1: usize,
    /// Bottom edge (exclusive).
    pub y1: usize,
}

impl Tile {
    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.x1 - self.x0
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.y1 - self.y0
    }

    /// Pixels covered.
    pub fn pixel_count(&self) -> usize {
        self.width() * self.height()
    }
}

/// Decomposes a `width × height` image into row-major tiles of side
/// `tile_size` (edge tiles may be smaller). Covers every pixel exactly once.
pub fn tiles(width: usize, height: usize, tile_size: usize) -> Vec<Tile> {
    assert!(tile_size > 0, "tile_size must be positive");
    let mut out = Vec::new();
    let mut y0 = 0;
    while y0 < height {
        let y1 = (y0 + tile_size).min(height);
        let mut x0 = 0;
        while x0 < width {
            let x1 = (x0 + tile_size).min(width);
            out.push(Tile { x0, y0, x1, y1 });
            x0 = x1;
        }
        y0 = y1;
    }
    out
}

/// Renders one tile of the view into a row-major buffer of
/// `tile.pixel_count()` values (the pixel at `(x, y)` lands at
/// `(y - tile.y0) * tile.width() + (x - tile.x0)`).
pub fn render_tile(
    scene: &Scene,
    answer: &Answer,
    camera: &Camera,
    tile: Tile,
    exposure: f64,
) -> Vec<Rgb> {
    render_tile_memo(scene, answer, camera, None, tile, exposure)
}

/// [`render_tile`] through a frame of the view's [`ItemBuffer`], when there
/// is one: the same pixels bit for bit, from the leaf slot wherever the
/// frame trusts it and without the octree wherever the buffer already
/// knows what the pixel sees. This is the only per-pixel loop. A frame
/// moves each pixel's slot to its own answer's tree as it renders it, so
/// it renders every tile once.
///
/// # Panics
/// Panics if the frame's buffer was built for another camera, or the frame
/// was opened over another scene or answer.
pub fn render_tile_memo(
    scene: &Scene,
    answer: &Answer,
    camera: &Camera,
    frame: Option<&ItemFrame>,
    tile: Tile,
    exposure: f64,
) -> Vec<Rgb> {
    if let Some(frame) = frame {
        let own = &frame.items.camera;
        assert_eq!(
            (own.width, own.height),
            (camera.width, camera.height),
            "item buffer of another frame size"
        );
        assert!(
            own.pose_bits() == camera.pose_bits(),
            "item buffer of another camera"
        );
        assert!(
            std::ptr::eq(scene, frame.scene) && std::ptr::eq(answer, &*frame.answer),
            "item frame of another scene or answer"
        );
    }
    let basis = camera.basis();
    let mut last = LastLeaf::default();
    let mut buf = Vec::with_capacity(tile.pixel_count());
    let mut reused = 0;
    for y in tile.y0..tile.y1 {
        for x in tile.x0..tile.x1 {
            let index = y * camera.width + x;
            if let Some(rgb) = frame.and_then(|frame| frame.reused(index)) {
                reused += 1;
                buf.push(rgb * exposure);
                continue;
            }
            let ray = basis.ray(x, y);
            let hit = match frame {
                Some(frame) => frame.items.first_hit(scene, index, &ray),
                None => scene.intersect(&ray, f64::INFINITY),
            };
            buf.push(seen(scene, answer, &ray, hit, &mut last) * exposure);
            if let Some(frame) = frame {
                let slot = if hit.is_some() { last.slot } else { NO_SLOT };
                frame.items.slots[index].store(slot, Ordering::Relaxed);
            }
        }
    }
    if let Some(frame) = frame {
        frame
            .rendered
            .fetch_add(tile.pixel_count(), Ordering::Relaxed);
        frame.reused.fetch_add(reused, Ordering::Relaxed);
    }
    buf
}

/// Copies a tile buffer produced by [`render_tile`] into `img`.
pub fn blit_tile(img: &mut Image, tile: Tile, buf: &[Rgb]) {
    assert_eq!(buf.len(), tile.pixel_count(), "tile buffer size mismatch");
    for y in tile.y0..tile.y1 {
        for x in tile.x0..tile.x1 {
            img.set(x, y, buf[(y - tile.y0) * tile.width() + (x - tile.x0)]);
        }
    }
}

/// Extracts `tile`'s pixels from `img` into a row-major buffer — the exact
/// format [`render_tile`] produces and [`blit_tile`] consumes, so a copied
/// tile can be shipped and blitted elsewhere unchanged.
pub fn copy_tile(img: &Image, tile: Tile) -> Vec<Rgb> {
    let mut buf = Vec::with_capacity(tile.pixel_count());
    for y in tile.y0..tile.y1 {
        for x in tile.x0..tile.x1 {
            buf.push(img.get(x, y));
        }
    }
    buf
}

/// True when any pixel inside `tile` differs between `a` and `b`.
///
/// Comparison is exact (bit-level `f64` equality): a rendered view is a
/// pure function of `(scene, answer, camera, exposure)`, so "unchanged"
/// means *identical*, and a delta protocol built on this predicate
/// reassembles frames bit-for-bit.
///
/// # Panics
/// Panics if the images differ in size.
pub fn tile_changed(a: &Image, b: &Image, tile: Tile) -> bool {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "tile diff over differently sized images"
    );
    for y in tile.y0..tile.y1 {
        for x in tile.x0..tile.x1 {
            if a.get(x, y) != b.get(x, y) {
                return true;
            }
        }
    }
    false
}

/// Tile-granular frame diff: decomposes the frame into `tile_size`-sided
/// tiles (the same decomposition [`tiles`] gives the renderer) and returns
/// the new pixels of every tile that changed between `prev` and `next`.
///
/// Blitting the returned buffers onto a copy of `prev` reproduces `next`
/// exactly — unchanged tiles are bit-identical by [`tile_changed`]'s
/// definition, changed tiles carry their full new contents. This is the
/// primitive behind `photon-serve`'s streaming views: a client holding the
/// previously sent frame needs only the changed tiles to reach the next
/// epoch's image.
///
/// # Panics
/// Panics if the images differ in size or `tile_size == 0`.
pub fn diff_tiles(prev: &Image, next: &Image, tile_size: usize) -> Vec<(Tile, Vec<Rgb>)> {
    assert_eq!(
        (prev.width(), prev.height()),
        (next.width(), next.height()),
        "frame diff over differently sized images"
    );
    tiles(next.width(), next.height(), tile_size)
        .into_iter()
        .filter(|&tile| tile_changed(prev, next, tile))
        .map(|tile| (tile, copy_tile(next, tile)))
        .collect()
}

/// Squashes an ordered sequence of tile-update runs into one run whose
/// application is bit-identical to applying every run in order.
///
/// Each run is a list of `(tile, pixels)` updates as produced by
/// [`diff_tiles`]; the runs are applied oldest first. Two updates to the
/// *same rectangle* collapse to the newest one, re-ordered to the newest
/// update's position in time, so overlapping rectangles from different
/// runs still land in the right order when the squashed run is blitted
/// front to back. The output therefore never holds a rectangle twice, and
/// its size is bounded by the number of distinct rectangles touched — not
/// by how many runs were squashed.
///
/// This is the slow-consumer coalescing primitive: a subscriber that fell
/// behind by epochs N→M receives `squash` of the missed deltas as one
/// delta, and blitting it onto the frame it last saw reproduces epoch M's
/// pixels exactly.
pub fn squash_tile_runs<I>(runs: I) -> Vec<(Tile, Vec<Rgb>)>
where
    I: IntoIterator<Item = Vec<(Tile, Vec<Rgb>)>>,
{
    let mut slots: Vec<Option<(Tile, Vec<Rgb>)>> = Vec::new();
    let mut newest: std::collections::HashMap<(usize, usize, usize, usize), usize> =
        std::collections::HashMap::new();
    for run in runs {
        for (tile, buf) in run {
            assert_eq!(buf.len(), tile.pixel_count(), "tile buffer size mismatch");
            let key = (tile.x0, tile.y0, tile.x1, tile.y1);
            if let Some(&stale) = newest.get(&key) {
                slots[stale] = None;
            }
            newest.insert(key, slots.len());
            slots.push(Some((tile, buf)));
        }
    }
    slots.into_iter().flatten().collect()
}

/// Renders the answer from a viewpoint. `exposure` scales radiance to
/// display range; use [`auto_exposure`] when unsure.
///
/// This is the serial tile loop; `photon-serve` runs the same
/// [`render_tile`] jobs across a worker pool.
pub fn render(scene: &Scene, answer: &Answer, camera: &Camera, exposure: f64) -> Image {
    let mut img = Image::new(camera.width, camera.height);
    for tile in tiles(camera.width, camera.height, DEFAULT_TILE_SIZE) {
        let buf = render_tile(scene, answer, camera, tile, exposure);
        blit_tile(&mut img, tile, &buf);
    }
    img
}

/// The color seen along one ray (before exposure).
pub fn shade(scene: &Scene, answer: &Answer, ray: &Ray) -> Rgb {
    let hit = scene.intersect(ray, f64::INFINITY);
    seen(scene, answer, ray, hit, &mut LastLeaf::default())
}

/// The color `ray` shows given its first hit, however that was found;
/// `last` is the leaf the previous pixel of the tile read.
#[inline]
fn seen(
    scene: &Scene,
    answer: &Answer,
    ray: &Ray,
    hit: Option<SceneHit>,
    last: &mut LastLeaf,
) -> Rgb {
    let Some(hit) = hit else {
        return Rgb::BLACK;
    };
    // Radiance leaving the hit point toward the eye.
    let to_eye = -ray.dir;
    answer.radiance_with(scene, hit.patch_id, hit.s, hit.v, to_eye, last)
}

/// Picks an exposure that maps the answer's mean lit-patch radiance to
/// mid-gray.
pub fn auto_exposure(scene: &Scene, answer: &Answer) -> f64 {
    let mut total = 0.0;
    let mut lit = 0usize;
    for pid in 0..answer.patch_count() as u32 {
        let l = answer.mean_patch_radiance(scene, pid).luminance();
        if l > 0.0 {
            total += l;
            lit += 1;
        }
    }
    if lit == 0 || total <= 0.0 {
        return 1.0;
    }
    0.5 / (total / lit as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulator};
    use photon_geom::{Luminaire, Material, SurfacePatch};
    use photon_math::Patch;

    /// Floor + downward light: the floor should render brighter than the
    /// void around it.
    fn lit_floor_scene() -> Scene {
        let floor = SurfacePatch::new(
            Patch::from_origin_edges(
                Vec3::new(-2.0, 0.0, -2.0),
                Vec3::X * 4.0,
                Vec3::new(0.0, 0.0, 4.0),
            ),
            Material::matte(Rgb::gray(0.7)),
        );
        let light = SurfacePatch::new(
            Patch::from_origin_edges(
                Vec3::new(-0.5, 3.0, 0.5),
                Vec3::new(0.0, 0.0, -1.0),
                Vec3::X,
            ),
            Material::emitter(Rgb::WHITE),
        );
        Scene::new(
            vec![floor, light],
            vec![Luminaire {
                patch_id: 1,
                power: Rgb::gray(50.0),
                collimation: 1.0,
            }],
        )
    }

    fn camera() -> Camera {
        Camera {
            eye: Vec3::new(0.0, 2.5, -4.0),
            target: Vec3::new(0.0, 0.0, 0.0),
            up: Vec3::Y,
            vfov_deg: 50.0,
            width: 32,
            height: 24,
        }
    }

    /// [`render`] through an item buffer: the same serial tile loop, in
    /// one finished frame over an `Arc` of its own.
    fn render_memo(
        scene: &Scene,
        answer: &Answer,
        camera: &Camera,
        items: &ItemBuffer,
        exposure: f64,
    ) -> Image {
        let answer = Arc::new(answer.clone());
        render_frame(scene, &answer, camera, items, exposure).0
    }

    /// One finished frame of every tile, and the pixels it served by slot.
    fn render_frame(
        scene: &Scene,
        answer: &Arc<Answer>,
        camera: &Camera,
        items: &ItemBuffer,
        exposure: f64,
    ) -> (Image, usize) {
        let frame = items.frame(scene, answer);
        let mut img = Image::new(camera.width, camera.height);
        for tile in tiles(camera.width, camera.height, DEFAULT_TILE_SIZE) {
            let buf = render_tile_memo(scene, answer, camera, Some(&frame), tile, exposure);
            blit_tile(&mut img, tile, &buf);
        }
        (img, frame.finish())
    }

    /// A view from inside the scene, where it sees several patches.
    fn orbit_camera(kind: photon_scenes::TestScene, phase: f64, width: usize) -> Camera {
        let view = kind.view().orbited(phase, 0.25);
        Camera {
            eye: view.eye,
            target: view.target,
            up: view.up,
            vfov_deg: view.vfov_deg,
            width,
            height: width * 3 / 4,
        }
    }

    /// Pixels of `items` per patch id it remembers (rays that left the
    /// scene and untraced pixels not counted).
    fn pixels_by_patch(items: &ItemBuffer) -> std::collections::BTreeMap<u32, usize> {
        let mut seen = std::collections::BTreeMap::new();
        for id in &items.ids {
            let id = id.load(Ordering::Relaxed);
            if id < UNTRACED {
                *seen.entry(id).or_default() += 1;
            }
        }
        seen
    }

    /// `answer` with the split axis of `patch`'s root flipped, through its
    /// `PHOTANS1` bytes: the same node count on every patch and the same
    /// `emitted`, another shape on that one tree.
    fn with_root_axis_flipped(answer: &Answer, patch: u32) -> Answer {
        let mut bytes = Vec::new();
        answer.write_to(&mut bytes).unwrap();
        // Magic, patch count and `emitted`, then every earlier tree block.
        let at = 8
            + 4
            + 8
            + (0..patch)
                .map(|p| crate::answer::tree_encoded_size(answer.tree(p)) as usize)
                .sum::<usize>();
        // The root is the block's first node: its tag, then its axis.
        assert_eq!(bytes[at + 4], 1, "patch {patch}'s root is internal");
        bytes[at + 5] = (bytes[at + 5] + 1) % 4;
        Answer::read_from(&mut bytes.as_slice()).unwrap()
    }

    /// Reuse across answers: a republished answer serves every lit pixel
    /// from its slot, a refined snapshot and a foreign answer with equal
    /// node counts only the patches that kept their exact shape, and every
    /// frame is an un-memoised render's, bit for bit.
    #[test]
    fn slot_reuse_is_exact_across_answers() {
        use photon_scenes::TestScene;
        for kind in TestScene::ALL {
            let mut sim = Simulator::new(
                kind.build(),
                SimConfig {
                    seed: 17,
                    ..Default::default()
                },
            );
            sim.run_photons(20_000);
            let first = Arc::new(sim.answer_snapshot());
            sim.run_photons(4_000);
            let later = Arc::new(sim.answer_snapshot());
            let scene = sim.scene();
            for phase in [0.0, 0.3, 0.6] {
                let camera = orbit_camera(kind, phase, 96);
                let what = format!("{} phase {phase}", kind.name());
                let items = ItemBuffer::new(&camera);
                let exact = |answer: &Arc<Answer>, step: &str| {
                    let (memo, reused) = render_frame(scene, answer, &camera, &items, 0.02);
                    let plain = render(scene, answer, &camera, 0.02);
                    assert!(bits(&memo) == bits(&plain), "{what}: {step} diverged");
                    reused
                };
                assert_eq!(exact(&first, "cold"), 0, "{what}: nothing stamped yet");
                let seen = pixels_by_patch(&items);
                let lit: usize = seen.values().sum();
                assert!(seen.len() > 1, "{what}: the view sees several patches");
                let rewrapped = Arc::new((*first).clone());
                assert_eq!(exact(&rewrapped, "republished"), lit, "{what}");
                let refined = exact(&later, "refined");
                assert!(refined <= lit, "{what}");
                // The most-seen patch whose tree has split, flipped.
                let (&patch, &on_patch) = seen
                    .iter()
                    .filter(|&(&id, _)| later.tree(id).node_count() > 1)
                    .max_by_key(|&(_, &n)| n)
                    .expect("a refined patch in view");
                let foreign = Arc::new(with_root_axis_flipped(&later, patch));
                for p in 0..later.patch_count() as u32 {
                    let (a, b) = (later.tree(p), foreign.tree(p));
                    assert_eq!(a.node_count(), b.node_count());
                    assert_eq!(a.same_shape(b), p != patch);
                }
                assert_eq!(exact(&foreign, "foreign"), lit - on_patch, "{what}");
                exact(&first, "first again");
            }
        }
    }

    /// Per pixel, whether the leaf its slot names in `was` is still a leaf
    /// of `now`, by range bits; and how many lit pixels sit on a patch
    /// whose whole tree kept its shape — all the old rule trusted.
    fn kept_leaves(items: &ItemBuffer, was: &Answer, now: &Answer) -> (Vec<bool>, usize) {
        let ranges = |tree: &photon_hist::BinTree| {
            let mut by_slot = vec![[[0; 4]; 2]; tree.leaf_count() as usize];
            tree.for_each_leaf_slot(|slot, range, _| {
                by_slot[slot as usize] = [range.lo, range.hi].map(|x| x.map(f64::to_bits));
            });
            by_slot
        };
        let mut same_shape = 0;
        let kept = (0..items.ids.len())
            .map(|i| {
                let id = items.ids[i].load(Ordering::Relaxed);
                let slot = items.slots[i].load(Ordering::Relaxed);
                if id >= UNTRACED || slot == NO_SLOT {
                    return false;
                }
                let (old, new) = (was.tree(id), now.tree(id));
                same_shape += usize::from(old.same_shape(new));
                ranges(new).contains(&ranges(old)[slot as usize])
            })
            .collect();
        (kept, same_shape)
    }

    fn slots(items: &ItemBuffer) -> Vec<u32> {
        items
            .slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }

    /// Reuse is by leaf along a lineage: three epochs of one solve through
    /// one buffer read by slot exactly the pixels whose leaf is still a
    /// leaf — more than the patches whose whole tree kept its shape hold —
    /// and the third reads slots the second moved to its own tree. Every
    /// frame is an un-memoised render's, bit for bit.
    #[test]
    fn a_leaf_that_did_not_split_is_read_by_slot() {
        use photon_scenes::TestScene;
        let (mut beyond_shape, mut read_moved) = (0, 0);
        for kind in TestScene::ALL {
            let mut sim = Simulator::new(
                kind.build(),
                SimConfig {
                    seed: 29,
                    ..Default::default()
                },
            );
            let epochs = [20_000, 2_000, 2_000].map(|photons| {
                sim.run_photons(photons);
                Arc::new(sim.answer_snapshot())
            });
            let scene = sim.scene();
            for phase in [0.0, 0.3, 0.6] {
                let camera = orbit_camera(kind, phase, 96);
                let what = format!("{} phase {phase}", kind.name());
                let items = ItemBuffer::new(&camera);
                let mut moved = vec![false; items.ids.len()];
                for (e, answer) in epochs.iter().enumerate() {
                    let before = slots(&items);
                    let (kept, same_shape) = match e {
                        0 => (vec![false; items.ids.len()], 0),
                        _ => kept_leaves(&items, &epochs[e - 1], answer),
                    };
                    let (memo, reused) = render_frame(scene, answer, &camera, &items, 0.02);
                    let plain = render(scene, answer, &camera, 0.02);
                    assert!(bits(&memo) == bits(&plain), "{what}: e{e} diverged");
                    let oracle = kept.iter().filter(|&&k| k).count();
                    assert_eq!(reused, oracle, "{what}: e{e}");
                    assert!(reused >= same_shape, "{what}: e{e}");
                    if e == 1 {
                        beyond_shape += usize::from(reused > same_shape);
                    }
                    if e == 2 {
                        let both = kept.iter().zip(&moved).filter(|&(&k, &m)| k && m);
                        read_moved += both.count();
                    }
                    let after = slots(&items);
                    moved = (0..after.len())
                        .map(|i| kept[i] && after[i] != before[i])
                        .collect();
                }
            }
        }
        assert!(beyond_shape > 0, "no view trusted a leaf of a changed tree");
        assert!(
            read_moved > 0,
            "no slot an epoch moved was read by the next"
        );
    }

    /// A frame dropped before every tile rendered — a panicking tile —
    /// leaves slots exact for two answers at once, so it leaves no stamp:
    /// the next frame, even on an answer of the last stamp's exact shape,
    /// reuses nothing and is exact.
    #[test]
    fn an_unfinished_frame_leaves_nothing_to_trust() {
        use photon_scenes::TestScene;
        let kind = TestScene::CornellBox;
        let mut sim = Simulator::new(kind.build(), SimConfig::default());
        sim.run_photons(6_000);
        let first = Arc::new(sim.answer_snapshot());
        sim.run_photons(30_000);
        let later = Arc::new(sim.answer_snapshot());
        let scene = sim.scene();
        let camera = orbit_camera(kind, 0.2, 80);
        let items = ItemBuffer::new(&camera);
        render_frame(scene, &first, &camera, &items, 1.0);
        {
            let frame = items.frame(scene, &later);
            let all = tiles(camera.width, camera.height, 16);
            for &tile in &all[..all.len() / 2] {
                render_tile_memo(scene, &later, &camera, Some(&frame), tile, 1.0);
            }
        }
        let rewrapped = Arc::new((*first).clone());
        let (memo, reused) = render_frame(scene, &rewrapped, &camera, &items, 1.0);
        assert_eq!(reused, 0, "a slot of the dropped frame was trusted");
        assert!(bits(&memo) == bits(&render(scene, &first, &camera, 1.0)));
        // The frame after that one is stamped again.
        let (_, reused) = render_frame(scene, &first, &camera, &items, 1.0);
        assert_eq!(reused, pixels_by_patch(&items).values().sum::<usize>());
    }

    #[test]
    #[should_panic(expected = "item buffer of another camera")]
    fn an_item_buffer_of_another_camera_is_refused() {
        let scene = lit_floor_scene();
        let answer =
            Arc::new(Simulator::new(scene.clone(), SimConfig::default()).answer_snapshot());
        let mut moved = camera();
        moved.eye.x = f64::from_bits(moved.eye.x.to_bits() + 1);
        let items = ItemBuffer::new(&moved);
        render_frame(&scene, &answer, &camera(), &items, 1.0);
    }

    /// Every channel of every pixel, as bits: `-0.0`, `0.0` and NaNs apart.
    fn bits(img: &Image) -> Vec<u64> {
        let channels = img.pixels().iter().flat_map(|p| [p.r, p.g, p.b]);
        channels.map(f64::to_bits).collect()
    }

    fn untraced(items: &ItemBuffer) -> usize {
        let ids = items.ids.iter().map(|id| id.load(Ordering::Relaxed));
        ids.filter(|&id| id == UNTRACED).count()
    }

    #[test]
    fn memoised_render_is_bit_identical_cold_and_warm() {
        use photon_scenes::TestScene;
        for kind in TestScene::ALL {
            let mut sim = Simulator::new(
                kind.build(),
                SimConfig {
                    seed: 3,
                    ..Default::default()
                },
            );
            // Three answers of one solve: the bin trees refine between
            // them while the buffer, which knows nothing of them, is kept.
            let answers = [600, 2_400, 6_000].map(|photons| {
                sim.run_photons(photons);
                sim.answer_snapshot()
            });
            let scene = sim.scene();
            for phase in [0.0, 0.25, 0.5] {
                for (width, height) in [(97, 53), (240, 180)] {
                    let view = kind.view().orbited(phase, 1.0);
                    let camera = Camera {
                        eye: view.eye,
                        target: view.target,
                        up: view.up,
                        vfov_deg: view.vfov_deg,
                        width,
                        height,
                    };
                    let what = format!("{} phase {phase} {width}x{height}", kind.name());
                    let items = ItemBuffer::new(&camera);
                    assert_eq!(untraced(&items), width * height);
                    for (i, answer) in answers.iter().enumerate() {
                        let plain = bits(&render(scene, answer, &camera, 0.02));
                        // Cold on the first answer, warm ever after.
                        let memo = bits(&render_memo(scene, answer, &camera, &items, 0.02));
                        assert!(memo == plain, "{what}: answer {i} diverged");
                        assert_eq!(untraced(&items), 0, "{what}");
                    }
                    let again = bits(&render_memo(scene, &answers[0], &camera, &items, 0.02));
                    let plain = bits(&render(scene, &answers[0], &camera, 0.02));
                    assert!(again == plain, "{what}: back to the first answer");
                }
            }
        }
    }

    #[test]
    fn a_wrong_item_buffer_still_renders() {
        let scene = lit_floor_scene();
        let mut sim = Simulator::new(scene, SimConfig::default());
        sim.run_photons(2_000);
        let (scene, answer, cam) = (sim.scene(), sim.answer_snapshot(), camera());
        let plain = bits(&render(scene, &answer, &cam, 1.0));
        // Ids no scene has; the light, which no camera ray meets; the
        // floor, which the sky pixels do not: every miss falls back to the
        // search, and the floor is nearest wherever it is hit at all.
        for wrong in [UNTRACED - 1, scene.polygon_count() as u32, 1, 0] {
            let items = ItemBuffer::new(&cam);
            for id in &items.ids {
                id.store(wrong, Ordering::Relaxed);
            }
            let memo = bits(&render_memo(scene, &answer, &cam, &items, 1.0));
            assert!(memo == plain, "buffer full of {wrong}");
        }
        // Pixels wrongly remembered as empty come out black: a wrong
        // image from a buffer nothing in the program builds, and no panic.
        let items = ItemBuffer::new(&cam);
        for id in &items.ids {
            id.store(LEFT_SCENE, Ordering::Relaxed);
        }
        let black = render_memo(scene, &answer, &cam, &items, 1.0);
        assert_eq!(black.mean_luminance(), 0.0);
    }

    #[test]
    #[should_panic(expected = "item buffer of another frame size")]
    fn an_item_buffer_of_another_frame_size_is_refused() {
        let scene = lit_floor_scene();
        let answer = Simulator::new(scene.clone(), SimConfig::default()).answer_snapshot();
        let mut wide = camera();
        wide.width += 1;
        let items = ItemBuffer::new(&wide);
        render_memo(&scene, &answer, &camera(), &items, 1.0);
    }

    #[test]
    fn camera_bound_is_one_wire_frame_of_pixels() {
        let max_pixels = MAX_FRAME_BYTES as usize / std::mem::size_of::<Rgb>();
        let mut cam = camera();
        (cam.width, cam.height) = (4096, max_pixels / 4096);
        assert_eq!(cam.validate(), Ok(()), "at the bound");
        cam.height += 1;
        assert!(cam.validate().is_err(), "one row over");
        // A product that overflows `usize` is over the bound, not under it.
        (cam.width, cam.height) = (usize::MAX, 2);
        assert!(cam.validate().is_err());
        (cam.width, cam.height) = (usize::MAX, usize::MAX);
        assert!(cam.validate().is_err());
        (cam.width, cam.height) = (0, 5);
        assert_eq!(cam.validate(), Err("camera has zero pixel area"));
    }

    #[test]
    fn a_camera_without_a_finite_basis_is_refused() {
        assert_eq!(camera().validate(), Ok(()));
        let non_finite = Err("camera has a non-finite coordinate");
        let fov = Err("camera field of view outside (0, 180) degrees");
        let no_basis = Err("camera has no view basis: eye on target, or up zero or along the view");
        let cases: [(fn(&mut Camera), _); 11] = [
            (|c| c.eye.x = f64::NAN, non_finite),
            (|c| c.target.z = f64::INFINITY, non_finite),
            (|c| c.up.y = f64::NEG_INFINITY, non_finite),
            (|c| c.vfov_deg = f64::NAN, non_finite),
            (|c| c.vfov_deg = 0.0, fov),
            (|c| c.vfov_deg = 180.0, fov),
            (|c| c.vfov_deg = -50.0, fov),
            (|c| c.target = c.eye, no_basis),
            (|c| c.up = Vec3::ZERO, no_basis),
            (|c| c.up = c.target - c.eye, no_basis),
            // Finite coordinates whose difference is not.
            (|c| (c.eye.x, c.target.x) = (f64::MAX, -f64::MAX), no_basis),
        ];
        for (i, (spoil, why)) in cases.into_iter().enumerate() {
            let mut cam = camera();
            spoil(&mut cam);
            assert_eq!(cam.validate(), why, "case {i}: {cam:?}");
        }
    }

    #[test]
    fn tiles_partition_the_image() {
        for (w, h, ts) in [(64, 48, 32), (33, 17, 16), (5, 5, 8), (1, 1, 1)] {
            let ts = tiles(w, h, ts);
            let mut covered = vec![0u32; w * h];
            for t in &ts {
                assert!(t.x1 <= w && t.y1 <= h);
                assert!(t.pixel_count() > 0);
                for y in t.y0..t.y1 {
                    for x in t.x0..t.x1 {
                        covered[y * w + x] += 1;
                    }
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "{w}x{h} not tiled exactly once"
            );
        }
    }

    /// The tile loop carries one leaf from pixel to pixel; [`shade`] starts
    /// every pixel from nothing. Every pixel, every channel, every bit.
    #[test]
    fn tiled_render_matches_per_pixel_shade() {
        use photon_scenes::TestScene;
        let bits = |p: Rgb| [p.r, p.g, p.b].map(f64::to_bits);
        for kind in TestScene::ALL {
            let mut sim = Simulator::new(
                kind.build(),
                SimConfig {
                    seed: 11,
                    ..Default::default()
                },
            );
            // Shallow trees to ones deep enough that most neighbouring
            // pixels share a leaf, some of them split on θ and r².
            for photons in [1_000, 9_000, 70_000] {
                sim.run_photons(photons);
                let answer = sim.answer_snapshot();
                let scene = sim.scene();
                for phase in [0.0, 0.3, 0.6] {
                    let view = kind.view().orbited(phase, 1.0);
                    let cam = Camera {
                        eye: view.eye,
                        target: view.target,
                        up: view.up,
                        vfov_deg: view.vfov_deg,
                        width: 80,
                        height: 60,
                    };
                    let img = render(scene, &answer, &cam, 1.0);
                    for y in 0..cam.height {
                        for x in 0..cam.width {
                            let (got, want) =
                                (img.get(x, y), shade(scene, &answer, &cam.ray(x, y)));
                            assert!(
                                bits(got) == bits(want),
                                "{} at {} photons, phase {phase}: pixel ({x}, {y})",
                                kind.name(),
                                answer.emitted()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn diff_of_identical_images_is_empty() {
        let mut img = Image::new(20, 14);
        img.set(3, 5, Rgb::WHITE);
        assert!(diff_tiles(&img, &img.clone(), 8).is_empty());
    }

    #[test]
    fn diff_carries_only_changed_tiles_and_reassembles_exactly() {
        let mut prev = Image::new(40, 24);
        prev.set(2, 2, Rgb::gray(0.25));
        let mut next = prev.clone();
        // One change per distant tile: (0,0) and (33, 20) with tile size 8
        // land in tiles (0,0) and (4,2).
        next.set(0, 0, Rgb::new(1.0, 0.0, 0.0));
        next.set(33, 20, Rgb::new(0.0, 1.0, 0.0));
        let delta = diff_tiles(&prev, &next, 8);
        assert_eq!(delta.len(), 2, "exactly the two touched tiles");
        let total: usize = delta.iter().map(|(t, _)| t.pixel_count()).sum();
        assert!(total < 40 * 24, "delta must be smaller than the full frame");
        let mut rebuilt = prev.clone();
        for (tile, buf) in &delta {
            blit_tile(&mut rebuilt, *tile, buf);
        }
        assert_eq!(rebuilt.pixels(), next.pixels(), "reassembly diverged");
    }

    #[test]
    fn diff_against_black_is_a_full_bootstrap() {
        // A client with no previous frame starts from a black canvas; the
        // first delta against black must rebuild the frame exactly while
        // skipping all-black (background) tiles.
        let mut next = Image::new(33, 17);
        next.set(10, 10, Rgb::WHITE);
        let black = Image::new(33, 17);
        let delta = diff_tiles(&black, &next, 8);
        assert!(!delta.is_empty());
        let mut rebuilt = Image::new(33, 17);
        for (tile, buf) in &delta {
            blit_tile(&mut rebuilt, *tile, buf);
        }
        assert_eq!(rebuilt.pixels(), next.pixels());
        let covered: usize = delta.iter().map(|(t, _)| t.pixel_count()).sum();
        assert!(covered < 33 * 17, "black tiles must be skipped");
    }

    #[test]
    fn copy_tile_round_trips_through_blit() {
        let mut img = Image::new(13, 9);
        for y in 0..9 {
            for x in 0..13 {
                img.set(x, y, Rgb::gray((x * 17 + y) as f64 / 100.0));
            }
        }
        let tile = Tile {
            x0: 4,
            y0: 2,
            x1: 11,
            y1: 7,
        };
        let buf = copy_tile(&img, tile);
        assert_eq!(buf.len(), tile.pixel_count());
        let mut out = Image::new(13, 9);
        blit_tile(&mut out, tile, &buf);
        for y in tile.y0..tile.y1 {
            for x in tile.x0..tile.x1 {
                assert_eq!(out.get(x, y), img.get(x, y));
            }
        }
    }

    #[test]
    fn rays_pass_through_target() {
        let cam = camera();
        let center = cam.ray(cam.width / 2, cam.height / 2);
        // The central ray points roughly at the target.
        let to_target = (cam.target - cam.eye).normalized();
        assert!(center.dir.dot(to_target) > 0.99);
    }

    #[test]
    fn render_shows_lit_floor() {
        let scene = lit_floor_scene();
        let mut sim = Simulator::new(
            scene,
            SimConfig {
                seed: 5,
                ..Default::default()
            },
        );
        sim.run_photons(40_000);
        let answer = sim.answer_snapshot();
        let scene = sim.scene();
        let exposure = auto_exposure(scene, &answer);
        let img = render(scene, &answer, &camera(), exposure);
        // Some pixels lit, background black.
        let lum = img.mean_luminance();
        assert!(lum > 0.001, "image black: {lum}");
        // Corners (sky) are black.
        assert_eq!(img.get(0, 0), Rgb::BLACK);
    }

    #[test]
    fn two_viewpoints_from_one_answer_differ_but_share_solution() {
        let scene = lit_floor_scene();
        let mut sim = Simulator::new(
            scene,
            SimConfig {
                seed: 6,
                ..Default::default()
            },
        );
        sim.run_photons(30_000);
        let answer = sim.answer_snapshot();
        let scene = sim.scene();
        let e = auto_exposure(scene, &answer);
        let img1 = render(scene, &answer, &camera(), e);
        let mut cam2 = camera();
        cam2.eye = Vec3::new(3.0, 2.0, 3.0);
        let img2 = render(scene, &answer, &cam2, e);
        assert!(
            img1.rms_error(&img2) > 0.0,
            "different viewpoints identical"
        );
        assert!(img2.mean_luminance() > 0.0);
    }

    #[test]
    fn more_photons_reduce_render_noise() {
        // Render quality improves with photon count (Fig 5.16's premise):
        // two independent long runs agree better than two short runs.
        // Comparison happens on downsampled images — adaptive bins convert
        // extra photons into finer bins, so coarse-grained radiance is the
        // quantity that converges.
        let mk = |seed, n| {
            let mut sim = Simulator::new(
                lit_floor_scene(),
                SimConfig {
                    seed,
                    ..Default::default()
                },
            );
            sim.run_photons(n);
            let ans = sim.answer_snapshot();
            let e = 0.05; // fixed exposure for comparability
            render(sim.scene(), &ans, &camera(), e).downsampled(8)
        };
        let short_err = mk(1, 2_000).rms_error(&mk(2, 2_000));
        let long_err = mk(3, 80_000).rms_error(&mk(4, 80_000));
        assert!(
            long_err < short_err,
            "noise did not drop: short {short_err} long {long_err}"
        );
    }

    #[test]
    fn squash_collapses_repeated_rectangles_to_newest() {
        let tile = Tile {
            x0: 0,
            y0: 0,
            x1: 2,
            y1: 2,
        };
        let old = vec![Rgb::gray(0.1); 4];
        let new = vec![Rgb::gray(0.9); 4];
        let squashed = squash_tile_runs([vec![(tile, old)], vec![(tile, new.clone())]]);
        assert_eq!(squashed.len(), 1, "same rectangle must collapse");
        assert_eq!(squashed[0].1, new, "newest pixels must win");
    }

    #[test]
    fn squash_of_sequential_diffs_reassembles_bit_identically() {
        // Three frames, diffed pairwise; squashing both deltas and applying
        // the squash to frame 0 must land exactly on frame 2.
        let mut f0 = Image::new(20, 12);
        f0.set(1, 1, Rgb::gray(0.3));
        let mut f1 = f0.clone();
        f1.set(2, 2, Rgb::new(1.0, 0.0, 0.0));
        f1.set(17, 10, Rgb::new(0.0, 1.0, 0.0));
        let mut f2 = f1.clone();
        f2.set(2, 2, Rgb::new(0.0, 0.0, 1.0)); // re-touches the first tile
        let d01 = diff_tiles(&f0, &f1, 8);
        let d12 = diff_tiles(&f1, &f2, 8);
        let squashed = squash_tile_runs([d01.clone(), d12.clone()]);
        assert!(
            squashed.len() < d01.len() + d12.len(),
            "the re-touched tile must not appear twice"
        );
        let mut rebuilt = f0.clone();
        for (tile, buf) in &squashed {
            blit_tile(&mut rebuilt, *tile, buf);
        }
        assert_eq!(rebuilt.pixels(), f2.pixels(), "squash reassembly diverged");
    }

    #[test]
    fn squash_preserves_order_across_overlapping_rectangles() {
        // A newer update to rectangle A must overwrite an older overlapping
        // rectangle B even after A's earlier occurrence was collapsed away.
        let a = Tile {
            x0: 0,
            y0: 0,
            x1: 2,
            y1: 1,
        };
        let b = Tile {
            x0: 1,
            y0: 0,
            x1: 3,
            y1: 1,
        };
        let runs = [
            vec![(a, vec![Rgb::gray(0.1); 2])],
            vec![(b, vec![Rgb::gray(0.5); 2])],
            vec![(a, vec![Rgb::gray(0.9); 2])],
        ];
        let mut by_runs = Image::new(3, 1);
        for run in &runs {
            for (tile, buf) in run {
                blit_tile(&mut by_runs, *tile, buf);
            }
        }
        let mut by_squash = Image::new(3, 1);
        for (tile, buf) in squash_tile_runs(runs) {
            blit_tile(&mut by_squash, tile, &buf);
        }
        assert_eq!(by_squash.pixels(), by_runs.pixels());
    }
}
