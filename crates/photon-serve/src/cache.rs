//! The dispatcher's two caches, one LRU type behind both.
//!
//! **The view cache** holds rendered images keyed by [`ViewKey`]: (scene,
//! answer epoch, quantized camera). Serving many clients against a handful
//! of stored answers is dominated by repeated and near-identical views
//! (walkthrough clients orbit the same landmarks; dashboards poll fixed
//! viewpoints). A rendered view is a pure function of `(scene, answer
//! epoch, camera)` — so caching is exact, and quantizing the camera before
//! keying folds views that differ by sub-voxel jitter into one entry. The
//! epoch in the key is what keeps a *progressive* solve honest: every
//! publish of a refined answer moves the entry to a new epoch, all old
//! cache keys stop matching — the dispatcher purges them on the spot — and
//! refreshed views re-render instead of serving stale images.
//!
//! **The item-buffer cache** holds, keyed by `ItemKey` — (scene, the
//! camera's exact bits) — which patch each pixel of a view sees and which
//! leaf slot of that patch's tree its bin point reached in the last answer
//! rendered ([`photon_core::ItemBuffer`], 8 bytes a pixel). That is what a
//! re-render after a publish does *not* have to find again: visibility is
//! a function of scene and camera alone and a stored scene never changes,
//! so this cache has no epoch in its key, is never purged, and only ages
//! out by LRU; a slot is only trusted while its patch's tree keeps its
//! exact shape. Each buffer keeps the last answer it rendered alive until
//! it renders again, so whatever retires a scene must drop its buffers
//! too. Its key is exact because its use is: one flipped bit of the eye
//! moves every ray, and a buffer recorded for the neighbouring camera
//! would be re-tested against the wrong rays.

use crate::store::SceneId;
use photon_core::Camera;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A cache key: scene id, answer epoch, and camera pose snapped to a
/// lattice.
///
/// Positions quantize to `1 / grid` world units and the field of view to
/// centidegrees; two cameras landing on the same lattice point render
/// within one cell of each other, visually indistinguishable at the cell
/// sizes the service defaults to. The epoch pins the key to one published
/// answer: a refined publish changes the epoch and orphans every older
/// key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ViewKey {
    scene: SceneId,
    epoch: u64,
    eye: [Cell; 3],
    target: [Cell; 3],
    up: [Cell; 3],
    vfov_cdeg: Cell,
    width: usize,
    height: usize,
}

/// One coordinate of a [`ViewKey`]: its lattice cell, or — where the
/// lattice is no finer than `f64` itself (`|v · grid| ≥ 2^52`, or not
/// finite) and rounding to an `i64` would saturate, folding distinct
/// cameras into one key — the coordinate's exact bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Cell {
    Lattice(i64),
    Exact(u64),
}

impl Cell {
    fn of(v: f64, grid: f64) -> Self {
        const FINEST: f64 = (1u64 << 52) as f64;
        let scaled = v * grid;
        if scaled.abs() < FINEST {
            Cell::Lattice(scaled.round() as i64)
        } else {
            Cell::Exact(v.to_bits())
        }
    }
}

impl ViewKey {
    /// The scene this key's image was rendered from.
    pub fn scene(&self) -> SceneId {
        self.scene
    }

    /// The answer epoch this key's image was rendered from.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Quantizes a request against answer `epoch` with `grid` lattice
    /// cells per world unit.
    pub fn quantize(scene: SceneId, epoch: u64, camera: &Camera, grid: f64) -> Self {
        let qv = |v: photon_math::Vec3| [v.x, v.y, v.z].map(|x| Cell::of(x, grid));
        ViewKey {
            scene,
            epoch,
            eye: qv(camera.eye),
            target: qv(camera.target),
            up: qv(camera.up),
            vfov_cdeg: Cell::of(camera.vfov_deg, 100.0),
            width: camera.width,
            height: camera.height,
        }
    }
}

/// An item-buffer key: the scene and the camera, bit for bit (`-0.0` and
/// `0.0` are different eyes here — they already give different
/// `Ray::inv_dir`s).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ItemKey {
    scene: SceneId,
    camera: [u64; 10],
    width: usize,
    height: usize,
}

impl ItemKey {
    /// The key of exactly this camera over `scene`.
    pub(crate) fn exact(scene: SceneId, camera: &Camera) -> Self {
        ItemKey {
            scene,
            camera: camera.pose_bits(),
            width: camera.width,
            height: camera.height,
        }
    }
}

/// A least-recently-used map with hit/miss accounting.
///
/// Recency is a monotonic tick: `map` holds `key -> (value, tick)` and
/// `order` mirrors `tick -> key`, so eviction pops the smallest tick and a
/// touch moves one key's tick to the front. Both sides stay O(log n).
#[derive(Debug)]
pub struct LruCache<K: Eq + Hash + Clone, V> {
    map: HashMap<K, (V, u64)>,
    order: BTreeMap<u64, K>,
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`; the service models "no cache" by not
    /// constructing one.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity cache; disable caching instead");
        LruCache {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((_, stamp)) => {
                self.order.remove(stamp);
                self.order.insert(tick, key.clone());
                *stamp = tick;
                self.hits += 1;
                self.map.get(key).map(|(v, _)| v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `key -> value` as most recently used, evicting the least
    /// recently used entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if let Some((_, old)) = self.map.insert(key.clone(), (value, self.tick)) {
            self.order.remove(&old);
        }
        self.order.insert(self.tick, key);
        while self.map.len() > self.capacity {
            let (_, victim) = self.order.pop_first().expect("order mirrors map");
            self.map.remove(&victim);
        }
    }

    /// Drops every entry whose key fails `keep`, returning how many were
    /// removed. The dispatcher uses this to purge a scene's older-epoch
    /// views the moment it observes a fresher publish — orphaned keys can
    /// never match again, so leaving them to generic LRU eviction only
    /// thrashes live entries out.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> usize {
        let mut dropped_ticks = Vec::new();
        self.map.retain(|key, (_, tick)| {
            let keep = keep(key);
            if !keep {
                dropped_ticks.push(*tick);
            }
            keep
        });
        for tick in &dropped_ticks {
            self.order.remove(tick);
        }
        dropped_ticks.len()
    }

    /// Iterates over the keys currently held, in no particular order —
    /// how the dispatcher learns which scenes still have live cached
    /// views when bounding its epoch-tracking map.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_math::Vec3;

    fn cam(eye_x: f64) -> Camera {
        Camera {
            eye: Vec3::new(eye_x, 1.0, -3.0),
            target: Vec3::new(0.0, 1.0, 0.0),
            up: Vec3::Y,
            vfov_deg: 45.0,
            width: 64,
            height: 48,
        }
    }

    #[test]
    fn quantization_folds_jitter_and_separates_views() {
        let a = ViewKey::quantize(SceneId(0), 1, &cam(1.0), 256.0);
        let jittered = ViewKey::quantize(SceneId(0), 1, &cam(1.0 + 1e-4), 256.0);
        let moved = ViewKey::quantize(SceneId(0), 1, &cam(1.5), 256.0);
        let other_scene = ViewKey::quantize(SceneId(1), 1, &cam(1.0), 256.0);
        let refined = ViewKey::quantize(SceneId(0), 2, &cam(1.0), 256.0);
        assert_eq!(a, jittered, "sub-cell jitter must share a key");
        assert_ne!(a, moved);
        assert_ne!(a, other_scene);
        assert_ne!(a, refined, "a fresher epoch must invalidate the key");
        let mut resized = cam(1.0);
        resized.width = 128;
        assert_ne!(a, ViewKey::quantize(SceneId(0), 1, &resized, 256.0));
    }

    /// Far out, where `round() as i64` saturates (`1e17 · 256` is past
    /// `i64::MAX`) or `v · grid` is already infinite, two distinct eyes
    /// keep two keys: each coordinate is keyed by its exact bits there.
    #[test]
    fn far_cameras_never_share_a_key_by_saturation() {
        let key = |x| ViewKey::quantize(SceneId(0), 1, &cam(x), 256.0);
        for (a, b) in [(1e17, 2e17), (1e306, 1.5e306), (-1e17, -2e17)] {
            assert!((a * 256.0f64).abs() >= (1u64 << 52) as f64);
            assert_ne!(key(a), key(b), "{a} and {b}");
            assert_eq!(key(a), key(a));
        }
        // Inside the lattice, far out as it is, jitter still folds.
        assert_eq!(key(1e12), key(1e12 + 1e-3));
        assert_ne!(key(1e12), key(1e12 + 1.0));
    }

    #[test]
    fn item_keys_tell_apart_what_quantization_folds() {
        let grid = 256.0;
        let (a, mut b) = (cam(1.0), cam(1.0));
        b.eye.x = f64::from_bits(b.eye.x.to_bits() + 1);
        let (mut zero, mut minus_zero) = (cam(1.0), cam(1.0));
        (zero.target.x, minus_zero.target.x) = (0.0, -0.0);
        let exact = |c: &Camera| ItemKey::exact(SceneId(0), c);
        for (p, q) in [(a, b), (zero, minus_zero)] {
            let quantized = |c| ViewKey::quantize(SceneId(0), 1, c, grid);
            assert_eq!(quantized(&p), quantized(&q), "one quantized cell");
            assert_ne!(exact(&p), exact(&q));
        }
        assert_eq!(exact(&a), exact(&a));
        assert_ne!(exact(&a), ItemKey::exact(SceneId(1), &a));
        let mut resized = a;
        resized.height += 1;
        assert_ne!(exact(&a), exact(&resized));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        c.insert(1, "one");
        c.insert(2, "two");
        assert_eq!(c.get(&1), Some(&"one")); // 1 is now most recent
        c.insert(3, "three"); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.get(&3), Some(&"three"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn retain_drops_matching_keys_and_their_order() {
        let mut c: LruCache<u32, &str> = LruCache::new(4);
        c.insert(1, "one");
        c.insert(2, "two");
        c.insert(3, "three");
        assert_eq!(c.retain(|k| *k % 2 == 1), 1, "2 dropped");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&2), None);
        // The freed slot is genuinely free: two inserts evict nothing live.
        c.insert(4, "four");
        c.insert(5, "five");
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.get(&3), Some(&"three"));
    }

    #[test]
    fn view_key_exposes_scene_and_epoch() {
        let k = ViewKey::quantize(SceneId(7), 3, &cam(1.0), 256.0);
        assert_eq!(k.scene(), SceneId(7));
        assert_eq!(k.epoch(), 3);
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        assert_eq!(c.get(&1), None);
        c.insert(1, 1);
        assert_eq!(c.get(&1), Some(&1));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }
}
