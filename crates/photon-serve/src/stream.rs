//! Streaming views: epoch subscriptions delivering tile deltas.
//!
//! The answer is view-independent and refines progressively — but a client
//! that polls whole frames re-downloads every pixel per publish, paying
//! full-frame bandwidth for refinements that usually touch a fraction of
//! the image. This module inverts the flow: [`RenderService::subscribe`]
//! registers a `(scene, camera)` subscription, and each time the scene's
//! epoch advances the dispatcher renders the fresh answer (through the
//! same cache/coalescing path interactive requests use), diffs it
//! tile-by-tile against the last frame it sent *that subscriber*, and
//! pushes a [`FrameDelta`] carrying only the changed tiles.
//!
//! Reassembly is exact by construction: a delta's tiles are the changed
//! tiles' complete new pixels ([`photon_core::view::diff_tiles`]), and the
//! unchanged tiles are bit-identical between the frames, so blitting each
//! delta onto the previous frame — starting from the black canvas a
//! freshly connected client holds — reproduces every epoch's image
//! bit-for-bit, equal to a full [`crate::render_parallel`] of that epoch.
//!
//! ```text
//! solve job ──publish──▶ AnswerStore ──watcher──▶ dispatcher
//!                                                    │ render fresh epoch
//!                                                    │ diff vs last sent
//! client ◀─take── Window { ≤ window + 1 deltas } ◀─offer─┘
//! ```
//!
//! Between the two sits one mailbox per subscriber, and the whole
//! slow-consumer policy is the `Window` inside it: up to
//! [`ServeConfig::stream_window`] deltas queue as rendered, one more slot
//! behind them folds every later delta into itself
//! ([`FrameDelta::squash`]), and the consumer takes from the front — the
//! folded delta included, the moment it reads that far, with no dispatcher
//! wake-up in between. A subscriber that sleeps through any number of
//! epochs therefore retains at most `window + 1` deltas and still
//! reassembles the newest epoch bit for bit. The `Window` is pure (no
//! thread, clock, hub or counters), so its invariants are checked by a
//! seeded simulation in this module's tests; a `Mutex` + `Condvar` around
//! it and the stream counters it reports to are what the dispatcher's
//! subscriber and the [`StreamHandle`] share.
//!
//! [`RenderService::subscribe`]: crate::RenderService::subscribe
//! [`ServeConfig::stream_window`]: crate::ServeConfig::stream_window

use crate::metrics::ServiceMetrics;
use crate::service::ServeError;
use crate::store::SceneId;
use photon_core::obs::{ObsCtx, ObsKind};
pub use photon_core::wire::FrameDelta;
use photon_core::{Camera, ObsHub};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One subscription: which scene to follow, seen from where.
#[derive(Clone, Copy, Debug)]
pub struct StreamRequest {
    /// The stored solution to follow across epochs.
    pub scene_id: SceneId,
    /// The viewpoint every epoch is rendered from.
    pub camera: Camera,
}

/// What [`Window::offer`] did with a delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Offer {
    /// Queued as rendered; the consumer will receive it verbatim.
    Queued,
    /// The queue was at its window: the delta opened the fold slot — the
    /// start of a lag episode.
    Lagged,
    /// Folded into the fold slot a lag episode already opened.
    Squashed,
    /// The window is closed; the delta was dropped.
    Closed,
}

/// One subscriber's queue and its whole slow-consumer policy, as a pure
/// state machine: deltas in, decisions out.
///
/// Up to `window` deltas queue as offered. One more slot behind them is
/// the fold slot: while it is occupied every further offer squashes into
/// it, so the queue never exceeds `window + 1` deltas however long the
/// consumer sleeps. A take moves everything one place forward, which
/// turns the fold slot into an ordinary entry and lets the next overflow
/// open a fresh one (a new lag episode).
struct Window {
    /// Oldest first. The flag marks a delta that entered through the fold
    /// slot — reported by `offer` as lagged/squashed, not yet as delivered.
    queue: VecDeque<(FrameDelta, bool)>,
    window: usize,
    closed: bool,
}

impl Window {
    fn new(window: usize) -> Self {
        Window {
            queue: VecDeque::new(),
            window,
            closed: false,
        }
    }

    /// True while the fold slot is occupied.
    fn lagging(&self) -> bool {
        self.queue.len() > self.window
    }

    fn offer(&mut self, delta: FrameDelta) -> Offer {
        if self.closed {
            return Offer::Closed;
        }
        if self.lagging() {
            // Squash keeps the newest pixels per rectangle, so applying
            // the fold is bit-identical to applying every delta in it.
            let (held, _) = self.queue.pop_back().expect("window + 1 > 0");
            let folded = FrameDelta::squash(&[held, delta]);
            self.queue.push_back((folded, true));
            return Offer::Squashed;
        }
        let opens_fold = self.queue.len() == self.window;
        self.queue.push_back((delta, opens_fold));
        if opens_fold {
            Offer::Lagged
        } else {
            Offer::Queued
        }
    }

    /// The oldest delta, and whether it came through the fold slot.
    /// Queued deltas outlive [`close`](Self::close): `None` on a closed
    /// window is the end of the stream.
    fn take(&mut self) -> Option<(FrameDelta, bool)> {
        self.queue.pop_front()
    }

    fn close(&mut self) {
        self.closed = true;
    }
}

/// What the two ends of a subscription share: the [`Window`] under its
/// lock, the condvar a waiting consumer sleeps on, and where both ends
/// count deliveries.
struct Shared {
    window: Mutex<Window>,
    ready: Condvar,
    request: StreamRequest,
    metrics: Arc<ServiceMetrics>,
    obs: Arc<ObsHub>,
}

/// One end of a subscriber's mailbox — the dispatcher's `Subscriber`
/// holds one, the [`StreamHandle`] the other. Dropping either closes the
/// window for both: the dispatcher sweeps a subscriber whose handle is
/// gone, and a handle whose subscriber is gone (service shut down, render
/// panicked) drains what was queued and then reads `ServiceStopped`.
pub(crate) struct Mailbox(Arc<Shared>);

impl Drop for Mailbox {
    fn drop(&mut self) {
        self.window().close();
        self.0.ready.notify_all();
    }
}

impl Mailbox {
    /// Records a stream-tier event about this subscription's scene.
    pub(crate) fn emit(&self, kind: ObsKind, payload: u64) {
        let scene = Some(self.0.request.scene_id.0);
        let ctx = ObsCtx {
            scene,
            payload,
            ..Default::default()
        };
        self.0.obs.emit(kind, ctx);
    }

    /// A panic cannot leave the queue half-updated, so a poisoned lock is
    /// still good — and `Drop` must not panic on one.
    fn window(&self) -> MutexGuard<'_, Window> {
        self.0.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Which scene this subscription follows, seen from where.
    pub(crate) fn request(&self) -> StreamRequest {
        self.0.request
    }

    /// True once either end is gone.
    pub(crate) fn is_closed(&self) -> bool {
        self.window().closed
    }

    /// Dispatcher side: hands `delta` to the window and counts what became
    /// of it. A `skippable` delta (an empty republish nobody asked to be
    /// kept alive with) is dropped instead — unless a fold is waiting,
    /// which it then brings up to its epoch.
    pub(crate) fn offer(&self, delta: FrameDelta, skippable: bool) {
        let (shared, mut window) = (&self.0, self.window());
        if skippable && !window.lagging() {
            return;
        }
        // Counted under the lock: the consumer can read the delta, and
        // then the counters, the moment it is released.
        match window.offer(delta) {
            Offer::Queued => self.count_pushed(&window.queue.back().expect("just queued").0),
            Offer::Lagged => {
                shared.metrics.record_squash(true);
                self.emit(ObsKind::SubscriberLagged, window.window as u64);
            }
            Offer::Squashed => shared.metrics.record_squash(false),
            Offer::Closed => {}
        }
        shared.ready.notify_all();
    }

    /// Counts one delta as delivered — once, at the size the consumer
    /// receives: at the offer for a delta queued as rendered, at the take
    /// for one that came through the fold slot.
    fn count_pushed(&self, delta: &FrameDelta) {
        let (tiles, bytes) = (delta.tiles.len() as u64, delta.tile_bytes() as u64);
        let full_bytes = delta.full_frame_bytes() as u64;
        self.0.metrics.record_delta(tiles, bytes, full_bytes);
        self.emit(ObsKind::DeltaPushed, bytes);
    }

    /// Consumer side: the next delta, waiting at most `timeout` for one
    /// to be offered.
    fn next(&self, timeout: Duration) -> Result<FrameDelta, ServeError> {
        let idle = |w: &mut Window| w.queue.is_empty() && !w.closed;
        let waited = self
            .0
            .ready
            .wait_timeout_while(self.window(), timeout, idle);
        let (mut window, _) = waited.unwrap_or_else(PoisonError::into_inner);
        match window.take() {
            Some((delta, folded)) => {
                drop(window);
                if folded {
                    self.count_pushed(&delta);
                }
                Ok(delta)
            }
            None if window.closed => Err(ServeError::ServiceStopped),
            None => Err(ServeError::TimedOut),
        }
    }
}

/// The client end of a subscription: a stream of [`FrameDelta`]s.
///
/// Dropping the handle cancels the subscription — the dispatcher sweeps
/// it out on its next activity (any message, not just a publish to this
/// scene) or housekeeping tick, freeing the retained last frame.
pub struct StreamHandle {
    mailbox: Mailbox,
}

impl Drop for StreamHandle {
    /// Dropping the handle is the one place a subscription's end is
    /// certain (the dispatcher only notices later, on its next sweep), so
    /// the `SubscriberDropped` event is emitted here and nowhere else.
    fn drop(&mut self) {
        self.mailbox.emit(ObsKind::SubscriberDropped, 0);
    }
}

impl StreamHandle {
    /// A fresh subscription: the dispatcher's end of its mailbox (at most
    /// `window + 1` deltas), and the handle that reads the other.
    pub(crate) fn open(
        request: StreamRequest,
        window: usize,
        metrics: Arc<ServiceMetrics>,
        obs: Arc<ObsHub>,
    ) -> (Mailbox, StreamHandle) {
        let shared = Arc::new(Shared {
            window: Mutex::new(Window::new(window)),
            ready: Condvar::new(),
            request,
            metrics,
            obs,
        });
        let mailbox = Mailbox(Arc::clone(&shared));
        (Mailbox(shared), StreamHandle { mailbox })
    }

    /// The scene this subscription follows.
    pub fn scene_id(&self) -> SceneId {
        self.mailbox.request().scene_id
    }

    /// Blocks until the next delta. [`ServeError::ServiceStopped`] means
    /// the service shut down (or dropped the subscription); no further
    /// deltas will arrive.
    pub fn recv(&self) -> Result<FrameDelta, ServeError> {
        // A wait that outlasts the universe (std rounds it to "no timeout").
        self.mailbox.next(Duration::MAX)
    }

    /// Waits at most `timeout` for the next delta. On
    /// [`ServeError::TimedOut`] the subscription stays live; a later call
    /// can still receive.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<FrameDelta, ServeError> {
        self.mailbox.next(timeout)
    }

    /// Collects the already-delivered deltas without blocking — the
    /// folded one a stalled consumer was owed included.
    pub fn drain(&self) -> Vec<FrameDelta> {
        std::iter::from_fn(|| self.mailbox.next(Duration::ZERO).ok()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_core::view::Tile;
    use photon_core::wire::WireMode;
    use photon_core::Image;
    use photon_math::Rgb;
    use photon_rng::Lcg48;

    fn tile(x0: usize, y0: usize, x1: usize, y1: usize) -> Tile {
        Tile { x0, y0, x1, y1 }
    }

    /// `0..n`, from the repo's own generator so a seed replays exactly.
    fn pick(rng: &mut Lcg48, n: u64) -> usize {
        ((rng.next_u48() >> 16) % n) as usize
    }

    const SIM_W: usize = 8;
    const SIM_H: usize = 6;

    /// A delta of zero to three rectangles over the simulation canvas:
    /// mostly cells of a 2 × 2 grid (so one rectangle recurs across the
    /// deltas a fold covers), now and then an arbitrary rectangle that
    /// overlaps them (so fold order shows in the pixels).
    fn random_delta(rng: &mut Lcg48, epoch: u64) -> FrameDelta {
        let tiles = (0..pick(rng, 4))
            .map(|_| {
                let t = if pick(rng, 4) > 0 {
                    let (x0, y0) = (2 * pick(rng, 4), 2 * pick(rng, 3));
                    tile(x0, y0, x0 + 2, y0 + 2)
                } else {
                    let (x0, y0) = (pick(rng, 7), pick(rng, 5));
                    let (w, h) = (
                        pick(rng, (SIM_W - x0) as u64),
                        pick(rng, (SIM_H - y0) as u64),
                    );
                    tile(x0, y0, x0 + 1 + w, y0 + 1 + h)
                };
                let shade = pick(rng, 1 << 20) as f64;
                (t, vec![Rgb::gray(shade); t.pixel_count()])
            })
            .collect();
        FrameDelta {
            epoch,
            width: SIM_W,
            height: SIM_H,
            tiles,
        }
    }

    /// The slow-consumer policy, checked without a thread, sleep or clock:
    /// random offer/take/close sequences against a `Window` at windows
    /// 1–4. After every operation the queue holds at most `window + 1`
    /// deltas, every offer's outcome is the one the queue length called
    /// for (so each lag episode reports exactly one `Lagged`, and offers =
    /// queued + lagged + squashed), taken epochs strictly increase, a fold
    /// is flagged at the take, and whenever the queue is empty the
    /// consumer's canvas equals the producer's latest frame bit for bit —
    /// the folded delta reached by taking alone. After `close` the
    /// consumer drains what was queued, lands on the last accepted frame,
    /// and then sees the end.
    #[test]
    fn seeded_simulation_holds_the_window_invariants() {
        for seed in 0..512 {
            let rng = &mut Lcg48::new(seed);
            let window = 1 + pick(rng, 4);
            let mut w = Window::new(window);
            // The producer's frame and the consumer's reassembly of it.
            let (mut latest, mut canvas) = (Image::new(SIM_W, SIM_H), Image::new(SIM_W, SIM_H));
            // Which queued deltas came through the fold slot, oldest first.
            let mut model: VecDeque<bool> = VecDeque::new();
            let (mut epoch, mut taken_epoch) = (0u64, None);
            let (mut offers, mut queued, mut lagged, mut squashed) = (0, 0, 0, 0);
            let close_at = pick(rng, 400);
            for op in 0..300 {
                let at = format!("seed {seed}, window {window}, op {op}");
                if op == close_at {
                    w.close();
                }
                if pick(rng, 5) < 3 {
                    epoch += 1;
                    let delta = random_delta(rng, epoch);
                    let expected = match model.len() {
                        _ if w.closed => Offer::Closed,
                        n if n < window => Offer::Queued,
                        n if n == window => Offer::Lagged,
                        _ => Offer::Squashed,
                    };
                    if expected != Offer::Closed {
                        delta.apply(&mut latest);
                        offers += 1;
                    }
                    assert_eq!(w.offer(delta), expected, "{at}");
                    match expected {
                        Offer::Queued => (queued += 1, model.push_back(false)).0,
                        Offer::Lagged => (lagged += 1, model.push_back(true)).0,
                        Offer::Squashed => squashed += 1,
                        Offer::Closed => {}
                    }
                } else {
                    let taken = w.take();
                    assert_eq!(taken.as_ref().map(|t| t.1), model.pop_front(), "{at}");
                    if let Some((delta, _)) = taken {
                        assert!(Some(delta.epoch) > taken_epoch, "{at}: epoch went back");
                        taken_epoch = Some(delta.epoch);
                        delta.apply(&mut canvas);
                    }
                }
                assert!(w.queue.len() <= window + 1, "{at}: bound exceeded");
                assert_eq!(w.queue.len(), model.len(), "{at}");
                assert_eq!(offers, queued + lagged + squashed, "{at}");
                if w.queue.is_empty() {
                    assert_eq!(
                        canvas.pixels(),
                        latest.pixels(),
                        "{at}: reassembly diverged"
                    );
                }
            }
            w.close();
            while let Some((delta, _)) = w.take() {
                assert!(Some(delta.epoch) > taken_epoch, "seed {seed}: drain order");
                taken_epoch = Some(delta.epoch);
                delta.apply(&mut canvas);
            }
            assert_eq!(canvas.pixels(), latest.pixels(), "seed {seed}: drain");
            assert_eq!(w.offer(random_delta(rng, epoch + 1)), Offer::Closed);
            assert!(w.take().is_none() && w.closed, "seed {seed}: the end");
        }
    }

    /// The two ends around the window: the consumer takes the fold itself,
    /// counted at the take; either end dropping ends the other.
    #[test]
    fn handle_takes_the_fold_itself_and_either_end_closes_both() {
        let metrics = Arc::new(ServiceMetrics::new());
        let request = StreamRequest {
            scene_id: SceneId(3),
            camera: Camera {
                eye: photon_math::Vec3::ZERO,
                target: photon_math::Vec3::Y,
                up: photon_math::Vec3::Y,
                vfov_deg: 40.0,
                width: SIM_W,
                height: SIM_H,
            },
        };
        let open = || {
            let obs = Arc::new(ObsHub::new(16));
            StreamHandle::open(request, 1, Arc::clone(&metrics), obs)
        };
        let rng = &mut Lcg48::new(7);
        let (producer, handle) = open();
        for epoch in 1..=3 {
            producer.offer(random_delta(rng, epoch), false);
        }
        let s = metrics.snapshot().stream;
        assert_eq!((s.deltas, s.deltas_squashed, s.lag_events), (1, 2, 1));
        assert_eq!(handle.recv().unwrap().epoch, 1);
        assert_eq!(metrics.snapshot().stream.deltas, 1, "counted at the offer");
        assert_eq!(handle.recv().unwrap().epoch, 3);
        assert_eq!(metrics.snapshot().stream.deltas, 2, "the fold, at the take");
        let now = Duration::ZERO;
        assert_eq!(handle.recv_timeout(now).unwrap_err(), ServeError::TimedOut);

        // An empty republish is skipped unless a fold is there to carry it.
        let empty = |epoch| FrameDelta {
            tiles: Vec::new(),
            ..random_delta(&mut Lcg48::new(0), epoch)
        };
        producer.offer(empty(4), true);
        assert!(handle.drain().is_empty());
        producer.offer(empty(5), false);
        producer.offer(empty(6), false);
        producer.offer(empty(7), true);
        let epochs: Vec<u64> = handle.drain().iter().map(|d| d.epoch).collect();
        assert_eq!(epochs, [5, 7]);

        producer.offer(empty(8), false);
        drop(producer);
        assert_eq!(handle.recv().unwrap().epoch, 8, "queued outlives close");
        assert_eq!(handle.recv().unwrap_err(), ServeError::ServiceStopped);
        let (producer, handle) = open();
        assert!(!producer.is_closed());
        drop(handle);
        assert!(producer.is_closed());
    }

    #[test]
    fn delta_accounting_and_apply() {
        let t = tile(0, 0, 4, 4);
        let delta = FrameDelta {
            epoch: 3,
            width: 8,
            height: 8,
            tiles: vec![(t, vec![Rgb::WHITE; 16])],
        };
        assert_eq!(delta.tile_pixels(), 16);
        assert_eq!(delta.tile_bytes(), 16 * std::mem::size_of::<Rgb>());
        assert_eq!(delta.full_frame_bytes(), 64 * std::mem::size_of::<Rgb>());
        assert!(!delta.is_empty());
        let mut img = delta.canvas();
        delta.apply(&mut img);
        assert_eq!(img.get(2, 2), Rgb::WHITE);
        assert_eq!(img.get(6, 6), Rgb::BLACK);
    }

    #[test]
    fn squash_keeps_newest_tiles_and_last_epoch() {
        let t = tile(0, 0, 2, 2);
        let u = tile(2, 0, 4, 2);
        let a = FrameDelta {
            epoch: 1,
            width: 4,
            height: 2,
            tiles: vec![(t, vec![Rgb::gray(0.2); 4])],
        };
        let b = FrameDelta {
            epoch: 2,
            width: 4,
            height: 2,
            tiles: vec![(t, vec![Rgb::gray(0.8); 4]), (u, vec![Rgb::WHITE; 4])],
        };
        let squashed = FrameDelta::squash(&[a.clone(), b.clone()]);
        assert_eq!(squashed.epoch, 2);
        assert_eq!(squashed.tiles.len(), 2, "tile t must collapse to newest");
        let mut by_order = a.canvas();
        a.apply(&mut by_order);
        b.apply(&mut by_order);
        let mut by_squash = squashed.canvas();
        squashed.apply(&mut by_squash);
        assert_eq!(by_squash.pixels(), by_order.pixels());
    }

    #[test]
    fn wire_roundtrip_through_the_codec_wrappers() {
        let t = tile(0, 0, 3, 3);
        let delta = FrameDelta {
            epoch: 7,
            width: 6,
            height: 6,
            tiles: vec![(t, (0..9).map(|i| Rgb::gray(i as f64 / 9.0)).collect())],
        };
        let (back, mode) = FrameDelta::decode(&delta.encode(WireMode::Lossless)).unwrap();
        assert_eq!(mode, WireMode::Lossless);
        assert_eq!(back.epoch, 7);
        assert_eq!(back.tiles, delta.tiles, "lossless must be bit-identical");
        let (lossy, mode) = FrameDelta::decode(&delta.encode(WireMode::Quantized)).unwrap();
        assert_eq!(mode, WireMode::Quantized);
        assert_eq!(lossy.tiles.len(), 1);
    }

    #[test]
    #[should_panic(expected = "mismatched canvas")]
    fn apply_rejects_wrong_canvas() {
        let delta = FrameDelta {
            epoch: 0,
            width: 8,
            height: 8,
            tiles: Vec::new(),
        };
        delta.apply(&mut Image::new(4, 4));
    }
}
