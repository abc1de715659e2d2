//! Stream consumers: one thread per subscriber that applies every delta to
//! a canvas and timestamps it, so the harness can wait for an epoch to
//! *land* and time delivery at the point a client could show the pixels.

use crate::spans::span_round;
use photon_core::{Camera, Image};
use photon_serve::{
    FrameDelta, RenderService, SceneId, ServeError, StreamClient, StreamRequest, StreamServer,
    WireMode,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Every wait in the harness gives up after this long and counts as a
/// failed operation instead of hanging the run.
pub const WAIT: Duration = Duration::from_secs(60);

/// How a subscriber is attached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `RenderService::subscribe`, deltas over a channel.
    InProcess,
    /// `StreamClient` over loopback TCP in the given wire mode.
    Tcp(WireMode),
}

/// What a consumer has seen so far.
#[derive(Default)]
pub struct Seen {
    /// The reassembled frame (None before the bootstrap delta).
    pub canvas: Option<Image>,
    /// Epoch of the newest applied delta.
    pub epoch: u64,
    /// `(epoch, applied at)` per delta, in arrival order.
    pub applied: Vec<(u64, Instant)>,
    /// Bytes off the wire (TCP only).
    pub wire_bytes: u64,
    /// Why the consumer stopped early, if it did.
    pub error: Option<String>,
}

struct Shared {
    seen: Mutex<Seen>,
    landed: Condvar,
    stopping: AtomicBool,
}

/// One running consumer.
pub struct Subscriber {
    /// The viewpoint it follows.
    pub camera: Camera,
    /// How it is attached.
    pub transport: Transport,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Subscriber {
    /// Subscribes `camera` to `scene_id` and starts the consumer thread.
    /// TCP subscribers connect to `server`.
    pub fn start(
        service: &Arc<RenderService>,
        server: &StreamServer,
        scene_id: SceneId,
        camera: Camera,
        transport: Transport,
    ) -> Result<Subscriber, String> {
        let shared = Arc::new(Shared {
            seen: Mutex::new(Seen::default()),
            landed: Condvar::new(),
            stopping: AtomicBool::new(false),
        });
        let thread = match transport {
            Transport::InProcess => {
                let handle = service
                    .subscribe(StreamRequest { scene_id, camera })
                    .map_err(|e| format!("subscribe: {e}"))?;
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    match handle.recv_timeout(Duration::from_millis(50)) {
                        Ok(delta) => shared.land(delta, 0),
                        Err(ServeError::TimedOut) => {
                            // SeqCst: pairs with the store in `stop`.
                            if shared.stopping.load(Ordering::SeqCst) {
                                return;
                            }
                        }
                        Err(e) => return shared.fail(format!("in-process stream: {e}")),
                    }
                })
            }
            Transport::Tcp(mode) => {
                let mut client = StreamClient::connect(server.local_addr(), scene_id, camera, mode)
                    .map_err(|e| format!("connect: {e}"))?;
                client
                    .set_read_timeout(Some(WAIT))
                    .map_err(|e| format!("socket timeout: {e}"))?;
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    // Blocks until a frame or EOF; `stop` unblocks it by
                    // dropping the server, which closes the socket.
                    match client.recv_delta() {
                        Ok(delta) => shared.land(delta, client.wire_bytes()),
                        Err(_) if shared.stopping.load(Ordering::SeqCst) => return,
                        Err(e) => return shared.fail(format!("tcp stream: {e}")),
                    }
                })
            }
        };
        Ok(Subscriber {
            camera,
            transport,
            shared,
            thread: Some(thread),
        })
    }

    /// Blocks until a delta of `epoch` or later has been applied. False on
    /// timeout or when the consumer died.
    pub fn wait_epoch(&self, epoch: u64) -> bool {
        let deadline = Instant::now() + WAIT;
        let mut seen = self.shared.seen.lock().expect("consumer never panics");
        loop {
            if seen.epoch >= epoch && seen.canvas.is_some() {
                return true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            if seen.error.is_some() {
                return false;
            }
            seen = self
                .shared
                .landed
                .wait_timeout(seen, left)
                .expect("consumer never panics")
                .0;
        }
    }

    /// Reads the consumer's state.
    pub fn with_seen<T>(&self, f: impl FnOnce(&Seen) -> T) -> T {
        f(&self.shared.seen.lock().expect("consumer never panics"))
    }

    /// When the first delta at or past `epoch` was applied.
    pub fn landed_at(&self, epoch: u64) -> Option<Instant> {
        self.with_seen(|seen| {
            seen.applied
                .iter()
                .find(|(e, _)| *e >= epoch)
                .map(|(_, at)| *at)
        })
    }

    /// Marks the consumer as stopping; call before dropping the
    /// [`StreamServer`] it hangs off, then [`join`](Self::join).
    pub fn stop(&self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
    }

    /// Joins the consumer thread and hands back what it saw.
    pub fn join(mut self) -> Seen {
        self.stop();
        if let Some(thread) = self.thread.take() {
            if thread.join().is_err() {
                self.shared.fail("consumer thread panicked".into());
            }
        }
        std::mem::take(&mut *self.shared.seen.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Shared {
    /// Applies a delta to the canvas and wakes waiters; `wire_bytes` is the
    /// connection's running total (0 in process).
    fn land(&self, delta: FrameDelta, wire_bytes: u64) {
        let mut seen = self.seen.lock().expect("harness never panics holding it");
        seen.wire_bytes = wire_bytes;
        let _s = span_round("stream.apply", delta.epoch);
        let canvas = seen.canvas.get_or_insert_with(|| delta.canvas());
        if (canvas.width(), canvas.height()) == (delta.width, delta.height) {
            delta.apply(canvas);
        } else {
            seen.error = Some("delta size changed mid-stream".into());
        }
        seen.epoch = seen.epoch.max(delta.epoch);
        seen.applied.push((delta.epoch, Instant::now()));
        drop(seen);
        self.landed.notify_all();
    }

    fn fail(&self, why: String) {
        self.seen
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .error
            .get_or_insert(why);
        self.landed.notify_all();
    }
}
