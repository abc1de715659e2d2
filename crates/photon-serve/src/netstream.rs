//! Off-box streaming: the `PHOTSTRM1` TCP transport.
//!
//! [`crate::stream`] delivers [`FrameDelta`]s in-process through a
//! per-subscriber window; this module puts the same subscription on a
//! socket. A [`StreamServer`] listens beside the render service, reads
//! one subscribe frame per connection, registers the subscription through
//! [`RenderService::subscribe`] — the exact path in-process clients use,
//! slow-consumer coalescing included — and writes each delta back as a
//! length-prefixed [`photon_core::wire`] frame. A [`StreamClient`]
//! connects, subscribes, and decodes deltas; in lossless mode (the
//! default) applying them reassembles every epoch bit-identical to a
//! server-side [`crate::render_parallel`] of that epoch.
//!
//! ```text
//! StreamClient ──subscribe(scene, camera, mode)──▶ StreamServer
//!              ◀── PHOTSTRM1 delta frames ──────── (one writer/conn,
//!                                                   fed by StreamHandle)
//! ```
//!
//! The slow-consumer story composes across the boundary: a client that
//! stops reading backs TCP up, the per-connection writer blocks in
//! `write_all` and stops taking from its [`crate::StreamHandle`], the
//! subscription's window fills to its
//! [`crate::ServeConfig::stream_window`], and further epochs fold into
//! the one squashed delta behind it — server-side memory for the stalled
//! client stays bounded while other connections stream on unaffected.
//! When the writer unblocks it takes the fold like any other delta.
//!
//! What arrives before the handshake is hostile until shown otherwise: a
//! subscribe frame must arrive within five seconds, name a camera whose
//! frame a `PHOTSTRM1` frame could carry (checked at decode, before the
//! dispatcher hears of it), and fit under the listener's connection cap.

use crate::net::{Listener, MAX_CONNECTIONS, REQUEST_TIMEOUT};
use crate::service::{RenderService, ServeError};
use crate::store::SceneId;
use crate::stream::{FrameDelta, StreamRequest};
use photon_core::obs::Stage;
use photon_core::wire::{self, SubscribeFrame, WireFrame, WireMode};
use photon_core::Camera;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a connection writer waits on its subscription before
/// re-checking the server's stop flag — bounds shutdown latency, not
/// delivery latency (deltas are handed over the moment they arrive).
const STOP_POLL: Duration = Duration::from_millis(100);

/// A TCP fan-out endpoint for [`FrameDelta`] subscriptions.
///
/// Binds loopback on an OS-assigned port (read it back from
/// [`local_addr`](Self::local_addr)); each accepted connection reads one
/// subscribe frame — within five seconds, or it is closed — and then
/// receives that subscription's delta stream until either side
/// disconnects. Dropping the server shuts every connection down —
/// including writers mid-`write_all` to stalled clients — and joins all
/// threads.
pub struct StreamServer {
    listener: Listener,
}

impl StreamServer {
    /// Binds `127.0.0.1:0` and starts accepting subscribers for
    /// `service`'s store.
    pub fn serve(service: Arc<RenderService>) -> io::Result<Self> {
        let listener = Listener::spawn(
            "photon-stream",
            REQUEST_TIMEOUT,
            MAX_CONNECTIONS,
            move |sock, stop| {
                let _ = serve_connection(sock, &service, stop);
            },
        )?;
        Ok(StreamServer { listener })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }
}

/// Serves one connection: subscribe handshake, then the delta pump.
fn serve_connection(
    mut sock: &TcpStream,
    service: &Arc<RenderService>,
    stop: &AtomicBool,
) -> io::Result<()> {
    sock.set_nodelay(true)?;
    let mut writer = BufWriter::new(sock);
    let frame = wire::read_frame(&mut sock)?;
    let WireFrame::Subscribe(sub) = wire::decode_frame(&frame)? else {
        let refusal = wire::encode_error("expected a subscribe frame");
        wire::write_frame(&mut writer, &refusal)?;
        return writer.flush();
    };
    let request = StreamRequest {
        scene_id: SceneId(sub.scene),
        camera: sub.camera,
    };
    let handle = match service.subscribe(request) {
        Ok(handle) => handle,
        Err(e) => {
            let refusal = wire::encode_error(&e.to_string());
            wire::write_frame(&mut writer, &refusal)?;
            return writer.flush();
        }
    };
    let (metrics, obs) = (service.metrics_handle(), service.store().obs());
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        match handle.recv_timeout(STOP_POLL) {
            Ok(delta) => {
                let body = obs.time(Stage::WireEncode, || delta.encode(sub.mode));
                // Record before the write — once the frame is flushed the
                // client can observe it and read metrics, so recording
                // afterwards races exact-count readers (the cost is one
                // phantom frame when the write fails and the connection
                // dies anyway). A write error (client gone, server
                // shutdown) drops the handle on return, which
                // unsubscribes dispatcher-side.
                metrics.record_wire(body.len() as u64 + 4);
                obs.time(Stage::WireWrite, || {
                    wire::write_frame(&mut writer, &body)?;
                    writer.flush()
                })?;
            }
            Err(ServeError::TimedOut) => {}
            Err(_) => return Ok(()),
        }
    }
}

/// The client end of an off-box subscription.
///
/// Connects, sends the subscribe frame, and then yields decoded
/// [`FrameDelta`]s from [`recv_delta`](Self::recv_delta). Apply each
/// delta in order (see [`FrameDelta::apply`]) to reassemble the stream —
/// bit-identical to the server's renders in [`WireMode::Lossless`],
/// within the quantization error bound in [`WireMode::Quantized`].
pub struct StreamClient {
    sock: TcpStream,
    mode: WireMode,
    wire_bytes: u64,
}

impl StreamClient {
    /// Connects to a [`StreamServer`] and subscribes `camera` to
    /// `scene_id`'s epoch stream, with delta payloads in `mode`.
    pub fn connect(
        addr: SocketAddr,
        scene_id: SceneId,
        camera: Camera,
        mode: WireMode,
    ) -> io::Result<Self> {
        let mut sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        let subscribe = wire::encode_subscribe(&SubscribeFrame {
            scene: scene_id.0,
            mode,
            camera,
        });
        wire::write_frame(&mut sock, &subscribe)?;
        Ok(StreamClient {
            sock,
            mode,
            wire_bytes: 0,
        })
    }

    /// Blocks for the next delta frame. An `UnexpectedEof` error means
    /// the server closed the stream; a server refusal surfaces as
    /// [`io::ErrorKind::Other`] carrying the refusal message.
    pub fn recv_delta(&mut self) -> io::Result<FrameDelta> {
        let frame = wire::read_frame(&mut self.sock)?;
        self.wire_bytes += frame.len() as u64 + 4;
        match wire::decode_frame(&frame)? {
            WireFrame::Delta(delta, _) => Ok(delta),
            WireFrame::Error(msg) => Err(io::Error::other(format!("server refused: {msg}"))),
            WireFrame::Subscribe(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected subscribe frame from server",
            )),
        }
    }

    /// The payload mode this subscription asked for.
    pub fn mode(&self) -> WireMode {
        self.mode
    }

    /// Applies a read timeout to the underlying socket (`None` blocks
    /// forever) — lets tests and cautious clients bound
    /// [`recv_delta`](Self::recv_delta).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.sock.set_read_timeout(timeout)
    }

    /// Total bytes received off the wire (length prefixes included) —
    /// what the bench compares against full-frame and in-process delta
    /// costs.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }
}
