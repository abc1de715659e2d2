//! The serve tier's one TCP listener: bind loopback, accept on a thread,
//! run each connection on its own thread, stop on drop. [`crate::ObsServer`]
//! and [`crate::StreamServer`] are both this plus a connection handler, so
//! they share one shutdown sequence and one set of timeouts.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection may stay silent before its first request — the
/// scrape's request line, the stream's subscribe frame — arrives. Without
/// it an idle connect pins a thread for as long as the peer likes.
pub(crate) const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Most live connections either server holds. Each one is a thread (and,
/// on the stream server, a subscription with a retained frame), so a peer
/// that only connects must not be able to grow them without limit; one
/// over the cap is closed at accept.
pub(crate) const MAX_CONNECTIONS: usize = 256;

/// A connection's thread paired with a clone of its socket, kept so
/// `Drop` can `shutdown()` the socket out from under a handler blocked on
/// a stalled peer before joining it.
type Connections = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// A listener on `127.0.0.1:0` (an OS-assigned port — read it back from
/// [`local_addr`](Self::local_addr)). Dropping it stops accepting, shuts
/// every live connection down — handlers mid-`write_all` to stalled peers
/// included — and joins all threads.
pub(crate) struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    connections: Connections,
}

impl Listener {
    /// Binds and starts accepting, at most `max_connections` at a time (a
    /// connection beyond that is closed unserved). Each connection gets
    /// `read_timeout` on its socket (writes are left blocking: the delta
    /// pump's slow-consumer coalescing depends on them) and runs
    /// `serve(socket, stop)` on a thread named after `name`; a handler that
    /// loops should leave when `stop` is set. The connection closes when
    /// the handler returns.
    pub(crate) fn spawn(
        name: &str,
        read_timeout: Duration,
        max_connections: usize,
        serve: impl Fn(&TcpStream, &AtomicBool) + Send + Sync + 'static,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Connections::default();
        let conn_name = format!("{name}-conn");
        let (stopping, registry, serve) =
            (Arc::clone(&stop), Arc::clone(&connections), Arc::new(serve));
        let accept = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                for conn in listener.incoming() {
                    if stopping.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(sock) = conn else { continue };
                    let mut registry = registry.lock().expect("connection registry");
                    // Reap as we go, so the registry holds live connections
                    // rather than every connection ever made.
                    registry.retain(|(thread, _)| !thread.is_finished());
                    if registry.len() >= max_connections {
                        continue;
                    }
                    let Ok(peer) = sock.try_clone() else { continue };
                    if sock.set_read_timeout(Some(read_timeout)).is_err() {
                        continue;
                    }
                    let (stopping, serve) = (Arc::clone(&stopping), Arc::clone(&serve));
                    let spawned =
                        std::thread::Builder::new()
                            .name(conn_name.clone())
                            .spawn(move || {
                                serve(&sock, &stopping);
                                // The registry's clone keeps the descriptor
                                // open; end the connection itself.
                                let _ = sock.shutdown(Shutdown::Both);
                            });
                    if let Ok(thread) = spawned {
                        registry.push((thread, peer));
                    }
                }
            })?;
        Ok(Listener {
            addr,
            stop,
            accept: Some(accept),
            connections,
        })
    }

    /// The bound address.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let connections = match self.connections.lock() {
            Ok(mut registry) => std::mem::take(&mut *registry),
            Err(_) => return,
        };
        for (thread, sock) in connections {
            let _ = sock.shutdown(Shutdown::Both);
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// A handler that waits for one byte, the way both servers wait for
    /// their first request.
    fn wait_for_a_byte(mut sock: &TcpStream, _: &AtomicBool) {
        let _ = sock.read(&mut [0]);
    }

    #[test]
    fn a_silent_connection_is_closed_after_the_read_timeout() {
        let listener =
            Listener::spawn("net-test", Duration::from_millis(50), 8, wait_for_a_byte).unwrap();
        let mut silent = TcpStream::connect(listener.local_addr()).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // The handler's read times out, it returns, and its socket closes:
        // the client sees end-of-stream long before its own timeout.
        assert_eq!(silent.read(&mut [0]).expect("closed, not timed out"), 0);
    }

    #[test]
    fn finished_connections_are_reaped_on_accept() {
        const CYCLES: usize = 16;
        let listener = Listener::spawn("net-test", REQUEST_TIMEOUT, 8, wait_for_a_byte).unwrap();
        for _ in 0..CYCLES {
            let mut conn = TcpStream::connect(listener.local_addr()).unwrap();
            conn.shutdown(Shutdown::Write).unwrap();
            // The handler read end-of-stream and returned.
            assert_eq!(conn.read(&mut [0]).unwrap(), 0);
        }
        let held = listener.connections.lock().unwrap().len();
        assert!(held < CYCLES, "{held} of {CYCLES} connections still held");
    }

    #[test]
    fn connections_over_the_cap_are_closed_and_freed_slots_reused() {
        // A served connection is greeted with a byte; a refused one reads
        // end-of-stream at once.
        let listener = Listener::spawn("net-test", REQUEST_TIMEOUT, 2, |mut sock, _| {
            let _ = sock.write_all(&[1]);
            let _ = sock.read(&mut [0]);
        })
        .unwrap();
        let connect = || {
            let mut conn = TcpStream::connect(listener.local_addr()).unwrap();
            let served = conn.read(&mut [0]).unwrap() == 1;
            (conn, served)
        };
        let (first, second) = (connect(), connect());
        assert!(first.1 && second.1, "both slots serve");
        assert!(!connect().1, "a third connection is over the cap");
        // Hang up the first; once its handler has returned the slot is
        // free (the thread ends a moment after its socket closes, so ask
        // again until it has — each refusal returns immediately).
        drop(first);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !connect().1 {
            assert!(std::time::Instant::now() < deadline, "slot never freed");
        }
        drop(second); // held its slot throughout
    }
}
