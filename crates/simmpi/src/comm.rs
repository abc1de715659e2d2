//! The rank runtime: threads, channel mesh, collectives, virtual clocks.

use crate::platform::Platform;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// A message on the mesh.
struct Msg {
    src: usize,
    /// Collective sequence number. Ranks advance through collectives in
    /// program order, but a fast rank's collective `k+1` message can arrive
    /// before a slow rank's collective `k` message — receivers stash early
    /// messages instead of treating them as errors.
    seq: u64,
    /// Sender's virtual clock at send time (after send costs).
    t_ready: f64,
    payload: Vec<u8>,
}

/// Per-rank communicator handle (the `MPI_COMM_WORLD` of a run).
pub struct Comm {
    rank: usize,
    size: usize,
    platform: Platform,
    clock: f64,
    seq: u64,
    /// `senders[d]` delivers into rank `d`'s inbox.
    senders: Vec<Sender<Msg>>,
    inbox: Receiver<Msg>,
    /// Messages that arrived ahead of the current collective.
    stash: Vec<Msg>,
    /// Set when any rank panics, so peers fail fast instead of blocking
    /// forever on a message that will never come.
    poisoned: Arc<AtomicBool>,
}

impl Comm {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The platform cost model in force.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Current virtual time of this rank, seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Advances this rank's virtual clock by `seconds` of computation.
    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.clock += seconds;
    }

    /// Charges the platform's compute cost for `segments` transport
    /// segments in a `polygons`-polygon scene.
    pub fn charge_compute(&mut self, segments: u64, polygons: usize) {
        self.clock += self.platform.compute_cost(segments, polygons);
    }

    /// The all-to-all personalized exchange at the heart of distributed
    /// Photon (Fig 5.3): `outgoing[d]` goes to rank `d`; returns
    /// `incoming[s]` from every rank `s` (own payload passed through).
    ///
    /// Blocking and clock-synchronizing: afterwards every rank's clock is
    /// `max_over_ranks(clock + send cost) + its own receive cost`.
    pub fn alltoallv(&mut self, outgoing: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(outgoing.len(), self.size, "one payload per rank required");
        // Send cost covers remote, nonempty messages.
        let remote_sizes: Vec<usize> = outgoing
            .iter()
            .enumerate()
            .filter(|(d, m)| *d != self.rank && !m.is_empty())
            .map(|(_, m)| m.len())
            .collect();
        let t_ready = self.clock + self.platform.send_cost(&remote_sizes);
        let (incoming, max_ready) = self.exchange_raw(outgoing, t_ready);
        let (mut recv_msgs, mut recv_bytes) = (0usize, 0usize);
        for (s, m) in incoming.iter().enumerate() {
            if s != self.rank && !m.is_empty() {
                recv_msgs += 1;
                recv_bytes += m.len();
            }
        }
        self.clock = max_ready + self.platform.recv_cost(recv_msgs, recv_bytes);
        incoming
    }

    /// Data movement + sequence matching + ready-time max, with *no* cost
    /// policy: callers decide how to charge their clock.
    fn exchange_raw(&mut self, mut outgoing: Vec<Vec<u8>>, t_ready: f64) -> (Vec<Vec<u8>>, f64) {
        self.seq += 1;
        let mut incoming: Vec<Vec<u8>> = (0..self.size).map(|_| Vec::new()).collect();
        // Self-delivery is a local move.
        incoming[self.rank] = std::mem::take(&mut outgoing[self.rank]);
        for (d, payload) in outgoing.into_iter().enumerate() {
            if d == self.rank {
                continue;
            }
            self.senders[d]
                .send(Msg {
                    src: self.rank,
                    seq: self.seq,
                    t_ready,
                    payload,
                })
                .expect("rank hung up");
        }
        let mut max_ready = t_ready;
        let mut pending = self.size - 1;
        // Drain previously stashed early arrivals that belong to this
        // collective.
        let mut i = 0;
        while i < self.stash.len() {
            if self.stash[i].seq == self.seq {
                let m = self.stash.swap_remove(i);
                max_ready = max_ready.max(m.t_ready);
                incoming[m.src] = m.payload;
                pending -= 1;
            } else {
                i += 1;
            }
        }
        while pending > 0 {
            let m = match self.inbox.recv_timeout(Duration::from_millis(100)) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => {
                    assert!(
                        !self.poisoned.load(Ordering::SeqCst),
                        "rank {}: a peer rank panicked mid-collective",
                        self.rank
                    );
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("world shut down mid-collective")
                }
            };
            if m.seq == self.seq {
                max_ready = max_ready.max(m.t_ready);
                incoming[m.src] = m.payload;
                pending -= 1;
            } else {
                // A fast peer already reached a later collective; hold its
                // message until we get there. Earlier sequences would mean
                // we somehow skipped a collective — a real bug.
                assert!(
                    m.seq > self.seq,
                    "rank {}: stale collective message (got {}, at {})",
                    self.rank,
                    m.seq,
                    self.seq
                );
                self.stash.push(m);
            }
        }
        (incoming, max_ready)
    }

    /// Barrier: synchronizes control flow *and* virtual clocks (to the max).
    pub fn barrier(&mut self) {
        let empty: Vec<Vec<u8>> = (0..self.size).map(|_| Vec::new()).collect();
        self.alltoallv(empty);
    }

    /// Sum-reduction of one `f64` across ranks, result on every rank.
    ///
    /// Charged as a tree reduction: `2·ceil(log2 P)` latency+copy steps.
    pub fn allreduce_sum_f64(&mut self, x: f64) -> f64 {
        self.reduce_f64(x, |a, b| a + b)
    }

    /// Max-reduction of one `f64` across ranks.
    pub fn allreduce_max_f64(&mut self, x: f64) -> f64 {
        self.reduce_f64(x, f64::max)
    }

    /// Sum-reduction of one `u64` across ranks.
    pub fn allreduce_sum_u64(&mut self, x: u64) -> u64 {
        self.reduce_f64(x as f64, |a, b| a + b).round() as u64
    }

    fn reduce_f64(&mut self, x: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        if self.size == 1 {
            return x;
        }
        let payload = x.to_le_bytes().to_vec();
        let outgoing: Vec<Vec<u8>> = (0..self.size)
            .map(|d| {
                if d == self.rank {
                    Vec::new()
                } else {
                    payload.clone()
                }
            })
            .collect();
        // Physically a mesh exchange; virtually charged as a tree reduction
        // of `2·ceil(log2 P)` latency+copy steps, split across both sides of
        // the ready-time synchronization.
        let steps = 2.0 * (self.size as f64).log2().ceil();
        let tree_cost = steps * (self.platform.latency_s + self.platform.buffer_copy_s);
        let t_ready = self.clock + 0.5 * tree_cost;
        let (incoming, max_ready) = self.exchange_raw(outgoing, t_ready);
        self.clock = max_ready + 0.5 * tree_cost;
        let mut acc = x;
        for (s, m) in incoming.iter().enumerate() {
            if s == self.rank || m.is_empty() {
                continue;
            }
            let v = f64::from_le_bytes(m[..8].try_into().expect("8-byte reduce payload"));
            acc = op(acc, v);
        }
        acc
    }
}

/// Spawns `nranks` threads running `body`; returns each rank's result in
/// rank order. The closure receives the rank's [`Comm`].
pub fn run_world<T, F>(nranks: usize, platform: Platform, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    assert!(nranks >= 1, "need at least one rank");
    let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(nranks);
    let mut inboxes: Vec<Option<Receiver<Msg>>> = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let (tx, rx) = channel();
        senders.push(tx);
        inboxes.push(Some(rx));
    }
    let body = &body;
    let poisoned = Arc::new(AtomicBool::new(false));
    let mut results: Vec<Option<T>> = (0..nranks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for (rank, inbox) in inboxes.iter_mut().enumerate() {
            let senders = senders.clone();
            let inbox = inbox.take().expect("inbox taken once");
            let poisoned = Arc::clone(&poisoned);
            handles.push(scope.spawn(move || {
                let mut comm = Comm {
                    rank,
                    size: nranks,
                    platform,
                    clock: 0.0,
                    seq: 0,
                    senders,
                    inbox,
                    stash: Vec::new(),
                    poisoned: Arc::clone(&poisoned),
                };
                // If this rank panics, poison the world so peers blocked in
                // collectives fail fast instead of waiting forever.
                let out =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut comm)));
                match out {
                    Ok(v) => v,
                    Err(e) => {
                        poisoned.store(true, Ordering::SeqCst);
                        std::panic::resume_unwind(e);
                    }
                }
            }));
        }
        for (rank, h) in handles.into_iter().enumerate() {
            results[rank] = Some(h.join().expect("rank panicked"));
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("all ranks joined"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onyx() -> Platform {
        Platform::power_onyx()
    }

    #[test]
    fn single_rank_world_runs() {
        let out = run_world(1, onyx(), |c| {
            assert_eq!(c.size(), 1);
            let got = c.alltoallv(vec![b"self".to_vec()]);
            assert_eq!(got[0], b"self");
            c.rank()
        });
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn alltoallv_delivers_personalized_payloads() {
        let out = run_world(4, onyx(), |c| {
            let outgoing: Vec<Vec<u8>> = (0..4)
                .map(|d| vec![c.rank() as u8 * 16 + d as u8])
                .collect();
            let incoming = c.alltoallv(outgoing);
            // incoming[s] must be what s addressed to me.
            (0..4).all(|s| incoming[s] == vec![s as u8 * 16 + c.rank() as u8])
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn repeated_collectives_stay_matched() {
        let out = run_world(3, onyx(), |c| {
            let mut acc = 0u64;
            for round in 0..50u64 {
                let outgoing: Vec<Vec<u8>> = (0..3).map(|_| round.to_le_bytes().to_vec()).collect();
                let incoming = c.alltoallv(outgoing);
                for m in incoming {
                    acc += u64::from_le_bytes(m[..8].try_into().unwrap());
                }
            }
            acc
        });
        // Every rank accumulated sum over rounds * 3 payloads.
        let expect: u64 = (0..50u64).map(|r| r * 3).sum();
        assert!(out.iter().all(|&a| a == expect));
    }

    #[test]
    fn clocks_synchronize_to_slowest_rank() {
        let clocks = run_world(4, onyx(), |c| {
            // Rank 2 is slow.
            if c.rank() == 2 {
                c.advance(5.0);
            }
            c.barrier();
            c.clock()
        });
        for (r, t) in clocks.iter().enumerate() {
            assert!(*t >= 5.0, "rank {r} clock {t} below slowest");
            assert!(*t < 5.1, "rank {r} clock {t} inflated");
        }
    }

    #[test]
    fn allreduce_sum_and_max() {
        let sums = run_world(4, onyx(), |c| c.allreduce_sum_f64(c.rank() as f64 + 1.0));
        assert!(sums.iter().all(|&s| (s - 10.0).abs() < 1e-12), "{sums:?}");
        let maxes = run_world(4, onyx(), |c| c.allreduce_max_f64(c.rank() as f64));
        assert!(maxes.iter().all(|&m| m == 3.0));
        let usums = run_world(3, onyx(), |c| c.allreduce_sum_u64(100 << c.rank()));
        assert!(usums.iter().all(|&s| s == 700));
    }

    #[test]
    fn communication_advances_virtual_time() {
        let clocks = run_world(2, Platform::indy_cluster(), |c| {
            let big = vec![0u8; 100_000];
            let outgoing: Vec<Vec<u8>> = (0..2)
                .map(|d| {
                    if d == c.rank() {
                        Vec::new()
                    } else {
                        big.clone()
                    }
                })
                .collect();
            c.alltoallv(outgoing);
            c.clock()
        });
        // 100 kB over ~1 MB/s Ethernet ≈ 0.1 s.
        assert!(clocks[0] > 0.05, "{clocks:?}");
        assert_eq!(clocks[0], clocks[1] /* symmetric exchange */);
    }

    #[test]
    fn empty_exchange_is_nearly_free() {
        let clocks = run_world(4, onyx(), |c| {
            c.barrier();
            c.clock()
        });
        assert!(clocks.iter().all(|&t| t < 1e-3), "{clocks:?}");
    }

    #[test]
    fn compute_charge_uses_platform_model() {
        let clocks = run_world(1, Platform::sp2(), |c| {
            c.charge_compute(26_000, 30);
            c.clock()
        });
        assert!((clocks[0] - 1.0).abs() < 1e-9, "{clocks:?}");
    }

    #[test]
    #[should_panic]
    fn wrong_payload_count_panics() {
        run_world(2, onyx(), |c| {
            let _ = c.alltoallv(vec![Vec::new()]); // needs 2 entries
        });
    }

    #[test]
    fn results_come_back_in_rank_order() {
        let out = run_world(6, onyx(), |c| c.rank() * 7);
        assert_eq!(out, vec![0, 7, 14, 21, 28, 35]);
    }

    /// Failure injection: a rank that dies mid-collective must poison the
    /// world so its peers fail fast instead of blocking forever on a
    /// message that will never arrive.
    #[test]
    #[should_panic]
    fn panicking_rank_fails_the_world_quickly() {
        let start = std::time::Instant::now();
        let result = std::panic::catch_unwind(|| {
            run_world(3, onyx(), |c| {
                if c.rank() == 1 {
                    panic!("injected rank failure");
                }
                // Ranks 0 and 2 enter a collective rank 1 never joins.
                c.barrier();
            })
        });
        // The world must fail (poison propagation), and within seconds,
        // not hang until an external timeout.
        assert!(result.is_err());
        assert!(start.elapsed().as_secs() < 10, "peers hung on a dead rank");
        std::panic::resume_unwind(result.unwrap_err());
    }

    /// Regression test for the early-message bug: a rank preempted between
    /// the sends of its fan-out lets a fast peer race one collective ahead,
    /// so messages for collective k+1 can arrive before all of collective
    /// k's. Heavy oversubscription plus jittered busy-work makes the
    /// reordering likely; payload checks prove the stash reassembles rounds
    /// correctly.
    #[test]
    fn out_of_order_arrivals_are_stashed_not_fatal() {
        let nranks = 4;
        let rounds = 300u64;
        let ok = run_world(nranks, onyx(), |c| {
            let mut jitter = 12345u64 ^ (c.rank() as u64);
            for round in 0..rounds {
                // Deterministic per-rank jitter: spin a variable amount so
                // ranks drift through the collective schedule.
                jitter = jitter.wrapping_mul(6364136223846793005).wrapping_add(round);
                let spins = (jitter >> 33) % 2000;
                let mut x = 0u64;
                for i in 0..spins {
                    x = x.wrapping_add(i * i);
                }
                std::hint::black_box(x);
                let outgoing: Vec<Vec<u8>> = (0..c.size())
                    .map(|d| {
                        let token = round * 1000 + (c.rank() * 10 + d) as u64;
                        token.to_le_bytes().to_vec()
                    })
                    .collect();
                let incoming = c.alltoallv(outgoing);
                for (s, m) in incoming.iter().enumerate() {
                    let expect = round * 1000 + (s * 10 + c.rank()) as u64;
                    let got = u64::from_le_bytes(m[..8].try_into().unwrap());
                    if got != expect {
                        return false;
                    }
                }
                // Mix in reductions so both collective kinds interleave.
                if round % 7 == 0 {
                    let s = c.allreduce_sum_u64(round);
                    if s != round * nranks as u64 {
                        return false;
                    }
                }
            }
            true
        });
        assert!(ok.iter().all(|&b| b));
    }
}
