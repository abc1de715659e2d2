//! The rank world as plain data: one virtual clock per rank, and each
//! collective a function of every rank's input at once.

use crate::platform::Platform;

/// Every rank's virtual clock on one platform (the `MPI_COMM_WORLD` of a
/// run). A caller runs the ranks' local work however it likes, then hands
/// the world every rank's side of a collective in one call.
pub struct World {
    platform: Platform,
    clocks: Vec<f64>,
}

impl World {
    /// Builds an `nranks`-rank world on `platform`, every clock at zero.
    pub fn new(nranks: usize, platform: Platform) -> World {
        assert!(nranks >= 1, "need at least one rank");
        World {
            platform,
            clocks: vec![0.0; nranks],
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.clocks.len()
    }

    /// Every rank's virtual time, seconds, in rank order.
    pub fn clocks(&self) -> &[f64] {
        &self.clocks
    }

    /// Advances `rank`'s virtual clock by `seconds` of computation.
    pub fn advance(&mut self, rank: usize, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.clocks[rank] += seconds;
    }

    /// Charges `rank` the platform's compute cost for `segments` transport
    /// segments in a `polygons`-polygon scene.
    pub fn charge_compute(&mut self, rank: usize, segments: u64, polygons: usize) {
        self.clocks[rank] += self.platform.compute_cost(segments, polygons);
    }

    /// The all-to-all personalized exchange at the heart of distributed
    /// Photon (Fig 5.3): `outgoing[s][d]` is what rank `s` sends rank `d`;
    /// returns `incoming[d][s]`, every payload moved, not copied (a rank's
    /// payload to itself passes through free). A payload of `len` items
    /// is charged as `len × size_of::<T>()` bytes on the wire.
    ///
    /// Blocking and clock-synchronizing: afterwards rank `d`'s clock is
    /// `max over s (clock_s + s's send cost) + d's receive cost`, where a
    /// cost counts only remote, nonempty messages. The all-empty exchange
    /// is a barrier: it sets every clock to the maximum.
    ///
    /// # Panics
    /// Panics unless there is one payload per rank pair.
    pub fn alltoallv<T>(&mut self, outgoing: Vec<Vec<Vec<T>>>) -> Vec<Vec<Vec<T>>> {
        let n = self.size();
        let item_bytes = std::mem::size_of::<T>();
        assert_eq!(outgoing.len(), n, "one payload list per rank required");
        let mut max_ready = f64::NEG_INFINITY;
        for (s, row) in outgoing.iter().enumerate() {
            assert_eq!(row.len(), n, "one payload per rank required");
            let remote_sizes: Vec<usize> = row
                .iter()
                .enumerate()
                .filter(|(d, m)| *d != s && !m.is_empty())
                .map(|(_, m)| m.len() * item_bytes)
                .collect();
            max_ready = max_ready.max(self.clocks[s] + self.platform.send_cost(&remote_sizes));
        }
        let mut incoming: Vec<Vec<Vec<T>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        for row in outgoing {
            for (d, payload) in row.into_iter().enumerate() {
                incoming[d].push(payload);
            }
        }
        for (d, (clock, from)) in self.clocks.iter_mut().zip(&incoming).enumerate() {
            let (mut msgs, mut bytes) = (0usize, 0usize);
            for (s, m) in from.iter().enumerate() {
                if s != d && !m.is_empty() {
                    msgs += 1;
                    bytes += m.len() * item_bytes;
                }
            }
            *clock = max_ready + self.platform.recv_cost(msgs, bytes);
        }
        incoming
    }

    /// Synchronizes every clock to the slowest rank's through a max
    /// all-reduce and returns the common clock.
    ///
    /// Charged as a tree reduction of `2·ceil(log2 P)` latency+copy steps,
    /// split across both sides of the synchronization: every clock becomes
    /// `max over r (clock_r + ½·tree) + ½·tree`. A 1-rank world charges
    /// nothing.
    pub fn sync_clocks(&mut self) -> f64 {
        if self.size() > 1 {
            let steps = 2.0 * (self.size() as f64).log2().ceil();
            let tree_cost = steps * (self.platform.latency_s + self.platform.buffer_copy_s);
            let max_ready = self
                .clocks
                .iter()
                .map(|&t| t + 0.5 * tree_cost)
                .fold(f64::NEG_INFINITY, f64::max);
            self.clocks.fill(max_ready + 0.5 * tree_cost);
        }
        self.clocks[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onyx() -> Platform {
        Platform::power_onyx()
    }

    /// Every rank's `size` payloads, rank `s`'s to `d` from `payload(s, d)`.
    fn outgoing<T>(size: usize, payload: impl Fn(usize, usize) -> Vec<T>) -> Vec<Vec<Vec<T>>> {
        (0..size)
            .map(|s| (0..size).map(|d| payload(s, d)).collect())
            .collect()
    }

    #[test]
    fn alltoallv_delivers_personalized_payloads() {
        let mut world = World::new(4, onyx());
        let incoming = world.alltoallv(outgoing(4, |s, d| vec![s as u8 * 16 + d as u8]));
        // incoming[d][s] must be what s addressed to d.
        for (d, from) in incoming.iter().enumerate() {
            for (s, m) in from.iter().enumerate() {
                assert_eq!(*m, vec![s as u8 * 16 + d as u8], "{s} -> {d}");
            }
        }
    }

    #[test]
    fn clocks_synchronize_to_slowest_rank() {
        let mut world = World::new(4, onyx());
        world.advance(2, 5.0); // rank 2 is slow
        world.sync_clocks();
        for (r, &t) in world.clocks().iter().enumerate() {
            assert!(t >= 5.0, "rank {r} clock {t} below slowest");
            assert!(t < 5.1, "rank {r} clock {t} inflated");
        }
        world.advance(1, 1.0);
        let t = world.sync_clocks();
        assert!((6.0..6.1).contains(&t), "{t}");
        assert!(
            world.clocks().iter().all(|&c| c == t),
            "{:?}",
            world.clocks()
        );
    }

    #[test]
    fn sync_clocks_on_one_rank_charges_nothing() {
        let mut world = World::new(1, Platform::sp2());
        world.advance(0, 2.5);
        assert_eq!(world.sync_clocks(), 2.5);
        assert_eq!(world.clocks(), &[2.5]);
    }

    #[test]
    fn communication_advances_virtual_time() {
        let mut world = World::new(2, Platform::indy_cluster());
        world.alltoallv(outgoing(2, |s, d| {
            if s == d {
                Vec::new()
            } else {
                vec![0u8; 100_000]
            }
        }));
        let clocks = world.clocks();
        // 100 kB over ~1 MB/s Ethernet ≈ 0.1 s.
        assert!(clocks[0] > 0.05, "{clocks:?}");
        assert_eq!(clocks[0], clocks[1] /* symmetric exchange */);

        // Typed items cost what their bytes cost: 12 500 × 8 B = 100 kB.
        let mut typed = World::new(2, Platform::indy_cluster());
        typed.alltoallv(outgoing(2, |s, d| {
            vec![0u64; if s == d { 0 } else { 12_500 }]
        }));
        assert_eq!(typed.clocks(), clocks);
    }

    #[test]
    fn empty_exchange_is_nearly_free() {
        let mut world = World::new(4, onyx());
        world.alltoallv(outgoing(4, |_, _| Vec::<u8>::new()));
        assert!(
            world.clocks().iter().all(|&t| t < 1e-3),
            "{:?}",
            world.clocks()
        );
    }

    #[test]
    fn compute_charge_uses_platform_model() {
        let mut world = World::new(1, Platform::sp2());
        world.charge_compute(0, 26_000, 30);
        assert!(
            (world.clocks()[0] - 1.0).abs() < 1e-9,
            "{:?}",
            world.clocks()
        );
    }

    #[test]
    #[should_panic]
    fn wrong_payload_count_panics() {
        let mut world = World::new(2, onyx());
        world.alltoallv(vec![vec![Vec::<u8>::new()], vec![Vec::new(); 2]]); // rank 0 needs 2 entries
    }
}
