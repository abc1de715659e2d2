//! Load balancing: assigning bin-tree ownership to ranks (ch. 5, Table 5.2).
//!
//! "Initially all processors are assigned ownership of the entire geometry.
//! During this load balancing phase, k photons are generated and traced
//! through the scene … each processor goes through the photons in the same
//! order, thus producing the same bin forest. At this point, we are able to
//! use the photon counts for each bin to determine an appropriate load
//! balance. Finding an optimal load balance is then reduced to the bin
//! packing problem … a good approximation can be reached using the Best-Fit
//! algorithm."
//!
//! [`naive`] assigns contiguous blocks of patch indices (what a scheduler
//! that knows nothing about the light distribution would do); [`best_fit`]
//! packs patches onto the least-loaded rank in decreasing order of observed
//! pilot-photon counts.

/// Patch-to-rank ownership map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ownership {
    /// Per patch, its owner rank and its slot among that rank's patches.
    place: Vec<(u32, u32)>,
    nranks: usize,
}

impl Ownership {
    /// The map that gives patch `i` to `owners[i]`; each rank's slots
    /// number its patches 0, 1, … in increasing patch id.
    fn new(owners: impl IntoIterator<Item = u32>, nranks: usize) -> Ownership {
        let mut next_slot = vec![0u32; nranks];
        let place = owners
            .into_iter()
            .map(|o| {
                let slot = next_slot[o as usize];
                next_slot[o as usize] += 1;
                (o, slot)
            })
            .collect();
        Ownership { place, nranks }
    }

    /// Owner rank of a patch.
    #[inline]
    pub fn owner_of(&self, patch_id: u32) -> usize {
        self.locate(patch_id).0
    }

    /// Owner rank of a patch and the patch's slot on that rank: its index
    /// in the owner's [`patches_of`](Ownership::patches_of).
    #[inline]
    pub fn locate(&self, patch_id: u32) -> (usize, usize) {
        let (owner, slot) = self.place[patch_id as usize];
        (owner as usize, slot as usize)
    }

    /// Number of patches.
    pub fn patch_count(&self) -> usize {
        self.place.len()
    }

    /// Patch ids owned by `rank`.
    pub fn patches_of(&self, rank: usize) -> Vec<u32> {
        (0..self.place.len() as u32)
            .filter(|&p| self.owner_of(p) == rank)
            .collect()
    }

    /// Predicted per-rank load under a per-patch weight vector.
    pub fn loads(&self, weights: &[u64]) -> Vec<u64> {
        assert_eq!(weights.len(), self.place.len());
        let mut loads = vec![0u64; self.nranks];
        for (&(o, _), &w) in self.place.iter().zip(weights) {
            loads[o as usize] += w;
        }
        loads
    }

    /// Max/mean load imbalance under `weights` (1.0 = perfectly balanced).
    pub fn imbalance(&self, weights: &[u64]) -> f64 {
        let loads = self.loads(weights);
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.nranks as f64;
        loads.iter().copied().max().unwrap_or(0) as f64 / mean
    }
}

/// Naive balance: contiguous blocks of patch indices, one block per rank.
pub fn naive(patch_count: usize, nranks: usize) -> Ownership {
    assert!(nranks >= 1);
    let per = patch_count.div_ceil(nranks);
    let owners = (0..patch_count).map(|i| ((i / per.max(1)).min(nranks - 1)) as u32);
    Ownership::new(owners, nranks)
}

/// Best-Fit-Decreasing bin packing on observed pilot-photon counts:
/// heaviest patch first, each to the currently least-loaded rank.
pub fn best_fit(pilot_counts: &[u64], nranks: usize) -> Ownership {
    assert!(nranks >= 1);
    let mut order: Vec<usize> = (0..pilot_counts.len()).collect();
    // Decreasing by count; ties broken by index, so the packing is a pure
    // function of the counts.
    order.sort_by(|&a, &b| pilot_counts[b].cmp(&pilot_counts[a]).then(a.cmp(&b)));
    let mut owner = vec![0u32; pilot_counts.len()];
    let mut loads = vec![0u64; nranks];
    for i in order {
        let lightest = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
            .map(|(r, _)| r)
            .unwrap();
        owner[i] = lightest as u32;
        loads[lightest] += pilot_counts[i].max(1); // empty patches still cost a tree
    }
    Ownership::new(owner, nranks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_blocks_are_contiguous_and_cover() {
        let o = naive(10, 3);
        assert_eq!(o.patch_count(), 10);
        let owners: Vec<usize> = (0..10).map(|i| o.owner_of(i)).collect();
        // Non-decreasing (contiguous blocks) and within range.
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        assert!(owners.iter().all(|&r| r < 3));
        // All ranks own something.
        for r in 0..3 {
            assert!(!o.patches_of(r).is_empty(), "rank {r} empty");
        }
    }

    #[test]
    fn best_fit_beats_naive_on_skewed_weights() {
        // One hot patch per block position — the paper's spotlight-on-the-
        // floor scenario.
        let weights: Vec<u64> = vec![47_900, 100, 50, 35_600, 80, 20, 25_600, 40];
        let nranks = 4;
        let naive_o = naive(weights.len(), nranks);
        let packed = best_fit(&weights, nranks);
        let ni = naive_o.imbalance(&weights);
        let bi = packed.imbalance(&weights);
        assert!(bi < ni, "best-fit {bi} not better than naive {ni}");
        // The indivisible 47.9k patch bounds achievable balance at
        // max/mean = 47900/27347 ≈ 1.752; best-fit must reach that bound.
        assert!(bi < 1.76, "best-fit imbalance too high: {bi}");
    }

    #[test]
    fn best_fit_never_worse_than_naive() {
        // Property-style sweep over deterministic pseudo-random weights.
        use photon_rng::{Lcg48, PhotonRng};
        let mut rng = Lcg48::new(77);
        for trial in 0..50 {
            let n = 4 + rng.index(60);
            let nranks = 1 + rng.index(8);
            let weights: Vec<u64> = (0..n).map(|_| (rng.next_f64() * 10_000.0) as u64).collect();
            let ni = naive(n, nranks).imbalance(&weights);
            let bi = best_fit(&weights, nranks).imbalance(&weights);
            assert!(
                bi <= ni + 1e-9,
                "trial {trial}: best-fit {bi} worse than naive {ni} (n={n}, ranks={nranks})"
            );
        }
    }

    #[test]
    fn single_rank_owns_everything() {
        let o = best_fit(&[5, 3, 9], 1);
        assert_eq!(o.patches_of(0).len(), 3);
        assert_eq!(o.imbalance(&[5, 3, 9]), 1.0);
    }

    #[test]
    fn loads_sum_to_total() {
        let weights = [10u64, 20, 30, 40, 50];
        let o = best_fit(&weights, 2);
        let loads = o.loads(&weights);
        assert_eq!(loads.iter().sum::<u64>(), 150);
    }

    #[test]
    fn determinism_of_best_fit() {
        let w = [7u64, 7, 7, 7, 100, 3];
        assert_eq!(best_fit(&w, 3), best_fit(&w, 3));
    }
}
