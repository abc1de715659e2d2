//! # photon-gi — Parallel Hierarchical Global Illumination
//!
//! Umbrella crate re-exporting the public API of the workspace: a
//! reproduction of Quinn O. Snell's *Parallel Hierarchical Global
//! Illumination* (Iowa State / HPDC 1997) — the **Photon** Monte Carlo
//! light-transport simulator with four-dimensional adaptive histogram bins,
//! parallelized for shared memory (threads + fine-grained locking) and
//! distributed memory (message passing with bin-forest distribution,
//! bin-packing load balance and adaptive batch sizing).
//!
//! ## Layer map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`math`] | `photon-math` | vectors, rays, AABBs, patches, cylindrical direction coords |
//! | [`rng`] | `photon-rng` | 48-bit LCG with leapfrog subsequence splitting |
//! | [`hist`] | `photon-hist` | adaptive 1-D histograms and 4-D bin trees (3σ split rule) |
//! | [`geom`] | `photon-geom` | scenes, materials, luminaires, octree intersection |
//! | [`core`] | `photon-core` | the serial Photon simulator, answer files, viewer, and the `SolverEngine` trait every backend implements |
//! | [`scenes`] | `photon-scenes` | Cornell Box, Harpsichord Practice Room, Computer Laboratory |
//! | [`par`] | `photon-par` | shared-memory parallel simulator (resumable `ParEngine`) |
//! | [`mpi`] | `simmpi` | bulk-synchronous MPI subset (per-rank virtual clocks, typed all-to-all, clock all-reduce) with 1997 platform models |
//! | [`dist`] | `photon-dist` | distributed-memory simulator (resumable `DistEngine`), load balancing, batch sizing |
//! | [`serve`] | `photon-serve` | solve→store→render pipeline: background solver pool, epoch-versioned answer store with a publish watch, tile-parallel render service with an epoch-keyed view cache, and streaming tile-delta subscriptions |
//! | [`baselines`] | `photon-baselines` | Whitted ray tracing, radiosity, density estimation, spherical harmonics |
//!
//! ## Quickstart
//!
//! ```
//! use photon_gi::core::{Simulator, SimConfig};
//! use photon_gi::scenes;
//!
//! let scene = scenes::cornell_box();
//! let mut sim = Simulator::new(scene, SimConfig { seed: 42, ..SimConfig::default() });
//! sim.run_photons(20_000);
//! let answer = sim.into_answer();
//! assert!(answer.total_leaf_bins() > 100); // hierarchy refined where light landed
//! ```

pub use photon_baselines as baselines;
pub use photon_core as core;
pub use photon_dist as dist;
pub use photon_geom as geom;
pub use photon_hist as hist;
pub use photon_math as math;
pub use photon_par as par;
pub use photon_rng as rng;
pub use photon_scenes as scenes;
pub use photon_serve as serve;
pub use simmpi as mpi;
