//! Engine checkpoints: freeze a running solve, resume it *bit-identically*.
//!
//! A Photon solve is pure accumulation: every backend draws photon `j` from
//! the same per-photon block substream ([`crate::photon_stream`]), folds its
//! tallies into the bin forest, and moves to photon `j + 1`. The complete
//! resumable state is therefore tiny in kind (if not in bytes): the forest
//! (with each leaf's speculative split statistics), the cumulative photon
//! counters, and the photon-index cursor the next batch starts from. An
//! [`EngineCheckpoint`] captures exactly that, and
//! [`SolverEngine::checkpoint`](crate::SolverEngine::checkpoint) /
//! [`SolverEngine::restore`](crate::SolverEngine::restore) move it in and
//! out of any backend.
//!
//! **The resume invariant.** For the order-preserving backends — the serial
//! [`Simulator`](crate::Simulator) and `photon_par::ParEngine` —
//! checkpoint at photon `N`, restore into either
//! backend (same or different), and step to `M`: the resulting
//! [`Answer`] is **bit-identical** to an uninterrupted `N + M` solve.
//! `photon_dist::DistEngine` resumes bit-identically into a freshly booted
//! world of the same configuration (its tally order is rank-partitioned, so
//! cross-backend equality weakens to the usual photon-set invariants:
//! identical counters and tally totals). The equivalence suite in
//! `photon-serve` enforces all of this.
//!
//! **On disk.** [`EngineCheckpoint::write_to`] serializes to the `PHOTCK1`
//! format, a sibling of the answer store's `PHOTANS1`: a 7-byte magic, a
//! version byte, the header fields, then each tree in the shared tree-block
//! encoding. Reads validate magic, version, node graphs, photon-counter
//! conservation, and reject trailing garbage.
//!
//! ```
//! use photon_core::{EngineCheckpoint, SimConfig, Simulator, SolverEngine};
//!
//! let scene = photon_scenes::cornell_box();
//! let cfg = SimConfig { seed: 7, ..Default::default() };
//!
//! // Solve 2000 photons, checkpoint, and round-trip through the codec.
//! let mut sim = Simulator::new(scene.clone(), cfg);
//! sim.step(2_000);
//! let bytes = sim.checkpoint().to_bytes();
//! let ck = EngineCheckpoint::from_bytes(&bytes).unwrap();
//!
//! // A fresh engine resumes exactly where the old one stopped...
//! let mut resumed = Simulator::new(scene.clone(), cfg);
//! resumed.restore(&ck).unwrap();
//! resumed.step(1_000);
//!
//! // ...and lands bit-identically on an uninterrupted 3000-photon solve.
//! let mut straight = Simulator::new(scene, cfg);
//! straight.step(3_000);
//! let encode = |a: &photon_core::Answer| {
//!     let mut buf = Vec::new();
//!     a.write_to(&mut buf).unwrap();
//!     buf
//! };
//! assert_eq!(encode(&resumed.snapshot()), encode(&straight.snapshot()));
//! ```

use crate::answer::{read_tree, tree_encoded_size, write_tree};
use crate::forest::BinForest;
use crate::frame::{
    bad_data, expect_end, expect_magic, read_counted, read_f64, read_u16, read_u32, read_u64,
    read_u8,
};
use crate::sim::SimStats;
use crate::Answer;
use photon_hist::{BinTree, SplitConfig, SplitRule};
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic bytes of the checkpoint-file format (version follows as one byte).
const MAGIC: &[u8; 7] = b"PHOTCK1";

/// Format version written after the magic; bump on layout changes.
const VERSION: u8 = 1;

/// Fixed header size: magic (7) + version (1) + seed (8) + cursor (8) +
/// stats (5 × 8) + split rule (8 + 4) + max depth (2) + patch count (4).
const HEADER_BYTES: u64 = 7 + 1 + 8 + 8 + 40 + 8 + 4 + 2 + 4;

/// The frozen state of a running solve: forest, counters, and the photon
/// cursor — everything a backend needs to continue the exact photon stream.
///
/// Obtain one from [`SolverEngine::checkpoint`](crate::SolverEngine::checkpoint),
/// persist it with [`save`](EngineCheckpoint::save) /
/// [`write_to`](EngineCheckpoint::write_to), and hand it to
/// [`SolverEngine::restore`](crate::SolverEngine::restore) on any engine
/// built over the same scene, seed, and split policy.
#[derive(Clone, Debug)]
pub struct EngineCheckpoint {
    seed: u64,
    cursor: u64,
    stats: SimStats,
    split: SplitConfig,
    trees: Vec<BinTree>,
}

impl EngineCheckpoint {
    /// Assembles a checkpoint from an engine's parts. `cursor` is the next
    /// *global photon index* the engine would trace — equal to
    /// `stats.emitted` for the serial and shared-memory engines, and to the
    /// main-loop photon count for the distributed engine (whose pilot-phase
    /// photons count in `stats` but not in the stream cursor).
    pub fn new(
        seed: u64,
        cursor: u64,
        stats: SimStats,
        split: SplitConfig,
        trees: Vec<BinTree>,
    ) -> Self {
        EngineCheckpoint {
            seed,
            cursor,
            stats,
            split,
            trees,
        }
    }

    /// Seed of the photon stream this solve draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The next global photon index to trace after restoring.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Cumulative photon counters at checkpoint time.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Photons emitted when the checkpoint was taken.
    pub fn emitted(&self) -> u64 {
        self.stats.emitted
    }

    /// The split policy the forest was grown under (a restore target must
    /// match it, or its future splits would diverge).
    pub fn split(&self) -> SplitConfig {
        self.split
    }

    /// Number of patches (trees) in the checkpointed forest.
    pub fn patch_count(&self) -> usize {
        self.trees.len()
    }

    /// Total leaf bins across the checkpointed forest.
    pub fn total_leaf_bins(&self) -> u64 {
        self.trees.iter().map(|t| t.leaf_count() as u64).sum()
    }

    /// A fresh forest holding the checkpointed trees (cloned).
    pub fn forest(&self) -> BinForest {
        BinForest::from_trees(self.trees.clone())
    }

    /// The checkpoint's solution as a renderable [`Answer`] — what a
    /// progressive publish of the interrupted solve would have produced.
    pub fn to_answer(&self) -> Answer {
        Answer::from_forest(&self.forest(), self.stats.emitted)
    }

    /// Exact size of the `PHOTCK1` encoding, in bytes, without encoding.
    pub fn encoded_size(&self) -> u64 {
        HEADER_BYTES + self.trees.iter().map(tree_encoded_size).sum::<u64>()
    }

    /// Writes the `PHOTCK1` binary encoding.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&[VERSION])?;
        w.write_all(&self.seed.to_le_bytes())?;
        w.write_all(&self.cursor.to_le_bytes())?;
        for c in [
            self.stats.emitted,
            self.stats.absorbed,
            self.stats.escaped,
            self.stats.capped,
            self.stats.reflections,
        ] {
            w.write_all(&c.to_le_bytes())?;
        }
        w.write_all(&self.split.rule.sigmas.to_le_bytes())?;
        w.write_all(&self.split.rule.min_count.to_le_bytes())?;
        w.write_all(&self.split.max_depth.to_le_bytes())?;
        w.write_all(&(self.trees.len() as u32).to_le_bytes())?;
        for tree in &self.trees {
            write_tree(w, tree)?;
        }
        Ok(())
    }

    /// Reads a `PHOTCK1` checkpoint written by
    /// [`write_to`](EngineCheckpoint::write_to), validating magic, version,
    /// counter conservation, and every tree's node graph. The reader must
    /// end exactly at the encoding's last byte — trailing garbage is
    /// rejected, so a corrupt concatenation cannot half-parse.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<EngineCheckpoint> {
        expect_magic(r, MAGIC, "not a Photon checkpoint file")?;
        let version = read_u8(r)?;
        if version != VERSION {
            return Err(bad_data(&format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            )));
        }
        let seed = read_u64(r)?;
        let cursor = read_u64(r)?;
        let stats = SimStats {
            emitted: read_u64(r)?,
            absorbed: read_u64(r)?,
            escaped: read_u64(r)?,
            capped: read_u64(r)?,
            reflections: read_u64(r)?,
        };
        if !stats.is_conserved() {
            return Err(bad_data("checkpoint counters are not conserved"));
        }
        // Every backend's cursor is bounded by its emitted count (equal on
        // the order-preserving engines; the distributed cursor excludes
        // the pilot photons counted in `stats`), so a cursor beyond it is
        // corruption that would silently resume at the wrong stream index.
        if cursor > stats.emitted {
            return Err(bad_data("checkpoint cursor exceeds emitted photons"));
        }
        let sigmas = read_f64(r)?;
        if !sigmas.is_finite() || sigmas <= 0.0 {
            return Err(bad_data("bad split rule"));
        }
        let split = SplitConfig {
            rule: SplitRule {
                sigmas,
                min_count: read_u32(r)?,
            },
            max_depth: read_u16(r)?,
        };
        let npatches = read_u32(r)? as usize;
        let trees = read_counted(r, npatches, |r| read_tree(r, split))?;
        expect_end(r, "trailing garbage after checkpoint")?;
        Ok(EngineCheckpoint {
            seed,
            cursor,
            stats,
            split,
            trees,
        })
    }

    /// The `PHOTCK1` encoding as a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_size() as usize);
        self.write_to(&mut buf).expect("Vec writes cannot fail");
        buf
    }

    /// [`to_bytes`](EngineCheckpoint::to_bytes) with the encode duration
    /// recorded into `hub` under [`Stage::CheckpointEncode`] — what the
    /// serve tier calls so checkpoint encode cost shows up in the stage
    /// histograms.
    ///
    /// [`Stage::CheckpointEncode`]: crate::obs::Stage::CheckpointEncode
    pub fn to_bytes_observed(&self, hub: &crate::ObsHub) -> Vec<u8> {
        hub.time(crate::Stage::CheckpointEncode, || self.to_bytes())
    }

    /// Decodes a byte slice produced by [`to_bytes`](EngineCheckpoint::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> io::Result<EngineCheckpoint> {
        EngineCheckpoint::read_from(&mut &bytes[..])
    }

    /// Saves the checkpoint to a file (buffered).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// Loads a checkpoint file written by [`save`](EngineCheckpoint::save).
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<EngineCheckpoint> {
        let mut r = io::BufReader::new(std::fs::File::open(path)?);
        EngineCheckpoint::read_from(&mut r)
    }
}

/// Why a checkpoint cannot restore into a given engine: the checkpoint only
/// means something against the scene, stream, and split policy it froze.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The engine's scene has a different patch count than the checkpoint.
    PatchCountMismatch {
        /// Patches in the engine's scene.
        engine: usize,
        /// Trees in the checkpoint.
        checkpoint: usize,
    },
    /// The engine was built over a different photon-stream seed, so the
    /// checkpoint's cursor would index into the wrong stream.
    SeedMismatch {
        /// The engine's seed.
        engine: u64,
        /// The checkpoint's seed.
        checkpoint: u64,
    },
    /// The engine's split policy differs, so resumed trees would refine
    /// differently than the originals.
    SplitMismatch,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::PatchCountMismatch { engine, checkpoint } => write!(
                f,
                "checkpoint holds {checkpoint} trees but the engine's scene has {engine} patches"
            ),
            RestoreError::SeedMismatch { engine, checkpoint } => write!(
                f,
                "checkpoint was taken under seed {checkpoint} but the engine runs seed {engine}"
            ),
            RestoreError::SplitMismatch => {
                write!(f, "checkpoint and engine disagree on the split policy")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl EngineCheckpoint {
    /// The restore preamble every backend runs before adopting this
    /// checkpoint's state: the target engine's scene patch count, stream
    /// seed, and split policy must all match what the checkpoint froze.
    pub fn compatible_with(
        &self,
        patch_count: usize,
        seed: u64,
        split: SplitConfig,
    ) -> Result<(), RestoreError> {
        if self.patch_count() != patch_count {
            return Err(RestoreError::PatchCountMismatch {
                engine: patch_count,
                checkpoint: self.patch_count(),
            });
        }
        if self.seed() != seed {
            return Err(RestoreError::SeedMismatch {
                engine: seed,
                checkpoint: self.seed(),
            });
        }
        if self.split() != split {
            return Err(RestoreError::SplitMismatch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_hist::BinPoint;
    use photon_math::Rgb;
    use photon_rng::{Lcg48, PhotonRng};
    use std::f64::consts::TAU;

    fn sample_checkpoint() -> EngineCheckpoint {
        let mut forest = BinForest::new(3, SplitConfig::default());
        let mut rng = Lcg48::new(41);
        for _ in 0..20_000 {
            let pid = rng.index(3) as u32;
            let p = BinPoint::new(
                rng.next_f64().powi(2),
                rng.next_f64(),
                rng.next_f64() * TAU,
                rng.next_f64(),
            );
            forest.tally(pid, &p, Rgb::new(1.0, 0.5, 0.25));
        }
        EngineCheckpoint::new(
            99,
            6_000,
            SimStats {
                emitted: 6_000,
                absorbed: 4_000,
                escaped: 1_500,
                capped: 500,
                reflections: 14_000,
            },
            SplitConfig::default(),
            forest.into_trees(),
        )
    }

    #[test]
    fn encoded_size_is_exact() {
        let ck = sample_checkpoint();
        assert_eq!(ck.to_bytes().len() as u64, ck.encoded_size());
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let ck = sample_checkpoint();
        let bytes = ck.to_bytes();
        let back = EngineCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.seed(), ck.seed());
        assert_eq!(back.cursor(), ck.cursor());
        assert_eq!(back.stats(), ck.stats());
        assert_eq!(back.split(), ck.split());
        assert_eq!(back.patch_count(), ck.patch_count());
        assert_eq!(back.total_leaf_bins(), ck.total_leaf_bins());
        // Byte-stable: re-encoding the decoded checkpoint is identical.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn to_answer_matches_the_forest_snapshot() {
        let ck = sample_checkpoint();
        let a = ck.to_answer();
        assert_eq!(a.emitted(), ck.emitted());
        assert_eq!(a.total_leaf_bins(), ck.total_leaf_bins());
    }

    #[test]
    fn restore_compatibility_is_checked() {
        let ck = sample_checkpoint();
        assert_eq!(
            ck.compatible_with(2, 99, SplitConfig::default()),
            Err(RestoreError::PatchCountMismatch {
                engine: 2,
                checkpoint: 3
            })
        );
        assert_eq!(
            ck.compatible_with(3, 7, SplitConfig::default()),
            Err(RestoreError::SeedMismatch {
                engine: 7,
                checkpoint: 99
            })
        );
        let strict = SplitConfig {
            max_depth: 5,
            ..Default::default()
        };
        assert_eq!(
            ck.compatible_with(3, 99, strict),
            Err(RestoreError::SplitMismatch)
        );
        assert_eq!(ck.compatible_with(3, 99, SplitConfig::default()), Ok(()));
    }
}
