//! The forwarded photon interaction.
//!
//! In distributed Photon every reflected photon whose bin lives on another
//! processor is queued and shipped in the all-to-all phase (Fig 5.3). A
//! record carries everything `DetermineBin` needs on the owner: the patch,
//! the 4-D bin coordinates and the RGB energy, the floats rounded to `f32`
//! as they would be on a real wire. That is 32 bytes, a small fraction of
//! the "100 bytes per photon" the paper attributes to ray-history
//! approaches. The ranks share one address space, so a record travels as
//! itself: [`simmpi::World::alltoallv`] charges its in-memory size.

use photon_hist::BinPoint;
use photon_math::Rgb;

/// One forwarded photon interaction, 32 bytes in memory and on the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhotonRecord {
    /// Owning patch.
    pub patch_id: u32,
    /// 4-D bin coordinates `(s, t, theta, r_sq)`.
    point: [f32; 4],
    /// Outgoing energy `(r, g, b)`.
    energy: [f32; 3],
}

const _: () = assert!(std::mem::size_of::<PhotonRecord>() == 32);

impl PhotonRecord {
    /// The record of one tally, its floats rounded to `f32`.
    pub fn new(patch_id: u32, point: &BinPoint, energy: Rgb) -> PhotonRecord {
        let f = |v: f64| v as f32;
        PhotonRecord {
            patch_id,
            point: [f(point.s), f(point.t), f(point.theta), f(point.r_sq)],
            energy: [f(energy.r), f(energy.g), f(energy.b)],
        }
    }

    /// The bin coordinates the owner tallies.
    pub fn point(&self) -> BinPoint {
        let [s, t, theta, r_sq] = self.point.map(f64::from);
        BinPoint::new(s, t, theta, r_sq)
    }

    /// The energy the owner tallies.
    pub fn energy(&self) -> Rgb {
        let [r, g, b] = self.energy.map(f64::from);
        Rgb::new(r, g, b)
    }
}
