//! The split rule's known null, in the real trees.
//!
//! A matte patch reflects cosine-weighted, so the tallied direction's
//! (θ, r²) is uniform and independent of (s, t) by construction: every θ or
//! r² split on a matte patch is a false positive of the 3σ rule, which
//! tests after every tally and so crosses its bound more often the longer
//! a leaf lives. This pins the shape of that: on both scenes some matte
//! splits are directional, and the directional share grows with photons.
//! Exact counts are a measurement, not an assertion.

use photon_core::{SimConfig, Simulator};
use photon_geom::SurfaceKind;
use photon_hist::{Axis, ExportNode};
use photon_scenes::TestScene;

/// `(directional, all)` internal nodes over the matte patches' trees.
fn matte_splits(sim: &Simulator) -> (usize, usize) {
    let (mut directional, mut all) = (0, 0);
    for (id, tree) in sim.forest().iter() {
        if sim.scene().patch(id).material.kind() != SurfaceKind::Diffuse {
            continue;
        }
        for node in tree.export_nodes() {
            if let ExportNode::Internal { axis, .. } = node {
                all += 1;
                directional += usize::from(matches!(axis, Axis::Theta | Axis::RSq));
            }
        }
    }
    (directional, all)
}

#[test]
fn matte_patches_split_on_direction_more_as_photons_grow() {
    for scene in [TestScene::CornellBox, TestScene::ComputerLab] {
        let config = SimConfig {
            seed: 42,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(scene.build(), config);
        let mut shares = Vec::new();
        // To 50 000 photons, then on to 200 000.
        for more in [50_000, 150_000] {
            sim.run_photons(more);
            let (directional, all) = matte_splits(&sim);
            let name = scene.name();
            assert!(directional > 0, "{name}: no directional matte split");
            shares.push(directional as f64 / all as f64);
        }
        assert!(
            shares[1] > shares[0],
            "{}: the directional share fell from {:.3} at 50 000 photons to {:.3} at 200 000",
            scene.name(),
            shares[0],
            shares[1]
        );
    }
}
