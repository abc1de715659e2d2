//! **E1 — Table 5.1: Test Geometry Sizes.**
//!
//! Paper: Cornell Box 30 defining polygons → 397,000 view-dependent
//! polygons; Harpsichord Practice Room 100 → 150,000; Computer Laboratory
//! 2000 → 350,000. The paper's view-dependent counts come from runs of
//! billions of photons; we reproduce the *shape* — the Cornell Box's count
//! is disproportionately high for its defining-polygon count because of the
//! large mirror (angular refinement) and a longer run — at a laptop photon
//! budget, and report bins-per-defining-polygon ratios.
//!
//! A second table reports what those defining polygons cost a ray: the
//! octree's size; per photon-path ray, the internal nodes the rope walk
//! steps through, the patches it tests and the bilinear inversions; and how
//! many of those rays fell back to the depth-first traversal on a tie.
//! These are counts the query makes of itself and repeat exactly, on any
//! host.

use photon_bench::{fmt, heading, md_table, write_csv};
use photon_core::{path_rays, PhotonGenerator, SimConfig, Simulator};
use photon_geom::{OctreeWork, Scene};
use photon_scenes::TestScene;

/// Photons whose path rays the octree-work table casts (stream seed 1):
/// the rays the `octree.rs` tests pin their per-ray work on.
const WORK_PHOTONS: u64 = 4000;

/// One row of the octree-work table.
fn octree_work_row(name: &str, scene: &Scene) -> Vec<String> {
    let (first, later) = path_rays(scene, &PhotonGenerator::new(scene), 1, WORK_PHOTONS);
    let mut work = OctreeWork::default();
    for ray in first.iter().chain(&later) {
        work += scene.intersect_counted(ray, f64::INFINITY).1;
    }
    let rays = (first.len() + later.len()) as f64;
    let stats = scene.octree().stats();
    vec![
        name.to_string(),
        stats.nodes.to_string(),
        stats.item_refs.to_string(),
        format!("{:.2}", work.internal_nodes as f64 / rays),
        format!("{} / {rays}", work.fallbacks),
        format!("{:.2}", work.patch_tests as f64 / rays),
        format!("{:.2}", work.inversions as f64 / rays),
    ]
}

fn main() {
    heading("Table 5.1 — Test Geometry Sizes (defining vs view-dependent polygons)");
    // The paper runs the Cornell Box "much longer to generate a higher
    // level of detail"; scale budgets accordingly.
    let budgets: [(TestScene, u64); 3] = [
        (TestScene::CornellBox, 600_000),
        (TestScene::HarpsichordRoom, 200_000),
        (TestScene::ComputerLab, 300_000),
    ];
    let mut rows = Vec::new();
    let mut work_rows = Vec::new();
    let mut csv = Vec::new();
    for (scene_kind, photons) in budgets {
        let scene = scene_kind.build();
        work_rows.push(octree_work_row(scene_kind.name(), &scene));
        let defining = scene.polygon_count();
        let mut sim = Simulator::new(
            scene,
            SimConfig {
                seed: 51,
                ..Default::default()
            },
        );
        sim.run_photons(photons);
        let bins = sim.forest().total_leaf_bins();
        rows.push(vec![
            scene_kind.name().to_string(),
            defining.to_string(),
            bins.to_string(),
            photons.to_string(),
            fmt(bins as f64 / defining as f64),
        ]);
        csv.push(format!("{},{defining},{bins},{photons}", scene_kind.name()));
    }
    println!(
        "{}",
        md_table(
            &[
                "Geometry",
                "Defining Polygons",
                "View-Dependent Polygons (leaf bins)",
                "Photons",
                "Bins / Defining",
            ],
            &rows
        )
    );
    let path = write_csv(
        "table5_1.csv",
        "geometry,defining_polygons,view_dependent_polygons,photons",
        &csv,
    );
    println!("paper: 30 -> 397k, 100 -> 150k, 2000 -> 350k (billions of photons)");
    println!("csv: {}", path.display());
    println!("\nOctree work per photon-path ray (seed 1, photons 0..{WORK_PHOTONS}):");
    println!(
        "{}",
        md_table(
            &[
                "Geometry",
                "Octree Nodes",
                "Patch Refs",
                "Walk Steps / Ray",
                "Fallbacks / Rays",
                "Patch Tests / Ray",
                "Inversions / Ray",
            ],
            &work_rows
        )
    );
}
