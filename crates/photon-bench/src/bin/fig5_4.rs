//! **E12 — Fig 5.4: memory requirements of the bin forest.**
//!
//! Paper: "after an initial buildup of memory, the size of the bin forest
//! tends to increase sub-linearly" with photons — and needs 1–2 orders of
//! magnitude less storage than recording ray histories. We trace the
//! Harpsichord Practice Room, sampling forest bytes per batch, report the
//! growth exponent, and compare with the O(n) hit-file a density-estimation
//! run of the same length would write.

use photon_baselines::density::HIT_BYTES;
use photon_bench::{fmt, heading, write_csv};
use photon_core::{SimConfig, Simulator, SolverEngine};
use photon_scenes::TestScene;

fn main() {
    heading("Fig 5.4 — bin forest memory vs photons (harpsichord room)");
    let scene = TestScene::HarpsichordRoom.build();
    let mut sim = Simulator::new(
        scene,
        SimConfig {
            seed: 54,
            ..Default::default()
        },
    );
    let batches = 40;
    let per_batch = 15_000;
    let samples: Vec<(u64, usize)> = (0..batches)
        .map(|_| {
            let photons = sim.step(per_batch).emitted_total;
            (photons, sim.forest().memory_bytes())
        })
        .collect();
    let rows: Vec<String> = samples.iter().map(|(p, b)| format!("{p},{b}")).collect();
    let path = write_csv("fig5_4.csv", "photons,bin_forest_bytes", &rows);

    // Growth ratio of bytes against photons from sample `from` to the last.
    let growth = |from: usize| {
        let ((p0, b0), (p1, b1)) = (samples[from], samples[samples.len() - 1]);
        (b1 as f64 / b0 as f64, p1 as f64 / p0 as f64)
    };
    let (bytes_grew, photons_grew) = growth(samples.len() / 4);
    let exponent = bytes_grew.ln() / photons_grew.ln();
    let b1 = samples[samples.len() - 1].1;
    let total_photons = sim.stats().emitted;
    let interactions = total_photons + sim.stats().reflections;
    let hit_file_bytes = interactions as usize * HIT_BYTES;
    println!(
        "growth exponent after buildup: {} (1.0 = linear; paper: sublinear)",
        fmt(exponent)
    );
    // Sublinear: over the second half, bytes grew by less than photons.
    let (bytes_grew, photons_grew) = growth(samples.len() / 2);
    println!("sublinear: {}", bytes_grew < photons_grew);
    println!(
        "bin forest: {} bytes vs density-estimation hit file: {} bytes ({}x larger)",
        b1,
        hit_file_bytes,
        fmt(hit_file_bytes as f64 / b1 as f64)
    );
    println!("csv: {}", path.display());
}
