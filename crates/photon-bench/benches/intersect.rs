//! Criterion bench: octree vs brute-force nearest-hit queries on the three
//! paper scenes (ch. 4: "increasing the speed of intersection determination
//! holds the most promise for decreasing solution time").
//!
//! The rays are the traffic the system really sends the octree, in the
//! three kinds whose costs differ: the first segment of each photon (leaves
//! a luminaire), every later segment (leaves wherever light lands), and the
//! primary rays of the scene's recommended camera. The photon rays are
//! captured from the transport loop itself ([`photon_core::path_rays`]),
//! which is how the ledger's octree probe gets its rays too.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use photon_bench::camera_for;
use photon_core::{path_rays, PhotonGenerator};
use photon_geom::SceneHit;
use photon_math::Ray;
use photon_scenes::TestScene;
use std::hint::black_box;

/// Photons whose path rays are captured per scene.
const PHOTONS: u64 = 2000;
/// Camera frame whose primary rays are cast.
const FRAME: (usize, usize) = (64, 48);

fn camera_rays(kind: TestScene) -> Vec<Ray> {
    let camera = camera_for(kind.view(), FRAME.0, FRAME.1);
    (0..camera.height)
        .flat_map(|y| (0..camera.width).map(move |x| camera.ray(x, y)))
        .collect()
}

/// Casts every ray through `intersect`; returns how many hit.
fn cast(rays: &[Ray], intersect: impl Fn(&Ray) -> Option<SceneHit>) -> usize {
    rays.iter()
        .filter(|ray| black_box(intersect(ray)).is_some())
        .count()
}

fn bench_intersect(c: &mut Criterion) {
    let mut g = c.benchmark_group("intersection");
    for kind in TestScene::ALL {
        let scene = kind.build();
        let (emission, bounce) = path_rays(&scene, &PhotonGenerator::new(&scene), 9, PHOTONS);
        let traffic = [
            ("emission", emission),
            ("bounce", bounce),
            ("camera", camera_rays(kind)),
        ];
        for (what, rays) in &traffic {
            // Reported as rays per second, so the three kinds compare directly.
            g.throughput(Throughput::Elements(rays.len() as u64));
            g.bench_with_input(
                BenchmarkId::new(format!("octree/{what}"), kind.name()),
                rays,
                |b, rays| b.iter(|| cast(rays, |r| scene.intersect(r, f64::INFINITY))),
            );
            // Brute force only on the small scenes; the lab would dominate
            // the suite runtime.
            if scene.polygon_count() <= 100 {
                g.bench_with_input(
                    BenchmarkId::new(format!("brute_force/{what}"), kind.name()),
                    rays,
                    |b, rays| {
                        b.iter(|| cast(rays, |r| scene.intersect_brute_force(r, f64::INFINITY)))
                    },
                );
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench_intersect);
criterion_main!(benches);
