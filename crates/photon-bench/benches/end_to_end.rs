//! Criterion bench: end-to-end photon throughput per scene (the quantity on
//! every speedup figure's y axis), serial and 2-thread shared-memory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use photon_core::{SimConfig, Simulator};
use photon_par::{run, ParConfig};
use photon_scenes::TestScene;
use std::hint::black_box;

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("photons_per_second");
    g.sample_size(10);
    let photons = 5_000u64;
    g.throughput(Throughput::Elements(photons));
    for kind in TestScene::ALL {
        g.bench_with_input(
            BenchmarkId::new("serial", kind.name()),
            &kind,
            |b, &kind| {
                let scene = kind.build();
                b.iter(|| {
                    let mut sim = Simulator::new(
                        scene.clone(),
                        SimConfig {
                            seed: 1,
                            ..Default::default()
                        },
                    );
                    sim.run_photons(photons);
                    black_box(sim.stats().reflections)
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("threads2", kind.name()),
            &kind,
            |b, &kind| {
                let scene = kind.build();
                let config = ParConfig {
                    seed: 1,
                    threads: 2,
                    batch_size: photons,
                    ..Default::default()
                };
                b.iter(|| black_box(run(&scene, &config, photons).stats.reflections))
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
