//! **E13 — Figs 5.6–5.8: shared-memory speedup (SGI Power Onyx).**
//!
//! Paper: speed-vs-time traces for 1/2/4/8 processors on each scene; small
//! geometries stop scaling past 2 processors (memory contention on few
//! trees), large geometries scale well but at lower absolute rates. We run
//! the real threaded simulator on this host for every scene × thread count
//! and print per-batch rates plus a fixed-time speedup summary.
//!
//! Note: wall-clock speedups depend on this machine's core count; shapes
//! (contention on small scenes, better scaling on large) are the
//! reproduction target (README.md, *Deviations*).

use photon_bench::{fmt, heading, md_table, write_trace};
use photon_core::{SolverEngine, SpeedTrace};
use photon_par::{ParConfig, ParEngine};
use photon_scenes::TestScene;

fn main() {
    heading("Figs 5.6-5.8 — shared-memory speed traces (real threads)");
    let host_threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    println!("host parallelism: {host_threads} (speedups saturate there)\n");
    let (batches, batch) = (10, 6_000);
    let counts = [1usize, 2, 4, 8];
    for scene_kind in TestScene::ALL {
        let scene = scene_kind.build();
        let mut traces: Vec<(usize, SpeedTrace)> = Vec::new();
        for &threads in &counts {
            let config = ParConfig {
                seed: 56,
                threads,
                ..Default::default()
            };
            let mut engine = ParEngine::new(scene.clone(), config);
            for _ in 0..batches {
                engine.step(batch);
            }
            let speed = engine.speed_trace().clone();
            let name = format!(
                "fig5_6_{}_p{}.csv",
                scene_kind.name().replace(' ', "_").to_lowercase(),
                threads
            );
            write_trace(&name, &speed);
            traces.push((threads, speed));
        }
        let serial = traces[0].1.clone();
        let rows: Vec<Vec<String>> = traces
            .iter()
            .map(|(threads, t)| {
                vec![
                    threads.to_string(),
                    fmt(t.steady_rate()),
                    fmt(t.steady_rate() / serial.steady_rate().max(1e-9)),
                    fmt(t.total_elapsed()),
                ]
            })
            .collect();
        println!("### {}\n", scene_kind.name());
        println!(
            "{}",
            md_table(
                &[
                    "threads",
                    "steady rate (photons/s)",
                    "speedup vs serial",
                    "elapsed (s)"
                ],
                &rows
            )
        );
    }
    println!("traces: bench_results/fig5_6_*.csv");
}
