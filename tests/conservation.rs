//! Cross-crate integration: photon conservation across all three
//! parallelization modes on the same scene.

use photon_gi::core::{SimConfig, Simulator, SolverEngine};
use photon_gi::dist::{run_distributed, BalanceMode, BatchMode, DistConfig, StopRule};
use photon_gi::mpi::Platform;
use photon_gi::par::{ParConfig, ParEngine};
use photon_gi::scenes::TestScene;

const PHOTONS: u64 = 8_000;

/// A four-worker shared-memory solve of `PHOTONS` in batches of 2 000.
fn shared_memory_solve(seed: u64) -> ParEngine {
    let config = ParConfig {
        seed,
        threads: 4,
        ..Default::default()
    };
    let mut engine = ParEngine::new(TestScene::CornellBox.build(), config);
    for _ in 0..PHOTONS / 2_000 {
        engine.step(2_000);
    }
    engine
}

#[test]
fn serial_conserves_photons_and_tallies() {
    let mut sim = Simulator::new(
        TestScene::CornellBox.build(),
        SimConfig {
            seed: 11,
            ..Default::default()
        },
    );
    sim.run_photons(PHOTONS);
    let s = sim.stats();
    assert!(s.is_conserved(), "{s:?}");
    assert_eq!(sim.forest().total_tallies(), s.emitted + s.reflections);
}

#[test]
fn shared_memory_conserves_photons_and_tallies() {
    let engine = shared_memory_solve(11);
    let (stats, answer) = (engine.stats(), engine.snapshot());
    assert!(stats.is_conserved(), "{stats:?}");
    let tallies: u64 = (0..answer.patch_count() as u32)
        .map(|p| answer.tree(p).tallies())
        .sum();
    assert_eq!(tallies, stats.emitted + stats.reflections);
}

#[test]
fn distributed_conserves_photons_and_tallies() {
    let scene = TestScene::CornellBox.build();
    let config = DistConfig {
        seed: 11,
        nranks: 4,
        platform: Platform::indy_cluster(),
        balance: BalanceMode::BinPacking { pilot_photons: 500 },
        batch: BatchMode::Fixed(500),
        stop: StopRule::Photons(PHOTONS),
        ..Default::default()
    };
    let r = run_distributed(&scene, &config);
    assert!(r.stats.is_conserved(), "{:?}", r.stats);
    let tallies: u64 = (0..r.answer.patch_count() as u32)
        .map(|p| r.answer.tree(p).tallies())
        .sum();
    assert_eq!(tallies, r.stats.emitted + r.stats.reflections);
}

#[test]
fn all_three_modes_agree_statistically() {
    // Same scene, same photon budget: mean bounce counts agree within a few
    // percent across serial, shared-memory and distributed execution.
    let mean_bounces = |emitted: u64, reflections: u64| reflections as f64 / emitted as f64;

    let mut sim = Simulator::new(
        TestScene::CornellBox.build(),
        SimConfig {
            seed: 21,
            ..Default::default()
        },
    );
    sim.run_photons(PHOTONS);
    let serial = mean_bounces(sim.stats().emitted, sim.stats().reflections);

    let par = shared_memory_solve(22).stats();
    let shared = mean_bounces(par.emitted, par.reflections);

    let scene = TestScene::CornellBox.build();

    let dist = run_distributed(
        &scene,
        &DistConfig {
            seed: 23,
            nranks: 4,
            stop: StopRule::Photons(PHOTONS),
            batch: BatchMode::Fixed(500),
            ..Default::default()
        },
    );
    let distributed = mean_bounces(dist.stats.emitted, dist.stats.reflections);

    for (name, v) in [("shared", shared), ("distributed", distributed)] {
        assert!(
            (v - serial).abs() / serial < 0.05,
            "{name} mean bounces {v} vs serial {serial}"
        );
    }
}
