//! Cross-crate integration: exact and statistical equivalence between the
//! serial simulator and its parallelizations.

use photon_gi::core::{Answer, SimConfig, Simulator};
use photon_gi::dist::{run_distributed, BalanceMode, BatchMode, DistConfig, StopRule};
use photon_gi::mpi::Platform;
use photon_gi::scenes::TestScene;

#[test]
fn one_rank_distributed_is_bit_identical_to_serial() {
    // nranks = 1 with naive balance must trace the exact same photon stream
    // as the serial simulator (leapfrog of 1 = identity) — identical
    // counters and answer bytes.
    let scene = TestScene::HarpsichordRoom.build();
    let config = DistConfig {
        seed: 31337,
        nranks: 1,
        platform: Platform::power_onyx(),
        balance: BalanceMode::Naive,
        batch: BatchMode::Fixed(1000),
        stop: StopRule::Photons(6000),
        ..Default::default()
    };
    let dist = run_distributed(&scene, &config);

    let mut serial = Simulator::new(
        TestScene::HarpsichordRoom.build(),
        SimConfig {
            seed: 31337,
            ..Default::default()
        },
    );
    serial.run_photons(6000);

    assert_eq!(dist.stats, *serial.stats());
    let bytes = |a: &Answer| {
        let mut buf = Vec::new();
        a.write_to(&mut buf).expect("encode answer");
        buf
    };
    assert_eq!(bytes(&dist.answer), bytes(&serial.answer_snapshot()));
}

#[test]
fn rank_count_does_not_bias_the_solution() {
    // 2-rank and 4-rank runs consume disjoint halves/quarters of the same
    // global stream; per-patch tally distributions must match closely.
    let scene = TestScene::CornellBox.build();
    let run_with = |nranks: usize| {
        run_distributed(
            &scene,
            &DistConfig {
                seed: 555,
                nranks,
                platform: Platform::power_onyx(),
                balance: BalanceMode::Naive,
                batch: BatchMode::Fixed(2000 / nranks as u64),
                stop: StopRule::Photons(40_000),
                ..Default::default()
            },
        )
    };
    let a = run_with(2);
    let b = run_with(4);
    assert_eq!(a.stats.emitted, b.stats.emitted);
    // Leapfrog partitions random *values*, not photons, so the two runs
    // trace different trajectories from the same stream: agreement is
    // statistical. Allow ~5 sigma of Poisson noise on well-populated
    // patches.
    for pid in 0..scene.polygon_count() as u32 {
        let ta = a.answer.tree(pid).tallies() as f64;
        let tb = b.answer.tree(pid).tallies() as f64;
        if ta.min(tb) > 1000.0 {
            let sigma = (ta.max(tb)).sqrt();
            assert!(
                (ta - tb).abs() < 5.0 * sigma + 0.05 * ta.max(tb),
                "patch {pid}: {ta} vs {tb}"
            );
        }
    }
}

#[test]
fn virtual_platforms_agree_on_physics() {
    // The platform model changes time, never the light: identical seeds on
    // Onyx and SP-2 produce identical photon statistics.
    let scene = TestScene::CornellBox.build();
    let run_on = |platform| {
        run_distributed(
            &scene,
            &DistConfig {
                seed: 777,
                nranks: 4,
                platform,
                balance: BalanceMode::Naive,
                batch: BatchMode::Fixed(500),
                stop: StopRule::Photons(8000),
                ..Default::default()
            },
        )
    };
    let onyx = run_on(Platform::power_onyx());
    let sp2 = run_on(Platform::sp2());
    assert_eq!(onyx.stats.reflections, sp2.stats.reflections);
    assert_eq!(onyx.stats.absorbed, sp2.stats.absorbed);
    // But the clocks differ (SP-2 pays buffered messaging costs).
    assert!(sp2.virtual_elapsed != onyx.virtual_elapsed);
}
