//! The ledger's fixed vocabulary: workload and metric names, units, which
//! direction is better, and how far an end-to-end metric may worsen before
//! it counts as a regression. `BENCHMARK.json` is a rendering of these
//! tables ([`benchmark_json`]); a test keeps the checked-in file equal.

use crate::json::Json;
use photon_scenes::TestScene;

/// How long one driver run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 45;

/// One workload: a scene pushed through the whole pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// The scene it runs.
    pub scene: TestScene,
    /// Open-loop publish rate of its fan-out phase, epochs per second:
    /// fixed per workload, near half of what the seed state sustains in
    /// lock step on a 2-core host.
    pub open_rate: f64,
    /// Why it exists.
    pub why: &'static str,
}

/// The workloads, in run order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "cornell",
        scene: TestScene::CornellBox,
        open_rate: 6.0,
        why: "30 polygons, 49 octree nodes. Measured: octree is still 80-86% of a photon's time \
              (1.1 us/ray), bin-tree 5%. The shallow-octree side: a bintree or batch change shows 3x \
              as much as on lab",
    },
    Workload {
        name: "lab",
        scene: TestScene::ComputerLab,
        open_rate: 4.0,
        why: "1931 polygons, 2281 octree nodes. Measured: octree is 87% of a photon's time (3.4 us/ray), \
              bin-tree 1.6%. The deep-octree side: photon rays cost 3x and camera rays 6x cornell's",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSpec {
    /// The fixed name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics: what a user of the system feels. Every workload
/// reports every one.
pub const END_TO_END: [MetricSpec; 14] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    e2e("photons_per_s_serial", "photons/s", Higher, 0.25),
    e2e("photons_per_s_threaded", "photons/s", Higher, 0.25),
    e2e("photons_per_s_dist", "photons/s", Higher, 0.25),
    e2e("first_frame_ms", "ms", Lower, 0.25),
    e2e("pipeline_photons_per_s", "photons/s", Higher, 0.25),
    e2e("fanout_epochs_per_s", "epochs/s", Higher, 0.25),
    e2e("delivery_ms_p50", "ms", Lower, 0.25),
    e2e("delivery_ms_p90", "ms", Lower, 0.25),
    // Counts of a recorded input: they repeat exactly. A changed tile is
    // lossless bytes whatever its pixels, so any growth there is a change of
    // what is sent; the quantized stream is entropy-coded pixels, which a
    // renderer change may nudge without sending more.
    e2e("wire_bytes_per_epoch_lossless", "bytes", Lower, 0.0),
    e2e("wire_bytes_per_epoch_quantized", "bytes", Lower, 0.02),
    e2e("queries_per_s", "queries/s", Higher, 0.25),
    e2e("query_miss_ms_p50", "ms", Lower, 0.25),
];

/// The per-layer metrics of the traced run, grouped by layer (the part of
/// the name before the first dot). No bounds: they explain, they do not
/// gate.
pub const PER_LAYER: &[MetricSpec] = &[
    // rng — photon-rng
    layer("rng.draw_ns", "ns", Lower),
    layer("rng.substream_ns", "ns", Lower),
    layer("rng.draws_per_photon", "count", Lower),
    // generate — photon-core::generate
    layer("generate.emit_ns", "ns", Lower),
    layer("generate.draws_per_emit", "count", Lower),
    // octree — photon-geom
    layer("octree.intersect_ns.emission", "ns", Lower),
    layer("octree.intersect_ns.bounce", "ns", Lower),
    layer("octree.intersect_ns.camera", "ns", Lower),
    layer("octree.hit_ratio", "ratio", Higher),
    layer("octree.nodes", "count", Lower),
    layer("octree.item_refs", "count", Lower),
    // trace — photon-core::trace
    layer("trace.photon_ns", "ns", Lower),
    layer("trace.tallies_per_photon", "count", Lower),
    layer("trace.absorbed_ratio", "ratio", Higher),
    // batch — photon-core::batch
    layer("batch.trace_ns_per_photon", "ns", Lower),
    layer("batch.partition_ns_per_record", "ns", Lower),
    layer("batch.apply_ns_per_record", "ns", Lower),
    layer("batch.records_per_photon", "count", Lower),
    // bintree — photon-hist
    layer("bintree.tally_ns", "ns", Lower),
    layer("bintree.tally_cursor_ns", "ns", Lower),
    layer("bintree.lookup_ns", "ns", Lower),
    layer("bintree.compact_us", "us", Lower),
    layer("bintree.leaf_bins", "count", Lower),
    layer("bintree.node_bytes", "bytes", Lower),
    layer("bintree.leaf_bytes", "bytes", Lower),
    layer("bintree.max_depth", "count", Lower),
    // sim — the serial engine
    layer("sim.step_ms_p50", "ms", Lower),
    layer("sim.step_ms_max", "ms", Lower),
    layer("sim.snapshot_us", "us", Lower),
    layer("sim.alloc_bytes_per_step", "bytes", Lower),
    // par — photon-par
    layer("par.step_ms_p50", "ms", Lower),
    layer("par.trace_share", "ratio", Lower),
    layer("par.apply_share", "ratio", Lower),
    layer("par.speedup", "ratio", Higher),
    layer("par.fused_vs_serial", "ratio", Higher),
    layer("par.snapshot_us", "us", Lower),
    layer("par.alloc_bytes_per_step", "bytes", Lower),
    // dist — photon-dist + simmpi
    layer("dist.step_ms_p50", "ms", Lower),
    layer("dist.bytes_forwarded_per_photon", "bytes", Lower),
    layer("dist.virtual_s", "s", Lower),
    layer("dist.snapshot_us", "us", Lower),
    layer("dist.speedup", "ratio", Higher),
    // checkpoint — PHOTCK1 / PHOTANS1
    layer("checkpoint.bytes", "bytes", Lower),
    layer("checkpoint.encode_us", "us", Lower),
    layer("checkpoint.decode_us", "us", Lower),
    layer("checkpoint.restore_us", "us", Lower),
    layer("answer.bytes", "bytes", Lower),
    layer("answer.write_us", "us", Lower),
    layer("answer.read_us", "us", Lower),
    // solver — photon-serve::solver
    layer("solver.slices", "count", Higher),
    layer("solver.epochs", "count", Higher),
    layer("solver.slices_while_serving", "count", Lower),
    layer("solver.slice_overhead_us", "us", Lower),
    layer("solver.submit_to_epoch1_ms", "ms", Lower),
    layer("solver.cancel_to_terminal_ms", "ms", Lower),
    // store — photon-serve::store
    layer("store.publish_us", "us", Lower),
    layer("store.get_ns", "ns", Lower),
    layer("store.save_us", "us", Lower),
    layer("store.load_us", "us", Lower),
    // render — photon-serve::render + photon-core::view
    layer("render.tile_us_p50", "us", Lower),
    layer("render.frame_ms.t1", "ms", Lower),
    layer("render.frame_ms.tT", "ms", Lower),
    layer("render.parallel_speedup", "ratio", Higher),
    layer("render.rays_per_s", "rays/s", Higher),
    // view — tile diff / squash
    layer("view.diff_us", "us", Lower),
    layer("view.tiles_changed_ratio", "ratio", Lower),
    layer("view.squash_us", "us", Lower),
    // cache — photon-serve::cache
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.get_ns", "ns", Lower),
    layer("cache.insert_ns", "ns", Lower),
    layer("cache.purged_per_publish", "count", Lower),
    // service — photon-serve::service
    layer("service.query_hit_ms_p50", "ms", Lower),
    layer("service.hit_roundtrip_us", "us", Lower),
    layer("service.miss_overhead_ms", "ms", Lower),
    layer("service.batch_size_mean", "count", Higher),
    layer("service.alloc_bytes_per_hit", "bytes", Lower),
    // stream — photon-serve::stream
    layer("stream.deltas", "count", Higher),
    layer("stream.squashed_ratio", "ratio", Lower),
    layer("stream.tile_bytes_per_epoch", "bytes", Lower),
    layer("stream.inproc_delivery_ms_p50", "ms", Lower),
    layer("stream.generator_late_ms_p90", "ms", Lower),
    // wire — PHOTSTRM1
    layer("wire.encode_ms.lossless", "ms", Lower),
    layer("wire.encode_ms.quantized", "ms", Lower),
    layer("wire.decode_ms.lossless", "ms", Lower),
    layer("wire.decode_ms.quantized", "ms", Lower),
    layer("wire.bytes_ratio.lossless", "ratio", Lower),
    layer("wire.bytes_ratio.quantized", "ratio", Lower),
    layer("wire.entropy_mb_per_s", "MB/s", Higher),
    layer("wire.quant_err_over_bound", "ratio", Lower),
    // netstream — TCP transport
    layer("netstream.frame_rtt_us", "us", Lower),
    layer("netstream.tcp_delivery_ms_p50.lossless", "ms", Lower),
    layer("netstream.tcp_delivery_ms_p50.quantized", "ms", Lower),
    layer("netstream.connect_to_bootstrap_ms", "ms", Lower),
    // where a photon's time goes, per scene (from the probes above)
    layer("share.rng", "ratio", Lower),
    layer("share.generate", "ratio", Lower),
    layer("share.octree", "ratio", Lower),
    layer("share.bintree", "ratio", Lower),
    layer("share.batch", "ratio", Lower),
    layer("share.other", "ratio", Lower),
    // harness
    layer("host.nproc", "count", Higher),
    layer("host.threads_T", "count", Higher),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricSpec, bounded: bool| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.word())),
        ];
        if bounded {
            fields.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            // A script, not `cargo run`: with two binaries in the package
            // `cargo run` builds only the one it runs, and a traced run
            // needs `ledger-traced` beside `ledger`.
            Json::Arr(vec![
                Json::str("bash"),
                Json::str("crates/photon-ledger/bench.sh"),
            ]),
        ),
        ("paths", Json::Arr(vec![Json::str("crates/photon-ledger")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_fit_the_benchmark_contract() {
        let mut names = HashSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in END_TO_END {
            assert!(m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn checked_in_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&text).expect("valid JSON"),
            benchmark_json(),
            "regenerate with `cargo run -p photon-ledger -- spec > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
