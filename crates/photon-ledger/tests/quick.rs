//! The benchmark, exercised end to end at about a fiftieth of its size, so
//! tier-1 keeps it from rotting: every workload runs every phase with its
//! correctness checks on, every named metric comes back, the traced binary
//! writes its span file. Timings are not judged here.

use photon_ledger::json::Json;
use photon_ledger::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;

/// A scratch directory under cargo's target dir, private to one test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn quick_run_checks_every_workload_and_reports_every_metric() {
    let dir = scratch("ledger-quick-run");
    let out = dir.join("run.json");
    let run = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["run", "--quick", "--seed", "7", "--out"])
        .arg(&out)
        .current_dir(&dir)
        .output()
        .expect("spawn ledger");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "a correctness check failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("host.nproc=") && stdout.contains("ops_failed 0"));

    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("result file is JSON");
    assert!(doc.get("host").and_then(|h| h.get("threads_T")).is_some());
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
    assert_eq!(runs.len(), WORKLOADS.len());
    for (run, workload) in runs.iter().zip(WORKLOADS) {
        assert_eq!(
            run.get("workload").and_then(Json::as_str),
            Some(workload.name)
        );
        assert_eq!(run.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(run.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        for metric in &END_TO_END {
            let value = run
                .get("metrics")
                .and_then(|m| m.get(metric.name))
                .and_then(Json::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{}: {} = {value:?}",
                workload.name,
                metric.name
            );
        }
    }

    // The same file on both sides: nothing regresses against itself.
    let compare = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .arg("compare")
        .args([&out, &out])
        .output()
        .expect("spawn ledger compare");
    assert!(compare.status.success());
    assert!(String::from_utf8_lossy(&compare.stdout).contains("0 regressions"));
}

#[test]
fn traced_run_reports_every_layer_and_writes_spans() {
    let dir = scratch("ledger-quick-trace");
    // The timed binary hands `--trace 1` to its `ledger-traced` sibling.
    let run = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args([
            "--workload",
            "cornell",
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            "1",
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn ledger");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "traced run failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let doc = Json::parse(last).expect("last line is the result object");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(metrics.len(), PER_LAYER.len());
    for (spec, (name, value)) in PER_LAYER.iter().zip(metrics) {
        assert_eq!(spec.name, name);
        assert_eq!(value.get("unit").and_then(Json::as_str), Some(spec.unit));
        assert!(
            value.get("value").and_then(Json::as_f64).is_some(),
            "{name}"
        );
    }
    // Only the traced binary counts allocations.
    let hit_bytes = metrics
        .iter()
        .find(|(k, _)| k == "service.alloc_bytes_per_hit")
        .and_then(|(_, v)| v.get("value")?.as_f64());
    assert!(hit_bytes.is_some_and(|b| b > 0.0));

    let spans = std::fs::read_to_string(dir.join("bench_results/ledger_trace.cornell.json"))
        .expect("span file");
    let spans = Json::parse(&spans).expect("span file is JSON");
    let names: Vec<&str> = spans
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|s| s.get("name")?.as_str())
        .collect();
    for expected in [
        "setup",
        "phase.solve",
        "sim.step",
        "par.step",
        "dist.step",
        "phase.fanout",
        "store.publish",
        "stream.apply",
    ] {
        assert!(names.contains(&expected), "no `{expected}` span");
    }
    assert!(spans.get("end_to_end_traced").is_some());
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "cornell", "--seconds", "0"],
        &["--workload", "cornell", "--trace", "2"],
        &["frobnicate"],
        &[],
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_ledger"))
            .args(args)
            .output()
            .expect("spawn ledger");
        assert!(!run.status.success(), "{args:?} succeeded");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn traced_run_without_the_traced_binary_is_an_error() {
    // A copy of the timed binary with no `ledger-traced` beside it.
    let dir = scratch("ledger-no-sibling");
    let alone = dir.join("ledger");
    std::fs::copy(env!("CARGO_BIN_EXE_ledger"), &alone).expect("copy ledger");
    let run = Command::new(&alone)
        .args(["--workload", "cornell", "--seconds", "0.5", "--trace", "1"])
        .current_dir(&dir)
        .output()
        .expect("spawn the copy");
    assert!(!run.status.success());
    assert!(run.stdout.is_empty(), "printed a result");
    assert!(String::from_utf8_lossy(&run.stderr).contains("ledger-traced"));
}
