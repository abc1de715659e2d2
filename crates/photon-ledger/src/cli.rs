//! The command line.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! ledger run   [--seed N] [--seconds S | --quick] [--repeat N] [--out FILE]
//! ledger trace [--seed N] [--seconds S | --quick]
//! ledger compare A.json B.json
//! ledger spec
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command resolves to and what
//! `run` and `trace` spawn per workload: it prints a table and, as its last
//! line, one JSON object `{correct, attempted, failed, metrics}`. A traced
//! run needs the counting allocator, so the timed binary hands `--trace 1`
//! to the `ledger-traced` binary.

use crate::compare::{compare, RunSet};
use crate::host;
use crate::json::Json;
use crate::spans;
use crate::spec::{self, MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::{quartiles, spread};
use crate::workload::{self, Measured, Report, RunArgs};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// `--quick`: about a fiftieth of a full run — floors of work in every
/// phase, checks on, timings not judged.
const QUICK_SECONDS: f64 = 0.5;
/// Where result files go (gitignored).
const OUT_DIR: &str = "bench_results";

/// Entry point shared by both binaries.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..], false),
        Some("trace") => run_all(&args[1..], true),
        Some("compare") => compare_files(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().render_pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => one_workload(&args),
        _ => Err(usage()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage: ledger --workload W --seed N --seconds S --trace 0|1\n       \
     ledger run|trace [--seed N] [--seconds S | --quick] [--repeat N] [--out FILE]\n       \
     ledger compare A.json B.json\n       ledger spec"
        .to_string()
}

/// `--name value` pairs and bare `--flag`s, checked against `known`.
fn parse_flags(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unknown argument `{arg}`\n{}", usage()))?;
        let value = if name == "quick" {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("`--{name}` needs a value"))?
                .clone()
        };
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

fn number<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("`--{name} {text}` is not a number")),
    }
}

// ---------------------------------------------------------------------------
// One workload, in this process.
// ---------------------------------------------------------------------------

fn one_workload(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args, &["workload", "seed", "seconds", "trace"])?;
    let name = flags.get("workload").ok_or("`--workload` is required")?;
    let workload = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (have: {})", names.join(", "))
    })?;
    let seconds: f64 = number(&flags, "seconds", RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("`--seconds {seconds}` is out of range"));
    }
    let traced = match number(&flags, "trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("`--trace {other}`: expected 0 or 1")),
    };
    if traced && crate::alloc::allocated().is_none() {
        // This is the timed binary; the traced one counts allocations.
        let status = traced_command()?
            .args(args)
            .status()
            .map_err(|e| format!("ledger-traced: {e}"))?;
        return Ok(status.success());
    }
    let run = RunArgs {
        workload,
        seed: number(&flags, "seed", 1u64)?,
        seconds,
        traced,
    };
    println!(
        "# ledger workload={} seed={} seconds={} trace={} host.nproc={} T={}",
        workload.name,
        run.seed,
        seconds,
        u8::from(traced),
        host::nproc(),
        host::threads()
    );
    let mut report = workload::run(run);
    if traced {
        write_trace_file(&run, &report)?;
        print_table(
            &END_TO_END,
            &report.end_to_end,
            "(under tracing; not the ledger's figures)",
        );
        print_self_times(&report);
    }
    let (specs, measured): (&[MetricSpec], &[Measured]) = if traced {
        (PER_LAYER, &report.per_layer)
    } else {
        (&END_TO_END, &report.end_to_end)
    };
    print_table(specs, measured, "");
    if traced {
        let (threads, nproc) = (host::threads(), host::nproc());
        println!(
            "# par.speedup, dist.speedup, render.parallel_speedup at T={threads} on {nproc} cores: {}",
            if host::scaling_is_wall_clock(threads, nproc) {
                "wall-clock scaling"
            } else {
                "ratios of work done, not a scaling claim"
            }
        );
    }
    let mut metrics = Vec::with_capacity(specs.len());
    for m in specs {
        // Every named metric is in the result; one that could not be
        // measured (end to end: not a positive number) is a failed
        // operation, reported as -1 so the line stays all JSON numbers.
        let value = measured
            .iter()
            .find(|x| x.name == m.name)
            .map(|x| x.value)
            .filter(|v| v.is_finite() && (traced || *v > 0.0));
        report
            .ops
            .check(value.is_some(), || format!("{}: no value", m.name));
        metrics.push((
            m.name,
            Json::obj([
                ("value", Json::Num(value.unwrap_or(-1.0))),
                ("unit", Json::str(m.unit)),
            ]),
        ));
    }
    println!(
        "ops_attempted {} ops_failed {}",
        report.ops.attempted, report.ops.failed
    );
    for failure in &report.ops.failures {
        println!("FAILED: {failure}");
    }
    let correct = report.ops.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(report.ops.attempted as f64)),
            ("failed", Json::Num(report.ops.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    );
    Ok(correct)
}

fn print_table(specs: &[MetricSpec], measured: &[Measured], note: &str) {
    if !note.is_empty() {
        println!("# end-to-end {note}");
    }
    for m in specs {
        if let Some(x) = measured.iter().find(|x| x.name == m.name) {
            println!(
                "{:<44} {:>16.6} {:<10} n={}",
                m.name, x.value, m.unit, x.samples
            );
        }
    }
}

/// Self time per span name: the layer table of the traced run.
fn print_self_times(report: &Report) {
    println!("# spans: name count total_ms self_ms");
    for (name, t) in spans::self_times(&report.spans) {
        println!(
            "span {:<36} {:>7} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_us / 1e3,
            t.self_us / 1e3
        );
    }
}

fn trace_file(workload: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("ledger_trace.{workload}.json"))
}

/// The span file of one traced workload, plus the end-to-end figures taken
/// under tracing (what `ledger trace` divides by the untraced ones).
fn write_trace_file(run: &RunArgs, report: &Report) -> Result<(), String> {
    let Json::Obj(mut fields) = spans::to_json(run.workload.name, &report.spans) else {
        unreachable!("to_json builds an object");
    };
    fields.insert(
        1,
        (
            "end_to_end_traced".to_string(),
            Json::obj(
                report
                    .end_to_end
                    .iter()
                    .map(|m| (m.name, Json::Num(m.value))),
            ),
        ),
    );
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = trace_file(run.workload.name);
    std::fs::write(&path, Json::Obj(fields).render())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `ledger-traced`, beside this binary: `cargo build` and `cargo test` put
/// it there; `cargo run` alone builds only the binary it runs.
fn traced_command() -> Result<Command, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name(format!("ledger-traced{}", std::env::consts::EXE_SUFFIX));
    if !sibling.is_file() {
        return Err(format!(
            "{} is not built: run `cargo build --release -p photon-ledger` first",
            sibling.display()
        ));
    }
    Ok(Command::new(sibling))
}

// ---------------------------------------------------------------------------
// `run` and `trace`: every workload, each in its own child process.
// ---------------------------------------------------------------------------

/// One child's last line, parsed.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn spawn_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<ChildResult, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(me)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output"))?;
    for line in lines {
        println!("{line}");
    }
    let doc = Json::parse(last).map_err(|e| format!("{workload}: last line is not JSON ({e})"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{workload}: result has no metrics"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        metrics,
    })
}

fn run_all(args: &[String], traced: bool) -> Result<bool, String> {
    let flags = parse_flags(args, &["seed", "seconds", "quick", "repeat", "out"])?;
    let seed: u64 = number(&flags, "seed", 1)?;
    let seconds = if flags.contains_key("quick") {
        QUICK_SECONDS
    } else {
        number(&flags, "seconds", RUN_SECONDS as f64)?
    };
    let repeat: usize = number(&flags, "repeat", 1)?;
    let default_out = Path::new(OUT_DIR).join(if traced {
        "ledger_trace_run.json"
    } else {
        "ledger_run.json"
    });
    let out = flags.get("out").map_or(default_out, PathBuf::from);

    println!(
        "# ledger {} host.nproc={} T={} seconds={} repeat={}",
        if traced { "trace" } else { "run" },
        host::nproc(),
        host::threads(),
        seconds,
        repeat
    );
    let mut all_correct = true;
    let mut runs = Vec::new();
    let mut by_pair: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for rep in 0..repeat {
        for workload in WORKLOADS {
            let run_seed = seed + rep as u64;
            // A traced pass still needs the untraced figures: they are the
            // ledger's end-to-end numbers and the base of the overhead.
            let timed = spawn_workload(workload.name, run_seed, seconds, false)?;
            let mut results = vec![(false, timed)];
            if traced {
                results.push((
                    true,
                    spawn_workload(workload.name, run_seed, seconds, true)?,
                ));
                print_overhead(workload.name, &results[0].1)?;
            }
            for (was_traced, r) in results {
                all_correct &= r.correct;
                for (name, value) in &r.metrics {
                    by_pair
                        .entry((workload.name.to_string(), name.clone()))
                        .or_default()
                        .push(*value);
                }
                runs.push(Json::obj([
                    ("workload", Json::str(workload.name)),
                    ("seed", Json::Num(run_seed as f64)),
                    ("traced", Json::Bool(was_traced)),
                    ("correct", Json::Bool(r.correct)),
                    ("attempted", Json::Num(r.attempted)),
                    ("failed", Json::Num(r.failed)),
                    (
                        "metrics",
                        Json::obj(r.metrics.into_iter().map(|(k, v)| (k, Json::Num(v)))),
                    ),
                ]));
            }
        }
    }
    if repeat > 1 {
        println!("# spread over {repeat} runs: workload metric median [q1, q3] spread");
        for ((workload, metric), values) in &by_pair {
            if let (Some([q1, q2, q3]), Some(s)) = (quartiles(values), spread(values)) {
                println!("spread {workload:<12} {metric:<44} {q2:.6} [{q1:.6}, {q3:.6}] {s:.4}");
            }
        }
    }
    let doc = Json::obj([
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(host::nproc() as f64)),
                ("threads_T", Json::Num(host::threads() as f64)),
            ]),
        ),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# results: {}", out.display());
    if !all_correct {
        println!("# a correctness check failed");
    }
    Ok(all_correct)
}

/// `trace.overhead_ratio` per end-to-end metric: the traced child's figures
/// (from its span file) over the untraced child's.
fn print_overhead(workload: &str, untraced: &ChildResult) -> Result<(), String> {
    let path = trace_file(workload);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    for (name, base) in &untraced.metrics {
        let traced = doc
            .get("end_to_end_traced")
            .and_then(|m| m.get(name))
            .and_then(Json::as_f64);
        if let Some(traced) = traced {
            println!(
                "trace.overhead_ratio.{name:<32} {:>10.4} ratio (traced {traced:.6} / untraced {base:.6})",
                traced / base
            );
        }
    }
    println!("# spans: {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// `compare`
// ---------------------------------------------------------------------------

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(usage());
    };
    let load = |path: &String| -> Result<RunSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        RunSet::from_json(&doc).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let result = compare(&a, &b);
    println!("# workload metric a=median [q1, q3] b=median [q1, q3] ratio verdict");
    for row in &result.rows {
        println!("{row}");
    }
    println!(
        "# {} pairs, {} regressions, {} unresolved; failed ops a={}/{} b={}/{}{}",
        result.rows.len(),
        result.regressions,
        result.unresolved,
        a.failed,
        a.attempted,
        b.failed,
        b.attempted,
        if result.more_failures {
            " — b fails a larger share"
        } else {
            ""
        }
    );
    Ok(result.passes())
}
