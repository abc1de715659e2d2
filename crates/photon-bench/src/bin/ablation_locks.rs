//! **Ablation — tally pipeline in the shared-memory simulator (Fig 5.6).**
//!
//! The paper's shared-memory design serializes tally application per bin
//! tree (Fig 5.2's multiple-reader/single-writer protocol): every tally
//! takes its tree's write lock while the photon is still being traced. The
//! engine (`photon_par::ParEngine`) instead traces lock-free into record
//! buffers, counting-sorts the records by patch, and applies each patch's
//! run under one lock acquisition in serial order. This ablation runs both
//! on real threads:
//!
//! - `inline`  — the paper's loop, kept here and nowhere else: the same
//!   photon loop (`photon_core::trace_span`) with a sink that locks per
//!   tally ([`LockedSink`]). Bin boundaries depend on how the threads
//!   interleave, so its answers are not reproducible across thread counts.
//! - `batched` — the engine: trace → partition → apply, bit-identical to
//!   serial.
//!
//! What to read off it: a lock per tally against a lock per patch run plus
//! the partition pass. The inline loop has no serial phase but pays
//! contention that grows with threads per hot tree (the paper's small
//! scenes stop scaling past two processors); the engine never contends but
//! pushes ≈2 records per photon through a counting sort on one thread.
//! Which is faster depends on cores against hot trees — on a 2-core host,
//! with intersection at 80–88 % of a photon's time, neither is reliably
//! ahead. The engine is what ships because only its answers are
//! reproducible.
//! (What the leaf-descent cursor adds inside a run is the ledger's
//! `bintree.tally_ns` vs `bintree.tally_cursor_ns` rows.)
//!
//! A second section ablates the **node layout**: descending the same
//! logical tree stored as the old array-of-structs enum arena (one
//! [`ExportNode`] per node) versus the current hot/cold SoA arenas (8-byte
//! packed nodes, leaf stats in a separate cold array). Same trees, same
//! probe stream, answers asserted equal — only the memory layout differs.

use photon_bench::{fmt, heading, md_table};
use photon_core::{trace_span, PhotonGenerator, Span, SpeedTrace, TallySink};
use photon_geom::Scene;
use photon_hist::{BinPoint, BinRange, BinTree, ExportNode, SplitConfig};
use photon_math::Rgb;
use photon_par::{run, ParConfig};
use photon_rng::{Lcg48, PhotonRng};
use photon_scenes::TestScene;
use std::f64::consts::TAU;
use std::sync::RwLock;
use std::time::Instant;

const SEED: u64 = 1997;
const PHOTONS: u64 = 40_000;
const BATCH: u64 = 4_000;

/// Fig 5.2's sink: one write-lock acquisition per tally.
struct LockedSink<'a>(&'a [RwLock<BinTree>]);

impl TallySink for LockedSink<'_> {
    #[inline]
    fn tally(&mut self, patch_id: u32, point: &BinPoint, energy: Rgb) {
        self.0[patch_id as usize]
            .write()
            .expect("no tally panics")
            .tally(point, energy);
    }
}

/// Steady photons/s of the inline-locking loop on `threads` threads,
/// batched and sampled the way the engine's own speed trace is.
fn inline_rate(scene: &Scene, threads: u64) -> f64 {
    let generator = PhotonGenerator::new(scene);
    let trees: Vec<RwLock<BinTree>> = (0..scene.polygon_count())
        .map(|_| RwLock::new(BinTree::new(SplitConfig::default())))
        .collect();
    let mut speed = SpeedTrace::new();
    let t0 = Instant::now();
    for start in (0..PHOTONS).step_by(BATCH as usize) {
        let batch_start = Instant::now();
        std::thread::scope(|s| {
            for offset in 0..threads {
                let (generator, trees) = (&generator, &trees);
                s.spawn(move || {
                    let span = Span {
                        start,
                        count: BATCH,
                        offset,
                        stride: threads,
                    };
                    trace_span(scene, generator, SEED, span, &mut LockedSink(trees))
                });
            }
        });
        speed.push_batch(
            t0.elapsed().as_secs_f64(),
            BATCH,
            batch_start.elapsed().as_secs_f64(),
        );
    }
    speed.steady_rate()
}

/// Reference descend over the AoS enum arena — the pre-SoA hot loop: each
/// hop loads a full [`ExportNode`] (leaf stats and all), not 8 bytes.
fn aos_lookup(nodes: &[ExportNode], p: &BinPoint) -> u64 {
    let mut idx = 0usize;
    let mut range = BinRange::full();
    loop {
        match &nodes[idx] {
            ExportNode::Leaf(stats) => return stats.n_total,
            ExportNode::Internal { axis, children } => {
                let (lo, hi) = range.split(*axis);
                if p.coord(*axis) < range.mid(*axis) {
                    idx = children[0] as usize;
                    range = lo;
                } else {
                    idx = children[1] as usize;
                    range = hi;
                }
            }
        }
    }
}

/// AoS-vs-SoA lookup throughput over identical trees and probes. Returns
/// `(aos_rate, soa_rate, leaf_bins)` with rates in lookups/second.
///
/// Probes round-robin across a forest of refined trees — the serve-time
/// access pattern, where consecutive lookups land on different patches and
/// the working set far exceeds one tree.
fn layout_rates() -> (f64, f64, u32) {
    const TREES: usize = 64;
    let mut rng = Lcg48::new(1997);
    let concentrated = |rng: &mut Lcg48| {
        BinPoint::new(
            rng.next_f64().powi(2),
            rng.next_f64(),
            rng.next_f64() * TAU,
            rng.next_f64().powi(2),
        )
    };
    let forest: Vec<BinTree> = (0..TREES)
        .map(|_| {
            let mut tree = BinTree::new(SplitConfig::default());
            for _ in 0..20_000 {
                tree.tally(&concentrated(&mut rng), Rgb::WHITE);
            }
            // Canonical subtree-clustered order, as after a snapshot.
            tree.compact();
            tree
        })
        .collect();
    let aos: Vec<Vec<ExportNode>> = forest.iter().map(|t| t.export_nodes()).collect();
    let leaf_bins = forest.iter().map(|t| t.leaf_count()).sum();
    let probes: Vec<BinPoint> = (0..1 << 18)
        .map(|_| {
            BinPoint::new(
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64() * TAU,
                rng.next_f64(),
            )
        })
        .collect();
    let passes = 4u32;
    fn time(
        probes: &[BinPoint],
        passes: u32,
        mut lookup: impl FnMut(usize, &BinPoint) -> u64,
    ) -> (u64, f64) {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..passes {
            for (i, p) in probes.iter().enumerate() {
                acc = acc.wrapping_add(lookup(i % TREES, p));
            }
        }
        (acc, t0.elapsed().as_secs_f64())
    }
    let (aos_acc, aos_secs) = time(&probes, passes, |t, p| aos_lookup(&aos[t], p));
    let (soa_acc, soa_secs) = time(&probes, passes, |t, p| forest[t].lookup(p).0.n_total);
    assert_eq!(aos_acc, soa_acc, "layouts disagree on lookup answers");
    let lookups = (passes as u64 * probes.len() as u64) as f64;
    (
        lookups / aos_secs.max(1e-9),
        lookups / soa_secs.max(1e-9),
        leaf_bins,
    )
}

fn main() {
    heading("Ablation — inline-tally (lock per tally) vs batched apply (lock per patch run)");
    let mut rows = Vec::new();
    for scene_kind in [TestScene::CornellBox, TestScene::ComputerLab] {
        let scene = scene_kind.build();
        for &threads in &[1usize, 2, 4] {
            let inline = inline_rate(&scene, threads as u64);
            let config = ParConfig {
                seed: SEED,
                threads,
                batch_size: BATCH,
                ..Default::default()
            };
            let batched = run(&scene, &config, PHOTONS).speed.steady_rate();
            rows.push(vec![
                scene_kind.name().to_string(),
                threads.to_string(),
                fmt(inline),
                fmt(batched),
                fmt(batched / inline.max(1e-9)),
            ]);
        }
    }
    let (aos_rate, soa_rate, leaf_bins) = layout_rates();
    let aos_node = std::mem::size_of::<ExportNode>();
    println!(
        "{}",
        md_table(
            &[
                "scene",
                "threads",
                "inline rate (photons/s)",
                "batched rate",
                "batched/inline"
            ],
            &rows
        )
    );
    println!("inline: a lock per tally, answers vary with thread interleaving;");
    println!(
        "batched: a lock per patch run after a counting sort, answers bit-identical to serial."
    );
    println!();
    heading("Ablation — node layout: AoS enum arena vs hot/cold SoA");
    println!("round-robin probes across a {leaf_bins}-bin forest of 64 trees");
    println!(
        "{}",
        md_table(
            &["layout", "node bytes", "lookups/s", "vs AoS",],
            &[
                vec![
                    "AoS enum arena".to_string(),
                    aos_node.to_string(),
                    fmt(aos_rate),
                    "1.00x".to_string(),
                ],
                vec![
                    "hot/cold SoA".to_string(),
                    "8".to_string(),
                    fmt(soa_rate),
                    format!("{:.2}x", soa_rate / aos_rate.max(1e-9)),
                ],
            ]
        )
    );
    println!("same logical trees and probe stream; the SoA descent touches 8-byte");
    println!("packed nodes only, deferring leaf statistics to the cold arena.");
}
