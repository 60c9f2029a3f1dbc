//! One-shot wall-time comparison of delta ingestion against a full
//! rebuild, written to `BENCH_PR8.json` — the perf-trajectory record for
//! the incremental ingestion subsystem (ISSUE 8), next to the PR-6
//! kernel and PR-7 analysis numbers.
//!
//! The scenario is continuous monitoring: a graph has already ingested
//! the first `WINDOWS - 1` disclosure-quantile windows of the corpus
//! (~90% of packages) when the final window (~10%) arrives. The number
//! that matters is the cost of folding that late window in:
//!
//! * **full rebuild** — `build()` over the union corpus, the pre-PR
//!   answer to "new data arrived" (and the identity oracle);
//! * **delta ingest** — [`MalGraph::apply_delta`] of the final window
//!   onto the warm incremental state: nodes append, cheap edge stages
//!   re-emit, similarity re-embeds only unseen packages and refines over
//!   collapsed distinct vectors.
//!
//! Each measurement is the **minimum** over [`REPS`] repetitions on
//! fresh state (the incremental pass re-ingests its prefix from scratch
//! every repetition, so no rep inherits another's warm caches);
//! preemption noise on a shared host is strictly additive, so the
//! minimum is the faithful per-stage estimate. Before any time is
//! reported, every repetition's incremental graph is asserted
//! node-for-node and edge-for-edge identical to the full rebuild, with
//! identical similarity diagnostics and component groups — the speedup
//! is for the same graph, not an approximation of it.
//!
//! ```text
//! cargo run -p malgraph-bench --bin ingest_bench --release [-- --quick]
//! ```
//!
//! `--quick` runs at scale 0.05 (the CI smoke configuration) and writes
//! `target/perf_gate/BENCH_PR8_quick.json` instead.

use crawler::{collect, partition_windows, union_dataset};
use malgraph_core::{build, BuildOptions, IngestState, MalGraph, Relation};
use registry_sim::{WindowPlan, World, WorldConfig};
use std::time::Instant;

const SEED: u64 = 42;
/// Disclosure-quantile windows; the timed delta is the last one (~10%
/// of the corpus, the acceptance scenario of ISSUE 8).
const WINDOWS: usize = 10;
/// Repetitions per pass; minima are reported.
const REPS: usize = 3;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 0.05 } else { 1.0 };
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    obs::enable();

    let config = WorldConfig {
        seed: SEED,
        ..WorldConfig::default()
    }
    .with_scale(scale);
    let world = World::generate(config);
    let dataset = collect(&world);
    let plan = WindowPlan::disclosure_quantiles(&world, WINDOWS);
    let deltas = partition_windows(&dataset, &plan);
    let union = union_dataset(&deltas);
    // Quantile plans deduplicate equal bounds, so the partition can hold
    // fewer than WINDOWS deltas; split on what actually came back.
    let (prefix, timed) = deltas.split_at(deltas.len() - 1);
    let last = &timed[0];
    let options = BuildOptions::default();
    eprintln!(
        "corpus: {} packages / {} reports in {} windows; final window carries \
         {} packages / {} reports ({:.1}%)",
        union.packages.len(),
        union.reports.len(),
        deltas.len(),
        last.packages.len(),
        last.reports.len(),
        100.0 * last.packages.len() as f64 / union.packages.len().max(1) as f64,
    );

    eprintln!(
        "pass 1/2: full rebuild over the union (seed {SEED}, scale {scale}, best of {REPS})…"
    );
    let mut full_ms = f64::INFINITY;
    let mut oracle: Option<MalGraph> = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let graph = build(&union, &options);
        full_ms = full_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        oracle = Some(graph);
    }
    let oracle = oracle.expect("REPS >= 1");
    eprintln!("  full rebuild      {full_ms:8.0} ms");

    eprintln!("pass 2/2: delta ingest of the final window (fresh prefix per rep, best of {REPS})…");
    let mut prefix_ms = f64::INFINITY;
    let mut delta_ms = f64::INFINITY;
    for _ in 0..REPS {
        let mut graph = MalGraph::empty();
        let mut state = IngestState::new();
        let t0 = Instant::now();
        for delta in prefix {
            graph.apply_delta(delta, &options, &mut state);
        }
        prefix_ms = prefix_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        graph.apply_delta(last, &options, &mut state);
        delta_ms = delta_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        // Bitwise-identity gate: the incremental graph must *be* the
        // full rebuild before its time is worth reporting.
        assert_identical(&graph, &oracle);
        assert_eq!(state.dataset().packages, union.packages);
        assert_eq!(state.dataset().reports, union.reports);
    }
    eprintln!("  prefix ({} windows) {prefix_ms:6.0} ms", prefix.len());
    eprintln!("  final-window delta {delta_ms:7.0} ms");

    let speedup = full_ms / delta_ms;
    eprintln!(
        "delta ingest of the final window: {speedup:.2}x faster than a full rebuild \
         (target ≥ 5x)"
    );

    let rows: Vec<jsonio::Value> = deltas
        .iter()
        .map(|d| {
            jsonio::object! {
                "window": d.window,
                "packages": d.packages.len(),
                "reports": d.reports.len(),
            }
        })
        .collect();
    let report = jsonio::object! {
        "bench": "incremental_ingest",
        "issue": "PR8: incremental corpus ingestion with cache-aware invalidation",
        "seed": SEED,
        "scale": scale,
        "quick": quick,
        "host_threads": host_threads,
        "windows_requested": WINDOWS,
        "windows": deltas.len(),
        "reps": REPS,
        "union_packages": union.packages.len(),
        "union_reports": union.reports.len(),
        "last_window_packages": last.packages.len(),
        "last_window_reports": last.reports.len(),
        "full_build_ms": full_ms,
        "prefix_ingest_ms": prefix_ms,
        "delta_ingest_ms": delta_ms,
        "speedup_delta_vs_full": speedup,
        "target": "delta ingest of the final ~10% window >= 5x faster than a full rebuild",
        "note": "minima over reps repetitions; the incremental pass re-ingests \
                 its prefix from scratch each repetition, and every repetition's \
                 graph is asserted node-for-node and edge-for-edge identical to \
                 the full rebuild (plus identical similarity diagnostics and \
                 component groups) before any time is reported.",
        "results": jsonio::Value::Array(rows),
    };
    let path = malgraph_bench::report_path("BENCH_PR8", quick);
    std::fs::write(&path, report.to_pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

/// Panics unless the incremental graph matches the oracle bitwise —
/// node table, edge list, similarity diagnostics and (as a query-path
/// check) the per-relation component groups.
fn assert_identical(incremental: &MalGraph, oracle: &MalGraph) {
    let nodes = |g: &MalGraph| g.graph.nodes().map(|(_, n)| n.clone()).collect::<Vec<_>>();
    assert_eq!(nodes(incremental), nodes(oracle), "node tables diverged");
    let edges = |g: &MalGraph| {
        g.graph
            .edges()
            .map(|e| (e.from.index(), e.to.index(), e.label))
            .collect::<Vec<_>>()
    };
    assert_eq!(edges(incremental), edges(oracle), "edge lists diverged");
    assert_eq!(
        incremental.similarity_diagnostics.len(),
        oracle.similarity_diagnostics.len()
    );
    for ((eco_a, out_a), (eco_b, out_b)) in incremental
        .similarity_diagnostics
        .iter()
        .zip(&oracle.similarity_diagnostics)
    {
        assert_eq!(eco_a, eco_b);
        assert_eq!(
            out_a.pairs, out_b.pairs,
            "{eco_a:?} similarity pairs diverged"
        );
        assert_eq!(
            out_a.chosen_k, out_b.chosen_k,
            "{eco_a:?} chosen k diverged"
        );
    }
    for relation in Relation::ALL {
        assert_eq!(
            incremental.groups(relation),
            oracle.groups(relation),
            "{relation:?} groups diverged"
        );
    }
}
