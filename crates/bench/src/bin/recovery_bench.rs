//! Resume-vs-rebuild wall-time comparison for the crash-consistent
//! checkpoint store (ISSUE 10), written to `BENCH_PR10.json` — the
//! perf-trajectory record for the recovery subsystem, next to the PR-8
//! ingestion numbers.
//!
//! Two staged crashes bracket the recovery cost:
//!
//! * **crash after the final checkpoint sealed** (`checkpoint/publish`,
//!   last occurrence) — every window durable; resume is the pure
//!   recovery path: validate the newest generation's checksum, restore
//!   the graph from it (similarity outputs applied from disk, not
//!   recomputed), find nothing left to replay. This is the headline
//!   `resume_ms`, held to the ≥ 3× target.
//! * **crash right after the last delta applied in memory**
//!   (`ingest/apply`, last occurrence) — the worst case: a full window
//!   of similarity work was never durable. Resume restores the
//!   second-to-last generation, replays the journaled final window
//!   through the ordinary ingest path, and re-checkpoints. Reported as
//!   `resume_lost_window_ms`; the replay redoes real lost work, so it
//!   is *not* held to the headline target.
//!
//! The baseline both are measured against is a **cold full rebuild**:
//! `build()` over the union corpus, the pre-checkpoint answer to "the
//! process died" (and the identity oracle). `restore_only_ms` isolates
//! the bare `recover()` call against a complete directory.
//!
//! Each measurement is the **minimum** over [`REPS`] repetitions; every
//! resume repetition restores a pristine copy of its crashed directory
//! (resuming can mutate the store — the worst case re-checkpoints), so
//! no rep inherits another's generations. Before any time is reported,
//! every resumed graph is asserted node-for-node and edge-for-edge
//! identical to the full rebuild, with identical similarity diagnostics
//! — the speedup is for the same graph, not an approximation of it.
//!
//! ```text
//! cargo run -p malgraph-bench --bin recovery_bench --release [-- --quick]
//! ```
//!
//! `--quick` runs at scale 0.05 (the CI smoke configuration) and writes
//! `target/perf_gate/BENCH_PR10_quick.json` instead.

use crawler::{collect, partition_windows, union_dataset};
use malgraph_core::{
    build, recover, run_checkpointed_ingest, BuildOptions, CheckpointOptions, CheckpointStore,
    MalGraph, Relation,
};
use oss_types::CrashPlan;
use registry_sim::{WindowPlan, World, WorldConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SEED: u64 = 42;
/// Disclosure-quantile windows; the crashes land in the last one.
const WINDOWS: usize = 10;
/// Repetitions per pass; minima are reported.
const REPS: usize = 3;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 0.05 } else { 1.0 };
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

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
    let options = BuildOptions::default();
    eprintln!(
        "corpus: {} packages / {} reports in {} windows",
        union.packages.len(),
        union.reports.len(),
        deltas.len(),
    );

    let work = std::env::temp_dir().join(format!("malgraph-recovery-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create bench dir");

    eprintln!(
        "pass 1/4: cold full rebuild over the union (seed {SEED}, scale {scale}, best of {REPS})…"
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
    eprintln!("  cold full rebuild        {full_ms:8.0} ms");

    let stage = |tag: &str, point: &str| -> PathBuf {
        let template = work.join(format!("crashed-{tag}"));
        let store = CheckpointStore::open(&template).expect("open template store");
        let crashed = run_checkpointed_ingest(
            &deltas,
            &options,
            &store,
            &CrashPlan::at(point, deltas.len() as u32),
            &CheckpointOptions::default(),
        );
        assert!(crashed.is_err(), "the staged crash at {point} must fire");
        template
    };
    let resume_pass = |template: &Path, tag: &str| -> f64 {
        let mut best = f64::INFINITY;
        for rep in 0..REPS {
            let dir = work.join(format!("resume-{tag}-{rep}"));
            copy_dir(template, &dir);
            let store = CheckpointStore::open(&dir).expect("open resume store");
            let t0 = Instant::now();
            let (graph, state) = run_checkpointed_ingest(
                &deltas,
                &options,
                &store,
                &CrashPlan::none(),
                &CheckpointOptions::default(),
            )
            .expect("resume succeeds");
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(state.windows_applied(), deltas.len());
            assert_eq!(state.dataset().packages, union.packages);
            assert_eq!(state.dataset().reports, union.reports);
            assert_identical(&graph, &oracle);
        }
        best
    };

    eprintln!("pass 2/4: resume after a crash past the final checkpoint (checkpoint/publish, best of {REPS})…");
    let sealed = stage("sealed", "checkpoint/publish");
    let resume_ms = resume_pass(&sealed, "sealed");
    eprintln!("  resume (all durable)     {resume_ms:8.0} ms");

    eprintln!(
        "pass 3/4: resume after a crash that lost the final window (ingest/apply, best of {REPS})…"
    );
    let lost = stage("lost-window", "ingest/apply");
    let lost_ms = resume_pass(&lost, "lost");
    eprintln!("  resume (replay + reseal) {lost_ms:8.0} ms");

    // Bare `recover()` against a complete directory: the checksum-
    // validate + rebuild-from-snapshot cost with no driver around it.
    eprintln!("pass 4/4: restore-only recovery from a complete checkpoint (best of {REPS})…");
    let complete = work.join("resume-sealed-0");
    let store = CheckpointStore::open(&complete).expect("open complete store");
    let mut restore_ms = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let (graph, state) = recover(&store, &options).expect("recover");
        restore_ms = restore_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(state.windows_applied(), deltas.len());
        assert_identical(&graph, &oracle);
    }
    eprintln!("  restore only             {restore_ms:8.0} ms");

    let speedup = full_ms / resume_ms;
    let lost_speedup = full_ms / lost_ms;
    eprintln!(
        "resume: {speedup:.2}x faster than a cold full rebuild (target ≥ 3x); \
         worst case with the final window lost: {lost_speedup:.2}x"
    );

    let report = jsonio::object! {
        "bench": "crash_recovery",
        "issue": "PR10: crash-consistent checkpointing with deterministic crash injection",
        "seed": SEED,
        "scale": scale,
        "quick": quick,
        "host_threads": host_threads,
        "windows_requested": WINDOWS,
        "windows": deltas.len(),
        "reps": REPS,
        "union_packages": union.packages.len(),
        "union_reports": union.reports.len(),
        "full_build_ms": full_ms,
        "resume_ms": resume_ms,
        "resume_lost_window_ms": lost_ms,
        "restore_only_ms": restore_ms,
        "speedup_resume_vs_full": speedup,
        "speedup_lost_window_vs_full": lost_speedup,
        "target": "resume of a run crashed after its final checkpoint sealed >= 3x \
                   faster than a cold full rebuild",
        "note": "minima over reps repetitions; resume_ms is a crash at the last \
                 checkpoint/publish (every window durable, pure restore), \
                 resume_lost_window_ms is a crash at the last ingest/apply (a full \
                 window of similarity work never durable — replay redoes it). Every \
                 resume repetition starts from a pristine copy of its crashed \
                 directory and its graph is asserted node-for-node and \
                 edge-for-edge identical to the full rebuild (plus identical \
                 similarity diagnostics) before any time is reported.",
    };
    let path = malgraph_bench::report_path("BENCH_PR10", quick);
    std::fs::write(&path, report.to_pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
    let _ = std::fs::remove_dir_all(&work);
}

/// Recursively copies the checkpoint directory template (two levels:
/// the store root and its `journal/` subdirectory).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy target");
    for entry in std::fs::read_dir(from).expect("read template") {
        let entry = entry.expect("entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy file");
        }
    }
}

/// Panics unless the resumed graph matches the oracle bitwise — node
/// table, edge list, similarity diagnostics and (as a query-path check)
/// the per-relation component groups.
fn assert_identical(resumed: &MalGraph, oracle: &MalGraph) {
    let nodes = |g: &MalGraph| g.graph.nodes().map(|(_, n)| n.clone()).collect::<Vec<_>>();
    assert_eq!(nodes(resumed), nodes(oracle), "node tables diverged");
    let edges = |g: &MalGraph| {
        g.graph
            .edges()
            .map(|e| (e.from.index(), e.to.index(), e.label))
            .collect::<Vec<_>>()
    };
    assert_eq!(edges(resumed), edges(oracle), "edge lists diverged");
    assert_eq!(
        resumed.similarity_diagnostics.len(),
        oracle.similarity_diagnostics.len()
    );
    for ((eco_a, out_a), (eco_b, out_b)) in resumed
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
        let bits =
            |t: &[(usize, f32)]| t.iter().map(|&(k, f)| (k, f.to_bits())).collect::<Vec<_>>();
        assert_eq!(
            bits(&out_a.trace),
            bits(&out_b.trace),
            "{eco_a:?} trace bits diverged"
        );
    }
    for relation in Relation::ALL {
        assert_eq!(
            resumed.groups(relation),
            oracle.groups(relation),
            "{relation:?} groups diverged"
        );
    }
}
