//! The profiling determinism contract: under a fake clock, the folded
//! self-time profile of the WHOLE pipeline — world, collect, build with
//! its per-ecosystem similarity workers, and all 23 analysis sections on
//! the parallel harness — is byte-identical at 1 and 7 worker threads.
//!
//! This is the property that makes profiles golden-testable: span
//! contexts propagate into worker threads ([`obs::current_context`]), so
//! a span folds under the same logical parent no matter which OS thread
//! runs it, and lazily built caches root their spans via
//! [`obs::detached`] so the OnceLock race winner cannot reshape the
//! profile.
//!
//! The same run is CI's performance gate. Its counters must not depend
//! on the thread count either, and each work counter must stay at or
//! below the value it read when last recorded ([`WORK_CEILINGS`]).
//! Counts are exact where wall time on one host varies by about ±20%,
//! so a change that makes the pipeline do more work fails here on every
//! run; perfbench measures the time.
//!
//! One test function on purpose: the obs registry and its clock are
//! process-global.

use malgraph_bench::{Repro, EXPERIMENTS, EXTENSIONS};
use std::sync::Arc;

const SEED: u64 = 20226;
const SCALE: f64 = 0.05;

/// The most work one run at [`SEED`] and [`SCALE`] may do: each entry
/// sums its counters, and the ceiling is the sum measured when it was
/// recorded. A change that lowers a count lowers its entry, so the
/// saving cannot be spent again unnoticed.
const WORK_CEILINGS: &[(&[&str], u64)] = &[
    (&["crawler.attempts"], 8_360),
    // Distinct sources embedded, and the memo misses that caused them.
    (&["embed.vectors"], 1_048),
    (&["similarity.embed_cache_misses"], 1_048),
    (&["kmeans.runs"], 23),
    (&["kmeans.iterations"], 76),
    // Exact distances and dots the kernels computed, and every candidate
    // they screened: pruned by the i8 window or rescored exactly. In
    // total, then per stage: K-Means assignment and class-pair
    // refinement.
    (&["kernel.rescored"], 12_522),
    (&["kernel.pruned_quantized", "kernel.rescored"], 72_720),
    (&["kernel.rescored{stage=assign}"], 12_373),
    (
        &[
            "kernel.pruned_quantized{stage=assign}",
            "kernel.rescored{stage=assign}",
        ],
        28_837,
    ),
    (&["kernel.rescored{stage=refine}"], 149),
    (
        &[
            "kernel.pruned_quantized{stage=refine}",
            "kernel.rescored{stage=refine}",
        ],
        43_883,
    ),
    (&["detector.sandbox_runs"], 635),
    (&["detector.sandbox_steps{kind=executed}"], 24_269),
    (&["detector.static_scans"], 1_020),
    (&["analysis.index_builds"], 4),
    (&["analysis.corpus_index_builds"], 1),
    (&["analysis.sequence_builds"], 1),
];

/// Runs the full pipeline + analysis under a fake clock and returns the
/// obs snapshot (folded frames, counters) and the section reports.
fn profiled_run(threads: usize) -> (obs::Snapshot, Vec<String>) {
    let clock = Arc::new(obs::FakeClock::new());
    obs::enable_with_clock(clock as Arc<dyn obs::Clock>);
    obs::reset();
    let repro = Repro::new(SEED, SCALE);
    let ids: Vec<&str> = EXPERIMENTS
        .iter()
        .chain(EXTENSIONS.iter())
        .copied()
        .collect();
    let sections = repro.run_all(&ids, threads);
    let snapshot = obs::snapshot();
    obs::disable();
    (snapshot, sections)
}

#[test]
fn folded_profile_is_byte_identical_at_1_and_7_threads() {
    let (run_1, sections_1) = profiled_run(1);
    let (run_7, sections_7) = profiled_run(7);
    let (frames_1, frames_7) = (&run_1.folded, &run_7.folded);

    // The profile observed something real before we compare it.
    assert!(
        frames_1
            .iter()
            .any(|f| f.stack == "repro/build;build;build/similar"),
        "similarity stage missing from the folded profile"
    );
    assert!(
        frames_1.iter().any(|f| f
            .stack
            .starts_with("repro/build;build;build/similar;build/similar/ecosystem=")),
        "per-ecosystem worker spans missing from the folded profile"
    );
    assert!(
        frames_1.iter().any(|f| f.stack.starts_with("analyze/")),
        "analysis sections missing from the folded profile"
    );
    assert!(
        frames_1
            .iter()
            .any(|f| f.stack.starts_with("analysis/index/")),
        "lazy index spans missing from the folded profile"
    );

    // The contract: byte-identical folded export, frame-identical
    // stacks/counts (the export alone would hide count differences —
    // a fake clock that never advances weights every line 0), and
    // byte-identical section output while profiling.
    assert_eq!(
        run_1.to_folded(),
        run_7.to_folded(),
        "folded export must not depend on thread count"
    );
    assert_eq!(
        frames_1, frames_7,
        "folded frames must not depend on thread count"
    );
    assert_eq!(
        sections_1, sections_7,
        "section reports must not depend on thread count"
    );

    // Every counter is equal too, except the one that counts the
    // sections' fan-outs themselves (it exists only at 7 threads).
    let work = |counters: &[(String, u64)]| -> Vec<(String, u64)> {
        counters
            .iter()
            .filter(|(name, _)| name != "analysis.parallel_runs")
            .cloned()
            .collect()
    };
    assert_eq!(
        work(&run_1.counters),
        work(&run_7.counters),
        "counters must not depend on thread count"
    );

    for &(names, ceiling) in WORK_CEILINGS {
        let done: u64 = names
            .iter()
            .map(|&name| {
                run_1
                    .counters
                    .iter()
                    .find(|(counter, _)| counter == name)
                    .unwrap_or_else(|| panic!("counter {name} missing from the snapshot"))
                    .1
            })
            .sum();
        assert!(
            done <= ceiling,
            "{} = {done}: more work than the recorded {ceiling}",
            names.join(" + ")
        );
    }
}
