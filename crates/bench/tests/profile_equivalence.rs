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
//! One test function on purpose: the obs registry and its clock are
//! process-global.

use malgraph_bench::{Repro, EXPERIMENTS, EXTENSIONS};
use std::sync::Arc;

const SEED: u64 = 20226;
const SCALE: f64 = 0.05;

/// Runs the full pipeline + analysis under a fake clock and returns the
/// folded profile (bytes), the folded frames (stacks + counts), and the
/// section reports.
fn profiled_run(threads: usize) -> (String, Vec<obs::FoldedFrame>, Vec<String>) {
    let clock = Arc::new(obs::FakeClock::new());
    obs::enable_with_clock(clock as Arc<dyn obs::Clock>);
    obs::reset();
    let repro = Repro::new(SEED, SCALE);
    let ids: Vec<&str> = EXPERIMENTS.iter().chain(EXTENSIONS.iter()).copied().collect();
    let sections = repro.run_all(&ids, threads);
    let snapshot = obs::snapshot();
    obs::disable();
    (snapshot.to_folded(), snapshot.folded, sections)
}

#[test]
fn folded_profile_is_byte_identical_at_1_and_7_threads() {
    let (folded_1, frames_1, sections_1) = profiled_run(1);
    let (folded_7, frames_7, sections_7) = profiled_run(7);

    // The profile observed something real before we compare it.
    assert!(
        frames_1.iter().any(|f| f.stack == "repro/build;build;build/similar"),
        "similarity stage missing from the folded profile"
    );
    assert!(
        frames_1
            .iter()
            .any(|f| f.stack.starts_with("repro/build;build;build/similar;build/similar/ecosystem=")),
        "per-ecosystem worker spans missing from the folded profile"
    );
    assert!(
        frames_1.iter().any(|f| f.stack.starts_with("analyze/")),
        "analysis sections missing from the folded profile"
    );
    assert!(
        frames_1.iter().any(|f| f.stack.starts_with("analysis/index/")),
        "lazy index spans missing from the folded profile"
    );

    // The contract: byte-identical folded export, frame-identical
    // stacks/counts (the export alone would hide count differences —
    // a fake clock that never advances weights every line 0), and
    // byte-identical section output while profiling.
    assert_eq!(folded_1, folded_7, "folded export must not depend on thread count");
    assert_eq!(frames_1, frames_7, "folded frames must not depend on thread count");
    assert_eq!(sections_1, sections_7, "section reports must not depend on thread count");
}
