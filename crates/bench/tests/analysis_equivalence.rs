//! Byte-identity gate for the indexed analysis path.
//!
//! The reference is one serial pass over every section on a fresh
//! context. Each index is checked against a fresh recomputation in its
//! own crate; this suite checks that the way the harness uses them does
//! not leak into the output. The same sections must come out **byte for
//! byte** when the ids run in reverse order on a fresh context (so each
//! lazily built index is first built by a different section), when they
//! fan out over 7 worker threads on a fresh context, and when they rerun
//! on a warm one. Any divergence means an index is stale, a cache leaked
//! state between sections, or the parallel assembly reordered output.

use malgraph_bench::{Repro, EXPERIMENTS, EXTENSIONS};

/// Small but structurally complete world: all relations are populated
/// and every section renders non-trivial rows at this scale.
const SEED: u64 = 5;
const SCALE: f64 = 0.05;

fn all_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().chain(EXTENSIONS.iter()).copied().collect()
}

fn assert_sections_equal(reference: &[String], candidate: &[String], ids: &[&str], label: &str) {
    assert_eq!(reference.len(), candidate.len());
    for ((id, expected), got) in ids.iter().zip(reference).zip(candidate) {
        assert_eq!(
            got, expected,
            "{label}: section `{id}` diverged from the serial reference"
        );
    }
}

#[test]
fn indexed_analysis_is_byte_identical_to_serial_reference() {
    let ids = all_ids();

    // Reference pass: serial, fresh context.
    let context = Repro::new(SEED, SCALE);
    let reference = context.run_all(&ids, 1);

    // Reversed order on a fresh context: the first touch of every shared
    // index now comes from a different section.
    let reversed_ids: Vec<&str> = ids.iter().rev().copied().collect();
    let mut reversed = Repro::new(SEED, SCALE).run_all(&reversed_ids, 1);
    reversed.reverse();
    assert_sections_equal(&reference, &reversed, &ids, "reversed/1-thread");

    // 7 threads on another fresh context: first touches of the shared
    // OnceLock-backed indexes now race, and sections are assembled from
    // per-slot results rather than in execution order.
    let parallel = Repro::new(SEED, SCALE).run_all(&ids, 7);
    assert_sections_equal(&reference, &parallel, &ids, "7-thread");

    // Re-running on the warm context must also be stable: caches are
    // immutable after first build, so hits equal the first answer.
    let warm = context.run_all(&ids, 7);
    assert_sections_equal(&reference, &warm, &ids, "warm-rerun");

    // Nothing here enabled obs, and building a context must not either.
    assert!(!obs::enabled(), "Repro::new switched obs on");
}
