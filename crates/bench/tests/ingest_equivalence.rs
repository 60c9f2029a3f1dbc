//! Byte-identity gate for the incremental ingestion path (ISSUE 8).
//!
//! The oracle is a one-shot [`build`] over the union corpus, analysed
//! serially on fresh indexes. A graph grown window by
//! window through [`MalGraph::apply_delta`] must reproduce every section
//! of every experiment and extension **byte for byte** — serial on a
//! context whose caches were populated and dropped at every window, and
//! fanned out over 7 worker threads on a context whose caches are all
//! first-touched concurrently. Any divergence means a cache survived a
//! delta it should not have, or the delta emission drifted from the
//! one-shot stage order.
//!
//! The suite also pins the invalidation accounting: every drop of an
//! analysis cache increments an `ingest.*` counter, so a stale-cache
//! regression (a cache silently *kept* where the matrix says drop)
//! shows up as a counter mismatch even before it corrupts a section.
//! Beside it, the windows' similarity work (embeddings, memo
//! misses, K-Means iterations, kernel screens, recomputed ecosystems) is
//! pinned exactly, so a memo that stops carrying across windows fails by
//! count rather than by time.

use crawler::{collect, partition_windows, union_dataset, CorpusDelta};
use malgraph_bench::{AnalyzeMode, Repro, EXPERIMENTS, EXTENSIONS};
use malgraph_core::{build, BuildOptions, IngestState, MalGraph, Relation};
use registry_sim::{WindowPlan, World, WorldConfig};
use std::collections::HashMap;

/// Small but structurally complete world: all relations are populated
/// and every section renders non-trivial rows at this scale.
const SEED: u64 = 5;
const SCALE: f64 = 0.05;
const WINDOWS: usize = 4;

fn world() -> World {
    let config = WorldConfig {
        seed: SEED,
        ..WorldConfig::default()
    }
    .with_scale(SCALE);
    World::generate(config)
}

fn deltas() -> Vec<CorpusDelta> {
    let world = world();
    let dataset = collect(&world);
    let plan = WindowPlan::disclosure_quantiles(&world, WINDOWS);
    partition_windows(&dataset, &plan)
}

fn all_ids() -> Vec<&'static str> {
    EXPERIMENTS
        .iter()
        .chain(EXTENSIONS.iter())
        .copied()
        .collect()
}

fn counters() -> HashMap<String, u64> {
    obs::snapshot().counters.into_iter().collect()
}

/// `counter[name]` growth between two snapshots.
fn grew(before: &HashMap<String, u64>, after: &HashMap<String, u64>, name: &str) -> u64 {
    after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
}

fn assert_sections_equal(reference: &[String], candidate: &[String], ids: &[&str], label: &str) {
    assert_eq!(reference.len(), candidate.len());
    for ((id, expected), got) in ids.iter().zip(reference).zip(candidate) {
        assert_eq!(
            got, expected,
            "{label}: section `{id}` diverged from the one-shot reference"
        );
    }
}

#[test]
fn windowed_ingest_reproduces_the_one_shot_analysis() {
    obs::enable();
    let ids = all_ids();
    let deltas = deltas();
    let union = union_dataset(&deltas);
    let options = BuildOptions::default();

    // Oracle: one-shot build over the union, analysed serially on fresh
    // indexes.
    let oracle = Repro::from_parts(
        world(),
        union.clone(),
        build(&union, &options),
        AnalyzeMode::Indexed,
    );
    let reference = oracle.run_all(&ids, 1);

    // Candidate A: ingest window by window, *forcing* every lazy cache
    // between deltas so the next `apply_delta` must drop a populated
    // cache (the hard case — a fresh context never exercises the
    // invalidation matrix at all). The counter deltas pin the matrix:
    // the groups of all four relations (one cache), the stats table and
    // the analysis index dropped per subsequent window.
    let mut graph = MalGraph::empty();
    let mut state = IngestState::new();
    let before = counters();
    for delta in &deltas {
        graph.apply_delta(delta, &options, &mut state);
        for relation in Relation::ALL {
            let _ = graph.groups(relation);
            let _ = graph.relation_stats(relation);
        }
        let _ = graph.analysis_index(state.dataset());
    }
    let after = counters();
    let invalidating = (WINDOWS - 1) as u64;
    assert_eq!(grew(&before, &after, "ingest.windows"), WINDOWS as u64);
    assert_eq!(
        grew(&before, &after, "ingest.invalidated{cache=components}"),
        invalidating
    );
    assert_eq!(
        grew(&before, &after, "ingest.invalidated{cache=stats}"),
        invalidating
    );
    assert_eq!(
        grew(&before, &after, "ingest.invalidated{cache=analysis}"),
        invalidating
    );
    // The similarity work of the four windows, pinned the same way: the
    // memos carried across windows embed each distinct source once and
    // re-run only the ecosystems a window grew, so a memo dropped
    // between windows shows up here as extra embeddings, iterations and
    // screens. A change that lowers a count lowers its pin.
    assert_eq!(grew(&before, &after, "embed.vectors"), 237);
    assert_eq!(grew(&before, &after, "similarity.embed_cache_misses"), 237);
    assert_eq!(grew(&before, &after, "kmeans.iterations"), 54);
    let screens = |stage: &str| {
        grew(&before, &after, &format!("kernel.pruned_quantized{stage}"))
            + grew(&before, &after, &format!("kernel.rescored{stage}"))
    };
    assert_eq!(
        screens(""),
        24_053,
        "screens: candidates pruned by the i8 window or rescored exactly"
    );
    assert_eq!(
        screens("{stage=assign}"),
        13_503,
        "K-Means assignment screens"
    );
    assert_eq!(
        screens("{stage=refine}"),
        10_550,
        "class-pair refinement screens"
    );
    assert_eq!(grew(&before, &after, "ingest.similarity_recomputed"), 10);

    // The ingested corpus is the union, byte for byte.
    assert_eq!(state.dataset().packages, union.packages);
    assert_eq!(state.dataset().reports, union.reports);

    // Serial pass over candidate A, whose caches were filled after the
    // last delta.
    let ingested = Repro::from_parts(
        world(),
        state.dataset().clone(),
        graph,
        AnalyzeMode::Indexed,
    );
    let serial = ingested.run_all(&ids, 1);
    assert_sections_equal(&reference, &serial, &ids, "ingested/1-thread");

    // Candidate B: a second incremental context left cold (no queries
    // between windows), analysed at 7 threads so the shared caches are
    // first-touched concurrently.
    let mut graph = MalGraph::empty();
    let mut state = IngestState::new();
    for delta in &deltas {
        graph.apply_delta(delta, &options, &mut state);
    }
    let cold = Repro::from_parts(
        world(),
        state.dataset().clone(),
        graph,
        AnalyzeMode::Indexed,
    );
    let parallel = cold.run_all(&ids, 7);
    assert_sections_equal(&reference, &parallel, &ids, "ingested/7-thread");

    // Warm rerun on candidate A's context must also be stable.
    let warm = ingested.run_all(&ids, 7);
    assert_sections_equal(&reference, &warm, &ids, "ingested/warm-rerun");
}

#[test]
fn sandbox_cache_entries_stay_valid_as_the_corpus_grows() {
    // The one cache the invalidation matrix leaves untouched: sandbox
    // verdicts are keyed by source content, so entries cached in an
    // early window must still answer for the grown corpus. Replay every
    // window's archives through one long-lived cache and compare each
    // verdict against a fresh uncached sandbox.
    let sandbox = detector::DynamicDetector::default();
    let mut cache = detector::SandboxCache::default();
    let mut archives = 0usize;
    for delta in deltas() {
        for package in &delta.packages {
            if let Some(archive) = &package.archive {
                archives += 1;
                let cached = cache.run(&archive.code).verdict.labels.clone();
                assert_eq!(
                    cached,
                    sandbox.analyze_source(&archive.code).labels,
                    "stale sandbox verdict for {} after growing the corpus",
                    package.id
                );
            }
        }
        // Deduplication across windows keeps the cache strictly smaller
        // than the archive census — re-released code hits old entries.
        assert!(cache.len() <= archives);
    }
    assert!(
        archives > 0,
        "corpus has no recovered archives at this scale"
    );
    assert!(
        cache.len() < archives,
        "campaign re-releases should deduplicate ({} entries / {archives} archives)",
        cache.len()
    );
}
