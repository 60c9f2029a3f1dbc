//! Failure injection across crate boundaries: the pipeline must degrade
//! gracefully on mangled input, tiny worlds, and hostile page content.

use malgraph::crawler::sources::{parse_feed, FeedFormat};
use malgraph::crawler::{collect, extract, html, import_json};
use malgraph::malgraph_core::{build, BuildOptions, SimilarityConfig};
use malgraph::prelude::*;

#[test]
fn hostile_pages_never_panic_the_extractor() {
    let hostile = [
        "",
        "<",
        "<<<<>>>>",
        "<html><code>",
        "<code>npm/x@1.0.0",                       // unterminated
        "<title>malicious</title><code>💣</code>", // non-ascii id
        &"<div>".repeat(10_000),                   // deep nesting
        "plain text with no tags but the word malware and npm/ok@1.0.0",
    ];
    for page in hostile {
        let _ = extract::parse_report_page(page); // must not panic
        let events = html::parse_events(page);
        let _ = extract::extract_package_ids(&events);
        let _ = extract::keyword_filter(&events);
    }
}

#[test]
fn corrupt_feed_documents_are_skipped() {
    let docs = vec![
        (FeedFormat::JsonDump, "]][[".to_string()),
        (FeedFormat::JsonDump, "{\"id\": 3}".to_string()),
        (FeedFormat::HtmlPage, "<html>".to_string()),
        (FeedFormat::SnsText, "\u{0}\u{1}\u{2}".to_string()),
    ];
    for source in [
        SourceId::DataDog,
        SourceId::Phylum,
        SourceId::IndividualBlogs,
    ] {
        assert!(parse_feed(source, &docs).is_empty());
    }
}

#[test]
fn tiny_world_still_yields_a_coherent_graph() {
    let world = World::generate(
        WorldConfig {
            seed: 4,
            ..WorldConfig::default()
        }
        .with_scale(0.01),
    );
    let corpus = collect(&world);
    assert!(!corpus.packages.is_empty());
    let graph = build(&corpus, &BuildOptions::default());
    assert_eq!(graph.package_count(), corpus.packages.len());
    // All analyses run without panicking even when some groups are empty.
    use malgraph::malgraph_core::analysis::*;
    let _ = overlap::overlap_matrix(&corpus);
    let _ = quality::missing_rates(&corpus);
    let _ = diversity::table7(&graph);
    let _ = diversity::table2(&graph);
    let _ = campaign::lifecycle_stats(&corpus);
    let _ = evolution::op_distribution(&evolution::release_sequences(&graph, &corpus));
}

#[test]
fn degenerate_similarity_configs_are_safe() {
    let world = World::generate(WorldConfig::small(5));
    let corpus = collect(&world);
    for config in [
        SimilarityConfig {
            threshold: 1.0, // nothing passes except exact duplicates
            ..SimilarityConfig::default()
        },
        SimilarityConfig {
            threshold: 0.0, // everything in a cluster passes
            dim: 8,         // absurdly small embedding
            max_k: 4,
            ..SimilarityConfig::default()
        },
    ] {
        let graph = build(&corpus, &BuildOptions { similarity: config });
        // Structure may be degenerate but must stay internally coherent.
        for group in graph.groups(Relation::Similar) {
            assert!(group.len() >= 2);
        }
    }
}

#[test]
fn zero_retention_mirrors_lose_almost_everything() {
    let world = World::generate(WorldConfig {
        seed: 6,
        mirror_retention_days: 0,
        ..WorldConfig::default()
    });
    let corpus = collect(&world);
    let recovered = corpus
        .packages
        .iter()
        .filter(|p| p.recovered_from_mirror)
        .count();
    // With zero retention a mirror drops a package the moment the root
    // removes it; only not-yet-removed captures could survive.
    assert_eq!(recovered, 0, "zero retention must defeat mirror recovery");
    // Dumps still work.
    assert!(corpus.packages.iter().any(|p| p.is_available()));
}

// ---------------------------------------------------------------------------
// Unreliable-transport sweeps: the resilient collector must degrade
// gracefully at every fault rate, never panic, and stay deterministic
// across thread counts.
// ---------------------------------------------------------------------------

fn sweep_world() -> World {
    World::generate(WorldConfig::small(77))
}

#[test]
fn zero_fault_rate_reproduces_the_legacy_corpus() {
    let world = sweep_world();
    let legacy = collect(&world);
    let resilient = collect_with(
        &world,
        &CollectOptions {
            faults: FaultConfig::transient(0.0),
            ..CollectOptions::default()
        },
    );
    assert_eq!(resilient.packages, legacy.packages);
    assert_eq!(resilient.reports, legacy.reports);
    let health = resilient
        .health
        .expect("resilient collector reports health");
    assert!(health.is_fault_free(), "no faults at rate 0");
}

#[test]
fn moderate_fault_rate_recovers_most_of_the_corpus() {
    let world = sweep_world();
    let baseline = collect(&world);
    let resilient = collect_with(
        &world,
        &CollectOptions {
            faults: FaultConfig::transient(0.30),
            retry: RetryPolicy::with_retries(3),
            ..CollectOptions::default()
        },
    );
    let health = resilient.health.as_ref().expect("health present");
    let total = health.total();
    assert!(total.retries > 0, "30% transient rate must trigger retries");
    assert!(total.recovered > 0, "retries must recover documents");
    // The acceptance bar: ≥95% of the fault-free package count survives.
    let kept = resilient.packages.len() as f64;
    let full = baseline.packages.len() as f64;
    assert!(
        kept >= full * 0.95,
        "expected ≥95% recovery, got {kept}/{full}"
    );
}

#[test]
fn total_blackout_yields_an_empty_corpus_without_panicking() {
    let world = sweep_world();
    for faults in [FaultConfig::transient(1.0), FaultConfig::mixed(1.0)] {
        let resilient = collect_with(
            &world,
            &CollectOptions {
                faults,
                retry: RetryPolicy::with_retries(2),
                ..CollectOptions::default()
            },
        );
        assert!(resilient.packages.is_empty(), "blackout delivers nothing");
        assert!(resilient.reports.is_empty());
        let health = resilient.health.expect("health present");
        let total = health.total();
        assert_eq!(total.delivered, 0);
        assert!(total.dropped > 0);
    }
}

#[test]
fn fault_sweep_is_deterministic_across_thread_counts() {
    let world = sweep_world();
    for rate in [0.0, 0.15, 0.30, 0.60] {
        let run = |threads: usize| {
            collect_with(
                &world,
                &CollectOptions {
                    faults: FaultConfig::mixed(rate),
                    retry: RetryPolicy::with_retries(2),
                    threads,
                    ..CollectOptions::default()
                },
            )
        };
        let single = run(1);
        let parallel = run(7);
        assert_eq!(single.packages, parallel.packages, "rate {rate}");
        assert_eq!(single.reports, parallel.reports, "rate {rate}");
        assert_eq!(single.health, parallel.health, "rate {rate}");
    }
}

#[test]
fn health_totals_reconcile_at_every_rate() {
    let world = sweep_world();
    for rate in [0.0, 0.30, 0.75, 1.0] {
        let resilient = collect_with(
            &world,
            &CollectOptions {
                faults: FaultConfig::transient(rate),
                retry: RetryPolicy::with_retries(3),
                ..CollectOptions::default()
            },
        );
        let health = resilient.health.expect("health present");
        let total = health.total();
        // Accounting identities: every attempt is either the first try of
        // a document or a retry; every document is delivered or dropped.
        assert_eq!(
            total.attempts,
            total.documents() + total.retries,
            "rate {rate}"
        );
        assert_eq!(
            total.documents(),
            total.delivered + total.dropped,
            "rate {rate}"
        );
        assert!(total.recovered <= total.delivered, "rate {rate}");
    }
}

// ---------------------------------------------------------------------------
// Regression: a report listing the same package twice used to panic the
// builder (`assert_ne!` on a self-consistent duplicate coexisting edge).
// ---------------------------------------------------------------------------

#[test]
fn duplicate_package_in_imported_report_does_not_panic_the_builder() {
    let manifest = r#"{
        "format_version": 1,
        "collect_time": 500000,
        "website_count": 1,
        "packages": [
            {"id": "npm/left-pad@1.0.0",
             "mentions": [["phylum", 400000]],
             "sha256": null,
             "recovered_from_mirror": false,
             "mirror_recoverable": false,
             "meta": null},
            {"id": "npm/right-pad@1.0.0",
             "mentions": [["socket", 400000]],
             "sha256": null,
             "recovered_from_mirror": false,
             "mirror_recoverable": false,
             "meta": null}
        ],
        "reports": [
            {"website": "blog.example.net",
             "category": "commercial",
             "published": 450000,
             "title": "left-pad typosquat wave",
             "packages": ["npm/left-pad@1.0.0",
                          "npm/left-pad@1.0.0",
                          "npm/right-pad@1.0.0"],
             "actor": null}
        ]
    }"#;
    let corpus = import_json(manifest).expect("manifest parses");
    let graph = build(&corpus, &BuildOptions::default());
    // The duplicated listing still yields exactly one coexisting pair.
    let coexisting = graph.groups(Relation::Coexisting);
    assert_eq!(coexisting.len(), 1);
    assert_eq!(coexisting[0].len(), 2);
}
