//! Determinism and sensitivity: the entire study must be a pure function
//! of the seed, and genuinely different across seeds.

use malgraph::crawler::collect;
use malgraph::malgraph_core::{build, BuildOptions};
use malgraph::prelude::*;

#[test]
fn identical_seeds_produce_identical_studies() {
    let run = |seed: u64| {
        let world = World::generate(WorldConfig::small(seed));
        let corpus = collect(&world);
        let graph = build(&corpus, &BuildOptions::default());
        let ids: Vec<String> = corpus.packages.iter().map(|p| p.id.to_string()).collect();
        let sigs: Vec<Option<String>> = corpus
            .packages
            .iter()
            .map(|p| p.signature.map(|s| s.to_string()))
            .collect();
        let group_sizes: Vec<usize> = graph
            .groups(Relation::Similar)
            .iter()
            .map(Vec::len)
            .collect();
        (ids, sigs, graph.graph.edge_count(), group_sizes)
    };
    assert_eq!(run(7), run(7), "a seed must fully determine the study");
}

#[test]
fn different_seeds_produce_different_corpora() {
    let names = |seed: u64| {
        let world = World::generate(WorldConfig::small(seed));
        world
            .packages
            .iter()
            .map(|p| p.id.to_string())
            .collect::<std::collections::BTreeSet<_>>()
    };
    let a = names(1);
    let b = names(2);
    assert_ne!(a, b);
    // Not just a permutation: the intersection should be small (only the
    // fixed showcase names are shared).
    let shared = a.intersection(&b).count();
    assert!(shared < 20, "{shared} shared package ids across seeds");
}

#[test]
fn scale_changes_volume_not_structure() {
    let stats = |scale: f64| {
        let world = World::generate(
            WorldConfig {
                seed: 3,
                ..WorldConfig::default()
            }
            .with_scale(scale),
        );
        let corpus = collect(&world);
        let available = corpus.packages.iter().filter(|p| p.is_available()).count();
        (
            corpus.packages.len(),
            available as f64 / corpus.packages.len() as f64,
        )
    };
    let (n_small, avail_small) = stats(0.03);
    let (n_large, avail_large) = stats(0.10);
    assert!(n_large > n_small * 2, "{n_small} → {n_large}");
    assert!(
        (avail_small - avail_large).abs() < 0.30,
        "availability fraction is roughly scale-stable: {avail_small:.2} vs {avail_large:.2}"
    );
}
