//! Golden identity of the collected corpus, `crawler::collect`.
//!
//! The digest was recorded with the multi-pass page parser (every page
//! tokenized once per query) and the scan-based metadata lookup. The
//! corpus is the sole input of the graph builder, so any change to the
//! collector must reproduce it byte for byte.
//!
//! The digest covers the `ExportFidelity::Full` export of five corpora,
//! each fed as its length (`u64`, little-endian) and then its bytes:
//!
//! * `collect` on `WorldConfig::small(77)` and `WorldConfig::small(78)`;
//! * `collect_with` on `small(77)` and `small(78)` at a mixed fault rate
//!   of 0.3 on one thread, which pins the dropped documents and the
//!   health block;
//! * the same faulty collection of `small(77)` on two threads.

use malgraph::crawler::{collect, collect_with, export_json, CollectOptions, ExportFidelity};
use malgraph::oss_types::hash::Sha256Hasher;
use malgraph::prelude::*;

const CORPUS_SHA256: &str = "ac92dcf259287b5392dc09da840a8899a1ebc119900ad07cf529662d8487a474";

const WORLD_SEEDS: [u64; 2] = [77, 78];

fn faulty(threads: usize) -> CollectOptions {
    CollectOptions {
        faults: FaultConfig::mixed(0.3),
        threads,
        ..CollectOptions::default()
    }
}

#[test]
fn collected_corpora_match_the_recorded_digest() {
    let mut hasher = Sha256Hasher::new();
    let mut add = |corpus: &CollectedDataset| {
        let text = export_json(corpus, ExportFidelity::Full).expect("corpus exports");
        hasher.update(&(text.len() as u64).to_le_bytes());
        hasher.update(text.as_bytes());
    };

    let worlds: Vec<World> = WORLD_SEEDS
        .iter()
        .map(|&seed| World::generate(WorldConfig::small(seed)))
        .collect();
    for world in &worlds {
        add(&collect(world));
    }
    for world in &worlds {
        let corpus = collect_with(world, &faulty(1));
        let health = corpus.health.as_ref().expect("collect_with reports health");
        assert!(health.total().dropped > 0, "the fault rate drops documents");
        add(&corpus);
    }
    add(&collect_with(&worlds[0], &faulty(2)));

    assert_eq!(hasher.finalize().to_string(), CORPUS_SHA256);
}
