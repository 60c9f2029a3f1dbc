//! Golden identity of the similar-edge pipeline as `build` runs it.
//!
//! The digest below was recorded with the one-shot pipeline that
//! embedded and refined every package copy. It covers, for three small
//! worlds and two configurations (the dense-scalar kernel on one
//! thread, and the default kernel on three), every ecosystem's
//! similarity diagnostics: the chosen k, the schedule trace with each
//! inertia's f32 bits, and the similar pairs in emission order.
//!
//! Any change to how `build` embeds, clusters or refines must
//! reproduce it byte for byte.

use malgraph::cluster::Kernel;
use malgraph::crawler::collect;
use malgraph::malgraph_core::{build, BuildOptions, SimilarityConfig};
use malgraph::oss_types::Sha256;
use malgraph::registry_sim::{World, WorldConfig};
use std::fmt::Write;

const GOLDEN_SHA256: &str = "fff3f117d7937f53cc199d9d2e6bae84db6d212591d92ebdd8132ac6b6abcf85";

const SEEDS: [u64; 3] = [77, 78, 79];

#[test]
fn build_similarity_diagnostics_match_the_recorded_digest() {
    let configs = [
        SimilarityConfig {
            kernel: Kernel::DenseScalar,
            threads: 1,
            ..SimilarityConfig::default()
        },
        SimilarityConfig {
            threads: 3,
            ..SimilarityConfig::default()
        },
    ];
    let mut text = String::new();
    let mut pairs = 0usize;
    for seed in SEEDS {
        let dataset = collect(&World::generate(WorldConfig::small(seed)));
        for config in &configs {
            let options = BuildOptions {
                similarity: config.clone(),
            };
            let graph = build(&dataset, &options);
            for (eco, out) in &graph.similarity_diagnostics {
                let _ = writeln!(
                    text,
                    "seed={seed} kernel={:?} threads={} eco={} k={}",
                    config.kernel,
                    config.threads,
                    eco.display_name(),
                    out.chosen_k
                );
                for &(k, inertia) in &out.trace {
                    let _ = writeln!(text, "trace {k} {:#010x}", inertia.to_bits());
                }
                for &(a, b) in &out.pairs {
                    let _ = writeln!(text, "pair {a} {b}");
                }
                pairs += out.pairs.len();
            }
        }
    }
    assert!(pairs > 0, "the worlds must produce similar pairs");
    assert_eq!(
        Sha256::digest(text.as_bytes()).to_string(),
        GOLDEN_SHA256,
        "similarity diagnostics diverged ({pairs} pairs)"
    );
}
