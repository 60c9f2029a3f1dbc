//! Golden identity of the graph `build` constructs.
//!
//! Both digests cover the same builds: three small worlds and two
//! configurations (the dense-scalar kernel on one thread, and the
//! default kernel on three).
//!
//! * The diagnostics digest was recorded with the one-shot pipeline
//!   that embedded and refined every package copy. It covers every
//!   ecosystem's similarity diagnostics: the chosen k, the schedule
//!   trace with each inertia's f32 bits, and the similar pairs in
//!   emission order.
//! * The graph digest was recorded while `build` still wrote its five
//!   stages out on its own, before it shared one construction sequence
//!   with `apply_delta` and checkpoint `restore`. It covers the node
//!   table (`Debug` of every node, in id order) and every edge as
//!   `(from, to, relation)` in adjacency order.
//!
//! Any change to how `build` emits nodes and edges, or embeds, clusters
//! and refines, must reproduce both byte for byte.

use malgraph::cluster::Kernel;
use malgraph::crawler::collect;
use malgraph::malgraph_core::{build, BuildOptions, SimilarityConfig};
use malgraph::oss_types::Sha256;
use malgraph::registry_sim::{World, WorldConfig};
use std::fmt::Write;
use std::sync::OnceLock;

const GOLDEN_SHA256: &str = "fff3f117d7937f53cc199d9d2e6bae84db6d212591d92ebdd8132ac6b6abcf85";

const GRAPH_SHA256: &str = "7cc66ae16cc586691c162ce1ce260abbb4190d7df73e2e01f20ee000a0162125";

const SEEDS: [u64; 3] = [77, 78, 79];

/// The texts both digests hash, built once for both tests.
struct Golden {
    diagnostics: String,
    graph: String,
    pairs: usize,
    edges: usize,
}

fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
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
        let mut g = Golden {
            diagnostics: String::new(),
            graph: String::new(),
            pairs: 0,
            edges: 0,
        };
        for seed in SEEDS {
            let dataset = collect(&World::generate(WorldConfig::small(seed)));
            for config in &configs {
                let options = BuildOptions {
                    similarity: config.clone(),
                };
                let graph = build(&dataset, &options);
                let header = format!(
                    "seed={seed} kernel={:?} threads={}",
                    config.kernel, config.threads
                );
                for (eco, out) in &graph.similarity_diagnostics {
                    let _ = writeln!(
                        g.diagnostics,
                        "{header} eco={} k={}",
                        eco.display_name(),
                        out.chosen_k
                    );
                    for &(k, inertia) in &out.trace {
                        let _ = writeln!(g.diagnostics, "trace {k} {:#010x}", inertia.to_bits());
                    }
                    for &(a, b) in &out.pairs {
                        let _ = writeln!(g.diagnostics, "pair {a} {b}");
                    }
                    g.pairs += out.pairs.len();
                }
                let _ = writeln!(g.graph, "{header}");
                for (id, node) in graph.graph.nodes() {
                    let _ = writeln!(g.graph, "node {} {node:?}", id.index());
                }
                for edge in graph.graph.edges() {
                    let _ = writeln!(
                        g.graph,
                        "edge {} {} {:?}",
                        edge.from.index(),
                        edge.to.index(),
                        edge.label
                    );
                    g.edges += 1;
                }
            }
        }
        g
    })
}

#[test]
fn build_similarity_diagnostics_match_the_recorded_digest() {
    let g = golden();
    assert!(g.pairs > 0, "the worlds must produce similar pairs");
    assert_eq!(
        Sha256::digest(g.diagnostics.as_bytes()).to_string(),
        GOLDEN_SHA256,
        "similarity diagnostics diverged ({} pairs)",
        g.pairs
    );
}

#[test]
fn build_node_table_and_edge_list_match_the_recorded_digest() {
    let g = golden();
    assert!(g.edges > 0, "the worlds must produce edges");
    assert_eq!(
        Sha256::digest(g.graph.as_bytes()).to_string(),
        GRAPH_SHA256,
        "node table or edge list diverged ({} edges)",
        g.edges
    );
}
