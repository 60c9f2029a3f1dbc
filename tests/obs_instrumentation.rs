//! The observability contract: enabling `obs` — now including self-time
//! attribution and allocation accounting through the counting global
//! allocator — must not change a single byte of pipeline output, at any
//! thread count.
//!
//! One test function on purpose — the `obs` registry is process-global,
//! so enable/disable transitions are sequenced in a single place instead
//! of racing across the harness's test threads.

use malgraph::crawler::{collect_with, export_json, CollectOptions, ExportFidelity};
use malgraph::obs;
use malgraph::prelude::*;
use std::fmt::Write as _;

// Same allocator setup as the malgraph CLI: the instrumented arm runs
// with allocation tracking live.
#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

/// A canonical rendering of the whole graph: every node in insertion
/// order with its ordered out-edge list, served similar edges included
/// (`edges()` walks node by node). Bitwise equality of signatures is
/// bitwise equality of graphs.
fn graph_signature(graph: &MalGraph) -> String {
    let mut out = String::new();
    let mut edges = graph.graph.edges().peekable();
    for (id, node) in graph.graph.nodes() {
        let _ = write!(out, "{} {}", id.index(), node.package);
        while let Some(edge) = edges.next_if(|e| e.from == id) {
            let _ = write!(out, " ->{}:{:?}", edge.to.index(), edge.label);
        }
        out.push('\n');
    }
    out
}

fn run_pipeline(world: &World, threads: usize) -> (String, String) {
    let opts = CollectOptions {
        threads,
        ..CollectOptions::default()
    };
    let corpus = collect_with(world, &opts);
    let json = export_json(&corpus, ExportFidelity::Full).expect("export");
    let graph = build(&corpus, &BuildOptions::default());
    (json, graph_signature(&graph))
}

#[test]
fn instrumented_runs_are_bitwise_identical_to_uninstrumented() {
    let world = World::generate(WorldConfig::small(11));
    let mut reference: Option<(String, String)> = None;

    for threads in [1usize, 7] {
        obs::disable();
        let (json_off, graph_off) = run_pipeline(&world, threads);

        obs::enable();
        obs::alloc::enable_tracking();
        obs::reset();
        let (json_on, graph_on) = run_pipeline(&world, threads);
        let snapshot = obs::snapshot();
        obs::alloc::disable_tracking();
        obs::disable();

        assert_eq!(
            json_off, json_on,
            "corpus JSON changed under instrumentation (threads={threads})"
        );
        assert_eq!(
            graph_off, graph_on,
            "graph changed under instrumentation (threads={threads})"
        );

        // The instrumented run actually recorded the pipeline.
        assert!(
            snapshot
                .counters
                .iter()
                .any(|(n, v)| n == "crawler.attempts" && *v > 0),
            "no crawler.attempts counter in snapshot"
        );
        assert!(
            snapshot
                .counters
                .iter()
                .any(|(n, v)| n == "build.edges_added{relation=similar}" && *v > 0),
            "no similar-edge counter in snapshot"
        );
        assert!(
            snapshot
                .spans
                .iter()
                .any(|s| s.name == "collect" && s.total_us > 0),
            "no collect span in snapshot"
        );
        assert!(
            snapshot
                .spans
                .iter()
                .any(|s| s.name.starts_with("build/similar/ecosystem=")),
            "no per-ecosystem similarity span in snapshot"
        );
        // The profiling layer was live: self time is attributed, the
        // folded profile nests the per-ecosystem spans under the stage
        // span (also across the worker threads), and allocations are
        // charged through the counting allocator.
        assert!(
            snapshot
                .spans
                .iter()
                .any(|s| s.self_us > 0 && s.self_us <= s.total_us),
            "no self-time attribution in snapshot"
        );
        assert!(
            snapshot.folded.iter().any(|f| f
                .stack
                .starts_with("build;build/similar;build/similar/ecosystem=")),
            "worker-thread spans must fold under their spawning stage"
        );
        assert!(
            snapshot
                .spans
                .iter()
                .any(|s| s.alloc_bytes > 0 && s.allocs > 0),
            "no allocation accounting in snapshot"
        );

        // Identical output across thread counts, instrumented or not.
        match &reference {
            None => reference = Some((json_on, graph_on)),
            Some((ref_json, ref_graph)) => {
                assert_eq!(ref_json, &json_on, "corpus JSON varies with thread count");
                assert_eq!(ref_graph, &graph_on, "graph varies with thread count");
            }
        }
    }
}
