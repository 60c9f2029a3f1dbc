//! Dependency attacks (paper Fig. 7): a benign-looking front package
//! declares a malicious library as its dependency; installing the front
//! pulls the payload. This example finds every DeG group in the corpus
//! and walks through the attack chain.
//!
//! ```text
//! cargo run --example dependency_attack --release
//! ```

use malgraph::prelude::*;

fn main() {
    let world = World::generate(WorldConfig::small(777));
    let corpus = collect(&world);
    let graph = build(&corpus, &BuildOptions::default());

    let groups = graph.groups(Relation::Dependency);
    println!("dependency (DeG) groups found: {}", groups.len());

    for (i, group) in groups.iter().enumerate() {
        println!("\n== DeG group {i} ({} packages)", group.len());
        for &node_id in group {
            let node = graph.graph.node(node_id);
            let deps: Vec<String> = graph
                .graph
                .out_edges(node_id)
                .iter()
                .filter(|(_, l)| *l == Relation::Dependency)
                .map(|(t, _)| graph.graph.node(*t).package.to_string())
                .collect();
            if deps.is_empty() {
                println!("  library  {}  (the hidden payload)", node.package);
            } else {
                println!(
                    "  front    {}  → depends on {}",
                    node.package,
                    deps.join(", ")
                );
            }
        }
        // The paper's key observation: the front looks benign, so only
        // the library's code carries an install-time hook.
        for &node_id in group {
            let node = graph.graph.node(node_id);
            if let Some(pkg) = corpus.get(&node.package) {
                if let Some(archive) = &pkg.archive {
                    let hook = archive.code.contains("try:");
                    println!(
                        "  code of {}: {} lines, install hook: {}",
                        node.package,
                        archive.code.lines().count(),
                        if hook { "YES" } else { "no" }
                    );
                }
            }
        }
    }

    // DeG campaigns have the longest active periods (Fig. 9).
    let deg = malgraph::malgraph_core::analysis::campaign::active_periods(
        &graph,
        &corpus,
        Relation::Dependency,
    );
    let sg = malgraph::malgraph_core::analysis::campaign::active_periods(
        &graph,
        &corpus,
        Relation::Similar,
    );
    let mean_days =
        |v: &[SimDuration]| v.iter().map(|d| d.as_days_f64()).sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nmean active period: DeG {:.0} days vs SG {:.0} days (paper: DeG is longest)",
        mean_days(&deg),
        mean_days(&sg)
    );
}
