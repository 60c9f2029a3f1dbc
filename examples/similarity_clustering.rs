//! The similarity pipeline in isolation (paper §III-A): source code →
//! AST → embedding → K-Means → similar groups, demonstrated on a corpus
//! of known lineages so the grouping quality is visible.
//!
//! ```text
//! cargo run --example similarity_clustering --release
//! ```

use malgraph::cluster::metrics::adjusted_rand_index;
use malgraph::malgraph_core::similar_pairs;
use malgraph::minilang::gen::{generate, mutate, Behavior, Mutation};
use malgraph::minilang::printer::print_module;
use malgraph::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // Build 12 lineages: each starts from a fresh malicious module and
    // re-releases it with small mutations, exactly like a similar-attack
    // campaign.
    let mut rng = StdRng::seed_from_u64(42);
    let mut entries: Vec<(PackageId, String)> = Vec::new();
    let mut truth: Vec<usize> = Vec::new();
    for lineage in 0..12usize {
        let behavior = Behavior::ALL[lineage % Behavior::ALL.len()];
        let mut module = generate(behavior, &mut rng);
        let members = rng.gen_range(4..=9);
        for m in 0..members {
            if m > 0 && rng.gen_bool(0.5) {
                let mutation = Mutation::ALL[rng.gen_range(0..Mutation::ALL.len())];
                module = mutate(&module, mutation, &mut rng);
            }
            let id: PackageId = format!("pypi/lineage{lineage}-v{m}@1.0.0")
                .parse()
                .expect("valid id");
            entries.push((id, print_module(&module)));
            truth.push(lineage);
        }
    }
    println!("corpus: {} packages from 12 lineages", entries.len());

    let borrowed: Vec<(PackageId, &str)> = entries
        .iter()
        .map(|(i, s)| (i.clone(), s.as_str()))
        .collect();
    let config = SimilarityConfig::default();
    let out = similar_pairs(&borrowed, &config);
    println!(
        "pipeline: chose k = {} after trying {:?}",
        out.chosen_k,
        out.trace.iter().map(|(k, _)| *k).collect::<Vec<_>>()
    );

    // Components of the similar pairs = the SGs.
    let mut uf = malgraph::graphstore::unionfind::UnionFind::new(entries.len());
    for &(a, b) in &out.pairs {
        uf.union(a, b);
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in 0..entries.len() {
        groups.entry(uf.find(i)).or_default().push(i);
    }
    let labels: Vec<usize> = (0..entries.len()).map(|i| uf.find(i)).collect();
    println!(
        "groups recovered: {}",
        groups.values().filter(|g| g.len() > 1).count()
    );
    for (root, members) in groups.iter().filter(|(_, g)| g.len() > 1) {
        let lineages: std::collections::BTreeSet<usize> =
            members.iter().map(|&i| truth[i]).collect();
        println!(
            "  group@{root}: {} members from lineage(s) {:?}",
            members.len(),
            lineages
        );
    }

    let ari = adjusted_rand_index(&truth, &labels);
    println!("adjusted Rand index vs. ground truth: {ari:.3} (1.0 = perfect)");
}
