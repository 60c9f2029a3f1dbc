//! End-to-end integration: world → collection → MALGRAPH → analyses,
//! asserting the paper's headline findings hold on the calibrated corpus.

use malgraph::malgraph_core::analysis::{campaign, diversity, evolution, overlap, quality};
use malgraph::prelude::*;

fn setup() -> (World, CollectedDataset, MalGraph) {
    let world = World::generate(WorldConfig::small(12345));
    let corpus = collect(&world);
    let graph = build(&corpus, &BuildOptions::default());
    (world, corpus, graph)
}

use malgraph::crawler::collect;
use malgraph::crawler::CollectedDataset;
use malgraph::malgraph_core::{build, BuildOptions, MalGraph};

#[test]
fn mentions_survive_the_whole_pipeline() {
    let (world, corpus, graph) = setup();
    let collected: usize = corpus.packages.iter().map(|p| p.mentions.len()).sum();
    assert_eq!(
        collected,
        world.mentions.len(),
        "no mention lost or invented"
    );
    assert_eq!(graph.graph.node_count(), world.mentions.len());
    assert_eq!(graph.package_count(), corpus.packages.len());
}

#[test]
fn finding1_overlap_is_low_and_academia_skewed() {
    let (_, corpus, _) = setup();
    let matrix = overlap::overlap_matrix(&corpus);
    use malgraph::oss_types::SourceCategory::{Academia, Industry};
    let aa = overlap::category_mean_overlap(&matrix, Academia, Academia);
    let ii = overlap::category_mean_overlap(&matrix, Industry, Industry);
    assert!(
        aa > ii,
        "academia redundancy {aa:.1} must exceed industry {ii:.1}"
    );
    // Fig. 4: single-source packages dominate.
    let cdf = overlap::dg_size_cdf(&corpus, Ecosystem::PyPI);
    assert!(cdf[0].0 == 1 && cdf[0].1 > 0.6);
}

#[test]
fn finding2_missing_rate_is_severe() {
    let (_, corpus, _) = setup();
    let (rows, overall) = quality::missing_rates(&corpus);
    assert!(
        (40.0..80.0).contains(&overall),
        "overall MR should sit near the paper's 64%, got {overall:.1}%"
    );
    // Dumps are complete; report-only sources hurt.
    for row in &rows {
        match row.source {
            SourceId::Maloss | SourceId::MalPyPI | SourceId::DataDog => {
                assert_eq!(row.single_mr_pct, 0.0)
            }
            SourceId::Socket => assert!(row.single_mr_pct > 70.0, "{:.1}", row.single_mr_pct),
            _ => {}
        }
    }
}

#[test]
fn finding3_diversity_is_limited_and_pypi_floods() {
    let (_, _, graph) = setup();
    let rows = diversity::table7(&graph);
    let npm = rows.iter().find(|r| r.ecosystem == Ecosystem::Npm).unwrap();
    let pypi = rows
        .iter()
        .find(|r| r.ecosystem == Ecosystem::PyPI)
        .unwrap();
    assert!(npm.sg.groups >= 1 && pypi.sg.groups >= 1);
    // Table VII shape: PyPI groups much larger on average (the flood);
    // NPM has more DeG campaigns than anyone.
    assert!(pypi.sg.avg_size > npm.sg.avg_size);
    for row in &rows {
        if row.deg.groups > 0 {
            assert!(row.deg.avg_size < 4.0, "DeG stays tiny");
        }
    }
}

#[test]
fn finding3_lifecycle_and_active_periods() {
    let (_, corpus, graph) = setup();
    let stats = campaign::lifecycle_stats(&corpus);
    assert!(stats.removed_within_day > 0.2, "removal is fast");
    let sg = campaign::active_periods(&graph, &corpus, Relation::Similar);
    let deg = campaign::active_periods(&graph, &corpus, Relation::Dependency);
    assert!(!sg.is_empty() && !deg.is_empty());
    let mean = |v: &[SimDuration]| v.iter().map(|d| d.as_days_f64()).sum::<f64>() / v.len() as f64;
    assert!(
        mean(&deg) > mean(&sg) * 3.0,
        "DeG ({:.0}d) must far outlast SG ({:.0}d)",
        mean(&deg),
        mean(&sg)
    );
}

#[test]
fn finding4_cn_dominates_and_trojans_top_idn() {
    let (world, corpus, graph) = setup();
    let sequences = evolution::release_sequences(&graph, &corpus);
    let dist = evolution::op_distribution(&sequences);
    assert!(dist.attempts > 20);
    assert!(dist.pct_of(ChangeOp::ChangeName) > 85.0);
    assert!(dist.pct_of(ChangeOp::ChangeVersion) < 15.0);
    assert!(dist.pct_of(ChangeOp::ChangeDependency) < 30.0);

    let idn = evolution::idn_ranking(&corpus, &world, 10);
    assert!(!idn.is_empty());
    assert!(
        idn[0].idn > 10_000,
        "trojan outliers dominate IDN: {}",
        idn[0].idn
    );
    assert!(idn[0].ops.contains(ChangeOp::ChangeVersion));
}

#[test]
fn coexisting_groups_recover_reported_campaigns() {
    let (world, _, graph) = setup();
    let cg = graph.groups(Relation::Coexisting);
    assert!(!cg.is_empty());
    // Every CG group should be dominated by one ground-truth campaign
    // cluster (reports chain packages of the same campaign group).
    let mut dominated = 0usize;
    for group in cg {
        let mut counts: std::collections::HashMap<u32, usize> = Default::default();
        for &node in group {
            let id = &graph.graph.node(node).package;
            if let Some(c) = world
                .packages
                .iter()
                .find(|p| &p.id == id)
                .and_then(|p| p.campaign)
            {
                *counts.entry(c.0).or_default() += 1;
            }
        }
        if let Some(&max) = counts.values().max() {
            if max * 2 >= group.len() {
                dominated += 1;
            }
        }
    }
    assert!(
        dominated * 10 >= cg.len() * 7,
        "{dominated}/{} CGs dominated by one campaign",
        cg.len()
    );
}

#[test]
fn graph_relations_are_disjoint_populations_where_expected() {
    let (_, corpus, graph) = setup();
    // Similar edges exist only between available packages; duplicated
    // edges only within one package's mention set.
    for edge in graph.graph.edges() {
        match edge.label {
            Relation::Similar => {
                let a = graph.graph.node(edge.from);
                assert!(corpus.get(&a.package).unwrap().is_available());
            }
            Relation::Duplicated => {
                assert_eq!(
                    graph.graph.node(edge.from).package,
                    graph.graph.node(edge.to).package
                );
            }
            _ => {}
        }
    }
}
