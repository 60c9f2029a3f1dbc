//! RQ2 — Malicious-package diversity: group censuses per ecosystem
//! (paper Table VII) and the relation statistics of Table II.

use crate::build::MalGraph;
use crate::node::Relation;
use graphstore::stats::GroupCensus;
use oss_types::Ecosystem;

/// Table VII cell: group count and average size for one relation in one
/// ecosystem.
#[derive(Debug, Clone, PartialEq)]
pub struct DiversityCell {
    /// Number of groups.
    pub groups: usize,
    /// Mean group size in *packages*.
    pub avg_size: f64,
}

/// One ecosystem row of Table VII.
#[derive(Debug, Clone, PartialEq)]
pub struct DiversityRow {
    /// The ecosystem.
    pub ecosystem: Ecosystem,
    /// Similarity groups.
    pub sg: DiversityCell,
    /// Dependency groups.
    pub deg: DiversityCell,
    /// Co-existing groups.
    pub cg: DiversityCell,
}

/// Computes Table VII for the three major ecosystems.
///
/// Group sizes are measured in distinct packages; a component is
/// attributed to the ecosystem of its first node (groups never span
/// ecosystems — all four relations are intra-ecosystem by construction,
/// except co-existing, where a cross-ecosystem report attributes the
/// group to its first package's ecosystem).
pub fn table7(graph: &MalGraph) -> Vec<DiversityRow> {
    Ecosystem::MAJOR
        .iter()
        .map(|&eco| DiversityRow {
            ecosystem: eco,
            sg: census_for(graph, Relation::Similar, eco),
            deg: census_for(graph, Relation::Dependency, eco),
            cg: census_for(graph, Relation::Coexisting, eco),
        })
        .collect()
}

fn census_for(graph: &MalGraph, relation: Relation, eco: Ecosystem) -> DiversityCell {
    // Cached components; only the sizes of the ecosystem's groups feed
    // the census, so nothing is copied.
    let census = GroupCensus::from_sizes(
        graph
            .groups(relation)
            .iter()
            .filter(|c| graph.graph.node(c[0]).ecosystem() == eco)
            .map(Vec::len),
    );
    DiversityCell {
        groups: census.group_count,
        avg_size: census.avg_size,
    }
}

/// A Table II row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Relation (DG/DeG/SG/CG).
    pub relation: Relation,
    /// Incident nodes.
    pub nodes: usize,
    /// Directed edges.
    pub edges: usize,
    /// Average out-degree over incident nodes.
    pub avg_out_degree: f64,
    /// Average in-degree over incident nodes.
    pub avg_in_degree: f64,
}

/// Computes Table II (node/edge/degree summary per relation graph) from
/// the cached per-relation indexes.
pub fn table2(graph: &MalGraph) -> Vec<Table2Row> {
    Relation::ALL
        .into_iter()
        .map(|relation| row_from_stats(relation, graph.relation_stats(relation)))
        .collect()
}

fn row_from_stats(relation: Relation, stats: graphstore::stats::RelationStats) -> Table2Row {
    Table2Row {
        relation,
        nodes: stats.nodes,
        edges: stats.edges,
        avg_out_degree: stats.avg_out_degree,
        avg_in_degree: stats.avg_in_degree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, BuildOptions};
    use crawler::collect;
    use registry_sim::{World, WorldConfig};

    fn graph() -> MalGraph {
        let world = World::generate(WorldConfig::small(61));
        build(&collect(&world), &BuildOptions::default())
    }

    /// [`table7`] recomputed from the raw adjacency: the oracle the
    /// cached component index is asserted against.
    fn table7_reference(graph: &MalGraph) -> Vec<DiversityRow> {
        let census_fresh = |relation: Relation, eco: Ecosystem| {
            let comps: Vec<Vec<graphstore::NodeId>> = graph
                .graph
                .components(|l| *l == relation)
                .into_iter()
                .filter(|c| graph.graph.node(c[0]).ecosystem() == eco)
                .collect();
            let census = GroupCensus::from_components(&comps);
            DiversityCell {
                groups: census.group_count,
                avg_size: census.avg_size,
            }
        };
        Ecosystem::MAJOR
            .iter()
            .map(|&eco| DiversityRow {
                ecosystem: eco,
                sg: census_fresh(Relation::Similar, eco),
                deg: census_fresh(Relation::Dependency, eco),
                cg: census_fresh(Relation::Coexisting, eco),
            })
            .collect()
    }

    /// [`table2`] recomputed with degree scans over the raw adjacency:
    /// the oracle the cached stats table is asserted against.
    fn table2_reference(graph: &MalGraph) -> Vec<Table2Row> {
        Relation::ALL
            .into_iter()
            .map(|relation| {
                row_from_stats(
                    relation,
                    graphstore::stats::RelationStats::compute(&graph.graph, |l| *l == relation),
                )
            })
            .collect()
    }

    #[test]
    fn table7_orders_ecosystems_like_the_paper() {
        let rows = table7(&graph());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].ecosystem, Ecosystem::Npm);
        assert_eq!(rows[1].ecosystem, Ecosystem::PyPI);
        assert_eq!(rows[2].ecosystem, Ecosystem::RubyGems);
    }

    #[test]
    fn pypi_sg_groups_are_larger_than_npm_on_average() {
        // Paper Table VII: PyPI SG mean 137 vs NPM 17.8 — the flood
        // campaign lives in PyPI.
        let rows = table7(&graph());
        let npm = &rows[0];
        let pypi = &rows[1];
        assert!(pypi.sg.groups > 0 && npm.sg.groups > 0);
        assert!(
            pypi.sg.avg_size > npm.sg.avg_size,
            "PyPI mean {} vs NPM {}",
            pypi.sg.avg_size,
            npm.sg.avg_size
        );
    }

    #[test]
    fn deg_groups_are_tiny_and_rare() {
        let rows = table7(&graph());
        for row in &rows {
            if row.deg.groups > 0 {
                assert!(
                    row.deg.avg_size <= 4.0,
                    "{}: DeG mean should be ≈2, got {}",
                    row.ecosystem,
                    row.deg.avg_size
                );
                assert!(row.deg.groups <= row.sg.groups.max(1) * 2);
            }
        }
        // NPM carries most DeGs (11 vs 1 vs 0 in the paper).
        assert!(rows[0].deg.groups >= rows[2].deg.groups);
    }

    #[test]
    fn cached_tables_match_reference_recomputation() {
        let graph = graph();
        assert_eq!(table7(&graph), table7_reference(&graph));
        assert_eq!(table2(&graph), table2_reference(&graph));
    }

    #[test]
    fn table2_has_all_four_relations_and_sane_degrees() {
        let rows = table2(&graph());
        assert_eq!(rows.len(), 4);
        for row in &rows {
            if row.nodes > 0 {
                let implied = row.edges as f64 / row.nodes as f64;
                assert!((implied - row.avg_out_degree).abs() < 1e-9);
            }
        }
        let sg = rows
            .iter()
            .find(|r| r.relation == Relation::Similar)
            .unwrap();
        let dg = rows
            .iter()
            .find(|r| r.relation == Relation::Duplicated)
            .unwrap();
        assert!(sg.nodes > 0, "similar graph must be populated");
        assert!(dg.nodes > 0, "duplicated graph must be populated");
        // Paper Table II shape: SG is by far the densest relation.
        assert!(sg.avg_out_degree > dg.avg_out_degree);
    }
}
