//! Property-based tests: the union-find component extraction must agree
//! with a BFS reference implementation on arbitrary graphs, and degree
//! accounting must balance.

use graphstore::{NodeId, PropertyGraph};
use proptest::prelude::*;

fn build_graph(nodes: usize, edges: &[(usize, usize, u8)]) -> PropertyGraph<usize, u8> {
    let mut g = PropertyGraph::new();
    let ids: Vec<NodeId> = (0..nodes).map(|i| g.add_node(i)).collect();
    for &(a, b, label) in edges {
        let (a, b) = (ids[a % nodes], ids[b % nodes]);
        if a != b {
            g.add_undirected_edge(a, b, label % 3);
        }
    }
    g
}

/// BFS reference: components over edges whose label passes `filter`,
/// restricted to incident nodes.
fn bfs_components(g: &PropertyGraph<usize, u8>, label: u8) -> Vec<Vec<NodeId>> {
    let incident: std::collections::BTreeSet<NodeId> = g
        .node_ids()
        .filter(|&n| g.out_degree_by(n, |l| *l == label) + g.in_degree_by(n, |l| *l == label) > 0)
        .collect();
    let mut seen: std::collections::BTreeSet<NodeId> = Default::default();
    let mut out = Vec::new();
    for &start in &incident {
        if seen.contains(&start) {
            continue;
        }
        let comp = g.reachable(start, |l| *l == label);
        for &n in &comp {
            seen.insert(n);
        }
        out.push(comp);
    }
    out.sort_by_key(|c| c[0]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn unionfind_components_match_bfs_reference(
        nodes in 1usize..30,
        edges in proptest::collection::vec((0usize..30, 0usize..30, 0u8..3), 0..60),
    ) {
        let g = build_graph(nodes, &edges);
        for label in 0u8..3 {
            let mut uf = g.components(|l| *l == label);
            let mut bfs = bfs_components(&g, label);
            for c in uf.iter_mut().chain(bfs.iter_mut()) {
                c.sort_unstable();
            }
            uf.sort_by_key(|c| c[0]);
            bfs.sort_by_key(|c| c[0]);
            prop_assert_eq!(uf, bfs, "label {} mismatch", label);
        }
    }

    #[test]
    fn degree_sums_balance_edge_counts(
        nodes in 1usize..30,
        edges in proptest::collection::vec((0usize..30, 0usize..30, 0u8..3), 0..60),
    ) {
        let g = build_graph(nodes, &edges);
        for label in 0u8..3 {
            let out_sum: usize = g.node_ids().map(|n| g.out_degree_by(n, |l| *l == label)).sum();
            let in_sum: usize = g.node_ids().map(|n| g.in_degree_by(n, |l| *l == label)).sum();
            let edge_count = g.edge_count_by(|l| *l == label);
            prop_assert_eq!(out_sum, edge_count);
            prop_assert_eq!(in_sum, edge_count);
            // Undirected storage ⇒ even counts.
            prop_assert_eq!(edge_count % 2, 0);
        }
    }

    #[test]
    fn components_partition_incident_nodes(
        nodes in 1usize..30,
        edges in proptest::collection::vec((0usize..30, 0usize..30, 0u8..3), 0..60),
    ) {
        let g = build_graph(nodes, &edges);
        let comps = g.components(|_| true);
        let mut seen = std::collections::BTreeSet::new();
        for comp in &comps {
            prop_assert!(comp.len() >= 2, "singletons are excluded by definition");
            for &n in comp {
                prop_assert!(seen.insert(n), "node {} in two components", n);
            }
        }
    }
}
