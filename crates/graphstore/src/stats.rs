//! Graph statistics in the shape of the paper's Table II.

use crate::PropertyGraph;

/// Node/edge/degree summary for one relation subgraph (one row of the
/// paper's Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct RelationStats {
    /// Nodes incident to at least one edge of the relation.
    pub nodes: usize,
    /// Directed edges of the relation.
    pub edges: usize,
    /// Average out-degree over incident nodes.
    pub avg_out_degree: f64,
    /// Average in-degree over incident nodes.
    pub avg_in_degree: f64,
}

impl RelationStats {
    /// Computes stats for the subgraph of edges whose label passes
    /// `filter`. Degree averages are over *incident* nodes only, matching
    /// Table II (e.g. DG: 2,475 nodes, 316,122 edges, 127.72 average).
    pub fn compute<N, L: Copy + Eq>(
        graph: &PropertyGraph<N, L>,
        mut filter: impl FnMut(&L) -> bool,
    ) -> RelationStats {
        let mut nodes = 0usize;
        let mut edges = 0usize;
        for id in graph.node_ids() {
            let out = graph.out_degree_by(id, &mut filter);
            let inn = graph.in_degree_by(id, &mut filter);
            if out + inn > 0 {
                nodes += 1;
            }
            edges += out;
        }
        let avg = if nodes == 0 {
            0.0
        } else {
            edges as f64 / nodes as f64
        };
        RelationStats {
            nodes,
            edges,
            // Symmetric storage ⇒ identical averages; computed once.
            avg_out_degree: avg,
            avg_in_degree: avg,
        }
    }

    /// [`RelationStats::compute`] for every label at once, in a single
    /// traversal of the stored out-adjacency: each edge increments its
    /// label's edge counter and marks both endpoints incident. A served
    /// label needs no walk: it is symmetric, so a node is incident
    /// exactly when its served degree is positive, and its edges are the
    /// sum of those degrees.
    pub fn compute_many<N, L: Copy + Eq>(
        graph: &PropertyGraph<N, L>,
        labels: &[L],
    ) -> Vec<RelationStats> {
        let n = graph.node_count();
        let mut edges = vec![0usize; labels.len()];
        let mut touched = vec![vec![false; n]; labels.len()];
        let served = graph
            .served_label()
            .and_then(|s| Some((s, labels.iter().position(|l| *l == s)?)));
        for id in graph.node_ids() {
            for &(to, ref label) in graph.out_edges(id) {
                if let Some(slot) = labels.iter().position(|l| l == label) {
                    edges[slot] += 1;
                    touched[slot][id.index()] = true;
                    touched[slot][to.index()] = true;
                }
            }
            if let Some((label, slot)) = served {
                let degree = graph.served_degree(id, &mut |l| *l == label);
                edges[slot] += degree;
                touched[slot][id.index()] |= degree > 0;
            }
        }
        labels
            .iter()
            .enumerate()
            .map(|(slot, _)| {
                let nodes = touched[slot].iter().filter(|&&t| t).count();
                let avg = if nodes == 0 {
                    0.0
                } else {
                    edges[slot] as f64 / nodes as f64
                };
                RelationStats {
                    nodes,
                    edges: edges[slot],
                    avg_out_degree: avg,
                    avg_in_degree: avg,
                }
            })
            .collect()
    }
}

/// Size distribution helpers for component censuses (Table VII, Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupCensus {
    /// Number of groups (connected components).
    pub group_count: usize,
    /// Mean component size.
    pub avg_size: f64,
    /// Largest component size, 0 when empty.
    pub max_size: usize,
    /// Every component size, descending.
    pub sizes: Vec<usize>,
}

impl GroupCensus {
    /// Summarizes a component list.
    pub fn from_components<T>(components: &[Vec<T>]) -> GroupCensus {
        GroupCensus::from_sizes(components.iter().map(Vec::len))
    }

    /// Summarizes a component-size sequence directly — what cached
    /// component indexes feed, where materializing the member lists again
    /// would be pure copying.
    pub fn from_sizes(sizes: impl IntoIterator<Item = usize>) -> GroupCensus {
        let mut sizes: Vec<usize> = sizes.into_iter().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let group_count = sizes.len();
        let total: usize = sizes.iter().sum();
        GroupCensus {
            group_count,
            avg_size: if group_count == 0 {
                0.0
            } else {
                total as f64 / group_count as f64
            },
            max_size: sizes.first().copied().unwrap_or(0),
            sizes,
        }
    }

    /// Empirical CDF of group sizes as `(size, fraction ≤ size)` points,
    /// the series behind Fig. 4 and Fig. 9.
    pub fn size_cdf(&self) -> Vec<(usize, f64)> {
        if self.sizes.is_empty() {
            return Vec::new();
        }
        let mut ascending = self.sizes.clone();
        ascending.sort_unstable();
        let n = ascending.len() as f64;
        let mut out: Vec<(usize, f64)> = Vec::new();
        for (i, &s) in ascending.iter().enumerate() {
            let frac = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == s => last.1 = frac,
                _ => out.push((s, frac)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PropertyGraph;

    #[test]
    fn relation_stats_count_incident_nodes_only() {
        let mut g: PropertyGraph<(), u8> = PropertyGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let _lonely = g.add_node(());
        g.add_undirected_edge(a, b, 1);
        let stats = RelationStats::compute(&g, |&l| l == 1);
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.edges, 2);
        assert!((stats.avg_out_degree - 1.0).abs() < 1e-9);
        assert_eq!(stats.avg_out_degree, stats.avg_in_degree);
    }

    #[test]
    fn compute_many_matches_per_label_compute() {
        let mut g: PropertyGraph<(), u8> = PropertyGraph::new();
        let ids: Vec<_> = (0..6).map(|_| g.add_node(())).collect();
        g.add_undirected_edge(ids[0], ids[1], 1);
        g.add_undirected_edge(ids[1], ids[2], 1);
        g.add_edge(ids[3], ids[4], 2);
        g.add_undirected_edge(ids[4], ids[5], 3);
        let labels = [1u8, 2, 3, 4];
        let many = RelationStats::compute_many(&g, &labels);
        for (slot, &label) in labels.iter().enumerate() {
            assert_eq!(
                many[slot],
                RelationStats::compute(&g, |&l| l == label),
                "label {label}"
            );
        }
    }

    #[test]
    fn empty_relation_has_zero_stats() {
        let g: PropertyGraph<(), u8> = PropertyGraph::new();
        let stats = RelationStats::compute(&g, |_| true);
        assert_eq!(stats.nodes, 0);
        assert_eq!(stats.edges, 0);
        assert_eq!(stats.avg_out_degree, 0.0);
    }

    #[test]
    fn clique_degree_matches_table2_shape() {
        // A clique of n nodes has n(n-1) directed edges and average
        // degree n-1 — exactly how Table II's DG numbers arise.
        let mut g: PropertyGraph<(), u8> = PropertyGraph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                g.add_undirected_edge(ids[i], ids[j], 1);
            }
        }
        let stats = RelationStats::compute(&g, |&l| l == 1);
        assert_eq!(stats.nodes, 5);
        assert_eq!(stats.edges, 20);
        assert!((stats.avg_out_degree - 4.0).abs() < 1e-9);
    }

    #[test]
    fn census_summary() {
        let comps = vec![vec![1, 2, 3], vec![4, 5], vec![6]];
        let census = GroupCensus::from_components(&comps);
        assert_eq!(census.group_count, 3);
        assert_eq!(census.max_size, 3);
        assert!((census.avg_size - 2.0).abs() < 1e-9);
        assert_eq!(census.sizes, vec![3, 2, 1]);
    }

    #[test]
    fn empty_census() {
        let census = GroupCensus::from_components::<u8>(&[]);
        assert_eq!(census.group_count, 0);
        assert_eq!(census.avg_size, 0.0);
        assert_eq!(census.max_size, 0);
        assert!(census.size_cdf().is_empty());
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let comps = vec![vec![0; 1], vec![0; 1], vec![0; 3], vec![0; 10]];
        let census = GroupCensus::from_components(&comps);
        let cdf = census.size_cdf();
        assert_eq!(cdf.first().unwrap().0, 1);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        for pair in cdf.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
        // 2 of 4 groups have size 1 → CDF(1) = 0.5.
        assert!((cdf[0].1 - 0.5).abs() < 1e-9);
    }
}
