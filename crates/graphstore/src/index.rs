//! Cached per-label query structures: components + CSR adjacency.
//!
//! [`PropertyGraph::components`] re-walks every `Vec<(NodeId, L)>`
//! adjacency list and re-runs the union-find on each call. The analysis
//! layer asks the same label-restricted questions over and over (every
//! paper table/figure is a census over one relation's components), so
//! this module computes the answer once and snapshots it:
//!
//! * [`ComponentIndex`] — the connected components, in exactly the order
//!   [`PropertyGraph::components`] returns them (the index replays the
//!   same union sequence and the same root-keyed collection, so cached
//!   and fresh results are byte-identical), plus a node → component map
//!   for O(1) membership queries and the Table-II node/edge counts.
//!   [`ComponentIndex::build_many`] amortises one edge walk over every
//!   label of interest. A served relation's edges are replayed from its
//!   neighbour function, in the same place and order as stored ones.
//! * [`AdjacencyIndex`] — a CSR (compressed sparse row) snapshot of one
//!   label's out-adjacency, for traversal queries. Kept separate from
//!   [`ComponentIndex`] deliberately: a dense label's CSR would copy
//!   every one of its edges, while the traversal queries only ever run
//!   over sparse labels.
//!
//! Both indexes are snapshots: they do **not** observe later mutations
//! of the graph on their own. A cache owner has two choices after the
//! graph changes: drop the index and rebuild on next use, or — when the
//! change is strictly *append-only for the indexed label* (new nodes
//! whose label edges stay among themselves, as with the duplicate
//! cliques of the incremental ingestion path) — carry the snapshot
//! forward with [`ComponentIndex::extend`] / [`AdjacencyIndex::extend`],
//! which replay only the appended suffix and are byte-identical to a
//! fresh build by construction.

use crate::stats::RelationStats;
use crate::{unionfind, NodeId, PropertyGraph};

/// Marker for "not in any component of this label".
const NO_GROUP: u32 = u32::MAX;

/// Per-label component index.
///
/// Logically immutable for queries; [`ComponentIndex::extend`] is the
/// one mutation, retained union-find state makes it pay only for the
/// appended node suffix.
#[derive(Debug, Clone)]
pub struct ComponentIndex {
    components: Vec<Vec<NodeId>>,
    /// Node index → component index, [`NO_GROUP`] when the node has no
    /// edge of the label.
    group_of: Vec<u32>,
    /// Nodes incident to at least one edge of the label.
    nodes: usize,
    /// Directed edges of the label.
    edges: usize,
    /// The union-find forest the components were collected from, kept
    /// so [`ComponentIndex::extend`] can resume the union sequence
    /// instead of replaying the full edge list.
    uf: unionfind::UnionFind,
    touched: Vec<bool>,
}

/// The per-label accumulator state of [`ComponentIndex::build_many`].
struct Builder {
    uf: unionfind::UnionFind,
    touched: Vec<bool>,
    edges: usize,
}

/// Collects the touched nodes of `uf` into components keyed by their
/// root (ascending), mirroring [`PropertyGraph::components`]'s
/// root-keyed `BTreeMap` collection so the result is byte-identical to
/// a fresh computation over the same union sequence.
fn collect_components(
    uf: &mut unionfind::UnionFind,
    touched: &[bool],
) -> (Vec<Vec<NodeId>>, Vec<u32>, usize) {
    let mut by_root: std::collections::BTreeMap<usize, Vec<NodeId>> =
        std::collections::BTreeMap::new();
    for (i, &is_touched) in touched.iter().enumerate() {
        if is_touched {
            by_root
                .entry(uf.find(i))
                .or_default()
                .push(NodeId::from_index(i));
        }
    }
    let components: Vec<Vec<NodeId>> = by_root.into_values().collect();
    let mut group_of = vec![NO_GROUP; touched.len()];
    let mut nodes = 0usize;
    for (g, comp) in components.iter().enumerate() {
        nodes += comp.len();
        for &member in comp {
            group_of[member.index()] = u32::try_from(g).expect("graph too large");
        }
    }
    (components, group_of, nodes)
}

impl Builder {
    fn new(n: usize) -> Builder {
        Builder {
            uf: unionfind::UnionFind::new(n),
            touched: vec![false; n],
            edges: 0,
        }
    }

    fn union(&mut self, from: usize, to: usize) {
        self.uf.union(from, to);
        self.touched[from] = true;
        self.touched[to] = true;
        self.edges += 1;
    }

    fn finish(mut self) -> ComponentIndex {
        let (components, group_of, nodes) = collect_components(&mut self.uf, &self.touched);
        ComponentIndex {
            components,
            group_of,
            nodes,
            edges: self.edges,
            uf: self.uf,
            touched: self.touched,
        }
    }
}

impl ComponentIndex {
    /// Builds the index for the subgraph of edges whose label passes
    /// `filter`.
    ///
    /// The union-find runs over the out-rows in node order (served runs
    /// included) — the identical sequence [`PropertyGraph::components`]
    /// performs — and
    /// components are collected under the same root-keyed ordering, so
    /// [`ComponentIndex::components`] equals a fresh
    /// [`PropertyGraph::components`] call bit for bit.
    pub fn build<N, L: Copy + Eq>(
        graph: &PropertyGraph<N, L>,
        mut filter: impl FnMut(&L) -> bool,
    ) -> ComponentIndex {
        let mut b = Builder::new(graph.node_count());
        let mut buf = Vec::new();
        for id in graph.node_ids() {
            graph.walk_out(id, &mut filter, &mut buf, |to, _| {
                b.union(id.index(), to.index())
            });
        }
        b.finish()
    }

    /// Builds one index per label in a single edge walk.
    ///
    /// Each edge is dispatched to the accumulator of its label (edges
    /// whose label is not listed are skipped), so every label sees the
    /// exact union sequence a dedicated filtered [`ComponentIndex::build`]
    /// would perform — the results are element-for-element identical —
    /// while the rows are walked once instead of once per label.
    pub fn build_many<N, L: Copy + Eq>(
        graph: &PropertyGraph<N, L>,
        labels: &[L],
    ) -> Vec<ComponentIndex> {
        let n = graph.node_count();
        let mut builders: Vec<Builder> = labels.iter().map(|_| Builder::new(n)).collect();
        let mut buf = Vec::new();
        for id in graph.node_ids() {
            graph.walk_out(id, &mut |l| labels.contains(l), &mut buf, |to, label| {
                let slot = labels.iter().position(|l| *l == label).expect("filtered");
                builders[slot].union(id.index(), to.index());
            });
        }
        builders.into_iter().map(Builder::finish).collect()
    }

    /// Extends the index over nodes appended to the graph since it was
    /// built: every label edge incident to a node index `>= from` is
    /// replayed into the retained union-find, and the component
    /// collection is redone from the grown forest.
    ///
    /// `from` must be the node count the index was built (or last
    /// extended) at. The caller must guarantee the *append-only*
    /// contract for this label: no label edge touching a node `< from`
    /// was added, removed, or reordered since then. Under that contract
    /// the union sequence seen by the forest is "old sequence, then the
    /// suffix in node order" — exactly what [`ComponentIndex::build`]
    /// performs on the final graph, where appended nodes sort after all
    /// old node ids — so the extended index is byte-identical to a
    /// fresh build (union-by-size roots depend only on the union
    /// sequence; path halving never changes a root).
    pub fn extend<N, L: Copy + Eq>(
        &mut self,
        graph: &PropertyGraph<N, L>,
        mut filter: impl FnMut(&L) -> bool,
        from: usize,
    ) {
        let n = graph.node_count();
        assert_eq!(
            from,
            self.uf.len(),
            "extend must resume at the node count the index was built at"
        );
        self.uf.grow(n);
        self.touched.resize(n, false);
        let mut buf = Vec::new();
        for id in graph.node_ids().skip(from) {
            graph.walk_out(id, &mut filter, &mut buf, |to, _| {
                debug_assert!(
                    to.index() >= from,
                    "append-only contract violated: new label edge reaches old node"
                );
                self.uf.union(id.index(), to.index());
                self.touched[id.index()] = true;
                self.touched[to.index()] = true;
                self.edges += 1;
            });
        }
        let (components, group_of, nodes) = collect_components(&mut self.uf, &self.touched);
        self.components = components;
        self.group_of = group_of;
        self.nodes = nodes;
    }

    /// The node count the index was built (or last extended) at — the
    /// `from` a subsequent [`ComponentIndex::extend`] must resume from.
    pub fn node_watermark(&self) -> usize {
        self.uf.len()
    }

    /// The connected components, identical to what
    /// [`PropertyGraph::components`] returns for the same filter.
    pub fn components(&self) -> &[Vec<NodeId>] {
        &self.components
    }

    /// The component index of `node`, `None` when the node has no edge of
    /// this label.
    pub fn component_of(&self, node: NodeId) -> Option<usize> {
        match self.group_of.get(node.index()) {
            Some(&g) if g != NO_GROUP => Some(g as usize),
            _ => None,
        }
    }

    /// Members of `node`'s component (sorted ascending), `None` when the
    /// node is isolated under this label.
    pub fn component_members(&self, node: NodeId) -> Option<&[NodeId]> {
        self.component_of(node)
            .map(|g| self.components[g].as_slice())
    }

    /// Nodes incident to at least one edge of the label.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Directed edges of the label.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Table-II statistics of the labeled subgraph, identical to
    /// [`RelationStats::compute`] over the same filter: incident-node and
    /// directed-edge counts were gathered during the build, and the
    /// average degree uses the same `edges / nodes` division.
    pub fn stats(&self) -> RelationStats {
        let avg = if self.nodes == 0 {
            0.0
        } else {
            self.edges as f64 / self.nodes as f64
        };
        RelationStats {
            nodes: self.nodes,
            edges: self.edges,
            avg_out_degree: avg,
            avg_in_degree: avg,
        }
    }
}

/// Immutable CSR snapshot of one label's out-adjacency.
#[derive(Debug, Clone)]
pub struct AdjacencyIndex {
    /// CSR offsets: the label-filtered out-neighbours of node `i` are
    /// `targets[offsets[i]..offsets[i + 1]]`, in the same order they
    /// appear in the underlying adjacency list.
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl AdjacencyIndex {
    /// Builds the CSR snapshot for the subgraph of edges whose label
    /// passes `filter`.
    pub fn build<N, L: Copy + Eq>(
        graph: &PropertyGraph<N, L>,
        mut filter: impl FnMut(&L) -> bool,
    ) -> AdjacencyIndex {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        let mut buf = Vec::new();
        for id in graph.node_ids() {
            graph.walk_out(id, &mut filter, &mut buf, |to, _| targets.push(to));
            offsets.push(u32::try_from(targets.len()).expect("graph too large"));
        }
        AdjacencyIndex { offsets, targets }
    }

    /// Appends CSR rows for nodes added to the graph since the snapshot
    /// was built. `from` must be the node count the snapshot covers
    /// (`offsets.len() - 1`), and the caller must guarantee the
    /// append-only contract for this label: the out-adjacency of every
    /// node `< from` is unchanged, so the old rows stay valid and only
    /// the suffix rows need materialising. The result is byte-identical
    /// to a fresh [`AdjacencyIndex::build`] over the final graph.
    pub fn extend<N, L: Copy + Eq>(
        &mut self,
        graph: &PropertyGraph<N, L>,
        mut filter: impl FnMut(&L) -> bool,
        from: usize,
    ) {
        assert_eq!(
            from,
            self.offsets.len() - 1,
            "extend must resume at the node count the snapshot was built at"
        );
        let mut buf = Vec::new();
        for id in graph.node_ids().skip(from) {
            graph.walk_out(id, &mut filter, &mut buf, |to, _| self.targets.push(to));
            self.offsets
                .push(u32::try_from(self.targets.len()).expect("graph too large"));
        }
    }

    /// The node count the snapshot covers — the `from` a subsequent
    /// [`AdjacencyIndex::extend`] must resume from.
    pub fn node_watermark(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Label-filtered out-neighbours of `node`, from the CSR snapshot.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Nodes reachable from `start` over the CSR snapshot, including
    /// `start`, sorted ascending — byte-identical to
    /// [`PropertyGraph::reachable`] with the same filter (the BFS visits
    /// neighbours in the same order, and both sort the result).
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a node of the indexed graph.
    pub fn reachable(&self, start: NodeId) -> Vec<NodeId> {
        let n = self.offsets.len() - 1;
        assert!(start.index() < n, "unknown start node");
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        let mut out = Vec::new();
        while let Some(cur) = queue.pop_front() {
            out.push(cur);
            for &next in self.neighbors(cur) {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    queue.push_back(next);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Rel {
        Dup,
        Dep,
    }

    fn sample() -> (PropertyGraph<u32, Rel>, Vec<NodeId>) {
        let mut g = PropertyGraph::new();
        let ids: Vec<NodeId> = (0..6).map(|i| g.add_node(i)).collect();
        g.add_undirected_edge(ids[0], ids[1], Rel::Dup);
        g.add_undirected_edge(ids[1], ids[2], Rel::Dup);
        g.add_undirected_edge(ids[4], ids[5], Rel::Dup);
        g.add_edge(ids[3], ids[0], Rel::Dep);
        (g, ids)
    }

    #[test]
    fn components_match_fresh_computation() {
        let (g, _) = sample();
        for filter in [Rel::Dup, Rel::Dep] {
            let index = ComponentIndex::build(&g, |l| *l == filter);
            assert_eq!(index.components(), &g.components(|l| *l == filter)[..]);
        }
    }

    #[test]
    fn build_many_matches_individual_builds() {
        let (g, _) = sample();
        let many = ComponentIndex::build_many(&g, &[Rel::Dup, Rel::Dep]);
        for (i, filter) in [Rel::Dup, Rel::Dep].into_iter().enumerate() {
            let single = ComponentIndex::build(&g, |l| *l == filter);
            assert_eq!(many[i].components(), single.components());
            assert_eq!(many[i].node_count(), single.node_count());
            assert_eq!(many[i].edge_count(), single.edge_count());
            assert_eq!(many[i].stats(), single.stats());
        }
    }

    #[test]
    fn membership_and_counts() {
        let (g, ids) = sample();
        let index = ComponentIndex::build(&g, |l| *l == Rel::Dup);
        assert_eq!(index.component_of(ids[0]), index.component_of(ids[2]));
        assert_ne!(index.component_of(ids[0]), index.component_of(ids[4]));
        assert_eq!(index.component_of(ids[3]), None);
        assert_eq!(index.component_members(ids[4]), Some(&[ids[4], ids[5]][..]));
        assert_eq!(index.node_count(), 5);
        assert_eq!(index.edge_count(), 6);
    }

    #[test]
    fn stats_match_direct_computation() {
        let (g, _) = sample();
        for filter in [Rel::Dup, Rel::Dep] {
            let index = ComponentIndex::build(&g, |l| *l == filter);
            assert_eq!(index.stats(), RelationStats::compute(&g, |l| *l == filter));
        }
    }

    #[test]
    fn reachable_matches_graph_bfs() {
        let (g, ids) = sample();
        for filter in [Rel::Dup, Rel::Dep] {
            let index = AdjacencyIndex::build(&g, |l| *l == filter);
            for &id in &ids {
                assert_eq!(index.reachable(id), g.reachable(id, |l| *l == filter));
            }
        }
    }

    #[test]
    fn csr_neighbors_preserve_adjacency_order() {
        let (g, ids) = sample();
        let index = AdjacencyIndex::build(&g, |l| *l == Rel::Dup);
        let expected: Vec<NodeId> = g
            .out_edges(ids[1])
            .iter()
            .filter(|&&(_, l)| l == Rel::Dup)
            .map(|&(to, _)| to)
            .collect();
        assert_eq!(index.neighbors(ids[1]), &expected[..]);
    }

    #[test]
    fn extend_matches_fresh_build_after_append_only_growth() {
        let (mut g, ids) = sample();
        let mut index = ComponentIndex::build(&g, |l| *l == Rel::Dup);
        let mut adjacency = AdjacencyIndex::build(&g, |l| *l == Rel::Dup);
        let before = g.node_count();
        // Append a clique of new nodes plus a non-label edge to an old
        // node: Dup stays append-only, Dep may do anything.
        let a = g.add_node(10);
        let b = g.add_node(11);
        let c = g.add_node(12);
        g.add_undirected_edge(a, b, Rel::Dup);
        g.add_undirected_edge(b, c, Rel::Dup);
        g.add_undirected_edge(a, c, Rel::Dup);
        g.add_edge(c, ids[0], Rel::Dep);
        index.extend(&g, |l| *l == Rel::Dup, before);
        adjacency.extend(&g, |l| *l == Rel::Dup, before);
        let fresh = ComponentIndex::build(&g, |l| *l == Rel::Dup);
        assert_eq!(index.components(), fresh.components());
        assert_eq!(index.node_count(), fresh.node_count());
        assert_eq!(index.edge_count(), fresh.edge_count());
        assert_eq!(index.stats(), fresh.stats());
        for id in g.node_ids() {
            assert_eq!(index.component_of(id), fresh.component_of(id));
        }
        let fresh_adj = AdjacencyIndex::build(&g, |l| *l == Rel::Dup);
        for id in g.node_ids() {
            assert_eq!(adjacency.neighbors(id), fresh_adj.neighbors(id));
            assert_eq!(adjacency.reachable(id), fresh_adj.reachable(id));
        }
    }

    #[test]
    #[should_panic(expected = "must resume at the node count")]
    fn extend_from_wrong_watermark_panics() {
        let (mut g, _) = sample();
        let mut index = ComponentIndex::build(&g, |l| *l == Rel::Dup);
        g.add_node(9);
        index.extend(&g, |l| *l == Rel::Dup, 2);
    }

    #[test]
    fn empty_label_yields_empty_index() {
        let (g, ids) = sample();
        let index = ComponentIndex::build(&g, |_| false);
        assert!(index.components().is_empty());
        assert_eq!(index.node_count(), 0);
        assert_eq!(index.edge_count(), 0);
        let adjacency = AdjacencyIndex::build(&g, |_| false);
        assert!(adjacency.neighbors(ids[0]).is_empty());
        assert_eq!(adjacency.reachable(ids[0]), vec![ids[0]]);
    }
}
