//! An in-memory property-graph store — the reproduction's Neo4j.
//!
//! The paper stores MALGRAPH in Neo4j (§III-C) and uses it for exactly
//! three things: keeping nodes with attributes, keeping typed edges, and
//! extracting connected subgraphs per edge type (§III-B). This crate
//! provides those capabilities as a generic store:
//!
//! * [`PropertyGraph<N, L>`] — nodes carry an arbitrary payload `N`,
//!   edges carry a label `L` (MALGRAPH uses its four relation types);
//! * [`PropertyGraph::components`] — connected components restricted to a
//!   label subset, computed with a union-find ([`unionfind`]);
//! * [`PropertyGraph::serve`] — one symmetric label answered by a
//!   [`ServedRelation`] instead of stored rows (MALGRAPH's similar
//!   relation: millions of edges that copy a few hundred facts); every
//!   edge-walking method sees its edges where stored ones would sit;
//! * [`stats`] — node/edge counts and degree averages (paper Table II);
//! * [`dot`] — Graphviz export for Fig.-3-style group renderings.
//!
//! # Examples
//!
//! ```
//! use graphstore::PropertyGraph;
//!
//! let mut g: PropertyGraph<&str, &str> = PropertyGraph::new();
//! let a = g.add_node("colorslib");
//! let b = g.add_node("httpslib");
//! g.add_undirected_edge(a, b, "coexist");
//! let comps = g.components(|l| *l == "coexist");
//! assert_eq!(comps.len(), 1);
//! assert_eq!(comps[0].len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
pub mod index;
pub mod stats;
pub mod unionfind;

use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// Identifier of a node within one [`PropertyGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Crate-internal inverse of [`NodeId::index`]; only index structures
    /// derived from an existing graph may mint ids.
    pub(crate) fn from_index(i: usize) -> NodeId {
        NodeId(u32::try_from(i).expect("graph too large"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed, labeled edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge<L> {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Edge label (relation type).
    pub label: L,
}

/// A symmetric, irreflexive relation that a [`PropertyGraph`] answers
/// from a neighbour function instead of adjacency rows
/// ([`PropertyGraph::serve`]).
///
/// The contract: `b` is a neighbour of `a` exactly when `a` is a
/// neighbour of `b`, and no node is its own neighbour; `neighbours`
/// lists each neighbour once, in the order the node's rows carry them;
/// `degree` is the number `neighbours` lists, and `contains` agrees
/// with it. A node the relation does not know has no neighbours.
pub trait ServedRelation: fmt::Debug + Send + Sync {
    /// Appends the neighbours of `node` to `out`, in row order.
    fn neighbours(&self, node: NodeId, out: &mut Vec<NodeId>);
    /// The number of neighbours of `node`.
    fn degree(&self, node: NodeId) -> usize;
    /// Whether `b` is a neighbour of `a`.
    fn contains(&self, a: NodeId, b: NodeId) -> bool;
}

/// The served label of a graph, and where its run sits in each row.
#[derive(Debug, Clone)]
struct Served<L> {
    label: L,
    relation: Arc<dyn ServedRelation>,
    /// Per node known when the relation was attached: the length of its
    /// stored out-row then, which is where the served run sits.
    at: Vec<u32>,
    /// Directed edges the relation serves: the sum of its degrees.
    edges: usize,
}

/// A directed multigraph with node payloads and labeled edges.
///
/// Symmetric relations (duplicated / similar / co-existing in MALGRAPH)
/// are a pair of directed edges each: stored via
/// [`PropertyGraph::add_undirected_edge`], or served by a
/// [`ServedRelation`]; the paper's Table II counts degrees the same way
/// (average in-degree equals average out-degree for every relation
/// graph).
///
/// A node's out-row is its stored out-edges in insertion order, with the
/// served run (if a relation is served) spliced in where the stored row
/// ended when the relation was attached. Every method that walks edges
/// walks these full rows; only [`PropertyGraph::out_edges`] and
/// [`PropertyGraph::in_edges`] return the stored edges alone.
#[derive(Debug, Clone)]
pub struct PropertyGraph<N, L> {
    nodes: Vec<N>,
    out_adj: Vec<Vec<(NodeId, L)>>,
    in_adj: Vec<Vec<(NodeId, L)>>,
    /// Stored directed edges.
    edge_count: usize,
    served: Option<Served<L>>,
}

impl<N, L> Default for PropertyGraph<N, L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, L> PropertyGraph<N, L> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        PropertyGraph {
            nodes: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            edge_count: 0,
            served: None,
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("graph too large"));
        self.nodes.push(payload);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges, served ones included.
    pub fn edge_count(&self) -> usize {
        self.edge_count + self.served.as_ref().map_or(0, |s| s.edges)
    }

    /// Payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Mutable payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// Iterates `(id, payload)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Finds the first node whose payload satisfies `pred`.
    pub fn find_node(&self, pred: impl FnMut(&N) -> bool) -> Option<NodeId> {
        self.nodes.iter().position(pred).map(|i| NodeId(i as u32))
    }
}

impl<N, L: Copy + Eq> PropertyGraph<N, L> {
    /// Adds one directed edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, label: L) {
        assert!(from.index() < self.nodes.len(), "unknown source node");
        assert!(to.index() < self.nodes.len(), "unknown target node");
        self.out_adj[from.index()].push((to, label));
        self.in_adj[to.index()].push((from, label));
        self.edge_count += 1;
    }

    /// Adds a symmetric relation as two directed edges.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unknown or `a == b` (MALGRAPH
    /// relations are irreflexive).
    pub fn add_undirected_edge(&mut self, a: NodeId, b: NodeId, label: L) {
        assert_ne!(a, b, "relations are irreflexive");
        self.add_edge(a, b, label);
        self.add_edge(b, a, label);
    }

    /// Serves `label`'s edges from `relation` instead of storing them.
    /// In each node's out-row, the served run sits after the edges stored
    /// so far and before any stored later; nodes added later have no run.
    ///
    /// # Panics
    ///
    /// Panics if a relation is already served: one graph serves one
    /// relation until [`PropertyGraph::clear_edges`] detaches it.
    pub fn serve(&mut self, label: L, relation: Arc<dyn ServedRelation>) {
        assert!(self.served.is_none(), "a graph serves one relation");
        let at = self
            .out_adj
            .iter()
            .map(|row| u32::try_from(row.len()).expect("graph too large"))
            .collect();
        let edges = self.node_ids().map(|id| relation.degree(id)).sum();
        self.served = Some(Served {
            label,
            relation,
            at,
            edges,
        });
    }

    /// Removes every edge, stored or served, while keeping all nodes (and
    /// the adjacency lists' allocations). The incremental ingestion path
    /// uses this to re-emit the edge stages over a grown corpus without
    /// rebuilding nodes.
    pub fn clear_edges(&mut self) {
        for adj in &mut self.out_adj {
            adj.clear();
        }
        for adj in &mut self.in_adj {
            adj.clear();
        }
        self.edge_count = 0;
        self.served = None;
    }

    /// Stored outgoing `(target, label)` pairs of `id`, without the
    /// served run; [`PropertyGraph::edges`] yields both.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn out_edges(&self, id: NodeId) -> &[(NodeId, L)] {
        &self.out_adj[id.index()]
    }

    /// Stored incoming `(source, label)` pairs of `id`, without the
    /// served run.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn in_edges(&self, id: NodeId) -> &[(NodeId, L)] {
        &self.in_adj[id.index()]
    }

    /// The served relation, if `id` was a node when it was attached and
    /// `filter` passes its label.
    fn served_for(&self, id: NodeId, filter: &mut impl FnMut(&L) -> bool) -> Option<&Served<L>> {
        let served = self.served.as_ref()?;
        (id.index() < served.at.len() && filter(&served.label)).then_some(served)
    }

    /// The served degree of `id` when `filter` passes the served label.
    pub(crate) fn served_degree(&self, id: NodeId, filter: &mut impl FnMut(&L) -> bool) -> usize {
        self.served_for(id, filter)
            .map_or(0, |served| served.relation.degree(id))
    }

    /// The served label, if a relation is served.
    pub(crate) fn served_label(&self) -> Option<L> {
        self.served.as_ref().map(|s| s.label)
    }

    /// Calls `f(to, label)` for each out-edge of `id` whose label passes
    /// `filter`, in row order: stored edges before the served run, the
    /// run, stored edges after it. `buf` holds the run.
    pub(crate) fn walk_out(
        &self,
        id: NodeId,
        filter: &mut impl FnMut(&L) -> bool,
        buf: &mut Vec<NodeId>,
        mut f: impl FnMut(NodeId, L),
    ) {
        let row = &self.out_adj[id.index()];
        buf.clear();
        let (head, run, tail) = match self.served_for(id, filter) {
            Some(served) => {
                served.relation.neighbours(id, buf);
                let at = served.at[id.index()] as usize;
                (&row[..at], Some(served.label), &row[at..])
            }
            None => (&row[..], None, &row[row.len()..]),
        };
        for &(to, label) in head {
            if filter(&label) {
                f(to, label);
            }
        }
        if let Some(label) = run {
            for &to in buf.iter() {
                f(to, label);
            }
        }
        for &(to, label) in tail {
            if filter(&label) {
                f(to, label);
            }
        }
    }

    /// Out-degree of `id` counting only edges whose label passes `filter`.
    pub fn out_degree_by(&self, id: NodeId, mut filter: impl FnMut(&L) -> bool) -> usize {
        let stored = self.out_adj[id.index()]
            .iter()
            .filter(|(_, l)| filter(l))
            .count();
        stored + self.served_degree(id, &mut filter)
    }

    /// In-degree of `id` counting only edges whose label passes `filter`
    /// (a served relation is symmetric: its in-degree is its degree).
    pub fn in_degree_by(&self, id: NodeId, mut filter: impl FnMut(&L) -> bool) -> usize {
        let stored = self.in_adj[id.index()]
            .iter()
            .filter(|(_, l)| filter(l))
            .count();
        stored + self.served_degree(id, &mut filter)
    }

    /// Whether an edge `from → to` with `label` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId, label: L) -> bool {
        self.out_adj[from.index()]
            .iter()
            .any(|&(t, l)| t == to && l == label)
            || self
                .served_for(from, &mut |l| *l == label)
                .is_some_and(|served| served.relation.contains(from, to))
    }

    /// Iterates every directed edge, served ones included: node by node,
    /// each node's out-row in order.
    pub fn edges(&self) -> impl Iterator<Item = Edge<L>> + '_ {
        let mut buf = Vec::new();
        self.node_ids().flat_map(move |from| {
            let mut row = Vec::new();
            self.walk_out(from, &mut |_| true, &mut buf, |to, label| {
                row.push(Edge { from, to, label })
            });
            row
        })
    }

    /// Number of directed edges whose label passes `filter`.
    pub fn edge_count_by(&self, mut filter: impl FnMut(&L) -> bool) -> usize {
        let stored = self
            .out_adj
            .iter()
            .flat_map(|adj| adj.iter())
            .filter(|(_, l)| filter(l))
            .count();
        let served = match &self.served {
            Some(served) if filter(&served.label) => served.edges,
            _ => 0,
        };
        stored + served
    }

    /// Connected components over the subgraph of edges whose label passes
    /// `filter`, **including only nodes incident to at least one such
    /// edge**. This matches the paper's subgraph semantics: Table II's
    /// "DG has 2,475 nodes" counts packages that participate in at least
    /// one duplicated relation, not the whole corpus.
    ///
    /// The union-find (union by size) merges the endpoints of every
    /// passing edge in [`PropertyGraph::edges`] order, and components come
    /// out in ascending order of their final root. That is not ascending
    /// minimum node id: the edges (0,6), (3,4), (3,5), (3,6), (1,2) give
    /// the component of 1 before the component of 0. Nodes within a
    /// component are sorted ascending.
    pub fn components(&self, mut filter: impl FnMut(&L) -> bool) -> Vec<Vec<NodeId>> {
        let mut uf = unionfind::UnionFind::new(self.nodes.len());
        let mut touched = vec![false; self.nodes.len()];
        let mut buf = Vec::new();
        for id in self.node_ids() {
            let i = id.index();
            self.walk_out(id, &mut filter, &mut buf, |to, _| {
                uf.union(i, to.index());
                touched[i] = true;
                touched[to.index()] = true;
            });
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for (i, &is_touched) in touched.iter().enumerate() {
            if is_touched {
                groups.entry(uf.find(i)).or_default().push(NodeId(i as u32));
            }
        }
        groups.into_values().collect()
    }

    /// Nodes reachable from `start` via edges whose label passes
    /// `filter`, including `start` itself (BFS). Used by the Fig.-3
    /// neighbourhood rendering and as the baseline in the union-find
    /// ablation bench.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a node of this graph.
    pub fn reachable(&self, start: NodeId, mut filter: impl FnMut(&L) -> bool) -> Vec<NodeId> {
        assert!(start.index() < self.nodes.len(), "unknown start node");
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while let Some(cur) = queue.pop_front() {
            out.push(cur);
            self.walk_out(cur, &mut filter, &mut buf, |next, _| {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    queue.push_back(next);
                }
            });
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

    fn diamond() -> (PropertyGraph<u32, Rel>, Vec<NodeId>) {
        let mut g = PropertyGraph::new();
        let ids: Vec<NodeId> = (0..4).map(|i| g.add_node(i)).collect();
        g.add_undirected_edge(ids[0], ids[1], Rel::Dup);
        g.add_undirected_edge(ids[1], ids[2], Rel::Dup);
        g.add_edge(ids[3], ids[0], Rel::Dep);
        (g, ids)
    }

    #[test]
    fn node_and_edge_counts() {
        let (g, _) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5); // 2 undirected = 4 directed, + 1
        assert_eq!(g.edge_count_by(|l| *l == Rel::Dup), 4);
        assert_eq!(g.edge_count_by(|l| *l == Rel::Dep), 1);
    }

    #[test]
    fn clear_edges_keeps_nodes_and_allows_reemission() {
        let (mut g, ids) = diamond();
        g.clear_edges();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
        for &id in &ids {
            assert!(g.out_edges(id).is_empty());
            assert!(g.in_edges(id).is_empty());
        }
        // Re-emitting the same edge sequence restores the same shape.
        g.add_undirected_edge(ids[0], ids[1], Rel::Dup);
        g.add_undirected_edge(ids[1], ids[2], Rel::Dup);
        g.add_edge(ids[3], ids[0], Rel::Dep);
        let (fresh, _) = diamond();
        for &id in &ids {
            assert_eq!(g.out_edges(id), fresh.out_edges(id));
            assert_eq!(g.in_edges(id), fresh.in_edges(id));
        }
        assert_eq!(g.edge_count(), fresh.edge_count());
    }

    /// A symmetric relation held as ascending neighbour sets, served
    /// the way MALGRAPH serves its similar relation.
    #[derive(Debug)]
    struct Sets(Vec<std::collections::BTreeSet<NodeId>>);

    impl ServedRelation for Sets {
        fn neighbours(&self, node: NodeId, out: &mut Vec<NodeId>) {
            if let Some(set) = self.0.get(node.index()) {
                out.extend(set.iter().copied());
            }
        }
        fn degree(&self, node: NodeId) -> usize {
            self.0.get(node.index()).map_or(0, |set| set.len())
        }
        fn contains(&self, a: NodeId, b: NodeId) -> bool {
            self.0.get(a.index()).is_some_and(|set| set.contains(&b))
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Lbl {
        A,
        B,
        S,
        C,
    }

    /// The same edges twice, in MALGRAPH's stage order: stored `A`
    /// cliques and `B` arcs, then the symmetric `S` pairs, then stored
    /// `C` edges. The first graph stores `S` (pairs in ascending order,
    /// so each node's run is ascending); the second serves it.
    fn stored_and_served() -> (PropertyGraph<u32, Lbl>, PropertyGraph<u32, Lbl>) {
        let n = 10;
        let s_pairs = [
            (0, 2),
            (0, 5),
            (1, 7),
            (2, 5),
            (2, 9),
            (3, 4),
            (5, 9),
            (6, 8),
        ];
        let mut graphs = Vec::new();
        for serve in [false, true] {
            let mut g = PropertyGraph::new();
            let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(i as u32)).collect();
            g.add_undirected_edge(ids[0], ids[1], Lbl::A);
            g.add_undirected_edge(ids[4], ids[5], Lbl::A);
            g.add_edge(ids[2], ids[3], Lbl::B);
            g.add_edge(ids[9], ids[0], Lbl::B);
            if serve {
                let mut sets = vec![std::collections::BTreeSet::new(); n];
                for &(a, b) in &s_pairs {
                    sets[a].insert(ids[b]);
                    sets[b].insert(ids[a]);
                }
                g.serve(Lbl::S, Arc::new(Sets(sets)));
            } else {
                for &(a, b) in &s_pairs {
                    g.add_undirected_edge(ids[a], ids[b], Lbl::S);
                }
            }
            g.add_undirected_edge(ids[1], ids[6], Lbl::C);
            g.add_undirected_edge(ids[2], ids[8], Lbl::C);
            g.add_edge(ids[7], ids[3], Lbl::B);
            graphs.push(g);
        }
        let served = graphs.pop().expect("two graphs");
        (graphs.pop().expect("two graphs"), served)
    }

    #[test]
    fn a_served_relation_walks_like_stored_edges() {
        use crate::index::{AdjacencyIndex, ComponentIndex};
        use crate::stats::RelationStats;
        let (stored, served) = stored_and_served();
        let labels = [Lbl::A, Lbl::B, Lbl::S, Lbl::C];
        assert!(served.edges().eq(stored.edges()));
        assert_eq!(served.edge_count(), stored.edge_count());
        assert_eq!(
            ComponentIndex::build_many(&served, &labels)
                .iter()
                .map(|i| i.components().to_vec())
                .collect::<Vec<_>>(),
            ComponentIndex::build_many(&stored, &labels)
                .iter()
                .map(|i| i.components().to_vec())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            RelationStats::compute_many(&served, &labels),
            RelationStats::compute_many(&stored, &labels)
        );
        let label_sets: [&[Lbl]; 4] = [
            &labels,
            &[Lbl::S],
            &[Lbl::A, Lbl::B, Lbl::C],
            &[Lbl::A, Lbl::S],
        ];
        for set in label_sets {
            let filter = |l: &Lbl| set.contains(l);
            assert_eq!(served.edge_count_by(filter), stored.edge_count_by(filter));
            assert_eq!(served.components(filter), stored.components(filter));
            let (a, b) = (
                ComponentIndex::build(&served, filter),
                ComponentIndex::build(&stored, filter),
            );
            assert_eq!(a.components(), b.components());
            assert_eq!(a.stats(), b.stats());
            assert_eq!(
                RelationStats::compute(&served, filter),
                RelationStats::compute(&stored, filter)
            );
            let (a, b) = (
                AdjacencyIndex::build(&served, filter),
                AdjacencyIndex::build(&stored, filter),
            );
            for id in stored.node_ids() {
                assert_eq!(a.neighbors(id), b.neighbors(id));
                assert_eq!(served.reachable(id, filter), stored.reachable(id, filter));
                assert_eq!(
                    served.out_degree_by(id, filter),
                    stored.out_degree_by(id, filter)
                );
                assert_eq!(
                    served.in_degree_by(id, filter),
                    stored.in_degree_by(id, filter)
                );
            }
        }
        for from in stored.node_ids() {
            for to in stored.node_ids() {
                for label in labels {
                    assert_eq!(
                        served.has_edge(from, to, label),
                        stored.has_edge(from, to, label),
                        "{from}->{to} {label:?}"
                    );
                }
            }
        }
        let subset: Vec<NodeId> = stored.node_ids().filter(|id| id.index() % 3 != 1).collect();
        for nodes in [None, Some(&subset[..])] {
            let dot = |g: &PropertyGraph<u32, Lbl>| {
                crate::dot::to_dot(g, nodes, |_, n| n.to_string(), |l| format!("{l:?}"))
            };
            assert_eq!(dot(&served), dot(&stored));
        }
    }

    #[test]
    fn served_runs_sit_where_the_relation_was_attached() {
        let (stored, served) = stored_and_served();
        for id in stored.node_ids() {
            // Stored rows hold everything but the served run.
            let without_s: Vec<_> = stored
                .out_edges(id)
                .iter()
                .copied()
                .filter(|&(_, l)| l != Lbl::S)
                .collect();
            assert_eq!(served.out_edges(id), &without_s[..]);
        }
        // A node added after attaching has no run, and later edges land
        // after the run.
        let mut grown = served;
        let late = grown.add_node(99);
        grown.add_undirected_edge(late, NodeId(2), Lbl::C);
        assert_eq!(grown.out_degree_by(late, |_| true), 1);
        let row: Vec<Lbl> = grown
            .edges()
            .filter(|e| e.from == NodeId(2))
            .map(|e| e.label)
            .collect();
        assert_eq!(
            row,
            [Lbl::B, Lbl::S, Lbl::S, Lbl::S, Lbl::C, Lbl::C],
            "node 2: stored B, served S run, then stored C"
        );
    }

    #[test]
    fn clear_edges_detaches_the_served_relation() {
        let (_, mut served) = stored_and_served();
        served.clear_edges();
        assert_eq!(served.edge_count(), 0);
        assert_eq!(served.edges().count(), 0);
        assert!(!served.has_edge(NodeId(0), NodeId(2), Lbl::S));
        served.serve(Lbl::S, Arc::new(Sets(Vec::new())));
        assert_eq!(served.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "serves one relation")]
    fn a_graph_serves_one_relation() {
        let (_, mut served) = stored_and_served();
        served.serve(Lbl::C, Arc::new(Sets(Vec::new())));
    }

    #[test]
    fn components_come_out_in_root_order_not_by_minimum() {
        // Union by size: (0,6) roots {0,6} at 0, (3,4) and (3,5) root
        // {3,4,5} at 3, and (3,6) hangs the smaller {0,6} under 3. The
        // root of {1,2} is 1 < 3, so that component comes first although
        // the other holds node 0.
        let mut g: PropertyGraph<(), Rel> = PropertyGraph::new();
        let ids: Vec<NodeId> = (0..7).map(|_| g.add_node(())).collect();
        for (a, b) in [(0, 6), (3, 4), (3, 5), (3, 6), (1, 2)] {
            g.add_undirected_edge(ids[a], ids[b], Rel::Dup);
        }
        let minima = |components: &[Vec<NodeId>]| -> Vec<usize> {
            components.iter().map(|c| c[0].index()).collect()
        };
        assert_eq!(minima(&g.components(|_| true)), [1, 0]);
        let index = crate::index::ComponentIndex::build(&g, |_| true);
        assert_eq!(minima(index.components()), [1, 0]);
    }

    #[test]
    fn payload_access_and_mutation() {
        let (mut g, ids) = diamond();
        assert_eq!(*g.node(ids[2]), 2);
        *g.node_mut(ids[2]) = 99;
        assert_eq!(*g.node(ids[2]), 99);
    }

    #[test]
    fn components_respect_label_filter() {
        let (g, ids) = diamond();
        let dup = g.components(|l| *l == Rel::Dup);
        assert_eq!(dup, vec![vec![ids[0], ids[1], ids[2]]]);
        let dep = g.components(|l| *l == Rel::Dep);
        assert_eq!(dep, vec![vec![ids[0], ids[3]]]);
        let all = g.components(|_| true);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].len(), 4);
    }

    #[test]
    fn isolated_nodes_are_not_components() {
        let mut g: PropertyGraph<(), Rel> = PropertyGraph::new();
        g.add_node(());
        g.add_node(());
        assert!(g.components(|_| true).is_empty());
    }

    #[test]
    fn degrees() {
        let (g, ids) = diamond();
        assert_eq!(g.out_degree_by(ids[1], |l| *l == Rel::Dup), 2);
        assert_eq!(g.in_degree_by(ids[1], |l| *l == Rel::Dup), 2);
        assert_eq!(g.out_degree_by(ids[3], |l| *l == Rel::Dep), 1);
        assert_eq!(g.in_degree_by(ids[3], |l| *l == Rel::Dep), 0);
    }

    #[test]
    fn has_edge_is_directional() {
        let (g, ids) = diamond();
        assert!(g.has_edge(ids[3], ids[0], Rel::Dep));
        assert!(!g.has_edge(ids[0], ids[3], Rel::Dep));
        assert!(g.has_edge(ids[0], ids[1], Rel::Dup));
        assert!(g.has_edge(ids[1], ids[0], Rel::Dup));
    }

    #[test]
    fn reachable_bfs() {
        let (g, ids) = diamond();
        let r = g.reachable(ids[0], |l| *l == Rel::Dup);
        assert_eq!(r, vec![ids[0], ids[1], ids[2]]);
        // Directed Dep edge: 3 reaches 0..2 via Dep+Dup, 0 cannot reach 3.
        let r = g.reachable(ids[0], |_| true);
        assert_eq!(r.len(), 3);
        let r = g.reachable(ids[3], |_| true);
        assert_eq!(r.len(), 4);
    }

    #[test]
    #[should_panic(expected = "irreflexive")]
    fn self_loop_rejected() {
        let mut g: PropertyGraph<(), Rel> = PropertyGraph::new();
        let a = g.add_node(());
        g.add_undirected_edge(a, a, Rel::Dup);
    }

    #[test]
    #[should_panic(expected = "unknown target node")]
    fn dangling_edge_rejected() {
        let mut g: PropertyGraph<(), Rel> = PropertyGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(7), Rel::Dup);
    }

    #[test]
    fn find_node_by_payload() {
        let (g, ids) = diamond();
        assert_eq!(g.find_node(|&n| n == 3), Some(ids[3]));
        assert_eq!(g.find_node(|&n| n == 42), None);
    }

    #[test]
    fn edges_iterator_yields_all_directed_edges() {
        let (g, _) = diamond();
        assert_eq!(g.edges().count(), 5);
        assert_eq!(g.edges().filter(|e| e.label == Rel::Dep).count(), 1);
    }
}
