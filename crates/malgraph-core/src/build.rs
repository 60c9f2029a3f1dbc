//! MALGRAPH construction from a collected corpus (paper §III).
//!
//! The five stages — package nodes, then duplicated, dependency, similar
//! and co-existing edges — are written once, in `MalGraph::emit`, and
//! every graph is made by it: [`build`] over a whole corpus,
//! [`MalGraph::apply_delta`] once per corpus delta, and checkpoint
//! `restore` over a snapshot's corpus. The three differ only in their
//! inputs: where node emission starts, and the per-ecosystem similarity
//! memos (`EcoState`) the similar stage reuses — fresh for `build`,
//! carried across deltas by ingestion, seeded from the snapshot by
//! restore. So the windowed-vs-one-shot and restore-vs-build checks
//! compare one function with itself. The similar stage runs one
//! ecosystem at a time on every path; the pipeline inside it keeps its
//! own workers ([`SimilarityConfig::threads`]).

use crate::analysis::index::AnalysisIndex;
use crate::node::{MalNode, Relation};
use crate::similarity::{
    similar_pairs_cached, SimilarPairs, SimilarityCache, SimilarityConfig, SimilarityOutput,
    NO_CLUSTER,
};
use crawler::{CollectedDataset, CollectedPackage, CollectedReport};
use graphstore::{NodeId, PropertyGraph, ServedRelation};
use oss_types::{CrashPlan, CrashSignal, Ecosystem, PackageId};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// Options of the graph builder.
#[derive(Debug, Clone, Default)]
pub struct BuildOptions {
    /// Similarity-pipeline configuration.
    pub similarity: SimilarityConfig,
}

/// The MALGRAPH knowledge graph.
///
/// Nodes are package/source pairs ([`MalNode`]); edges carry one of the
/// four [`Relation`]s. Symmetric relations (duplicated / similar /
/// co-existing) are directed pairs, dependency edges point from the
/// dependent package to its dependency. Duplicated, dependency and
/// co-existing edges are stored; the similar relation is served from
/// the ecosystems' class tables ([`SimilarPairs`]), in the place and
/// order its edges would be stored, so every edge walk, count and lookup
/// of `graph` sees it.
#[derive(Debug)]
pub struct MalGraph {
    /// The underlying property graph.
    pub graph: PropertyGraph<MalNode, Relation>,
    pub(crate) primary: HashMap<PackageId, NodeId>,
    /// Similarity output per ecosystem: the class table of its similar
    /// pairs, the chosen k and the schedule trace. `Arc` so the
    /// incremental ingestion path shares one output between its
    /// per-ecosystem memo and the graph.
    pub similarity_diagnostics: Vec<(Ecosystem, Arc<SimilarityOutput>)>,
    /// Each relation's groups, in [`Relation::ALL`] order, computed by
    /// the first [`MalGraph::groups`] call. This cache, `stats` and
    /// `analysis` summarise the graph and corpus as first queried; the
    /// one mutation path, [`MalGraph::apply_delta`], drops all three.
    pub(crate) groups: OnceLock<Vec<Vec<Vec<NodeId>>>>,
    /// Lazily-computed Table-II statistics, in [`Relation::ALL`] order,
    /// gathered for all relations in a single edge scan.
    pub(crate) stats: OnceLock<Vec<graphstore::stats::RelationStats>>,
    /// Lazily-built corpus lookup structures shared by the RQ passes.
    pub(crate) analysis: OnceLock<AnalysisIndex>,
}

/// Position of `relation` in [`Relation::ALL`].
pub(crate) fn relation_slot(relation: Relation) -> usize {
    Relation::ALL
        .iter()
        .position(|r| *r == relation)
        .expect("relation listed in ALL")
}

impl MalGraph {
    /// The primary node of a package, if the package is in the corpus.
    pub fn primary_node(&self, id: &PackageId) -> Option<NodeId> {
        self.primary.get(id).copied()
    }

    /// Number of distinct packages (primary nodes).
    pub fn package_count(&self) -> usize {
        self.primary.len()
    }

    /// Connected components of one relation (paper's subgraph groups),
    /// `self.graph.components(|l| *l == relation)`. The first call
    /// computes every relation's groups, one filtered walk each (a walk
    /// skips the served similar run unless its filter takes it);
    /// `OnceLock` serialises concurrent first calls, so the parallel
    /// analysis harness shares one result.
    pub fn groups(&self, relation: Relation) -> &[Vec<NodeId>] {
        obs::counter_add("analysis.group_queries", 1);
        let groups = self.groups.get_or_init(|| {
            // Detached: which analysis section wins the OnceLock race is
            // scheduling-dependent, so the walk must root its own stack
            // for the folded profile to stay thread-count-invariant.
            let _detached = obs::detached();
            let _span = obs::span!("analysis/index/components");
            obs::counter_add("analysis.index_builds", Relation::ALL.len() as u64);
            let groups: Vec<_> = Relation::ALL
                .iter()
                .map(|r| self.graph.components(|l| l == r))
                .collect();
            for relation_groups in &groups {
                obs::counter_add("analysis.indexed_components", relation_groups.len() as u64);
            }
            groups
        });
        &groups[relation_slot(relation)]
    }

    /// Table II row for one relation, from a cache computed for all
    /// relations in one edge scan (identical to a fresh
    /// [`graphstore::stats::RelationStats::compute`]). Deliberately does
    /// *not* force the groups: the statistics need no union-find.
    pub fn relation_stats(&self, relation: Relation) -> graphstore::stats::RelationStats {
        let stats = self.stats.get_or_init(|| {
            let _detached = obs::detached();
            let _span = obs::span!("analysis/index/stats");
            graphstore::stats::RelationStats::compute_many(&self.graph, &Relation::ALL)
        });
        stats[relation_slot(relation)].clone()
    }

    /// The corpus-side [`AnalysisIndex`], built on first use. The index
    /// binds to the first `dataset` passed in — callers must keep
    /// querying with the corpus the graph was built from (enforced by a
    /// package-count check on the index's dataset-taking methods).
    pub fn analysis_index(&self, dataset: &CollectedDataset) -> &AnalysisIndex {
        self.analysis.get_or_init(|| AnalysisIndex::new(dataset))
    }

    /// A graph with no nodes and no edges — the starting point of
    /// [`build`], of the incremental ingestion path
    /// ([`MalGraph::apply_delta`]) and of checkpoint restore.
    pub fn empty() -> MalGraph {
        MalGraph {
            graph: PropertyGraph::new(),
            primary: HashMap::new(),
            similarity_diagnostics: Vec::new(),
            groups: OnceLock::new(),
            stats: OnceLock::new(),
            analysis: OnceLock::new(),
        }
    }
}

/// Per-ecosystem similarity memo of the construction: the output of the
/// last similarity run and the entry-list length it covered, plus the
/// embedding cache the next run starts from. The cache is never
/// persisted — a cold cache reproduces identical outputs.
#[derive(Debug, Default)]
pub(crate) struct EcoState {
    /// Embedding memo + collapse state for the cached pipeline.
    pub(crate) cache: SimilarityCache,
    /// Entry-list length at the last similarity run; since entry lists
    /// are append-only, an equal length proves the list unchanged.
    pub(crate) entries_len: usize,
    /// The output of the last similarity run over this ecosystem,
    /// shared with the graph's diagnostics (reuse is a refcount bump,
    /// not a multi-million-pair copy).
    pub(crate) output: Option<Arc<SimilarityOutput>>,
}

impl EcoState {
    /// One empty memo per ecosystem, in [`Ecosystem::ALL`] order.
    pub(crate) fn fresh() -> Vec<EcoState> {
        Ecosystem::ALL.iter().map(|_| EcoState::default()).collect()
    }
}

/// Position of `ecosystem` in [`Ecosystem::ALL`] (its memo's index).
pub(crate) fn eco_slot(ecosystem: Ecosystem) -> usize {
    Ecosystem::ALL
        .iter()
        .position(|e| *e == ecosystem)
        .expect("ecosystem listed in ALL")
}

impl MalGraph {
    /// The construction sequence (paper §III-A) behind [`build`],
    /// [`MalGraph::apply_delta`] and checkpoint restore: nodes for
    /// `dataset.packages[from..]` (earlier packages' nodes are listed in
    /// `nodes_by_pkg`), then every edge stage over the whole corpus, each
    /// under its `build/*` span and firing the crash point of that name
    /// when done. The similar stage takes an ecosystem's output from its
    /// memo when the entry list has the length the memo covered;
    /// otherwise it runs the cached pipeline on the memo's cache,
    /// publishes the output to the memo and fires `similar/publish`.
    ///
    /// # Errors
    ///
    /// The [`CrashSignal`] of the armed crash point, if it fired; the
    /// graph, `nodes_by_pkg` and `memos` are then left torn.
    pub(crate) fn emit(
        &mut self,
        dataset: &CollectedDataset,
        from: usize,
        nodes_by_pkg: &mut Vec<Vec<NodeId>>,
        memos: &mut [EcoState],
        options: &BuildOptions,
        crash: &CrashPlan,
    ) -> Result<(), CrashSignal> {
        // 1. One node per package/source mention of the new packages.
        let stage = obs::span!("build/nodes");
        let (nodes, packages) = (self.graph.node_count(), self.primary.len());
        emit_package_nodes(
            &mut self.graph,
            &mut self.primary,
            nodes_by_pkg,
            &dataset.packages[from..],
        );
        obs::counter_add("build.nodes", (self.graph.node_count() - nodes) as u64);
        obs::counter_add("build.packages", (self.primary.len() - packages) as u64);
        drop(stage);
        crash.fire("build/nodes")?;

        // Edges between old nodes can appear as the corpus grows (a new
        // package resolves an old dependency name or report member), so
        // every edge stage re-runs over the whole corpus.
        self.graph.clear_edges();

        // 2. Duplicated cliques over the nodes of each package.
        let stage = obs::span!("build/duplicated");
        let edges = emit_duplicated_edges(&mut self.graph, nodes_by_pkg);
        obs::counter_add("build.edges_added{relation=duplicated}", edges);
        drop(stage);
        crash.fire("build/duplicated")?;

        // 3. Dependency edges between malicious packages.
        let stage = obs::span!("build/dependency");
        let edges = emit_dependency_edges(&mut self.graph, &self.primary, &dataset.packages);
        obs::counter_add("build.edges_added{relation=dependency}", edges);
        drop(stage);
        crash.fire("build/dependency")?;

        // 4. Similar edges per ecosystem.
        let stage = obs::span!("build/similar");
        let edges =
            self.emit_similar_edges(&dataset.packages, memos, &options.similarity, crash)?;
        obs::counter_add("build.edges_added{relation=similar}", edges);
        drop(stage);
        crash.fire("build/similar")?;

        // 5. Co-existing cliques per report.
        let stage = obs::span!("build/coexisting");
        let edges = emit_coexisting_edges(&mut self.graph, &self.primary, &dataset.reports);
        obs::counter_add("build.edges_added{relation=coexisting}", edges);
        drop(stage);
        crash.fire("build/coexisting")
    }

    /// Stage 4: similar edges and the similarity diagnostics, one
    /// ecosystem at a time in job order. The class tables are laid over
    /// the nodes and served to the graph, which places each node's run
    /// after its stored duplicated and dependency edges and before the
    /// co-existing ones. Returns the pair count, by arithmetic.
    fn emit_similar_edges(
        &mut self,
        packages: &[CollectedPackage],
        memos: &mut [EcoState],
        similarity: &SimilarityConfig,
        crash: &CrashPlan,
    ) -> Result<u64, CrashSignal> {
        self.similarity_diagnostics.clear();
        let mut similar_edges = 0u64;
        let mut served = SimilarNeighbours::new(self.graph.node_count());
        for (eco, entries) in similarity_jobs(packages) {
            let memo = &mut memos[eco_slot(eco)];
            let output = match &memo.output {
                Some(cached) if memo.entries_len == entries.len() => {
                    obs::counter_add("ingest.similarity_reused", 1);
                    Arc::clone(cached)
                }
                _ => {
                    obs::counter_add("ingest.similarity_recomputed", 1);
                    let _span = obs::span!("build/similar/ecosystem={}", eco.display_name());
                    let output =
                        Arc::new(similar_pairs_cached(&entries, similarity, &mut memo.cache));
                    memo.entries_len = entries.len();
                    memo.output = Some(Arc::clone(&output));
                    // The publish boundary: the memo now holds an output
                    // the graph does not carry yet.
                    crash.fire("similar/publish")?;
                    output
                }
            };
            let nodes: Vec<NodeId> = entries.iter().map(|(id, _)| self.primary[id]).collect();
            served.add(&output.pairs, &nodes);
            similar_edges += output.pairs.len() as u64;
            self.similarity_diagnostics.push((eco, output));
        }
        self.graph.serve(Relation::Similar, Arc::new(served));
        Ok(similar_edges)
    }
}

/// The similar relation as the graph serves it: every ecosystem's class
/// table ([`SimilarPairs`]) laid over the graph's nodes, cluster by
/// cluster. A node's neighbours are the members of its cluster whose
/// class verdict toward it (for members before it) or from it (for
/// members after it) is set, in entry order — the order the emitted
/// pairs gave its rows — so the graph walks, counts and looks up similar
/// edges without storing one. It takes a few bytes per clustered node
/// plus the verdict matrices, however many pairs the classes expand to.
#[derive(Debug)]
struct SimilarNeighbours {
    /// Node index → member slot, [`NO_CLUSTER`] when the node is in no
    /// cluster.
    slot: Vec<u32>,
    /// Member slot → node; each cluster's members are contiguous and in
    /// entry order.
    node: Vec<NodeId>,
    /// Member slot → its class's index among its cluster's classes.
    local: Vec<u32>,
    /// Member slot → its number of similar neighbours.
    degree: Vec<u32>,
    /// Member slot → its cluster, numbered across ecosystems.
    cluster: Vec<u32>,
    clusters: Vec<ClusterSpan>,
    /// Every cluster's verdict matrix, row-major: the verdict from class
    /// `x` toward class `y` of a cluster is at `offset + x * classes + y`.
    verdicts: Vec<u8>,
    /// The same matrices transposed, so a member's verdicts *toward* its
    /// class are one contiguous row too.
    transposed: Vec<u8>,
}

/// Where one cluster of [`SimilarNeighbours`] lives.
#[derive(Debug)]
struct ClusterSpan {
    /// Its member slots.
    members: std::ops::Range<usize>,
    /// Its matrices' offset in `verdicts` and `transposed`.
    offset: usize,
    /// Its number of classes: the side of its matrices.
    classes: usize,
}

impl SimilarNeighbours {
    fn new(nodes: usize) -> SimilarNeighbours {
        SimilarNeighbours {
            slot: vec![NO_CLUSTER; nodes],
            node: Vec::new(),
            local: Vec::new(),
            degree: Vec::new(),
            cluster: Vec::new(),
            clusters: Vec::new(),
            verdicts: Vec::new(),
            transposed: Vec::new(),
        }
    }

    /// Adds one ecosystem's table; entry `i` of the table is `nodes[i]`.
    fn add(&mut self, pairs: &SimilarPairs, nodes: &[NodeId]) {
        let members = pairs.members();
        for (c, matrix) in pairs.verdicts().iter().enumerate() {
            let cluster = u32::try_from(self.clusters.len()).expect("graph too large");
            let first = self.node.len();
            for m in members.range(c) {
                let node = nodes[members.entry[m] as usize];
                assert_eq!(
                    self.slot[node.index()],
                    NO_CLUSTER,
                    "a node joins one similarity cluster"
                );
                self.slot[node.index()] = u32::try_from(self.node.len()).expect("graph too large");
                self.node.push(node);
                self.local.push(members.local[m]);
                self.degree.push(members.degree[m]);
                self.cluster.push(cluster);
            }
            let classes = members.classes[c];
            self.clusters.push(ClusterSpan {
                members: first..self.node.len(),
                offset: self.verdicts.len(),
                classes,
            });
            self.verdicts.extend_from_slice(matrix);
            self.transposed.extend(
                (0..classes * classes).map(|i| matrix[i % classes * classes + i / classes]),
            );
        }
    }

    /// The member slot of `node`, if it is in a cluster.
    fn slot_of(&self, node: NodeId) -> Option<usize> {
        match self.slot.get(node.index()) {
            Some(&s) if s != NO_CLUSTER => Some(s as usize),
            _ => None,
        }
    }
}

impl ServedRelation for SimilarNeighbours {
    fn neighbours(&self, node: NodeId, out: &mut Vec<NodeId>) {
        // Most members of a mixed cluster are similar to nobody; only the
        // others scan their cluster.
        let Some(s) = self.slot_of(node).filter(|&s| self.degree[s] > 0) else {
            return;
        };
        let cluster = &self.clusters[self.cluster[s] as usize];
        let row = cluster.offset + self.local[s] as usize * cluster.classes;
        // The verdicts of earlier members' classes toward this member's
        // class, and of its class toward later members' classes.
        let toward = &self.transposed[row..row + cluster.classes];
        let from = &self.verdicts[row..row + cluster.classes];
        let (before, after) = (cluster.members.start..s, s + 1..cluster.members.end);
        out.extend(
            before
                .filter(|&t| toward[self.local[t] as usize] != 0)
                .chain(after.filter(|&t| from[self.local[t] as usize] != 0))
                .map(|t| self.node[t]),
        );
    }

    fn degree(&self, node: NodeId) -> usize {
        self.slot_of(node).map_or(0, |s| self.degree[s] as usize)
    }

    fn contains(&self, a: NodeId, b: NodeId) -> bool {
        match (self.slot_of(a), self.slot_of(b)) {
            (Some(x), Some(y)) if x != y && self.cluster[x] == self.cluster[y] => {
                let (first, second) = (x.min(y), x.max(y));
                let cluster = &self.clusters[self.cluster[first] as usize];
                let at = self.local[first] as usize * cluster.classes + self.local[second] as usize;
                self.verdicts[cluster.offset + at] != 0
            }
            _ => false,
        }
    }
}

/// Stage 1: one node per package/source mention for each package of
/// `packages`, appended in order; the first mention is the package's
/// *primary* node.
fn emit_package_nodes(
    graph: &mut PropertyGraph<MalNode, Relation>,
    primary: &mut HashMap<PackageId, NodeId>,
    nodes_by_pkg: &mut Vec<Vec<NodeId>>,
    packages: &[CollectedPackage],
) {
    for pkg in packages {
        let mut nodes_of_pkg: Vec<NodeId> = Vec::new();
        for (i, &(source, disclosed)) in pkg.mentions.iter().enumerate() {
            let node = graph.add_node(MalNode {
                package: pkg.id.clone(),
                source,
                disclosed,
                hash: pkg.signature,
                path: MalNode::storage_path(&pkg.id, source),
                primary: i == 0,
            });
            if i == 0 {
                primary.insert(pkg.id.clone(), node);
            }
            nodes_of_pkg.push(node);
        }
        nodes_by_pkg.push(nodes_of_pkg);
    }
}

/// Stage 2: duplicated cliques over the nodes of each package. Returns
/// the number of (undirected) edges added.
fn emit_duplicated_edges(
    graph: &mut PropertyGraph<MalNode, Relation>,
    nodes_by_pkg: &[Vec<NodeId>],
) -> u64 {
    let mut duplicated_edges = 0u64;
    for nodes_of_pkg in nodes_by_pkg {
        for a in 0..nodes_of_pkg.len() {
            for b in (a + 1)..nodes_of_pkg.len() {
                graph.add_undirected_edge(nodes_of_pkg[a], nodes_of_pkg[b], Relation::Duplicated);
                duplicated_edges += 1;
            }
        }
    }
    duplicated_edges
}

/// Stage 3: dependency edges between malicious packages of the corpus
/// (legitimate dependencies are dropped). Returns the edge count.
fn emit_dependency_edges(
    graph: &mut PropertyGraph<MalNode, Relation>,
    primary: &HashMap<PackageId, NodeId>,
    packages: &[CollectedPackage],
) -> u64 {
    let mut by_name: HashMap<(Ecosystem, &str), Vec<&PackageId>> = HashMap::new();
    for pkg in packages {
        by_name
            .entry((pkg.id.ecosystem(), pkg.id.name().as_str()))
            .or_default()
            .push(&pkg.id);
    }
    // `PropertyGraph::has_edge` is a linear scan of the adjacency list;
    // probing it inside these nested loops is quadratic-times-degree on
    // large reports. A local seen-pair set gives the same dedup in O(1).
    let mut seen_dependency: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut dependency_edges = 0u64;
    for pkg in packages {
        let Some(archive) = &pkg.archive else {
            continue;
        };
        let from = primary[&pkg.id];
        for dep in &archive.dependencies {
            let Some(candidates) = by_name.get(&(pkg.id.ecosystem(), dep.as_str())) else {
                continue; // a legitimate dependency: dropped
            };
            for target in candidates {
                if **target == pkg.id {
                    continue;
                }
                let to = primary[*target];
                if seen_dependency.insert((from, to)) {
                    graph.add_edge(from, to, Relation::Dependency);
                    dependency_edges += 1;
                }
            }
        }
    }
    dependency_edges
}

/// The per-ecosystem similarity jobs — `(ecosystem, entries)` in
/// `Ecosystem::ALL` order, ecosystems with fewer than two available
/// packages dropped. Entries are corpus-ordered, so under append-only
/// corpus growth a job's entry list only ever gains a suffix — an
/// unchanged length implies an unchanged list.
fn similarity_jobs(packages: &[CollectedPackage]) -> Vec<(Ecosystem, Vec<(PackageId, &str)>)> {
    Ecosystem::ALL
        .iter()
        .map(|&eco| {
            let entries: Vec<(PackageId, &str)> = packages
                .iter()
                .filter(|p| p.id.ecosystem() == eco)
                .filter_map(|p| p.archive.as_ref().map(|a| (p.id.clone(), a.code.as_str())))
                .collect();
            (eco, entries)
        })
        .filter(|(_, entries)| entries.len() >= 2)
        .collect()
}

/// The entry count of each similarity job of `packages`, in job order:
/// the lengths a memo must cover for the similar stage to reuse it.
pub(crate) fn similarity_job_sizes(packages: &[CollectedPackage]) -> Vec<(Ecosystem, usize)> {
    similarity_jobs(packages)
        .into_iter()
        .map(|(eco, entries)| (eco, entries.len()))
        .collect()
}

/// Stage 5: co-existing cliques per report. Externally produced corpora
/// can name the same package twice in one report; deduping here keeps
/// the clique irreflexive (`add_undirected_edge` asserts a ≠ b) for
/// both `collect` and `import_json` inputs. Cross-report repeats are
/// deduped by the seen-pair set, replacing the `has_edge` linear scan.
fn emit_coexisting_edges(
    graph: &mut PropertyGraph<MalNode, Relation>,
    primary: &HashMap<PackageId, NodeId>,
    reports: &[CollectedReport],
) -> u64 {
    let mut seen_coexisting: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut coexisting_edges = 0u64;
    for report in reports {
        let mut in_report: HashSet<NodeId> = HashSet::new();
        let nodes: Vec<NodeId> = report
            .packages
            .iter()
            .filter_map(|id| primary.get(id).copied())
            .filter(|node| in_report.insert(*node))
            .collect();
        for a in 0..nodes.len() {
            for b in (a + 1)..nodes.len() {
                if seen_coexisting.insert((nodes[a], nodes[b])) {
                    seen_coexisting.insert((nodes[b], nodes[a]));
                    graph.add_undirected_edge(nodes[a], nodes[b], Relation::Coexisting);
                    coexisting_edges += 1;
                }
            }
        }
    }
    coexisting_edges
}

/// Builds MALGRAPH from a collected corpus.
///
/// The construction (paper §III-A):
/// 1. one node per package/source mention; the first mention is the
///    package's *primary* node;
/// 2. **duplicated** edges: clique over the nodes of the same package
///    (same artifact signature, or name+version when unavailable);
/// 3. **dependency** edges: metadata dependencies pointing at another
///    *malicious* package of the corpus (legitimate dependencies are
///    dropped);
/// 4. **similar** edges: the AST→embedding→K-Means pipeline per
///    ecosystem, over available packages, served from its class table;
/// 5. **co-existing** edges: clique over the packages named by the same
///    security report.
///
/// This is `MalGraph::emit` over the whole corpus, from an empty graph
/// and fresh similarity memos: the very sequence the incremental path
/// runs per delta and checkpoint restore runs from a snapshot. The
/// corpus is borrowed, never cloned.
pub fn build(dataset: &CollectedDataset, options: &BuildOptions) -> MalGraph {
    let _build_span = obs::span!("build");
    let mut graph = MalGraph::empty();
    let mut nodes_by_pkg = Vec::with_capacity(dataset.packages.len());
    graph
        .emit(
            dataset,
            0,
            &mut nodes_by_pkg,
            &mut EcoState::fresh(),
            options,
            &CrashPlan::none(),
        )
        .expect("an unarmed crash plan never fires");
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::collect;
    use registry_sim::{World, WorldConfig};

    fn built() -> (World, CollectedDataset, MalGraph) {
        let world = World::generate(WorldConfig::small(31));
        let dataset = collect(&world);
        let graph = build(&dataset, &BuildOptions::default());
        (world, dataset, graph)
    }

    #[test]
    fn node_count_equals_mention_count() {
        let (world, _, graph) = built();
        assert_eq!(graph.graph.node_count(), world.mentions.len());
    }

    #[test]
    fn every_package_has_exactly_one_primary_node() {
        let (_, dataset, graph) = built();
        assert_eq!(graph.package_count(), dataset.packages.len());
        let primaries = graph.graph.nodes().filter(|(_, n)| n.primary).count();
        assert_eq!(primaries, dataset.packages.len());
    }

    #[test]
    fn duplicated_groups_are_multi_source_packages() {
        let (_, dataset, graph) = built();
        let dg = graph.groups(Relation::Duplicated);
        let multi = dataset
            .packages
            .iter()
            .filter(|p| p.mentions.len() >= 2)
            .count();
        assert_eq!(dg.len(), multi, "one DG per multi-source package");
        for group in dg {
            let first = &graph.graph.node(group[0]).package;
            assert!(
                group.iter().all(|&n| &graph.graph.node(n).package == first),
                "a DG must contain one package only"
            );
        }
    }

    #[test]
    fn dependency_edges_link_known_malicious_fronts() {
        let (world, _, graph) = built();
        let deg = graph.groups(Relation::Dependency);
        // The world always plans dependency campaigns; at least one front
        // and its library must both be in the corpus and linked.
        assert!(
            !deg.is_empty(),
            "dependency campaigns must produce DeG groups"
        );
        for group in deg {
            assert!(group.len() >= 2);
        }
        // Validate one edge against ground truth: the target of every
        // dependency edge is a dependency of the source.
        let mut checked = 0;
        for edge in graph
            .graph
            .edges()
            .filter(|e| e.label == Relation::Dependency)
        {
            let from = graph.graph.node(edge.from);
            let to = graph.graph.node(edge.to);
            let truth = world
                .packages
                .iter()
                .find(|p| p.id == from.package)
                .expect("exists");
            assert!(truth.dependencies.contains(to.package.name()));
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn similar_edges_only_between_available_packages() {
        let (_, dataset, graph) = built();
        for edge in graph.graph.edges().filter(|e| e.label == Relation::Similar) {
            let node = graph.graph.node(edge.from);
            let pkg = dataset.get(&node.package).expect("exists");
            assert!(pkg.is_available(), "{} is not available", node.package);
        }
    }

    #[test]
    fn similar_groups_are_dominated_by_true_campaigns() {
        let (world, _, graph) = built();
        let sg = graph.groups(Relation::Similar);
        assert!(!sg.is_empty(), "similar campaigns must produce SGs");
        // Majority label purity: most members of each sizable group share
        // the campaign that truly generated them.
        let mut pure = 0usize;
        let mut sized = 0usize;
        for group in sg.iter().filter(|g| g.len() >= 4) {
            sized += 1;
            let mut counts: HashMap<Option<registry_sim::CampaignIdx>, usize> = HashMap::new();
            for &n in group {
                let id = &graph.graph.node(n).package;
                let truth = world.packages.iter().find(|p| p.id == *id).expect("exists");
                *counts.entry(truth.campaign).or_default() += 1;
            }
            let max = counts.values().max().copied().unwrap_or(0);
            if max * 10 >= group.len() * 7 {
                pure += 1;
            }
        }
        assert!(sized > 0, "no sizable similar groups formed");
        assert!(
            pure * 10 >= sized * 6,
            "only {pure}/{sized} sizable SGs are campaign-pure"
        );
    }

    #[test]
    fn coexisting_groups_come_from_reports() {
        let (_, dataset, graph) = built();
        let cg = graph.groups(Relation::Coexisting);
        let multi_reports = dataset
            .reports
            .iter()
            .filter(|r| r.packages.len() >= 2)
            .count();
        assert!(!cg.is_empty());
        assert!(cg.len() <= multi_reports, "chained reports merge CGs");
    }

    #[test]
    fn table2_stats_have_symmetric_degrees() {
        let (_, _, graph) = built();
        for relation in Relation::ALL {
            let stats = graph.relation_stats(relation);
            assert!(
                (stats.avg_out_degree - stats.avg_in_degree).abs() < 1e-9
                    || relation == Relation::Dependency,
                "{relation}: asymmetric degrees"
            );
        }
        // Duplicated graph must be non-trivial.
        let dg = graph.relation_stats(Relation::Duplicated);
        assert!(dg.nodes > 0);
        assert!(
            dg.edges >= dg.nodes,
            "cliques have at least n edges (directed)"
        );
    }

    #[test]
    fn duplicated_package_in_report_builds_without_panicking() {
        let (_, mut dataset, _) = built();
        // A report naming the same package twice used to trip the
        // irreflexivity assert in `add_undirected_edge`.
        let report = dataset
            .reports
            .iter_mut()
            .find(|r| !r.packages.is_empty())
            .expect("reports exist");
        let dup = report.packages[0].clone();
        report.packages.push(dup);
        let graph = build(&dataset, &BuildOptions::default());
        assert!(graph.package_count() > 0);
    }

    #[test]
    fn dependency_and_coexisting_edges_are_deduplicated() {
        let (_, _, graph) = built();
        for relation in [Relation::Dependency, Relation::Coexisting] {
            let edges: Vec<(NodeId, NodeId)> = graph
                .graph
                .edges()
                .filter(|e| e.label == relation)
                .map(|e| (e.from, e.to))
                .collect();
            let distinct: std::collections::HashSet<_> = edges.iter().copied().collect();
            assert_eq!(
                edges.len(),
                distinct.len(),
                "{relation:?} contains duplicate directed edges"
            );
        }
    }

    #[test]
    fn similarity_diagnostics_cover_major_ecosystems() {
        let (_, _, graph) = built();
        assert!(graph
            .similarity_diagnostics
            .iter()
            .any(|(eco, _)| *eco == Ecosystem::PyPI));
    }
}
