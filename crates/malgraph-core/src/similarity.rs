//! The similar-edge pipeline: source code → AST → embedding → K-Means →
//! cosine-refined similar pairs (paper §III-A).
//!
//! # One pipeline
//!
//! [`similar_pairs_cached`] is the pipeline. [`similar_pairs`] runs it
//! with a fresh [`SimilarityCache`], which is what `build` does for each
//! ecosystem; the incremental ingestion path instead carries one cache
//! per ecosystem across corpus deltas. Either way the expensive work
//! runs once per distinct piece of content, because malicious packages
//! reuse code (flood campaigns republish the same artifact under
//! hundreds of names):
//!
//! * **embedding memo** — parse + embed runs once per package ever
//!   seen; a re-run after a 10% corpus delta embeds only the new
//!   packages, and the pipeline borrows the memoised vectors instead of
//!   cloning them per window. Sound because package code is immutable
//!   once collected and `embed_sparse_into` output is independent of
//!   buffer history (the same property the chunked fan-out already
//!   relies on). The memo keys on [`PackageId`], so the entries of one
//!   call must carry distinct ids (`collect` and `import_json` both
//!   guarantee it).
//! * **source interning** — the embedding is a pure function of the
//!   source text, so a never-seen package whose code is byte-identical
//!   to an already-embedded one, earlier in the same call or in an
//!   earlier one, skips parse + embed entirely; the memo stores the
//!   exact source for the equality check, so a hash collision cannot
//!   conflate distinct code.
//! * **distinct-content interning** — each embedding is interned
//!   against every vector ever seen (hash-bucketed with exact bit
//!   comparison), so packages with bitwise-identical embeddings share
//!   one persistent *vid* and one canonical stored vector across
//!   windows.
//! * **collapsed refinement** — within a cluster, every member of a vid
//!   shares the same row bytes, so the screen + dot verdict is computed
//!   once per oriented pair of *distinct contents* instead of once per
//!   member pair (a flood cluster holds thousands of copies of a few
//!   artifacts, collapsing the O(|c|²) walk to O(G²)); orientations
//!   whose nested-loop range is provably empty are skipped outright. A
//!   cross-window decision memo was tried and reverted: at the observed
//!   ~55% hit rate the hash-map traffic on a multi-million entry table
//!   costs more than the O(dim) screens it saves.
//! * **class table** — the output keeps those per-cluster verdicts with
//!   each entry's cluster and content class ([`SimilarPairs`]) instead
//!   of expanding them into member pairs: the pairs are counted by
//!   arithmetic, and the graph serves the similar edges from the table.
//!
//! The K-Means schedule is *not* cached: clustering is a global
//! property of the grown corpus, and a warm-start from the previous
//! window's centroids would change the bits.
//!
//! The unit tests keep the simplest statement of the pipeline as its
//! reference: parse and embed every entry, run the same schedule, then
//! test every member pair of each cluster with the exact dense dot, on
//! one thread, with no screen. Cold, warm and grown caches must expand
//! to its pair list bit for bit under every kernel and thread count.
//!
//! # Determinism contract
//!
//! The pipeline is deterministic for a given input and config, on any
//! machine, at any worker count, and whatever the cache already holds:
//!
//! * the K-Means engine guarantees bitwise-identical clusterings at any
//!   thread count (fixed chunk boundaries, in-index-order merging — see
//!   `cluster`'s crate docs);
//! * every fan-out here keys its partial results by input index
//!   (embedding misses, refinement clusters) and merges them in that
//!   index order, never in completion order.
//!
//! Future parallelism must keep both properties: work may be *scheduled*
//! freely, but results must be *combined* in an order derived from the
//! input alone.

use cluster::{kmeans_points, kmeans_warm_points, KMeansConfig, KMeansResult, Kernel, Points};
use embed::{EmbedBuffer, Embedder, SparseEmbedding};
use oss_types::PackageId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Tuning knobs for the similarity pipeline.
#[derive(Debug, Clone)]
pub struct SimilarityConfig {
    /// Embedding dimensionality. The paper uses 3072
    /// (`text-embedding-3-large`); the default is 1024, which the
    /// dimension ablation bench shows recovers the same groups at a
    /// fraction of the cost (below ~512, hash collisions inflate
    /// cross-lineage similarity and groups start to merge).
    pub dim: usize,
    /// Minimum cosine similarity for a similar edge *within* a K-Means
    /// cluster. K-Means alone assigns every point somewhere; the paper
    /// handles the resulting false positives by manual inspection
    /// (§III-C) — this threshold is the automated stand-in.
    pub threshold: f32,
    /// Relative inertia improvement below which the grow-k schedule
    /// stops ("centroids of newly formed clusters do not change").
    pub min_improvement: f32,
    /// Upper bound on k.
    pub max_k: usize,
    /// Geometric growth factor of the k schedule. `1.0` reproduces the
    /// paper's k → k+1 schedule; the default 1.3 is the documented
    /// speed-up for large corpora (same stopping rule).
    pub growth: f64,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
    /// Worker threads for the embed, assignment and refinement fan-outs;
    /// `0` means `available_parallelism`. Any value yields identical
    /// output (see the module-level determinism contract).
    pub threads: usize,
    /// Assignment/refinement kernel. Every [`Kernel`] produces
    /// bitwise-identical output; the default enables the cache-tiled
    /// sparse kernels with the certified i8 screen.
    pub kernel: Kernel,
}

impl Default for SimilarityConfig {
    fn default() -> Self {
        SimilarityConfig {
            dim: 1024,
            threshold: 0.92,
            min_improvement: 0.10,
            max_k: 256,
            growth: 1.3,
            seed: 0x51,
            threads: 0,
            kernel: Kernel::default(),
        }
    }
}

impl SimilarityConfig {
    /// The paper's exact configuration: 3072 dimensions, k growing by 1.
    pub fn paper() -> Self {
        SimilarityConfig {
            dim: embed::PAPER_DIM,
            growth: 1.0,
            ..SimilarityConfig::default()
        }
    }
}

/// Output of the pipeline: similar pairs plus diagnostics.
#[derive(Debug, Clone)]
pub struct SimilarityOutput {
    /// Unordered similar pairs (indices into the input slice), kept as
    /// content classes.
    pub pairs: SimilarPairs,
    /// The k selected by the schedule.
    pub chosen_k: usize,
    /// `(k, inertia)` trace of the schedule, for the ablation bench.
    pub trace: Vec<(usize, f32)>,
}

/// Marks a table row in no cluster (an unparseable entry, or every
/// entry when there were too few vectors to cluster).
pub(crate) const NO_CLUSTER: u32 = u32::MAX;

/// The similar pairs of one ecosystem, kept as content classes.
///
/// A flood campaign republishes one artifact under thousands of names,
/// so millions of member pairs copy a few hundred facts. The table holds
/// the facts:
///
/// * per entry, its K-Means cluster and its *content class*, or
///   [`NO_CLUSTER`] for both. Classes number the distinct vector
///   contents by first appearance in entry order, so the table does not
///   depend on what the embedding cache held;
/// * per cluster, the oriented verdict matrix over the cluster's classes
///   in first-appearance order within the cluster, row-major, `1` for
///   similar. It is stored as the refinement computed it: the
///   sparse·dense dot is not guaranteed to be bitwise symmetric, and an
///   orientation no member pair consumes stays `0`.
///
/// Member pair `(a, b)` with `a` before `b` in one cluster is similar
/// exactly when the verdict for (class of `a` → class of `b`) is set.
/// Walking the clusters in index order, and each cluster's members with
/// the nested `a < b` loop, lists the pairs in the pipeline's order.
///
/// [`SimilarPairs::len`] is arithmetic over the table. Reading the pairs
/// themselves ([`SimilarPairs::iter`], `==` between tables that differ,
/// `&`-iteration) expands them once into a memo; production code never
/// does — the graph serves the relation from the table.
#[derive(Clone)]
pub struct SimilarPairs {
    cluster: Vec<u32>,
    class: Vec<u32>,
    verdicts: Vec<Vec<u8>>,
    len: usize,
    memo: OnceLock<Vec<(usize, usize)>>,
}

/// A table's clusters as member lists:
/// `entry[start[c]..start[c + 1]]` are cluster `c`'s entries in
/// ascending order, with the index of each one's class among the
/// cluster's `classes[c]` classes (first appearance) and its number of
/// similar partners.
pub(crate) struct Members {
    pub(crate) start: Vec<usize>,
    pub(crate) entry: Vec<u32>,
    pub(crate) local: Vec<u32>,
    pub(crate) classes: Vec<usize>,
    pub(crate) degree: Vec<u32>,
}

impl Members {
    /// The member range of cluster `c`.
    pub(crate) fn range(&self, c: usize) -> std::ops::Range<usize> {
        self.start[c]..self.start[c + 1]
    }
}

impl SimilarPairs {
    /// A table over `entries` entries that clusters none of them.
    pub(crate) fn unclustered(entries: usize) -> SimilarPairs {
        SimilarPairs::from_parts(
            vec![NO_CLUSTER; entries],
            vec![NO_CLUSTER; entries],
            Vec::new(),
        )
        .expect("an empty table is consistent")
    }

    /// A table from its parts, checked for consistency; the error says
    /// which part is wrong. Every allocation is sized by the parts
    /// themselves, never by a count they declare.
    pub(crate) fn from_parts(
        cluster: Vec<u32>,
        class: Vec<u32>,
        verdicts: Vec<Vec<u8>>,
    ) -> Result<SimilarPairs, String> {
        if cluster.len() != class.len() {
            return Err(format!(
                "{} cluster ids for {} class ids",
                cluster.len(),
                class.len()
            ));
        }
        let mut classes = 0u32;
        for (i, (&c, &k)) in cluster.iter().zip(&class).enumerate() {
            match (c == NO_CLUSTER, k == NO_CLUSTER) {
                (true, true) => {}
                (false, false) => {
                    if c as usize >= verdicts.len() {
                        return Err(format!("entry {i} is in cluster {c} of {}", verdicts.len()));
                    }
                    if k > classes {
                        return Err(format!(
                            "entry {i} has class {k}, but only {classes} appeared before it"
                        ));
                    }
                    classes += u32::from(k == classes);
                }
                _ => return Err(format!("entry {i} has a cluster or a class, not both")),
            }
        }
        let mut table = SimilarPairs {
            cluster,
            class,
            verdicts,
            len: 0,
            memo: OnceLock::new(),
        };
        let members = table.members_unchecked(classes as usize);
        for (c, matrix) in table.verdicts.iter().enumerate() {
            let g = members.classes[c];
            if matrix.len() != g * g {
                return Err(format!(
                    "cluster {c} has {g} classes but a verdict matrix of {} entries",
                    matrix.len()
                ));
            }
            if matrix.iter().any(|&v| v > 1) {
                return Err(format!("cluster {c} has a verdict other than 0 or 1"));
            }
        }
        let members = table.with_degrees(members);
        table.len = members.degree.iter().map(|&d| d as usize).sum::<usize>() / 2;
        Ok(table)
    }

    /// Number of similar pairs, by arithmetic over the table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no pair is similar.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pairs in the pipeline's order, expanded into a memo on first
    /// use.
    pub fn iter(&self) -> std::slice::Iter<'_, (usize, usize)> {
        self.memo
            .get_or_init(|| {
                let mut pairs = Vec::with_capacity(self.len);
                self.for_each_pair(|a, b| pairs.push((a, b)));
                pairs
            })
            .iter()
    }

    /// Number of table rows: the entry count of the pipeline run.
    pub(crate) fn entries(&self) -> usize {
        self.cluster.len()
    }

    /// Per entry: its cluster, or [`NO_CLUSTER`].
    pub(crate) fn clusters(&self) -> &[u32] {
        &self.cluster
    }

    /// Per entry: its content class, or [`NO_CLUSTER`].
    pub(crate) fn classes(&self) -> &[u32] {
        &self.class
    }

    /// Per cluster: its oriented verdict matrix.
    pub(crate) fn verdicts(&self) -> &[Vec<u8>] {
        &self.verdicts
    }

    /// The clusters as member lists, with every member's degree.
    pub(crate) fn members(&self) -> Members {
        let classes = self
            .class
            .iter()
            .filter(|&&k| k != NO_CLUSTER)
            .max()
            .map_or(0, |&k| k as usize + 1);
        self.with_degrees(self.members_unchecked(classes))
    }

    /// The member lists of a table whose cluster ids are in range and
    /// whose classes are below `classes`; degrees are left at 0.
    fn members_unchecked(&self, classes: usize) -> Members {
        let clusters = self.verdicts.len();
        let mut start = vec![0usize; clusters + 1];
        for &c in self.cluster.iter().filter(|&&c| c != NO_CLUSTER) {
            start[c as usize + 1] += 1;
        }
        for c in 0..clusters {
            start[c + 1] += start[c];
        }
        let mut cursor = start.clone();
        let mut entry = vec![0u32; start[clusters]];
        let mut class = vec![0u32; start[clusters]];
        for (i, (&c, &k)) in self.cluster.iter().zip(&self.class).enumerate() {
            if c != NO_CLUSTER {
                entry[cursor[c as usize]] = i as u32;
                class[cursor[c as usize]] = k;
                cursor[c as usize] += 1;
            }
        }
        // Renumber each cluster's classes by first appearance within it.
        let mut seen_in = vec![NO_CLUSTER; classes];
        let mut local_of = vec![0u32; classes];
        let mut counts = vec![0usize; clusters];
        for c in 0..clusters {
            for k in &mut class[start[c]..start[c + 1]] {
                let slot = *k as usize;
                if seen_in[slot] != c as u32 {
                    seen_in[slot] = c as u32;
                    local_of[slot] = counts[c] as u32;
                    counts[c] += 1;
                }
                *k = local_of[slot];
            }
        }
        let members = entry.len();
        Members {
            start,
            entry,
            local: class,
            classes: counts,
            degree: vec![0; members],
        }
    }

    /// Fills every member's degree: the members before it whose class's
    /// verdict toward its class is set, plus the members after it toward
    /// whose class its class's verdict is set. Running class counts make
    /// this O(members × classes) per cluster, never O(pairs).
    fn with_degrees(&self, mut members: Members) -> Members {
        for (c, matrix) in self.verdicts.iter().enumerate() {
            let g = members.classes[c];
            let range = members.range(c);
            let local = &members.local[range.clone()];
            let degree = &mut members.degree[range];
            let mut seen = vec![0u32; g];
            for (m, &y) in local.iter().enumerate() {
                let y = y as usize;
                degree[m] = (0..g).map(|x| seen[x] * u32::from(matrix[x * g + y])).sum();
                seen[y] += 1;
            }
            seen.iter_mut().for_each(|n| *n = 0);
            for (m, &x) in local.iter().enumerate().rev() {
                let x = x as usize;
                let row = &matrix[x * g..][..g];
                degree[m] += (0..g).map(|y| seen[y] * u32::from(row[y])).sum::<u32>();
                seen[x] += 1;
            }
        }
        members
    }

    /// Calls `f(a, b)` for every similar pair, in the pipeline's order.
    fn for_each_pair(&self, mut f: impl FnMut(usize, usize)) {
        let members = self.members();
        for (c, matrix) in self.verdicts.iter().enumerate() {
            let g = members.classes[c];
            let range = members.range(c);
            let (entry, local) = (&members.entry[range.clone()], &members.local[range]);
            for a in 0..entry.len() {
                let row = &matrix[local[a] as usize * g..][..g];
                for b in (a + 1)..entry.len() {
                    if row[local[b] as usize] != 0 {
                        f(entry[a] as usize, entry[b] as usize);
                    }
                }
            }
        }
    }
}

impl PartialEq for SimilarPairs {
    /// Equal pair lists. Equal tables have equal lists; other tables are
    /// compared by expanding both.
    fn eq(&self, other: &SimilarPairs) -> bool {
        self.len == other.len
            && ((self.cluster == other.cluster
                && self.class == other.class
                && self.verdicts == other.verdicts)
                || self.iter().eq(other.iter()))
    }
}

impl fmt::Debug for SimilarPairs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimilarPairs")
            .field("len", &self.len)
            .field("entries", &self.cluster.len())
            .field("clusters", &self.verdicts.len())
            .finish()
    }
}

impl<'a> IntoIterator for &'a SimilarPairs {
    type Item = &'a (usize, usize);
    type IntoIter = std::slice::Iter<'a, (usize, usize)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Persistent state [`similar_pairs_cached`] carries across corpus
/// deltas:
///
/// * the per-package embedding memo, stored as an interned vid (`None`
///   records a parse failure, so broken code is not re-parsed every
///   window either);
/// * the source interner: byte-identical code maps to its memoised
///   verdict without being parsed or embedded at all;
/// * the distinct-content interner: packages whose embeddings are
///   bitwise identical share one persistent vid and one canonical
///   stored vector.
///
/// Sound because a collected package's code is immutable (the memo is
/// keyed by [`PackageId`] and never invalidated, only extended) and
/// the embedding is a pure function of the source text and `dim` (one
/// config per cache — the ingestion pipeline never varies the config
/// mid-stream).
#[derive(Debug, Default)]
pub struct SimilarityCache {
    /// PackageId → interned vid of its embedding; `None` records a
    /// parse failure.
    embedded: HashMap<PackageId, Option<u32>>,
    /// vid → canonical embedding (one owned copy per distinct content,
    /// however many packages carry it).
    reps: Vec<SparseEmbedding>,
    /// Embedding-content hash → vids carrying that hash.
    intern: HashMap<u64, Vec<u32>>,
    /// Source-text hash → `(exact source, verdict)` bucket: the stored
    /// source makes the lookup an exact byte comparison.
    sources: HashMap<u64, Vec<(String, Option<u32>)>>,
}

impl SimilarityCache {
    /// An empty cache.
    pub fn new() -> SimilarityCache {
        SimilarityCache::default()
    }

    /// Number of memoised packages (including parse failures).
    pub fn len(&self) -> usize {
        self.embedded.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.embedded.is_empty()
    }

    /// Interns a vector's content, returning its persistent vid.
    fn intern_vid(&mut self, vector: &SparseEmbedding) -> u32 {
        let bucket = self.intern.entry(content_hash(vector)).or_default();
        match bucket
            .iter()
            .copied()
            .find(|&v| content_equal(&self.reps[v as usize], vector))
        {
            Some(v) => v,
            None => {
                let v = u32::try_from(self.reps.len()).expect("corpus too large");
                self.reps.push(vector.clone());
                bucket.push(v);
                v
            }
        }
    }

    /// Looks up a never-seen package's source text; a byte-exact match
    /// serves the memoised verdict without parsing.
    fn source_verdict(&self, code: &str) -> Option<Option<u32>> {
        self.sources
            .get(&source_hash(code))?
            .iter()
            .find(|(s, _)| s == code)
            .map(|(_, verdict)| *verdict)
    }

    /// Records a freshly computed verdict under its source text.
    fn intern_source(&mut self, code: &str, verdict: Option<u32>) {
        let bucket = self.sources.entry(source_hash(code)).or_default();
        if !bucket.iter().any(|(s, _)| s == code) {
            bucket.push((code.to_string(), verdict));
        }
    }
}

/// Hash of a vector's exact content (indices plus value bits).
fn content_hash(vector: &SparseEmbedding) -> u64 {
    let mut hasher = DefaultHasher::new();
    vector.indices().hash(&mut hasher);
    for &x in vector.values() {
        x.to_bits().hash(&mut hasher);
    }
    hasher.finish()
}

/// Bitwise content equality of two sparse vectors.
fn content_equal(a: &SparseEmbedding, b: &SparseEmbedding) -> bool {
    a.indices() == b.indices()
        && a.values().len() == b.values().len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Hash of a package's source text, bucketing the source interner.
fn source_hash(code: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    code.hash(&mut hasher);
    hasher.finish()
}

/// Resolves a configured worker count (`0` = `available_parallelism`),
/// never exceeding the number of work items.
fn resolve_threads(requested: usize, items: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    threads.clamp(1, items.max(1))
}

/// Phase 1: parses and embeds only source text the cache has never
/// seen. Never-seen *packages* whose code is byte-identical to a
/// memoised source (or to an earlier entry in this same batch) are
/// served the interned verdict without being parsed; the remaining true
/// misses are fanned out in miss-list order across crossbeam scoped
/// threads and merged by index, then both their embedding content and
/// their source are interned. Each worker reuses one `EmbedBuffer`
/// across its chunk and emits *sparse* embeddings (a feature-hashed
/// module touches a few hundred of `dim` buckets). The caller assembles
/// `(vectors, owners)` from the memo by reference — no per-window clone
/// of the whole corpus.
fn embed_misses(
    entries: &[(PackageId, &str)],
    config: &SimilarityConfig,
    cache: &mut SimilarityCache,
) {
    // Triage: memoised id → done; memoised source → copy the verdict;
    // repeated in-batch source → defer to the first occurrence.
    let mut misses: Vec<usize> = Vec::new();
    let mut dup_of: Vec<(usize, usize)> = Vec::new();
    let mut pending: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut id_hits = 0u64;
    let mut source_hits = 0u64;
    for (i, (id, code)) in entries.iter().enumerate() {
        if cache.embedded.contains_key(id) {
            id_hits += 1;
            continue;
        }
        if let Some(verdict) = cache.source_verdict(code) {
            cache.embedded.insert(id.clone(), verdict);
            source_hits += 1;
            continue;
        }
        let bucket = pending.entry(source_hash(code)).or_default();
        match bucket
            .iter()
            .copied()
            .find(|&m| entries[misses[m]].1 == *code)
        {
            Some(m) => {
                dup_of.push((i, m));
                source_hits += 1;
            }
            None => {
                bucket.push(misses.len());
                misses.push(i);
            }
        }
    }
    obs::counter_add("similarity.embed_cache_hits", id_hits);
    obs::counter_add("similarity.embed_source_hits", source_hits);
    obs::counter_add("similarity.embed_cache_misses", misses.len() as u64);
    if misses.is_empty() {
        return;
    }
    let embedder = Embedder::new(config.dim);
    let threads = resolve_threads(config.threads, misses.len());
    let chunk_size = misses.len().div_ceil(threads.max(1)).max(1);
    let embedded: Vec<(usize, Option<SparseEmbedding>)> = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in misses.chunks(chunk_size) {
            let embedder = &embedder;
            handles.push(scope.spawn(move |_| {
                let mut buf = EmbedBuffer::new();
                let mut out = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    let vector = minilang::parse(entries[i].1)
                        .ok()
                        .map(|module| embedder.embed_sparse_into(&module, &mut buf));
                    out.push((i, vector));
                }
                out
            }));
        }
        let mut all = Vec::with_capacity(misses.len());
        for handle in handles {
            all.extend(handle.join().expect("embed worker must not panic"));
        }
        all
    })
    .expect("crossbeam scope");
    let mut verdicts: Vec<Option<u32>> = Vec::with_capacity(misses.len());
    for (i, vector) in embedded {
        let verdict = vector.as_ref().map(|v| cache.intern_vid(v));
        cache.embedded.insert(entries[i].0.clone(), verdict);
        cache.intern_source(entries[i].1, verdict);
        verdicts.push(verdict);
    }
    for (i, m) in dup_of {
        cache.embedded.insert(entries[i].0.clone(), verdicts[m]);
    }
}

/// Phase 2: grow-k K-Means (paper §III-A: start at 3, grow until
/// stable). Each step warm-starts from the previous step's centroids
/// and k-means++-seeds only the `next_k - k` new ones, so the schedule
/// pays incremental refinement instead of a full re-convergence at
/// every k.
fn run_schedule(points: &Points, config: &SimilarityConfig) -> (KMeansResult, Vec<(usize, f32)>) {
    let phase = obs::span!("similarity/schedule");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let kconfig = KMeansConfig {
        threads: config.threads,
        kernel: config.kernel,
        ..KMeansConfig::default()
    };
    let mut k = 3usize.min(points.n());
    let mut best = kmeans_points(points, k, &kconfig, &mut rng);
    let mut trace = vec![(k, best.inertia)];
    let max_k = config.max_k.min(points.n());
    while k < max_k {
        let next_k = (((k as f64) * config.growth) as usize)
            .max(k + 1)
            .min(max_k);
        let next = kmeans_warm_points(points, &best.centroids, next_k - k, &kconfig, &mut rng);
        trace.push((next_k, next.inertia));
        let improvement = if best.inertia <= f32::EPSILON {
            0.0
        } else {
            (best.inertia - next.inertia) / best.inertia
        };
        if improvement < config.min_improvement {
            break;
        }
        best = next;
        k = next_k;
    }
    obs::counter_add("similarity.schedule_steps", trace.len() as u64);
    drop(phase);
    (best, trace)
}

/// Distributes clusters largest-first onto the least-loaded of
/// `threads` buckets (LPT on the pair count), so one flood cluster
/// cannot serialize the tail.
fn lpt_buckets(clusters: &[Vec<usize>], threads: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..clusters.len()).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(clusters[c].len()));
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); threads];
    let mut loads: Vec<u64> = vec![0; threads];
    for c in order {
        let w = (0..threads)
            .min_by_key(|&w| loads[w])
            .expect("threads >= 1");
        let size = clusters[c].len() as u64;
        loads[w] += size * size.saturating_sub(1) / 2;
        buckets[w].push(c);
    }
    buckets
}

/// Groups a cluster's member positions by vid, in first-appearance
/// order; each group holds ascending member positions sharing one
/// distinct vector content.
fn group_by_vid(members: &[usize], vid_of: &[u32]) -> Vec<Vec<usize>> {
    let mut group_of: HashMap<u32, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (pos, &m) in members.iter().enumerate() {
        let v = vid_of[m];
        let g = *group_of.entry(v).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(pos);
    }
    groups
}

/// Phase 3: the class table ([`SimilarPairs`]) — each cluster's
/// cosine verdicts, paying each screen + dot once per *oriented pair of
/// distinct vector contents* instead of once per member pair. Embedder
/// outputs are L2-normalized, so the similarity is a single dot product;
/// with the quantized kernel the certified i8 upper bound proves most
/// decisions `< threshold` before the exact dot runs (survivors are
/// rescored exactly — see `cluster::matrix`). The screen is only sound
/// for `threshold > -1`: at `threshold ≤ -1` the exact path's clamp to
/// `-1` could lift a provably-small dot back over the threshold. Workers
/// are bounded by the configured thread count, clusters are distributed
/// largest-first onto the least-loaded worker, and each worker tags its
/// output with the cluster index, so the table does not depend on the
/// worker count or scheduling.
///
/// Soundness of the collapse: the decision for `(ia, ib)` is a pure
/// function of the bytes of rows `ia` and `ib` (quant scales, l1/norm
/// terms and the dots are all row-content-derived), so every member
/// pair with the same `(vid_from, vid_to)` orientation shares its
/// representative's decision exactly. Orientation is preserved (the
/// sparse·dense dot is not guaranteed bitwise-symmetric), and an
/// orientation whose nested-loop range is provably empty — every
/// position of one group precedes every position of the other — skips
/// its decision outright and stays `0`, since no member pair consumes
/// it. Vids map one to one onto the table's content classes, and a
/// cluster's vid groups are in first-appearance order, so each cluster's
/// group matrix is its verdict matrix as the table defines it.
fn refine_classes(
    points: &Points,
    vid_of: &[u32],
    best: &KMeansResult,
    owners: &[usize],
    entries: usize,
    config: &SimilarityConfig,
) -> SimilarPairs {
    let phase = obs::span!("similarity/refine");
    let clusters = best.clusters();
    let quant = (config.kernel == Kernel::TiledQuantized && config.threshold > -1.0)
        .then(|| points.quant());
    let threads = resolve_threads(config.threads, clusters.len());
    let buckets = lpt_buckets(&clusters, threads);
    type TaggedVerdicts = (Vec<(usize, Vec<u8>)>, u64, u64);
    let mut verdicts: Vec<Vec<u8>> = vec![Vec::new(); clusters.len()];
    let refined: Vec<TaggedVerdicts> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .iter()
            .map(|bucket| {
                let clusters = &clusters;
                scope.spawn(move |_| {
                    let threshold = f64::from(config.threshold);
                    let (matrix, sparse) = (points.matrix(), points.sparse());
                    let mut pruned = 0u64;
                    let mut rescored = 0u64;
                    let mut decide = |x: usize, y: usize| -> bool {
                        if let Some(q) = quant {
                            if q.pair_upper_bound(x, q, y) < threshold {
                                pruned += 1;
                                return false;
                            }
                        }
                        rescored += 1;
                        let dot = match config.kernel {
                            Kernel::DenseScalar => {
                                cluster::matrix::dense_dot(matrix.row(x), matrix.row(y))
                            }
                            Kernel::TiledQuantized => {
                                let (si, sv) = sparse.row(x);
                                cluster::matrix::sparse_dot_dense(si, sv, matrix.row(y))
                            }
                        };
                        dot.clamp(-1.0, 1.0) >= config.threshold
                    };
                    let tagged = bucket
                        .iter()
                        .map(|&c| {
                            let members = &clusters[c];
                            let groups = group_by_vid(members, vid_of);
                            let g = groups.len();
                            // The oriented per-group decision matrix
                            // (`1` = accept). Entries for orientations no
                            // member pair consumes stay `0` unconsulted.
                            let mut verdicts: Vec<u8> = vec![0; g * g];
                            for gi in 0..g {
                                let pi = &groups[gi];
                                if pi.len() >= 2 && decide(members[pi[0]], members[pi[1]]) {
                                    verdicts[gi * g + gi] = 1;
                                }
                                for gj in (gi + 1)..g {
                                    let pj = &groups[gj];
                                    // Orientation (vid_i → vid_j): some
                                    // pair has its earlier position in
                                    // pi — always, since groups are in
                                    // first-appearance order.
                                    debug_assert!(pi[0] < pj[0]);
                                    if decide(members[pi[0]], members[pj[0]]) {
                                        verdicts[gi * g + gj] = 1;
                                    }
                                    // Orientation (vid_j → vid_i):
                                    // consulted only if some pi position
                                    // follows pj's first.
                                    if pj[0] < *pi.last().expect("groups are non-empty")
                                        && decide(members[pj[0]], members[pi[0]])
                                    {
                                        verdicts[gj * g + gi] = 1;
                                    }
                                }
                            }
                            (c, verdicts)
                        })
                        .collect();
                    (tagged, pruned, rescored)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("refine worker must not panic"))
            .collect()
    })
    .expect("crossbeam scope");
    let mut pruned_total = 0u64;
    let mut rescored_total = 0u64;
    for (tagged, pruned, rescored) in refined {
        pruned_total += pruned;
        rescored_total += rescored;
        for (c, matrix) in tagged {
            verdicts[c] = matrix;
        }
    }
    // Classes number the distinct contents by first appearance in entry
    // order (points are in entry order), not by vid: vids depend on
    // what the cache held.
    let mut cluster = vec![NO_CLUSTER; entries];
    let mut class = vec![NO_CLUSTER; entries];
    let mut class_of: HashMap<u32, u32> = HashMap::new();
    for (p, &owner) in owners.iter().enumerate() {
        let next = class_of.len() as u32;
        class[owner] = *class_of.entry(vid_of[p]).or_insert(next);
        cluster[owner] = best.assignments[p] as u32;
    }
    obs::counter_add("similarity.distinct_vectors", class_of.len() as u64);
    let pairs = SimilarPairs::from_parts(cluster, class, verdicts)
        .expect("the refinement builds a consistent table");
    obs::counter_add("similarity.pairs", pairs.len() as u64);
    obs::counter_add("kernel.pruned_quantized", pruned_total);
    obs::counter_add("kernel.rescored", rescored_total);
    drop(phase);
    pairs
}

/// Runs the pipeline over `(package, code)` entries belonging to one
/// ecosystem, with a fresh cache. Unparseable code is skipped (it can
/// never join a group, exactly like a package the Packj extractor
/// chokes on).
pub fn similar_pairs(entries: &[(PackageId, &str)], config: &SimilarityConfig) -> SimilarityOutput {
    similar_pairs_cached(entries, config, &mut SimilarityCache::new())
}

/// [`similar_pairs`] with a caller-held [`SimilarityCache`], which the
/// incremental ingestion path carries across corpus deltas. The output
/// depends only on the entries and the config, never on what the cache
/// already holds (see the module-level docs for why); what a warm cache
/// changes is the work: only never-seen *source text* is parsed and
/// embedded (everything else is borrowed from the memo — flood
/// campaigns re-publish the same artifacts, so mature windows embed
/// almost nothing). Entry ids must be distinct.
pub fn similar_pairs_cached(
    entries: &[(PackageId, &str)],
    config: &SimilarityConfig,
    cache: &mut SimilarityCache,
) -> SimilarityOutput {
    let phase = obs::span!("similarity/embed");
    obs::counter_add("similarity.entries", entries.len() as u64);
    embed_misses(entries, config, cache);
    // Assemble `(vectors, owners, vids)` in entry order by reference:
    // one row per parseable entry.
    let mut vectors: Vec<&SparseEmbedding> = Vec::with_capacity(entries.len());
    let mut owners: Vec<usize> = Vec::with_capacity(entries.len());
    let mut vid_of: Vec<u32> = Vec::with_capacity(entries.len());
    let mut failures = 0u64;
    for (i, (id, _)) in entries.iter().enumerate() {
        match cache
            .embedded
            .get(id)
            .expect("every entry was just memoised")
        {
            Some(vid) => {
                vectors.push(&cache.reps[*vid as usize]);
                owners.push(i);
                vid_of.push(*vid);
            }
            None => failures += 1,
        }
    }
    obs::counter_add("similarity.parse_failures", failures);
    drop(phase);
    if vectors.len() < 2 {
        return SimilarityOutput {
            pairs: SimilarPairs::unclustered(entries.len()),
            chosen_k: 0,
            trace: Vec::new(),
        };
    }
    // One `Points` build per call: dense SoA matrix + CSR view + (lazy)
    // quantized companion, shared by every K-Means run of the schedule
    // and by the refinement screen.
    let rows: Vec<(&[u32], &[f32])> = vectors.iter().map(|v| (v.indices(), v.values())).collect();
    let points = Points::from_sparse_rows(config.dim, &rows);
    let (best, trace) = run_schedule(&points, config);
    let pairs = refine_classes(&points, &vid_of, &best, &owners, entries.len(), config);
    SimilarityOutput {
        pairs,
        chosen_k: best.k(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::gen::{generate, mutate, Behavior, Mutation};
    use minilang::printer::print_module;
    use rand::Rng;

    /// Reference phase 1: parses and embeds every entry in entry order.
    /// Returns the vectors plus the entry index each came from;
    /// unparseable entries are skipped.
    fn embed_entries(
        entries: &[(PackageId, &str)],
        config: &SimilarityConfig,
    ) -> (Vec<SparseEmbedding>, Vec<usize>) {
        let embedder = Embedder::new(config.dim);
        let mut buf = EmbedBuffer::new();
        entries
            .iter()
            .enumerate()
            .filter_map(|(i, (_, code))| {
                let module = minilang::parse(code).ok()?;
                Some((embedder.embed_sparse_into(&module, &mut buf), i))
            })
            .unzip()
    }

    /// Reference phase 3: every member pair of each cluster, in cluster
    /// order and then nested-loop order, kept when the exact dense dot
    /// reaches the threshold.
    fn refine_pairs(
        points: &Points,
        clusters: &[Vec<usize>],
        owners: &[usize],
        config: &SimilarityConfig,
    ) -> Vec<(usize, usize)> {
        let matrix = points.matrix();
        let mut pairs = Vec::new();
        for members in clusters {
            for (a, &ia) in members.iter().enumerate() {
                for &ib in &members[a + 1..] {
                    let dot = cluster::matrix::dense_dot(matrix.row(ia), matrix.row(ib));
                    if dot.clamp(-1.0, 1.0) >= config.threshold {
                        pairs.push((owners[ia], owners[ib]));
                    }
                }
            }
        }
        pairs
    }

    /// The reference's output: the pairs as a plain list.
    struct Reference {
        pairs: Vec<(usize, usize)>,
        chosen_k: usize,
        trace: Vec<(usize, f32)>,
    }

    /// The pipeline's simplest statement: embed every entry, run the
    /// shared K-Means schedule, test every member pair — no cache, no
    /// screen, no collapse, no class table, and one thread outside the
    /// schedule.
    fn reference(entries: &[(PackageId, &str)], config: &SimilarityConfig) -> Reference {
        let (vectors, owners) = embed_entries(entries, config);
        if vectors.len() < 2 {
            return Reference {
                pairs: Vec::new(),
                chosen_k: 0,
                trace: Vec::new(),
            };
        }
        let rows: Vec<(&[u32], &[f32])> =
            vectors.iter().map(|v| (v.indices(), v.values())).collect();
        let points = Points::from_sparse_rows(config.dim, &rows);
        let (best, trace) = run_schedule(&points, config);
        let pairs = refine_pairs(&points, &best.clusters(), &owners, config);
        Reference {
            pairs,
            chosen_k: best.k(),
            trace,
        }
    }

    /// Every kernel at one and three threads.
    fn configs() -> Vec<SimilarityConfig> {
        let mut out = Vec::new();
        for kernel in [Kernel::DenseScalar, Kernel::TiledQuantized] {
            for threads in [1, 3] {
                out.push(SimilarityConfig {
                    kernel,
                    threads,
                    ..SimilarityConfig::default()
                });
            }
        }
        out
    }

    /// Builds `families` code families with `per` members each.
    fn corpus(families: usize, per: usize, seed: u64) -> Vec<(PackageId, String)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for f in 0..families {
            let behavior = Behavior::ALL[f % Behavior::ALL.len()];
            let base = generate(behavior, &mut rng);
            let mut current = base;
            for m in 0..per {
                if m > 0 && rng.gen_bool(0.5) {
                    let mutation = Mutation::ALL[m % Mutation::ALL.len()];
                    current = mutate(&current, mutation, &mut rng);
                }
                let id: PackageId = format!("pypi/fam{f}-pkg{m}@1.0.0").parse().unwrap();
                out.push((id, print_module(&current)));
            }
        }
        out
    }

    fn components(n: usize, pairs: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut uf = graphstore::unionfind::UnionFind::new(n);
        for &(a, b) in pairs {
            uf.union(a, b);
        }
        let mut map: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for i in 0..n {
            map.entry(uf.find(i)).or_default().push(i);
        }
        map.into_values().filter(|c| c.len() > 1).collect()
    }

    #[test]
    fn recovers_code_families() {
        let data = corpus(4, 8, 1);
        let entries: Vec<(PackageId, &str)> = data
            .iter()
            .map(|(id, c)| (id.clone(), c.as_str()))
            .collect();
        let out = similar_pairs(&entries, &SimilarityConfig::default());
        let pairs: Vec<(usize, usize)> = out.pairs.iter().copied().collect();
        let comps = components(entries.len(), &pairs);
        // Family members must never be split across groups in a way that
        // merges two behaviours: check purity by index range.
        for comp in &comps {
            let family = comp[0] / 8;
            assert!(
                comp.iter().all(|&i| i / 8 == family),
                "component mixes families: {comp:?}"
            );
        }
        // And most family pairs should be recovered.
        let recovered: usize = comps.iter().map(|c| c.len()).sum();
        assert!(
            recovered >= entries.len() / 2,
            "too few grouped: {recovered}/{}",
            entries.len()
        );
    }

    #[test]
    fn unparseable_code_is_skipped_silently() {
        let id: PackageId = "pypi/broken@1.0.0".parse().unwrap();
        let good = corpus(1, 3, 2);
        let mut entries: Vec<(PackageId, &str)> =
            good.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        entries.push((id, "this is not ( valid code"));
        let out = similar_pairs(&entries, &SimilarityConfig::default());
        let broken_idx = entries.len() - 1;
        assert!(
            out.pairs
                .iter()
                .all(|&(a, b)| a != broken_idx && b != broken_idx),
            "broken code must not join any group"
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<(PackageId, &str)> = Vec::new();
        assert!(similar_pairs(&empty, &SimilarityConfig::default())
            .pairs
            .is_empty());
        let one = corpus(1, 1, 3);
        let entries: Vec<(PackageId, &str)> =
            one.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        assert!(similar_pairs(&entries, &SimilarityConfig::default())
            .pairs
            .is_empty());
    }

    #[test]
    fn pipeline_is_deterministic() {
        let data = corpus(3, 5, 4);
        let entries: Vec<(PackageId, &str)> =
            data.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        let a = similar_pairs(&entries, &SimilarityConfig::default());
        let b = similar_pairs(&entries, &SimilarityConfig::default());
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.chosen_k, b.chosen_k);
    }

    #[test]
    fn higher_threshold_never_adds_pairs() {
        let data = corpus(3, 6, 5);
        let entries: Vec<(PackageId, &str)> =
            data.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        let loose = similar_pairs(
            &entries,
            &SimilarityConfig {
                threshold: 0.5,
                ..SimilarityConfig::default()
            },
        );
        let strict = similar_pairs(
            &entries,
            &SimilarityConfig {
                threshold: 0.95,
                ..SimilarityConfig::default()
            },
        );
        assert!(strict.pairs.len() <= loose.pairs.len());
    }

    #[test]
    fn paper_config_uses_3072_dims() {
        let c = SimilarityConfig::paper();
        assert_eq!(c.dim, 3072);
        assert_eq!(c.growth, 1.0);
    }

    /// Asserts a pipeline output is bitwise-identical to the reference
    /// (the inertia trace compares by f32 bits, not approximate
    /// equality): its table expands to the reference's pair list, and
    /// counts it by arithmetic.
    fn assert_outputs_identical(a: &Reference, b: &SimilarityOutput, label: &str) {
        assert_eq!(a.pairs.len(), b.pairs.len(), "{label}: pair count diverged");
        assert!(b.pairs.iter().eq(a.pairs.iter()), "{label}: pairs diverged");
        assert_eq!(a.chosen_k, b.chosen_k, "{label}: chosen_k diverged");
        assert_eq!(
            a.trace.len(),
            b.trace.len(),
            "{label}: trace length diverged"
        );
        for (x, y) in a.trace.iter().zip(&b.trace) {
            assert_eq!(x.0, y.0, "{label}: trace k diverged");
            assert_eq!(
                x.1.to_bits(),
                y.1.to_bits(),
                "{label}: trace inertia bits diverged"
            );
        }
    }

    /// Asserts two class tables are equal part by part.
    fn assert_tables_identical(a: &SimilarPairs, b: &SimilarPairs, label: &str) {
        assert_eq!(a.clusters(), b.clusters(), "{label}: clusters diverged");
        assert_eq!(a.classes(), b.classes(), "{label}: classes diverged");
        assert_eq!(a.verdicts(), b.verdicts(), "{label}: verdicts diverged");
    }

    /// Seven entries in two clusters; entry 4 is in none. Class 0 spans
    /// both clusters, and cluster 0's matrix is asymmetric: class 1 →
    /// class 0 is similar, class 0 → class 1 is not.
    fn small_table() -> SimilarPairs {
        const N: u32 = NO_CLUSTER;
        SimilarPairs::from_parts(
            vec![0, 0, 1, 0, N, 1, 0],
            vec![0, 1, 0, 0, N, 2, 1],
            vec![vec![1, 0, 1, 0], vec![0, 1, 0, 0]],
        )
        .expect("consistent")
    }

    #[test]
    fn a_class_table_expands_cluster_by_cluster_in_nested_order() {
        let table = small_table();
        // Cluster 0 holds entries 0, 1, 3, 6 (classes 0, 1, 0, 1): only
        // 0 → 0 and 1 → 0 are set, so (0, 3) and (1, 3) — and not (0, 1).
        // Cluster 1 holds entries 2, 5, its classes 0 and 2 local 0, 1.
        assert_eq!(table.len(), 3);
        assert_eq!(
            table.iter().copied().collect::<Vec<_>>(),
            [(0, 3), (1, 3), (2, 5)]
        );
        let members = table.members();
        let degree_of = |entry: u32| {
            members
                .entry
                .iter()
                .position(|&e| e == entry)
                .map_or(0, |m| members.degree[m])
        };
        let degrees: Vec<u32> = (0..7).map(degree_of).collect();
        assert_eq!(degrees, [1, 1, 1, 2, 0, 1, 0]);
        assert_eq!(members.classes, [2, 2]);
        assert_eq!(SimilarPairs::unclustered(4).len(), 0);
    }

    #[test]
    fn tables_are_equal_when_their_pairs_are() {
        let table = small_table();
        assert_eq!(table, small_table());
        // Cluster 1's class 2 → class 0 orientation is consumed by no
        // pair: setting it changes the table, not the pairs.
        let unconsumed = SimilarPairs::from_parts(
            table.clusters().to_vec(),
            table.classes().to_vec(),
            vec![vec![1, 0, 1, 0], vec![0, 1, 1, 0]],
        )
        .expect("consistent");
        assert_eq!(unconsumed, table);
        let fewer = SimilarPairs::from_parts(
            table.clusters().to_vec(),
            table.classes().to_vec(),
            vec![vec![1, 0, 0, 0], vec![0, 1, 0, 0]],
        )
        .expect("consistent");
        assert_ne!(fewer, table);
    }

    #[test]
    fn inconsistent_tables_are_rejected() {
        const N: u32 = NO_CLUSTER;
        let good = || {
            (
                vec![0, 0, 1, N],
                vec![0, 1, 0, N],
                vec![vec![0, 1, 0, 0], vec![1]],
            )
        };
        assert!(SimilarPairs::from_parts(good().0, good().1, good().2).is_ok());
        type Case = (&'static str, Vec<u32>, Vec<u32>, Vec<Vec<u8>>);
        let cases: [Case; 6] = [
            ("rows differ", vec![0, 0, 1], good().1, good().2),
            ("class skips ahead", good().0, vec![0, 2, 0, N], good().2),
            ("cluster out of range", vec![0, 0, 2, N], good().1, good().2),
            ("half a row", good().0, vec![0, 1, N, N], good().2),
            (
                "matrix of the wrong size",
                good().0,
                good().1,
                vec![vec![0, 1, 0], vec![1]],
            ),
            (
                "verdict not 0 or 1",
                good().0,
                good().1,
                vec![vec![0, 2, 0, 0], vec![1]],
            ),
        ];
        for (what, cluster, class, verdicts) in cases {
            assert!(
                SimilarPairs::from_parts(cluster, class, verdicts).is_err(),
                "{what}"
            );
        }
    }

    #[test]
    fn cold_and_warm_caches_match_the_reference() {
        // The corpus has duplicate code (mutation fires with p=0.5), so
        // the source interner and the collapsed refinement both engage.
        let data = corpus(4, 8, 9);
        let mut entries: Vec<(PackageId, &str)> =
            data.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        let broken: PackageId = "pypi/broken@1.0.0".parse().unwrap();
        entries.push((broken, "this is not ( valid code"));
        for config in configs() {
            let label = format!("{:?}/{}t", config.kernel, config.threads);
            let expected = reference(&entries, &config);
            assert!(
                !expected.pairs.is_empty(),
                "{label}: corpus must yield pairs"
            );
            let mut cache = SimilarityCache::new();
            let cold = similar_pairs_cached(&entries, &config, &mut cache);
            assert_outputs_identical(&expected, &cold, &format!("{label} cold"));
            assert_eq!(
                cache.len(),
                entries.len(),
                "{label}: memo must cover all entries"
            );
            let warm = similar_pairs_cached(&entries, &config, &mut cache);
            assert_outputs_identical(&expected, &warm, &format!("{label} warm"));
            assert_tables_identical(&cold.pairs, &warm.pairs, &label);
        }
    }

    #[test]
    fn cache_carries_across_growing_corpora() {
        // Windowed growth: run the cached pipeline on a prefix, then on
        // the full list with the same cache — each run must match the
        // reference over its own list exactly.
        let data = corpus(3, 6, 10);
        let entries: Vec<(PackageId, &str)> =
            data.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        let prefix = &entries[..entries.len() / 2];
        for config in configs() {
            let label = format!("{:?}/{}t", config.kernel, config.threads);
            let mut cache = SimilarityCache::new();
            let prefix_cached = similar_pairs_cached(prefix, &config, &mut cache);
            assert_outputs_identical(
                &reference(prefix, &config),
                &prefix_cached,
                &format!("{label} prefix"),
            );
            assert_eq!(cache.len(), prefix.len());
            let full_cached = similar_pairs_cached(&entries, &config, &mut cache);
            assert_outputs_identical(
                &reference(&entries, &config),
                &full_cached,
                &format!("{label} grown"),
            );
            // The grown cache numbered vids in another order than a fresh
            // one would; the table numbers classes by entry order alone.
            let fresh = similar_pairs(&entries, &config);
            assert_tables_identical(&full_cached.pairs, &fresh.pairs, &label);
            assert_eq!(cache.len(), entries.len());
        }
    }

    #[test]
    fn interned_vids_collapse_exact_duplicates_only() {
        let data = corpus(2, 6, 11);
        let entries: Vec<(PackageId, &str)> =
            data.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        let config = SimilarityConfig::default();
        let mut cache = SimilarityCache::new();
        let _ = similar_pairs_cached(&entries, &config, &mut cache);
        // Independent re-embedding: two entries share a vid exactly when
        // their embeddings are bitwise equal.
        let (vectors, owners) = embed_entries(&entries, &config);
        assert!(cache.reps.len() <= vectors.len());
        for (a, &ia) in owners.iter().enumerate() {
            for (b, &ib) in owners.iter().enumerate().skip(a + 1) {
                let va = cache.embedded[&entries[ia].0].expect("parseable");
                let vb = cache.embedded[&entries[ib].0].expect("parseable");
                assert_eq!(
                    va == vb,
                    content_equal(&vectors[a], &vectors[b]),
                    "vid assignment wrong for {ia},{ib}"
                );
            }
        }
    }

    #[test]
    fn republished_sources_are_never_reparsed() {
        let data = corpus(3, 6, 12);
        let entries: Vec<(PackageId, &str)> =
            data.iter().map(|(i, c)| (i.clone(), c.as_str())).collect();
        let config = SimilarityConfig::default();
        let mut cache = SimilarityCache::new();
        let _ = similar_pairs_cached(&entries, &config, &mut cache);
        let reps_before = cache.reps.len();
        // A flood republishes every artifact byte-identically under
        // fresh names: the grown corpus must reproduce the reference
        // exactly while embedding nothing new — every verdict is served
        // by the source interner, so the distinct-content table cannot
        // grow.
        let mut grown: Vec<(PackageId, &str)> = entries.clone();
        for (i, (_, code)) in entries.iter().enumerate() {
            let id: PackageId = format!("pypi/republished-{i}@1.0.0").parse().unwrap();
            grown.push((id, code));
        }
        let cached = similar_pairs_cached(&grown, &config, &mut cache);
        assert_outputs_identical(&reference(&grown, &config), &cached, "republished flood");
        assert_eq!(cache.reps.len(), reps_before, "no new distinct content");
        assert_eq!(cache.len(), grown.len(), "every clone memoised by id");
        // Same-window duplicates (two fresh ids, one source) must also
        // collapse to a single embedding.
        let novel = corpus(1, 1, 99);
        let twin_a: PackageId = "pypi/twin-a@1.0.0".parse().unwrap();
        let twin_b: PackageId = "pypi/twin-b@1.0.0".parse().unwrap();
        grown.push((twin_a.clone(), novel[0].1.as_str()));
        grown.push((twin_b.clone(), novel[0].1.as_str()));
        let cached = similar_pairs_cached(&grown, &config, &mut cache);
        assert_outputs_identical(&reference(&grown, &config), &cached, "in-window twins");
        assert_eq!(cache.embedded[&twin_a], cache.embedded[&twin_b]);
    }
}
