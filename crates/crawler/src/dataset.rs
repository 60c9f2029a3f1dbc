//! Dataset assembly: merge all sources, recover from mirrors, crawl the
//! report corpus — the output the MALGRAPH builder consumes.
//!
//! Two entry points:
//!
//! * [`collect`] — the zero-fault fast path: every fetch succeeds, no
//!   health telemetry (legacy behaviour, unchanged callers);
//! * [`collect_with`] — the resilient collector: every fetch goes
//!   through the seeded unreliable [`transport`](crate::transport),
//!   transient failures retry on a bounded backoff schedule, permanent
//!   failures drop the document instead of panicking, and the run's
//!   [`CollectionHealth`] is threaded into the dataset. Per-source
//!   crawls fan out across scoped worker threads and merge in
//!   [`SourceId::ALL`] order, so the corpus is bitwise-identical at any
//!   thread count.

use crate::extract;
use crate::recover::{self, MirrorSearch};
use crate::registry::RegistryMeta;
use crate::sources::{self, Archive, RawMention};
use crate::transport::{CollectionHealth, FetchHealth, Transport};
use oss_types::fetch::{FaultConfig, RetryPolicy};
use oss_types::{PackageId, Sha256, SimTime, SourceId};
use registry_sim::fault::{channel_id, FaultPlan};
use registry_sim::{ReportCategory, World};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One distinct package in the merged corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectedPackage {
    /// Registry identity.
    pub id: PackageId,
    /// Every source that mentioned it, with disclosure time.
    pub mentions: Vec<(SourceId, SimTime)>,
    /// The artifact, when any source shipped it or a mirror held it.
    pub archive: Option<Archive>,
    /// Artifact signature (computed from the archive, like the paper's
    /// `hashlib` step); `None` while the package is unavailable.
    pub signature: Option<Sha256>,
    /// Whether the archive came from a mirror rather than a source dump.
    pub recovered_from_mirror: bool,
    /// Whether *some* mirror held the artifact at collection time,
    /// regardless of whether a dump already shipped it. Used by the
    /// single-source missing-rate analysis (Table VI).
    pub mirror_recoverable: bool,
    /// Public registry metadata (release date, removal date, downloads),
    /// from the registry's public API.
    pub meta: Option<RegistryMeta>,
}

impl CollectedPackage {
    /// Whether the artifact is available.
    pub fn is_available(&self) -> bool {
        self.archive.is_some()
    }
}

/// One security report crawled from the report-corpus websites.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectedReport {
    /// Publishing website name.
    pub website: String,
    /// Website category (Table III).
    pub category: ReportCategory,
    /// Publication date parsed from the page.
    pub published: Option<SimTime>,
    /// Page title.
    pub title: String,
    /// Packages the report names.
    pub packages: Vec<PackageId>,
    /// Actor handle if disclosed.
    pub actor: Option<String>,
}

/// The fully assembled corpus.
#[derive(Debug, Clone)]
pub struct CollectedDataset {
    /// Distinct packages, in first-mention order.
    pub packages: Vec<CollectedPackage>,
    /// Crawled security reports.
    pub reports: Vec<CollectedReport>,
    /// Number of report-corpus websites crawled.
    pub website_count: usize,
    /// When collection ran.
    pub collect_time: SimTime,
    /// Fetch telemetry of the run. `None` for legacy fault-free corpora
    /// (the [`collect`] fast path and manifests exported before the
    /// health schema existed).
    pub health: Option<CollectionHealth>,
}

impl CollectedDataset {
    /// Looks up a collected package by identity.
    pub fn get(&self, id: &PackageId) -> Option<&CollectedPackage> {
        self.packages.iter().find(|p| &p.id == id)
    }

    /// `(available, unavailable)` mention counts per source — the rows of
    /// the paper's Table I.
    pub fn table1_counts(&self) -> HashMap<SourceId, (usize, usize)> {
        let mut out: HashMap<SourceId, (usize, usize)> = HashMap::new();
        for pkg in &self.packages {
            for &(source, _) in &pkg.mentions {
                let entry = out.entry(source).or_default();
                // A mention is available when the *source itself* ships
                // archives (dumps) or the package was recovered.
                let dump = matches!(
                    source.publication_style(),
                    oss_types::source::PublicationStyle::DatasetDump
                );
                if dump || pkg.is_available() {
                    entry.0 += 1;
                } else {
                    entry.1 += 1;
                }
            }
        }
        out
    }
}

/// Options of the resilient collector ([`collect_with`]).
#[derive(Debug, Clone, Copy)]
pub struct CollectOptions {
    /// Fault rates of the unreliable transport.
    pub faults: FaultConfig,
    /// Retry/backoff schedule for transient failures.
    pub retry: RetryPolicy,
    /// Worker threads for the per-source crawls. `0` picks the host's
    /// available parallelism. The corpus is bitwise-identical at any
    /// value — fault draws are keyed by document, not by thread.
    pub threads: usize,
    /// Explicit fault-plan seed; `None` derives it from the world seed,
    /// so `(world seed, fault config)` alone reproduces a run.
    pub fault_seed: Option<u64>,
}

impl Default for CollectOptions {
    fn default() -> Self {
        CollectOptions {
            faults: FaultConfig::NONE,
            retry: RetryPolicy::STANDARD,
            threads: 0,
            fault_seed: None,
        }
    }
}

/// Runs the full collection pipeline against a world — the zero-fault
/// fast path:
///
/// 1. render + parse every source's feed ([`sources`]);
/// 2. merge mentions into distinct packages;
/// 3. search mirrors for everything still unavailable ([`MirrorSearch`]);
/// 4. crawl the report-corpus websites ([`extract`]).
///
/// Equivalent to [`collect_with`] under a fault-free transport, minus
/// the health report (`dataset.health` is `None`).
pub fn collect(world: &World) -> CollectedDataset {
    let mut dataset = collect_with(world, &CollectOptions::default());
    dataset.health = None;
    dataset
}

/// Runs the collection pipeline through the unreliable transport.
///
/// Same stages as [`collect`], but every feed document, mirror lookup
/// and report page is fetched through a seeded fault plan: transient
/// failures retry with bounded deterministic backoff, permanently
/// failed documents are dropped (never a panic, at any fault rate), and
/// per-source [`CollectionHealth`] telemetry is recorded on the
/// returned dataset. The per-source crawls run on up to
/// `options.threads` scoped workers and merge in [`SourceId::ALL`]
/// order, so the corpus for a given `(seed, fault config)` is
/// bitwise-identical at any thread count.
pub fn collect_with(world: &World, options: &CollectOptions) -> CollectedDataset {
    let _collect_span = obs::span!("collect");
    let plan = match options.fault_seed {
        Some(seed) => FaultPlan::new(seed),
        None => FaultPlan::for_world(&world.config),
    };
    let transport = Transport::new(plan, options.faults, options.retry);
    let mut health = CollectionHealth::new();

    // 1. Feeds, fanned out per source.
    let stage = obs::span!("collect/feeds");
    let per_source = crawl_feeds(world, &transport, options.threads);
    let mut raw: Vec<RawMention> = Vec::new();
    for (source, (mentions, source_health)) in SourceId::ALL.iter().zip(per_source) {
        raw.extend(mentions);
        *health.source_mut(*source) = source_health;
    }
    obs::counter_add("crawler.raw_mentions", raw.len() as u64);
    drop(stage);

    // 2. Merge by identity, in first-mention order.
    let stage = obs::span!("collect/merge");
    let mut packages: Vec<CollectedPackage> = Vec::new();
    let mut slots: HashMap<PackageId, usize> = HashMap::new();
    for mention in raw {
        let slot = *slots.entry(mention.id).or_insert_with_key(|id| {
            packages.push(CollectedPackage {
                id: id.clone(),
                mentions: Vec::new(),
                archive: None,
                signature: None,
                recovered_from_mirror: false,
                mirror_recoverable: false,
                meta: None,
            });
            packages.len() - 1
        });
        let entry = &mut packages[slot];
        entry.mentions.push((mention.source, mention.disclosed));
        if entry.archive.is_none() {
            entry.archive = mention.archive;
        }
    }

    obs::counter_add("crawler.distinct_packages", packages.len() as u64);
    drop(stage);

    // 3. Mirror recovery for the rest, plus public registry metadata,
    // both from one index lookup per package. Each mirror lookup is one
    // fetch keyed by a stable hash of the package identity, so its fate
    // is independent of iteration order.
    let stage = obs::span!("collect/mirror");
    let search = MirrorSearch::new(world);
    let mut label = String::new();
    for pkg in &mut packages {
        let entry = search.entry(&pkg.id);
        pkg.meta = entry.map(recover::metadata);
        label.clear();
        write!(label, "{}", pkg.id).expect("writing to a String cannot fail");
        let lookup = transport.fetch_mirror_lookup(channel_id(&label));
        health.mirror.record(&lookup);
        if lookup.delivered {
            if let Some(held) = entry.filter(|p| search.holds(p)) {
                pkg.mirror_recoverable = true;
                if pkg.archive.is_none() {
                    pkg.archive = Some(recover::archive(held));
                    pkg.recovered_from_mirror = true;
                }
            }
        }
        if let Some(archive) = &pkg.archive {
            pkg.signature = Some(registry_sim::campaign::artifact_signature(
                &pkg.id,
                &archive.description,
                &archive.dependencies,
                &archive.code,
            ));
        }
    }

    drop(stage);

    // 4. Report corpus; a dropped page loses that report, nothing else.
    let stage = obs::span!("collect/reports");
    let mut reports = Vec::new();
    for report in &world.reports {
        let fetch = transport.fetch_report_page(u64::from(report.id));
        health.report_corpus.record(&fetch);
        if !fetch.delivered {
            continue;
        }
        let website = &world.websites[report.website];
        let html = registry_sim::report::render_html(report, website, |idx| {
            let p = world.package(idx);
            (p.id.clone(), p.signature.short())
        });
        if let Some(parsed) = extract::parse_report_page(&html) {
            reports.push(CollectedReport {
                website: website.name.clone(),
                category: website.category,
                published: parsed.published,
                title: parsed.title,
                packages: parsed.packages,
                actor: parsed.actor,
            });
        }
    }

    obs::counter_add("crawler.reports", reports.len() as u64);
    drop(stage);

    health.absorb_into_obs();
    let total = health.total();
    if total.dropped > 0 {
        obs::warn!(
            "collection dropped {} documents ({} retries, {} recovered)",
            total.dropped,
            total.retries,
            total.recovered
        );
    }

    CollectedDataset {
        packages,
        reports,
        website_count: world.websites.len(),
        collect_time: world.config.collect_time,
        health: Some(health),
    }
}

/// Crawls every source's feed through the transport, on up to `threads`
/// scoped workers (`0` = available parallelism). Returns one
/// `(mentions, health)` pair per source, in [`SourceId::ALL`] order
/// regardless of scheduling.
fn crawl_feeds(
    world: &World,
    transport: &Transport,
    threads: usize,
) -> Vec<(Vec<RawMention>, FetchHealth)> {
    let workers = effective_workers(threads).min(SourceId::ALL.len());
    if workers <= 1 {
        return SourceId::ALL
            .iter()
            .map(|&source| crawl_source(world, source, transport))
            .collect();
    }
    // Sources are striped across workers; each result lands in its
    // source's fixed slot, so the merge order never depends on timing.
    let mut slots: Vec<Option<(Vec<RawMention>, FetchHealth)>> =
        (0..SourceId::ALL.len()).map(|_| None).collect();
    // Workers attach the caller's span stack so the per-source spans in
    // `crawl_source` fold identically to the serial path above.
    let ctx = obs::current_context();
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let ctx = &ctx;
                scope.spawn(move |_| {
                    let _attached = ctx.attach();
                    SourceId::ALL
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % workers == worker)
                        .map(|(i, &source)| (i, crawl_source(world, source, transport)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("crawl worker must not panic") {
                slots[i] = Some(result);
            }
        }
    })
    .expect("crossbeam scope");
    slots
        .into_iter()
        .map(|slot| slot.expect("every source crawled"))
        .collect()
}

/// Renders one source's feed and fetches each document through the
/// transport; delivered documents are parsed, dropped ones counted.
fn crawl_source(
    world: &World,
    source: SourceId,
    transport: &Transport,
) -> (Vec<RawMention>, FetchHealth) {
    let _span = obs::span!("collect/feeds/source={}", source.slug());
    let mut health = FetchHealth::default();
    let mut mentions = Vec::new();
    let documents = sources::render_feed(world, source);
    for (index, document) in documents.iter().enumerate() {
        let outcome = transport.fetch_feed_document(source, index);
        health.record(&outcome);
        if outcome.delivered {
            mentions.extend(sources::parse_feed(source, std::slice::from_ref(document)));
        }
    }
    (mentions, health)
}

fn effective_workers(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry_sim::WorldConfig;

    fn dataset() -> (World, CollectedDataset) {
        let world = World::generate(WorldConfig::small(11));
        let ds = collect(&world);
        (world, ds)
    }

    #[test]
    fn distinct_packages_match_world_mention_targets() {
        let (world, ds) = dataset();
        let distinct_truth: std::collections::HashSet<_> =
            world.mentions.iter().map(|m| m.package).collect();
        assert_eq!(ds.packages.len(), distinct_truth.len());
    }

    #[test]
    fn mention_counts_match_world() {
        let (world, ds) = dataset();
        let collected: usize = ds.packages.iter().map(|p| p.mentions.len()).sum();
        assert_eq!(collected, world.mentions.len());
    }

    #[test]
    fn dump_sources_are_always_available() {
        let (_, ds) = dataset();
        let t1 = ds.table1_counts();
        for dump in [SourceId::Maloss, SourceId::MalPyPI, SourceId::DataDog] {
            if let Some(&(_, unavailable)) = t1.get(&dump) {
                assert_eq!(unavailable, 0, "{dump} must have 0 unavailable");
            }
        }
    }

    #[test]
    fn recovery_flag_only_on_mirror_recoveries() {
        let (world, ds) = dataset();
        for pkg in &ds.packages {
            if pkg.recovered_from_mirror {
                assert!(pkg.is_available());
                let truth = world
                    .packages
                    .iter()
                    .find(|p| p.id == pkg.id)
                    .expect("exists");
                assert!(truth.mirror_available);
            }
        }
        assert!(
            ds.packages.iter().any(|p| p.recovered_from_mirror),
            "some packages should come from mirrors"
        );
    }

    #[test]
    fn signatures_match_ground_truth_for_available_packages() {
        let (world, ds) = dataset();
        for pkg in ds.packages.iter().filter(|p| p.is_available()).take(20) {
            let truth = world
                .packages
                .iter()
                .find(|p| p.id == pkg.id)
                .expect("exists");
            assert_eq!(
                pkg.signature,
                Some(truth.signature),
                "hash mismatch for {}",
                pkg.id
            );
        }
    }

    #[test]
    fn unavailable_packages_have_no_signature() {
        let (_, ds) = dataset();
        for pkg in &ds.packages {
            assert_eq!(pkg.is_available(), pkg.signature.is_some());
        }
    }

    #[test]
    fn report_crawl_preserves_report_count_and_categories() {
        let (world, ds) = dataset();
        assert_eq!(ds.reports.len(), world.reports.len());
        assert!(ds.reports.iter().any(|r| r.packages.len() >= 2));
        assert!(ds.website_count >= 6, "one website per category at least");
    }

    #[test]
    fn some_packages_remain_unavailable() {
        let (_, ds) = dataset();
        let unavailable = ds.packages.iter().filter(|p| !p.is_available()).count();
        assert!(unavailable > 0, "the missing-rate analysis needs misses");
    }

    #[test]
    fn legacy_collect_has_no_health_report() {
        let (_, ds) = dataset();
        assert!(ds.health.is_none(), "the fast path is the legacy corpus");
    }

    #[test]
    fn fault_free_collect_with_matches_legacy_collect() {
        let world = World::generate(WorldConfig::small(11));
        let legacy = collect(&world);
        let resilient = collect_with(&world, &CollectOptions::default());
        assert_eq!(legacy.packages.len(), resilient.packages.len());
        for (a, b) in legacy.packages.iter().zip(&resilient.packages) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.mentions, b.mentions);
            assert_eq!(a.signature, b.signature);
            assert_eq!(a.archive, b.archive);
        }
        assert_eq!(legacy.reports.len(), resilient.reports.len());
        let health = resilient.health.expect("collect_with reports health");
        assert!(health.is_fault_free());
        assert_eq!(health.total().dropped, 0);
    }

    #[test]
    fn single_threaded_crawl_equals_parallel_crawl() {
        let world = World::generate(WorldConfig::small(13));
        let base = CollectOptions {
            faults: FaultConfig::mixed(0.35),
            threads: 1,
            ..CollectOptions::default()
        };
        let serial = collect_with(&world, &base);
        let parallel = collect_with(&world, &CollectOptions { threads: 8, ..base });
        assert_eq!(serial.packages.len(), parallel.packages.len());
        for (a, b) in serial.packages.iter().zip(&parallel.packages) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.mentions, b.mentions);
            assert_eq!(a.archive, b.archive);
        }
        assert_eq!(
            serial.health, parallel.health,
            "telemetry is deterministic too"
        );
    }
}
