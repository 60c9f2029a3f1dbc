//! World generation: assembling campaigns, mentions, mirrors and reports
//! into one deterministic simulated "wild".

use crate::calibration::{self, mention_blocks};
use crate::campaign::{Campaign, CampaignKind, CampaignPlan};
use crate::config::WorldConfig;
use crate::mirror::MirrorFleet;
use crate::names::NameGenerator;
use crate::package::{CampaignIdx, PkgIdx, SimPackage, UnavailCause};
use crate::report::{ReportCategory, SecurityReport, Website};
use minilang::gen::Behavior;
use oss_types::{ActorId, Ecosystem, PackageName, SimDuration, SimTime, SourceId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use std::collections::HashMap;

/// One source naming one package — a row of the collected corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mention {
    /// The package named.
    pub package: PkgIdx,
    /// The online source naming it.
    pub source: SourceId,
    /// When the source disclosed it.
    pub disclosed: SimTime,
}

/// The fully generated simulated world.
#[derive(Debug, Clone)]
pub struct World {
    /// Generation configuration.
    pub config: WorldConfig,
    /// Every package ever released (including trojan versions that were
    /// never judged malicious).
    pub packages: Vec<SimPackage>,
    /// Ground-truth campaign records.
    pub campaigns: Vec<Campaign>,
    /// Source mentions — who reported what.
    pub mentions: Vec<Mention>,
    /// Report-publishing websites (Table III).
    pub websites: Vec<Website>,
    /// Security reports (co-existing evidence).
    pub reports: Vec<SecurityReport>,
    /// The mirror fleet.
    pub mirrors: MirrorFleet,
}

impl World {
    /// Generates a world from `config`. Deterministic in `config.seed`.
    pub fn generate(config: WorldConfig) -> World {
        let _span = obs::span!("world/generate");
        let world = Builder::new(config).build();
        obs::counter_add("world.generated", 1);
        obs::gauge_set("world.packages", world.packages.len() as f64);
        obs::gauge_set("world.campaigns", world.campaigns.len() as f64);
        obs::gauge_set("world.mentions", world.mentions.len() as f64);
        obs::gauge_set("world.reports", world.reports.len() as f64);
        obs::gauge_set("world.mirrors", world.mirrors.len() as f64);
        world
    }

    /// The package record behind an index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn package(&self, idx: PkgIdx) -> &SimPackage {
        &self.packages[idx.index()]
    }

    /// Indices of packages the registry judged malicious (removed) and
    /// released before collection time — the population the ten sources
    /// draw from.
    pub fn dataset_candidates(&self) -> Vec<PkgIdx> {
        self.packages
            .iter()
            .enumerate()
            .filter(|(_, p)| p.removed.is_some() && p.released <= self.config.collect_time)
            .map(|(i, _)| PkgIdx(i as u32))
            .collect()
    }

    /// Every release of `name` in `eco`, in version order — the registry
    /// version-history query the evolution analysis uses for trojans.
    pub fn version_history(&self, eco: Ecosystem, name: &PackageName) -> Vec<PkgIdx> {
        let mut hits: Vec<PkgIdx> = self
            .packages
            .iter()
            .enumerate()
            .filter(|(_, p)| p.id.ecosystem() == eco && p.id.name() == name)
            .map(|(i, _)| PkgIdx(i as u32))
            .collect();
        hits.sort_by(|a, b| {
            self.packages[a.index()]
                .id
                .version()
                .cmp(self.packages[b.index()].id.version())
        });
        hits
    }

    /// Ground-truth campaign of a package, if any.
    pub fn campaign_of(&self, idx: PkgIdx) -> Option<&Campaign> {
        self.packages[idx.index()]
            .campaign
            .map(|c| &self.campaigns[c.index()])
    }
}

struct Builder {
    config: WorldConfig,
    rng: StdRng,
    names: NameGenerator,
    packages: Vec<SimPackage>,
    campaigns: Vec<Campaign>,
    actor_counter: u32,
    showcase: Option<CampaignIdx>,
}

impl Builder {
    fn new(config: WorldConfig) -> Builder {
        Builder {
            rng: StdRng::seed_from_u64(config.seed),
            names: NameGenerator::new(1),
            config,
            packages: Vec::new(),
            campaigns: Vec::new(),
            actor_counter: 0,
            showcase: None,
        }
    }

    fn build(mut self) -> World {
        let blocks = {
            let mut blocks = mention_blocks(self.config.scale);
            blocks.shuffle(&mut self.rng);
            blocks
        };
        let distinct_total = blocks.len();

        // 1. Campaigns (SG / DeG / trojans / the Fig-8 showcase).
        self.plan_and_materialize_campaigns(distinct_total);

        // 2. Loners fill the remaining mention budget.
        let dataset_count = self
            .packages
            .iter()
            .filter(|p| p.removed.is_some() && p.released <= self.config.collect_time)
            .count();
        let loners_needed = distinct_total.saturating_sub(dataset_count);
        self.generate_loners(loners_needed);

        // 3. Mirror availability.
        let mirrors = MirrorFleet::paper_fleet(self.config.mirror_retention_days);
        self.availability_pass(&mirrors);

        // 4. Mentions: assign blocks to dataset packages.
        let mentions = self.assign_mentions(blocks);

        // 5. Reports & websites.
        let (websites, reports) = self.generate_reports(&mentions);

        World {
            config: self.config,
            packages: self.packages,
            campaigns: self.campaigns,
            mentions,
            websites,
            reports,
            mirrors,
        }
    }

    fn next_actor(&mut self) -> ActorId {
        let id = ActorId::new(self.actor_counter);
        self.actor_counter += 1;
        id
    }

    fn sample_start(&mut self) -> SimTime {
        let total: f64 = calibration::YEAR_WEIGHTS.iter().map(|(_, w)| w).sum();
        let mut target = self.rng.gen_range(0.0..total);
        let mut year = calibration::YEAR_WEIGHTS[0].0;
        for &(y, w) in &calibration::YEAR_WEIGHTS {
            year = y;
            if target < w {
                break;
            }
            target -= w;
        }
        let day = self.rng.gen_range(0..360);
        SimTime::from_ymd(year, 1, 1) + SimDuration::days(day)
    }

    /// Uniform start instant within `[from_year, to_year]`.
    fn sample_start_window(&mut self, from_year: i32, to_year: i32) -> SimTime {
        let years = (to_year - from_year + 1) as u64;
        let day = self.rng.gen_range(0..years * 360);
        SimTime::from_ymd(from_year, 1, 1) + SimDuration::days(day)
    }

    fn random_behavior(&mut self) -> Behavior {
        *Behavior::ALL.choose(&mut self.rng).expect("non-empty")
    }

    fn plan_and_materialize_campaigns(&mut self, distinct_total: usize) {
        let scale = self.config.scale;
        let scaled = |n: f64| -> usize { (n * scale).round() as usize };

        // Similar (SG) campaigns per ecosystem, Table VII targets.
        for eco in Ecosystem::MAJOR {
            if let Some((groups, mean_size)) = calibration::sg_targets(eco) {
                let n_groups = scaled(groups as f64).max(1);
                // Table VII's SG sizes are measured over *available*
                // packages; roughly 60% of a campaign's members are lost
                // to mirrors, so generation compensates upward.
                const AVAILABILITY_COMPENSATION: f64 = 2.2;
                let total_pkgs =
                    scaled(groups as f64 * mean_size * AVAILABILITY_COMPENSATION).max(n_groups * 2);
                // Cap campaign output so mentions can cover every package.
                let total_pkgs = total_pkgs.min(distinct_total / 2);
                self.plan_similar_family(eco, n_groups, total_pkgs);
            }
        }
        // Dependency (DeG) campaigns.
        for eco in Ecosystem::MAJOR {
            if let Some((groups, mean_size)) = calibration::deg_targets(eco) {
                let n_groups = scaled(groups as f64).max(1);
                for _ in 0..n_groups {
                    let attempts = (mean_size.round() as usize).clamp(2, 3);
                    let actor = self.next_actor();
                    // DeG campaigns start in 2021–2022: the library sits
                    // dormant for a long time, and the fronts (arriving
                    // ~1.5 years later) land inside the mirrors' retention
                    // window — which is why the paper could observe them.
                    let start = self.sample_start_window(2021, 2022);
                    let behavior = self.random_behavior();
                    let collect = self.config.collect_time;
                    let window_lo =
                        SimTime::from_minutes(collect.as_minutes().saturating_sub(200 * 1440));
                    let window_hi =
                        SimTime::from_minutes(collect.as_minutes().saturating_sub(30 * 1440));
                    self.materialize_plan(CampaignPlan {
                        kind: CampaignKind::Dependency,
                        ecosystem: eco,
                        behavior,
                        actor,
                        start,
                        attempts,
                        // DeG campaigns have the longest active periods
                        // (Fig. 9): fronts arrive months-to-years later,
                        // shortly before collection (survivorship: these
                        // are the DeG campaigns a collector can observe).
                        mean_gap: SimDuration::days(550),
                        mean_persistence_hours: self.config.admin_detection_mean_hours,
                        mega_popularity: false,
                        front_release_window: Some((window_lo, window_hi)),
                    });
                }
            }
        }
        // Trojan campaigns → Fig. 11 outliers / Table VIII rows.
        let n_trojans = scaled(25.0).max(3);
        for i in 0..n_trojans {
            let eco = if i % 2 == 0 {
                Ecosystem::Npm
            } else {
                Ecosystem::PyPI
            };
            let actor = self.next_actor();
            // The flagship popular-package hijack starts early enough in
            // 2022 that its malicious versions land inside the corpus.
            let start = if i == 0 {
                self.sample_start_window(2022, 2022)
            } else {
                self.sample_start()
            };
            let behavior = self.random_behavior();
            let attempts = self.rng.gen_range(4..=7);
            self.materialize_plan(CampaignPlan {
                kind: CampaignKind::Trojan,
                ecosystem: eco,
                behavior,
                actor,
                start,
                attempts,
                mean_gap: SimDuration::days(45),
                mean_persistence_hours: self.config.admin_detection_mean_hours,
                // The first trojan hijacks a genuinely popular package —
                // every corpus snapshot has its Table VIII outlier.
                mega_popularity: i == 0,
                front_release_window: None,
            });
        }
        // The Fig-8 showcase: a 15-package npm campaign in August 2023.
        self.materialize_showcase();
    }

    /// Plans one ecosystem's family of similar campaigns: sizes are
    /// heavy-tailed (log-normal) and PyPI additionally gets one large
    /// registering-flood campaign (the 5,943-package attack, scaled).
    fn plan_similar_family(&mut self, eco: Ecosystem, n_groups: usize, total_pkgs: usize) {
        let mut sizes: Vec<usize> = Vec::with_capacity(n_groups);
        let mut remaining = total_pkgs;
        let flood = eco == Ecosystem::PyPI && total_pkgs >= 60;
        let ordinary_groups = if flood {
            n_groups.saturating_sub(1)
        } else {
            n_groups
        };
        // Ordinary campaigns stay small (the paper's SG active periods are
        // days–weeks); the flood absorbs the PyPI remainder, which is what
        // drives PyPI's huge mean group size in Table VII.
        // The flood takes a fixed share of the ecosystem's SG packages so
        // its weight in the corpus is scale-independent.
        let flood_size = if flood {
            (total_pkgs as f64 * 0.45) as usize
        } else {
            0
        };
        remaining = remaining.saturating_sub(flood_size);
        if ordinary_groups > 0 {
            let mean = (remaining as f64 / ordinary_groups as f64).clamp(2.0, 50.0);
            let ln = LogNormal::new(mean.ln().max(0.7), 0.7).expect("valid parameters");
            for i in 0..ordinary_groups {
                let left = ordinary_groups - i;
                let cap = remaining.saturating_sub((left - 1) * 2).clamp(2, 110);
                let s = (ln.sample(&mut self.rng) as usize).clamp(2, cap);
                sizes.push(s);
                remaining = remaining.saturating_sub(s);
            }
        }
        if flood {
            sizes.push(flood_size.max(30));
        }
        let flood_index = sizes.len().saturating_sub(1);
        // Some actors run several campaigns (the paper's Fig. 8 actor
        // published repeatedly); reports later bundle same-actor
        // campaigns into one disclosure cluster.
        let mut last_actor: Option<ActorId> = None;
        for (i, size) in sizes.into_iter().enumerate() {
            let actor = match last_actor {
                Some(prev) if self.rng.gen_bool(0.35) => prev,
                _ => self.next_actor(),
            };
            last_actor = Some(actor);
            let is_flood = flood && i == flood_index;
            // The registering-flood attack is a mid/late-2023 event in
            // the paper, and its packages were recovered from mirrors —
            // a flood buried outside the mirror-retention window would be
            // invisible to the collector and to Table VII, so the start
            // is drawn from the window the mirrors still cover at crawl
            // time (with margin for the campaign to finish and be
            // disclosed before the crawl).
            let start = if is_flood {
                let collect = self.config.collect_time.as_minutes();
                let retention_margin_days =
                    self.config.mirror_retention_days.saturating_sub(30).max(60);
                let lo = collect.saturating_sub(retention_margin_days * 1440);
                let hi = collect.saturating_sub(45 * 1440).max(lo + 1);
                SimTime::from_minutes(self.rng.gen_range(lo..hi))
            } else {
                self.sample_start()
            };
            let behavior = self.random_behavior();
            // SG campaigns are fast regardless of size (Fig. 9: "several
            // days"): the *campaign duration* is the target, and the
            // per-release gap follows from the attempt count.
            let gap = if is_flood {
                SimDuration::minutes(12)
            } else {
                let duration_days = self.rng.gen_range(2.0..12.0);
                let minutes = (duration_days * 1440.0 / size.max(2) as f64).max(8.0);
                SimDuration::minutes(minutes as u64)
            };
            self.materialize_plan(CampaignPlan {
                kind: if is_flood {
                    CampaignKind::Flood
                } else {
                    CampaignKind::Similar
                },
                ecosystem: eco,
                behavior,
                actor,
                start,
                attempts: size,
                mean_gap: gap,
                mega_popularity: false,
                mean_persistence_hours: self.config.admin_detection_mean_hours,
                front_release_window: None,
            });
        }
    }

    fn materialize_plan(&mut self, plan: CampaignPlan) {
        let idx = CampaignIdx(self.campaigns.len() as u32);
        let first_pkg = self.packages.len() as u32;
        let m = plan.materialize(idx, first_pkg, &mut self.names, &mut self.rng);
        self.campaigns.push(m.campaign);
        self.packages.extend(m.packages);
    }

    /// The example campaign of paper Fig. 8: 15 npm packages released
    /// between 2023-08-09 and 2023-08-19, five of them named in the text.
    fn materialize_showcase(&mut self) {
        const NAMED: [&str; 5] = [
            "cloud-layout",
            "urs-remote",
            "etc-crypto",
            "mh-web-hardware",
            "mall-front-babel-directive",
        ];
        let actor = self.next_actor();
        let idx = CampaignIdx(self.campaigns.len() as u32);
        self.showcase = Some(idx);
        let behavior = Behavior::ExfilEnv;
        let base = SimTime::from_ymd(2023, 8, 9);
        // Day offsets: 1 package on Aug 9, 6 on Aug 12, 8 over Aug 17–19.
        let offsets: [u64; 15] = [0, 3, 3, 3, 3, 3, 3, 8, 8, 8, 9, 9, 9, 10, 10];
        let mut module = minilang::gen::generate(behavior, &mut self.rng);
        let mut packages = Vec::new();
        let mut pkg_indices = Vec::new();
        for (attempt, &off) in offsets.iter().enumerate() {
            let name = if attempt < 10 {
                // 10 generator names, then the 5 named ones (the paper
                // says the named packages were published "most recently").
                self.names.fresh(&mut self.rng)
            } else {
                PackageName::new(NAMED[attempt - 10]).expect("paper names are valid")
            };
            if attempt > 0 && self.rng.gen_bool(0.4) {
                let m = *minilang::gen::Mutation::ALL
                    .choose(&mut self.rng)
                    .expect("non-empty");
                module = minilang::gen::mutate(&module, m, &mut self.rng);
            }
            let released = base + SimDuration::days(off) + SimDuration::hours(attempt as u64);
            let persistence = crate::campaign::sample_persistence(
                self.config.admin_detection_mean_hours,
                &mut self.rng,
            );
            let mut ops = oss_types::OpSet::empty();
            if attempt > 0 {
                ops.insert(oss_types::ChangeOp::ChangeName);
                ops.insert(oss_types::ChangeOp::ChangeCode);
            }
            let id = oss_types::PackageId::new(Ecosystem::Npm, name, oss_types::Version::default());
            let source_text = minilang::printer::print_module(&module);
            let description = "a lightweight helper library".to_string();
            let deps = Vec::new();
            let signature =
                crate::campaign::artifact_signature(&id, &description, &deps, &source_text);
            let dl =
                crate::downloads::ordinary_downloads(persistence.as_hours() as f64, &mut self.rng);
            pkg_indices.push(PkgIdx(self.packages.len() as u32 + packages.len() as u32));
            packages.push(SimPackage {
                id,
                description,
                dependencies: deps,
                source_text,
                signature,
                released,
                removed: Some(released + persistence),
                downloads: dl,
                campaign: Some(idx),
                attempt,
                actor,
                behavior: Some(behavior),
                ops_from_prev: ops,
                mirror_available: false,
                unavail_cause: None,
            });
        }
        self.campaigns.push(Campaign {
            idx,
            kind: CampaignKind::Similar,
            actor,
            ecosystem: Ecosystem::Npm,
            behavior,
            start: base,
            packages: pkg_indices,
            reported: false,
        });
        self.packages.extend(packages);
    }

    fn generate_loners(&mut self, count: usize) {
        // Ecosystem assignment by calibrated shares.
        for _ in 0..count {
            let eco = self.sample_ecosystem();
            let behavior = self.random_behavior();
            let actor = self.next_actor();
            let released = self.sample_start();
            let persistence = crate::campaign::sample_persistence(
                self.config.admin_detection_mean_hours,
                &mut self.rng,
            );
            let name = self.names.fresh(&mut self.rng);
            let module = minilang::gen::generate(behavior, &mut self.rng);
            let source_text = minilang::printer::print_module(&module);
            let description = "a simple utility library".to_string();
            let deps = Vec::new();
            let id = oss_types::PackageId::new(eco, name, oss_types::Version::default());
            let signature =
                crate::campaign::artifact_signature(&id, &description, &deps, &source_text);
            let dl =
                crate::downloads::ordinary_downloads(persistence.as_hours() as f64, &mut self.rng);
            self.packages.push(SimPackage {
                id,
                description,
                dependencies: deps,
                source_text,
                signature,
                released,
                removed: Some(released + persistence),
                downloads: dl,
                campaign: None,
                attempt: 0,
                actor,
                behavior: Some(behavior),
                ops_from_prev: oss_types::OpSet::empty(),
                mirror_available: false,
                unavail_cause: None,
            });
        }
    }

    fn sample_ecosystem(&mut self) -> Ecosystem {
        let total: f64 = calibration::ECOSYSTEM_SHARES.iter().map(|(_, s)| s).sum();
        let mut target = self.rng.gen_range(0.0..total);
        for &(eco, share) in &calibration::ECOSYSTEM_SHARES {
            if target < share {
                return eco;
            }
            target -= share;
        }
        Ecosystem::PyPI
    }

    fn availability_pass(&mut self, mirrors: &MirrorFleet) {
        let collect = self.config.collect_time;
        for pkg in &mut self.packages {
            let eco = pkg.id.ecosystem();
            if !eco.has_mirrors() {
                pkg.mirror_available = false;
                pkg.unavail_cause = Some(UnavailCause::NoMirrors);
                continue;
            }
            let captured = mirrors
                .for_ecosystem(eco)
                .filter_map(|m| m.capture_time(pkg.released, pkg.removed))
                .any(|t| t <= collect);
            if !captured {
                pkg.mirror_available = false;
                pkg.unavail_cause = Some(UnavailCause::PersistenceTooShort);
                continue;
            }
            if mirrors.any_holds(eco, pkg.released, pkg.removed, collect) {
                pkg.mirror_available = true;
                pkg.unavail_cause = None;
            } else {
                pkg.mirror_available = false;
                pkg.unavail_cause = Some(UnavailCause::ReleasedTooEarly);
            }
        }
    }

    /// Assigns mention blocks to dataset packages so that per-source
    /// missing rates approach Table VI: sources with high missing rates
    /// preferentially mention mirror-unavailable packages.
    fn assign_mentions(&mut self, blocks: Vec<Vec<SourceId>>) -> Vec<Mention> {
        let candidates: Vec<PkgIdx> = self
            .packages
            .iter()
            .enumerate()
            .filter(|(_, p)| p.removed.is_some() && p.released <= self.config.collect_time)
            .map(|(i, _)| PkgIdx(i as u32))
            .collect();

        // Pools keyed by (needs_pypi, mirror_available).
        let mut pools: HashMap<(bool, bool), Vec<PkgIdx>> = HashMap::new();
        for &idx in &candidates {
            let p = &self.packages[idx.index()];
            let key = (p.id.ecosystem() == Ecosystem::PyPI, p.mirror_available);
            pools.entry(key).or_default().push(idx);
        }
        // Fixed key order: HashMap iteration order would otherwise feed
        // the seeded RNG nondeterministically.
        for key in [(false, false), (false, true), (true, false), (true, true)] {
            if let Some(pool) = pools.get_mut(&key) {
                pool.shuffle(&mut self.rng);
            }
        }

        let mut take = |needs_pypi: bool, want_available: bool| -> Option<PkgIdx> {
            // Preference order: exact match, then relax availability,
            // then relax the ecosystem constraint (only when not
            // required).
            let orders: Vec<(bool, bool)> = if needs_pypi {
                vec![(true, want_available), (true, !want_available)]
            } else {
                vec![
                    (false, want_available),
                    (true, want_available),
                    (false, !want_available),
                    (true, !want_available),
                ]
            };
            for key in orders {
                if let Some(pool) = pools.get_mut(&key) {
                    if let Some(idx) = pool.pop() {
                        return Some(idx);
                    }
                }
            }
            None
        };

        let mut mentions = Vec::new();
        for block in blocks {
            let needs_pypi = block.contains(&SourceId::MalPyPI);
            let has_dump = block.iter().any(|s| {
                matches!(
                    s.publication_style(),
                    oss_types::source::PublicationStyle::DatasetDump
                )
            });
            // Want a mirror-recoverable package when the friendliest
            // source in the block has a low missing rate.
            let min_mr = block
                .iter()
                .map(|&s| calibration::single_missing_rate_pct(s))
                .fold(100.0f64, f64::min);
            let want_available = if has_dump {
                // Dump mentions are available regardless of mirrors; give
                // them whatever keeps the report-source pools balanced.
                self.rng.gen_bool(0.35)
            } else {
                self.rng.gen_bool(1.0 - min_mr / 100.0)
            };
            let Some(pkg) = take(needs_pypi, want_available) else {
                break; // candidate pool exhausted (tiny scales)
            };
            let removed = self.packages[pkg.index()]
                .removed
                .expect("dataset candidates are removed packages");
            for &source in &block {
                let lag_days = match source.publication_style() {
                    oss_types::source::PublicationStyle::DatasetDump => self.rng.gen_range(30..180),
                    _ => self.rng.gen_range(0..7),
                };
                // Sources publish in batches at their documented cadence
                // (Table V): the disclosure lands on the source's next
                // update tick after the find, and "never update" sources
                // batch roughly annually. The collector only sees batches
                // published before the crawl.
                let raw = removed + SimDuration::days(lag_days);
                let quantum = SimDuration::days(source.update_interval_days().unwrap_or(365));
                let tick = raw.as_minutes().div_ceil(quantum.as_minutes().max(1));
                let disclosed = SimTime::from_minutes(tick * quantum.as_minutes())
                    .min(self.config.collect_time);
                mentions.push(Mention {
                    package: pkg,
                    source,
                    disclosed,
                });
            }
        }
        mentions
    }

    fn generate_reports(&mut self, mentions: &[Mention]) -> (Vec<Website>, Vec<SecurityReport>) {
        let scale = self.config.scale;
        // Websites per Table III.
        let mut websites = Vec::new();
        let categories = [
            (ReportCategory::TechnicalCommunity, 16usize, 516usize),
            (ReportCategory::Commercial, 15, 545),
            (ReportCategory::News, 4, 143),
            (ReportCategory::Individual, 3, 95),
            (ReportCategory::Official, 1, 24),
            (ReportCategory::Other, 29, 43),
        ];
        let mut site_by_cat: HashMap<ReportCategory, Vec<usize>> = HashMap::new();
        for &(cat, sites, _) in &categories {
            let n = ((sites as f64 * scale).round() as usize).max(1);
            for i in 0..n {
                site_by_cat.entry(cat).or_default().push(websites.len());
                websites.push(Website {
                    name: format!("{}-{:02}.example", slug(cat), i),
                    category: cat,
                });
            }
        }
        let mentioned: std::collections::HashSet<PkgIdx> =
            mentions.iter().map(|m| m.package).collect();

        let mut reports: Vec<SecurityReport> = Vec::new();
        let mut report_id = 0u32;
        let pick_site = |rng: &mut StdRng| -> usize {
            // Report volume is dominated by community + commercial sites.
            let weights = [
                (ReportCategory::TechnicalCommunity, 516.0),
                (ReportCategory::Commercial, 545.0),
                (ReportCategory::News, 143.0),
                (ReportCategory::Individual, 95.0),
                (ReportCategory::Official, 24.0),
                (ReportCategory::Other, 43.0),
            ];
            let total: f64 = weights.iter().map(|(_, w)| w).sum();
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = ReportCategory::Other;
            for &(cat, w) in &weights {
                chosen = cat;
                if target < w {
                    break;
                }
                target -= w;
            }
            *site_by_cat[&chosen]
                .choose(rng)
                .expect("every category has at least one site")
        };

        // The Fig-8 showcase campaign always gets a dedicated report
        // cluster of its own, so its CG component is exactly the campaign
        // and the reconstructed timeline matches the paper's figure.
        if let Some(show_idx) = self.showcase {
            let mut pkgs: Vec<PkgIdx> = self.campaigns[show_idx.index()]
                .packages
                .iter()
                .copied()
                .filter(|p| mentioned.contains(p))
                .collect();
            pkgs.sort_by_key(|p| self.packages[p.index()].released);
            if pkgs.len() >= 2 {
                let actor = self.campaigns[show_idx.index()].actor;
                self.campaigns[show_idx.index()].reported = true;
                let mut start = 0usize;
                while start < pkgs.len() {
                    let len = self.rng.gen_range(5..=8).min(pkgs.len() - start);
                    let end = start + len;
                    let overlap_from = start.saturating_sub(1);
                    let chunk: Vec<PkgIdx> = pkgs[overlap_from..end].to_vec();
                    let last_removed = chunk
                        .iter()
                        .filter_map(|p| self.packages[p.index()].removed)
                        .max()
                        .unwrap_or(self.config.collect_time);
                    let site = pick_site(&mut self.rng);
                    reports.push(SecurityReport {
                        id: report_id,
                        website: site,
                        published: (last_removed + SimDuration::days(1))
                            .min(self.config.collect_time),
                        title: format!(
                            "Sophisticated, highly-targeted attacks by {} continue to plague npm",
                            actor.handle()
                        ),
                        packages: chunk,
                        actor_handle: Some(actor.handle()),
                        campaign: Some(show_idx),
                    });
                    report_id += 1;
                    start = end;
                }
            }
        }

        // Reported campaign clusters per ecosystem (Table VII CG).
        for eco in Ecosystem::MAJOR {
            let Some((groups, mean_size)) = calibration::cg_targets(eco) else {
                continue;
            };
            let n_clusters = ((groups as f64 * scale).round() as usize).max(1);
            let mut eco_campaigns: Vec<usize> = self
                .campaigns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.ecosystem == eco && !c.reported)
                .map(|(i, _)| i)
                .collect();
            eco_campaigns.shuffle(&mut self.rng);
            let merge = if eco == Ecosystem::Npm { 3 } else { 1 };
            // Cluster by actor: a report chain discloses one actor's
            // campaigns, so ground truth and attribution stay coherent.
            eco_campaigns.sort_by_key(|&c| self.campaigns[c].actor);
            let mut cursor = 0usize;
            for _ in 0..n_clusters {
                if cursor >= eco_campaigns.len() {
                    break;
                }
                let actor0 = self.campaigns[eco_campaigns[cursor]].actor;
                let group: Vec<usize> = eco_campaigns[cursor..]
                    .iter()
                    .take(merge)
                    .take_while(|&&c| self.campaigns[c].actor == actor0)
                    .copied()
                    .collect();
                cursor += group.len();
                // Collect the cluster's dataset packages, earliest first.
                let mut pkgs: Vec<PkgIdx> = group
                    .iter()
                    .flat_map(|&c| self.campaigns[c].packages.iter().copied())
                    .filter(|p| mentioned.contains(p))
                    .collect();
                pkgs.sort_by_key(|p| self.packages[p.index()].released);
                if pkgs.len() < 2 {
                    continue;
                }
                let ln = LogNormal::new(mean_size.ln(), 0.6).expect("valid parameters");
                let cover = (ln.sample(&mut self.rng) as usize).clamp(2, pkgs.len());
                let covered = &pkgs[..cover];
                let actor = self.campaigns[group[0]].actor;
                for &c in &group {
                    self.campaigns[c].reported = true;
                }
                // Chunk into reports of 4–9 packages, chained by one
                // shared package so the CG component stays connected.
                let mut start = 0usize;
                while start < covered.len() {
                    let len = self.rng.gen_range(4..=9).min(covered.len() - start);
                    let end = start + len;
                    let overlap_from = start.saturating_sub(1);
                    let chunk: Vec<PkgIdx> = covered[overlap_from..end].to_vec();
                    let last_removed = chunk
                        .iter()
                        .filter_map(|p| self.packages[p.index()].removed)
                        .max()
                        .unwrap_or(self.config.collect_time);
                    let site = pick_site(&mut self.rng);
                    reports.push(SecurityReport {
                        id: report_id,
                        website: site,
                        published: (last_removed + SimDuration::days(self.rng.gen_range(1..4)))
                            .min(self.config.collect_time),
                        title: format!(
                            "Malicious packages tied to {} flood {}",
                            actor.handle(),
                            eco.display_name()
                        ),
                        packages: chunk,
                        actor_handle: self.rng.gen_bool(0.6).then(|| actor.handle()),
                        campaign: Some(CampaignIdx(group[0] as u32)),
                    });
                    report_id += 1;
                    start = end;
                }
            }
        }

        // Singleton reports on loners to fill Table III volume.
        let target_reports = ((1366.0 * scale).round() as usize).max(reports.len());
        let mut loner_pkgs: Vec<PkgIdx> = mentioned
            .iter()
            .copied()
            .filter(|p| self.packages[p.index()].campaign.is_none())
            .collect();
        loner_pkgs.sort_unstable();
        loner_pkgs.shuffle(&mut self.rng);
        for pkg in loner_pkgs {
            if reports.len() >= target_reports {
                break;
            }
            let removed = self.packages[pkg.index()]
                .removed
                .expect("loners are always removed");
            let site = pick_site(&mut self.rng);
            reports.push(SecurityReport {
                id: report_id,
                website: site,
                published: (removed + SimDuration::days(self.rng.gen_range(1..10)))
                    .min(self.config.collect_time),
                title: format!(
                    "Malicious package {} spotted on {}",
                    self.packages[pkg.index()].id.name(),
                    self.packages[pkg.index()].id.ecosystem().display_name()
                ),
                packages: vec![pkg],
                actor_handle: None,
                campaign: None,
            });
            report_id += 1;
        }

        (websites, reports)
    }
}

fn slug(cat: ReportCategory) -> &'static str {
    match cat {
        ReportCategory::TechnicalCommunity => "tech-community",
        ReportCategory::Commercial => "commercial-org",
        ReportCategory::News => "news-site",
        ReportCategory::Individual => "indie-blog",
        ReportCategory::Official => "official-advisory",
        ReportCategory::Other => "other-site",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> World {
        World::generate(WorldConfig::small(42))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_world();
        let b = small_world();
        assert_eq!(a.packages.len(), b.packages.len());
        assert_eq!(a.mentions.len(), b.mentions.len());
        assert_eq!(a.reports.len(), b.reports.len());
        for (x, y) in a.packages.iter().zip(&b.packages) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.signature, y.signature);
        }
    }

    #[test]
    fn every_mention_points_at_a_dataset_candidate() {
        let w = small_world();
        for m in &w.mentions {
            let p = w.package(m.package);
            assert!(p.removed.is_some(), "{} was never removed", p.id);
            assert!(p.released <= w.config.collect_time);
        }
    }

    #[test]
    fn mentions_cover_all_ten_sources() {
        let w = small_world();
        for source in SourceId::ALL {
            assert!(
                w.mentions.iter().any(|m| m.source == source),
                "{source} has no mentions"
            );
        }
    }

    #[test]
    fn campaign_package_wiring_is_consistent() {
        let w = small_world();
        for (ci, campaign) in w.campaigns.iter().enumerate() {
            for &pkg in &campaign.packages {
                let p = w.package(pkg);
                assert_eq!(
                    p.campaign,
                    Some(CampaignIdx(ci as u32)),
                    "package {} not wired to campaign {ci}",
                    p.id
                );
            }
        }
    }

    #[test]
    fn world_contains_all_campaign_kinds() {
        let w = small_world();
        for kind in [
            CampaignKind::Similar,
            CampaignKind::Dependency,
            CampaignKind::Trojan,
            CampaignKind::Flood,
        ] {
            assert!(
                w.campaigns.iter().any(|c| c.kind == kind),
                "missing campaign kind {kind:?}"
            );
        }
    }

    #[test]
    fn showcase_campaign_exists_with_paper_names() {
        let w = small_world();
        for name in ["cloud-layout", "etc-crypto", "mall-front-babel-directive"] {
            assert!(
                w.packages.iter().any(|p| p.id.name().as_str() == name),
                "showcase package {name} missing"
            );
        }
    }

    #[test]
    fn unavailability_has_documented_causes() {
        let w = small_world();
        for p in &w.packages {
            if p.mirror_available {
                assert_eq!(p.unavail_cause, None);
            } else {
                assert!(p.unavail_cause.is_some(), "{} lacks a cause", p.id);
            }
            if !p.id.ecosystem().has_mirrors() {
                assert_eq!(p.unavail_cause, Some(UnavailCause::NoMirrors));
            }
        }
    }

    #[test]
    fn availability_is_mixed() {
        let w = small_world();
        let avail = w.packages.iter().filter(|p| p.mirror_available).count();
        let unavail = w.packages.len() - avail;
        assert!(avail > 0, "nothing is recoverable");
        assert!(unavail > 0, "everything is recoverable");
    }

    #[test]
    fn reports_reference_mentioned_packages_only() {
        let w = small_world();
        let mentioned: std::collections::HashSet<PkgIdx> =
            w.mentions.iter().map(|m| m.package).collect();
        for r in &w.reports {
            assert!(!r.packages.is_empty());
            for p in &r.packages {
                assert!(
                    mentioned.contains(p),
                    "report {} names unmentioned package",
                    r.id
                );
            }
        }
    }

    #[test]
    fn multi_package_reports_exist_for_cg() {
        let w = small_world();
        assert!(
            w.reports.iter().any(|r| r.packages.len() >= 2),
            "no multi-package reports — CG would be empty"
        );
    }

    #[test]
    fn trojans_leave_benign_versions_in_the_registry() {
        let w = small_world();
        let trojan = w
            .campaigns
            .iter()
            .find(|c| c.kind == CampaignKind::Trojan)
            .expect("trojans exist");
        let name = w.package(trojan.packages[0]).id.name().clone();
        let history = w.version_history(trojan.ecosystem, &name);
        assert!(history.len() >= 3);
        assert!(
            history.iter().any(|&p| w.package(p).removed.is_none()),
            "benign trojan versions stay in the registry"
        );
        // Version order is ascending.
        for pair in history.windows(2) {
            assert!(w.package(pair[0]).id.version() < w.package(pair[1]).id.version());
        }
    }

    #[test]
    fn release_years_span_the_fig2_range() {
        let w = small_world();
        let years: std::collections::HashSet<i32> =
            w.packages.iter().map(|p| p.released.year()).collect();
        assert!(years.contains(&2022));
        assert!(years.contains(&2023));
        assert!(years.len() >= 4, "timeline too narrow: {years:?}");
    }

    #[test]
    fn single_source_mentions_dominate() {
        let w = small_world();
        let mut per_pkg: HashMap<PkgIdx, usize> = HashMap::new();
        for m in &w.mentions {
            *per_pkg.entry(m.package).or_default() += 1;
        }
        let singles = per_pkg.values().filter(|&&c| c == 1).count();
        let frac = singles as f64 / per_pkg.len() as f64;
        assert!(
            frac > 0.6,
            "Fig. 4: most packages single-source, got {frac:.2}"
        );
    }
}
