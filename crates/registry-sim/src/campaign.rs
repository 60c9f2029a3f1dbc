//! Attack campaigns: the generative process behind the corpus.
//!
//! The paper's life-cycle model (Fig. 6 / Fig. 10) is
//! {changing → release → detection → removal}, repeated until the actor
//! gives up. Each campaign kind maps onto one of the paper's analysis
//! groups:
//!
//! * [`CampaignKind::Similar`] — same code re-released under fresh names
//!   (SG; the dominant strategy, short active periods, Fig. 9);
//! * [`CampaignKind::Dependency`] — a benign-looking front package
//!   depending on a malicious library (DeG; rare, **longest** active
//!   period, Fig. 7);
//! * [`CampaignKind::Flood`] — thousands of near-identical packages
//!   registered in a burst (the PyPI registering-flood report);
//! * [`CampaignKind::Trojan`] — version hijack of a package that first
//!   builds legitimacy, producing the download outliers of Fig. 11 and
//!   the multi-op IDN rows of Table VIII.

use crate::downloads;
use crate::names::NameGenerator;
use crate::package::{CampaignIdx, PkgIdx, SimPackage};
use minilang::gen::{generate, generate_benign, mutate, Behavior, Mutation};
use minilang::printer::print_module;
use minilang::Module;
use oss_types::hash::Sha256Hasher;
use oss_types::{
    ActorId, ChangeOp, Ecosystem, OpSet, PackageId, PackageName, Sha256, SimDuration, SimTime,
    Version,
};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_distr::{Distribution, LogNormal};

/// Campaign strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CampaignKind {
    /// Re-release similar code under fresh names.
    Similar,
    /// Hide the payload behind a dependency edge.
    Dependency,
    /// Register a large burst of near-identical packages.
    Flood,
    /// Hijack versions of a package that built legitimacy first.
    Trojan,
}

impl CampaignKind {
    /// Label used in logs and the repro harness.
    pub fn label(self) -> &'static str {
        match self {
            CampaignKind::Similar => "similar",
            CampaignKind::Dependency => "dependency",
            CampaignKind::Flood => "flood",
            CampaignKind::Trojan => "trojan",
        }
    }
}

/// Ground-truth record of one campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Index in the world's campaign list.
    pub idx: CampaignIdx,
    /// Strategy.
    pub kind: CampaignKind,
    /// Adversary identity.
    pub actor: ActorId,
    /// Target ecosystem.
    pub ecosystem: Ecosystem,
    /// Behaviour family of the payload.
    pub behavior: Behavior,
    /// First release instant.
    pub start: SimTime,
    /// Packages released by the campaign, in attempt order.
    pub packages: Vec<PkgIdx>,
    /// Whether the report layer chose to disclose this campaign.
    pub reported: bool,
}

/// Generation parameters for one campaign, decided by the world builder.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Strategy.
    pub kind: CampaignKind,
    /// Target ecosystem.
    pub ecosystem: Ecosystem,
    /// Payload behaviour family.
    pub behavior: Behavior,
    /// Adversary identity.
    pub actor: ActorId,
    /// First release instant.
    pub start: SimTime,
    /// Number of release attempts.
    pub attempts: usize,
    /// Mean gap between consecutive attempts.
    pub mean_gap: SimDuration,
    /// Mean persistence (release → removal) in hours.
    pub mean_persistence_hours: f64,
    /// Trojan campaigns only: force a top-popularity base package (the
    /// Table VIII outlier) instead of sampling from the mixture. The
    /// world builder sets this on the first trojan so every corpus
    /// carries at least one 10⁷-scale IDN lineage.
    pub mega_popularity: bool,
    /// Dependency campaigns only: release window for the benign fronts.
    /// When set, fronts are spread uniformly inside it instead of
    /// following `mean_gap` — the world builder uses this to model
    /// survivorship: the DeG campaigns a collector can observe are those
    /// whose fronts were still mirror-recoverable at collection time.
    pub front_release_window: Option<(SimTime, SimTime)>,
}

/// Everything a materialized campaign produces.
#[derive(Debug)]
pub struct MaterializedCampaign {
    /// The campaign record (package indices already wired).
    pub campaign: Campaign,
    /// The generated packages, in attempt order.
    pub packages: Vec<SimPackage>,
}

impl CampaignPlan {
    /// Generates the campaign's packages.
    ///
    /// `idx` is the campaign's index in the world; `first_pkg_idx` the
    /// index the first produced package will receive.
    ///
    /// # Panics
    ///
    /// Panics if `attempts == 0`.
    pub fn materialize(
        &self,
        idx: CampaignIdx,
        first_pkg_idx: u32,
        names: &mut NameGenerator,
        rng: &mut impl Rng,
    ) -> MaterializedCampaign {
        assert!(self.attempts > 0, "a campaign needs at least one attempt");
        match self.kind {
            CampaignKind::Dependency => self.materialize_dependency(idx, first_pkg_idx, names, rng),
            CampaignKind::Trojan => self.materialize_trojan(idx, first_pkg_idx, names, rng),
            _ => self.materialize_serial(idx, first_pkg_idx, names, rng),
        }
    }

    /// Similar / Flood: one lineage of re-released packages.
    fn materialize_serial(
        &self,
        idx: CampaignIdx,
        first_pkg_idx: u32,
        names: &mut NameGenerator,
        rng: &mut impl Rng,
    ) -> MaterializedCampaign {
        let mut packages = Vec::with_capacity(self.attempts);
        // The actor keeps a master copy; each CC attempt derives from it
        // with fresh small edits rather than accumulating mutations, so
        // every release stays near the master (which is what keeps large
        // similar campaigns in one SG even when mirrors lose members).
        let base_module = generate(self.behavior, rng);
        let mut module = base_module.clone();
        let mut name = names.fresh(rng);
        let mut version = Version::default();
        let mut description = describe(self.behavior, rng);
        let mut deps = legit_deps(rng);
        let mut t = self.start;

        for attempt in 0..self.attempts {
            let mut ops = OpSet::empty();
            if attempt > 0 {
                // {changing → release}: decide this attempt's operations.
                let freq = crate::calibration::OP_FREQUENCIES;
                // CV-only re-release: the previous name is usually still
                // live at the next attempt (detection lags by hours), so
                // the attacker can push a new version of the same name.
                if rng.gen_bool(freq.change_version) {
                    version = version.bump_patch();
                    ops.insert(ChangeOp::ChangeVersion);
                } else {
                    name = names.sibling(&name, rng);
                    version = Version::default();
                    ops.insert(ChangeOp::ChangeName);
                }
                if rng.gen_bool(freq.change_description) {
                    description = describe(self.behavior, rng);
                    ops.insert(ChangeOp::ChangeDescription);
                }
                if rng.gen_bool(freq.change_dependency) {
                    deps = legit_deps(rng);
                    ops.insert(ChangeOp::ChangeDependency);
                }
                if rng.gen_bool(freq.change_code) {
                    let n_mut = 1 + usize::from(rng.gen_bool(0.45));
                    module = base_module.clone();
                    for _ in 0..n_mut {
                        // Floods rotate literals only (a fresh C2
                        // endpoint per registration) and never touch the
                        // code structure; ordinary campaigns use the full
                        // mutation mix.
                        let mutation = if self.kind == CampaignKind::Flood {
                            if rng.gen_bool(0.6) {
                                Mutation::SwapStringLiteral
                            } else {
                                Mutation::TweakIntConstant
                            }
                        } else {
                            small_biased_mutation(rng)
                        };
                        module = mutate(&module, mutation, rng);
                    }
                    ops.insert(ChangeOp::ChangeCode);
                }
            }

            // Flood registrations overwhelm the registry staff: the real
            // 2023 PyPI flood was cleaned up in bulk sweeps days later,
            // which is why mirrors caught (and the paper recovered) most
            // of it. Ordinary releases are pulled at the usual latency.
            let persistence_mean = if self.kind == CampaignKind::Flood {
                self.mean_persistence_hours * 12.0
            } else {
                self.mean_persistence_hours
            };
            let mut persistence = sample_persistence(persistence_mean, rng);
            if self.kind == CampaignKind::Flood {
                // The sweep finishes within weeks — no flood package
                // outlives the collection crawl months later.
                persistence = persistence.min(SimDuration::days(21));
            }
            let removed = t + persistence;
            let dl = downloads::ordinary_downloads(persistence.as_minutes() as f64 / 60.0, rng);
            packages.push(build_package(
                self,
                idx,
                attempt,
                name.clone(),
                version.clone(),
                &module,
                description.clone(),
                deps.clone(),
                t,
                Some(removed),
                dl,
                ops,
                Some(self.behavior),
            ));
            t += gap_sample(self.mean_gap, rng);
        }
        wire(idx, self, first_pkg_idx, packages)
    }

    /// Dependency attack (Fig. 7): a malicious library first, then a
    /// benign-looking front that depends on it.
    fn materialize_dependency(
        &self,
        idx: CampaignIdx,
        first_pkg_idx: u32,
        names: &mut NameGenerator,
        rng: &mut impl Rng,
    ) -> MaterializedCampaign {
        let attempts = self.attempts.max(2);
        let mut packages = Vec::with_capacity(attempts);
        let mut t = self.start;

        // The hidden malicious library: long persistence (it looks
        // innocent until the front is analysed).
        let lib_module = generate(self.behavior, rng);
        let lib_name = names.fresh(rng);
        let lib_persistence = sample_persistence(self.mean_persistence_hours * 20.0, rng);
        let lib_dl = downloads::ordinary_downloads(lib_persistence.as_hours() as f64, rng);
        packages.push(build_package(
            self,
            idx,
            0,
            lib_name.clone(),
            Version::default(),
            &lib_module,
            describe(self.behavior, rng),
            legit_deps(rng),
            t,
            Some(t + lib_persistence),
            lib_dl,
            OpSet::empty(),
            Some(self.behavior),
        ));

        // Front packages: benign code, the malicious library declared as
        // a dependency. These follow much later — DeG campaigns have the
        // longest active periods (Fig. 9).
        let mut front_times: Vec<SimTime> = (1..attempts)
            .map(|_| match self.front_release_window {
                Some((lo, hi)) => {
                    let span = (hi - lo).as_minutes().max(1);
                    lo + SimDuration::minutes(rng.gen_range(0..span))
                }
                None => {
                    t += gap_sample(self.mean_gap, rng);
                    t
                }
            })
            .collect();
        front_times.sort_unstable();
        for (attempt, t) in (1..attempts).zip(front_times) {
            let front_module = generate_benign(rng);
            let front_name = names.fresh(rng);
            let mut deps = legit_deps(rng);
            deps.push(lib_name.clone());
            // Fronts look entirely benign, so the registry takes weeks to
            // act on them — long persistence is what keeps them
            // recoverable from mirrors (and what the analysts diffed).
            let persistence = sample_persistence(self.mean_persistence_hours * 30.0, rng);
            let dl = downloads::ordinary_downloads(persistence.as_hours() as f64, rng);
            let mut ops = OpSet::empty();
            ops.insert(ChangeOp::ChangeName);
            ops.insert(ChangeOp::ChangeDependency);
            ops.insert(ChangeOp::ChangeCode);
            packages.push(build_package(
                self,
                idx,
                attempt,
                front_name,
                Version::default(),
                &front_module,
                benign_description(rng),
                deps,
                t,
                Some(t + persistence),
                dl,
                ops,
                None, // the front package itself carries no payload
            ));
        }
        wire(idx, self, first_pkg_idx, packages)
    }

    /// Trojan (Table VIII): same name throughout, versions bump, downloads
    /// compound, the payload lands in the final releases.
    fn materialize_trojan(
        &self,
        idx: CampaignIdx,
        first_pkg_idx: u32,
        names: &mut NameGenerator,
        rng: &mut impl Rng,
    ) -> MaterializedCampaign {
        let attempts = self.attempts.max(3);
        let mut packages = Vec::with_capacity(attempts);
        let name = names.fresh(rng);
        let base_dl = if self.mega_popularity {
            rng.gen_range(10_000_000..60_000_000)
        } else {
            downloads::trojan_base_downloads(rng)
        };
        let mut version = Version::default();
        let mut module = generate_benign(rng);
        let mut description = benign_description(rng);
        let mut deps = legit_deps(rng);
        let mut t = self.start;
        let malicious_from = attempts - 1 - usize::from(attempts > 4);

        for attempt in 0..attempts {
            let is_malicious = attempt >= malicious_from;
            let mut ops = OpSet::empty();
            if attempt > 0 {
                version = if rng.gen_bool(0.3) {
                    version.bump_minor()
                } else {
                    version.bump_patch()
                };
                ops.insert(ChangeOp::ChangeVersion);
                // "constantly adding new features": code & metadata churn.
                if rng.gen_bool(0.8) {
                    let m = *Mutation::ALL.choose(rng).expect("non-empty");
                    module = mutate(&module, m, rng);
                    ops.insert(ChangeOp::ChangeCode);
                }
                if rng.gen_bool(0.6) {
                    description = benign_description(rng);
                    ops.insert(ChangeOp::ChangeDescription);
                }
                if rng.gen_bool(0.5) {
                    deps = legit_deps(rng);
                    ops.insert(ChangeOp::ChangeDependency);
                }
            }
            if is_malicious && attempt == malicious_from {
                // The payload is spliced in: a large CC.
                let payload = generate(self.behavior, rng);
                let mut combined = module.clone();
                combined.body.extend(payload.body);
                module = combined;
                ops.insert(ChangeOp::ChangeCode);
            }
            let (persistence, removed) = if is_malicious {
                // Disguised as an update of a trusted package: survives
                // much longer before detection.
                let p = sample_persistence(self.mean_persistence_hours * 10.0, rng);
                (p, Some(t + p))
            } else {
                (SimDuration::ZERO, None) // benign versions are never removed
            };
            let dl = downloads::trojan_downloads(base_dl, attempt, rng);
            let _ = persistence;
            packages.push(build_package(
                self,
                idx,
                attempt,
                name.clone(),
                version.clone(),
                &module,
                description.clone(),
                deps.clone(),
                t,
                removed,
                dl,
                ops,
                is_malicious.then_some(self.behavior),
            ));
            t += gap_sample(self.mean_gap, rng);
        }
        wire(idx, self, first_pkg_idx, packages)
    }
}

#[allow(clippy::too_many_arguments)]
fn build_package(
    plan: &CampaignPlan,
    idx: CampaignIdx,
    attempt: usize,
    name: PackageName,
    version: Version,
    module: &Module,
    description: String,
    deps: Vec<PackageName>,
    released: SimTime,
    removed: Option<SimTime>,
    downloads: u64,
    ops: OpSet,
    behavior: Option<Behavior>,
) -> SimPackage {
    let id = PackageId::new(plan.ecosystem, name, version);
    let source_text = print_module(module);
    let signature = artifact_signature(&id, &description, &deps, &source_text);
    SimPackage {
        id,
        description,
        dependencies: deps,
        source_text,
        signature,
        released,
        removed,
        downloads,
        campaign: Some(idx),
        attempt,
        actor: plan.actor,
        behavior,
        ops_from_prev: ops,
        // Filled by the availability pass in the world builder.
        mirror_available: false,
        unavail_cause: None,
    }
}

fn wire(
    idx: CampaignIdx,
    plan: &CampaignPlan,
    first_pkg_idx: u32,
    packages: Vec<SimPackage>,
) -> MaterializedCampaign {
    let pkg_indices = (0..packages.len() as u32)
        .map(|i| PkgIdx(first_pkg_idx + i))
        .collect();
    MaterializedCampaign {
        campaign: Campaign {
            idx,
            kind: plan.kind,
            actor: plan.actor,
            ecosystem: plan.ecosystem,
            behavior: plan.behavior,
            start: plan.start,
            packages: pkg_indices,
            reported: false,
        },
        packages,
    }
}

/// Picks a mutation biased toward single-line edits, matching the
/// paper's ≈3.7 changed lines per CC operation (endpoint swaps dominate;
/// wholesale function insertion is rare).
fn small_biased_mutation(rng: &mut impl Rng) -> Mutation {
    let roll: f64 = rng.gen();
    if roll < 0.40 {
        Mutation::SwapStringLiteral
    } else if roll < 0.62 {
        Mutation::TweakIntConstant
    } else if roll < 0.82 {
        Mutation::RenameIdentifier
    } else {
        Mutation::InsertBenignFunction
    }
}

/// Signature over the whole artifact: identity, metadata and code. Two
/// *mentions* of the same release hash identically; two campaign attempts
/// never do (name or version always changes between attempts).
///
/// The bytes hashed are the id, the description, each dependency name
/// followed by a comma, and the source text, with a newline after each
/// of the first three parts; they are fed to the hasher piece by piece.
pub fn artifact_signature(
    id: &PackageId,
    description: &str,
    deps: &[PackageName],
    source_text: &str,
) -> Sha256 {
    let mut hasher = Sha256Hasher::new();
    hasher.update(id.to_string().as_bytes());
    hasher.update(b"\n");
    hasher.update(description.as_bytes());
    hasher.update(b"\n");
    for d in deps {
        hasher.update(d.as_str().as_bytes());
        hasher.update(b",");
    }
    hasher.update(b"\n");
    hasher.update(source_text.as_bytes());
    hasher.finalize()
}

/// Samples a persistence duration: log-normal around the mean, floored at
/// 20 minutes (the registry never reacts instantly).
pub fn sample_persistence(mean_hours: f64, rng: &mut impl Rng) -> SimDuration {
    let mu = mean_hours.max(0.5).ln();
    let ln = LogNormal::new(mu, 1.0).expect("valid parameters");
    let hours = ln.sample(rng).clamp(0.3, 24.0 * 365.0 * 3.0);
    SimDuration::minutes((hours * 60.0).max(20.0) as u64)
}

fn gap_sample(mean: SimDuration, rng: &mut impl Rng) -> SimDuration {
    let m = mean.as_minutes().max(1) as f64;
    let ln = LogNormal::new(m.ln(), 0.8).expect("valid parameters");
    SimDuration::minutes(ln.sample(rng).clamp(1.0, 3.0 * 365.0 * 1440.0) as u64)
}

const DESCRIPTION_WORDS: [&str; 18] = [
    "fast",
    "lightweight",
    "simple",
    "secure",
    "modern",
    "async",
    "utility",
    "helper",
    "client",
    "wrapper",
    "parser",
    "toolkit",
    "logging",
    "http",
    "color",
    "config",
    "cache",
    "testing",
];

fn describe(behavior: Behavior, rng: &mut impl Rng) -> String {
    // Malicious descriptions mimic utility libraries; the behaviour never
    // appears in metadata, but campaigns keep a loose theme.
    let _ = behavior;
    benign_description(rng)
}

fn benign_description(rng: &mut impl Rng) -> String {
    let a = DESCRIPTION_WORDS.choose(rng).expect("non-empty");
    let b = DESCRIPTION_WORDS.choose(rng).expect("non-empty");
    let c = DESCRIPTION_WORDS.choose(rng).expect("non-empty");
    format!("a {a} {b} {c} library")
}

fn legit_deps(rng: &mut impl Rng) -> Vec<PackageName> {
    let n = rng.gen_range(0..=3);
    let mut deps = Vec::with_capacity(n);
    for _ in 0..n {
        let name = crate::names::POPULAR_TARGETS
            .choose(rng)
            .expect("non-empty");
        let parsed = PackageName::new(name).expect("popular targets are valid names");
        if !deps.contains(&parsed) {
            deps.push(parsed);
        }
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan(kind: CampaignKind, attempts: usize) -> CampaignPlan {
        CampaignPlan {
            kind,
            ecosystem: Ecosystem::PyPI,
            behavior: Behavior::ExfilAws,
            actor: ActorId::new(7),
            start: SimTime::from_ymd(2023, 3, 1),
            attempts,
            mean_gap: SimDuration::days(2),
            mean_persistence_hours: 36.0,
            mega_popularity: false,
            front_release_window: None,
        }
    }

    fn materialize(p: &CampaignPlan, seed: u64) -> MaterializedCampaign {
        let mut names = NameGenerator::new(0);
        let mut rng = StdRng::seed_from_u64(seed);
        p.materialize(CampaignIdx(0), 0, &mut names, &mut rng)
    }

    #[test]
    fn serial_campaign_produces_ordered_unique_attempts() {
        let m = materialize(&plan(CampaignKind::Similar, 12), 1);
        assert_eq!(m.packages.len(), 12);
        for (i, pkg) in m.packages.iter().enumerate() {
            assert_eq!(pkg.attempt, i);
            assert_eq!(pkg.campaign, Some(CampaignIdx(0)));
        }
        for pair in m.packages.windows(2) {
            assert!(pair[0].released <= pair[1].released, "release order");
            assert_ne!(pair[0].id, pair[1].id, "identities must differ");
            assert_ne!(pair[0].signature, pair[1].signature);
        }
        assert_eq!(m.campaign.packages.len(), 12);
    }

    #[test]
    fn first_attempt_has_no_ops_later_attempts_do() {
        let m = materialize(&plan(CampaignKind::Similar, 8), 2);
        assert!(m.packages[0].ops_from_prev.is_empty());
        for pkg in &m.packages[1..] {
            assert!(
                !pkg.ops_from_prev.is_empty(),
                "attempt {} has no ops",
                pkg.attempt
            );
            assert!(
                pkg.ops_from_prev.contains(ChangeOp::ChangeName)
                    || pkg.ops_from_prev.contains(ChangeOp::ChangeVersion),
                "every re-release changes name or version"
            );
        }
    }

    #[test]
    fn cn_dominates_in_similar_campaigns() {
        let mut names = NameGenerator::new(0);
        let mut rng = StdRng::seed_from_u64(3);
        let p = plan(CampaignKind::Similar, 40);
        let mut cn = 0usize;
        let mut total = 0usize;
        for c in 0..10u32 {
            let m = p.materialize(CampaignIdx(c), 0, &mut names, &mut rng);
            for pkg in &m.packages[1..] {
                total += 1;
                if pkg.ops_from_prev.contains(ChangeOp::ChangeName) {
                    cn += 1;
                }
            }
        }
        let frac = cn as f64 / total as f64;
        assert!(
            frac > 0.93,
            "CN should dominate (Fig. 12 ≈98.9%), got {frac}"
        );
    }

    #[test]
    fn dependency_campaign_wires_the_front_to_the_library() {
        let m = materialize(&plan(CampaignKind::Dependency, 3), 4);
        assert!(m.packages.len() >= 2);
        let lib = &m.packages[0];
        assert!(lib.is_malicious(), "the hidden library carries the payload");
        for front in &m.packages[1..] {
            assert!(!front.is_malicious(), "fronts look benign");
            assert!(
                front.dependencies.contains(lib.id.name()),
                "front must depend on the malicious library"
            );
        }
    }

    #[test]
    fn trojan_keeps_its_name_and_grows_downloads() {
        let m = materialize(&plan(CampaignKind::Trojan, 6), 5);
        let name = m.packages[0].id.name().clone();
        assert!(m.packages.iter().all(|p| p.id.name() == &name));
        // Versions strictly increase.
        for pair in m.packages.windows(2) {
            assert!(pair[0].id.version() < pair[1].id.version());
            assert!(
                pair[1].ops_from_prev.contains(ChangeOp::ChangeVersion),
                "trojans re-release by version"
            );
        }
        assert!(m.packages.last().unwrap().is_malicious());
        assert!(!m.packages[0].is_malicious());
        let d0 = m.packages[0].downloads;
        let dn = m.packages.last().unwrap().downloads;
        assert!(dn > d0, "downloads grow: {d0} → {dn}");
    }

    #[test]
    fn materialization_is_deterministic() {
        let p = plan(CampaignKind::Similar, 5);
        let a = materialize(&p, 9);
        let b = materialize(&p, 9);
        for (x, y) in a.packages.iter().zip(&b.packages) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.signature, y.signature);
            assert_eq!(x.downloads, y.downloads);
        }
    }

    #[test]
    fn generated_code_always_parses() {
        for kind in [
            CampaignKind::Similar,
            CampaignKind::Dependency,
            CampaignKind::Trojan,
        ] {
            let m = materialize(&plan(kind, 5), 11);
            for pkg in &m.packages {
                minilang::parse(&pkg.source_text)
                    .unwrap_or_else(|e| panic!("{:?} attempt {}: {e}", kind, pkg.attempt));
            }
        }
    }

    #[test]
    fn persistence_sampling_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..500 {
            let p = sample_persistence(36.0, &mut rng);
            assert!(p.as_minutes() >= 20);
            assert!(p.as_days() <= 3 * 365);
        }
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_panics() {
        let _ = materialize(&plan(CampaignKind::Similar, 0), 1);
    }
}
