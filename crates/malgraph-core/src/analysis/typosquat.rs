//! Extension — typosquat targeting.
//!
//! The related-work section of the paper calls typosquatting "the most
//! popular attack vector in the OSS ecosystem" (§V, citing Spellbound and
//! LastPyMile). The corpus makes that measurable: for every collected
//! package name, find the closest popular legitimate package within edit
//! distance 2 and census which targets attackers impersonate most.

use crate::analysis::index::AnalysisIndex;
use crawler::{CollectedDataset, CollectedPackage};
use oss_types::name::levenshtein_bounded;
use oss_types::Ecosystem;
use std::collections::HashMap;

/// One row of the typosquat census.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TyposquatRow {
    /// The legitimate package being impersonated.
    pub target: &'static str,
    /// Number of corpus packages within edit distance 2 of it.
    pub squatters: usize,
}

/// Result of the typosquat analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TyposquatCensus {
    /// Targets with at least one squatter, most-squatted first.
    pub rows: Vec<TyposquatRow>,
    /// Corpus packages that squat *some* target.
    pub squatting_packages: usize,
    /// Total corpus packages inspected.
    pub total_packages: usize,
}

impl TyposquatCensus {
    /// Fraction of the corpus that typosquats a popular package.
    pub fn squat_rate(&self) -> f64 {
        if self.total_packages == 0 {
            0.0
        } else {
            self.squatting_packages as f64 / self.total_packages as f64
        }
    }
}

/// The paper's distance threshold: a stem within two edits of a popular
/// name counts as impersonating it.
const SQUAT_BOUND: usize = 2;

/// Runs the census over the corpus, optionally per ecosystem. A package
/// counts as a squatter of the *closest* target (ties broken by target
/// order) when its name's stem is within edit distance 2.
pub fn typosquat_census(
    dataset: &CollectedDataset,
    ecosystem: Option<Ecosystem>,
) -> TyposquatCensus {
    census_over(
        dataset
            .packages
            .iter()
            .filter(|pkg| ecosystem.is_none_or(|eco| pkg.id.ecosystem() == eco)),
    )
}

/// [`typosquat_census`] over the index's per-ecosystem partition — the
/// `Some(ecosystem)` case touches only that ecosystem's packages instead
/// of filtering the whole corpus.
pub fn typosquat_census_indexed(
    index: &AnalysisIndex,
    dataset: &CollectedDataset,
    ecosystem: Option<Ecosystem>,
) -> TyposquatCensus {
    match ecosystem {
        None => census_over(dataset.packages.iter()),
        Some(eco) => census_over(index.packages_in(eco).iter().map(|&i| &dataset.packages[i])),
    }
}

fn census_over<'d>(packages: impl Iterator<Item = &'d CollectedPackage>) -> TyposquatCensus {
    let targets = &registry_sim::names::POPULAR_TARGETS;
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    let mut squatting = 0usize;
    let mut total = 0usize;
    for pkg in packages {
        total += 1;
        // Campaign names carry uniqueness suffixes (`reqests-4f`); squat
        // detection uses the stem before the last dash group.
        let name = pkg.id.name().as_str();
        let stem = name.rsplit_once('-').map(|(s, _)| s).unwrap_or(name);
        // The banded distance is `None` above the bound, so targets more
        // than two edits away never reach the `min` — which cannot change
        // the winner: a first-minimum at distance ≤ 2 beats every pruned
        // (> 2) target, and when all targets are pruned the package was
        // never counted anyway.
        let best = targets
            .iter()
            .filter_map(|t| levenshtein_bounded(stem, t, SQUAT_BOUND).map(|d| (d, *t)))
            .min_by_key(|&(d, _)| d);
        if let Some((_, target)) = best {
            if stem != target {
                *counts.entry(target).or_default() += 1;
                squatting += 1;
            }
        }
    }
    let mut rows: Vec<TyposquatRow> = counts
        .into_iter()
        .map(|(target, squatters)| TyposquatRow { target, squatters })
        .collect();
    rows.sort_by(|a, b| b.squatters.cmp(&a.squatters).then(a.target.cmp(b.target)));
    TyposquatCensus {
        rows,
        squatting_packages: squatting,
        total_packages: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::collect;
    use registry_sim::{World, WorldConfig};

    #[test]
    fn census_finds_squatters_in_the_corpus() {
        let world = World::generate(WorldConfig::small(131));
        let ds = collect(&world);
        let census = typosquat_census(&ds, None);
        assert_eq!(census.total_packages, ds.packages.len());
        assert!(
            census.squatting_packages > 0,
            "the name generator emits typosquats by design"
        );
        assert!(!census.rows.is_empty());
        // Rows are sorted descending.
        for pair in census.rows.windows(2) {
            assert!(pair[0].squatters >= pair[1].squatters);
        }
        // Census total consistency.
        let sum: usize = census.rows.iter().map(|r| r.squatters).sum();
        assert_eq!(sum, census.squatting_packages);
        assert!(census.squat_rate() > 0.0 && census.squat_rate() < 1.0);
    }

    #[test]
    fn ecosystem_filter_partitions() {
        let world = World::generate(WorldConfig::small(132));
        let ds = collect(&world);
        let all = typosquat_census(&ds, None);
        let per_eco: usize = Ecosystem::ALL
            .iter()
            .map(|&e| typosquat_census(&ds, Some(e)).squatting_packages)
            .sum();
        assert_eq!(all.squatting_packages, per_eco);
    }

    #[test]
    fn indexed_census_matches_filtered_census() {
        let world = World::generate(WorldConfig::small(131));
        let ds = collect(&world);
        let index = AnalysisIndex::new(&ds);
        assert_eq!(
            typosquat_census_indexed(&index, &ds, None),
            typosquat_census(&ds, None)
        );
        for &eco in &Ecosystem::ALL {
            assert_eq!(
                typosquat_census_indexed(&index, &ds, Some(eco)),
                typosquat_census(&ds, Some(eco)),
                "{eco:?}"
            );
        }
    }

    #[test]
    fn empty_corpus_is_handled() {
        let ds = CollectedDataset {
            packages: vec![],
            reports: vec![],
            website_count: 0,
            collect_time: oss_types::SimTime::EPOCH,
            health: None,
        };
        let census = typosquat_census(&ds, None);
        assert_eq!(census.squat_rate(), 0.0);
        assert!(census.rows.is_empty());
    }
}
