//! Release-timeline analysis (paper Fig. 2 and the §II-D dynamic-changing
//! argument).

use crawler::CollectedDataset;
use oss_types::Ecosystem;
use std::collections::BTreeMap;

/// One timeline bucket: a calendar quarter.
pub type Quarter = (i32, u32);

/// Release counts per quarter, optionally restricted to one ecosystem.
pub fn releases_per_quarter(
    dataset: &CollectedDataset,
    ecosystem: Option<Ecosystem>,
) -> BTreeMap<Quarter, usize> {
    let mut buckets: BTreeMap<Quarter, usize> = BTreeMap::new();
    for pkg in &dataset.packages {
        if let Some(eco) = ecosystem {
            if pkg.id.ecosystem() != eco {
                continue;
            }
        }
        if let Some(meta) = pkg.meta {
            *buckets
                .entry((meta.released.year(), meta.released.quarter()))
                .or_default() += 1;
        }
    }
    buckets
}

/// Summary of the timeline's shape, used to check the paper's Fig.-2
/// claims ("covering 2018 to 2024", growth into 2022–2023).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSummary {
    /// First quarter with a release.
    pub first: Option<Quarter>,
    /// Last quarter with a release.
    pub last: Option<Quarter>,
    /// The busiest quarter and its count.
    pub peak: Option<(Quarter, usize)>,
    /// Fraction of releases in 2022 or later.
    pub recent_fraction: f64,
}

/// Summarizes the quarterly series.
pub fn summarize(buckets: &BTreeMap<Quarter, usize>) -> TimelineSummary {
    let total: usize = buckets.values().sum();
    let recent: usize = buckets
        .iter()
        .filter(|((year, _), _)| *year >= 2022)
        .map(|(_, c)| c)
        .sum();
    TimelineSummary {
        first: buckets.keys().next().copied(),
        last: buckets.keys().next_back().copied(),
        peak: buckets
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(&q, &c)| (q, c)),
        recent_fraction: if total == 0 {
            0.0
        } else {
            recent as f64 / total as f64
        },
    }
}

/// §II-D's stability argument: the analysis results should be stable as
/// the corpus grows over time. This computes the single-source fraction
/// (the headline of Fig. 4) cumulatively per year, so stability is
/// measurable rather than asserted.
pub fn single_source_fraction_by_year(dataset: &CollectedDataset) -> Vec<(i32, f64)> {
    let mut per_year: BTreeMap<i32, (usize, usize)> = BTreeMap::new();
    for pkg in &dataset.packages {
        let Some(meta) = pkg.meta else { continue };
        let year = meta.released.year();
        let entry = per_year.entry(year).or_default();
        entry.1 += 1;
        let mut sources: Vec<_> = pkg.mentions.iter().map(|&(s, _)| s).collect();
        sources.sort_unstable();
        sources.dedup();
        if sources.len() == 1 {
            entry.0 += 1;
        }
    }
    // Cumulative: "if we had stopped collecting in year Y".
    let mut singles = 0usize;
    let mut total = 0usize;
    per_year
        .into_iter()
        .map(|(year, (s, t))| {
            singles += s;
            total += t;
            (year, singles as f64 / total.max(1) as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::collect;
    use registry_sim::{World, WorldConfig};

    fn dataset() -> CollectedDataset {
        collect(&World::generate(WorldConfig::small(121)))
    }

    #[test]
    fn timeline_spans_the_fig2_range_and_peaks_late() {
        let ds = dataset();
        let buckets = releases_per_quarter(&ds, None);
        let summary = summarize(&buckets);
        let first = summary.first.expect("non-empty corpus");
        let last = summary.last.expect("non-empty corpus");
        assert!(first.0 <= 2019, "first release year {}", first.0);
        assert!(last.0 >= 2023, "last release year {}", last.0);
        let (peak_q, _) = summary.peak.expect("non-empty corpus");
        assert!(
            peak_q.0 >= 2022,
            "Fig. 2 peaks in 2022–2023, got {peak_q:?}"
        );
        assert!(
            summary.recent_fraction > 0.5,
            "most releases are recent: {:.2}",
            summary.recent_fraction
        );
    }

    #[test]
    fn ecosystem_filter_partitions_the_counts() {
        let ds = dataset();
        let all: usize = releases_per_quarter(&ds, None).values().sum();
        let per_eco: usize = Ecosystem::ALL
            .iter()
            .map(|&e| releases_per_quarter(&ds, Some(e)).values().sum::<usize>())
            .sum();
        assert_eq!(all, per_eco);
    }

    #[test]
    fn single_source_fraction_is_stable_over_time() {
        // The §II-D claim: adding years of data does not swing the
        // headline single-source fraction wildly.
        let ds = dataset();
        let series = single_source_fraction_by_year(&ds);
        assert!(series.len() >= 4);
        let late: Vec<f64> = series
            .iter()
            .filter(|(y, _)| *y >= 2021)
            .map(|(_, f)| *f)
            .collect();
        let min = late.iter().copied().fold(f64::INFINITY, f64::min);
        let max = late.iter().copied().fold(0.0f64, f64::max);
        assert!(
            max - min < 0.25,
            "single-source fraction drifts too much: {series:?}"
        );
    }

    #[test]
    fn empty_dataset_summary() {
        let buckets = BTreeMap::new();
        let summary = summarize(&buckets);
        assert_eq!(summary.first, None);
        assert_eq!(summary.peak, None);
        assert_eq!(summary.recent_fraction, 0.0);
    }
}
