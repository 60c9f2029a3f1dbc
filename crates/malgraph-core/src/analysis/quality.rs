//! RQ1 — Dataset quality: update frequency (Table V), missing rates
//! (Table VI) and unavailability causes (Fig. 5).

use crawler::CollectedDataset;
use oss_types::{SimTime, SourceId};

/// One row of Table V.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRow {
    /// The source.
    pub source: SourceId,
    /// Most recent disclosure observed in the corpus.
    pub last_update: Option<SimTime>,
    /// Documented cadence label ("one per 2 month" / "Never update").
    pub frequency: &'static str,
    /// Measured: distinct months in which this source disclosed.
    pub active_months: usize,
    /// Measured: median gap between successive disclosures, in days.
    pub median_gap_days: f64,
}

/// Computes Table V: last observed disclosure per source plus *measured*
/// disclosure activity (the paper lists documented cadences; measuring
/// them from the corpus checks the sources actually behave that way).
pub fn update_frequency(dataset: &CollectedDataset) -> Vec<UpdateRow> {
    SourceId::ALL
        .into_iter()
        .map(|source| {
            let mut times: Vec<SimTime> = dataset
                .packages
                .iter()
                .flat_map(|p| p.mentions.iter())
                .filter(|&&(s, _)| s == source)
                .map(|&(_, t)| t)
                .collect();
            times.sort_unstable();
            let mut months: Vec<(i32, u32)> = times.iter().map(|t| (t.year(), t.month())).collect();
            months.dedup();
            let mut gaps: Vec<f64> = times
                .windows(2)
                .map(|w| (w[1] - w[0]).as_days_f64())
                .filter(|&g| g > 0.0)
                .collect();
            gaps.sort_by(f64::total_cmp);
            let median_gap_days = if gaps.is_empty() {
                0.0
            } else {
                gaps[gaps.len() / 2]
            };
            UpdateRow {
                source,
                last_update: times.last().copied(),
                frequency: source.update_frequency_label(),
                active_months: months.len(),
                median_gap_days,
            }
        })
        .collect()
}

/// One row of Table VI.
#[derive(Debug, Clone, PartialEq)]
pub struct MissingRow {
    /// The source.
    pub source: SourceId,
    /// Mentions whose package could not be obtained through this source
    /// alone (source archive or mirror).
    pub missing: usize,
    /// Total mentions of the source.
    pub total: usize,
    /// `missing / total` in percent.
    pub single_mr_pct: f64,
    /// Missing after cross-source supplementation, in percent.
    pub all_mr_pct: f64,
}

/// Computes Table VI. *Single MR* treats each source in isolation: a
/// mention is available iff the source ships archives (a dump) or a
/// mirror still holds the package. *All MR* lets any source's archive
/// stand in (the final corpus view).
pub fn missing_rates(dataset: &CollectedDataset) -> (Vec<MissingRow>, f64) {
    let mut rows = Vec::new();
    let mut total_mentions = 0usize;
    let mut total_missing_all = 0usize;
    for source in SourceId::ALL {
        let dump = matches!(
            source.publication_style(),
            oss_types::source::PublicationStyle::DatasetDump
        );
        let mut missing = 0usize;
        let mut missing_all = 0usize;
        let mut total = 0usize;
        for pkg in &dataset.packages {
            let mentions = pkg.mentions.iter().filter(|&&(s, _)| s == source).count();
            if mentions == 0 {
                continue;
            }
            total += mentions;
            let single_available = dump || pkg.mirror_recoverable;
            if !single_available {
                missing += mentions;
            }
            if !pkg.is_available() {
                missing_all += mentions;
            }
        }
        total_mentions += total;
        total_missing_all += missing_all;
        rows.push(MissingRow {
            source,
            missing,
            total,
            single_mr_pct: pct(missing, total),
            all_mr_pct: pct(missing_all, total),
        });
    }
    (rows, pct(total_missing_all, total_mentions))
}

fn pct(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Fig. 5 census: why unavailable packages could not be recovered. The
/// measurement-side proxy for the paper's two causes: a package whose
/// *registry metadata* shows an old release date fell off the mirrors'
/// retention window ("released too early"); one that was removed within
/// the fastest mirror-sync interval was never captured ("persistence too
/// short").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnavailabilityCensus {
    /// Released before the mirrors' retention horizon.
    pub released_too_early: usize,
    /// Removed before any plausible sync.
    pub persistence_too_short: usize,
    /// The ecosystem has no mirrors.
    pub no_mirrors: usize,
    /// Missing registry metadata; cause indeterminate.
    pub unknown: usize,
}

/// Classifies every unavailable package by cause, using public registry
/// metadata only. `retention_days` and `fastest_sync_hours` describe the
/// mirror fleet being queried.
pub fn unavailability_census(
    dataset: &CollectedDataset,
    retention_days: u64,
    fastest_sync_hours: u64,
) -> UnavailabilityCensus {
    let mut census = UnavailabilityCensus::default();
    for pkg in &dataset.packages {
        if pkg.is_available() {
            continue;
        }
        if !pkg.id.ecosystem().has_mirrors() {
            census.no_mirrors += 1;
            continue;
        }
        let Some(meta) = pkg.meta else {
            census.unknown += 1;
            continue;
        };
        let persistence_hours = meta
            .removed
            .map(|r| (r - meta.released).as_hours())
            .unwrap_or(u64::MAX);
        if persistence_hours <= fastest_sync_hours {
            census.persistence_too_short += 1;
        } else if let Some(removed) = meta.removed {
            let horizon = removed + oss_types::SimDuration::days(retention_days);
            if horizon <= dataset.collect_time {
                census.released_too_early += 1;
            } else {
                census.persistence_too_short += 1;
            }
        } else {
            census.unknown += 1;
        }
    }
    census
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::collect;
    use registry_sim::{World, WorldConfig};

    fn dataset() -> CollectedDataset {
        collect(&World::generate(WorldConfig::small(51)))
    }

    #[test]
    fn table5_covers_all_sources_with_paper_labels() {
        let rows = update_frequency(&dataset());
        assert_eq!(rows.len(), 10);
        let bk = rows
            .iter()
            .find(|r| r.source == SourceId::BackstabberKnife)
            .unwrap();
        assert_eq!(bk.frequency, "Never update");
        let phylum = rows.iter().find(|r| r.source == SourceId::Phylum).unwrap();
        assert_eq!(phylum.frequency, "one per 1 month");
        assert!(rows.iter().all(|r| r.last_update.is_some()));
        // Measured activity matches the documented cadence: Phylum
        // publishes monthly batches; never-update sources batch rarely.
        assert!(phylum.active_months >= 6, "{}", phylum.active_months);
        assert!(
            phylum.median_gap_days <= 62.0,
            "monthly source, measured gap {:.0}d",
            phylum.median_gap_days
        );
        assert!(
            bk.active_months < phylum.active_months,
            "a never-update source discloses in fewer batches ({} vs {})",
            bk.active_months,
            phylum.active_months
        );
        assert!(bk.median_gap_days >= 300.0, "{:.0}", bk.median_gap_days);
    }

    #[test]
    fn dumps_have_zero_single_mr() {
        let (rows, _) = missing_rates(&dataset());
        for dump in [SourceId::Maloss, SourceId::MalPyPI, SourceId::DataDog] {
            let row = rows.iter().find(|r| r.source == dump).unwrap();
            assert_eq!(row.single_mr_pct, 0.0, "{dump} is a dump");
            assert_eq!(row.all_mr_pct, 0.0);
        }
    }

    #[test]
    fn report_sources_have_substantial_mr() {
        let (rows, overall) = missing_rates(&dataset());
        let phylum = rows.iter().find(|r| r.source == SourceId::Phylum).unwrap();
        assert!(
            phylum.single_mr_pct > 50.0,
            "Phylum MR should be high (paper: 91.2%), got {:.1}",
            phylum.single_mr_pct
        );
        let socket = rows.iter().find(|r| r.source == SourceId::Socket).unwrap();
        assert!(
            socket.single_mr_pct > 60.0,
            "Socket ~100%: {:.1}",
            socket.single_mr_pct
        );
        assert!(
            (30.0..85.0).contains(&overall),
            "overall MR should sit near the paper's 64%, got {overall:.1}"
        );
    }

    #[test]
    fn all_mr_never_exceeds_single_mr() {
        let (rows, _) = missing_rates(&dataset());
        for row in rows {
            assert!(
                row.all_mr_pct <= row.single_mr_pct + 1e-9,
                "{}: cross-source recovery can only help",
                row.source
            );
        }
    }

    #[test]
    fn census_accounts_for_every_unavailable_package() {
        let ds = dataset();
        let census = unavailability_census(&ds, 540, 6);
        let unavailable = ds.packages.iter().filter(|p| !p.is_available()).count();
        let classified = census.released_too_early
            + census.persistence_too_short
            + census.no_mirrors
            + census.unknown;
        assert_eq!(classified, unavailable);
        assert!(
            census.persistence_too_short > 0,
            "short persistence is the dominant cause in a fast-removal world"
        );
    }
}
