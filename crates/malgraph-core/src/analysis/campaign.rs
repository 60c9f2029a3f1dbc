//! RQ3 — Attack campaigns: active periods (Fig. 9), life-cycle phase
//! statistics (Fig. 6) and campaign timelines (Fig. 8).

use crate::analysis::index::AnalysisIndex;
use crate::build::MalGraph;
use crate::node::Relation;
use crawler::CollectedDataset;
use graphstore::NodeId;
use oss_types::{PackageId, SimDuration, SimTime};

/// Active period of one group: `t_l − t_f` over its packages' release
/// times (falling back to first-disclosure when metadata is missing).
/// Served from the cached component index and the shared release-time
/// table.
pub fn active_periods(
    graph: &MalGraph,
    dataset: &CollectedDataset,
    relation: Relation,
) -> Vec<SimDuration> {
    active_periods_in(graph.groups(relation), graph, graph.analysis_index(dataset))
}

/// [`active_periods`] over an explicit group list.
fn active_periods_in(
    groups: &[Vec<NodeId>],
    graph: &MalGraph,
    index: &AnalysisIndex,
) -> Vec<SimDuration> {
    groups
        .iter()
        .filter_map(|group| {
            let times: Vec<SimTime> = group
                .iter()
                .filter_map(|&n| index.release_time_of(&graph.graph.node(n).package))
                .collect();
            let first = times.iter().min()?;
            let last = times.iter().max()?;
            Some(*last - *first)
        })
        .collect()
}

/// Empirical CDF over durations in fractional years (Fig. 9's axis).
pub fn period_cdf(periods: &[SimDuration]) -> Vec<(f64, f64)> {
    let mut years: Vec<f64> = periods.iter().map(|d| d.as_years_f64()).collect();
    years.sort_by(f64::total_cmp);
    let n = years.len() as f64;
    years
        .iter()
        .enumerate()
        .map(|(i, &y)| (y, (i + 1) as f64 / n))
        .collect()
}

/// Fraction of periods at or below `threshold`.
pub fn fraction_within(periods: &[SimDuration], threshold: SimDuration) -> f64 {
    if periods.is_empty() {
        return 0.0;
    }
    periods.iter().filter(|&&p| p <= threshold).count() as f64 / periods.len() as f64
}

/// Life-cycle statistics (Fig. 6): how long packages persist between the
/// release and removal phases, measured from registry metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleStats {
    /// Packages with both release and removal metadata.
    pub measured: usize,
    /// Median persistence in hours.
    pub median_persistence_hours: f64,
    /// 90th-percentile persistence in hours.
    pub p90_persistence_hours: f64,
    /// Fraction removed within 24 hours.
    pub removed_within_day: f64,
}

/// Computes life-cycle phase statistics over the corpus.
pub fn lifecycle_stats(dataset: &CollectedDataset) -> LifecycleStats {
    let mut hours: Vec<f64> = dataset
        .packages
        .iter()
        .filter_map(|p| p.meta)
        .filter_map(|m| {
            m.removed
                .map(|r| (r - m.released).as_minutes() as f64 / 60.0)
        })
        .collect();
    hours.sort_by(f64::total_cmp);
    let measured = hours.len();
    let pick = |q: f64| -> f64 {
        if hours.is_empty() {
            return 0.0;
        }
        let idx = ((hours.len() - 1) as f64 * q).round() as usize;
        hours[idx]
    };
    LifecycleStats {
        measured,
        median_persistence_hours: pick(0.5),
        p90_persistence_hours: pick(0.9),
        removed_within_day: if measured == 0 {
            0.0
        } else {
            hours.iter().filter(|&&h| h <= 24.0).count() as f64 / measured as f64
        },
    }
}

/// One row of a Fig.-8-style campaign timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Release date.
    pub released: SimTime,
    /// Package identity.
    pub package: PackageId,
}

/// Reconstructs the release timeline of the co-existing group containing
/// `member` (Fig. 8 uses the August-2023 npm campaign). The traversal
/// runs over the cached CSR snapshot instead of re-walking the labeled
/// adjacency lists.
pub fn campaign_timeline(
    graph: &MalGraph,
    dataset: &CollectedDataset,
    member: &PackageId,
) -> Vec<TimelineEntry> {
    let Some(node) = graph.primary_node(member) else {
        return Vec::new();
    };
    let group = graph.adjacency(Relation::Coexisting).reachable(node);
    timeline_entries(group, graph, dataset)
}

fn timeline_entries(
    group: Vec<NodeId>,
    graph: &MalGraph,
    dataset: &CollectedDataset,
) -> Vec<TimelineEntry> {
    let mut entries: Vec<TimelineEntry> = group
        .into_iter()
        .filter_map(|n| {
            let pkg = &graph.graph.node(n).package;
            let collected = dataset.get(pkg)?;
            Some(TimelineEntry {
                released: collected.meta.map(|m| m.released)?,
                package: pkg.clone(),
            })
        })
        .collect();
    entries.sort_by_key(|e| (e.released, e.package.clone()));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, BuildOptions};
    use crawler::collect;
    use registry_sim::{World, WorldConfig};

    fn setup() -> (MalGraph, CollectedDataset) {
        let world = World::generate(WorldConfig::small(71));
        let dataset = collect(&world);
        let graph = build(&dataset, &BuildOptions::default());
        (graph, dataset)
    }

    /// [`campaign_timeline`] over the raw adjacency lists: the oracle
    /// the cached CSR snapshot's BFS is asserted against.
    fn campaign_timeline_reference(
        graph: &MalGraph,
        dataset: &CollectedDataset,
        member: &PackageId,
    ) -> Vec<TimelineEntry> {
        let Some(node) = graph.primary_node(member) else {
            return Vec::new();
        };
        let group = graph.graph.reachable(node, |l| *l == Relation::Coexisting);
        timeline_entries(group, graph, dataset)
    }

    #[test]
    fn deg_campaigns_outlast_sg_campaigns() {
        let (graph, dataset) = setup();
        let sg = active_periods(&graph, &dataset, Relation::Similar);
        let deg = active_periods(&graph, &dataset, Relation::Dependency);
        assert!(!sg.is_empty());
        assert!(!deg.is_empty());
        let mean =
            |v: &[SimDuration]| v.iter().map(|d| d.as_days_f64()).sum::<f64>() / v.len() as f64;
        assert!(
            mean(&deg) > mean(&sg),
            "Fig. 9: DeG ({:.0}d) must outlast SG ({:.0}d)",
            mean(&deg),
            mean(&sg)
        );
    }

    #[test]
    fn sg_campaigns_are_short_lived() {
        let (graph, dataset) = setup();
        let sg = active_periods(&graph, &dataset, Relation::Similar);
        let within_quarter = fraction_within(&sg, SimDuration::days(90));
        assert!(
            within_quarter > 0.5,
            "Fig. 9: most SG campaigns span days–weeks, got {within_quarter:.2} within 90d"
        );
    }

    #[test]
    fn cdf_is_monotone_ending_at_one() {
        let (graph, dataset) = setup();
        let cg = active_periods(&graph, &dataset, Relation::Coexisting);
        let cdf = period_cdf(&cg);
        assert!(!cdf.is_empty());
        for pair in cdf.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lifecycle_shows_fast_removal() {
        let (_, dataset) = setup();
        let stats = lifecycle_stats(&dataset);
        assert!(stats.measured > 0);
        assert!(
            stats.median_persistence_hours < 24.0 * 14.0,
            "median persistence {:.1}h is implausibly long",
            stats.median_persistence_hours
        );
        assert!(stats.removed_within_day > 0.1);
        assert!(stats.p90_persistence_hours >= stats.median_persistence_hours);
    }

    #[test]
    fn showcase_timeline_matches_fig8_shape() {
        let (graph, dataset) = setup();
        let member: PackageId = "npm/etc-crypto@1.0.0".parse().unwrap();
        let timeline = campaign_timeline(&graph, &dataset, &member);
        assert!(
            timeline.len() >= 10,
            "the showcase campaign has 15 packages, found {}",
            timeline.len()
        );
        // Chronological and within August 2023.
        for pair in timeline.windows(2) {
            assert!(pair[0].released <= pair[1].released);
        }
        assert_eq!(timeline[0].released.year(), 2023);
        assert_eq!(timeline[0].released.month(), 8);
    }

    #[test]
    fn indexed_timeline_matches_reference() {
        let (graph, dataset) = setup();
        let member: PackageId = "npm/etc-crypto@1.0.0".parse().unwrap();
        assert_eq!(
            campaign_timeline(&graph, &dataset, &member),
            campaign_timeline_reference(&graph, &dataset, &member)
        );
    }

    /// The cached component index and the shared release-time table
    /// against a fresh recomputation, for every relation.
    #[test]
    fn cached_groups_and_periods_match_fresh_recomputation() {
        let (graph, dataset) = setup();
        let index = AnalysisIndex::new(&dataset);
        for relation in Relation::ALL {
            let fresh = graph.graph.components(|l| *l == relation);
            assert_eq!(
                graph.groups(relation),
                fresh.as_slice(),
                "{relation:?} groups"
            );
            assert_eq!(
                active_periods(&graph, &dataset, relation),
                active_periods_in(&fresh, &graph, &index),
                "{relation:?} active periods"
            );
        }
    }

    #[test]
    fn unknown_member_gives_empty_timeline() {
        let (graph, dataset) = setup();
        let ghost: PackageId = "npm/ghost@9.9.9".parse().unwrap();
        assert!(campaign_timeline(&graph, &dataset, &ghost).is_empty());
    }
}
