//! Windowed collection: the corpus as a sequence of deltas (ISSUE 8).
//!
//! Continuous monitoring re-crawls the sources on a cadence; each crawl
//! surfaces the packages and reports first disclosed since the last
//! one. This module models that as a partition of one deterministic
//! [`collect_with`] run over a [`WindowPlan`]:
//!
//! * a **package** belongs to the window containing its *earliest*
//!   mention disclosure, and carries its full merged record (all
//!   mentions, archive, signature, registry metadata) — the collector
//!   back-fills everything knowable at first sight, which is exact in
//!   the simulator because artifacts and metadata are time-invariant
//!   and transport fault draws are keyed by document, not crawl time;
//! * a **report** belongs to the window containing its publication
//!   time (reports without one surface at the collection cutoff).
//!
//! Because assignment is a partition of the one-shot dataset in its
//! original order, concatenating the deltas of windows `0..n`
//! ([`union_dataset`]) reproduces the one-shot corpus *byte for byte* —
//! the property the incremental graph builder's equivalence oracle
//! rests on. Collection health is a whole-run aggregate and stays on
//! the one-shot path; deltas do not carry it.

use crate::dataset::{
    collect_with, CollectOptions, CollectedDataset, CollectedPackage, CollectedReport,
};
use oss_types::SimTime;
use registry_sim::{WindowPlan, World};

/// The packages and reports one collection window surfaced, plus the
/// dataset-level constants every window shares.
#[derive(Debug, Clone)]
pub struct CorpusDelta {
    /// Window index within the plan.
    pub window: usize,
    /// Exclusive lower bound of the window.
    pub start: SimTime,
    /// Inclusive upper bound of the window.
    pub end: SimTime,
    /// Packages first disclosed in this window, in corpus order.
    pub packages: Vec<CollectedPackage>,
    /// Reports published in this window, in corpus order.
    pub reports: Vec<CollectedReport>,
    /// Total crawled websites (a whole-run constant).
    pub website_count: usize,
    /// The collection cutoff (a whole-run constant).
    pub collect_time: SimTime,
}

impl CorpusDelta {
    /// Appends this delta to `dataset`, updating the dataset-level
    /// constants. Applying the deltas of a plan in window order onto an
    /// empty dataset reproduces the one-shot corpus exactly.
    pub fn apply_to(&self, dataset: &mut CollectedDataset) {
        dataset.packages.extend(self.packages.iter().cloned());
        dataset.reports.extend(self.reports.iter().cloned());
        dataset.website_count = self.website_count;
        dataset.collect_time = self.collect_time;
    }

    /// The window a collected package belongs to under `plan`: the one
    /// containing its earliest mention disclosure.
    pub fn window_of_package(
        plan: &WindowPlan,
        package: &CollectedPackage,
        cutoff: SimTime,
    ) -> usize {
        let first = package
            .mentions
            .iter()
            .map(|&(_, disclosed)| disclosed)
            .min()
            .unwrap_or(cutoff);
        plan.window_of(first)
    }

    /// The window a collected report belongs to under `plan`.
    pub fn window_of_report(plan: &WindowPlan, report: &CollectedReport, cutoff: SimTime) -> usize {
        plan.window_of(report.published.unwrap_or(cutoff))
    }
}

/// Splits a collected dataset into one delta per plan window.
///
/// Packages and reports keep their relative corpus order inside each
/// window, so the deltas are a true partition: concatenated back
/// together they equal `dataset` (minus the whole-run health aggregate,
/// which windowing does not attribute).
pub fn partition_windows(dataset: &CollectedDataset, plan: &WindowPlan) -> Vec<CorpusDelta> {
    let _span = obs::span!("collect/windows/partition");
    let cutoff = dataset.collect_time;
    let mut deltas: Vec<CorpusDelta> = (0..plan.window_count())
        .map(|i| CorpusDelta {
            window: i,
            start: plan.window_start(i),
            end: plan.bound(i),
            packages: Vec::new(),
            reports: Vec::new(),
            website_count: dataset.website_count,
            collect_time: dataset.collect_time,
        })
        .collect();
    for package in &dataset.packages {
        let w = CorpusDelta::window_of_package(plan, package, cutoff);
        deltas[w].packages.push(package.clone());
    }
    for report in &dataset.reports {
        let w = CorpusDelta::window_of_report(plan, report, cutoff);
        deltas[w].reports.push(report.clone());
    }
    for delta in &deltas {
        obs::counter_add("crawler.windowed_packages", delta.packages.len() as u64);
        obs::counter_add("crawler.windowed_reports", delta.reports.len() as u64);
    }
    obs::counter_add("crawler.windows", deltas.len() as u64);
    deltas
}

/// Runs the resilient collector once and partitions the result over
/// `plan` — the windowed entry point of the streaming ingestion path.
pub fn collect_windows(
    world: &World,
    options: &CollectOptions,
    plan: &WindowPlan,
) -> Vec<CorpusDelta> {
    let _span = obs::span!("collect/windows");
    let dataset = collect_with(world, options);
    partition_windows(&dataset, plan)
}

/// The suffix of `deltas` still to apply after the first `applied`
/// windows have been made durable — the resumable window plan a
/// checkpointed ingest run continues from. Clamped, so a checkpoint
/// claiming more windows than the plan holds yields an empty remainder
/// instead of a panic.
pub fn resume_windows(deltas: &[CorpusDelta], applied: usize) -> &[CorpusDelta] {
    &deltas[applied.min(deltas.len())..]
}

/// Concatenates deltas (in the order given) back into one dataset —
/// the right-hand side of the ingest equivalence oracle.
pub fn union_dataset(deltas: &[CorpusDelta]) -> CollectedDataset {
    let mut dataset = CollectedDataset {
        packages: Vec::new(),
        reports: Vec::new(),
        website_count: 0,
        collect_time: SimTime::from_minutes(0),
        health: None,
    };
    for delta in deltas {
        delta.apply_to(&mut dataset);
    }
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect;
    use registry_sim::WorldConfig;

    #[test]
    fn partition_is_a_union_preserving_permutation() {
        let world = World::generate(WorldConfig::small(7));
        let dataset = collect(&world);
        let plan = WindowPlan::disclosure_quantiles(&world, 4);
        let deltas = partition_windows(&dataset, &plan);
        assert_eq!(deltas.len(), plan.window_count());
        let union = union_dataset(&deltas);
        assert_eq!(union.website_count, dataset.website_count);
        assert_eq!(union.collect_time, dataset.collect_time);
        assert_eq!(union.packages.len(), dataset.packages.len());
        assert_eq!(union.reports.len(), dataset.reports.len());
        // The union is a window-grouped permutation of the corpus; each
        // window preserves corpus order internally.
        let mut expected: Vec<&CollectedPackage> = dataset.packages.iter().collect();
        expected.sort_by_key(|p| {
            (
                CorpusDelta::window_of_package(&plan, p, dataset.collect_time),
                dataset.packages.iter().position(|q| std::ptr::eq(q, *p)),
            )
        });
        for (got, want) in union.packages.iter().zip(expected) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn every_window_member_falls_inside_its_bounds() {
        let world = World::generate(WorldConfig::small(7));
        let dataset = collect(&world);
        let plan = WindowPlan::disclosure_quantiles(&world, 5);
        let last = plan.window_count() - 1;
        for delta in partition_windows(&dataset, &plan) {
            for package in &delta.packages {
                let first = package.mentions.iter().map(|&(_, t)| t).min().unwrap();
                assert!(first <= delta.end || delta.window == last);
                if delta.window > 0 {
                    assert!(first > delta.start);
                }
            }
            for report in &delta.reports {
                let t = report.published.unwrap_or(dataset.collect_time);
                assert!(t <= delta.end || delta.window == last);
            }
        }
    }

    #[test]
    fn resume_windows_clamps_and_partitions() {
        let world = World::generate(WorldConfig::small(7));
        let dataset = collect(&world);
        let plan = WindowPlan::disclosure_quantiles(&world, 4);
        let deltas = partition_windows(&dataset, &plan);
        assert_eq!(resume_windows(&deltas, 0).len(), deltas.len());
        assert_eq!(resume_windows(&deltas, 2).len(), deltas.len() - 2);
        assert_eq!(resume_windows(&deltas, 2)[0].window, 2);
        assert!(resume_windows(&deltas, deltas.len()).is_empty());
        assert!(
            resume_windows(&deltas, deltas.len() + 5).is_empty(),
            "clamped, not a panic"
        );
    }

    #[test]
    fn single_window_plan_reproduces_the_one_shot_corpus() {
        let world = World::generate(WorldConfig::small(11));
        let dataset = collect(&world);
        let plan = WindowPlan::equal_span(SimTime::from_minutes(0), world.config.collect_time, 1);
        let deltas = partition_windows(&dataset, &plan);
        assert_eq!(deltas.len(), 1);
        let union = union_dataset(&deltas);
        assert_eq!(union.packages, dataset.packages);
        assert_eq!(union.reports, dataset.reports);
    }
}
