//! RQ3 (context) — actor attribution from security reports.
//!
//! The paper's fourth finding: "while malicious packages often lack
//! context about how and who released them, security reports disclose the
//! information about corresponding SSC attack campaigns." This module
//! measures that: how many co-existing groups come with a disclosed actor
//! handle, whether multiple reports about the same group agree, and — as
//! validation against simulator ground truth — whether the disclosed
//! handle is *correct*.

use crate::build::MalGraph;
use crate::node::Relation;
use crawler::CollectedDataset;
use oss_types::PackageId;
use std::collections::{HashMap, HashSet};

/// Attribution summary over the co-existing groups.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionSummary {
    /// Total CG groups.
    pub groups: usize,
    /// Groups with at least one disclosed actor handle.
    pub attributed: usize,
    /// Groups where every disclosing report names the same actor.
    pub consistent: usize,
    /// Groups named by ≥2 reports that disagree on the actor.
    pub conflicting: usize,
    /// Fraction of *packages* (not groups) that gained actor context.
    pub package_coverage: f64,
}

impl AttributionSummary {
    /// Fraction of groups with any attribution.
    pub fn attribution_rate(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.attributed as f64 / self.groups as f64
        }
    }
}

/// The disclosed actor handle(s) per CG group, keyed by the group's
/// smallest member package (a stable, data-derived key).
pub fn group_attributions(
    graph: &MalGraph,
    dataset: &CollectedDataset,
) -> HashMap<PackageId, Vec<String>> {
    // Map every package to the actors of the reports naming it.
    let mut actors_by_package: HashMap<&PackageId, Vec<&str>> = HashMap::new();
    for report in &dataset.reports {
        if let Some(actor) = &report.actor {
            for pkg in &report.packages {
                actors_by_package.entry(pkg).or_default().push(actor);
            }
        }
    }
    let mut out = HashMap::new();
    for group in graph.groups(Relation::Coexisting) {
        let mut members: Vec<&PackageId> = group
            .iter()
            .map(|&n| &graph.graph.node(n).package)
            .collect();
        members.sort();
        let key = (*members.first().expect("groups are non-empty")).clone();
        let mut handles: Vec<String> = members
            .iter()
            .filter_map(|p| actors_by_package.get(*p))
            .flatten()
            .map(|s| s.to_string())
            .collect();
        handles.sort();
        handles.dedup();
        out.insert(key, handles);
    }
    out
}

/// Computes the attribution summary.
pub fn attribution_summary(graph: &MalGraph, dataset: &CollectedDataset) -> AttributionSummary {
    let attributions = group_attributions(graph, dataset);
    let groups = attributions.len();
    let attributed = attributions.values().filter(|h| !h.is_empty()).count();
    let consistent = attributions.values().filter(|h| h.len() == 1).count();
    let conflicting = attributions.values().filter(|h| h.len() > 1).count();

    // Package coverage: corpus packages inside an attributed CG.
    let mut covered: HashSet<&PackageId> = HashSet::new();
    for group in graph.groups(Relation::Coexisting) {
        let members: Vec<&PackageId> = group
            .iter()
            .map(|&n| &graph.graph.node(n).package)
            .collect();
        let mut sorted = members.clone();
        sorted.sort();
        let key = (*sorted.first().expect("non-empty")).clone();
        if attributions.get(&key).is_some_and(|h| !h.is_empty()) {
            covered.extend(members);
        }
    }
    AttributionSummary {
        groups,
        attributed,
        consistent,
        conflicting,
        package_coverage: if dataset.packages.is_empty() {
            0.0
        } else {
            covered.len() as f64 / dataset.packages.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, BuildOptions};
    use crawler::collect;
    use registry_sim::{World, WorldConfig};

    fn setup() -> (World, CollectedDataset, MalGraph) {
        let world = World::generate(WorldConfig::small(111));
        let dataset = collect(&world);
        let graph = build(&dataset, &BuildOptions::default());
        (world, dataset, graph)
    }

    #[test]
    fn a_substantial_fraction_of_groups_is_attributed() {
        let (_, dataset, graph) = setup();
        let summary = attribution_summary(&graph, &dataset);
        assert!(summary.groups > 0);
        // The report layer discloses handles ~60% of the time; with
        // several reports per cluster most groups get at least one.
        assert!(
            summary.attribution_rate() > 0.4,
            "attribution rate {:.2}",
            summary.attribution_rate()
        );
        assert!(summary.attributed >= summary.consistent);
        assert_eq!(
            summary.attributed,
            summary.consistent + summary.conflicting,
            "every attributed group is either consistent or conflicting"
        );
    }

    #[test]
    fn disclosed_handles_match_ground_truth_actors() {
        let (world, dataset, graph) = setup();
        let attributions = group_attributions(&graph, &dataset);
        let mut checked = 0usize;
        for (key, handles) in &attributions {
            if handles.len() != 1 {
                continue;
            }
            let truth = world
                .packages
                .iter()
                .find(|p| &p.id == key)
                .and_then(|p| p.campaign)
                .map(|c| world.campaigns[c.index()].actor.handle());
            if let Some(truth) = truth {
                checked += 1;
                assert_eq!(
                    &handles[0], &truth,
                    "report attribution disagrees with ground truth for {key}"
                );
            }
        }
        assert!(checked > 0, "no attributed group could be validated");
    }

    #[test]
    fn loner_packages_gain_no_context() {
        // The paper's point: packages alone carry no actor context —
        // coverage comes only from reports/CGs.
        let (_, dataset, graph) = setup();
        let summary = attribution_summary(&graph, &dataset);
        assert!(
            summary.package_coverage < 0.6,
            "most of the corpus is loners without campaign context, got {:.2}",
            summary.package_coverage
        );
        assert!(summary.package_coverage > 0.0);
    }
}
