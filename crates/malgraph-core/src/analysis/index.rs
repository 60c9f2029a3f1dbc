//! Corpus-side analysis index.
//!
//! The RQ passes keep asking the same corpus questions: "which dataset
//! package is this node's `PackageId`?", "when was it released?",
//! "what are the SG release sequences?". Before this index each pass
//! rebuilt the answer from scratch — `release_sequences` alone was
//! recomputed by four figures plus the acceptance checks. The
//! [`AnalysisIndex`] computes each answer once per corpus and shares it
//! across every experiment (and across the parallel harness's worker
//! threads — the memoized parts sit behind [`OnceLock`], which
//! serialises concurrent first queries).
//!
//! The index stores dataset *positions* (`usize` into
//! `dataset.packages`), not references, so it carries no lifetime and
//! can live on [`MalGraph`] next to the graph it describes. It is a
//! snapshot of the dataset it was built from: methods that take the
//! dataset again assert the package count still matches.

use crate::build::{eco_slot, MalGraph};
use crate::node::Relation;
use crawler::{CollectedDataset, CollectedPackage};
use oss_types::{Ecosystem, PackageId, SimTime};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Shared lookup structures over one collected corpus.
#[derive(Debug)]
pub struct AnalysisIndex {
    /// Guard: the corpus size this index was built from.
    package_count: usize,
    /// `PackageId` → position in `dataset.packages`. Later positions win
    /// on duplicate ids, matching the `HashMap::collect` the passes used
    /// to build inline.
    by_id: HashMap<PackageId, usize>,
    /// Per-package release time: registry metadata, else first source
    /// mention, else the epoch — the sort key shared by the evolution
    /// sequences and the campaign active-period analysis.
    release_time: Vec<SimTime>,
    /// Dataset positions per ecosystem, in [`Ecosystem::ALL`] order,
    /// preserving dataset order within each partition.
    eco_packages: Vec<Vec<usize>>,
    /// Memoized SG release sequences as dataset positions (members
    /// sorted by release time, groups of fewer than two members
    /// dropped), in `graph.groups(Similar)` order.
    sg_sequences: OnceLock<Vec<Vec<u32>>>,
}

impl AnalysisIndex {
    /// Builds the index with one pass over the corpus.
    pub fn new(dataset: &CollectedDataset) -> AnalysisIndex {
        // Detached: built lazily under whichever analysis pass gets there
        // first, so it roots its own profile stack (see obs::detached).
        let _detached = obs::detached();
        let _span = obs::span!("analysis/corpus-index");
        obs::counter_add("analysis.corpus_index_builds", 1);
        let mut by_id = HashMap::with_capacity(dataset.packages.len());
        let mut release_time = Vec::with_capacity(dataset.packages.len());
        let mut eco_packages = vec![Vec::new(); Ecosystem::ALL.len()];
        for (i, p) in dataset.packages.iter().enumerate() {
            by_id.insert(p.id.clone(), i);
            release_time.push(
                p.meta
                    .map(|m| m.released)
                    .or_else(|| p.mentions.iter().map(|&(_, t)| t).min())
                    .unwrap_or(SimTime::EPOCH),
            );
            eco_packages[eco_slot(p.id.ecosystem())].push(i);
        }
        AnalysisIndex {
            package_count: dataset.packages.len(),
            by_id,
            release_time,
            eco_packages,
            sg_sequences: OnceLock::new(),
        }
    }

    /// Position of `id` in the dataset's package list.
    pub fn package_index(&self, id: &PackageId) -> Option<usize> {
        self.by_id.get(id).copied()
    }

    /// Release time of the package at dataset position `index`.
    pub fn release_time(&self, index: usize) -> SimTime {
        self.release_time[index]
    }

    /// Release time of `id`, `None` when the package is not in the
    /// corpus.
    pub fn release_time_of(&self, id: &PackageId) -> Option<SimTime> {
        self.package_index(id).map(|i| self.release_time[i])
    }

    /// Dataset positions of every package in `ecosystem`, in dataset
    /// order.
    pub fn packages_in(&self, ecosystem: Ecosystem) -> &[usize] {
        &self.eco_packages[eco_slot(ecosystem)]
    }

    /// The SG release sequences, memoized on first call — identical to
    /// [`crate::analysis::evolution::release_sequences`] over the same
    /// graph and dataset (same cached groups, same stable sort on the
    /// same key, same minimum length of two).
    ///
    /// # Panics
    ///
    /// Panics when `dataset` is not the corpus this index was built from
    /// (checked by package count).
    pub fn release_sequences<'d>(
        &self,
        graph: &MalGraph,
        dataset: &'d CollectedDataset,
    ) -> Vec<Vec<&'d CollectedPackage>> {
        assert_eq!(
            dataset.packages.len(),
            self.package_count,
            "AnalysisIndex used with a different corpus"
        );
        self.sequence_positions(graph)
            .iter()
            .map(|seq| seq.iter().map(|&i| &dataset.packages[i as usize]).collect())
            .collect()
    }

    fn sequence_positions(&self, graph: &MalGraph) -> &[Vec<u32>] {
        self.sg_sequences.get_or_init(|| {
            let _detached = obs::detached();
            let _span = obs::span!("analysis/sequences");
            obs::counter_add("analysis.sequence_builds", 1);
            graph
                .groups(Relation::Similar)
                .iter()
                .map(|group| {
                    let mut members: Vec<u32> = group
                        .iter()
                        .filter_map(|&n| self.by_id.get(&graph.graph.node(n).package))
                        .map(|&i| u32::try_from(i).expect("corpus too large"))
                        .collect();
                    members.sort_by_key(|&i| self.release_time[i as usize]);
                    members
                })
                .filter(|seq| seq.len() >= 2)
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::evolution;
    use crate::build::{build, BuildOptions};
    use crawler::collect;
    use registry_sim::{World, WorldConfig};

    fn corpus() -> (CollectedDataset, MalGraph) {
        let world = World::generate(WorldConfig::small(77));
        let dataset = collect(&world);
        let graph = build(&dataset, &BuildOptions::default());
        (dataset, graph)
    }

    #[test]
    fn lookups_match_linear_scans() {
        let (dataset, _) = corpus();
        let index = AnalysisIndex::new(&dataset);
        for (i, p) in dataset.packages.iter().enumerate() {
            let found = index.package_index(&p.id).expect("package indexed");
            // Duplicate ids resolve to the last occurrence; either way the
            // id round-trips.
            assert_eq!(dataset.packages[found].id, p.id);
            if found == i {
                assert_eq!(
                    index.release_time(i),
                    p.meta
                        .map(|m| m.released)
                        .or_else(|| p.mentions.iter().map(|&(_, t)| t).min())
                        .unwrap_or(SimTime::EPOCH)
                );
            }
        }
        let partitioned: usize = Ecosystem::ALL
            .iter()
            .map(|&e| index.packages_in(e).len())
            .sum();
        assert_eq!(partitioned, dataset.packages.len());
    }

    #[test]
    fn sequences_match_direct_computation() {
        let (dataset, graph) = corpus();
        let index = AnalysisIndex::new(&dataset);
        let direct = evolution::release_sequences(&graph, &dataset);
        let indexed = index.release_sequences(&graph, &dataset);
        assert_eq!(direct.len(), indexed.len());
        for (a, b) in direct.iter().zip(&indexed) {
            let ids_a: Vec<_> = a.iter().map(|p| &p.id).collect();
            let ids_b: Vec<_> = b.iter().map(|p| &p.id).collect();
            assert_eq!(ids_a, ids_b);
        }
    }
}
