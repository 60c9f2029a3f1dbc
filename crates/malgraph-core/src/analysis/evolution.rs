//! RQ4 — Campaign evolution: changing operations (Fig. 12), download
//! evolution (Fig. 11) and the IDN ranking (Table VIII).
//!
//! Everything here is *recomputed from the corpus*, not read from
//! simulator ground truth: operations are detected by diffing consecutive
//! release attempts (identity, metadata, code), and download numbers come
//! from public registry metadata.

use crate::build::MalGraph;
use crate::node::Relation;
use crawler::registry::RegistryView;
use crawler::{Archive, CollectedDataset, CollectedPackage};
use minilang::diff::diff_lines;
use oss_types::{ChangeOp, OpSet, PackageId};
use std::collections::{HashMap, HashSet};

/// Result of diffing two consecutive release attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectedChange {
    /// The operations detected.
    pub ops: OpSet,
    /// Changed source lines when both archives were available and the
    /// code changed.
    pub changed_lines: Option<usize>,
}

/// Diffs two attempts: identity (CN/CV), metadata (CD/CDep) and code
/// (CC). Metadata/code operations are only observable when both archives
/// are available.
pub fn detect_change(
    prev_id: &PackageId,
    prev_archive: Option<&Archive>,
    next_id: &PackageId,
    next_archive: Option<&Archive>,
) -> DetectedChange {
    let mut ops = OpSet::empty();
    if prev_id.name() != next_id.name() {
        ops.insert(ChangeOp::ChangeName);
    } else if prev_id.version() != next_id.version() {
        ops.insert(ChangeOp::ChangeVersion);
    }
    let mut changed_lines = None;
    if let (Some(a), Some(b)) = (prev_archive, next_archive) {
        if a.description != b.description {
            ops.insert(ChangeOp::ChangeDescription);
        }
        if a.dependencies != b.dependencies {
            ops.insert(ChangeOp::ChangeDependency);
        }
        if a.code != b.code {
            ops.insert(ChangeOp::ChangeCode);
            let lines_a: Vec<&str> = a.code.lines().collect();
            let lines_b: Vec<&str> = b.code.lines().collect();
            changed_lines = Some(diff_lines(&lines_a, &lines_b).changed_lines());
        }
    }
    DetectedChange { ops, changed_lines }
}

/// The similar-group release sequences: for every SG, its packages in
/// release order (packages without registry metadata fall back to first
/// disclosure). The memoized fast path is
/// [`AnalysisIndex::release_sequences`](crate::analysis::index::AnalysisIndex::release_sequences),
/// which caches the sorted member positions across experiments.
pub fn release_sequences<'d>(
    graph: &MalGraph,
    dataset: &'d CollectedDataset,
) -> Vec<Vec<&'d CollectedPackage>> {
    let by_id: HashMap<&PackageId, &CollectedPackage> =
        dataset.packages.iter().map(|p| (&p.id, p)).collect();
    graph
        .groups(Relation::Similar)
        .iter()
        .map(|group| {
            let mut members: Vec<&CollectedPackage> = group
                .iter()
                .filter_map(|&n| by_id.get(&graph.graph.node(n).package).copied())
                .collect();
            members.sort_by_key(|p| {
                p.meta
                    .map(|m| m.released)
                    .or_else(|| p.mentions.iter().map(|&(_, t)| t).min())
                    .unwrap_or(oss_types::SimTime::EPOCH)
            });
            members
        })
        .filter(|g| g.len() >= 2)
        .collect()
}

/// Fig. 12: the distribution of changing operations over all re-release
/// attempts in the similar groups.
#[derive(Debug, Clone, PartialEq)]
pub struct OpDistribution {
    /// Re-release attempts inspected.
    pub attempts: usize,
    /// Percentage of attempts using each operation, in
    /// [`ChangeOp::ALL`] order.
    pub pct: [f64; 5],
    /// Mean changed lines over CC attempts with both archives available
    /// (the paper reports ≈3.7).
    pub mean_cc_lines: f64,
}

impl OpDistribution {
    /// Percentage for one operation.
    pub fn pct_of(&self, op: ChangeOp) -> f64 {
        let idx = ChangeOp::ALL
            .iter()
            .position(|&o| o == op)
            .expect("exhaustive");
        self.pct[idx]
    }
}

/// Computes Fig. 12 over the similar-group release sequences.
pub fn op_distribution(sequences: &[Vec<&CollectedPackage>]) -> OpDistribution {
    let mut attempts = 0usize;
    let mut counts = [0usize; 5];
    let mut cc_lines = Vec::new();
    for seq in sequences {
        for pair in seq.windows(2) {
            let change = detect_change(
                &pair[0].id,
                pair[0].archive.as_ref(),
                &pair[1].id,
                pair[1].archive.as_ref(),
            );
            attempts += 1;
            for (i, op) in ChangeOp::ALL.into_iter().enumerate() {
                if change.ops.contains(op) {
                    counts[i] += 1;
                }
            }
            if let Some(lines) = change.changed_lines {
                cc_lines.push(lines as f64);
            }
        }
    }
    let pct = if attempts == 0 {
        [0.0; 5]
    } else {
        let mut out = [0.0; 5];
        for i in 0..5 {
            out[i] = 100.0 * counts[i] as f64 / attempts as f64;
        }
        out
    };
    OpDistribution {
        attempts,
        pct,
        mean_cc_lines: if cc_lines.is_empty() {
            0.0
        } else {
            cc_lines.iter().sum::<f64>() / cc_lines.len() as f64
        },
    }
}

/// One box of the Fig.-11 download-evolution plot.
#[derive(Debug, Clone, PartialEq)]
pub struct DownloadBox {
    /// Release-attempt order (0-based).
    pub order: usize,
    /// Sample count.
    pub n: usize,
    /// Minimum.
    pub min: u64,
    /// First quartile.
    pub q1: u64,
    /// Median.
    pub median: u64,
    /// Third quartile.
    pub q3: u64,
    /// Maximum (the Table-VIII-scale outliers surface here).
    pub max: u64,
}

/// Fig. 11: download quartiles by release order across the similar
/// groups. `stride` keeps every `stride`-th order (the paper plots every
/// tenth box).
pub fn download_evolution(sequences: &[Vec<&CollectedPackage>], stride: usize) -> Vec<DownloadBox> {
    let series: Vec<Vec<u64>> = sequences
        .iter()
        .map(|seq| {
            seq.iter()
                .filter_map(|p| p.meta.map(|m| m.downloads))
                .collect()
        })
        .collect();
    download_evolution_from_series(&series, stride)
}

/// Download series for every *version lineage* of the corpus: all
/// registry versions of each collected package name, in version order.
/// This is where the paper's outliers live — "those outliers belong to
/// popular packages where one version is denoted as the malware"
/// (§IV-E) — and it feeds both Fig. 11 and Table VIII.
pub fn lineage_download_series(
    dataset: &CollectedDataset,
    registry: &dyn RegistryView,
) -> Vec<Vec<u64>> {
    let mut seen: HashSet<(oss_types::Ecosystem, String)> = HashSet::new();
    let mut out = Vec::new();
    for pkg in &dataset.packages {
        let key = (pkg.id.ecosystem(), pkg.id.name().as_str().to_owned());
        if !seen.insert(key) {
            continue;
        }
        let history = registry.version_history(pkg.id.ecosystem(), pkg.id.name());
        if history.len() >= 2 {
            out.push(history.into_iter().map(|(_, m)| m.downloads).collect());
        }
    }
    out
}

/// Core of Fig. 11 over raw per-attempt download series.
pub fn download_evolution_from_series(series: &[Vec<u64>], stride: usize) -> Vec<DownloadBox> {
    let stride = stride.max(1);
    let mut per_order: HashMap<usize, Vec<u64>> = HashMap::new();
    for seq in series {
        for (order, &downloads) in seq.iter().enumerate() {
            per_order.entry(order).or_default().push(downloads);
        }
    }
    let mut orders: Vec<usize> = per_order.keys().copied().collect();
    orders.sort_unstable();
    orders
        .into_iter()
        .filter(|o| o % stride == 0)
        .map(|order| {
            let mut values = per_order.remove(&order).expect("key exists");
            values.sort_unstable();
            let q = |f: f64| values[((values.len() - 1) as f64 * f).round() as usize];
            DownloadBox {
                order,
                n: values.len(),
                min: values[0],
                q1: q(0.25),
                median: q(0.5),
                q3: q(0.75),
                max: *values.last().expect("non-empty"),
            }
        })
        .collect()
}

/// One Table VIII row: an increase in download number and the operations
/// that accompanied it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdnRow {
    /// Increase in download number between consecutive versions.
    pub idn: u64,
    /// Operation set of the re-release.
    pub ops: OpSet,
    /// The later release.
    pub package: PackageId,
}

/// Table VIII: ranks download increases across *version lineages* — all
/// registry versions of every collected package name, including the
/// benign earlier versions of trojaned packages (queried through the
/// public [`RegistryView`]).
pub fn idn_ranking(
    dataset: &CollectedDataset,
    registry: &dyn RegistryView,
    top: usize,
) -> Vec<IdnRow> {
    idn_ranking_with(dataset, registry, top, |id| dataset.get(id))
}

/// [`idn_ranking`] with corpus lookups answered by an
/// [`crate::analysis::index::AnalysisIndex`] instead of a linear scan per
/// consecutive-version pair. Identical output.
pub fn idn_ranking_indexed(
    index: &crate::analysis::index::AnalysisIndex,
    dataset: &CollectedDataset,
    registry: &dyn RegistryView,
    top: usize,
) -> Vec<IdnRow> {
    idn_ranking_with(dataset, registry, top, |id| {
        index.package_index(id).map(|i| &dataset.packages[i])
    })
}

fn idn_ranking_with<'d>(
    dataset: &'d CollectedDataset,
    registry: &dyn RegistryView,
    top: usize,
    mut lookup: impl FnMut(&PackageId) -> Option<&'d CollectedPackage>,
) -> Vec<IdnRow> {
    let mut seen: HashSet<(oss_types::Ecosystem, String)> = HashSet::new();
    let mut rows: Vec<IdnRow> = Vec::new();
    for pkg in &dataset.packages {
        let key = (pkg.id.ecosystem(), pkg.id.name().as_str().to_owned());
        if !seen.insert(key) {
            continue;
        }
        let history = registry.version_history(pkg.id.ecosystem(), pkg.id.name());
        for pair in history.windows(2) {
            let (prev_id, prev_meta) = &pair[0];
            let (next_id, next_meta) = &pair[1];
            let idn = next_meta.downloads.saturating_sub(prev_meta.downloads);
            if idn == 0 {
                continue;
            }
            // Archives: collected corpus first, live registry second.
            let prev_archive = lookup(prev_id)
                .and_then(|p| p.archive.clone())
                .or_else(|| registry.live_archive(prev_id));
            let next_archive = lookup(next_id)
                .and_then(|p| p.archive.clone())
                .or_else(|| registry.live_archive(next_id));
            let change = detect_change(
                prev_id,
                prev_archive.as_ref(),
                next_id,
                next_archive.as_ref(),
            );
            rows.push(IdnRow {
                idn,
                ops: change.ops,
                package: next_id.clone(),
            });
        }
    }
    rows.sort_by(|a, b| b.idn.cmp(&a.idn).then_with(|| a.package.cmp(&b.package)));
    rows.truncate(top);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, BuildOptions};
    use crawler::collect;
    use registry_sim::{World, WorldConfig};

    fn setup() -> (World, CollectedDataset, MalGraph) {
        let world = World::generate(WorldConfig::small(81));
        let dataset = collect(&world);
        let graph = build(&dataset, &BuildOptions::default());
        (world, dataset, graph)
    }

    #[test]
    fn detect_change_identity_ops() {
        let a: PackageId = "npm/colorslib@1.0.0".parse().unwrap();
        let b: PackageId = "npm/httpslib@1.0.0".parse().unwrap();
        let c: PackageId = "npm/colorslib@1.0.1".parse().unwrap();
        let cn = detect_change(&a, None, &b, None);
        assert!(cn.ops.contains(ChangeOp::ChangeName));
        assert!(!cn.ops.contains(ChangeOp::ChangeVersion));
        let cv = detect_change(&a, None, &c, None);
        assert!(cv.ops.contains(ChangeOp::ChangeVersion));
        assert!(!cv.ops.contains(ChangeOp::ChangeName));
    }

    #[test]
    fn detect_change_archive_ops() {
        let a: PackageId = "npm/a@1.0.0".parse().unwrap();
        let b: PackageId = "npm/b@1.0.0".parse().unwrap();
        let arch = |desc: &str, code: &str| Archive {
            description: desc.into(),
            dependencies: vec![],
            code: code.into(),
        };
        let change = detect_change(
            &a,
            Some(&arch("old desc", "x = 1\ny = 2\n")),
            &b,
            Some(&arch("new desc", "x = 1\ny = 3\n")),
        );
        assert!(change.ops.contains(ChangeOp::ChangeName));
        assert!(change.ops.contains(ChangeOp::ChangeDescription));
        assert!(change.ops.contains(ChangeOp::ChangeCode));
        assert!(!change.ops.contains(ChangeOp::ChangeDependency));
        assert_eq!(change.changed_lines, Some(1));
    }

    #[test]
    fn cn_dominates_the_detected_distribution() {
        let (_, dataset, graph) = setup();
        let sequences = release_sequences(&graph, &dataset);
        assert!(!sequences.is_empty());
        let dist = op_distribution(&sequences);
        assert!(dist.attempts > 10, "need attempts, got {}", dist.attempts);
        let cn = dist.pct_of(ChangeOp::ChangeName);
        assert!(cn > 80.0, "Fig. 12: CN ≈ 98.9%, detected {cn:.1}%");
        let cv = dist.pct_of(ChangeOp::ChangeVersion);
        assert!(cv < 20.0, "CV is rare, detected {cv:.1}%");
    }

    #[test]
    fn cc_changes_are_small() {
        let (_, dataset, graph) = setup();
        let sequences = release_sequences(&graph, &dataset);
        let dist = op_distribution(&sequences);
        if dist.pct_of(ChangeOp::ChangeCode) > 0.0 {
            assert!(
                dist.mean_cc_lines > 0.5 && dist.mean_cc_lines < 15.0,
                "paper: ≈3.7 changed lines, detected {:.1}",
                dist.mean_cc_lines
            );
        }
    }

    #[test]
    fn download_medians_are_tiny() {
        let (_, dataset, graph) = setup();
        let sequences = release_sequences(&graph, &dataset);
        let boxes = download_evolution(&sequences, 1);
        assert!(!boxes.is_empty());
        let low_median = boxes.iter().filter(|b| b.median <= 2).count();
        assert!(
            low_median * 10 >= boxes.len() * 6,
            "Fig. 11: most medians are 0–1"
        );
    }

    #[test]
    fn idn_ranking_surfaces_trojan_outliers() {
        let (world, dataset, _) = setup();
        let rows = idn_ranking(&dataset, &world, 10);
        assert!(!rows.is_empty());
        // Descending.
        for pair in rows.windows(2) {
            assert!(pair[0].idn >= pair[1].idn);
        }
        // The top row comes from a trojan lineage with compound growth.
        assert!(
            rows[0].idn > 1_000,
            "Table VIII: top IDN should be large, got {}",
            rows[0].idn
        );
        // Trojan re-releases keep the name: CV, not CN.
        assert!(
            rows[0].ops.contains(ChangeOp::ChangeVersion),
            "trojan lineages re-release by version, ops = {}",
            rows[0].ops
        );
    }

    /// The corpus and registry indexes against the per-name scans of
    /// the plain `World` registry view.
    #[test]
    fn indexed_lineages_and_idn_match_registry_scans() {
        let (world, dataset, _) = setup();
        let index = crate::analysis::index::AnalysisIndex::new(&dataset);
        let registry = crawler::IndexedRegistry::new(&world);
        for top in [1, 10, usize::MAX] {
            assert_eq!(
                idn_ranking_indexed(&index, &dataset, &registry, top),
                idn_ranking(&dataset, &world, top),
                "top {top}"
            );
        }
        assert_eq!(
            lineage_download_series(&dataset, &registry),
            lineage_download_series(&dataset, &world)
        );
    }

    #[test]
    fn stride_subsamples_boxes() {
        let (_, dataset, graph) = setup();
        let sequences = release_sequences(&graph, &dataset);
        let all = download_evolution(&sequences, 1);
        let strided = download_evolution(&sequences, 10);
        assert!(strided.len() <= all.len());
        assert!(strided.iter().all(|b| b.order % 10 == 0));
    }
}
