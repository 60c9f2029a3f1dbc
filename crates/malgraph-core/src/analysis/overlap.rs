//! RQ1 — Overlapping degree: who reports what, and how much is shared
//! (paper Table IV, Fig. 4).

use crawler::CollectedDataset;
use oss_types::{Ecosystem, SourceId};
use std::collections::HashMap;

/// The 10×10 source-overlap matrix (Table IV).
#[derive(Debug, Clone)]
pub struct OverlapMatrix {
    /// Distinct-package count per source (the parenthesized header row).
    pub totals: HashMap<SourceId, usize>,
    /// `counts[i][j]` = packages mentioned by both `ALL[i]` and `ALL[j]`.
    pub counts: [[usize; 10]; 10],
}

impl OverlapMatrix {
    /// The overlap between two sources.
    pub fn get(&self, a: SourceId, b: SourceId) -> usize {
        let ia = index_of(a);
        let ib = index_of(b);
        self.counts[ia][ib]
    }

    /// Renders the matrix in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("          ");
        for s in SourceId::ALL {
            out.push_str(&format!("{:>8}", s.abbrev()));
        }
        out.push('\n');
        for (i, row_source) in SourceId::ALL.into_iter().enumerate() {
            out.push_str(&format!(
                "{:>4} ({:>5})",
                row_source.abbrev(),
                self.totals.get(&row_source).copied().unwrap_or(0)
            ));
            for j in 0..10 {
                if i == j {
                    out.push_str("       —");
                } else {
                    out.push_str(&format!("{:>8}", self.counts[i][j]));
                }
            }
            out.push('\n');
        }
        out
    }
}

fn index_of(source: SourceId) -> usize {
    SourceId::ALL
        .iter()
        .position(|&s| s == source)
        .expect("SourceId::ALL is exhaustive")
}

/// Computes the overlap matrix over the corpus.
pub fn overlap_matrix(dataset: &CollectedDataset) -> OverlapMatrix {
    let mut totals: HashMap<SourceId, usize> = HashMap::new();
    let mut counts = [[0usize; 10]; 10];
    for pkg in &dataset.packages {
        let mut sources: Vec<SourceId> = pkg.mentions.iter().map(|&(s, _)| s).collect();
        sources.sort_unstable();
        sources.dedup();
        for &s in &sources {
            *totals.entry(s).or_default() += 1;
        }
        for i in 0..sources.len() {
            for j in (i + 1)..sources.len() {
                let (a, b) = (index_of(sources[i]), index_of(sources[j]));
                counts[a][b] += 1;
                counts[b][a] += 1;
            }
        }
    }
    OverlapMatrix { totals, counts }
}

/// Mean pairwise overlap within a category pair, used by the paper's
/// academia-vs-industry reading of Table IV.
pub fn category_mean_overlap(
    matrix: &OverlapMatrix,
    a: oss_types::SourceCategory,
    b: oss_types::SourceCategory,
) -> f64 {
    let mut total = 0usize;
    let mut cells = 0usize;
    for (i, sa) in SourceId::ALL.into_iter().enumerate() {
        for (j, sb) in SourceId::ALL.into_iter().enumerate() {
            if i == j {
                continue;
            }
            let matches = (sa.category() == a && sb.category() == b)
                || (sa.category() == b && sb.category() == a);
            if matches {
                total += matrix.counts[i][j];
                cells += 1;
            }
        }
    }
    if cells == 0 {
        0.0
    } else {
        total as f64 / cells as f64
    }
}

/// Fig. 4: CDF of DG size (sources per package) for one ecosystem, as
/// `(size, fraction ≤ size)` points.
pub fn dg_size_cdf(dataset: &CollectedDataset, eco: Ecosystem) -> Vec<(usize, f64)> {
    let mut sizes: Vec<usize> = dataset
        .packages
        .iter()
        .filter(|p| p.id.ecosystem() == eco)
        .map(|p| {
            let mut sources: Vec<SourceId> = p.mentions.iter().map(|&(s, _)| s).collect();
            sources.sort_unstable();
            sources.dedup();
            sources.len()
        })
        .collect();
    sizes.sort_unstable();
    let n = sizes.len() as f64;
    let mut out: Vec<(usize, f64)> = Vec::new();
    for (i, &s) in sizes.iter().enumerate() {
        let frac = (i + 1) as f64 / n;
        match out.last_mut() {
            Some(last) if last.0 == s => last.1 = frac,
            _ => out.push((s, frac)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::collect;
    use registry_sim::{World, WorldConfig};

    fn dataset() -> CollectedDataset {
        collect(&World::generate(WorldConfig::small(41)))
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let m = overlap_matrix(&dataset());
        for i in 0..10 {
            assert_eq!(m.counts[i][i], 0);
            for j in 0..10 {
                assert_eq!(m.counts[i][j], m.counts[j][i]);
            }
        }
    }

    #[test]
    fn totals_match_mention_dedup() {
        let ds = dataset();
        let m = overlap_matrix(&ds);
        let sum: usize = m.totals.values().sum();
        let expect: usize = ds
            .packages
            .iter()
            .map(|p| {
                let mut s: Vec<_> = p.mentions.iter().map(|&(s, _)| s).collect();
                s.sort_unstable();
                s.dedup();
                s.len()
            })
            .sum();
        assert_eq!(sum, expect);
    }

    #[test]
    fn known_overlaps_are_nonzero() {
        // The calibrated world always carries B.K↔M.D and T.↔P. overlap.
        let m = overlap_matrix(&dataset());
        assert!(m.get(SourceId::BackstabberKnife, SourceId::MalPyPI) > 0);
        assert!(m.get(SourceId::Tianwen, SourceId::Phylum) > 0);
    }

    #[test]
    fn academia_pairs_overlap_more_than_industry_pairs() {
        use oss_types::SourceCategory::{Academia, Industry};
        let m = overlap_matrix(&dataset());
        let aa = category_mean_overlap(&m, Academia, Academia);
        let ii = category_mean_overlap(&m, Industry, Industry);
        assert!(
            aa > ii,
            "paper: academia redundancy ({aa:.1}) exceeds industry ({ii:.1})"
        );
    }

    #[test]
    fn dg_cdf_is_monotone_and_mostly_singletons() {
        let cdf = dg_size_cdf(&dataset(), Ecosystem::PyPI);
        assert!(!cdf.is_empty());
        assert_eq!(cdf[0].0, 1);
        assert!(
            cdf[0].1 > 0.6,
            "most packages single-source, got {}",
            cdf[0].1
        );
        for pair in cdf.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_contains_all_abbrevs() {
        let m = overlap_matrix(&dataset());
        let text = m.render();
        for s in SourceId::ALL {
            assert!(text.contains(s.abbrev()));
        }
    }
}
