//! Line-level diff between two programs.
//!
//! The paper quantifies the CC (changing code) operation by diffing
//! consecutive release attempts and reports "the line of changing code
//! was around 3.7 lines" (§IV-E). This module provides an LCS-based line
//! diff over the canonical printed text.

use crate::ast::Module;
use crate::printer::print_lines;

/// Result of diffing two line sequences.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiffStats {
    /// Lines present only in the old version.
    pub removed: usize,
    /// Lines present only in the new version.
    pub added: usize,
    /// Lines common to both (the LCS length).
    pub common: usize,
}

impl DiffStats {
    /// Total changed lines, the paper's "lines of changing code" metric:
    /// `max(added, removed)` counts a replaced line once.
    pub fn changed_lines(&self) -> usize {
        self.added.max(self.removed)
    }

    /// Whether the two inputs are line-identical.
    pub fn is_identical(&self) -> bool {
        self.added == 0 && self.removed == 0
    }
}

/// Diffs two slices of lines using longest-common-subsequence.
///
/// # Examples
///
/// ```
/// use minilang::diff::diff_lines;
///
/// let old = ["a", "b", "c"];
/// let new = ["a", "x", "c"];
/// let stats = diff_lines(&old, &new);
/// assert_eq!(stats.changed_lines(), 1);
/// assert_eq!(stats.common, 2);
/// ```
pub fn diff_lines<S: AsRef<str>>(old: &[S], new: &[S]) -> DiffStats {
    let n = old.len();
    let m = new.len();
    // Trim the common prefix and suffix first. Every line of a common
    // affix belongs to *some* maximum-length common subsequence (matching
    // it can never cost a longer match elsewhere), so
    // `LCS = prefix + LCS(middle) + suffix` — and re-releases within a
    // campaign overwhelmingly share almost all their lines, emptying the
    // middle entirely.
    let mut prefix = 0usize;
    while prefix < n && prefix < m && old[prefix].as_ref() == new[prefix].as_ref() {
        prefix += 1;
    }
    let mut suffix = 0usize;
    while suffix < n - prefix
        && suffix < m - prefix
        && old[n - 1 - suffix].as_ref() == new[m - 1 - suffix].as_ref()
    {
        suffix += 1;
    }
    let lcs = prefix + suffix + lcs_two_row(&old[prefix..n - suffix], &new[prefix..m - suffix]);
    DiffStats {
        removed: n - lcs,
        added: m - lcs,
        common: lcs,
    }
}

/// LCS length in O(n·m) time and O(min(n, m)) space: the classic
/// two-row DP, keeping only the previous row instead of the full table.
fn lcs_two_row<S: AsRef<str>>(old: &[S], new: &[S]) -> usize {
    // Roll over the shorter side to bound the rows at min(n, m) + 1.
    let (short, long) = if old.len() <= new.len() {
        (old, new)
    } else {
        (new, old)
    };
    if short.is_empty() {
        return 0;
    }
    let mut prev = vec![0usize; short.len() + 1];
    let mut cur = vec![0usize; short.len() + 1];
    for row in long {
        for (j, col) in short.iter().enumerate() {
            cur[j + 1] = if row.as_ref() == col.as_ref() {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// The original full-table LCS diff, kept as the oracle the trimmed
/// two-row implementation is property-tested against.
#[cfg(test)]
fn diff_lines_reference<S: AsRef<str>>(old: &[S], new: &[S]) -> DiffStats {
    let n = old.len();
    let m = new.len();
    let mut table = vec![0usize; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            table[idx(i, j)] = if old[i].as_ref() == new[j].as_ref() {
                table[idx(i + 1, j + 1)] + 1
            } else {
                table[idx(i + 1, j)].max(table[idx(i, j + 1)])
            };
        }
    }
    let lcs = table[idx(0, 0)];
    DiffStats {
        removed: n - lcs,
        added: m - lcs,
        common: lcs,
    }
}

/// Diffs the canonical printed text of two modules.
pub fn line_diff(old: &Module, new: &Module) -> DiffStats {
    diff_lines(&print_lines(old), &print_lines(new))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn identical_modules_have_zero_diff() {
        let a = parse("x = 1\ny = 2\n").unwrap();
        let stats = line_diff(&a, &a);
        assert!(stats.is_identical());
        assert_eq!(stats.common, 2);
    }

    #[test]
    fn single_line_replacement_counts_once() {
        let a = parse("x = 1\ny = 2\nz = 3\n").unwrap();
        let b = parse("x = 1\ny = 9\nz = 3\n").unwrap();
        let stats = line_diff(&a, &b);
        assert_eq!(stats.changed_lines(), 1);
        assert_eq!(stats.removed, 1);
        assert_eq!(stats.added, 1);
    }

    #[test]
    fn pure_insertion() {
        let a = parse("x = 1\n").unwrap();
        let b = parse("x = 1\ny = 2\nz = 3\n").unwrap();
        let stats = line_diff(&a, &b);
        assert_eq!(stats.added, 2);
        assert_eq!(stats.removed, 0);
        assert_eq!(stats.changed_lines(), 2);
    }

    #[test]
    fn pure_deletion() {
        let a = parse("x = 1\ny = 2\n").unwrap();
        let b = parse("y = 2\n").unwrap();
        let stats = line_diff(&a, &b);
        assert_eq!(stats.removed, 1);
        assert_eq!(stats.added, 0);
    }

    #[test]
    fn disjoint_programs() {
        let a = parse("a = 1\n").unwrap();
        let b = parse("b = 2\n").unwrap();
        let stats = line_diff(&a, &b);
        assert_eq!(stats.common, 0);
        assert_eq!(stats.changed_lines(), 1);
    }

    #[test]
    fn empty_vs_empty() {
        let stats = diff_lines::<&str>(&[], &[]);
        assert!(stats.is_identical());
        assert_eq!(stats.common, 0);
    }

    #[test]
    fn diff_is_symmetric_in_changed_lines() {
        let a = parse("x = 1\ny = 2\nz = 3\n").unwrap();
        let b = parse("x = 1\nw = 8\n").unwrap();
        let ab = line_diff(&a, &b);
        let ba = line_diff(&b, &a);
        assert_eq!(ab.common, ba.common);
        assert_eq!(ab.added, ba.removed);
        assert_eq!(ab.changed_lines(), ba.changed_lines());
    }

    #[test]
    fn trimmed_two_row_matches_full_table_on_edge_shapes() {
        let cases: &[(&[&str], &[&str])] = &[
            (&[], &[]),
            (&[], &["a"]),
            (&["a"], &[]),
            (&["a", "b", "c"], &["a", "b", "c"]),
            (&["a", "b", "c"], &["c", "b", "a"]),
            (&["p", "x", "s"], &["p", "y", "s"]),
            (&["p", "p", "s", "s"], &["p", "s"]),
            (&["a", "a", "a"], &["a", "a"]),
        ];
        for (old, new) in cases {
            assert_eq!(
                diff_lines(old, new),
                diff_lines_reference(old, new),
                "old {old:?} new {new:?}"
            );
        }
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        /// Small alphabet so generated sequences collide often — the
        /// regime where prefix/suffix trimming and mid-sequence matching
        /// interact.
        fn arb_lines() -> impl Strategy<Value = Vec<String>> {
            proptest::collection::vec("[abc]", 0..24)
        }

        proptest! {
            #[test]
            fn two_row_diff_equals_full_table(old in arb_lines(), new in arb_lines()) {
                prop_assert_eq!(diff_lines(&old, &new), diff_lines_reference(&old, &new));
            }

            #[test]
            fn diff_bounds_hold(old in arb_lines(), new in arb_lines()) {
                let stats = diff_lines(&old, &new);
                prop_assert_eq!(stats.removed + stats.common, old.len());
                prop_assert_eq!(stats.added + stats.common, new.len());
            }
        }
    }
}
