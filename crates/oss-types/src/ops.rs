//! Changing operations between consecutive release attempts.
//!
//! After a malicious package is removed, the attacker must *change* it to
//! release again (paper §IV-E). The paper distinguishes five operations;
//! a single re-release usually applies several at once, so they are also
//! collected into an [`OpSet`].

use std::fmt;

/// One changing operation (paper Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChangeOp {
    /// CN — changing the package name.
    ChangeName,
    /// CV — changing only the version.
    ChangeVersion,
    /// CD — changing the description.
    ChangeDescription,
    /// CDep — changing the dependency list.
    ChangeDependency,
    /// CC — changing the source code.
    ChangeCode,
}

impl ChangeOp {
    /// All five operations in the paper's plotting order.
    pub const ALL: [ChangeOp; 5] = [
        ChangeOp::ChangeName,
        ChangeOp::ChangeVersion,
        ChangeOp::ChangeDescription,
        ChangeOp::ChangeDependency,
        ChangeOp::ChangeCode,
    ];

    /// Short label used in Fig. 12 and Table VIII.
    pub fn label(self) -> &'static str {
        match self {
            ChangeOp::ChangeName => "CN",
            ChangeOp::ChangeVersion => "CV",
            ChangeOp::ChangeDescription => "CD",
            ChangeOp::ChangeDependency => "CDep",
            ChangeOp::ChangeCode => "CC",
        }
    }

    fn bit(self) -> u8 {
        match self {
            ChangeOp::ChangeName => 1,
            ChangeOp::ChangeVersion => 1 << 1,
            ChangeOp::ChangeDescription => 1 << 2,
            ChangeOp::ChangeDependency => 1 << 3,
            ChangeOp::ChangeCode => 1 << 4,
        }
    }
}

impl fmt::Display for ChangeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A set of [`ChangeOp`]s applied in one re-release attempt, e.g.
/// `(CDep, CD, CN, CC)` in Table VIII.
///
/// # Examples
///
/// ```
/// use oss_types::{ChangeOp, OpSet};
///
/// let mut ops = OpSet::empty();
/// ops.insert(ChangeOp::ChangeName);
/// ops.insert(ChangeOp::ChangeCode);
/// assert!(ops.contains(ChangeOp::ChangeName));
/// assert_eq!(ops.len(), 2);
/// assert_eq!(ops.to_string(), "(CN, CC)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OpSet(u8);

impl OpSet {
    /// The empty set.
    pub const fn empty() -> Self {
        OpSet(0)
    }

    /// Whether no operation is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Inserts an operation; returns whether it was newly inserted.
    pub fn insert(&mut self, op: ChangeOp) -> bool {
        let had = self.contains(op);
        self.0 |= op.bit();
        !had
    }

    /// Removes an operation; returns whether it was present.
    pub fn remove(&mut self, op: ChangeOp) -> bool {
        let had = self.contains(op);
        self.0 &= !op.bit();
        had
    }

    /// Whether `op` is in the set.
    pub fn contains(self, op: ChangeOp) -> bool {
        self.0 & op.bit() != 0
    }

    /// Number of operations in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates the contained operations in canonical order
    /// (CDep, CD, CN, CC, CV — the order Table VIII prints op tuples).
    pub fn iter(self) -> impl Iterator<Item = ChangeOp> {
        const TABLE8_ORDER: [ChangeOp; 5] = [
            ChangeOp::ChangeDependency,
            ChangeOp::ChangeDescription,
            ChangeOp::ChangeName,
            ChangeOp::ChangeCode,
            ChangeOp::ChangeVersion,
        ];
        TABLE8_ORDER
            .into_iter()
            .filter(move |op| self.contains(*op))
    }

    /// Union of two sets.
    pub fn union(self, other: OpSet) -> OpSet {
        OpSet(self.0 | other.0)
    }
}

impl FromIterator<ChangeOp> for OpSet {
    fn from_iter<I: IntoIterator<Item = ChangeOp>>(iter: I) -> Self {
        let mut set = OpSet::empty();
        for op in iter {
            set.insert(op);
        }
        set
    }
}

impl Extend<ChangeOp> for OpSet {
    fn extend<I: IntoIterator<Item = ChangeOp>>(&mut self, iter: I) {
        for op in iter {
            self.insert(op);
        }
    }
}

impl fmt::Display for OpSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, op) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut set = OpSet::empty();
        assert!(set.is_empty());
        assert!(set.insert(ChangeOp::ChangeName));
        assert!(!set.insert(ChangeOp::ChangeName), "double insert");
        assert!(set.contains(ChangeOp::ChangeName));
        assert!(!set.contains(ChangeOp::ChangeCode));
        assert!(set.remove(ChangeOp::ChangeName));
        assert!(!set.remove(ChangeOp::ChangeName), "double remove");
        assert!(set.is_empty());
    }

    #[test]
    fn from_iterator_and_len() {
        let set: OpSet = [
            ChangeOp::ChangeName,
            ChangeOp::ChangeCode,
            ChangeOp::ChangeName,
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_uses_table8_order() {
        let set: OpSet = [
            ChangeOp::ChangeCode,
            ChangeOp::ChangeName,
            ChangeOp::ChangeDescription,
            ChangeOp::ChangeDependency,
        ]
        .into_iter()
        .collect();
        // Table VIII prints e.g. "(CDep, CD, CN, CC)".
        assert_eq!(set.to_string(), "(CDep, CD, CN, CC)");
    }

    #[test]
    fn union_combines() {
        let a: OpSet = [ChangeOp::ChangeName].into_iter().collect();
        let b: OpSet = [ChangeOp::ChangeVersion].into_iter().collect();
        let u = a.union(b);
        assert!(u.contains(ChangeOp::ChangeName));
        assert!(u.contains(ChangeOp::ChangeVersion));
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn empty_set_displays_as_unit() {
        assert_eq!(OpSet::empty().to_string(), "()");
    }

    #[test]
    fn all_ops_have_unique_labels_and_bits() {
        let mut labels: Vec<_> = ChangeOp::ALL.iter().map(|o| o.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
        let full: OpSet = ChangeOp::ALL.into_iter().collect();
        assert_eq!(full.len(), 5);
    }
}
