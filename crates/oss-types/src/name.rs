//! Validated package names and typosquatting distance.

use crate::error::ParseError;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A validated, registry-style package name.
///
/// Names are non-empty, at most 214 bytes (the npm limit, which is the
/// strictest of the ecosystems studied), lowercase ASCII, and use only
/// `a-z`, `0-9`, `-`, `_` and `.`, starting with an alphanumeric
/// character. The name is reference-counted so the simulator can hand the
/// same name to thousands of graph nodes cheaply.
///
/// # Examples
///
/// ```
/// use oss_types::PackageName;
///
/// let name: PackageName = "bootstrap-sass".parse()?;
/// assert_eq!(name.as_str(), "bootstrap-sass");
/// assert!("".parse::<PackageName>().is_err());
/// assert!("Has Space".parse::<PackageName>().is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackageName(Arc<str>);

/// Maximum package-name length in bytes (the npm registry limit).
pub const MAX_NAME_LEN: usize = 214;

impl PackageName {
    /// Validates and constructs a package name.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the name is empty, too long, or contains
    /// a character outside `[a-z0-9._-]`, or does not start with an
    /// alphanumeric character.
    pub fn new(name: &str) -> Result<Self, ParseError> {
        if name.is_empty() {
            return Err(ParseError::new("package name", name, "empty"));
        }
        if name.len() > MAX_NAME_LEN {
            return Err(ParseError::new(
                "package name",
                name,
                "longer than 214 bytes",
            ));
        }
        let first = name.as_bytes()[0];
        if !first.is_ascii_lowercase() && !first.is_ascii_digit() {
            return Err(ParseError::new(
                "package name",
                name,
                "must start with a lowercase letter or digit",
            ));
        }
        if !name.bytes().all(|b| {
            b.is_ascii_lowercase() || b.is_ascii_digit() || matches!(b, b'-' | b'_' | b'.')
        }) {
            return Err(ParseError::new(
                "package name",
                name,
                "contains a character outside [a-z0-9._-]",
            ));
        }
        Ok(PackageName(Arc::from(name)))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Levenshtein edit distance to another name.
    ///
    /// Used to detect *typosquatting* (a malicious name within a small
    /// edit distance of a popular legitimate name) and *name-changing*
    /// operations within a campaign (paper Fig. 12, operation CN).
    pub fn edit_distance(&self, other: &PackageName) -> usize {
        levenshtein(self.as_str(), other.as_str())
    }

    /// Whether this name is a plausible typosquat of `target`: within
    /// edit distance 2 but not identical. Runs the banded DP, which
    /// rejects most pairs on length or within a row or two.
    pub fn is_typosquat_of(&self, target: &PackageName) -> bool {
        self != target && levenshtein_bounded(self.as_str(), target.as_str(), 2).is_some()
    }
}

impl fmt::Display for PackageName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for PackageName {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PackageName::new(s)
    }
}

impl AsRef<str> for PackageName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// Levenshtein edit distance between two byte strings, O(|a|·|b|) time and
/// O(min(|a|,|b|)) space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let (a, b) = if a.len() < b.len() { (a, b) } else { (b, a) };
    let a: Vec<u8> = a.bytes().collect();
    let b: Vec<u8> = b.bytes().collect();
    if a.is_empty() {
        return b.len();
    }
    let mut prev: Vec<usize> = (0..=a.len()).collect();
    let mut cur = vec![0usize; a.len() + 1];
    for (j, &bj) in b.iter().enumerate() {
        cur[0] = j + 1;
        for (i, &ai) in a.iter().enumerate() {
            let cost = usize::from(ai != bj);
            cur[i + 1] = (prev[i] + cost).min(prev[i + 1] + 1).min(cur[i] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[a.len()]
}

/// Levenshtein distance when it is at most `bound`, `None` otherwise.
///
/// A length pre-check rejects pairs whose length difference already
/// exceeds the bound without touching the DP at all (every insertion or
/// deletion changes the length by one, so `|len(a) − len(b)|` is a lower
/// bound on the distance). The DP itself is *banded*: a cell `(i, j)`
/// with `|i − j| > bound` can only be reached by drifting more than
/// `bound` insertions/deletions off the diagonal, so its true value
/// exceeds the bound and the band outside is treated as unreachable.
/// When every cell of a row exceeds the bound the scan stops early —
/// typosquat censuses compare thousands of campaign names against
/// popular targets they share no prefix with, and almost all of them
/// exit on the first row or two.
///
/// Agrees with [`levenshtein`] on every pair within the bound
/// (property-tested in this module).
pub fn levenshtein_bounded(a: &str, b: &str, bound: usize) -> Option<usize> {
    let (a, b) = if a.len() < b.len() { (a, b) } else { (b, a) };
    let a = a.as_bytes();
    let b = b.as_bytes();
    if b.len() - a.len() > bound {
        return None;
    }
    if a.is_empty() {
        return Some(b.len()); // ≤ bound by the length pre-check
    }
    // Cells outside the band hold this sentinel: large enough to never
    // win a `min`, small enough that `+ 1` cannot overflow.
    let unreachable = usize::MAX / 2;
    let mut prev: Vec<usize> = (0..=a.len())
        .map(|i| if i <= bound { i } else { unreachable })
        .collect();
    let mut cur = vec![unreachable; a.len() + 1];
    for (j, &bj) in b.iter().enumerate() {
        cur.iter_mut().for_each(|c| *c = unreachable);
        let lo = (j + 1).saturating_sub(bound);
        let hi = (j + 1 + bound).min(a.len());
        if lo == 0 {
            cur[0] = j + 1;
        }
        let mut row_min = if lo == 0 { cur[0] } else { unreachable };
        for i in lo.max(1)..=hi {
            let cost = usize::from(a[i - 1] != bj);
            let value = (prev[i - 1] + cost).min(prev[i] + 1).min(cur[i - 1] + 1);
            cur[i] = value;
            row_min = row_min.min(value);
        }
        if row_min > bound {
            return None; // the whole band already exceeds the bound
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let distance = prev[a.len()];
    (distance <= bound).then_some(distance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_names_parse() {
        for name in ["a", "requests", "loglib-modules", "etc-crypto", "lib2.0_x"] {
            assert!(name.parse::<PackageName>().is_ok(), "{name} should parse");
        }
    }

    #[test]
    fn invalid_names_are_rejected() {
        for name in ["", "-leading-dash", "UPPER", "has space", ".dot", "emoji💣"] {
            assert!(
                name.parse::<PackageName>().is_err(),
                "{name:?} should be rejected"
            );
        }
        let long = "a".repeat(MAX_NAME_LEN + 1);
        assert!(long.parse::<PackageName>().is_err());
        let exactly = "a".repeat(MAX_NAME_LEN);
        assert!(exactly.parse::<PackageName>().is_ok());
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("requests", "request"), 1);
        assert_eq!(levenshtein("colors", "colorslib"), 3);
    }

    #[test]
    fn bounded_levenshtein_basics() {
        assert_eq!(levenshtein_bounded("", "", 2), Some(0));
        assert_eq!(levenshtein_bounded("requests", "request", 2), Some(1));
        assert_eq!(levenshtein_bounded("reqests", "requests", 2), Some(1));
        assert_eq!(levenshtein_bounded("kitten", "sitting", 2), None);
        assert_eq!(levenshtein_bounded("kitten", "sitting", 3), Some(3));
        // Length difference alone exceeds the bound: pruned before the DP.
        assert_eq!(levenshtein_bounded("abc", "abcdefgh", 2), None);
        assert_eq!(levenshtein_bounded("colors", "colorslib", 2), None);
    }

    #[test]
    fn bounded_levenshtein_is_symmetric() {
        for (a, b) in [("pylibsql", "pylibfont"), ("flask", "flask2"), ("a", "abc")] {
            for bound in 0..4 {
                assert_eq!(
                    levenshtein_bounded(a, b, bound),
                    levenshtein_bounded(b, a, bound),
                    "{a} vs {b} at bound {bound}"
                );
            }
        }
    }

    #[test]
    fn levenshtein_is_symmetric() {
        assert_eq!(
            levenshtein("pylibsql", "pylibfont"),
            levenshtein("pylibfont", "pylibsql")
        );
    }

    #[test]
    fn typosquat_detection() {
        let legit: PackageName = "requests".parse().unwrap();
        let squat: PackageName = "request".parse().unwrap();
        let far: PackageName = "numpy".parse().unwrap();
        assert!(squat.is_typosquat_of(&legit));
        assert!(!far.is_typosquat_of(&legit));
        assert!(
            !legit.is_typosquat_of(&legit),
            "identical name is not a squat"
        );
    }

    #[test]
    fn clone_shares_storage() {
        let a: PackageName = "shared".parse().unwrap();
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }
}
