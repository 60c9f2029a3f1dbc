//! Package versions and identities.

use crate::ecosystem::Ecosystem;
use crate::error::ParseError;
use crate::name::PackageName;
use std::fmt;
use std::str::FromStr;

/// A semver-style package version: `major.minor.patch` with an optional
/// pre-release tag (`1.2.3-beta`).
///
/// All ten ecosystems in the study use versions that fit this shape (the
/// simulator only ever emits such versions), and ordering follows semver:
/// numeric components first, a pre-release sorting *before* the same
/// numeric version.
///
/// # Examples
///
/// ```
/// use oss_types::Version;
///
/// let a: Version = "1.2.3".parse()?;
/// let b: Version = "1.10.0".parse()?;
/// assert!(a < b);
/// let pre: Version = "1.2.3-rc1".parse()?;
/// assert!(pre < a);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Version {
    major: u32,
    minor: u32,
    patch: u32,
    pre: Option<String>,
}

impl Version {
    /// Constructs a release version.
    pub fn new(major: u32, minor: u32, patch: u32) -> Self {
        Version {
            major,
            minor,
            patch,
            pre: None,
        }
    }

    /// Constructs a pre-release version such as `1.2.3-beta`.
    pub fn with_pre(major: u32, minor: u32, patch: u32, pre: impl Into<String>) -> Self {
        Version {
            major,
            minor,
            patch,
            pre: Some(pre.into()),
        }
    }

    /// Major component.
    pub fn major(&self) -> u32 {
        self.major
    }

    /// Minor component.
    pub fn minor(&self) -> u32 {
        self.minor
    }

    /// Patch component.
    pub fn patch(&self) -> u32 {
        self.patch
    }

    /// Pre-release tag, if any.
    pub fn pre(&self) -> Option<&str> {
        self.pre.as_deref()
    }

    /// The next patch version (`1.2.3` → `1.2.4`), dropping any
    /// pre-release tag. This is the *changing version* (CV) operation an
    /// attacker applies between release attempts.
    pub fn bump_patch(&self) -> Version {
        Version::new(self.major, self.minor, self.patch + 1)
    }

    /// The next minor version (`1.2.3` → `1.3.0`).
    pub fn bump_minor(&self) -> Version {
        Version::new(self.major, self.minor + 1, 0)
    }

    /// The next major version (`1.2.3` → `2.0.0`).
    pub fn bump_major(&self) -> Version {
        Version::new(self.major + 1, 0, 0)
    }
}

impl Default for Version {
    /// `1.0.0`, the most common first release of a malicious package.
    fn default() -> Self {
        Version::new(1, 0, 0)
    }
}

impl PartialOrd for Version {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Version {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.major, self.minor, self.patch)
            .cmp(&(other.major, other.minor, other.patch))
            .then_with(|| match (&self.pre, &other.pre) {
                (None, None) => std::cmp::Ordering::Equal,
                // Pre-release sorts before the release it precedes.
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (Some(a), Some(b)) => a.cmp(b),
            })
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)?;
        if let Some(pre) = &self.pre {
            write!(f, "-{pre}")?;
        }
        Ok(())
    }
}

impl FromStr for Version {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (core, pre) = match s.split_once('-') {
            Some((core, pre)) => (core, Some(pre)),
            None => (s, None),
        };
        if let Some(pre) = pre {
            if pre.is_empty() {
                return Err(ParseError::new("version", s, "empty pre-release tag"));
            }
            if !pre.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'.') {
                return Err(ParseError::new("version", s, "invalid pre-release tag"));
            }
        }
        let mut parts = core.split('.');
        let (Some(major), Some(minor), Some(patch), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(ParseError::new("version", s, "expected major.minor.patch"));
        };
        let parse = |p: &str| -> Result<u32, ParseError> {
            if p.is_empty() || (p.len() > 1 && p.starts_with('0')) {
                return Err(ParseError::new("version", s, "bad numeric component"));
            }
            p.parse()
                .map_err(|_| ParseError::new("version", s, "bad numeric component"))
        };
        Ok(Version {
            major: parse(major)?,
            minor: parse(minor)?,
            patch: parse(patch)?,
            pre: pre.map(str::to_owned),
        })
    }
}

/// The identity of one package *release*: ecosystem + name + version.
///
/// This triple is what a security report discloses even when the artifact
/// itself has been removed, and is the node key in MALGRAPH.
///
/// # Examples
///
/// ```
/// use oss_types::{Ecosystem, PackageId};
///
/// let id: PackageId = "npm/brock-loader@1.9.9".parse()?;
/// assert_eq!(id.ecosystem(), Ecosystem::Npm);
/// assert_eq!(id.name().as_str(), "brock-loader");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackageId {
    ecosystem: Ecosystem,
    name: PackageName,
    version: Version,
}

impl PackageId {
    /// Constructs a package identity.
    pub fn new(ecosystem: Ecosystem, name: PackageName, version: Version) -> Self {
        PackageId {
            ecosystem,
            name,
            version,
        }
    }

    /// The registry ecosystem this release was published to.
    pub fn ecosystem(&self) -> Ecosystem {
        self.ecosystem
    }

    /// The package name.
    pub fn name(&self) -> &PackageName {
        &self.name
    }

    /// The release version.
    pub fn version(&self) -> &Version {
        &self.version
    }

    /// Identity of a different version of the same package.
    pub fn with_version(&self, version: Version) -> PackageId {
        PackageId::new(self.ecosystem, self.name.clone(), version)
    }
}

impl fmt::Display for PackageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}@{}",
            self.ecosystem.slug(),
            self.name,
            self.version
        )
    }
}

impl FromStr for PackageId {
    type Err = ParseError;

    /// Parses `ecosystem/name@version`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (eco, rest) = s
            .split_once('/')
            .ok_or_else(|| ParseError::new("package id", s, "missing '/'"))?;
        let (name, version) = rest
            .rsplit_once('@')
            .ok_or_else(|| ParseError::new("package id", s, "missing '@'"))?;
        Ok(PackageId::new(
            eco.parse()?,
            name.parse()?,
            version.parse()?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_parse_and_display_round_trip() {
        for v in ["0.0.1", "1.2.3", "10.20.30", "3.2.0", "1.9.9", "1.0.0-rc1"] {
            let parsed: Version = v.parse().unwrap();
            assert_eq!(parsed.to_string(), v);
        }
    }

    #[test]
    fn version_rejects_malformed() {
        for v in [
            "", "1", "1.2", "1.2.3.4", "1..3", "01.2.3", "1.2.x", "1.2.3-",
        ] {
            assert!(v.parse::<Version>().is_err(), "{v:?} should be rejected");
        }
    }

    #[test]
    fn a_version_of_the_wrong_arity_names_the_format() {
        for input in ["1.2.3.4", "1.2", "1", "", "1.2-rc1"] {
            let err = input.parse::<Version>().unwrap_err();
            assert_eq!(
                (err.what(), err.input(), err.reason()),
                ("version", input, "expected major.minor.patch")
            );
        }
        let err = "1..3".parse::<Version>().unwrap_err();
        assert_eq!(err.reason(), "bad numeric component");
    }

    #[test]
    fn version_ordering_is_numeric_not_lexicographic() {
        let a: Version = "1.9.0".parse().unwrap();
        let b: Version = "1.10.0".parse().unwrap();
        assert!(a < b);
    }

    #[test]
    fn prerelease_sorts_before_release() {
        let rc: Version = "2.0.0-rc1".parse().unwrap();
        let rel: Version = "2.0.0".parse().unwrap();
        let older: Version = "1.9.9".parse().unwrap();
        assert!(rc < rel);
        assert!(older < rc);
    }

    #[test]
    fn bumps() {
        let v = Version::new(1, 2, 3);
        assert_eq!(v.bump_patch().to_string(), "1.2.4");
        assert_eq!(v.bump_minor().to_string(), "1.3.0");
        assert_eq!(v.bump_major().to_string(), "2.0.0");
        let pre = Version::with_pre(1, 2, 3, "beta");
        assert_eq!(pre.bump_patch().pre(), None);
    }

    #[test]
    fn package_id_round_trip() {
        let id: PackageId = "pypi/pygrata-utils@0.1.0".parse().unwrap();
        assert_eq!(id.to_string(), "pypi/pygrata-utils@0.1.0");
        assert_eq!(id.ecosystem(), Ecosystem::PyPI);
        assert_eq!(id.version(), &Version::new(0, 1, 0));
    }

    #[test]
    fn package_id_rejects_malformed() {
        for s in [
            "",
            "pypi/noversion",
            "name@1.0.0",
            "conda/x@1.0.0",
            "npm/Bad Name@1.0.0",
        ] {
            assert!(s.parse::<PackageId>().is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn with_version_keeps_name_and_ecosystem() {
        let id: PackageId = "npm/etc-crypto@1.0.0".parse().unwrap();
        let next = id.with_version(id.version().bump_patch());
        assert_eq!(next.to_string(), "npm/etc-crypto@1.0.1");
    }

    #[test]
    fn default_version_is_one_oh_oh() {
        assert_eq!(Version::default().to_string(), "1.0.0");
    }
}
