//! The ten OSS ecosystems covered by the corpus (paper §II-C).

use crate::error::ParseError;
use std::fmt;
use std::str::FromStr;

/// A package-registry ecosystem.
///
/// The paper's corpus spans ten ecosystems; PyPI, NPM and RubyGems carry
/// the overwhelming majority of malicious packages, and the per-ecosystem
/// analyses (Table VII, Fig. 4) are restricted to those three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ecosystem {
    /// The Python Package Index.
    PyPI,
    /// The Node.js package registry.
    Npm,
    /// The Ruby gem registry.
    RubyGems,
    /// The Java/Maven Central registry.
    Maven,
    /// The CocoaPods registry for Swift/Objective-C.
    Cocoapods,
    /// SourceForge project hosting.
    SourceForge,
    /// Docker Hub images.
    Docker,
    /// The PHP Composer (Packagist) registry.
    Composer,
    /// The .NET NuGet registry.
    NuGet,
    /// The Rust crates.io registry.
    Rust,
}

impl Ecosystem {
    /// All ten ecosystems, in the order used by the paper's tables.
    pub const ALL: [Ecosystem; 10] = [
        Ecosystem::PyPI,
        Ecosystem::Npm,
        Ecosystem::RubyGems,
        Ecosystem::Maven,
        Ecosystem::Cocoapods,
        Ecosystem::SourceForge,
        Ecosystem::Docker,
        Ecosystem::Composer,
        Ecosystem::NuGet,
        Ecosystem::Rust,
    ];

    /// The three ecosystems with mirror registries and per-ecosystem
    /// analyses in the paper (Fig. 4, Table VII).
    pub const MAJOR: [Ecosystem; 3] = [Ecosystem::Npm, Ecosystem::PyPI, Ecosystem::RubyGems];

    /// Canonical lowercase identifier, used in [`PackageId`] rendering.
    ///
    /// [`PackageId`]: crate::PackageId
    pub fn slug(self) -> &'static str {
        match self {
            Ecosystem::PyPI => "pypi",
            Ecosystem::Npm => "npm",
            Ecosystem::RubyGems => "rubygems",
            Ecosystem::Maven => "maven",
            Ecosystem::Cocoapods => "cocoapods",
            Ecosystem::SourceForge => "sourceforge",
            Ecosystem::Docker => "docker",
            Ecosystem::Composer => "composer",
            Ecosystem::NuGet => "nuget",
            Ecosystem::Rust => "rust",
        }
    }

    /// Human-readable display name as printed in the paper.
    pub fn display_name(self) -> &'static str {
        match self {
            Ecosystem::PyPI => "PyPI",
            Ecosystem::Npm => "NPM",
            Ecosystem::RubyGems => "RubyGems",
            Ecosystem::Maven => "Maven",
            Ecosystem::Cocoapods => "Cocoapods",
            Ecosystem::SourceForge => "SourceForge",
            Ecosystem::Docker => "Docker",
            Ecosystem::Composer => "Composer",
            Ecosystem::NuGet => "NuGet",
            Ecosystem::Rust => "Rust",
        }
    }

    /// Name of the metadata file a package in this ecosystem ships
    /// (paper §III-A, dependency-edge extraction).
    pub fn metadata_file(self) -> &'static str {
        match self {
            Ecosystem::Npm => "package.json",
            Ecosystem::PyPI => "requirements.txt",
            Ecosystem::RubyGems => "Gemfile",
            Ecosystem::Maven => "pom.xml",
            Ecosystem::Cocoapods => "Podfile",
            Ecosystem::SourceForge => "MANIFEST",
            Ecosystem::Docker => "Dockerfile",
            Ecosystem::Composer => "composer.json",
            Ecosystem::NuGet => "packages.config",
            Ecosystem::Rust => "Cargo.toml",
        }
    }

    /// Whether this ecosystem has mirror registries in the study
    /// (5 NPM + 12 PyPI + 6 RubyGems mirrors; paper §II-C).
    pub fn has_mirrors(self) -> bool {
        matches!(self, Ecosystem::Npm | Ecosystem::PyPI | Ecosystem::RubyGems)
    }

    /// Number of mirror registries the paper searched for this ecosystem.
    pub fn mirror_count(self) -> usize {
        match self {
            Ecosystem::Npm => 5,
            Ecosystem::PyPI => 12,
            Ecosystem::RubyGems => 6,
            _ => 0,
        }
    }
}

impl fmt::Display for Ecosystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

impl FromStr for Ecosystem {
    type Err = ParseError;

    /// Matches a slug in any ASCII case.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ecosystem::ALL
            .into_iter()
            .find(|e| e.slug().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseError::new("ecosystem", s, "unknown ecosystem"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slug_round_trips() {
        for eco in Ecosystem::ALL {
            let parsed: Ecosystem = eco.slug().parse().unwrap();
            assert_eq!(parsed, eco);
        }
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!("PyPi".parse::<Ecosystem>().unwrap(), Ecosystem::PyPI);
        assert_eq!("NPM".parse::<Ecosystem>().unwrap(), Ecosystem::Npm);
    }

    #[test]
    fn unknown_ecosystem_is_rejected() {
        let err = "conda".parse::<Ecosystem>().unwrap_err();
        assert_eq!(err.what(), "ecosystem");
    }

    #[test]
    fn every_slug_parses_in_upper_case() {
        for eco in Ecosystem::ALL {
            let upper = eco.slug().to_ascii_uppercase();
            assert_eq!(upper.parse::<Ecosystem>().unwrap(), eco);
        }
        // Only ASCII letters fold: a slug spelled with a non-ASCII
        // look-alike is unknown, and the error keeps the input as given.
        let err = "PYPİ".parse::<Ecosystem>().unwrap_err();
        assert_eq!(
            (err.what(), err.input(), err.reason()),
            ("ecosystem", "PYPİ", "unknown ecosystem")
        );
    }

    #[test]
    fn mirror_counts_match_paper() {
        // 5 NPM + 12 PyPI + 6 RubyGems mirrors (paper §II-C).
        assert_eq!(Ecosystem::Npm.mirror_count(), 5);
        assert_eq!(Ecosystem::PyPI.mirror_count(), 12);
        assert_eq!(Ecosystem::RubyGems.mirror_count(), 6);
        assert_eq!(Ecosystem::Maven.mirror_count(), 0);
        assert!(!Ecosystem::Docker.has_mirrors());
    }

    #[test]
    fn all_contains_ten_distinct_ecosystems() {
        let mut slugs: Vec<_> = Ecosystem::ALL.iter().map(|e| e.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), 10);
    }
}
