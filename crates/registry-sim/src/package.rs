//! Simulated package records — the ground truth of the world.

use oss_types::{ActorId, OpSet, PackageId, Sha256, SimTime};

/// Index of a package within [`crate::world::World::packages`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PkgIdx(pub u32);

impl PkgIdx {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a campaign within [`crate::world::World::campaigns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignIdx(pub u32);

impl CampaignIdx {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Why a package cannot be recovered from any mirror (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnavailCause {
    /// Released so long ago that every mirror has since reconciled the
    /// deletion (cause 1: "release time is too early").
    ReleasedTooEarly,
    /// Removed before any mirror sync captured it (cause 2: "persistent
    /// period is too short").
    PersistenceTooShort,
    /// The ecosystem has no mirror registries at all (the seven minor
    /// ecosystems).
    NoMirrors,
}

/// One malicious package release in the simulated world.
///
/// Fields marked *ground truth* are known to the simulator but **never**
/// read by the collection pipeline or MALGRAPH construction — only by
/// validation code that scores the pipeline's output.
#[derive(Debug, Clone)]
pub struct SimPackage {
    /// Registry identity (ecosystem / name @ version).
    pub id: PackageId,
    /// Metadata description string.
    pub description: String,
    /// Declared dependencies (names within the same ecosystem).
    pub dependencies: Vec<oss_types::PackageName>,
    /// Canonical source text of the package's code.
    pub source_text: String,
    /// The artifact signature: SHA-256 of the id, metadata and code
    /// ([`crate::campaign::artifact_signature`]).
    pub signature: Sha256,
    /// Release instant.
    pub released: SimTime,
    /// Instant the registry admin removed it, if it was detected.
    pub removed: Option<SimTime>,
    /// Download count accumulated before removal.
    pub downloads: u64,
    /// Ground truth: campaign this release belongs to (`None` = loner).
    pub campaign: Option<CampaignIdx>,
    /// Ground truth: 0-based release-attempt order within the campaign.
    pub attempt: usize,
    /// Ground truth: the adversary.
    pub actor: ActorId,
    /// Ground truth: behaviour family; `None` for the benign front
    /// package of a dependency attack or a trojan's clean first releases.
    pub behavior: Option<minilang::gen::Behavior>,
    /// Ground truth: changing operations applied relative to the previous
    /// attempt (empty for the first attempt).
    pub ops_from_prev: OpSet,
    /// Whether some mirror still holds the artifact at collection time.
    pub mirror_available: bool,
    /// Why it is not mirror-recoverable, when it is not.
    pub unavail_cause: Option<UnavailCause>,
}

impl SimPackage {
    /// Persistence: time between release and removal, `None` while the
    /// package was never removed.
    pub fn persistence(&self) -> Option<oss_types::SimDuration> {
        self.removed.map(|r| r - self.released)
    }

    /// Whether the package carries malicious code.
    pub fn is_malicious(&self) -> bool {
        self.behavior.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::artifact_signature;
    use oss_types::{PackageName, SimDuration};

    fn sample(released: SimTime, removed: Option<SimTime>) -> SimPackage {
        let id: PackageId = "pypi/sample@1.0.0".parse().unwrap();
        let source_text = String::from("x = 1\n");
        let signature = artifact_signature(&id, "a sample", &[], &source_text);
        SimPackage {
            id,
            description: "a sample".into(),
            dependencies: vec![],
            source_text,
            signature,
            released,
            removed,
            downloads: 0,
            campaign: None,
            attempt: 0,
            actor: ActorId::new(0),
            behavior: None,
            ops_from_prev: OpSet::empty(),
            mirror_available: false,
            unavail_cause: Some(UnavailCause::PersistenceTooShort),
        }
    }

    #[test]
    fn persistence_is_removal_minus_release() {
        let t0 = SimTime::from_ymd(2023, 5, 1);
        let t1 = t0 + SimDuration::hours(30);
        let pkg = sample(t0, Some(t1));
        assert_eq!(pkg.persistence().unwrap().as_hours(), 30);
        assert_eq!(sample(t0, None).persistence(), None);
    }

    #[test]
    fn identical_code_has_identical_signature() {
        let id: PackageId = "npm/sample@1.0.0".parse().unwrap();
        let deps: Vec<PackageName> = vec!["left-pad".parse().unwrap()];
        let sign =
            |deps: &[PackageName], code: &str| artifact_signature(&id, "a sample", deps, code);
        let a = sign(&deps, "x = 1\ny = 2\n");
        // The parts are hashed as one newline-separated text.
        let text = "npm/sample@1.0.0\na sample\nleft-pad,\nx = 1\ny = 2\n";
        assert_eq!(a, Sha256::digest_str(text));
        assert_eq!(a, sign(&deps, "x = 1\ny = 2\n"));
        assert_ne!(a, sign(&deps, "x = 1\ny = 3\n"), "one code byte changed");
        let other_deps: Vec<PackageName> = vec!["left-pads".parse().unwrap()];
        assert_ne!(
            a,
            sign(&other_deps, "x = 1\ny = 2\n"),
            "a dependency changed"
        );
    }

    #[test]
    fn maliciousness_follows_behavior() {
        let mut pkg = sample(SimTime::EPOCH, None);
        assert!(!pkg.is_malicious());
        pkg.behavior = Some(minilang::gen::Behavior::Backdoor);
        assert!(pkg.is_malicious());
    }
}
