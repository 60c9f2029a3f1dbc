//! Mirror recovery: the second chance for removed packages.
//!
//! When a source only names a package, the collector searches the
//! ecosystem's mirror registries by `name@version` (paper §II-C). A
//! mirror serves the artifact iff it captured the package during its
//! persistence window and has not yet reconciled the deletion.

use crate::registry::RegistryMeta;
use crate::sources::Archive;
use oss_types::PackageId;
use registry_sim::{SimPackage, World};
use std::collections::HashMap;

/// A by-identity index over the world's packages, built once per
/// collection run so registry and mirror lookups are O(1). An identity
/// that repeats answers with its first entry, as `World::metadata` and
/// [`IndexedRegistry`](crate::IndexedRegistry) do.
#[derive(Debug)]
pub struct MirrorSearch<'w> {
    world: &'w World,
    by_id: HashMap<&'w PackageId, registry_sim::PkgIdx>,
}

impl<'w> MirrorSearch<'w> {
    /// Builds the search index.
    pub fn new(world: &'w World) -> Self {
        let mut by_id = HashMap::with_capacity(world.packages.len());
        for (i, p) in world.packages.iter().enumerate() {
            by_id.entry(&p.id).or_insert(registry_sim::PkgIdx(i as u32));
        }
        MirrorSearch { world, by_id }
    }

    /// The world's entry for the identity (the first, if it repeats).
    pub(crate) fn entry(&self, id: &PackageId) -> Option<&'w SimPackage> {
        self.by_id.get(id).map(|&idx| self.world.package(idx))
    }

    /// Whether some mirror of the entry's ecosystem still serves it at
    /// collection time.
    pub(crate) fn holds(&self, pkg: &SimPackage) -> bool {
        self.world.mirrors.any_holds(
            pkg.id.ecosystem(),
            pkg.released,
            pkg.removed,
            self.world.config.collect_time,
        )
    }

    /// Searches every mirror of the package's ecosystem at collection
    /// time; returns the archive if some mirror still serves it.
    pub fn lookup(&self, id: &PackageId) -> Option<Archive> {
        self.entry(id).filter(|p| self.holds(p)).map(archive)
    }

    /// Whether the identity exists in the world at all (a mention that
    /// resolves to nothing is a typo in a report).
    pub fn exists(&self, id: &PackageId) -> bool {
        self.by_id.contains_key(id)
    }
}

/// The artifact a mirror serves for an entry.
pub(crate) fn archive(pkg: &SimPackage) -> Archive {
    Archive {
        description: pkg.description.clone(),
        dependencies: pkg.dependencies.clone(),
        code: pkg.source_text.clone(),
    }
}

/// The registry's public metadata of an entry.
pub(crate) fn metadata(pkg: &SimPackage) -> RegistryMeta {
    RegistryMeta {
        released: pkg.released,
        removed: pkg.removed,
        downloads: pkg.downloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryView;
    use registry_sim::WorldConfig;

    #[test]
    fn recovery_matches_world_availability() {
        let world = World::generate(WorldConfig::small(5));
        let search = MirrorSearch::new(&world);
        let mut recovered = 0usize;
        let mut missed = 0usize;
        for pkg in &world.packages {
            let hit = search.lookup(&pkg.id);
            assert_eq!(
                hit.is_some(),
                pkg.mirror_available,
                "mirror search disagrees with availability for {}",
                pkg.id
            );
            if hit.is_some() {
                recovered += 1;
            } else {
                missed += 1;
            }
        }
        assert!(recovered > 0);
        assert!(missed > 0);
    }

    #[test]
    fn recovered_archive_matches_ground_truth() {
        let world = World::generate(WorldConfig::small(6));
        let search = MirrorSearch::new(&world);
        let pkg = world
            .packages
            .iter()
            .find(|p| p.mirror_available)
            .expect("some package is recoverable");
        let archive = search.lookup(&pkg.id).expect("available");
        assert_eq!(archive.code, pkg.source_text);
        assert_eq!(archive.description, pkg.description);
        assert_eq!(archive.dependencies, pkg.dependencies);
    }

    #[test]
    fn unknown_identity_returns_none() {
        let world = World::generate(WorldConfig::small(7));
        let search = MirrorSearch::new(&world);
        let ghost: PackageId = "npm/never-existed@9.9.9".parse().unwrap();
        assert!(!search.exists(&ghost));
        assert_eq!(search.lookup(&ghost), None);
    }

    #[test]
    fn a_repeated_identity_answers_with_its_first_entry() {
        let mut world = World::generate(WorldConfig::small(6));
        let first = world
            .packages
            .iter()
            .find(|p| p.mirror_available)
            .expect("some package is recoverable")
            .clone();
        let mut again = first.clone();
        again.description = "a later entry".to_string();
        again.source_text = "x = 2\n".to_string();
        again.downloads = first.downloads + 1;
        world.packages.push(again);

        let search = MirrorSearch::new(&world);
        assert_eq!(search.lookup(&first.id), Some(archive(&first)));
        let entry = search.entry(&first.id).expect("exists");
        assert_eq!(metadata(entry), metadata(&first));
        assert_eq!(Some(metadata(entry)), world.metadata(&first.id));
    }
}
