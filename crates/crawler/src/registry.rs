//! Public registry metadata queries.
//!
//! Beyond the malicious-package feeds, the paper's analyses consult
//! *public* registry information: release dates, download counters
//! (pepy/npm-stat style) and per-name version histories — e.g. the
//! download-evolution study (Fig. 11) and the IDN ranking (Table VIII)
//! need the download numbers of every version of a trojaned package,
//! including the benign ones still live in the registry. [`RegistryView`]
//! models that query surface; the simulator's `World` implements it.

use crate::sources::Archive;
use oss_types::{Ecosystem, PackageId, PackageName, SimTime};
use registry_sim::World;

/// Public metadata of one package release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryMeta {
    /// Publication instant.
    pub released: SimTime,
    /// Removal instant, if the registry took it down.
    pub removed: Option<SimTime>,
    /// Cumulative download count.
    pub downloads: u64,
}

/// Read-only access to public registry data.
///
/// Implementations must only expose information a real registry API
/// would: metadata, download counters, version listings, and archives of
/// packages that are still live. They must *not* leak simulator ground
/// truth (campaign membership, actors, behaviours).
pub trait RegistryView {
    /// Metadata for a release, if the identity ever existed.
    fn metadata(&self, id: &PackageId) -> Option<RegistryMeta>;

    /// Every release of `name` in `eco` (live or removed), version order.
    fn version_history(&self, eco: Ecosystem, name: &PackageName)
        -> Vec<(PackageId, RegistryMeta)>;

    /// The archive of a release that is still live in the root registry.
    fn live_archive(&self, id: &PackageId) -> Option<Archive>;
}

/// An O(1)-lookup [`RegistryView`] over a [`World`] snapshot.
///
/// `World`'s own trait implementation answers every query with a linear
/// scan over all packages — fine for one-off lookups, quadratic when the
/// evolution analyses (Fig. 11, Table VIII) query the history of every
/// collected name. This wrapper builds the three lookup tables once and
/// answers the same queries with identical results:
///
/// * version histories keyed by `(ecosystem, name)`, each sorted by
///   version with ties kept in registry order (the order the scan-based
///   implementation produces);
/// * first registry entry per identity, for [`RegistryView::metadata`]
///   (`iter().find()` semantics are first-wins on duplicate ids);
/// * first *live* entry per identity, for [`RegistryView::live_archive`].
#[derive(Debug)]
pub struct IndexedRegistry<'a> {
    world: &'a World,
    history: std::collections::HashMap<(Ecosystem, &'a str), Vec<u32>>,
    by_id: std::collections::HashMap<&'a PackageId, u32>,
    live_by_id: std::collections::HashMap<&'a PackageId, u32>,
}

impl<'a> IndexedRegistry<'a> {
    /// Builds the lookup tables in one pass over the world's packages
    /// (plus one sort per distinct name).
    pub fn new(world: &'a World) -> IndexedRegistry<'a> {
        let mut history: std::collections::HashMap<(Ecosystem, &'a str), Vec<u32>> =
            std::collections::HashMap::new();
        let mut by_id = std::collections::HashMap::new();
        let mut live_by_id = std::collections::HashMap::new();
        for (i, p) in world.packages.iter().enumerate() {
            let i = i as u32;
            history
                .entry((p.id.ecosystem(), p.id.name().as_str()))
                .or_default()
                .push(i);
            by_id.entry(&p.id).or_insert(i);
            if p.removed.is_none() {
                live_by_id.entry(&p.id).or_insert(i);
            }
        }
        for indices in history.values_mut() {
            // Stable sort: equal versions keep registry order, exactly
            // like the scan-and-sort in `World::version_history`.
            indices.sort_by(|a, b| {
                world.packages[*a as usize]
                    .id
                    .version()
                    .cmp(world.packages[*b as usize].id.version())
            });
        }
        IndexedRegistry {
            world,
            history,
            by_id,
            live_by_id,
        }
    }

    fn meta_of(&self, idx: u32) -> RegistryMeta {
        let p = &self.world.packages[idx as usize];
        RegistryMeta {
            released: p.released,
            removed: p.removed,
            downloads: p.downloads,
        }
    }
}

impl RegistryView for IndexedRegistry<'_> {
    fn metadata(&self, id: &PackageId) -> Option<RegistryMeta> {
        self.by_id.get(id).map(|&i| self.meta_of(i))
    }

    fn version_history(
        &self,
        eco: Ecosystem,
        name: &PackageName,
    ) -> Vec<(PackageId, RegistryMeta)> {
        self.history
            .get(&(eco, name.as_str()))
            .map(|indices| {
                indices
                    .iter()
                    .map(|&i| (self.world.packages[i as usize].id.clone(), self.meta_of(i)))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn live_archive(&self, id: &PackageId) -> Option<Archive> {
        self.live_by_id.get(id).map(|&i| {
            let p = &self.world.packages[i as usize];
            Archive {
                description: p.description.clone(),
                dependencies: p.dependencies.clone(),
                code: p.source_text.clone(),
            }
        })
    }
}

/// Scans every package for each query. Kept as the tests' reference:
/// [`IndexedRegistry`] and the collector's `MirrorSearch` must answer as
/// this does.
impl RegistryView for World {
    fn metadata(&self, id: &PackageId) -> Option<RegistryMeta> {
        self.packages
            .iter()
            .find(|p| &p.id == id)
            .map(|p| RegistryMeta {
                released: p.released,
                removed: p.removed,
                downloads: p.downloads,
            })
    }

    fn version_history(
        &self,
        eco: Ecosystem,
        name: &PackageName,
    ) -> Vec<(PackageId, RegistryMeta)> {
        World::version_history(self, eco, name)
            .into_iter()
            .map(|idx| {
                let p = self.package(idx);
                (
                    p.id.clone(),
                    RegistryMeta {
                        released: p.released,
                        removed: p.removed,
                        downloads: p.downloads,
                    },
                )
            })
            .collect()
    }

    fn live_archive(&self, id: &PackageId) -> Option<Archive> {
        self.packages
            .iter()
            .find(|p| &p.id == id && p.removed.is_none())
            .map(|p| Archive {
                description: p.description.clone(),
                dependencies: p.dependencies.clone(),
                code: p.source_text.clone(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry_sim::WorldConfig;

    #[test]
    fn metadata_matches_world() {
        let world = World::generate(WorldConfig::small(21));
        let pkg = &world.packages[0];
        let meta = world.metadata(&pkg.id).expect("exists");
        assert_eq!(meta.released, pkg.released);
        assert_eq!(meta.downloads, pkg.downloads);
        assert_eq!(world.metadata(&"npm/ghost@0.0.1".parse().unwrap()), None);
    }

    #[test]
    fn live_archive_only_for_unremoved_packages() {
        let world = World::generate(WorldConfig::small(22));
        let live = world
            .packages
            .iter()
            .find(|p| p.removed.is_none())
            .expect("trojan benign versions are live");
        assert!(world.live_archive(&live.id).is_some());
        let removed = world
            .packages
            .iter()
            .find(|p| p.removed.is_some())
            .expect("removed packages exist");
        assert_eq!(world.live_archive(&removed.id), None);
    }

    #[test]
    fn indexed_registry_matches_scan_implementation() {
        let world = World::generate(WorldConfig::small(24));
        let indexed = IndexedRegistry::new(&world);
        let mut names_seen = std::collections::HashSet::new();
        for p in &world.packages {
            assert_eq!(indexed.metadata(&p.id), world.metadata(&p.id), "{}", p.id);
            assert_eq!(
                indexed.live_archive(&p.id),
                world.live_archive(&p.id),
                "{}",
                p.id
            );
            if names_seen.insert((p.id.ecosystem(), p.id.name().clone())) {
                assert_eq!(
                    RegistryView::version_history(&indexed, p.id.ecosystem(), p.id.name()),
                    RegistryView::version_history(&world, p.id.ecosystem(), p.id.name()),
                    "history of {}",
                    p.id
                );
            }
        }
        let ghost: PackageId = "npm/ghost@9.9.9".parse().unwrap();
        assert_eq!(indexed.metadata(&ghost), None);
        assert_eq!(indexed.live_archive(&ghost), None);
        assert!(RegistryView::version_history(&indexed, Ecosystem::Npm, ghost.name()).is_empty());
    }

    #[test]
    fn version_history_is_ordered_and_complete() {
        let world = World::generate(WorldConfig::small(23));
        let trojan = world
            .campaigns
            .iter()
            .find(|c| c.kind == registry_sim::CampaignKind::Trojan)
            .expect("trojans exist");
        let name = world.package(trojan.packages[0]).id.name().clone();
        let history = RegistryView::version_history(&world, trojan.ecosystem, &name);
        assert!(history.len() >= 3);
        for pair in history.windows(2) {
            assert!(pair[0].0.version() < pair[1].0.version());
        }
    }
}
