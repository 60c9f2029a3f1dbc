//! Mirror registries and the root⇄mirror synchronization race.
//!
//! Mirrors copy the root registry on a fixed cadence. A malicious package
//! is recoverable from a mirror iff (paper Fig. 5):
//!
//! 1. some sync event fell inside its persistence window
//!    `[released, removed)` — otherwise the mirror never saw it; and
//! 2. the mirror has not yet reconciled the deletion — stale copies are
//!    kept for a retention period, after which the mirror catches up and
//!    the copy disappears ("release time too early").
//!
//! The paper searched 5 NPM + 12 PyPI + 6 RubyGems mirrors; the simulator
//! instantiates the same fleet with staggered phases and day-scale
//! intervals (2 days up to two weeks — full-catalog resyncs are slow).

use oss_types::{Ecosystem, SimDuration, SimTime};

/// One mirror registry.
#[derive(Debug, Clone)]
pub struct Mirror {
    /// Ecosystem mirrored.
    pub ecosystem: Ecosystem,
    /// Human-readable mirror name (e.g. `pypi-mirror-03`).
    pub name: String,
    /// Time between sync events.
    pub sync_interval: SimDuration,
    /// Phase offset of the first sync after the epoch.
    pub phase: SimDuration,
    /// How long a stale (deleted-upstream) copy survives before the
    /// mirror reconciles.
    pub retention: SimDuration,
}

impl Mirror {
    /// First sync instant at or after `t`.
    pub fn next_sync_at(&self, t: SimTime) -> SimTime {
        let interval = self.sync_interval.as_minutes().max(1);
        let phase = self.phase.as_minutes() % interval;
        let t_min = t.as_minutes();
        let k = t_min.saturating_sub(phase).div_ceil(interval);
        SimTime::from_minutes(phase + k * interval)
    }

    /// The sync event (if any) that captured a package with the given
    /// persistence window.
    pub fn capture_time(&self, released: SimTime, removed: Option<SimTime>) -> Option<SimTime> {
        let sync = self.next_sync_at(released);
        match removed {
            Some(removed) if sync >= removed => None,
            _ => Some(sync),
        }
    }

    /// Whether the mirror still serves the package at `query_time`.
    pub fn holds(&self, released: SimTime, removed: Option<SimTime>, query_time: SimTime) -> bool {
        match self.capture_time(released, removed) {
            None => false,
            Some(captured) => {
                if captured > query_time {
                    return false;
                }
                match removed {
                    // Never removed upstream: the mirror tracks it forever.
                    None => true,
                    // Removed upstream: the stale copy survives for the
                    // retention period after the *removal* (the mirror
                    // keeps re-syncing everything else, and reconciles
                    // deletions lazily).
                    Some(removed_at) => query_time < removed_at + self.retention,
                }
            }
        }
    }
}

/// The per-ecosystem mirror fleet.
#[derive(Debug, Clone)]
pub struct MirrorFleet {
    mirrors: Vec<Mirror>,
}

impl MirrorFleet {
    /// Builds the paper's fleet (5 NPM, 12 PyPI, 6 RubyGems) with
    /// deterministic staggered intervals and `retention_days` retention.
    pub fn paper_fleet(retention_days: u64) -> Self {
        let mut mirrors = Vec::new();
        for eco in Ecosystem::MAJOR {
            for i in 0..eco.mirror_count() {
                // Intervals from 2 up to ~14 days, staggered phases.
                // Full-catalog sync is expensive, so real mirrors resync
                // on day-scale cadences — which is what makes "persistence
                // too short" a leading cause of missing packages (Fig. 5):
                // a package the admins pull within hours usually vanishes
                // before any mirror's next sync.
                let hours = 48 + (i as u64 * 53) % 288;
                mirrors.push(Mirror {
                    ecosystem: eco,
                    name: format!("{}-mirror-{:02}", eco.slug(), i),
                    sync_interval: SimDuration::hours(hours),
                    phase: SimDuration::hours((i as u64 * 17) % hours.max(1)),
                    retention: SimDuration::days(retention_days),
                });
            }
        }
        MirrorFleet { mirrors }
    }

    /// All mirrors for an ecosystem.
    pub fn for_ecosystem(&self, eco: Ecosystem) -> impl Iterator<Item = &Mirror> {
        self.mirrors.iter().filter(move |m| m.ecosystem == eco)
    }

    /// Total number of mirrors.
    pub fn len(&self) -> usize {
        self.mirrors.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.mirrors.is_empty()
    }

    /// The shortest sync interval among an ecosystem's mirrors, if any.
    pub fn fastest_interval(&self, eco: Ecosystem) -> Option<SimDuration> {
        self.for_ecosystem(eco).map(|m| m.sync_interval).min()
    }

    /// Whether *any* mirror of the package's ecosystem still serves it at
    /// `query_time` — the collection pipeline's recovery check.
    pub fn any_holds(
        &self,
        eco: Ecosystem,
        released: SimTime,
        removed: Option<SimTime>,
        query_time: SimTime,
    ) -> bool {
        self.for_ecosystem(eco)
            .any(|m| m.holds(released, removed, query_time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mirror(interval_h: u64, phase_h: u64, retention_d: u64) -> Mirror {
        Mirror {
            ecosystem: Ecosystem::PyPI,
            name: "test".into(),
            sync_interval: SimDuration::hours(interval_h),
            phase: SimDuration::hours(phase_h),
            retention: SimDuration::days(retention_d),
        }
    }

    #[test]
    fn next_sync_is_aligned_and_not_before_t() {
        let m = mirror(24, 6, 365);
        let t = SimTime::from_ymd(2023, 5, 10);
        let s = m.next_sync_at(t);
        assert!(s >= t);
        assert_eq!(
            (s.as_minutes() - m.phase.as_minutes()) % m.sync_interval.as_minutes(),
            0
        );
        // A query exactly on a sync instant returns that instant.
        assert_eq!(m.next_sync_at(s), s);
    }

    #[test]
    fn short_persistence_is_never_captured() {
        let m = mirror(24, 0, 365);
        let released = SimTime::from_ymd(2023, 5, 10) + SimDuration::hours(1);
        let removed = released + SimDuration::hours(2); // gone before next midnight
        assert_eq!(m.capture_time(released, Some(removed)), None);
        assert!(!m.holds(released, Some(removed), SimTime::from_ymd(2023, 6, 1)));
    }

    #[test]
    fn long_persistence_is_captured_and_held() {
        let m = mirror(24, 0, 365);
        let released = SimTime::from_ymd(2023, 5, 10);
        let removed = released + SimDuration::days(3);
        assert!(m.capture_time(released, Some(removed)).is_some());
        assert!(m.holds(released, Some(removed), SimTime::from_ymd(2023, 8, 1)));
    }

    #[test]
    fn stale_copy_expires_after_retention() {
        let m = mirror(24, 0, 30);
        let released = SimTime::from_ymd(2022, 1, 1);
        let removed = released + SimDuration::days(5);
        // Captured, but the query arrives long after retention: gone.
        assert!(m.holds(released, Some(removed), removed + SimDuration::days(10)));
        assert!(!m.holds(released, Some(removed), removed + SimDuration::days(60)));
    }

    #[test]
    fn never_removed_package_is_always_held_after_capture() {
        let m = mirror(24, 0, 30);
        let released = SimTime::from_ymd(2020, 1, 1) + SimDuration::hours(1);
        assert!(m.holds(released, None, SimTime::from_ymd(2024, 1, 1)));
        // …but not before the first sync (next midnight).
        assert!(!m.holds(released, None, released + SimDuration::hours(2)));
    }

    #[test]
    fn paper_fleet_has_5_12_6() {
        let fleet = MirrorFleet::paper_fleet(540);
        assert_eq!(fleet.for_ecosystem(Ecosystem::Npm).count(), 5);
        assert_eq!(fleet.for_ecosystem(Ecosystem::PyPI).count(), 12);
        assert_eq!(fleet.for_ecosystem(Ecosystem::RubyGems).count(), 6);
        assert_eq!(fleet.len(), 23);
        assert!(!fleet.is_empty());
        assert_eq!(fleet.for_ecosystem(Ecosystem::Maven).count(), 0);
    }

    #[test]
    fn fleet_recovery_requires_some_capture() {
        let fleet = MirrorFleet::paper_fleet(540);
        let released = SimTime::from_ymd(2023, 7, 1);
        let removed = released + SimDuration::days(10);
        let query = SimTime::from_ymd(2024, 1, 15);
        assert!(fleet.any_holds(Ecosystem::PyPI, released, Some(removed), query));
        // Minor ecosystems have no mirrors at all.
        assert!(!fleet.any_holds(Ecosystem::Docker, released, Some(removed), query));
    }

    #[test]
    fn fastest_interval_exists_for_major_ecosystems() {
        let fleet = MirrorFleet::paper_fleet(540);
        // Day-scale cadence: the fastest mirror resyncs every 2 days, the
        // slowest within two weeks.
        let fastest = fleet.fastest_interval(Ecosystem::PyPI).unwrap();
        assert!(fastest >= SimDuration::days(1) && fastest <= SimDuration::days(3));
        assert_eq!(fleet.fastest_interval(Ecosystem::Rust), None);
    }
}
