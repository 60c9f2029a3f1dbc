//! SimTime windowing for streaming collection (ISSUE 8).
//!
//! A [`WindowPlan`] slices the simulated timeline into consecutive
//! windows so the crawler can emit the corpus as a sequence of deltas
//! instead of one monolithic dataset. Two constructors cover the two
//! shapes continuous monitoring needs:
//!
//! * [`WindowPlan::equal_span`] — fixed wall-time cadence ("re-crawl
//!   weekly"). Source cadence quantises many disclosures onto the same
//!   late timestamps, so equal spans can be heavily skewed.
//! * [`WindowPlan::disclosure_quantiles`] — boundaries at quantiles of
//!   the per-package first-disclosure times, so each window carries
//!   roughly the same number of newly disclosed packages. This is what
//!   the ingest benchmark uses: its "final 10% window" genuinely holds
//!   ~10% of the corpus.
//!
//! The plan is only a set of boundaries; assignment of packages and
//! reports to windows is the crawler's job (`crawler::windows`).

use crate::world::World;
use oss_types::SimTime;
use std::collections::HashMap;

/// Consecutive, inclusive-upper-bound time windows covering the
/// collection timeline.
///
/// Window `i` covers `(bound(i-1), bound(i)]` (the first window starts
/// at the epoch); [`WindowPlan::window_of`] clamps anything after the
/// last bound into the final window, so every timestamp maps somewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowPlan {
    /// Strictly increasing inclusive upper bounds, one per window.
    bounds: Vec<SimTime>,
}

impl WindowPlan {
    /// `windows` equal spans from `start` (exclusive) to `end`
    /// (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero or `end <= start`.
    pub fn equal_span(start: SimTime, end: SimTime, windows: usize) -> WindowPlan {
        assert!(windows > 0, "a plan needs at least one window");
        let (lo, hi) = (start.as_minutes(), end.as_minutes());
        assert!(hi > lo, "window span must be non-empty");
        let mut bounds: Vec<SimTime> = (1..=windows as u64)
            .map(|i| SimTime::from_minutes(lo + (hi - lo) * i / windows as u64))
            .collect();
        bounds.dedup();
        WindowPlan { bounds }
    }

    /// Boundaries at quantiles of the per-package *first* disclosure
    /// times of `world`'s mentions, so each window receives roughly
    /// `1/windows` of the disclosed packages. The last bound is raised
    /// to `world.config.collect_time` so reports published up to the
    /// collection cutoff always land inside the plan.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero or the world has no mentions.
    pub fn disclosure_quantiles(world: &World, windows: usize) -> WindowPlan {
        assert!(windows > 0, "a plan needs at least one window");
        let mut first_seen: HashMap<usize, SimTime> = HashMap::new();
        for mention in &world.mentions {
            first_seen
                .entry(mention.package.index())
                .and_modify(|t| *t = (*t).min(mention.disclosed))
                .or_insert(mention.disclosed);
        }
        assert!(!first_seen.is_empty(), "world has no mentions to window");
        let mut times: Vec<SimTime> = first_seen.into_values().collect();
        times.sort_unstable();
        let n = times.len();
        let mut bounds: Vec<SimTime> = (1..=windows)
            .map(|i| times[(n * i).div_ceil(windows) - 1])
            .collect();
        let last = bounds.last_mut().expect("windows > 0");
        *last = (*last).max(world.config.collect_time);
        bounds.dedup();
        WindowPlan { bounds }
    }

    /// Number of windows. Constructors deduplicate coincident
    /// boundaries, so this can be less than the requested count.
    pub fn window_count(&self) -> usize {
        self.bounds.len()
    }

    /// The window containing `t`: the first window whose bound is
    /// `>= t`, clamped into the last window for late timestamps.
    pub fn window_of(&self, t: SimTime) -> usize {
        self.bounds
            .iter()
            .position(|&b| t <= b)
            .unwrap_or(self.bounds.len() - 1)
    }

    /// The inclusive upper bound of window `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bound(&self, i: usize) -> SimTime {
        self.bounds[i]
    }

    /// The exclusive lower bound of window `i` (the epoch for the
    /// first window).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn window_start(&self, i: usize) -> SimTime {
        assert!(i < self.bounds.len(), "window out of range");
        if i == 0 {
            SimTime::from_minutes(0)
        } else {
            self.bounds[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorldConfig;

    #[test]
    fn equal_span_bounds_are_even_and_cover_the_range() {
        let plan = WindowPlan::equal_span(SimTime::from_minutes(0), SimTime::from_minutes(100), 4);
        assert_eq!(plan.window_count(), 4);
        assert_eq!(
            (0..4)
                .map(|i| plan.bound(i).as_minutes())
                .collect::<Vec<_>>(),
            vec![25, 50, 75, 100]
        );
        assert_eq!(plan.window_of(SimTime::from_minutes(1)), 0);
        assert_eq!(plan.window_of(SimTime::from_minutes(25)), 0);
        assert_eq!(plan.window_of(SimTime::from_minutes(26)), 1);
        assert_eq!(plan.window_of(SimTime::from_minutes(100)), 3);
        // Late timestamps clamp into the final window.
        assert_eq!(plan.window_of(SimTime::from_minutes(1000)), 3);
        assert_eq!(plan.window_start(0).as_minutes(), 0);
        assert_eq!(plan.window_start(3).as_minutes(), 75);
    }

    #[test]
    fn quantile_bounds_balance_package_counts() {
        let world = World::generate(WorldConfig::small(42));
        let windows = 5;
        let plan = WindowPlan::disclosure_quantiles(&world, windows);
        assert!(plan.window_count() <= windows);
        // Recompute first disclosures and histogram them over the plan.
        let mut first_seen: HashMap<usize, SimTime> = HashMap::new();
        for m in &world.mentions {
            first_seen
                .entry(m.package.index())
                .and_modify(|t| *t = (*t).min(m.disclosed))
                .or_insert(m.disclosed);
        }
        let mut counts = vec![0usize; plan.window_count()];
        for t in first_seen.values() {
            counts[plan.window_of(*t)] += 1;
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, first_seen.len());
        // Quantile boundaries may shift whole duplicate-time groups into
        // the earlier window, but no window may be empty and the largest
        // imbalance stays bounded.
        let ideal = total / plan.window_count();
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "window {i} is empty: {counts:?}");
            assert!(c <= ideal * 3, "window {i} is overloaded: {counts:?}");
        }
        // Everything published by the cutoff lands inside the plan.
        assert!(plan.bound(plan.window_count() - 1) >= world.config.collect_time);
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn zero_windows_rejected() {
        WindowPlan::equal_span(SimTime::from_minutes(0), SimTime::from_minutes(1), 0);
    }
}
