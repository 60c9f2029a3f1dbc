//! Deterministic fault-plan seeding for the unreliable transport.
//!
//! A fault plan is a *pure function* `(plan seed, channel, document,
//! attempt) → u64`: every simulated fetch draws its fate from a counter
//! stream keyed by what is being fetched, never from shared RNG state.
//! That keying is what makes the resilient collector reproducible — the
//! same `(world seed, fault config)` injects the same faults whether the
//! per-source crawls run on one thread or sixteen, and regardless of the
//! order sources are processed in.
//!
//! The mixing function is SplitMix64, the same finalizer `StdRng`
//! seeding uses; it passes avalanche tests and is cheap enough that the
//! zero-fault fast path stays fast.

use crate::config::WorldConfig;
use oss_types::CrashPlan;

/// Seed material for one collection run's fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
}

/// Domain-separation constant so a fault plan never correlates with the
/// world generator's RNG stream for the same seed.
const FAULT_DOMAIN: u64 = 0x9e37_79b9_7f4a_7c15 ^ 0x4641_554c_5421; // "FAULT!"

impl FaultPlan {
    /// A plan from an explicit seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed: splitmix64(seed ^ FAULT_DOMAIN),
        }
    }

    /// The canonical plan of a world: derived from the world seed, so
    /// `collect_with` needs no extra configuration to be reproducible.
    pub fn for_world(config: &WorldConfig) -> FaultPlan {
        FaultPlan::new(config.seed)
    }

    /// The raw seed after domain separation (for diagnostics).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Deterministic 64-bit roll for attempt `attempt` of fetching
    /// `document` on `channel`.
    pub fn roll(&self, channel: u64, document: u64, attempt: u32) -> u64 {
        let mut x = self.seed;
        x = splitmix64(x ^ channel.wrapping_mul(0xff51_afd7_ed55_8ccd));
        x = splitmix64(x ^ document.wrapping_mul(0xc4ce_b9fe_1a85_ec53));
        splitmix64(x ^ u64::from(attempt))
    }

    /// [`FaultPlan::roll`] mapped into the unit interval `[0, 1)`.
    pub fn unit(&self, channel: u64, document: u64, attempt: u32) -> f64 {
        // 53 mantissa bits, the standard u64 → f64 uniform construction.
        (self.roll(channel, document, attempt) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Derives a deterministic [`CrashPlan`] over `points` from this
    /// fault plan: the crash-matrix analogue of [`FaultPlan::roll`].
    /// `case` separates independent crash draws of the same world (one
    /// per matrix cell), the same way `document` separates fetches.
    pub fn crash_plan(&self, case: u64, points: &[&str]) -> CrashPlan {
        CrashPlan::seeded(self.roll(channel_id("crash"), case, 0), points)
    }
}

/// Stable channel identifier from a label (FNV-1a). Channels separate
/// the fault streams of the ten source feeds, the mirror lookups and the
/// report-corpus crawl.
pub fn channel_id(label: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in label.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64 finalizer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_keyed() {
        let plan = FaultPlan::new(7);
        assert_eq!(plan.roll(1, 2, 3), FaultPlan::new(7).roll(1, 2, 3));
        assert_ne!(plan.roll(1, 2, 3), plan.roll(1, 2, 4), "attempt matters");
        assert_ne!(plan.roll(1, 2, 3), plan.roll(1, 3, 3), "document matters");
        assert_ne!(plan.roll(1, 2, 3), plan.roll(2, 2, 3), "channel matters");
        assert_ne!(
            plan.roll(1, 2, 3),
            FaultPlan::new(8).roll(1, 2, 3),
            "seed matters"
        );
    }

    #[test]
    fn unit_is_in_range_and_roughly_uniform() {
        let plan = FaultPlan::new(99);
        let mut sum = 0.0;
        const N: u64 = 4_000;
        for doc in 0..N {
            let u = plan.unit(0, doc, 0);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean} far from 0.5");
    }

    #[test]
    fn world_plan_follows_the_world_seed() {
        let a = WorldConfig::small(1);
        let b = WorldConfig::small(2);
        assert_eq!(FaultPlan::for_world(&a), FaultPlan::for_world(&a.clone()));
        assert_ne!(FaultPlan::for_world(&a), FaultPlan::for_world(&b));
    }

    #[test]
    fn crash_plans_are_deterministic_per_case() {
        let plan = FaultPlan::new(11);
        let points = ["build/nodes", "ingest/apply", "checkpoint/write"];
        assert_eq!(
            plan.crash_plan(0, &points).armed(),
            FaultPlan::new(11).crash_plan(0, &points).armed()
        );
        // Different cases eventually arm different points.
        let drawn: std::collections::HashSet<String> = (0..64)
            .map(|case| {
                plan.crash_plan(case, &points)
                    .armed()
                    .unwrap()
                    .0
                    .to_string()
            })
            .collect();
        assert_eq!(drawn.len(), points.len());
    }

    #[test]
    fn channel_ids_are_stable_and_distinct() {
        assert_eq!(channel_id("mirror"), channel_id("mirror"));
        let ids: std::collections::HashSet<u64> = ["mirror", "report-corpus", "feed/maloss"]
            .iter()
            .map(|l| channel_id(l))
            .collect();
        assert_eq!(ids.len(), 3);
    }
}
