//! Deterministic crash-fault injection: named crash points and the plan
//! that decides which one aborts the run.
//!
//! Where [`FaultConfig`](crate::FaultConfig) models the *transport*
//! failing (a fetch that can be retried in place), a [`CrashPlan`]
//! models the *process* dying: the pipeline registers a named crash
//! point at every stage boundary, and an armed plan turns exactly one
//! occurrence of one point into a [`CrashSignal`]. The signal propagates
//! up like a real `SIGKILL` — no destructors run cleanup, no partial
//! state is repaired — so whatever the checkpoint layer had made
//! durable is exactly what recovery finds.
//!
//! Plans are deterministic three ways:
//!
//! * [`CrashPlan::at`] — a specific point and 1-based occurrence;
//! * [`CrashPlan::parse`] — the CLI's `--crash-at POINT[:N]` syntax;
//! * [`CrashPlan::seeded`] — a seeded draw over a registry of points,
//!   so a crash *matrix* can be generated from a single seed the same
//!   way `registry_sim::FaultPlan` derives fetch faults.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use crate::error::ParseError;

/// The simulated abort raised when an armed crash point fires.
///
/// Callers propagate it upward without any cleanup and either abandon
/// the in-memory run (tests) or exit the process (CLI).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSignal {
    /// The crash point that fired, e.g. `"build/similar"`.
    pub point: String,
    /// Which occurrence of the point fired (1-based).
    pub occurrence: u32,
}

impl fmt::Display for CrashSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulated crash at {} (occurrence {})",
            self.point, self.occurrence
        )
    }
}

impl std::error::Error for CrashSignal {}

/// Decides whether a named crash point aborts the run.
///
/// At most one `(point, occurrence)` pair is armed; every other
/// [`fire`](CrashPlan::fire) call just counts. Occurrence counting uses
/// interior mutability so the plan can be threaded through `&self`
/// pipelines; counts are per-plan, so reusing one plan across two runs
/// would double-count — build a fresh plan per run.
#[derive(Debug)]
pub struct CrashPlan {
    armed: Option<(String, u32)>,
    seen: Mutex<HashMap<String, u32>>,
}

impl CrashPlan {
    /// A plan that never crashes; `fire` still counts occurrences.
    pub fn none() -> CrashPlan {
        CrashPlan {
            armed: None,
            seen: Mutex::new(HashMap::new()),
        }
    }

    /// Arms `point` to crash on its `occurrence`-th firing (1-based;
    /// 0 is treated as 1).
    pub fn at(point: &str, occurrence: u32) -> CrashPlan {
        CrashPlan {
            armed: Some((point.to_string(), occurrence.max(1))),
            seen: Mutex::new(HashMap::new()),
        }
    }

    /// Parses the CLI syntax `POINT` or `POINT:N` (N ≥ 1).
    ///
    /// # Errors
    ///
    /// Rejects an empty point name and a missing or unparsable `N`.
    pub fn parse(spec: &str) -> Result<CrashPlan, ParseError> {
        let (point, occurrence) = match spec.rsplit_once(':') {
            Some((point, n)) => {
                let n: u32 = n.parse().map_err(|_| {
                    ParseError::new("crash point", spec, "occurrence is not a number")
                })?;
                if n == 0 {
                    return Err(ParseError::new(
                        "crash point",
                        spec,
                        "occurrence must be >= 1",
                    ));
                }
                (point, n)
            }
            None => (spec, 1),
        };
        if point.is_empty() {
            return Err(ParseError::new("crash point", spec, "empty point name"));
        }
        Ok(CrashPlan::at(point, occurrence))
    }

    /// Arms a deterministic draw over `points`: the same seed always
    /// picks the same point and the same occurrence in `1..=3`. This is
    /// the crash-matrix analogue of `registry_sim::FaultPlan` — one seed
    /// reproduces one simulated process death.
    pub fn seeded(seed: u64, points: &[&str]) -> CrashPlan {
        if points.is_empty() {
            return CrashPlan::none();
        }
        let pick = splitmix64(seed);
        let point = points[(pick % points.len() as u64) as usize];
        let occurrence = (splitmix64(pick) % 3 + 1) as u32;
        CrashPlan::at(point, occurrence)
    }

    /// The armed `(point, occurrence)` pair, if any.
    pub fn armed(&self) -> Option<(&str, u32)> {
        self.armed.as_ref().map(|(p, n)| (p.as_str(), *n))
    }

    /// Whether any point is armed.
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }

    /// Registers one occurrence of `point`; returns `Err` if and only
    /// if this occurrence is the armed one.
    ///
    /// # Errors
    ///
    /// A [`CrashSignal`] naming the point and occurrence that fired.
    pub fn fire(&self, point: &str) -> Result<(), CrashSignal> {
        let occurrence = {
            let mut seen = self.seen.lock().expect("crash plan lock poisoned");
            let count = seen.entry(point.to_string()).or_insert(0);
            *count += 1;
            *count
        };
        if let Some((armed_point, armed_occurrence)) = &self.armed {
            if armed_point == point && *armed_occurrence == occurrence {
                return Err(CrashSignal {
                    point: point.to_string(),
                    occurrence,
                });
            }
        }
        Ok(())
    }

    /// How many times `point` has fired through this plan so far.
    pub fn hits(&self, point: &str) -> u32 {
        self.seen
            .lock()
            .expect("crash plan lock poisoned")
            .get(point)
            .copied()
            .unwrap_or(0)
    }
}

impl Default for CrashPlan {
    fn default() -> Self {
        CrashPlan::none()
    }
}

/// SplitMix64 step — the same mixer `registry_sim::fault` uses, kept
/// local so oss-types stays dependency-free.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
impl CrashPlan {
    /// Test helper: fire a point twice, returning the second result.
    fn fire_twice(&self, point: &str) -> Result<(), CrashSignal> {
        self.fire(point)?;
        self.fire(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plan_never_fires() {
        let plan = CrashPlan::none();
        for _ in 0..10 {
            assert!(plan.fire("build/similar").is_ok());
        }
        assert_eq!(plan.hits("build/similar"), 10);
        assert!(!plan.is_armed());
    }

    #[test]
    fn armed_plan_fires_exactly_once_at_its_occurrence() {
        let plan = CrashPlan::at("ingest/apply", 3);
        assert!(plan.fire("ingest/apply").is_ok());
        assert!(
            plan.fire("build/nodes").is_ok(),
            "other points pass through"
        );
        assert!(plan.fire("ingest/apply").is_ok());
        let signal = plan.fire("ingest/apply").unwrap_err();
        assert_eq!(signal.point, "ingest/apply");
        assert_eq!(signal.occurrence, 3);
        // Later occurrences pass again — the plan fires at most once.
        assert!(plan.fire("ingest/apply").is_ok());
    }

    #[test]
    fn parse_accepts_point_and_point_n() {
        assert_eq!(
            CrashPlan::parse("build/similar").unwrap().armed(),
            Some(("build/similar", 1))
        );
        assert_eq!(
            CrashPlan::parse("ingest/apply:4").unwrap().armed(),
            Some(("ingest/apply", 4))
        );
        assert!(CrashPlan::parse("").is_err());
        assert!(CrashPlan::parse(":2").is_err());
        assert!(CrashPlan::parse("p:0").is_err());
        assert!(CrashPlan::parse("p:x").is_err());
    }

    #[test]
    fn seeded_draw_is_deterministic_and_in_range() {
        let points = ["a", "b", "c"];
        let first = CrashPlan::seeded(42, &points);
        let second = CrashPlan::seeded(42, &points);
        assert_eq!(first.armed(), second.armed());
        let (point, occurrence) = first.armed().unwrap();
        assert!(points.contains(&point));
        assert!((1..=3).contains(&occurrence));
        assert!(!CrashPlan::seeded(42, &[]).is_armed());
        // Different seeds cover different points eventually.
        let drawn: std::collections::HashSet<_> = (0..64)
            .map(|s| CrashPlan::seeded(s, &points).armed().unwrap().0.to_string())
            .collect();
        assert_eq!(drawn.len(), points.len());
    }

    #[test]
    fn signal_display_names_point_and_occurrence() {
        let signal = CrashPlan::at("checkpoint/write", 2)
            .fire_twice("checkpoint/write")
            .unwrap_err();
        assert!(signal.to_string().contains("checkpoint/write"));
        assert!(signal.to_string().contains("occurrence 2"));
    }
}
