//! Detector evaluation against simulator ground truth.
//!
//! The paper's second finding — "today's defense tools work well because
//! malicious packages use old and known attack behaviors" — is a claim
//! about detector recall on the in-the-wild corpus. The simulator knows
//! which packages are malicious and which behaviour family each carries,
//! so this harness measures exactly that: per-family recall and overall
//! precision/recall for the static and dynamic detectors.

use crate::cache::SandboxCache;
use crate::dynamic::{expected_label, DynamicDetector};
use crate::static_detector::StaticDetector;
use minilang::gen::Behavior;
use registry_sim::World;
use std::collections::HashMap;
use std::fmt;

/// Precision/recall summary of one detector.
#[derive(Debug, Clone, PartialEq)]
pub struct PrScores {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// True negatives.
    pub tn: usize,
}

impl PrScores {
    /// Precision in `[0, 1]`; 1.0 when nothing was flagged.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall in `[0, 1]`; 1.0 when nothing was malicious.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Full evaluation report.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// Static-scanner scores.
    pub static_scores: PrScores,
    /// Sandbox scores.
    pub dynamic_scores: PrScores,
    /// Static recall per ground-truth behaviour family.
    pub static_recall_by_behavior: HashMap<Behavior, (usize, usize)>,
    /// Dynamic *labelling accuracy* per family: how often the sandbox
    /// inferred the correct behaviour label.
    pub dynamic_label_accuracy: HashMap<Behavior, (usize, usize)>,
    /// Packages whose code could not be analysed (no archive).
    pub skipped_unavailable: usize,
}

impl fmt::Display for DetectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "static  : precision {:.3} recall {:.3} f1 {:.3}",
            self.static_scores.precision(),
            self.static_scores.recall(),
            self.static_scores.f1()
        )?;
        writeln!(
            f,
            "dynamic : precision {:.3} recall {:.3} f1 {:.3}",
            self.dynamic_scores.precision(),
            self.dynamic_scores.recall(),
            self.dynamic_scores.f1()
        )?;
        let mut behaviors: Vec<_> = self.static_recall_by_behavior.iter().collect();
        behaviors.sort_by_key(|(b, _)| b.label());
        for (behavior, (hit, total)) in behaviors {
            let (lhit, ltotal) = self
                .dynamic_label_accuracy
                .get(behavior)
                .copied()
                .unwrap_or((0, 0));
            writeln!(
                f,
                "{:<18} static {:>3}/{:<3} · sandbox label {:>3}/{:<3}",
                behavior.label(),
                hit,
                total,
                lhit,
                ltotal
            )?;
        }
        write!(f, "unavailable (skipped): {}", self.skipped_unavailable)
    }
}

/// Evaluates both detectors over every package in the world that carries
/// code: malicious releases are positives; trojan pre-payload versions
/// and dependency-attack fronts are the (hard) negatives.
pub fn evaluate_world(world: &World) -> DetectionReport {
    let static_detector = StaticDetector::default();
    let dynamic_detector = DynamicDetector::default();

    let mut static_scores = PrScores {
        tp: 0,
        fp: 0,
        fn_: 0,
        tn: 0,
    };
    let mut dynamic_scores = static_scores.clone();
    let mut static_recall: HashMap<Behavior, (usize, usize)> = HashMap::new();
    let mut label_accuracy: HashMap<Behavior, (usize, usize)> = HashMap::new();
    let mut skipped = 0usize;

    for pkg in &world.packages {
        let Ok(module) = minilang::parse(&pkg.source_text) else {
            skipped += 1;
            continue;
        };
        let truth_malicious = pkg.behavior.is_some();

        let sv = static_detector.scan(&module, Some(pkg.id.name()));
        match (truth_malicious, sv.malicious) {
            (true, true) => static_scores.tp += 1,
            (true, false) => static_scores.fn_ += 1,
            (false, true) => static_scores.fp += 1,
            (false, false) => static_scores.tn += 1,
        }
        let dv = dynamic_detector.analyze(&module);
        match (truth_malicious, dv.malicious()) {
            (true, true) => dynamic_scores.tp += 1,
            (true, false) => dynamic_scores.fn_ += 1,
            (false, true) => dynamic_scores.fp += 1,
            (false, false) => dynamic_scores.tn += 1,
        }

        if let Some(behavior) = pkg.behavior {
            let entry = static_recall.entry(behavior).or_default();
            entry.1 += 1;
            if sv.malicious {
                entry.0 += 1;
            }
            let lentry = label_accuracy.entry(behavior).or_default();
            lentry.1 += 1;
            if dv.labels.contains(&expected_label(behavior)) {
                lentry.0 += 1;
            }
        }
    }

    DetectionReport {
        static_scores,
        dynamic_scores,
        static_recall_by_behavior: static_recall,
        dynamic_label_accuracy: label_accuracy,
        skipped_unavailable: skipped,
    }
}

/// [`evaluate_world`] through a [`SandboxCache`]: parses, lowers,
/// sandboxes and gathers module-only rule hits for each *distinct* source
/// text once.
/// Per package, only the name-dependent typosquat rule and the threshold
/// decision re-run ([`rules::matched_rules`] guarantees the name rule
/// sorts last, so the recomposed rule list is identical to a fresh
/// scan's). Produces a report equal to [`evaluate_world`]'s and shares
/// the cache with any caller that also sandboxes the collected archives.
pub fn evaluate_world_cached(world: &World, cache: &mut SandboxCache) -> DetectionReport {
    let static_detector = StaticDetector::default();

    let mut static_scores = PrScores {
        tp: 0,
        fp: 0,
        fn_: 0,
        tn: 0,
    };
    let mut dynamic_scores = static_scores.clone();
    let mut static_recall: HashMap<Behavior, (usize, usize)> = HashMap::new();
    let mut label_accuracy: HashMap<Behavior, (usize, usize)> = HashMap::new();
    let mut skipped = 0usize;

    for pkg in &world.packages {
        let run = cache.run(&pkg.source_text);
        if !run.parsed {
            skipped += 1;
            continue;
        }
        let truth_malicious = pkg.behavior.is_some();

        let mut hits = run.module_hits.clone();
        if crate::rules::name_is_squat(pkg.id.name()) {
            hits.push(crate::rules::RuleId::TyposquatName);
        }
        let sv = static_detector.decide(hits);
        match (truth_malicious, sv.malicious) {
            (true, true) => static_scores.tp += 1,
            (true, false) => static_scores.fn_ += 1,
            (false, true) => static_scores.fp += 1,
            (false, false) => static_scores.tn += 1,
        }
        let dv = &run.verdict;
        match (truth_malicious, dv.malicious()) {
            (true, true) => dynamic_scores.tp += 1,
            (true, false) => dynamic_scores.fn_ += 1,
            (false, true) => dynamic_scores.fp += 1,
            (false, false) => dynamic_scores.tn += 1,
        }

        if let Some(behavior) = pkg.behavior {
            let entry = static_recall.entry(behavior).or_default();
            entry.1 += 1;
            if sv.malicious {
                entry.0 += 1;
            }
            let lentry = label_accuracy.entry(behavior).or_default();
            lentry.1 += 1;
            if dv.labels.contains(&expected_label(behavior)) {
                lentry.0 += 1;
            }
        }
    }

    DetectionReport {
        static_scores,
        dynamic_scores,
        static_recall_by_behavior: static_recall,
        dynamic_label_accuracy: label_accuracy,
        skipped_unavailable: skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry_sim::WorldConfig;

    #[test]
    fn detectors_validate_the_papers_second_finding() {
        let world = World::generate(WorldConfig::small(77));
        let report = evaluate_world(&world);
        // "Today's defense tools work well": recall must be high on the
        // known behaviour families…
        assert!(
            report.static_scores.recall() > 0.9,
            "static recall {:.3}",
            report.static_scores.recall()
        );
        assert!(
            report.dynamic_scores.recall() > 0.9,
            "dynamic recall {:.3}",
            report.dynamic_scores.recall()
        );
        // …without flooding analysts with false positives.
        assert!(
            report.static_scores.precision() > 0.9,
            "static precision {:.3}",
            report.static_scores.precision()
        );
        assert!(
            report.dynamic_scores.precision() > 0.95,
            "dynamic precision {:.3}",
            report.dynamic_scores.precision()
        );
    }

    #[test]
    fn every_behavior_family_is_covered() {
        let world = World::generate(WorldConfig::small(78));
        let report = evaluate_world(&world);
        for behavior in Behavior::ALL {
            if let Some(&(hit, total)) = report.static_recall_by_behavior.get(&behavior) {
                assert!(
                    hit * 10 >= total * 7,
                    "{behavior}: static recall {hit}/{total}"
                );
            }
        }
    }

    #[test]
    fn negatives_exist_in_the_evaluation() {
        // Trojan pre-payload versions and dependency fronts provide real
        // negatives — an evaluation without them would be vacuous.
        let world = World::generate(WorldConfig::small(79));
        let report = evaluate_world(&world);
        let negatives = report.static_scores.tn + report.static_scores.fp;
        assert!(negatives > 5, "only {negatives} benign packages evaluated");
    }

    #[test]
    fn cached_evaluation_matches_reference() {
        let world = World::generate(WorldConfig::small(77));
        let reference = evaluate_world(&world);
        let mut cache = SandboxCache::default();
        let cached = evaluate_world_cached(&world, &mut cache);
        assert_eq!(cached, reference);
        assert!(
            cache.len() <= world.packages.len(),
            "cache holds at most one entry per distinct source"
        );
        // Running again over a warm cache is still identical.
        assert_eq!(evaluate_world_cached(&world, &mut cache), reference);
    }

    #[test]
    fn pr_scores_math() {
        let s = PrScores {
            tp: 8,
            fp: 2,
            fn_: 2,
            tn: 88,
        };
        assert!((s.precision() - 0.8).abs() < 1e-9);
        assert!((s.recall() - 0.8).abs() < 1e-9);
        assert!((s.f1() - 0.8).abs() < 1e-9);
        let empty = PrScores {
            tp: 0,
            fp: 0,
            fn_: 0,
            tn: 1,
        };
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
    }
}
