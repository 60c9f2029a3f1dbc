//! Perf baselines and the regression sentinel behind
//! `malgraph perf diff`.
//!
//! A [`PerfProfile`] is a flat, name-sorted list of numeric metrics
//! loaded from either kind of perf artifact this repo produces:
//!
//! * an **obs snapshot** (`malgraph-obs/1` or `/2` JSON from
//!   `--metrics-out`): spans become `span/<path>/total_us` (+
//!   `/self_us` and `/alloc_bytes` under schema `/2`) and counters
//!   become `counter/<name>`;
//! * a **bench report** (`BENCH_*.json`): the object tree is flattened
//!   to dotted paths and leaves are classified by field-name suffix —
//!   `*_us` / `*_ms` / `*_s` are wall times (normalized to µs), other
//!   numbers are informational.
//!
//! [`diff`] compares two profiles entry-by-entry under noise
//! [`Thresholds`]: a time or count has **regressed** only when it grew
//! by *more than* the relative threshold **and** by more than the
//! absolute floor — the floor keeps µs-scale spans (including
//! zero-duration ones) from tripping the gate on scheduler jitter, and
//! the strict `>` means an exactly-at-threshold delta still passes.
//! Entries missing from the baseline are reported as *added*, never as
//! regressions, so extending a bench does not break CI. Informational
//! entries never regress.

use jsonio::Value;
use std::fmt::Write as _;

/// What a metric measures, which decides whether growth can regress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricKind {
    /// A wall time; `us_per_unit` converts the raw value to microseconds
    /// (1.0 for `_us` fields, 1000.0 for `_ms`, 1e6 for `_s`).
    Time {
        /// Microseconds per raw unit.
        us_per_unit: f64,
    },
    /// A monotone work/volume counter (obs counters, span alloc bytes).
    Count,
    /// Configuration or derived values (speedups, sizes, gauge readings):
    /// compared for display but never a regression.
    Info,
}

impl MetricKind {
    /// Multiplier taking the raw value into the unit the absolute floor
    /// for this kind is expressed in (µs for times, raw for counts).
    fn floor_scale(self) -> f64 {
        match self {
            MetricKind::Time { us_per_unit } => us_per_unit,
            _ => 1.0,
        }
    }
}

/// One named measurement inside a [`PerfProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Raw value as it appeared in the file.
    pub value: f64,
    /// Classification controlling regression semantics.
    pub kind: MetricKind,
}

/// A flat, name-sorted perf artifact ready for diffing.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfProfile {
    /// Where the profile came from (file path or caller-supplied label).
    pub label: String,
    /// `(metric name, metric)`, sorted by name, names unique.
    pub entries: Vec<(String, Metric)>,
}

/// Noise tolerances for [`diff`]. A delta must clear **both** the
/// relative threshold and the kind's absolute floor to count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Relative growth allowed before a regression, e.g. `0.10` = +10%.
    pub rel: f64,
    /// Absolute floor for [`MetricKind::Time`] deltas, in microseconds.
    pub floor_us: f64,
    /// Absolute floor for [`MetricKind::Count`] deltas, in raw units.
    pub floor_count: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            rel: 0.10,
            floor_us: 500.0,
            floor_count: 512.0,
        }
    }
}

/// Outcome for one metric in a [`DiffReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within thresholds (or informational).
    Ok,
    /// Shrank past both thresholds — reported, never fails the gate.
    Improved,
    /// Grew past both thresholds.
    Regressed,
    /// Present only in the new profile — never a failure.
    Added,
    /// Present only in the baseline.
    Removed,
}

impl Verdict {
    /// Lowercase tag used in rendered reports.
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Metric name (shared namespace across both profiles).
    pub name: String,
    /// Classification (taken from whichever side has the entry; the new
    /// side wins when both do).
    pub kind: MetricKind,
    /// Baseline raw value, if present.
    pub base: Option<f64>,
    /// New raw value, if present.
    pub new: Option<f64>,
    /// The call.
    pub verdict: Verdict,
}

/// Full comparison of two [`PerfProfile`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Baseline label.
    pub base_label: String,
    /// New-profile label.
    pub new_label: String,
    /// Thresholds the verdicts were computed under.
    pub thresholds: Thresholds,
    /// Every metric from either side, name-sorted.
    pub entries: Vec<DiffEntry>,
}

impl DiffReport {
    /// True when at least one metric regressed — the gate's exit signal.
    pub fn has_regressions(&self) -> bool {
        self.entries.iter().any(|e| e.verdict == Verdict::Regressed)
    }

    /// `(regressed, improved, added, removed)` counts.
    pub fn tally(&self) -> (usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0);
        for e in &self.entries {
            match e.verdict {
                Verdict::Regressed => t.0 += 1,
                Verdict::Improved => t.1 += 1,
                Verdict::Added => t.2 += 1,
                Verdict::Removed => t.3 += 1,
                Verdict::Ok => {}
            }
        }
        t
    }

    /// Human-readable report. Non-`Ok` rows always print; `verbose` adds
    /// the unchanged ones. Ends with a one-line summary.
    pub fn render(&self, verbose: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf diff: {} -> {}  (rel {:.0}%, floor {}us / {} count)",
            self.base_label,
            self.new_label,
            self.thresholds.rel * 100.0,
            self.thresholds.floor_us,
            self.thresholds.floor_count
        );
        let width = self
            .entries
            .iter()
            .map(|e| e.name.len())
            .max()
            .unwrap_or(6)
            .clamp(6, 72);
        for entry in &self.entries {
            if !verbose && entry.verdict == Verdict::Ok {
                continue;
            }
            let fmt_side = |v: Option<f64>| match v {
                Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v:.0}"),
                Some(v) => format!("{v:.3}"),
                None => "-".to_string(),
            };
            let delta = match (entry.base, entry.new) {
                (Some(b), Some(n)) if b != 0.0 => format!("{:+.1}%", (n - b) / b * 100.0),
                (Some(_), Some(n)) if n != 0.0 => "+inf%".to_string(),
                _ => "".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<width$} {:>14} {:>14} {:>9}  {}",
                entry.name,
                fmt_side(entry.base),
                fmt_side(entry.new),
                delta,
                entry.verdict.tag(),
            );
        }
        let (reg, imp, add, rem) = self.tally();
        let compared = self
            .entries
            .iter()
            .filter(|e| e.base.is_some() && e.new.is_some())
            .count();
        let _ = writeln!(
            out,
            "{}: {compared} compared, {reg} regressed, {imp} improved, {add} added, {rem} removed",
            if reg > 0 { "FAIL" } else { "OK" }
        );
        out
    }
}

/// Classify a flattened bench field by its final path segment.
fn classify_bench_field(name: &str) -> MetricKind {
    let leaf = name.rsplit('.').next().unwrap_or(name);
    let leaf = leaf.split('[').next().unwrap_or(leaf);
    if leaf.ends_with("_us") {
        MetricKind::Time { us_per_unit: 1.0 }
    } else if leaf.ends_with("_ms") {
        MetricKind::Time {
            us_per_unit: 1_000.0,
        }
    } else if leaf.ends_with("_s") || leaf.ends_with("_sec") || leaf.ends_with("_secs") {
        MetricKind::Time {
            us_per_unit: 1_000_000.0,
        }
    } else {
        MetricKind::Info
    }
}

fn flatten_bench(prefix: &str, value: &Value, out: &mut Vec<(String, Metric)>) {
    match value {
        Value::Object(members) => {
            for (key, child) in members {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                flatten_bench(&path, child, out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten_bench(&format!("{prefix}[{i}]"), child, out);
            }
        }
        _ => {
            if let Some(v) = value.as_f64() {
                out.push((
                    prefix.to_string(),
                    Metric {
                        value: v,
                        kind: classify_bench_field(prefix),
                    },
                ));
            }
        }
    }
}

impl PerfProfile {
    /// Parse a profile from JSON text. Objects carrying a
    /// `"schema": "malgraph-obs/…"` key load as obs snapshots; anything
    /// else loads as a flattened bench report.
    pub fn from_json_str(label: &str, text: &str) -> Result<PerfProfile, String> {
        let root = Value::parse(text).map_err(|e| format!("{label}: {e}"))?;
        let schema = root.get("schema").and_then(Value::as_str);
        let mut entries = match schema {
            Some(s) if s.starts_with("malgraph-obs/") => {
                if s != "malgraph-obs/1" && s != "malgraph-obs/2" {
                    return Err(format!("{label}: unsupported snapshot schema {s:?}"));
                }
                Self::snapshot_entries(&root)
            }
            Some(s) => return Err(format!("{label}: unsupported schema {s:?}")),
            None => {
                let mut entries = Vec::new();
                flatten_bench("", &root, &mut entries);
                if entries.is_empty() {
                    return Err(format!("{label}: no numeric fields found"));
                }
                entries
            }
        };
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
        Ok(PerfProfile {
            label: label.to_string(),
            entries,
        })
    }

    /// Load a profile from disk; the path becomes the label.
    pub fn from_file(path: &std::path::Path) -> Result<PerfProfile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json_str(&path.display().to_string(), &text)
    }

    fn snapshot_entries(root: &Value) -> Vec<(String, Metric)> {
        let mut entries = Vec::new();
        if let Some(counters) = root.get("counters").and_then(Value::as_object) {
            for (name, value) in counters {
                if let Some(v) = value.as_f64() {
                    entries.push((
                        format!("counter/{name}"),
                        Metric {
                            value: v,
                            kind: MetricKind::Count,
                        },
                    ));
                }
            }
        }
        if let Some(gauges) = root.get("gauges").and_then(Value::as_object) {
            for (name, value) in gauges {
                if let Some(v) = value.as_f64() {
                    entries.push((
                        format!("gauge/{name}"),
                        Metric {
                            value: v,
                            kind: MetricKind::Info,
                        },
                    ));
                }
            }
        }
        if let Some(spans) = root.get("spans").and_then(Value::as_object) {
            let us = MetricKind::Time { us_per_unit: 1.0 };
            for (name, span) in spans {
                for (field, kind) in [
                    ("total_us", us),
                    ("self_us", us),
                    ("alloc_bytes", MetricKind::Count),
                ] {
                    if let Some(v) = span.get(field).and_then(Value::as_f64) {
                        entries.push((format!("span/{name}/{field}"), Metric { value: v, kind }));
                    }
                }
            }
        }
        entries
    }
}

/// Verdict for one metric present on both sides.
fn judge(kind: MetricKind, base: f64, new: f64, th: &Thresholds) -> Verdict {
    let floor = match kind {
        MetricKind::Time { .. } => th.floor_us,
        MetricKind::Count => th.floor_count,
        MetricKind::Info => return Verdict::Ok,
    };
    let scale = kind.floor_scale();
    let abs_delta = (new - base) * scale;
    // Strict `>` on both tests: a delta landing exactly on the relative
    // threshold (or exactly on the floor) still passes the gate.
    if new > base * (1.0 + th.rel) && abs_delta > floor {
        Verdict::Regressed
    } else if new < base * (1.0 - th.rel) && -abs_delta > floor {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Compare two profiles. Every metric appearing in either side yields a
/// [`DiffEntry`]; the result is name-sorted and deterministic.
pub fn diff(base: &PerfProfile, new: &PerfProfile, thresholds: &Thresholds) -> DiffReport {
    let mut entries = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < base.entries.len() || j < new.entries.len() {
        let take_base = j >= new.entries.len()
            || (i < base.entries.len() && base.entries[i].0 <= new.entries[j].0);
        let take_new = i >= base.entries.len()
            || (j < new.entries.len() && new.entries[j].0 <= base.entries[i].0);
        match (take_base, take_new) {
            (true, true) => {
                let (name, b) = &base.entries[i];
                let n = &new.entries[j].1;
                entries.push(DiffEntry {
                    name: name.clone(),
                    kind: n.kind,
                    base: Some(b.value),
                    new: Some(n.value),
                    verdict: judge(n.kind, b.value, n.value, thresholds),
                });
                i += 1;
                j += 1;
            }
            (true, false) => {
                let (name, b) = &base.entries[i];
                entries.push(DiffEntry {
                    name: name.clone(),
                    kind: b.kind,
                    base: Some(b.value),
                    new: None,
                    verdict: Verdict::Removed,
                });
                i += 1;
            }
            (false, true) => {
                let (name, n) = &new.entries[j];
                entries.push(DiffEntry {
                    name: name.clone(),
                    kind: n.kind,
                    base: None,
                    new: Some(n.value),
                    verdict: Verdict::Added,
                });
                j += 1;
            }
            (false, false) => unreachable!("merge must advance"),
        }
    }
    DiffReport {
        base_label: base.label.clone(),
        new_label: new.label.clone(),
        thresholds: *thresholds,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: MetricKind = MetricKind::Time { us_per_unit: 1.0 };

    fn profile(label: &str, entries: &[(&str, f64, MetricKind)]) -> PerfProfile {
        let mut entries: Vec<(String, Metric)> = entries
            .iter()
            .map(|(n, v, k)| {
                (
                    n.to_string(),
                    Metric {
                        value: *v,
                        kind: *k,
                    },
                )
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        PerfProfile {
            label: label.to_string(),
            entries,
        }
    }

    fn one_verdict(base_v: f64, new_v: f64, kind: MetricKind, th: &Thresholds) -> Verdict {
        let report = diff(
            &profile("b", &[("m", base_v, kind)]),
            &profile("n", &[("m", new_v, kind)]),
            th,
        );
        report.entries[0].verdict
    }

    #[test]
    fn growth_past_both_thresholds_regresses() {
        let th = Thresholds::default();
        assert_eq!(
            one_verdict(100_000.0, 115_000.0, US, &th),
            Verdict::Regressed
        );
        assert_eq!(one_verdict(100_000.0, 89_000.0, US, &th), Verdict::Improved);
        assert_eq!(
            one_verdict(100_000.0, 105_000.0, US, &th),
            Verdict::Ok,
            "within rel"
        );
    }

    #[test]
    fn exactly_at_threshold_is_ok() {
        let th = Thresholds::default();
        // +10.0% exactly: strict `>` must not fire.
        assert_eq!(one_verdict(100_000.0, 110_000.0, US, &th), Verdict::Ok);
        // One µs past the relative bound does fire (floor long cleared).
        assert_eq!(
            one_verdict(100_000.0, 110_001.0, US, &th),
            Verdict::Regressed
        );
        // Delta exactly equal to the floor must not fire either.
        let th_tight = Thresholds {
            rel: 0.0,
            floor_us: 500.0,
            floor_count: 0.0,
        };
        assert_eq!(one_verdict(1_000.0, 1_500.0, US, &th_tight), Verdict::Ok);
        assert_eq!(
            one_verdict(1_000.0, 1_501.0, US, &th_tight),
            Verdict::Regressed
        );
    }

    #[test]
    fn zero_duration_base_is_shielded_by_the_floor() {
        let th = Thresholds::default();
        // Any growth from 0 beats every relative threshold; only the
        // absolute floor keeps µs-jitter spans from failing the gate.
        assert_eq!(one_verdict(0.0, 499.0, US, &th), Verdict::Ok);
        assert_eq!(one_verdict(0.0, 501.0, US, &th), Verdict::Regressed);
    }

    #[test]
    fn missing_in_base_is_added_not_regressed() {
        let th = Thresholds::default();
        let base = profile("b", &[("old", 10.0, US)]);
        let new = profile("n", &[("brand_new", 9e9, US), ("old", 10.0, US)]);
        let report = diff(&base, &new, &th);
        assert!(!report.has_regressions());
        let entry = report
            .entries
            .iter()
            .find(|e| e.name == "brand_new")
            .unwrap();
        assert_eq!(entry.verdict, Verdict::Added);
        assert_eq!(entry.base, None);
        let reverse = diff(&new, &base, &th);
        assert_eq!(
            reverse
                .entries
                .iter()
                .find(|e| e.name == "brand_new")
                .unwrap()
                .verdict,
            Verdict::Removed
        );
    }

    #[test]
    fn info_metrics_never_regress() {
        let th = Thresholds::default();
        assert_eq!(one_verdict(1.0, 1e12, MetricKind::Info, &th), Verdict::Ok);
    }

    #[test]
    fn count_metrics_use_the_count_floor() {
        let th = Thresholds::default();
        let count = MetricKind::Count;
        assert_eq!(
            one_verdict(100.0, 200.0, count, &th),
            Verdict::Ok,
            "under floor_count"
        );
        assert_eq!(
            one_verdict(10_000.0, 12_000.0, count, &th),
            Verdict::Regressed
        );
    }

    #[test]
    fn identical_profiles_diff_clean() {
        let th = Thresholds::default();
        let p = profile("same", &[("a_us", 5.0, US), ("b", 3.0, MetricKind::Count)]);
        let report = diff(&p, &p, &th);
        assert!(!report.has_regressions());
        assert!(report.entries.iter().all(|e| e.verdict == Verdict::Ok));
        assert_eq!(report.tally(), (0, 0, 0, 0));
    }

    #[test]
    fn bench_files_flatten_and_classify_by_suffix() {
        let text = r#"{
            "bench": "demo",
            "full_build_ms": 250,
            "config": {"n": 5000, "speedup_vs_dense": 3.5},
            "results": [{"name": "warm", "elapsed_us": 1200, "wall_s": 2.5}]
        }"#;
        let p = PerfProfile::from_json_str("BENCH_X.json", text).unwrap();
        let kind = |name: &str| {
            p.entries
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, m)| m.kind)
                .unwrap()
        };
        assert_eq!(
            kind("full_build_ms"),
            MetricKind::Time {
                us_per_unit: 1_000.0
            }
        );
        assert_eq!(
            kind("results[0].elapsed_us"),
            MetricKind::Time { us_per_unit: 1.0 }
        );
        assert_eq!(
            kind("results[0].wall_s"),
            MetricKind::Time {
                us_per_unit: 1_000_000.0
            }
        );
        assert_eq!(kind("config.n"), MetricKind::Info);
        assert_eq!(kind("config.speedup_vs_dense"), MetricKind::Info);
        assert!(
            p.entries.iter().all(|(n, _)| n != "bench"),
            "strings are skipped"
        );
        let names: Vec<&str> = p.entries.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "entries are name-sorted");
    }

    #[test]
    fn obs_snapshots_load_under_both_schema_ids() {
        let v1 = r#"{
            "schema": "malgraph-obs/1",
            "counters": {"build.nodes": 100},
            "gauges": {"load": 0.5},
            "histograms": {},
            "spans": {"build/parse": {"count": 1, "total_us": 900}},
            "events_dropped": 0
        }"#;
        let v2 = r#"{
            "schema": "malgraph-obs/2",
            "counters": {"build.nodes": 100},
            "gauges": {},
            "histograms": {},
            "spans": {"build/parse": {"count": 1, "total_us": 900, "self_us": 400, "alloc_bytes": 2048, "allocs": 3}},
            "events_dropped": 0
        }"#;
        let p1 = PerfProfile::from_json_str("v1", v1).unwrap();
        let p2 = PerfProfile::from_json_str("v2", v2).unwrap();
        let get = |p: &PerfProfile, name: &str| {
            p.entries
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, m)| m.clone())
        };
        assert_eq!(
            get(&p1, "counter/build.nodes").unwrap().kind,
            MetricKind::Count
        );
        assert_eq!(get(&p1, "span/build/parse/total_us").unwrap().value, 900.0);
        assert!(
            get(&p1, "span/build/parse/self_us").is_none(),
            "v1 has no self time"
        );
        assert_eq!(get(&p1, "gauge/load").unwrap().kind, MetricKind::Info);
        assert_eq!(get(&p2, "span/build/parse/self_us").unwrap().value, 400.0);
        assert_eq!(
            get(&p2, "span/build/parse/alloc_bytes").unwrap().kind,
            MetricKind::Count
        );
        // Diffing v1 against v2 treats the new self/alloc fields as added.
        let report = diff(&p1, &p2, &Thresholds::default());
        assert!(!report.has_regressions());
        assert!(PerfProfile::from_json_str("bad", r#"{"schema": "malgraph-obs/9"}"#).is_err());
    }

    #[test]
    fn injected_ten_percent_regression_is_caught() {
        // The acceptance-criteria shape: a quick-bench snapshot with one
        // stage time inflated by 10%+ must fail, identical must pass.
        let base_text = r#"{"full_build_ms": 1000, "delta_ingest_ms": 130, "reps": 3}"#;
        let slow_text = r#"{"full_build_ms": 1101, "delta_ingest_ms": 130, "reps": 3}"#;
        let base = PerfProfile::from_json_str("base", base_text).unwrap();
        let slow = PerfProfile::from_json_str("slow", slow_text).unwrap();
        let th = Thresholds::default();
        assert!(!diff(&base, &base, &th).has_regressions());
        let report = diff(&base, &slow, &th);
        assert!(report.has_regressions());
        let rendered = report.render(false);
        assert!(rendered.contains("full_build_ms"));
        assert!(rendered.contains("REGRESSED"));
        assert!(rendered.starts_with("perf diff: base -> slow"));
        assert!(rendered
            .trim_end()
            .ends_with("1 regressed, 0 improved, 0 added, 0 removed"));
        assert!(rendered.contains("FAIL"));
    }
}
