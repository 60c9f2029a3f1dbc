//! Snapshot types and the four exporters.
//!
//! * [`Snapshot::to_json`] — the canonical machine-readable dump
//!   (schema `malgraph-obs/2`), what `--metrics-out` writes and
//!   `malgraph stats` / `malgraph perf diff` read back.
//! * [`Snapshot::to_prometheus`] — Prometheus text exposition format 0.0.4;
//!   `{key=value}` suffixes in metric names become Prometheus labels.
//! * [`Snapshot::to_chrome_trace`] — Chrome trace-event JSON (complete
//!   `"X"` events) loadable in `chrome://tracing` or Perfetto; spans
//!   recorded on different worker shards keep distinct `tid` rows.
//! * [`Snapshot::to_folded`] / [`Snapshot::to_folded_alloc`] — collapsed
//!   stacks (`parent;child;grandchild <self_value>` lines) consumable by
//!   flamegraph.pl or inferno, weighted by self-microseconds or
//!   self-allocated bytes.
//!
//! All output is deterministic: entries are name-sorted, events are
//! time-then-name-sorted, and trace thread ids are renumbered densely by
//! first appearance so the same workload exports the same bytes.

use crate::registry::BUCKET_BOUNDS;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One closed span occurrence: where it ran and for how long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Full span path, e.g. `build/similar/ecosystem=npm`.
    pub name: String,
    /// Registry-assigned ordinal of the recording thread.
    pub thread: u64,
    /// Start timestamp, microseconds on the registry clock.
    pub start_us: u64,
    /// Wall time in microseconds.
    pub dur_us: u64,
}

/// Per-name span rollup: closures, wall time, self time, and the
/// self-allocation charge (non-zero only when [`crate::alloc`] tracking
/// is active).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAggregate {
    /// Full span path.
    pub name: String,
    /// Number of closed occurrences.
    pub count: u64,
    /// Summed wall time in microseconds.
    pub total_us: u64,
    /// Summed self time (wall time minus child spans) in microseconds.
    pub self_us: u64,
    /// Bytes allocated while this span was the innermost open span.
    pub alloc_bytes: u64,
    /// Allocation calls charged the same way.
    pub allocs: u64,
}

/// One folded-stack profile line: a full `parent;child;…` path with its
/// accumulated self time and self allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedFrame {
    /// Semicolon-joined span names from root to leaf.
    pub stack: String,
    /// Number of closures recorded at exactly this path.
    pub count: u64,
    /// Self time in microseconds accumulated at this path.
    pub self_us: u64,
    /// Self-allocated bytes accumulated at this path.
    pub alloc_bytes: u64,
    /// Self allocation calls accumulated at this path.
    pub allocs: u64,
}

/// Frozen histogram state: per-bucket counts plus summary stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Non-cumulative counts per bucket; one entry per bound in
    /// [`BUCKET_BOUNDS`] plus a final overflow bucket.
    pub buckets: Vec<u64>,
}

/// A consistent, name-sorted copy of the registry, produced by
/// [`crate::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter name → accumulated value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → last written value.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span rollups, name-sorted.
    pub spans: Vec<SpanAggregate>,
    /// Folded-stack profile, stack-sorted.
    pub folded: Vec<FoldedFrame>,
    /// Raw span events, time-sorted.
    pub events: Vec<SpanEvent>,
    /// Events discarded past the retention cap.
    pub events_dropped: u64,
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// Map a metric name to a Prometheus-legal identifier: every character
/// outside `[a-zA-Z0-9_:]` becomes `_`, and a leading digit is prefixed.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Split `family{key=value,key=value}` into the sanitized family name and
/// a rendered Prometheus label block (empty when the name has no labels).
fn prometheus_parts(name: &str) -> (String, String) {
    let Some(open) = name.find('{') else {
        return (prometheus_name(name), String::new());
    };
    let family = prometheus_name(&name[..open]);
    let inner = name[open + 1..].trim_end_matches('}');
    let mut labels = String::new();
    for (i, pair) in inner.split(',').enumerate() {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if i > 0 {
            labels.push(',');
        }
        let _ = write!(
            labels,
            "{}=\"{}\"",
            prometheus_name(key.trim()),
            value.trim().replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    (family, format!("{{{labels}}}"))
}

impl Snapshot {
    /// The canonical JSON dump (schema `malgraph-obs/2`; `/2` added
    /// `self_us` / `alloc_bytes` / `allocs` to every span entry — readers
    /// accept both ids). Raw span events are not included — they live in
    /// the Chrome trace export; the folded profile lives in
    /// [`Snapshot::to_folded`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"malgraph-obs/2\",\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": {value}", escape_json(name));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    \"{}\": {}",
                escape_json(name),
                fmt_f64(*value)
            );
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, hist) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let buckets = hist
                .buckets
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                out,
                "{sep}    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [{buckets}]}}",
                escape_json(&hist.name),
                hist.count,
                hist.sum,
                hist.min,
                hist.max
            );
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"spans\": {");
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    \"{}\": {{\"count\": {}, \"total_us\": {}, \"self_us\": {}, \"alloc_bytes\": {}, \"allocs\": {}}}",
                escape_json(&span.name),
                span.count,
                span.total_us,
                span.self_us,
                span.alloc_bytes,
                span.allocs
            );
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "}},\n  \"events_dropped\": {}\n}}\n",
            self.events_dropped
        );
        out
    }

    /// Folded-stack profile weighted by self time: one
    /// `parent;child;grandchild <self_us>` line per recorded stack path,
    /// path-sorted, newline-terminated — the input format of
    /// flamegraph.pl and inferno-flamegraph. Under a fake clock the
    /// output is byte-stable, so whole-pipeline profiles golden-test.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for frame in &self.folded {
            let _ = writeln!(out, "{} {}", frame.stack, frame.self_us);
        }
        out
    }

    /// Folded-stack profile weighted by self-allocated bytes (all zeros
    /// unless [`crate::alloc`] tracking was active). Same format and
    /// ordering as [`Snapshot::to_folded`].
    pub fn to_folded_alloc(&self) -> String {
        let mut out = String::new();
        for frame in &self.folded {
            let _ = writeln!(out, "{} {}", frame.stack, frame.alloc_bytes);
        }
        out
    }

    /// Prometheus text exposition format. Counters map to `counter`
    /// families, gauges to `gauge`, histograms to `histogram` with
    /// cumulative `_bucket{le=…}` series plus `_sum` / `_count`, and span
    /// rollups to three counter families labeled by span path.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, value) in &self.counters {
            let (family, labels) = prometheus_parts(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} counter");
                last_family = family.clone();
            }
            let _ = writeln!(out, "{family}{labels} {value}");
        }
        for (name, value) in &self.gauges {
            let (family, labels) = prometheus_parts(name);
            let _ = writeln!(out, "# TYPE {family} gauge");
            let _ = writeln!(out, "{family}{labels} {}", fmt_f64(*value));
        }
        for hist in &self.histograms {
            let (family, labels) = prometheus_parts(&hist.name);
            let inner = labels
                .strip_prefix('{')
                .and_then(|s| s.strip_suffix('}'))
                .unwrap_or("");
            let prefix = if inner.is_empty() {
                String::new()
            } else {
                format!("{inner},")
            };
            let _ = writeln!(out, "# TYPE {family} histogram");
            let mut cumulative = 0;
            for (bound, count) in BUCKET_BOUNDS.iter().zip(hist.buckets.iter()) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{family}_bucket{{{prefix}le=\"{bound}\"}} {cumulative}"
                );
            }
            let _ = writeln!(out, "{family}_bucket{{{prefix}le=\"+Inf\"}} {}", hist.count);
            let _ = writeln!(out, "{family}_sum{labels} {}", hist.sum);
            let _ = writeln!(out, "{family}_count{labels} {}", hist.count);
        }
        if !self.spans.is_empty() {
            let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = writeln!(out, "# TYPE obs_span_total_us counter");
            for span in &self.spans {
                let _ = writeln!(
                    out,
                    "obs_span_total_us{{span=\"{}\"}} {}",
                    escape(&span.name),
                    span.total_us
                );
            }
            let _ = writeln!(out, "# TYPE obs_span_self_us counter");
            for span in &self.spans {
                let _ = writeln!(
                    out,
                    "obs_span_self_us{{span=\"{}\"}} {}",
                    escape(&span.name),
                    span.self_us
                );
            }
            let _ = writeln!(out, "# TYPE obs_span_count counter");
            for span in &self.spans {
                let _ = writeln!(
                    out,
                    "obs_span_count{{span=\"{}\"}} {}",
                    escape(&span.name),
                    span.count
                );
            }
        }
        out
    }

    /// Chrome trace-event JSON: complete (`ph:"X"`) events with
    /// microsecond `ts`/`dur`. Thread ids are renumbered densely in order
    /// of first appearance — each worker shard that recorded spans keeps
    /// its own `tid` row rather than collapsing onto one. Loadable in
    /// `chrome://tracing` and Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        let mut tid_map: HashMap<u64, u64> = HashMap::new();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, event) in self.events.iter().enumerate() {
            let next = tid_map.len() as u64 + 1;
            let tid = *tid_map.entry(event.thread).or_insert(next);
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid}}}",
                escape_json(&event.name),
                event.start_us,
                event.dur_us
            );
        }
        if !self.events.is_empty() {
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}
