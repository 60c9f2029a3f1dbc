//! Per-layer measurement for traced passes: timers and spans the
//! benchmark wraps around calls into each layer, readers for the obs
//! snapshot, and the merge of two traced passes into per-layer metrics.

use crate::Report;
use std::time::Instant;

/// Runs `f` inside a root span `name` of the benchmark's own, adding its
/// wall time to `secs`. The span also counts allocation calls made on
/// worker threads that attach the caller's span context.
pub fn in_span<T>(name: &str, secs: &mut f64, f: impl FnOnce() -> T) -> T {
    let span = obs::span!("{name}");
    let start = Instant::now();
    let value = f();
    *secs += start.elapsed().as_secs_f64();
    drop(span);
    value
}

/// A counter's value in `snap` (0 when never bumped).
pub fn counter(snap: &obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// How much a counter grew between two snapshots of one pass.
pub fn grown(before: &obs::Snapshot, after: &obs::Snapshot, name: &str) -> u64 {
    counter(after, name) - counter(before, name)
}

/// Allocation calls of the root span `root` and every span under it.
pub fn span_allocs(snap: &obs::Snapshot, root: &str) -> u64 {
    let nested = format!("{root};");
    snap.folded
        .iter()
        .filter(|f| f.stack == root || f.stack.starts_with(&nested))
        .map(|f| f.allocs)
        .sum()
}

/// Self time, in seconds, of every span `leaf` nested under `root`.
pub fn leaf_self_s(snap: &obs::Snapshot, root: &str, leaf: &str) -> f64 {
    let nested = format!("{root};");
    let us: u64 = snap
        .folded
        .iter()
        .filter(|f| f.stack.starts_with(&nested) && f.stack.rsplit(';').next() == Some(leaf))
        .map(|f| f.self_us)
        .sum();
    us as f64 / 1e6
}

/// Self time, in seconds, of every span named `name`.
pub fn span_self_s(snap: &obs::Snapshot, name: &str) -> f64 {
    snap.spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.self_us) as f64
        / 1e6
}

/// What one traced pass measured.
#[derive(Debug, Default)]
pub struct Layers {
    /// Per-layer wall times, in seconds.
    pub times: Vec<(&'static str, f64)>,
    /// Values that must repeat exactly: counts, allocation calls and
    /// ratios of counts.
    pub exact: Vec<(&'static str, f64)>,
    /// Counts the program itself lets jitter by a few units from run to
    /// run; they must repeat within [`NEAR`].
    pub near: Vec<(&'static str, f64)>,
    /// The pass's main time, comparable to an untraced pass.
    pub main_s: f64,
    /// The part of `main_s` the benchmark's own timers cover.
    pub attributed_s: f64,
}

impl Layers {
    pub fn time(&mut self, name: &'static str, secs: f64) {
        self.times.push((name, secs));
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        self.exact.push((name, n as f64));
    }

    pub fn ratio(&mut self, name: &'static str, num: u64, den: u64) {
        self.exact.push((
            name,
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            },
        ));
    }

    pub fn count_near(&mut self, name: &'static str, n: u64) {
        self.near.push((name, n as f64));
    }
}

/// Relative difference allowed between two traced passes for the
/// [`Layers::near`] counts.
pub const NEAR: f64 = 1e-5;

/// Merges two traced passes into the run's per-layer metrics: times are
/// their mean; exact values must agree bit for bit and near ones within
/// [`NEAR`], or the run fails; `obs.overhead_frac` is traced over
/// untraced main time minus one, and `unattributed_frac` is the share of
/// traced main time that no benchmark timer covers.
pub fn merge(report: &mut Report, a: &Layers, b: &Layers, untraced: &[f64]) {
    let mut diffs = Vec::new();
    for (values_a, values_b, tolerance) in [(&a.exact, &b.exact, 0.0), (&a.near, &b.near, NEAR)] {
        for (&(name, x), &(_, y)) in values_a.iter().zip(values_b.iter()) {
            if (x - y).abs() > tolerance * x.abs().max(y.abs()) {
                diffs.push(format!("{name} {x} vs {y}"));
            }
        }
    }
    report.check(diffs.is_empty(), || {
        format!(
            "counts differ between two traced passes: {}",
            diffs.join(", ")
        )
    });
    for (&(name, x), &(_, y)) in a.times.iter().zip(&b.times) {
        report.set(name, (x + y) / 2.0);
    }
    for &(name, value) in a.exact.iter().chain(&a.near) {
        report.set(name, value);
    }
    let traced = a.main_s + b.main_s;
    let untraced: f64 = untraced.iter().sum();
    report.set("obs.overhead_frac", traced / untraced - 1.0);
    report.set(
        "unattributed_frac",
        (traced - a.attributed_s - b.attributed_s) / traced,
    );
}
