//! Benchmark & reproduction harness for the MALGRAPH paper.
//!
//! * [`harness`] — regenerates every table and figure of the paper's
//!   evaluation from a calibrated simulated world (`repro` binary);
//! * `benches/` — Criterion performance benches for the pipeline stages
//!   and the design-choice ablations listed in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

pub use harness::{AnalyzeMode, Repro, StageTimings, EXPERIMENTS, EXTENSIONS};

use std::path::PathBuf;

/// The directory `--quick` runs write to, relative to the working
/// directory. `ci.sh`'s perf gate reads its snapshots here, so a CI run
/// leaves the tracked records untouched.
const PERF_GATE_DIR: &str = "target/perf_gate";

/// Where a bench binary writes its report `<name>.json`: the record in the
/// working directory for a full run, or `target/perf_gate/` (created if
/// missing) for a `--quick` run, as `<name>_quick.json`.
///
/// # Panics
///
/// Panics if `target/perf_gate/` cannot be created.
pub fn report_path(name: &str, quick: bool) -> PathBuf {
    if !quick {
        return PathBuf::from(format!("{name}.json"));
    }
    std::fs::create_dir_all(PERF_GATE_DIR)
        .unwrap_or_else(|e| panic!("create {PERF_GATE_DIR}: {e}"));
    PathBuf::from(PERF_GATE_DIR).join(format!("{name}_quick.json"))
}
