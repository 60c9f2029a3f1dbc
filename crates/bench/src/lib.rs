//! Reproduction harness for the MALGRAPH paper.
//!
//! * [`harness`] — regenerates every table and figure of the paper's
//!   evaluation from a calibrated simulated world (`repro` binary);
//! * `tests/` — the equivalence suites (analysis, ingest, crash
//!   recovery, profile) and the exact work-counter gates CI runs in
//!   place of wall-time checks;
//! * `benches/` — Criterion benches for what `perfbench` never runs:
//!   the design-choice ablations listed in `DESIGN.md` §6 and the
//!   vector-kernel ladder at the paper's dimension.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

pub use harness::{AnalyzeMode, Repro, StageTimings, EXPERIMENTS, EXTENSIONS};
