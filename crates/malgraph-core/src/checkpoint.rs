//! Crash-consistent checkpointing of a windowed ingest run (ISSUE 10).
//!
//! The paper's pipeline runs for months (§II); a reproduction at that
//! scale must survive process death mid-run. This module makes the
//! incremental path ([`MalGraph::apply_delta`]) resumable with a **byte
//! identity** guarantee: a run killed at *any* registered crash point
//! and resumed from its checkpoint directory finishes with a graph,
//! diagnostics and analysis output bitwise-identical to an uninterrupted
//! run.
//!
//! # On-disk layout
//!
//! ```text
//! DIR/
//!   RUN.json                  run stamp: seed / scale / window count
//!   gen-000003.json           generation snapshot after 3 windows
//!   gen-000004.json           (the last `keep` generations are retained)
//!   journal/
//!     window-000000.json      write-ahead journal, one file per delta
//!     window-000001.json      (journals are never pruned)
//! ```
//!
//! Every file is a **sealed envelope** (`jsonio::durable`): a one-line
//! header carrying a format tag, the body's SHA-256 and its byte length,
//! followed by the body. Writes go through `write_atomic` (temp +
//! `fsync` + rename + directory `fsync`), so a torn write can only ever
//! leave a stale temp sibling; truncation and bit flips of a published
//! file are caught by the length and checksum on read.
//!
//! # What a generation snapshot holds
//!
//! The union corpus (full fidelity, via the crawler's manifest format)
//! plus each ecosystem's last [`SimilarityOutput`] and entry-list
//! length. The graph itself is *not* stored: node and edge emission are
//! deterministic functions of the corpus, re-emitted in milliseconds by
//! the one construction sequence `build` and `apply_delta` run. What
//! makes resume fast is skipping the similarity pipeline — [`restore`]
//! seeds the similarity memos with the persisted outputs, so every
//! ecosystem takes the memo's reuse path, as in a window that added
//! nothing to it. The
//! `f32` schedule traces are stored as raw bit patterns so the
//! round-trip is exact, not close, and the (at full scale, millions of)
//! similar pairs are encoded as one flat `"a,b a,b …"` string per
//! ecosystem in a compact-rendered body — see `snapshot_body` for why
//! the obvious nested-array encoding is not merely slower but
//! allocation-bound.
//!
//! # The fallback ladder
//!
//! [`recover`] degrades gracefully: newest generation → older
//! generation → write-ahead journal replay → full rebuild from nothing,
//! counting every step in `recovery.*` counters under `recover/*`
//! spans. A checkpoint that fails its checksum is *discarded*, never
//! trusted partially.
//!
//! # Crash points
//!
//! [`CRASH_POINTS`] names every stage boundary of the checkpointed
//! driver ([`run_checkpointed_ingest`]); a seeded or CLI-supplied
//! [`CrashPlan`] turns one occurrence of one point into a simulated
//! abort with no cleanup. The crash matrix in
//! `crates/bench/tests/crash_recovery.rs` sweeps every point and
//! asserts the identity contract cell by cell.

use crate::build::{self, BuildOptions, MalGraph};
use crate::ingest::IngestState;
use crate::similarity::SimilarityOutput;
use crawler::{CollectedDataset, CorpusDelta, ExportFidelity};
use jsonio::durable::{self, SealError};
use oss_types::{CrashPlan, CrashSignal, Ecosystem, Sha256};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Format tag of generation snapshot files.
const GENERATION_TAG: &str = "malgraph-checkpoint/1";
/// Format tag of write-ahead journal entries.
const JOURNAL_TAG: &str = "malgraph-journal/1";
/// Format tag of the run stamp.
const RUN_TAG: &str = "malgraph-run/1";

/// Every crash point the checkpointed driver registers, in firing
/// order. One ingest run fires each of these at least once per window
/// (the `similar/publish` point once per recomputed ecosystem); the
/// crash matrix sweeps all of them.
pub const CRASH_POINTS: &[&str] = &[
    // The boundary between the merged per-source crawl and ingestion.
    "collect/merge",
    // Write-ahead journal entry durable, delta not yet applied.
    "ingest/journal",
    // The five build stages, re-emitted per delta.
    "build/nodes",
    "build/duplicated",
    "build/dependency",
    "similar/publish",
    "build/similar",
    "build/coexisting",
    // Delta fully applied in memory, not yet checkpointed.
    "ingest/apply",
    // Immediately before the generation snapshot write ...
    "checkpoint/write",
    // ... and after it is durable, before old generations are pruned.
    "checkpoint/publish",
];

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// An I/O failure reading or writing the checkpoint directory.
    Io(io::Error),
    /// An envelope failed framing validation (truncated, wrong tag).
    Seal(SealError),
    /// An envelope's body does not match its declared checksum — a bit
    /// flip or other corruption inside a fully-framed file.
    ChecksumMismatch {
        /// Checksum the header declared.
        declared: String,
        /// Checksum recomputed over the body.
        actual: String,
    },
    /// The body parsed but violates the snapshot schema.
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Seal(e) => write!(f, "checkpoint envelope error: {e}"),
            CheckpointError::ChecksumMismatch { declared, actual } => write!(
                f,
                "checkpoint checksum mismatch: header declares {declared}, body hashes to {actual}"
            ),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

impl From<SealError> for CheckpointError {
    fn from(e: SealError) -> CheckpointError {
        CheckpointError::Seal(e)
    }
}

/// Why a checkpointed ingest run stopped.
#[derive(Debug)]
pub enum IngestRunError {
    /// A simulated crash fired; the in-memory graph/state are torn and
    /// must be discarded. The checkpoint directory is the survivor.
    Crashed(CrashSignal),
    /// A real checkpoint-store failure.
    Store(CheckpointError),
}

impl fmt::Display for IngestRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestRunError::Crashed(s) => write!(f, "{s}"),
            IngestRunError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IngestRunError {}

/// Identity of one checkpointed run: resuming under a different seed,
/// scale or window plan would splice two different corpora together, so
/// the CLI refuses a stamp mismatch. The scale factor is stored as raw
/// `f64` bits for an exact comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStamp {
    /// World seed of the run.
    pub seed: u64,
    /// World scale factor, as `f64::to_bits`.
    pub scale_bits: u64,
    /// Number of windows in the ingestion plan.
    pub windows: usize,
}

impl RunStamp {
    /// A stamp from the run's parameters.
    pub fn new(seed: u64, scale: f64, windows: usize) -> RunStamp {
        RunStamp {
            seed,
            scale_bits: scale.to_bits(),
            windows,
        }
    }

    /// The scale factor back as an `f64`.
    pub fn scale(&self) -> f64 {
        f64::from_bits(self.scale_bits)
    }
}

/// A checkpoint directory: generations, the write-ahead journal and the
/// run stamp. See the module docs for the layout.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

/// A parsed generation snapshot: the union corpus plus the
/// per-ecosystem similarity memos as of `windows_applied` deltas.
/// Everything else about the graph is a deterministic function of this
/// (the write side serialises directly from [`IngestState`] — see
/// `snapshot_body`).
#[derive(Debug)]
pub struct Snapshot {
    /// Number of deltas folded in when the snapshot was taken.
    pub windows_applied: usize,
    /// The union corpus.
    pub dataset: CollectedDataset,
    /// `(ecosystem, entries_len, output)` of every ecosystem whose
    /// similarity pipeline has run.
    pub similarity: Vec<(Ecosystem, usize, SimilarityOutput)>,
}

fn seal_body(path: &Path, tag: &str, body: &str) -> Result<(), CheckpointError> {
    let checksum = Sha256::digest(body.as_bytes()).to_string();
    durable::write_sealed(path, tag, &checksum, body)?;
    Ok(())
}

/// Reads a sealed file, validating framing *and* the body checksum.
/// `Ok(None)` means the file does not exist — the caller's "nothing
/// there yet" case, distinct from every corruption error.
fn open_body(path: &Path, tag: &str) -> Result<Option<String>, CheckpointError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CheckpointError::Io(e)),
    };
    let sealed = durable::open_sealed(&text, tag)?;
    let actual = Sha256::digest(sealed.body.as_bytes()).to_string();
    if actual != sealed.checksum {
        return Err(CheckpointError::ChecksumMismatch {
            declared: sealed.checksum,
            actual,
        });
    }
    Ok(Some(sealed.body))
}

/// Parses the zero-padded number out of `gen-NNNNNN.json` /
/// `window-NNNNNN.json` file names.
fn numbered_file(name: &str, prefix: &str) -> Option<usize> {
    name.strip_prefix(prefix)?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> Result<CheckpointStore, CheckpointError> {
        std::fs::create_dir_all(dir.join("journal"))?;
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn generation_path(&self, windows: usize) -> PathBuf {
        self.dir.join(format!("gen-{windows:06}.json"))
    }

    fn journal_path(&self, window: usize) -> PathBuf {
        self.dir.join("journal").join(format!("window-{window:06}.json"))
    }

    /// Reads the run stamp, if one has been written.
    ///
    /// # Errors
    ///
    /// Corruption errors, exactly like a generation read.
    pub fn run_stamp(&self) -> Result<Option<RunStamp>, CheckpointError> {
        let Some(body) = open_body(&self.dir.join("RUN.json"), RUN_TAG)? else {
            return Ok(None);
        };
        let root = jsonio::Value::parse(&body)
            .map_err(|e| CheckpointError::Malformed(format!("run stamp: {e}")))?;
        let field = |key: &str| -> Result<u64, CheckpointError> {
            root.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| CheckpointError::Malformed(format!("run stamp: bad field {key:?}")))
        };
        Ok(Some(RunStamp {
            seed: field("seed")?,
            scale_bits: field("scale_bits")?,
            windows: field("windows")? as usize,
        }))
    }

    /// Writes the run stamp (atomically, like everything else).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_run_stamp(&self, stamp: &RunStamp) -> Result<(), CheckpointError> {
        let body = jsonio::object! {
            "seed": stamp.seed,
            "scale_bits": stamp.scale_bits,
            "windows": stamp.windows,
        }
        .to_pretty();
        seal_body(&self.dir.join("RUN.json"), RUN_TAG, &body)
    }

    /// Appends one delta to the write-ahead journal. Idempotent: a
    /// resumed run re-journaling a window it already journaled simply
    /// rewrites the same bytes.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn append_journal(&self, delta: &CorpusDelta) -> Result<(), CheckpointError> {
        seal_body(
            &self.journal_path(delta.window),
            JOURNAL_TAG,
            &crawler::delta_value(delta).to_compact(),
        )
    }

    /// Reads journal entry `window`; `Ok(None)` when it was never
    /// written.
    ///
    /// # Errors
    ///
    /// Corruption (framing, checksum, schema) or an entry whose
    /// recorded window index disagrees with its file name.
    pub fn read_journal(&self, window: usize) -> Result<Option<CorpusDelta>, CheckpointError> {
        let Some(body) = open_body(&self.journal_path(window), JOURNAL_TAG)? else {
            return Ok(None);
        };
        let delta = crawler::import_delta_json(&body)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        if delta.window != window {
            return Err(CheckpointError::Malformed(format!(
                "journal file for window {window} contains window {}",
                delta.window
            )));
        }
        Ok(Some(delta))
    }

    /// The generation numbers present on disk, ascending. Stale temp
    /// siblings (crash leftovers) and foreign files are ignored.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures.
    pub fn generations(&self) -> Result<Vec<usize>, CheckpointError> {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(n) = entry.file_name().to_str().and_then(|n| numbered_file(n, "gen-")) {
                found.push(n);
            }
        }
        found.sort_unstable();
        Ok(found)
    }

    /// Writes a generation snapshot of `state`, named after the number
    /// of windows applied.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_generation(&self, state: &IngestState) -> Result<(), CheckpointError> {
        let _span = obs::span!("checkpoint/write");
        let body = snapshot_body(state);
        seal_body(&self.generation_path(state.windows), GENERATION_TAG, &body)?;
        obs::counter_add("checkpoint.generations_written", 1);
        Ok(())
    }

    /// Reads and validates generation `windows`.
    ///
    /// # Errors
    ///
    /// `Io` when missing (a generation is read by number from
    /// [`CheckpointStore::generations`], so absence is unexpected),
    /// otherwise the usual corruption ladder.
    pub fn read_generation(&self, windows: usize) -> Result<Snapshot, CheckpointError> {
        let body = open_body(&self.generation_path(windows), GENERATION_TAG)?.ok_or_else(|| {
            CheckpointError::Io(io::Error::new(
                io::ErrorKind::NotFound,
                format!("generation {windows} missing"),
            ))
        })?;
        let root = jsonio::Value::parse(&body)
            .map_err(|e| CheckpointError::Malformed(format!("snapshot: {e}")))?;
        snapshot_from_value(&root)
    }

    /// Deletes all but the newest `keep` generations. Journals are
    /// never pruned — they are the last rung of the fallback ladder.
    ///
    /// # Errors
    ///
    /// Propagates listing/removal failures.
    pub fn prune_generations(&self, keep: usize) -> Result<(), CheckpointError> {
        let generations = self.generations()?;
        for &windows in generations.iter().rev().skip(keep) {
            std::fs::remove_file(self.generation_path(windows))?;
            obs::counter_add("checkpoint.generations_pruned", 1);
        }
        Ok(())
    }
}

/// Builds the snapshot document straight from live ingest state (no
/// intermediate clone of the corpus or the pair lists — at full scale
/// those are hundreds of megabytes).
///
/// Two representation choices keep generation I/O linear-time where a
/// naive encoding is allocation-bound:
///
/// * similar pairs are one flat `"a,b a,b …"` string per ecosystem, not
///   nested JSON arrays — the Similar graph carries millions of pairs
///   at full scale, and a `Value` tree with three heap nodes per pair
///   turns both serialisation and parse into multi-second allocation
///   storms;
/// * `f32` trace values are stored as raw bit patterns — JSON floats
///   would round-trip through decimal and the identity contract is
///   *byte* identity, not approximate identity.
///
/// The body is rendered compact, not pretty: nobody reads a generation
/// file by eye, and the indentation would double its size.
fn snapshot_body(state: &IngestState) -> String {
    use std::fmt::Write as _;
    let similarity: Vec<jsonio::Value> = Ecosystem::ALL
        .iter()
        .zip(&state.eco)
        .filter_map(|(&eco, memo)| {
            let out = memo.output.as_deref()?;
            let mut pairs = String::with_capacity(out.pairs.len() * 12);
            for &(a, b) in &out.pairs {
                if !pairs.is_empty() {
                    pairs.push(' ');
                }
                let _ = write!(pairs, "{a},{b}");
            }
            Some(jsonio::object! {
                "ecosystem": eco.slug(),
                "entries_len": memo.entries_len,
                "chosen_k": out.chosen_k,
                "pairs": pairs,
                "trace": out
                    .trace
                    .iter()
                    .map(|&(k, inertia)| {
                        jsonio::Value::Array(vec![k.into(), inertia.to_bits().into()])
                    })
                    .collect::<Vec<_>>(),
            })
        })
        .collect();
    jsonio::object! {
        "format_version": 1u32,
        "windows_applied": state.windows,
        "similarity": similarity,
        "corpus": crawler::dataset_value(&state.dataset, ExportFidelity::Full),
    }
    .to_compact()
}

fn snapshot_from_value(root: &jsonio::Value) -> Result<Snapshot, CheckpointError> {
    let bad = |what: &str| CheckpointError::Malformed(format!("snapshot: bad field {what:?}"));
    let version = root
        .get("format_version")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| bad("format_version"))?;
    if version != 1 {
        return Err(CheckpointError::Malformed(format!(
            "snapshot: unsupported format version {version}"
        )));
    }
    let windows_applied = root
        .get("windows_applied")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| bad("windows_applied"))? as usize;
    let dataset = crawler::dataset_from_value(root.get("corpus").ok_or_else(|| bad("corpus"))?)
        .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    let mut similarity = Vec::new();
    for entry in root
        .get("similarity")
        .and_then(|v| v.as_array())
        .ok_or_else(|| bad("similarity"))?
    {
        let eco: Ecosystem = entry
            .get("ecosystem")
            .and_then(|v| v.as_str())
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("similarity.ecosystem"))?;
        let entries_len = entry
            .get("entries_len")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| bad("similarity.entries_len"))? as usize;
        let chosen_k = entry
            .get("chosen_k")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| bad("similarity.chosen_k"))? as usize;
        let encoded = entry
            .get("pairs")
            .and_then(|v| v.as_str())
            .ok_or_else(|| bad("similarity.pairs"))?;
        let mut pairs = Vec::new();
        if !encoded.is_empty() {
            for token in encoded.split(' ') {
                let pair = token.split_once(',').and_then(|(a, b)| {
                    Some((a.parse::<usize>().ok()?, b.parse::<usize>().ok()?))
                });
                match pair {
                    Some(p) => pairs.push(p),
                    None => return Err(bad("similarity.pairs")),
                }
            }
        }
        let mut trace = Vec::new();
        for step in entry
            .get("trace")
            .and_then(|v| v.as_array())
            .ok_or_else(|| bad("similarity.trace"))?
        {
            let items = step.as_array().ok_or_else(|| bad("similarity.trace"))?;
            match (items.first().and_then(|v| v.as_u64()), items.get(1).and_then(|v| v.as_u64())) {
                (Some(k), Some(bits)) if items.len() == 2 && bits <= u64::from(u32::MAX) => {
                    trace.push((k as usize, f32::from_bits(bits as u32)));
                }
                _ => return Err(bad("similarity.trace")),
            }
        }
        similarity.push((
            eco,
            entries_len,
            SimilarityOutput {
                pairs,
                chosen_k,
                trace,
            },
        ));
    }
    Ok(Snapshot {
        windows_applied,
        dataset,
        similarity,
    })
}

/// Rebuilds a live graph + ingest state from a validated snapshot.
///
/// The snapshot's similarity outputs are checked against the corpus it
/// carries and seeded into the ingest state's memos; the graph is then
/// re-emitted by the one construction sequence [`build::build`] and
/// [`MalGraph::apply_delta`] run, which finds every memo's entry-list
/// length unchanged (append-only entry lists make an equal length proof
/// of equality) and so reuses every output: restore recomputes nothing.
///
/// # Errors
///
/// `Malformed` when the snapshot's similarity outputs do not line up
/// with the corpus it carries — an ecosystem listed twice, listed with
/// no similarity job, missing, covering a different number of entries,
/// or holding a pair that is reflexive or names an entry past the end.
/// That is a spliced or hand-edited snapshot; the recovery ladder
/// treats it like any other corruption.
pub fn restore(snapshot: Snapshot, options: &BuildOptions) -> Result<(MalGraph, IngestState), CheckpointError> {
    let _span = obs::span!("recover/restore");
    let mut state = IngestState::new();
    state.dataset = snapshot.dataset;
    state.windows = snapshot.windows_applied;
    let jobs = build::similarity_job_sizes(&state.dataset.packages);
    let malformed = |what: String| CheckpointError::Malformed(format!("snapshot similarity {what}"));
    // Consumed by-value so the corpus and the pair lists (hundreds of
    // megabytes at full scale) move instead of cloning.
    for (eco, entries_len, output) in snapshot.similarity {
        let Some(&(_, len)) = jobs.iter().find(|(job, _)| *job == eco) else {
            return Err(malformed(format!("lists {}, which has no similarity job", eco.slug())));
        };
        let memo = &mut state.eco[build::eco_slot(eco)];
        if memo.output.is_some() {
            return Err(malformed(format!("lists {} twice", eco.slug())));
        }
        if entries_len != len {
            return Err(malformed(format!(
                "for {} covers {entries_len} entries, corpus has {len}",
                eco.slug()
            )));
        }
        if let Some((a, b)) = output.pairs.iter().find(|&&(a, b)| a == b || a.max(b) >= len) {
            return Err(malformed(format!(
                "for {} pairs {a} with {b} among {len} entries",
                eco.slug()
            )));
        }
        memo.entries_len = entries_len;
        memo.output = Some(Arc::new(output));
    }
    if let Some((eco, _)) = jobs.iter().find(|(eco, _)| state.eco[build::eco_slot(*eco)].output.is_none()) {
        return Err(malformed(format!("lacks an output for {}", eco.slug())));
    }
    let mut graph = MalGraph::empty();
    graph
        .emit(
            &state.dataset,
            0,
            &mut state.nodes_by_pkg,
            &mut state.eco,
            options,
            &CrashPlan::none(),
        )
        .expect("an unarmed crash plan never fires");
    Ok((graph, state))
}

/// The recovery fallback ladder: newest generation → older generations
/// → journal replay → (implicitly) full rebuild from an empty graph.
/// Every rung is counted:
///
/// * `recovery.resumed{stage=checkpoint}` — a generation loaded;
/// * `recovery.discarded{stage=checkpoint}` — a generation failed
///   validation and was skipped;
/// * `recovery.fallbacks{stage=generation}` — fell back from a failed
///   generation to try an older one (or the journal);
/// * `recovery.replayed{stage=journal}` — one journaled delta replayed
///   beyond the resumed generation;
/// * `recovery.discarded{stage=journal}` — a journal entry failed
///   validation, ending replay at that window;
/// * `recovery.fallbacks{stage=rebuild}` — the ladder bottomed out with
///   nothing usable although checkpoint data existed.
///
/// A pristine directory recovers to an empty graph with *zero* counters
/// — a cold start is not a fallback.
///
/// # Errors
///
/// Only real I/O failures (unreadable directory). Corruption never
/// errors out of recovery; it degrades.
pub fn recover(
    store: &CheckpointStore,
    options: &BuildOptions,
) -> Result<(MalGraph, IngestState), CheckpointError> {
    let _span = obs::span!("recover");
    let generations = store.generations()?;
    let had_generations = !generations.is_empty();
    let mut resumed: Option<(MalGraph, IngestState)> = None;
    {
        let _stage = obs::span!("recover/checkpoint");
        for &windows in generations.iter().rev() {
            match store.read_generation(windows).and_then(|s| restore(s, options)) {
                Ok(pair) => {
                    obs::counter_add("recovery.resumed{stage=checkpoint}", 1);
                    resumed = Some(pair);
                    break;
                }
                Err(_) => {
                    obs::counter_add("recovery.discarded{stage=checkpoint}", 1);
                    obs::counter_add("recovery.fallbacks{stage=generation}", 1);
                }
            }
        }
    }
    let (mut graph, mut state) = resumed.unwrap_or_else(|| (MalGraph::empty(), IngestState::new()));
    let mut journal_tail_corrupt = false;
    {
        let _stage = obs::span!("recover/journal");
        loop {
            match store.read_journal(state.windows_applied()) {
                Ok(Some(delta)) => {
                    graph.apply_delta(&delta, options, &mut state);
                    obs::counter_add("recovery.replayed{stage=journal}", 1);
                }
                Ok(None) => break,
                Err(_) => {
                    // Replay must stop at the first bad entry: windows
                    // apply in order, so later entries are unreachable.
                    obs::counter_add("recovery.discarded{stage=journal}", 1);
                    journal_tail_corrupt = true;
                    break;
                }
            }
        }
    }
    if state.windows_applied() == 0 && (had_generations || journal_tail_corrupt) {
        obs::counter_add("recovery.fallbacks{stage=rebuild}", 1);
    }
    Ok((graph, state))
}

/// Generation retention / cadence of the checkpointed driver.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointOptions {
    /// Write a generation every `every` windows (the last window always
    /// checkpoints, so a finished run is resumable as finished).
    pub every: usize,
    /// Generations retained after each write (≥ 1; the default keeps
    /// two so a corrupted latest still has a predecessor).
    pub keep: usize,
}

impl Default for CheckpointOptions {
    fn default() -> CheckpointOptions {
        CheckpointOptions { every: 1, keep: 2 }
    }
}

/// The checkpointed ingest driver: recover whatever the directory
/// holds, then journal + apply + checkpoint each remaining delta of
/// `deltas` (which must be the full window plan of the run — recovery
/// decides where in it to resume). Kill it at any [`CRASH_POINTS`]
/// entry, run it again, and the final graph/state are byte-identical to
/// an uninterrupted run.
///
/// # Errors
///
/// [`IngestRunError::Crashed`] when the armed crash point fired (the
/// returned graph/state would be torn, so there are none), or
/// [`IngestRunError::Store`] on a real checkpoint-store failure.
pub fn run_checkpointed_ingest(
    deltas: &[CorpusDelta],
    options: &BuildOptions,
    store: &CheckpointStore,
    crash: &CrashPlan,
    checkpointing: &CheckpointOptions,
) -> Result<(MalGraph, IngestState), IngestRunError> {
    let _span = obs::span!("ingest/checkpointed");
    crash.fire("collect/merge").map_err(IngestRunError::Crashed)?;
    let (mut graph, mut state) = recover(store, options).map_err(IngestRunError::Store)?;
    let every = checkpointing.every.max(1);
    let checkpoint = |state: &IngestState| -> Result<(), IngestRunError> {
        crash.fire("checkpoint/write").map_err(IngestRunError::Crashed)?;
        store.write_generation(state).map_err(IngestRunError::Store)?;
        crash.fire("checkpoint/publish").map_err(IngestRunError::Crashed)?;
        store
            .prune_generations(checkpointing.keep.max(1))
            .map_err(IngestRunError::Store)
    };
    for delta in crawler::resume_windows(deltas, state.windows_applied()) {
        store.append_journal(delta).map_err(IngestRunError::Store)?;
        crash.fire("ingest/journal").map_err(IngestRunError::Crashed)?;
        graph
            .apply_delta_with(delta, options, &mut state, crash)
            .map_err(IngestRunError::Crashed)?;
        let finished = state.windows_applied() == deltas.len();
        if state.windows_applied() % every == 0 || finished {
            checkpoint(&state)?;
        }
    }
    // A resume can finish the plan inside `recover` (journal replay
    // caught up) without the loop running at all; seal the final
    // generation anyway, so a finished run restores as finished instead
    // of re-replaying its last windows on every recovery.
    if state.windows_applied() == deltas.len()
        && !deltas.is_empty()
        && store
            .generations()
            .map_err(IngestRunError::Store)?
            .last()
            .copied()
            != Some(deltas.len())
    {
        checkpoint(&state)?;
    }
    Ok((graph, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::node::Relation;
    use crawler::{collect, partition_windows};
    use registry_sim::{WindowPlan, World, WorldConfig};
    use std::sync::{OnceLock, RwLock};

    /// The obs registry is process-global. The one test that *reads*
    /// recovery counters takes the write side; every test that might
    /// *emit* them (anything calling `recover` or the driver) takes the
    /// read side, so emitters never land inside the reader's window.
    fn obs_gate() -> &'static RwLock<()> {
        static GATE: OnceLock<RwLock<()>> = OnceLock::new();
        GATE.get_or_init(RwLock::default)
    }

    fn temp_store(name: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("malgraph-ckpt-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(&dir).unwrap()
    }

    fn fixture() -> (Vec<CorpusDelta>, BuildOptions) {
        let world = World::generate(WorldConfig::small(37));
        let dataset = collect(&world);
        let plan = WindowPlan::disclosure_quantiles(&world, 3);
        (partition_windows(&dataset, &plan), BuildOptions::default())
    }

    fn graph_signature(graph: &MalGraph) -> (usize, Vec<(usize, usize, Relation)>) {
        (
            graph.graph.node_count(),
            graph
                .graph
                .edges()
                .map(|e| (e.from.index(), e.to.index(), e.label))
                .collect(),
        )
    }

    #[test]
    fn uninterrupted_checkpointed_run_matches_oracle() {
        let _gate = obs_gate().read().unwrap_or_else(|e| e.into_inner());
        let (deltas, options) = fixture();
        let store = temp_store("clean");
        let (graph, state) =
            run_checkpointed_ingest(&deltas, &options, &store, &CrashPlan::none(), &CheckpointOptions::default())
                .unwrap();
        let oracle = build(&crawler::union_dataset(&deltas), &options);
        assert_eq!(graph_signature(&graph), graph_signature(&oracle));
        assert_eq!(state.windows_applied(), deltas.len());
        // Last two generations retained, all journals retained.
        let generations = store.generations().unwrap();
        assert_eq!(generations, vec![deltas.len() - 1, deltas.len()]);
        for w in 0..deltas.len() {
            assert!(store.read_journal(w).unwrap().is_some());
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn snapshot_round_trips_and_restores_identically() {
        let _gate = obs_gate().read().unwrap_or_else(|e| e.into_inner());
        let (deltas, options) = fixture();
        let store = temp_store("roundtrip");
        let (graph, state) =
            run_checkpointed_ingest(&deltas, &options, &store, &CrashPlan::none(), &CheckpointOptions::default())
                .unwrap();
        let snapshot = store.read_generation(deltas.len()).unwrap();
        assert_eq!(snapshot.windows_applied, deltas.len());
        assert_eq!(snapshot.dataset.packages, state.dataset().packages);
        let (restored, restored_state) = restore(snapshot, &options).unwrap();
        assert_eq!(graph_signature(&restored), graph_signature(&graph));
        assert_eq!(restored_state.windows_applied(), state.windows_applied());
        // Diagnostics — including the f32 traces — must be bit-exact.
        assert_eq!(
            restored.similarity_diagnostics.len(),
            graph.similarity_diagnostics.len()
        );
        for ((ea, oa), (eb, ob)) in restored
            .similarity_diagnostics
            .iter()
            .zip(&graph.similarity_diagnostics)
        {
            assert_eq!(ea, eb);
            assert_eq!(oa.pairs, ob.pairs);
            assert_eq!(oa.chosen_k, ob.chosen_k);
            let bits_a: Vec<(usize, u32)> = oa.trace.iter().map(|&(k, f)| (k, f.to_bits())).collect();
            let bits_b: Vec<(usize, u32)> = ob.trace.iter().map(|&(k, f)| (k, f.to_bits())).collect();
            assert_eq!(bits_a, bits_b, "f32 traces must round-trip exactly");
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn recovery_of_pristine_directory_is_a_cold_start() {
        let _gate = obs_gate().write().unwrap_or_else(|e| e.into_inner());
        let store = temp_store("pristine");
        obs::reset();
        obs::enable();
        let (graph, state) = recover(&store, &BuildOptions::default()).unwrap();
        let snap = obs::snapshot();
        obs::disable();
        assert_eq!(graph.graph.node_count(), 0);
        assert_eq!(state.windows_applied(), 0);
        assert!(
            !snap.counters.iter().any(|(name, _)| name.starts_with("recovery.")),
            "cold start must not count as recovery: {:?}",
            snap.counters
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn bit_flip_in_latest_generation_falls_back_to_previous() {
        let _gate = obs_gate().read().unwrap_or_else(|e| e.into_inner());
        let (deltas, options) = fixture();
        let store = temp_store("bitflip");
        let (graph, _) =
            run_checkpointed_ingest(&deltas, &options, &store, &CrashPlan::none(), &CheckpointOptions::default())
                .unwrap();
        // Flip one bit inside the body of the newest generation.
        let path = store.dir().join(format!("gen-{:06}.json", deltas.len()));
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.len() - 40;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.read_generation(deltas.len()),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        let (recovered, state) = recover(&store, &options).unwrap();
        assert_eq!(state.windows_applied(), deltas.len(), "journal replay catches up");
        assert_eq!(graph_signature(&recovered), graph_signature(&graph));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn an_uninterrupted_run_fires_every_crash_point_on_schedule() {
        let _gate = obs_gate().read().unwrap_or_else(|e| e.into_inner());
        let (deltas, options) = fixture();
        let store = temp_store("protocol");
        let crash = CrashPlan::none();
        run_checkpointed_ingest(&deltas, &options, &store, &crash, &CheckpointOptions::default())
            .unwrap();
        // An ecosystem's similarity is recomputed in each window that
        // grows its entry list (its available packages) to two or more.
        let mut recomputed = 0u32;
        let mut entries = [0usize; Ecosystem::ALL.len()];
        for delta in &deltas {
            for (slot, &eco) in Ecosystem::ALL.iter().enumerate() {
                let added = delta
                    .packages
                    .iter()
                    .filter(|p| p.id.ecosystem() == eco && p.archive.is_some())
                    .count();
                entries[slot] += added;
                if added > 0 && entries[slot] >= 2 {
                    recomputed += 1;
                }
            }
        }
        assert!(recomputed > 0);
        let windows = deltas.len() as u32;
        for &point in CRASH_POINTS {
            let expected = match point {
                "collect/merge" => 1,
                "similar/publish" => recomputed,
                _ => windows,
            };
            assert_eq!(crash.hits(point), expected, "hits of {point}");
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Makes the first similarity entry of generation `windows` start
    /// with `pair`, then reseals the file, so only the snapshot's own
    /// validation stands between the pair and the graph.
    fn reseal_with_first_pair(store: &CheckpointStore, windows: usize, pair: &str) {
        let path = store.generation_path(windows);
        let body = open_body(&path, GENERATION_TAG).unwrap().unwrap();
        let at = body.find("\"pairs\":\"").expect("a similarity entry") + "\"pairs\":\"".len();
        let sep = if body[at..].starts_with('"') { "" } else { " " };
        let body = format!("{}{pair}{sep}{}", &body[..at], &body[at..]);
        seal_body(&path, GENERATION_TAG, &body).unwrap();
    }

    #[test]
    fn impossible_similar_pairs_are_discarded_at_restore() {
        let _gate = obs_gate().write().unwrap_or_else(|e| e.into_inner());
        let (deltas, options) = fixture();
        for (name, pair) in [("pair-range", "0,999999"), ("pair-self", "1,1")] {
            let store = temp_store(name);
            let (graph, _) = run_checkpointed_ingest(
                &deltas,
                &options,
                &store,
                &CrashPlan::none(),
                &CheckpointOptions::default(),
            )
            .unwrap();
            reseal_with_first_pair(&store, deltas.len(), pair);
            let snapshot = store.read_generation(deltas.len()).unwrap();
            assert!(
                matches!(restore(snapshot, &options), Err(CheckpointError::Malformed(_))),
                "pair {pair} must be rejected"
            );
            obs::reset();
            obs::enable();
            let (recovered, state) = recover(&store, &options).unwrap();
            let snap = obs::snapshot();
            obs::disable();
            let counter = |name: &str| {
                snap.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
            };
            assert_eq!(counter("recovery.discarded{stage=checkpoint}"), 1, "{pair}");
            assert_eq!(counter("recovery.fallbacks{stage=generation}"), 1, "{pair}");
            assert_eq!(counter("recovery.resumed{stage=checkpoint}"), 1, "{pair}");
            assert_eq!(counter("recovery.replayed{stage=journal}"), 1, "{pair}");
            assert_eq!(state.windows_applied(), deltas.len());
            assert_eq!(graph_signature(&recovered), graph_signature(&graph), "{pair}");
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }

    #[test]
    fn restore_rejects_an_ecosystem_listed_twice_or_without_a_job() {
        let _gate = obs_gate().read().unwrap_or_else(|e| e.into_inner());
        let (deltas, options) = fixture();
        let store = temp_store("listing");
        run_checkpointed_ingest(&deltas, &options, &store, &CrashPlan::none(), &CheckpointOptions::default())
            .unwrap();
        let mut twice = store.read_generation(deltas.len()).unwrap();
        let first = twice.similarity[0].clone();
        twice.similarity.push(first);
        assert!(matches!(restore(twice, &options), Err(CheckpointError::Malformed(_))));
        // Leave the first listed ecosystem one available package: it
        // has no similarity job, yet the snapshot still lists it.
        let mut jobless = store.read_generation(deltas.len()).unwrap();
        let eco = jobless.similarity[0].0;
        let mut kept = false;
        for pkg in jobless.dataset.packages.iter_mut() {
            if pkg.id.ecosystem() == eco && pkg.archive.is_some() {
                if kept {
                    pkg.archive = None;
                }
                kept = true;
            }
        }
        assert!(matches!(restore(jobless, &options), Err(CheckpointError::Malformed(_))));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn run_stamp_round_trips_exactly() {
        let store = temp_store("stamp");
        assert!(store.run_stamp().unwrap().is_none());
        let stamp = RunStamp::new(42, 0.1, 7);
        store.write_run_stamp(&stamp).unwrap();
        let back = store.run_stamp().unwrap().unwrap();
        assert_eq!(back, stamp);
        assert_eq!(back.scale(), 0.1, "f64 scale is bit-exact");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn truncated_journal_entry_stops_replay_without_panicking() {
        let _gate = obs_gate().read().unwrap_or_else(|e| e.into_inner());
        let (deltas, options) = fixture();
        let store = temp_store("tornjournal");
        for delta in &deltas {
            store.append_journal(delta).unwrap();
        }
        // Truncate the second entry mid-body.
        let path = store.dir().join("journal").join("window-000001.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let (graph, state) = recover(&store, &options).unwrap();
        assert_eq!(state.windows_applied(), 1, "replay stops at the torn entry");
        let oracle = build(&crawler::union_dataset(&deltas[..1]), &options);
        assert_eq!(graph_signature(&graph), graph_signature(&oracle));
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
