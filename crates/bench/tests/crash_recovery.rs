//! The crash-fault injection matrix (ISSUE 10): every named crash point
//! of the checkpointed ingest driver, at 1 and 7 similarity threads,
//! under both a clean resume and a corrupted-latest-checkpoint fallback.
//!
//! Every cell follows the same script:
//!
//! 1. run the driver with the cell's crash point armed and assert the
//!    simulated crash actually fired there;
//! 2. (fallback cells) flip one bit inside the newest generation
//!    snapshot the crash left behind;
//! 3. predict the exact `recovery.*` counters the resume must emit from
//!    nothing but the on-disk state — generations present, journal
//!    length, which file was corrupted;
//! 4. resume with an unarmed plan and assert (a) the recovery counters
//!    equal the prediction *exactly* (no extra rungs, no missing ones)
//!    and (b) the finished graph is **byte-identical** to an
//!    uninterrupted one-shot build over the union corpus — node table,
//!    edge list, and similarity diagnostics down to the `f32` bits.
//!
//! The counter prediction is deliberately derived from disk, not from
//! knowledge of which point crashed: if recovery ever takes a different
//! ladder path than its own artifacts imply, the cell fails.

use crawler::{collect, partition_windows, union_dataset, CorpusDelta};
use malgraph_core::{
    build, run_checkpointed_ingest, BuildOptions, CheckpointOptions, CheckpointStore,
    IngestRunError, MalGraph, CRASH_POINTS,
};
use oss_types::CrashPlan;
use registry_sim::{FaultPlan, WindowPlan, World, WorldConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{OnceLock, RwLock};

/// The obs registry is process-global: the matrix test reads counters
/// between `reset` and `snapshot`, so any other test that might emit
/// `recovery.*` takes the read side while the matrix holds write.
fn obs_gate() -> &'static RwLock<()> {
    static GATE: OnceLock<RwLock<()>> = OnceLock::new();
    GATE.get_or_init(RwLock::default)
}

fn fixture() -> Vec<CorpusDelta> {
    let world = World::generate(WorldConfig::small(37));
    let dataset = collect(&world);
    let plan = WindowPlan::disclosure_quantiles(&world, 3);
    partition_windows(&dataset, &plan)
}

/// Per-ecosystem similarity diagnostics in comparable form: name, pairs,
/// chosen k, and the trace floats as raw bits.
type DiagnosticsSignature = Vec<(String, Vec<(usize, usize)>, usize, Vec<(usize, u32)>)>;
/// Everything the byte-identity contract covers: node table, edge list,
/// similarity diagnostics.
type GraphSignature = (
    Vec<String>,
    Vec<(usize, usize, String)>,
    DiagnosticsSignature,
);

fn signature(graph: &MalGraph) -> GraphSignature {
    let nodes = graph.graph.nodes().map(|(_, n)| format!("{n:?}")).collect();
    let edges = graph
        .graph
        .edges()
        .map(|e| (e.from.index(), e.to.index(), format!("{:?}", e.label)))
        .collect();
    let diagnostics = graph
        .similarity_diagnostics
        .iter()
        .map(|(eco, out)| {
            (
                format!("{eco:?}"),
                out.pairs.iter().copied().collect(),
                out.chosen_k,
                out.trace.iter().map(|&(k, f)| (k, f.to_bits())).collect(),
            )
        })
        .collect();
    (nodes, edges, diagnostics)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("malgraph-crashmx-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Flips one bit in the body of `path` (well past the envelope header),
/// returning false when the file does not exist.
fn flip_bit(path: &Path) -> bool {
    let Ok(mut bytes) = std::fs::read(path) else {
        return false;
    };
    let target = bytes.len() - 40;
    bytes[target] ^= 0x08;
    std::fs::write(path, &bytes).expect("rewrite corrupted file");
    true
}

/// Predicts the exact `recovery.*` counters a resume over `store` must
/// emit, from the on-disk state alone. `corrupted_newest` marks whether
/// the newest generation file was bit-flipped after the crash.
fn predict_counters(store: &CheckpointStore, corrupted_newest: bool) -> BTreeMap<String, u64> {
    let generations = store.generations().expect("list generations");
    let valid: Vec<usize> = if corrupted_newest && !generations.is_empty() {
        generations[..generations.len() - 1].to_vec()
    } else {
        generations.clone()
    };
    let mut journal_len = 0usize;
    while store
        .read_journal(journal_len)
        .expect("journal entries written atomically before a crash are readable")
        .is_some()
    {
        journal_len += 1;
    }
    let base = valid.last().copied().unwrap_or(0);
    let replayed = journal_len.saturating_sub(base) as u64;

    let mut expected = BTreeMap::new();
    let mut add = |name: &str, value: u64| {
        if value > 0 {
            expected.insert(name.to_string(), value);
        }
    };
    if corrupted_newest && !generations.is_empty() {
        add("recovery.discarded{stage=checkpoint}", 1);
        add("recovery.fallbacks{stage=generation}", 1);
    }
    add(
        "recovery.resumed{stage=checkpoint}",
        !valid.is_empty() as u64,
    );
    add("recovery.replayed{stage=journal}", replayed);
    if base == 0 && journal_len == 0 && !generations.is_empty() {
        add("recovery.fallbacks{stage=rebuild}", 1);
    }
    expected
}

/// Every crash point × {1, 7} threads × {clean, corrupted-latest}. One
/// test function on purpose: the cells share the process-global obs
/// registry, and the reset/snapshot windows must not interleave.
#[test]
fn crash_matrix_resumes_byte_identically_with_exact_counters() {
    let _gate = obs_gate().write().unwrap_or_else(|e| e.into_inner());
    let deltas = fixture();
    let union = union_dataset(&deltas);

    for threads in [1usize, 7] {
        let mut options = BuildOptions::default();
        options.similarity.threads = threads;
        let oracle = signature(&build(&union, &options));

        for (index, &point) in CRASH_POINTS.iter().enumerate() {
            // Arm the second occurrence where the point repeats per
            // window (a mid-run crash, with durable state already
            // behind it); `collect/merge` fires once per invocation,
            // so only its first occurrence is reachable.
            let occurrence = if point == "collect/merge" { 1 } else { 2 };
            for corrupt_latest in [false, true] {
                let tag = format!("t{threads}-p{index}-c{}", u8::from(corrupt_latest));
                let dir = temp_dir(&tag);
                let store = CheckpointStore::open(&dir).expect("open store");

                let crashed = run_checkpointed_ingest(
                    &deltas,
                    &options,
                    &store,
                    &CrashPlan::at(point, occurrence),
                    &CheckpointOptions::default(),
                );
                match crashed {
                    Err(IngestRunError::Crashed(signal)) => {
                        assert_eq!(signal.point, point, "wrong crash point fired");
                        assert_eq!(signal.occurrence, occurrence);
                    }
                    Ok(_) => panic!("armed {point}:{occurrence} did not fire"),
                    Err(IngestRunError::Store(e)) => panic!("store error instead of crash: {e}"),
                }

                let mut corrupted_newest = false;
                if corrupt_latest {
                    if let Some(&newest) = store.generations().expect("list").last() {
                        corrupted_newest = flip_bit(&dir.join(format!("gen-{newest:06}.json")));
                    }
                }
                let expected = predict_counters(&store, corrupted_newest);

                obs::reset();
                obs::enable();
                let resumed = run_checkpointed_ingest(
                    &deltas,
                    &options,
                    &store,
                    &CrashPlan::none(),
                    &CheckpointOptions::default(),
                );
                let snap = obs::snapshot();
                obs::disable();

                let (graph, state) = resumed.unwrap_or_else(|e| {
                    panic!("resume failed at {point}:{occurrence} (threads {threads}): {e}")
                });
                let actual: BTreeMap<String, u64> = snap
                    .counters
                    .iter()
                    .filter(|(name, _)| name.starts_with("recovery."))
                    .map(|(name, value)| (name.clone(), *value))
                    .collect();
                assert_eq!(
                    actual, expected,
                    "recovery counters diverged at {point}:{occurrence} \
                     (threads {threads}, corrupted {corrupt_latest})"
                );

                assert_eq!(state.windows_applied(), deltas.len());
                assert_eq!(state.dataset().packages, union.packages);
                assert_eq!(state.dataset().reports, union.reports);
                assert_eq!(
                    signature(&graph),
                    oracle,
                    "resume after {point}:{occurrence} (threads {threads}, corrupted \
                     {corrupt_latest}) is not byte-identical to the uninterrupted build"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// The seeded side of the injector: `FaultPlan::crash_plan` derives a
/// (point, occurrence) pair from the same keyed-stream fault engine the
/// transport uses, and a run killed by that plan still resumes to the
/// oracle — the path the sweep harnesses use when no explicit
/// `--crash-at` is given.
#[test]
fn fault_plan_seeded_crashes_resume_to_the_oracle() {
    let _gate = obs_gate().read().unwrap_or_else(|e| e.into_inner());
    let deltas = fixture();
    let union = union_dataset(&deltas);
    let options = BuildOptions::default();
    let oracle = signature(&build(&union, &options));
    let faults = FaultPlan::new(99);

    for case in 0..4u64 {
        let crash = faults.crash_plan(case, CRASH_POINTS);
        let (point, occurrence) = crash.armed().expect("a non-empty point set arms a point");
        let dir = temp_dir(&format!("seeded-{case}"));
        let store = CheckpointStore::open(&dir).expect("open store");
        match run_checkpointed_ingest(
            &deltas,
            &options,
            &store,
            &crash,
            &CheckpointOptions::default(),
        ) {
            Err(IngestRunError::Crashed(signal)) => {
                assert_eq!(signal.point, point);
                assert_eq!(signal.occurrence, occurrence);
            }
            // High occurrences of once-per-run points never fire; the
            // run completing is the correct outcome for those draws.
            Ok(_) => {}
            Err(IngestRunError::Store(e)) => panic!("store error: {e}"),
        }
        let (graph, state) = run_checkpointed_ingest(
            &deltas,
            &options,
            &store,
            &CrashPlan::none(),
            &CheckpointOptions::default(),
        )
        .expect("resume");
        assert_eq!(state.windows_applied(), deltas.len());
        assert_eq!(signature(&graph), oracle, "seeded case {case} diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
