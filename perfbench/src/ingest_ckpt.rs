//! `ingest_ckpt`: windowed ingestion with crash-consistent checkpoints.
//! Set-up generates and collects a world and splits its corpus into
//! disclosure-quantile windows. One pass runs the checkpointed ingest
//! of one world into an empty directory, fsyncs on, then recovers a
//! live graph from the sealed directory.

use crate::layers::{self, in_span, Layers};
use crate::{Args, Report, Stopwatch, Timed};
use crawler::{collect, partition_windows, CorpusDelta};
use malgraph_core::{
    recover, run_checkpointed_ingest, BuildOptions, CheckpointError, CheckpointOptions,
    CheckpointStore, IngestState, MalGraph, Relation,
};
use oss_types::{CrashPlan, Sha256};
use registry_sim::{WindowPlan, World};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Windows asked of the disclosure-quantile plan; tied quantiles merge,
/// so the plan may hold fewer.
const WINDOWS: usize = 10;
/// A quarter of the paper's corpus, so a pass takes a second or two.
const SCALE: f64 = 0.25;
/// Worlds in an untraced run's sample. The work of one world's ingest
/// varies by about a fifth from seed to seed (K-Means iterations, pairs
/// screened), so a run averages over five.
const WORLDS: usize = 5;

type Ingested = Result<(MalGraph, IngestState), String>;

pub fn run(args: &Args, report: &mut Report) {
    let seeds = crate::world_seeds(args.seed, WORLDS, args.trace);
    report.fact("scale", SCALE);
    report.fact("worlds", seeds.len());
    let dir = crate::work_dir("ingest_ckpt");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        crate::fatal(&format!("cannot create {}: {e}", dir.display()));
    }
    report.fact("checkpoint_filesystem", crate::filesystem_of(&dir));
    let mut generate_s = Vec::new();
    let mut collect_s = Vec::new();
    let (inputs, setup) = crate::set_up(&seeds, |w, seed| {
        let (world, secs) = crate::timed(|| World::generate(crate::world_config(seed, SCALE)));
        generate_s.push(secs);
        let (dataset, secs) = crate::timed(|| collect(&world));
        collect_s.push(secs);
        let plan = WindowPlan::disclosure_quantiles(&world, WINDOWS);
        let deltas = partition_windows(&dataset, &plan);
        crate::world_facts(w, &world, report);
        report.world_fact(w, "windows", deltas.len());
        deltas
    });

    if !args.trace {
        let (mut ingest, mut resume) = (Vec::new(), Vec::new());
        let times = crate::untraced_run(args.seconds, inputs, |w, deltas| {
            let (time, ingest_s) = untraced_pass(w, &deltas, &dir, report);
            ingest.push(ingest_s);
            resume.push(time.wall_s - ingest_s);
            (deltas, time)
        });
        report.end_to_end(&times, &setup);
        report.fact("ingest_s", crate::median(&ingest));
        report.fact("resume_s", crate::median(&resume));
    } else {
        let deltas = &inputs[0];
        // Collection is set-up here; one extra traced collect of the
        // same world counts its fetch attempts.
        let world = World::generate(crate::world_config(seeds[0], SCALE));
        crate::traced();
        drop(collect(&world));
        let attempts = layers::counter(&obs::snapshot(), "crawler.attempts");
        crate::end_traced();
        drop(world);
        // An untimed warm-up pass, so every pass compared for
        // `obs.overhead_frac` runs warm.
        untraced_pass(0, deltas, &dir, report);
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        for _ in 0..2 {
            let (time, _) = untraced_pass(0, deltas, &dir, report);
            untraced.push(time.wall_s);
            traced.push(traced_pass(deltas, &dir, report));
        }
        report.set("world.generate_s", crate::median(&generate_s));
        report.set("crawler.collect_s", crate::median(&collect_s));
        report.set("crawler.attempts", attempts as f64);
        layers::merge(report, &traced[0], &traced[1], &untraced);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An empty checkpoint store in `dir`.
fn fresh_store(dir: &Path) -> CheckpointStore {
    let _ = std::fs::remove_dir_all(dir);
    CheckpointStore::open(dir).unwrap_or_else(|e| {
        crate::fatal(&format!(
            "cannot open a checkpoint store in {}: {e}",
            dir.display()
        ))
    })
}

/// One pass; returns its time and the wall time of the ingest alone.
fn untraced_pass(
    w: usize,
    deltas: &[CorpusDelta],
    dir: &Path,
    report: &mut Report,
) -> (Timed, f64) {
    let store = fresh_store(dir);
    let options = BuildOptions::default();
    crate::untraced();
    let mut watch = Stopwatch::start();
    let live = watch.stage(|| {
        run_checkpointed_ingest(
            deltas,
            &options,
            &store,
            &CrashPlan::none(),
            &CheckpointOptions::default(),
        )
    });
    let ingest_s = watch.wall_s();
    let recovered = watch.stage(|| recover(&store, &options));
    let time = watch.stop();
    report.obs_left_on();
    let live = live.map_err(|e| e.to_string());
    let recovered = recovered.map_err(|e| e.to_string());
    check(w, deltas.len(), &live, &recovered, report);
    (time, ingest_s)
}

/// Benchmark timers of one traced replay of `run_checkpointed_ingest`.
#[derive(Default)]
struct Replay {
    recover_empty_s: f64,
    journal_s: f64,
    apply_s: f64,
    apply_last_s: f64,
    write_s: f64,
    bytes_written: u64,
    /// Sealed files that were not where the store's naming puts them.
    missing: Vec<PathBuf>,
}

impl Replay {
    /// Adds the size of a sealed file the store just wrote.
    fn written(&mut self, path: PathBuf) {
        match std::fs::metadata(&path) {
            Ok(meta) => self.bytes_written += meta.len(),
            Err(_) => self.missing.push(path),
        }
    }
}

/// Replays `run_checkpointed_ingest` step by step, in its order: recover
/// the empty directory, then per window journal, apply, write a
/// generation and prune old ones. Every step runs in a benchmark span.
fn replay(
    deltas: &[CorpusDelta],
    store: &CheckpointStore,
    options: &BuildOptions,
    t: &mut Replay,
) -> Result<(MalGraph, IngestState), CheckpointError> {
    let keep = CheckpointOptions::default().keep.max(1);
    let (mut graph, mut state) = in_span(
        "bench/checkpoint.recover_empty",
        &mut t.recover_empty_s,
        || recover(store, options),
    )?;
    for delta in deltas {
        in_span("bench/checkpoint.journal", &mut t.journal_s, || {
            store.append_journal(delta)
        })?;
        t.written(
            store
                .dir()
                .join("journal")
                .join(format!("window-{:06}.json", delta.window)),
        );
        let mut apply_s = 0.0;
        in_span("bench/ingest.apply", &mut apply_s, || {
            graph.apply_delta(delta, options, &mut state)
        });
        t.apply_s += apply_s;
        t.apply_last_s = apply_s;
        in_span("bench/checkpoint.write", &mut t.write_s, || {
            store.write_generation(&state)
        })?;
        t.written(
            store
                .dir()
                .join(format!("gen-{:06}.json", state.windows_applied())),
        );
        in_span("bench/checkpoint.write", &mut t.write_s, || {
            store.prune_generations(keep)
        })?;
    }
    Ok((graph, state))
}

fn traced_pass(deltas: &[CorpusDelta], dir: &Path, report: &mut Report) -> Layers {
    let store = fresh_store(dir);
    let options = BuildOptions::default();
    let mut t = Replay::default();
    let mut recover_s = 0.0;
    crate::traced();
    let start = Instant::now();
    let live = replay(deltas, &store, &options, &mut t);
    let recovered = in_span("bench/checkpoint.recover", &mut recover_s, || {
        recover(&store, &options)
    });
    let main_s = start.elapsed().as_secs_f64();
    let snap = obs::snapshot();
    crate::end_traced();

    let mut l = Layers {
        main_s,
        attributed_s: t.recover_empty_s + t.journal_s + t.apply_s + t.write_s + recover_s,
        ..Layers::default()
    };
    l.time("ingest.apply_s", t.apply_s);
    l.time("ingest.apply_last_s", t.apply_last_s);
    l.time(
        "ingest.edges_s",
        layers::span_self_s(&snap, "ingest/delta/edges"),
    );
    for (metric, span) in [
        ("similarity.embed_s", "similarity/embed"),
        ("similarity.schedule_s", "similarity/schedule"),
        ("similarity.refine_s", "similarity/refine"),
    ] {
        l.time(
            metric,
            layers::leaf_self_s(&snap, "bench/ingest.apply", span),
        );
    }
    l.time("checkpoint.journal_s", t.journal_s);
    l.time("checkpoint.write_s", t.write_s);
    l.time("checkpoint.recover_s", recover_s);
    let count = |name: &str| layers::counter(&snap, name);
    // K-Means and the pair refinement bump the same kernel counters, so
    // this counts point-centroid screens as well as pair screens.
    let screened = count("kernel.pruned_quantized") + count("kernel.rescored");
    l.count(
        "ingest.similarity_recomputed",
        count("ingest.similarity_recomputed"),
    );
    l.count(
        "similarity.embed_cache_hits",
        count("similarity.embed_cache_hits"),
    );
    l.count("kmeans.iterations", count("kmeans.iterations"));
    l.count("kmeans.pruned_distances", count("kmeans.pruned_distances"));
    l.count("similarity.pairs_screened", screened);
    l.count("similarity.pairs", count("similarity.pairs"));
    l.ratio(
        "similarity.accept_ratio",
        count("similarity.pairs"),
        screened,
    );
    l.count("embed.vectors", count("embed.vectors"));
    l.count(
        "similarity.distinct_vectors",
        count("similarity.distinct_vectors"),
    );
    l.count("checkpoint.bytes_written", t.bytes_written);
    report.check(t.missing.is_empty(), || {
        format!(
            "sealed files not found where checkpoint.bytes_written looks: {:?}",
            t.missing
        )
    });
    report.snapshot = Some(snap.to_json());

    let live = live.map_err(|e| e.to_string());
    let recovered = recovered.map_err(|e| e.to_string());
    check(0, deltas.len(), &live, &recovered, report);
    l
}

/// Output checks of one pass over world `w`, outside its timed part:
/// every window was applied, the recovered graph equals the live one,
/// and the live graph's digest repeats on every pass over the world.
fn check(w: usize, windows: usize, live: &Ingested, recovered: &Ingested, report: &mut Report) {
    let applied = live
        .as_ref()
        .map_or(0, |(_, state)| state.windows_applied());
    let why = live.as_ref().err().cloned().unwrap_or_default();
    for i in 0..windows {
        report.check(i < applied, || {
            format!("world {w}: window {i} was not applied {why}")
        });
    }
    match (live, recovered) {
        (Ok((graph, _)), Ok((restored, state))) => {
            let same = state.windows_applied() == windows && same_graph(graph, restored);
            report.check(same, || {
                format!("world {w}: the recovered graph differs from the live one")
            });
        }
        (Err(_), Ok(_)) => report.check(false, || {
            format!("world {w}: no live graph to compare the recovered one with")
        }),
        (_, Err(e)) => report.check(false, || format!("world {w}: recover failed: {e}")),
    }
    if let Ok((graph, state)) = live {
        report.world_fact(w, "packages", state.dataset().packages.len());
        report.world_fact(w, "reports", state.dataset().reports.len());
        report.same_digest(w, graph_digest(graph));
    }
}

/// Node tables, edge lists, and each ecosystem's similar pairs and
/// chosen k are equal.
fn same_graph(a: &MalGraph, b: &MalGraph) -> bool {
    a.graph
        .nodes()
        .map(|(_, n)| n)
        .eq(b.graph.nodes().map(|(_, n)| n))
        && edge_list(a).eq(edge_list(b))
        && a.similarity_diagnostics.len() == b.similarity_diagnostics.len()
        && a.similarity_diagnostics
            .iter()
            .zip(&b.similarity_diagnostics)
            .all(|((ea, oa), (eb, ob))| {
                ea == eb && oa.chosen_k == ob.chosen_k && oa.pairs == ob.pairs
            })
}

fn edge_list(graph: &MalGraph) -> impl Iterator<Item = (usize, usize, Relation)> + '_ {
    graph
        .graph
        .edges()
        .map(|e| (e.from.index(), e.to.index(), e.label))
}

/// Sha256 over the node table, the edge list, and each ecosystem's
/// chosen k and similar pairs.
fn graph_digest(graph: &MalGraph) -> String {
    let mut text = String::new();
    for (_, node) in graph.graph.nodes() {
        let _ = writeln!(text, "{node:?}");
    }
    let mut bytes = text.into_bytes();
    for (from, to, label) in edge_list(graph) {
        bytes.extend_from_slice(&(from as u32).to_le_bytes());
        bytes.extend_from_slice(&(to as u32).to_le_bytes());
        bytes.push(label as u8);
    }
    for (eco, out) in &graph.similarity_diagnostics {
        bytes.extend_from_slice(eco.slug().as_bytes());
        bytes.extend_from_slice(&(out.chosen_k as u64).to_le_bytes());
        for &(x, y) in &out.pairs {
            bytes.extend_from_slice(&(x as u32).to_le_bytes());
            bytes.extend_from_slice(&(y as u32).to_le_bytes());
        }
    }
    Sha256::digest(&bytes).to_string()
}
