//! `malgraph` — command-line front end for the reproduction.
//!
//! ```text
//! malgraph world   [--seed N] [--scale F]            # world statistics
//! malgraph collect [--seed N] [--scale F] --out P    # corpus → JSON
//!                  [--manifest-only] [--fault-rate F] [--retries N]
//!                  [--fault-seed N] [--threads N]
//! malgraph analyze --corpus P                        # JSON → MALGRAPH → summary
//! malgraph ingest  [--seed N] [--scale F]            # windowed incremental build
//!                  [--windows N] [--threads N] [--verify]
//!                  [--checkpoint-dir DIR] [--crash-at POINT[:N]]
//! malgraph scan <file.pyl> [name]                    # detectors on one file
//! malgraph stats [snapshot.json]                     # pretty-print a metrics snapshot
//! malgraph perf diff <base.json> <new.json>          # regression sentinel
//!                  [--threshold F] [--floor-us N] [--floor-count N] [--all]
//! ```
//!
//! `ingest` replays the corpus as a sequence of disclosure-quantile
//! collection windows and folds each delta into a live graph
//! (`MalGraph::apply_delta`), printing per-window growth; `--verify`
//! additionally runs a one-shot build over the union corpus and checks
//! the incremental graph against it node for node, edge for edge.
//!
//! With `--checkpoint-dir` the run is crash-consistent: every window is
//! journaled and checkpointed to the directory, and an interrupted run
//! invoked again with the same directory (and the same seed/scale/
//! windows — the run stamp refuses a mismatch) resumes where durability
//! left off, finishing with a graph byte-identical to an uninterrupted
//! run. `--crash-at POINT[:N]` arms the deterministic crash injector at
//! a named stage boundary (see `malgraph_core::CRASH_POINTS`); the
//! simulated crash aborts the process with exit code 3, exactly as a
//! `kill -9` would, except addressable in tests.
//!
//! `collect`, `analyze`, `ingest` and `scan` additionally accept the
//! observability flags `--metrics-out <file>` (JSON snapshot, schema
//! `malgraph-obs/2`), `--trace-out <file>` (Chrome trace-event JSON for
//! `chrome://tracing` / Perfetto), `--profile-out <file>` (folded-stack
//! self-time profile for flamegraph.pl/inferno, with allocation
//! accounting switched on) and
//! `--log-level <off|error|warn|info|debug|trace>`.
//!
//! `perf diff` loads two perf artifacts — obs snapshots (`malgraph-obs/1`
//! or `/2`) or `BENCH_*.json` reports — and exits 1 when any span,
//! counter, or timing grew past the noise thresholds; `ci.sh`'s
//! `perf_gate` runs it against the baselines checked in under
//! `baselines/`.
//!
//! `collect` + `analyze` round-trip through the export format, the flow a
//! downstream lab would use with a published corpus. With `--fault-rate`
//! the collection runs through the unreliable transport — transient
//! faults at the given rate, bounded retry/backoff — and prints the
//! per-source health table.

use malgraph::crawler::{
    collect, collect_with, export_json, import_json, CollectOptions, CollectionHealth,
    ExportFidelity, FetchHealth,
};
use malgraph::detector::{DynamicDetector, StaticDetector};
use malgraph::malgraph_core::analysis::{actors, diversity, evolution, overlap, quality};
use malgraph::malgraph_core::{build, BuildOptions, IngestState, MalGraph};
use malgraph::prelude::*;
use malgraph::registry_sim::WindowPlan;
use malgraph::{jsonio, obs};

// Counting allocator: a transparent System passthrough until a profiling
// flag calls `obs::alloc::enable_tracking()`, then spans charge their
// allocation bytes/calls (surfaced by `--profile-out` and `--metrics-out`).
#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("world") => cmd_world(&args[1..]),
        Some("collect") => cmd_collect(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("scan") => cmd_scan(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("perf") => cmd_perf(&args[1..]),
        _ => {
            eprintln!(
                "usage: malgraph <world|collect|analyze|ingest|scan|stats|perf> …\n\
                 \n\
                 world   [--seed N] [--scale F]\n\
                 collect [--seed N] [--scale F] --out corpus.json [--manifest-only]\n\
                 \x20        [--fault-rate F] [--retries N] [--fault-seed N] [--threads N]\n\
                 analyze --corpus corpus.json\n\
                 ingest  [--seed N] [--scale F] [--windows N] [--threads N] [--verify]\n\
                 \x20        [--checkpoint-dir DIR] [--crash-at POINT[:N]]\n\
                 scan <file.pyl> [package-name]\n\
                 stats   [snapshot.json]\n\
                 perf diff <base.json> <new.json> [--threshold F] [--floor-us N]\n\
                 \x20        [--floor-count N] [--all]\n\
                 \n\
                 collect/analyze/ingest/scan also accept:\n\
                 \x20  --metrics-out FILE   write a metrics snapshot (malgraph-obs/2 JSON)\n\
                 \x20  --trace-out FILE     write a Chrome trace (chrome://tracing, Perfetto)\n\
                 \x20  --profile-out FILE   write a folded-stack self-time profile\n\
                 \x20                       (flamegraph.pl/inferno input; enables alloc accounting)\n\
                 \x20  --log-level LEVEL    off|error|warn|info|debug|trace (default warn)"
            );
            2
        }
    };
    std::process::exit(code);
}

/// The subcommand being parsed; flag validation is per-subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    World,
    Collect,
    Analyze,
    Ingest,
    Scan,
    Stats,
    Perf,
}

impl Cmd {
    fn name(self) -> &'static str {
        match self {
            Cmd::World => "world",
            Cmd::Collect => "collect",
            Cmd::Analyze => "analyze",
            Cmd::Ingest => "ingest",
            Cmd::Scan => "scan",
            Cmd::Stats => "stats",
            Cmd::Perf => "perf",
        }
    }

    /// How many positional arguments the subcommand accepts.
    fn max_positional(self) -> usize {
        match self {
            Cmd::World | Cmd::Collect | Cmd::Analyze | Cmd::Ingest => 0,
            Cmd::Scan => 2,
            Cmd::Stats => 1,
            Cmd::Perf => 3, // "diff" <base> <new>
        }
    }
}

/// The subcommands each flag is valid on; `None` means the flag is
/// unknown everywhere.
fn flag_cmds(flag: &str) -> Option<&'static [Cmd]> {
    use Cmd::*;
    Some(match flag {
        "--seed" | "--scale" => &[World, Collect, Ingest],
        "--out" | "--manifest-only" | "--fault-rate" | "--retries" | "--fault-seed" => &[Collect],
        "--threads" => &[Collect, Ingest],
        "--corpus" => &[Analyze],
        "--windows" | "--verify" | "--checkpoint-dir" | "--crash-at" => &[Ingest],
        "--metrics-out" | "--trace-out" | "--profile-out" | "--log-level" => {
            &[Collect, Analyze, Ingest, Scan]
        }
        "--threshold" | "--floor-us" | "--floor-count" | "--all" => &[Perf],
        _ => return None,
    })
}

struct CommonOpts {
    seed: u64,
    scale: f64,
    out: Option<String>,
    corpus: Option<String>,
    manifest_only: bool,
    fault_rate: Option<f64>,
    retries: Option<u32>,
    fault_seed: Option<u64>,
    threads: Option<usize>,
    windows: usize,
    verify: bool,
    checkpoint_dir: Option<String>,
    crash_at: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    profile_out: Option<String>,
    log_level: Option<obs::Level>,
    threshold: Option<f64>,
    floor_us: Option<f64>,
    floor_count: Option<f64>,
    all: bool,
    positional: Vec<String>,
}

fn parse_opts(cmd: Cmd, args: &[String]) -> CommonOpts {
    let mut opts = CommonOpts {
        seed: 42,
        scale: 0.05,
        out: None,
        corpus: None,
        manifest_only: false,
        fault_rate: None,
        retries: None,
        fault_seed: None,
        threads: None,
        windows: 10,
        verify: false,
        checkpoint_dir: None,
        crash_at: None,
        metrics_out: None,
        trace_out: None,
        profile_out: None,
        log_level: None,
        threshold: None,
        floor_us: None,
        floor_count: None,
        all: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with('-') {
            match flag_cmds(arg) {
                None => die(&format!(
                    "unknown flag {arg} (run `malgraph` with no arguments for usage)"
                )),
                Some(cmds) if !cmds.contains(&cmd) => {
                    die(&format!("{arg} is not supported by `{}`", cmd.name()))
                }
                Some(_) => {}
            }
        }
        match arg.as_str() {
            "--seed" => opts.seed = next_parsed(&mut it, "--seed"),
            "--scale" => {
                let scale: f64 = next_parsed(&mut it, "--scale");
                if !scale.is_finite() || scale <= 0.0 || scale > 1.0 {
                    die("--scale must be a finite value in (0, 1]");
                }
                opts.scale = scale;
            }
            "--out" => opts.out = Some(next_str(&mut it, "--out")),
            "--corpus" => opts.corpus = Some(next_str(&mut it, "--corpus")),
            "--manifest-only" => opts.manifest_only = true,
            "--fault-rate" => {
                let rate: f64 = next_parsed(&mut it, "--fault-rate");
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    die("--fault-rate must be a finite value in [0, 1]");
                }
                opts.fault_rate = Some(rate);
            }
            "--retries" => opts.retries = Some(next_parsed(&mut it, "--retries")),
            "--fault-seed" => opts.fault_seed = Some(next_parsed(&mut it, "--fault-seed")),
            "--threads" => {
                let threads: usize = next_parsed(&mut it, "--threads");
                if threads == 0 {
                    die("--threads must be at least 1 (omit the flag to use all cores)");
                }
                opts.threads = Some(threads);
            }
            "--windows" => {
                let windows: usize = next_parsed(&mut it, "--windows");
                if windows == 0 {
                    die("--windows must be at least 1");
                }
                opts.windows = windows;
            }
            "--verify" => opts.verify = true,
            "--checkpoint-dir" => opts.checkpoint_dir = Some(next_str(&mut it, "--checkpoint-dir")),
            "--crash-at" => opts.crash_at = Some(next_str(&mut it, "--crash-at")),
            "--metrics-out" => opts.metrics_out = Some(next_str(&mut it, "--metrics-out")),
            "--trace-out" => opts.trace_out = Some(next_str(&mut it, "--trace-out")),
            "--profile-out" => opts.profile_out = Some(next_str(&mut it, "--profile-out")),
            "--threshold" => {
                let rel: f64 = next_parsed(&mut it, "--threshold");
                if !rel.is_finite() || rel < 0.0 {
                    die("--threshold must be a finite value >= 0 (e.g. 0.10 for 10%)");
                }
                opts.threshold = Some(rel);
            }
            "--floor-us" => {
                let floor: f64 = next_parsed(&mut it, "--floor-us");
                if !floor.is_finite() || floor < 0.0 {
                    die("--floor-us must be a finite value >= 0");
                }
                opts.floor_us = Some(floor);
            }
            "--floor-count" => {
                let floor: f64 = next_parsed(&mut it, "--floor-count");
                if !floor.is_finite() || floor < 0.0 {
                    die("--floor-count must be a finite value >= 0");
                }
                opts.floor_count = Some(floor);
            }
            "--all" => opts.all = true,
            "--log-level" => {
                let raw = next_str(&mut it, "--log-level");
                opts.log_level = Some(
                    raw.parse()
                        .unwrap_or_else(|e: String| die(&format!("--log-level: {e}"))),
                );
            }
            other => {
                if opts.positional.len() >= cmd.max_positional() {
                    die(&format!(
                        "unexpected argument {other:?} (`{}` takes at most {} positional arguments)",
                        cmd.name(),
                        cmd.max_positional()
                    ));
                }
                opts.positional.push(other.to_string());
            }
        }
    }
    opts
}

fn next_str(it: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        .clone()
}

fn next_parsed<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    next_str(it, flag)
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag}: bad value")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Applies the observability flags: the metrics registry is enabled only
/// when an output file will consume it (the no-op path stays one branch
/// per site otherwise); the log level applies either way.
fn obs_setup(opts: &CommonOpts) {
    if let Some(level) = opts.log_level {
        obs::set_log_level(level);
    }
    if opts.metrics_out.is_some() || opts.trace_out.is_some() || opts.profile_out.is_some() {
        obs::enable();
    }
    if opts.profile_out.is_some() {
        // Allocation accounting rides on the profile flag: the folded
        // alloc columns and snapshot alloc fields come from the same run.
        obs::alloc::enable_tracking();
    }
}

/// Writes the requested snapshot files. Called before the command's exit
/// code is returned so `scan`'s non-zero exit still produces the files.
fn obs_finish(opts: &CommonOpts) {
    if opts.metrics_out.is_none() && opts.trace_out.is_none() && opts.profile_out.is_none() {
        return;
    }
    // Exports go through the atomic temp+fsync+rename path: a crash
    // (simulated or real) mid-write must never leave a half-written
    // snapshot that a later `stats`/`perf diff` would trip over.
    let write = |path: &str, contents: &str| {
        jsonio::durable::write_atomic(std::path::Path::new(path), contents.as_bytes())
            .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
    };
    let snapshot = obs::snapshot();
    if let Some(path) = &opts.metrics_out {
        write(path, &snapshot.to_json());
        eprintln!("wrote metrics snapshot {path} (inspect with `malgraph stats {path}`)");
    }
    if let Some(path) = &opts.trace_out {
        write(path, &snapshot.to_chrome_trace());
        eprintln!("wrote Chrome trace {path} (load in chrome://tracing or Perfetto)");
    }
    if let Some(path) = &opts.profile_out {
        write(path, &snapshot.to_folded());
        let alloc_path = format!("{path}.alloc");
        write(&alloc_path, &snapshot.to_folded_alloc());
        eprintln!(
            "wrote folded profiles {path} (self-µs) and {alloc_path} (self-bytes) \
             (render with flamegraph.pl or inferno-flamegraph)"
        );
    }
}

fn generate(opts: &CommonOpts) -> World {
    World::generate(
        WorldConfig {
            seed: opts.seed,
            ..WorldConfig::default()
        }
        .with_scale(opts.scale),
    )
}

fn cmd_world(args: &[String]) -> i32 {
    let opts = parse_opts(Cmd::World, args);
    let world = generate(&opts);
    println!("seed {} scale {}", opts.seed, opts.scale);
    println!("packages : {}", world.packages.len());
    println!("campaigns: {}", world.campaigns.len());
    for kind in [
        CampaignKind::Similar,
        CampaignKind::Flood,
        CampaignKind::Dependency,
        CampaignKind::Trojan,
    ] {
        let n = world.campaigns.iter().filter(|c| c.kind == kind).count();
        println!("  {:<11} {n}", kind.label());
    }
    println!("mentions : {}", world.mentions.len());
    println!(
        "reports  : {} across {} websites",
        world.reports.len(),
        world.websites.len()
    );
    println!("mirrors  : {}", world.mirrors.len());
    0
}

fn cmd_collect(args: &[String]) -> i32 {
    let opts = parse_opts(Cmd::Collect, args);
    let Some(out) = &opts.out else {
        die("collect requires --out <path>");
    };
    obs_setup(&opts);
    let world = generate(&opts);
    let resilient = opts.fault_rate.is_some()
        || opts.retries.is_some()
        || opts.fault_seed.is_some()
        || opts.threads.is_some();
    let corpus = if resilient {
        use malgraph::oss_types::{FaultConfig, RetryPolicy};
        let mut collect_opts = CollectOptions {
            faults: FaultConfig::transient(opts.fault_rate.unwrap_or(0.0)),
            fault_seed: opts.fault_seed,
            threads: opts.threads.unwrap_or(0),
            ..CollectOptions::default()
        };
        if let Some(retries) = opts.retries {
            collect_opts.retry = RetryPolicy::with_retries(retries);
        }
        collect_with(&world, &collect_opts)
    } else {
        collect(&world)
    };
    let fidelity = if opts.manifest_only {
        ExportFidelity::ManifestOnly
    } else {
        ExportFidelity::Full
    };
    let json = export_json(&corpus, fidelity).unwrap_or_else(|e| die(&e.to_string()));
    std::fs::write(out, &json).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    println!(
        "wrote {out}: {} packages ({} available), {} reports, {} bytes",
        corpus.packages.len(),
        corpus.packages.iter().filter(|p| p.is_available()).count(),
        corpus.reports.len(),
        json.len()
    );
    if let Some(health) = &corpus.health {
        print_health(health);
    }
    obs_finish(&opts);
    0
}

fn print_health(health: &CollectionHealth) {
    println!("\n-- collection health");
    println!(
        "{:<16} {:>6} {:>9} {:>8} {:>10} {:>8} {:>12}",
        "channel", "docs", "attempts", "retries", "recovered", "dropped", "backoff(ms)"
    );
    let row = |label: &str, h: &FetchHealth| {
        println!(
            "{:<16} {:>6} {:>9} {:>8} {:>10} {:>8} {:>12}",
            label,
            h.documents(),
            h.attempts,
            h.retries,
            h.recovered,
            h.dropped,
            h.backoff_ms
        );
    };
    for (source, h) in &health.sources {
        row(source.slug(), h);
    }
    row("mirror", &health.mirror);
    row("report-corpus", &health.report_corpus);
    row("total", &health.total());
}

fn cmd_analyze(args: &[String]) -> i32 {
    let opts = parse_opts(Cmd::Analyze, args);
    let Some(path) = &opts.corpus else {
        die("analyze requires --corpus <path>");
    };
    obs_setup(&opts);
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    let corpus = import_json(&json).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "imported {} packages / {} reports (collected {})",
        corpus.packages.len(),
        corpus.reports.len(),
        corpus.collect_time
    );
    let graph = build(&corpus, &BuildOptions::default());

    let analyze_span = obs::span!("analyze");
    println!("\n-- relation graphs (Table II shape)");
    for row in diversity::table2(&graph) {
        println!(
            "{:<4} {:>6} nodes {:>9} edges (avg degree {:.2})",
            row.relation.group_label(),
            row.nodes,
            row.edges,
            row.avg_out_degree
        );
    }

    println!("\n-- diversity (Table VII shape)");
    for row in diversity::table7(&graph) {
        println!(
            "{:<9} SG {:>3} ({:>6.1})  DeG {:>2} ({:.1})  CG {:>3} ({:.1})",
            row.ecosystem.display_name(),
            row.sg.groups,
            row.sg.avg_size,
            row.deg.groups,
            row.deg.avg_size,
            row.cg.groups,
            row.cg.avg_size
        );
    }

    let matrix = overlap::overlap_matrix(&corpus);
    use malgraph::oss_types::SourceCategory::{Academia, Industry};
    println!(
        "\n-- overlap: academia↔academia {:.1}, industry↔industry {:.1} (Table IV shape)",
        overlap::category_mean_overlap(&matrix, Academia, Academia),
        overlap::category_mean_overlap(&matrix, Industry, Industry)
    );

    let (_, overall_mr) = quality::missing_rates(&corpus);
    println!("-- overall missing rate: {overall_mr:.1}% (Table VI)");

    let sequences = evolution::release_sequences(&graph, &corpus);
    let dist = evolution::op_distribution(&sequences);
    println!(
        "-- ops over {} re-releases: CN {:.1}% CV {:.1}% CC {:.1}% (Fig. 12)",
        dist.attempts,
        dist.pct_of(ChangeOp::ChangeName),
        dist.pct_of(ChangeOp::ChangeVersion),
        dist.pct_of(ChangeOp::ChangeCode)
    );

    let attribution = actors::attribution_summary(&graph, &corpus);
    println!(
        "-- actor attribution: {}/{} CGs attributed, {} conflicting",
        attribution.attributed, attribution.groups, attribution.conflicting
    );
    drop(analyze_span);
    obs_finish(&opts);
    0
}

fn cmd_ingest(args: &[String]) -> i32 {
    let opts = parse_opts(Cmd::Ingest, args);
    obs_setup(&opts);
    let world = generate(&opts);
    let dataset = collect(&world);
    let plan = WindowPlan::disclosure_quantiles(&world, opts.windows);
    let deltas = malgraph::crawler::partition_windows(&dataset, &plan);
    let mut build_opts = BuildOptions::default();
    if let Some(threads) = opts.threads {
        build_opts.similarity.threads = threads;
    }
    println!(
        "ingesting {} windows (seed {}, scale {}: {} packages, {} reports)",
        deltas.len(),
        opts.seed,
        opts.scale,
        dataset.packages.len(),
        dataset.reports.len()
    );
    let (graph, state) = if let Some(dir) = &opts.checkpoint_dir {
        use malgraph::malgraph_core::{
            run_checkpointed_ingest, CheckpointOptions, CheckpointStore, IngestRunError, RunStamp,
        };
        use malgraph::oss_types::CrashPlan;
        let crash = match &opts.crash_at {
            Some(spec) => CrashPlan::parse(spec).unwrap_or_else(|e| die(&e.to_string())),
            None => CrashPlan::none(),
        };
        let store = CheckpointStore::open(std::path::Path::new(dir))
            .unwrap_or_else(|e| die(&format!("open checkpoint dir {dir}: {e}")));
        let stamp = RunStamp::new(opts.seed, opts.scale, deltas.len());
        match store.run_stamp() {
            Ok(Some(found)) if found != stamp => die(&format!(
                "checkpoint dir {dir} belongs to a different run \
                 (seed {} scale {} windows {}); this run is seed {} scale {} windows {}",
                found.seed,
                found.scale(),
                found.windows,
                opts.seed,
                opts.scale,
                deltas.len()
            )),
            Ok(_) => store
                .write_run_stamp(&stamp)
                .unwrap_or_else(|e| die(&format!("write run stamp: {e}"))),
            Err(e) => die(&format!("read run stamp: {e}")),
        }
        if let Some(generation) = store.generations().ok().and_then(|g| g.last().copied()) {
            println!("resuming from checkpoint generation {generation} in {dir}");
        }
        match run_checkpointed_ingest(
            &deltas,
            &build_opts,
            &store,
            &crash,
            &CheckpointOptions::default(),
        ) {
            Ok(pair) => pair,
            Err(IngestRunError::Crashed(signal)) => {
                eprintln!("simulated crash: {signal} (resume with the same --checkpoint-dir)");
                obs_finish(&opts);
                std::process::exit(3);
            }
            Err(IngestRunError::Store(e)) => die(&format!("checkpoint store: {e}")),
        }
    } else {
        if opts.crash_at.is_some() {
            die(
                "--crash-at requires --checkpoint-dir (a crash without durability only loses work)",
            );
        }
        let mut graph = MalGraph::empty();
        let mut state = IngestState::new();
        for delta in &deltas {
            let started = std::time::Instant::now();
            graph.apply_delta(delta, &build_opts, &mut state);
            println!(
                "window {:>2} ending {}: +{} packages, +{} reports → {} nodes, {} edges ({:.2}s)",
                delta.window,
                delta.end,
                delta.packages.len(),
                delta.reports.len(),
                graph.graph.node_count(),
                graph.graph.edge_count(),
                started.elapsed().as_secs_f64()
            );
        }
        (graph, state)
    };
    println!(
        "ingested {} windows: {} nodes, {} edges",
        state.windows_applied(),
        graph.graph.node_count(),
        graph.graph.edge_count()
    );
    println!("\n-- relation graphs after ingestion (Table II shape)");
    for row in diversity::table2(&graph) {
        println!(
            "{:<4} {:>6} nodes {:>9} edges (avg degree {:.2})",
            row.relation.group_label(),
            row.nodes,
            row.edges,
            row.avg_out_degree
        );
    }
    let mut code = 0;
    if opts.verify {
        let oracle = build(state.dataset(), &build_opts);
        let nodes_identical = graph.graph.node_count() == oracle.graph.node_count()
            && graph
                .graph
                .nodes()
                .zip(oracle.graph.nodes())
                .all(|((_, a), (_, b))| a == b);
        let edges_identical = graph.graph.edge_count() == oracle.graph.edge_count()
            && graph
                .graph
                .edges()
                .zip(oracle.graph.edges())
                .all(|(a, b)| a.from == b.from && a.to == b.to && a.label == b.label);
        if nodes_identical && edges_identical {
            println!("\nverify: incremental graph is identical to a one-shot build");
        } else {
            eprintln!("\nverify FAILED: incremental graph diverges from the one-shot build");
            code = 1;
        }
    }
    obs_finish(&opts);
    code
}

fn cmd_scan(args: &[String]) -> i32 {
    let opts = parse_opts(Cmd::Scan, args);
    let Some(path) = opts.positional.first() else {
        die("scan requires a file path");
    };
    obs_setup(&opts);
    let source =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    let name = opts
        .positional
        .get(1)
        .map(|n| n.parse().unwrap_or_else(|_| die("bad package name")));

    let scan_span = obs::span!("scan");
    if let Err(e) = malgraph::minilang::parse(&source) {
        println!("parse  : {e}");
    }
    let sv = StaticDetector::default().scan_source(&source, name.as_ref());
    println!(
        "static : malicious={} score={:.1} rules={:?}",
        sv.malicious,
        sv.score,
        sv.matched.iter().map(|r| r.label()).collect::<Vec<_>>()
    );
    let dv = DynamicDetector::default().analyze_source(&source);
    println!(
        "sandbox: labels={:?}",
        dv.labels.iter().map(|l| l.to_string()).collect::<Vec<_>>()
    );
    println!("         apis={:?}", dv.apis);
    drop(scan_span);
    obs_finish(&opts);
    if sv.malicious || dv.malicious() {
        1
    } else {
        0
    }
}

/// Renders microseconds human-readably for the stats table.
fn fmt_micros(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Renders byte counts human-readably for the stats table.
fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{:.2}GiB", bytes as f64 / (1u64 << 30) as f64)
    } else if bytes >= 1 << 20 {
        format!("{:.2}MiB", bytes as f64 / (1u64 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.2}KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes}B")
    }
}

fn cmd_stats(args: &[String]) -> i32 {
    let opts = parse_opts(Cmd::Stats, args);
    let path = opts
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("malgraph-metrics.json");
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        die(&format!(
            "read {path}: {e} (produce one with `malgraph collect --out corpus.json \
             --metrics-out {path}`)"
        ))
    });
    let value = jsonio::Value::parse(&json).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let schema = value.get("schema").and_then(|v| v.as_str()).unwrap_or("");
    if schema != "malgraph-obs/1" && schema != "malgraph-obs/2" {
        die(&format!(
            "{path}: unsupported snapshot schema {schema:?} (expected \"malgraph-obs/1\" or \
             \"malgraph-obs/2\")"
        ));
    }
    println!("metrics snapshot {path} (schema {schema})");

    // Name-sort every section: the writer emits sorted JSON, but hand-
    // assembled or merged snapshots may not be, and the table must be
    // deterministic either way.
    let section = |key: &str| -> Vec<(String, jsonio::Value)> {
        let mut rows = value
            .get(key)
            .and_then(|v| v.as_object())
            .map(|entries| entries.to_vec())
            .unwrap_or_default();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    };

    let spans = section("spans");
    if !spans.is_empty() {
        // `/2` snapshots carry self-time and allocation columns.
        let profiled = spans.iter().any(|(_, e)| e.get("self_us").is_some());
        println!("\n-- stages (span rollups)");
        if profiled {
            println!(
                "{:<44} {:>7} {:>12} {:>12} {:>12} {:>8}",
                "span", "count", "total", "self", "alloc", "allocs"
            );
        } else {
            println!("{:<44} {:>7} {:>12}", "span", "count", "total");
        }
        for (name, entry) in &spans {
            let field = |k: &str| entry.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
            if profiled {
                println!(
                    "{name:<44} {:>7} {:>12} {:>12} {:>12} {:>8}",
                    field("count"),
                    fmt_micros(field("total_us")),
                    fmt_micros(field("self_us")),
                    fmt_bytes(field("alloc_bytes")),
                    field("allocs")
                );
            } else {
                println!(
                    "{name:<44} {:>7} {:>12}",
                    field("count"),
                    fmt_micros(field("total_us"))
                );
            }
        }
    }

    let counters = section("counters");
    if !counters.is_empty() {
        println!("\n-- counters");
        for (name, entry) in &counters {
            println!("{name:<44} {:>12}", entry.as_u64().unwrap_or(0));
        }
    }

    let gauges = section("gauges");
    if !gauges.is_empty() {
        println!("\n-- gauges");
        for (name, entry) in &gauges {
            println!("{name:<44} {:>12}", entry.as_f64().unwrap_or(0.0));
        }
    }

    let histograms = section("histograms");
    if !histograms.is_empty() {
        println!("\n-- histograms");
        println!(
            "{:<44} {:>7} {:>10} {:>8} {:>8}",
            "histogram", "count", "sum", "min", "max"
        );
        for (name, entry) in &histograms {
            let field = |k: &str| entry.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
            println!(
                "{name:<44} {:>7} {:>10} {:>8} {:>8}",
                field("count"),
                field("sum"),
                field("min"),
                field("max")
            );
        }
    }

    let dropped = value
        .get("events_dropped")
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    if dropped > 0 {
        println!("\n(events dropped past the retention cap: {dropped})");
    }
    0
}

fn cmd_perf(args: &[String]) -> i32 {
    let opts = parse_opts(Cmd::Perf, args);
    let [action, base_path, new_path] = opts.positional.as_slice() else {
        die("perf requires: perf diff <base.json> <new.json>");
    };
    if action != "diff" {
        die(&format!(
            "unknown perf action {action:?} (expected \"diff\")"
        ));
    }
    let mut thresholds = obs::baseline::Thresholds::default();
    if let Some(rel) = opts.threshold {
        thresholds.rel = rel;
    }
    if let Some(floor) = opts.floor_us {
        thresholds.floor_us = floor;
    }
    if let Some(floor) = opts.floor_count {
        thresholds.floor_count = floor;
    }
    let load = |path: &str| {
        let profile = obs::baseline::PerfProfile::from_file(std::path::Path::new(path))
            .unwrap_or_else(|e| die(&e));
        // An entry-less profile would diff as "no regressions" — a
        // silent zero, not a comparison. Refuse it up front.
        if profile.entries.is_empty() {
            die(&format!(
                "{path}: snapshot carries no metrics to compare (was it produced \
                 by a run with the registry enabled?)"
            ));
        }
        profile
    };
    let base = load(base_path);
    let new = load(new_path);
    let report = obs::baseline::diff(&base, &new, &thresholds);
    print!("{}", report.render(opts.all));
    if report.has_regressions() {
        1
    } else {
        0
    }
}
