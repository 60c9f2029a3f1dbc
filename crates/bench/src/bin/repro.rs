//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--seed N] [--scale F] [--threads N] [--out PATH] [--check] [ids…]
//! ```
//!
//! Without ids, every experiment plus the extension sections runs. With
//! `--out`, the full report is also written as Markdown (used to refresh
//! `EXPERIMENTS.md`). `--threads` fans the sections out over scoped
//! worker threads (the report is byte-identical at any thread count).

use malgraph_bench::{Repro, EXPERIMENTS, EXTENSIONS};
use std::io::Write as _;
use std::path::{Path, PathBuf};

// Counting allocator, as in the malgraph CLI: the regenerated report's
// profile appendix attributes allocation bytes per pipeline stage.
#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

const USAGE: &str =
    "usage: repro [--seed N] [--scale F] [--threads N] [--out PATH] [--check] [ids…]";

fn main() {
    let mut seed = 42u64;
    let mut scale = 1.0f64; // the full paper-scale corpus runs in under a minute
    let mut threads = 1usize;
    let mut out_path: Option<String> = None;
    let mut check = false;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--seed needs an integer"));
            }
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s| *s > 0.0 && *s <= 1.0)
                    .unwrap_or_else(|| usage_error("--scale needs a float in (0,1]"));
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--threads needs a positive integer"));
            }
            "--out" => {
                out_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--out needs a path")),
                );
            }
            "--check" => check = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                eprintln!("experiments: {}", EXPERIMENTS.join(" "));
                eprintln!("extensions:  {}", EXTENSIONS.join(" "));
                return;
            }
            id if EXPERIMENTS.contains(&id) || EXTENSIONS.contains(&id) => ids.push(id.to_string()),
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag}")),
            other => usage_error(&format!("unknown experiment id {other:?} (see --help)")),
        }
    }
    if ids.is_empty() {
        ids = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
        ids.extend(EXTENSIONS.iter().map(|s| s.to_string()));
    }

    eprintln!("generating world (seed {seed}, scale {scale}) and building MALGRAPH…");
    // The stage timings and the profile appendix read obs spans.
    obs::enable();
    obs::alloc::enable_tracking();
    let repro = Repro::new(seed, scale);
    eprintln!(
        "corpus: {} packages, {} reports, {} graph nodes",
        repro.dataset.packages.len(),
        repro.dataset.reports.len(),
        repro.graph.graph.node_count()
    );

    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let mut full = String::new();
    let analyze_span = obs::span!("analyze");
    let sections = repro.run_all(&id_refs, threads);
    let analyze_elapsed = analyze_span.finish();
    for section in &sections {
        println!("{section}");
        full.push_str(section);
        full.push('\n');
    }

    // Per-section wall times from the `analyze/{id}` spans (worker wall
    // time when `--threads` fans out, so the numbers stay comparable).
    let section_ms: Vec<(String, f64)> = ids
        .iter()
        .map(|id| {
            let us = obs::span_total_micros(&format!("analyze/{id}"));
            (id.clone(), us as f64 / 1e3)
        })
        .collect();
    {
        let mut ranked: Vec<&(String, f64)> = section_ms.iter().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let line: Vec<String> = ranked
            .iter()
            .take(5)
            .map(|(id, ms)| format!("{id} {ms:.0}ms"))
            .collect();
        eprintln!("slowest sections: {}", line.join(" · "));
    }

    let t = &repro.timings;
    let timings_line = format!(
        "per-stage wall times: world {:.2?} · collect {:.2?} · build {:.2?} \
         (similarity {:.2?}) · analyze {:.2?}",
        t.world, t.collect, t.build, t.similarity, analyze_elapsed
    );
    eprintln!("{timings_line}");

    if check {
        println!("== acceptance checks (paper bands)");
        let checks = repro.checks();
        let mut failed = 0usize;
        for c in &checks {
            println!(
                "[{}] {} {}",
                if c.pass { "PASS" } else { "FAIL" },
                c.name,
                if c.detail.is_empty() {
                    String::new()
                } else {
                    format!("— {}", c.detail)
                }
            );
            if !c.pass {
                failed += 1;
            }
        }
        println!(
            "{} of {} checks passed",
            checks.len() - failed,
            checks.len()
        );
        if failed > 0 {
            std::process::exit(1);
        }
    }

    if let Some(path) = out_path {
        let mut md = String::from(
            "# EXPERIMENTS — paper vs. measured\n\n\
             Regenerated by `cargo run -p malgraph-bench --bin repro --release -- --out EXPERIMENTS.md`.\n\
             Each section header carries the paper's reported values in brackets; the body\n\
             is what this reproduction measures on the calibrated simulated corpus\n",
        );
        md.push_str(&format!("(seed {seed}, scale {scale}).\n\n```text\n"));
        md.push_str(&full);
        md.push_str("```\n");
        let dir = record_dir(&path);
        md.push_str(&timing_appendix(&section_ms, threads));
        md.push_str(&bench_appendix(&dir));
        md.push_str(&profile_appendix(&obs::snapshot()));
        md.push_str(&recovery_appendix(&dir));
        md.push_str(&sentinel_appendix(&dir));
        md.push_str(&format!("\nLast run {timings_line}.\n"));
        let mut file = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
        file.write_all(md.as_bytes())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

/// Per-section timing appendix: the `analyze/{id}` span totals of this
/// run, slowest first, so the regenerated EXPERIMENTS.md records where
/// analyze time goes alongside what it produces.
fn timing_appendix(section_ms: &[(String, f64)], threads: usize) -> String {
    let mut md = String::from(
        "\n## Analyze timings — per section\n\n\
         Wall time spent inside each section's `analyze/{id}` span during this run\n\
         (worker wall time under `--threads`), slowest first.\n\n```text\n",
    );
    md.push_str(&format!(
        "{} worker thread(s)\n{:<12} {:>10}\n",
        threads, "section", "ms"
    ));
    let mut ranked: Vec<&(String, f64)> = section_ms.iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (id, ms) in ranked {
        md.push_str(&format!("{id:<12} {ms:>10.1}\n"));
    }
    let total: f64 = section_ms.iter().map(|(_, ms)| ms).sum();
    md.push_str(&format!("{:<12} {total:>10.1}\n", "sum"));
    md.push_str("```\n");
    md
}

/// The directory the benchmark records are looked up in: the one the
/// report is written to.
fn record_dir(out_path: &str) -> PathBuf {
    Path::new(out_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Reads the benchmark record `name` from `dir`; `None` when it is
/// absent or unparseable, so the report never fails for want of one.
fn load_record(dir: &Path, name: &str) -> Option<jsonio::Value> {
    let text = std::fs::read_to_string(dir.join(name)).ok()?;
    match jsonio::Value::parse(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("warning: skipping unparseable {name}: {e:?}");
            None
        }
    }
}

/// Number field `key` of a record row, 0 when missing.
fn f(row: &jsonio::Value, key: &str) -> f64 {
    row.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

/// Integer field `key` of a record row, 0 when missing.
fn u(row: &jsonio::Value, key: &str) -> u64 {
    row.get(key).and_then(|v| v.as_u64()).unwrap_or(0)
}

/// Perf-trajectory appendix: the engine-benchmark snapshots
/// (`BENCH_PR1.json`, `BENCH_PR6.json`, `BENCH_PR7.json`) rendered as
/// rows next to the
/// paper tables, so one regenerated EXPERIMENTS.md carries both "does it
/// reproduce the paper" and "how fast does it do so". Absent snapshots
/// are skipped.
fn bench_appendix(dir: &Path) -> String {
    let mut md = String::new();
    let mut body = String::new();

    if let Some(pr1) = load_record(dir, "BENCH_PR1.json") {
        body.push_str(&format!(
            "== BENCH_PR1 — K-Means engines (dim {}, k {}, {} host thread(s))\n\
             {:>6}  {:>10}  {:>11}  {:>9}  {:>6}  {:>6}\n",
            u(&pr1, "dim"),
            u(&pr1, "k"),
            u(&pr1, "host_threads"),
            "n",
            "serial ms",
            "parallel ms",
            "warm ms",
            "par x",
            "warm x"
        ));
        for row in pr1.get("results").and_then(|v| v.as_array()).unwrap_or(&[]) {
            body.push_str(&format!(
                "{:>6}  {:>10.0}  {:>11.0}  {:>9.0}  {:>6.2}  {:>6.2}\n",
                u(row, "n"),
                f(row, "serial_ms"),
                f(row, "parallel_ms"),
                f(row, "parallel_warm_ms"),
                f(row, "speedup_parallel"),
                f(row, "speedup_parallel_warm")
            ));
        }
        body.push('\n');
    }

    if let Some(pr6) = load_record(dir, "BENCH_PR6.json") {
        body.push_str(&format!(
            "== BENCH_PR6 — vector kernels, assignment + refinement, identical output \
             (dim {}, nnz ~{}, k {}, threshold {:.2})\n\
             {:>6}  {:>9}  {:>9}  {:>9}  {:>7}  {:>7}  {:>9}  {:>8}\n",
            u(&pr6, "dim"),
            u(&pr6, "nnz"),
            u(&pr6, "k"),
            f(&pr6, "threshold"),
            "n",
            "dense ms",
            "tiled ms",
            "quant ms",
            "tiled x",
            "quant x",
            "screened",
            "rescored"
        ));
        for row in pr6.get("results").and_then(|v| v.as_array()).unwrap_or(&[]) {
            body.push_str(&format!(
                "{:>6}  {:>9.0}  {:>9.0}  {:>9.0}  {:>7.2}  {:>7.2}  {:>9}  {:>8}\n",
                u(row, "n"),
                f(row, "total_dense_scalar_ms"),
                f(row, "total_tiled_ms"),
                f(row, "total_tiled_quant_ms"),
                f(row, "speedup_tiled"),
                f(row, "speedup_tiled_quant"),
                u(row, "pairs_screened"),
                u(row, "pairs_rescored")
            ));
        }
        body.push('\n');
    }

    if let Some(pr7) = load_record(dir, "BENCH_PR7.json") {
        body.push_str(&format!(
            "== BENCH_PR7 — analysis harness, indexed vs uncached, identical reports \
             (seed {}, scale {}, {} host thread(s))\n\
             {:<12}  {:>11}  {:>10}  {:>7}\n",
            u(&pr7, "seed"),
            f(&pr7, "scale"),
            u(&pr7, "host_threads"),
            "section",
            "uncached ms",
            "indexed ms",
            "speedup"
        ));
        for row in pr7.get("results").and_then(|v| v.as_array()).unwrap_or(&[]) {
            body.push_str(&format!(
                "{:<12}  {:>11.0}  {:>10.0}  {:>7.2}\n",
                row.get("id").and_then(|v| v.as_str()).unwrap_or("?"),
                f(row, "uncached_ms"),
                f(row, "indexed_ms"),
                f(row, "speedup")
            ));
        }
        body.push_str(&format!(
            "{:<12}  {:>11.0}  {:>10.0}  {:>7.2}   ({}-thread total {:.0} ms)\n",
            "total",
            f(&pr7, "uncached_total_ms"),
            f(&pr7, "indexed_total_ms"),
            f(&pr7, "speedup_indexed"),
            u(&pr7, "threads"),
            f(&pr7, "indexed_parallel_ms")
        ));
        if f(&pr7, "seed_analyze_ms") > 0.0 {
            body.push_str(&format!(
                "vs pre-index analyze stage ({:.1} s recorded at the seed): {:.2}x\n",
                f(&pr7, "seed_analyze_ms") / 1e3,
                f(&pr7, "speedup_vs_seed")
            ));
        }
        body.push('\n');
    }

    if !body.is_empty() {
        md.push_str(
            "\n## Perf trajectory — engine benchmark snapshots\n\n\
             Rebuilt from `BENCH_PR1.json` / `BENCH_PR6.json` / `BENCH_PR7.json` beside\n\
             this file. `BENCH_PR1` and `BENCH_PR7` are records: the serial K-Means\n\
             engine and the uncached harness mode they compare against are gone, and\n\
             so are the binaries that wrote them. `BENCH_PR6.json` is regenerated by\n\
             the `kernel_bench` release binary. The `BENCH_PR6` columns are end-to-end\n\
             assignment + cosine refinement; the `BENCH_PR7` columns are full analysis\n\
             sections; every mode was asserted bitwise-identical before its time was\n\
             reported.\n\n```text\n",
        );
        md.push_str(body.trim_end_matches('\n'));
        md.push_str("\n```\n");
    }
    md
}

/// Profiling appendix: the folded self-time profile of this very run
/// (`parent;child self_µs`, the format `flamegraph.pl` / inferno read),
/// heaviest frames first, plus the heaviest allocation sites from the
/// counting allocator. This is the pipeline flamegraph in text form —
/// feed `malgraph <cmd> --profile-out` output to a flamegraph tool for
/// the graphical version.
fn profile_appendix(snapshot: &obs::Snapshot) -> String {
    if snapshot.folded.is_empty() {
        return String::new();
    }
    let mut md = String::from(
        "\n## Pipeline profile — folded self-time stacks\n\n\
         The folded self-time profile of the run that produced this report, captured\n\
         by the obs registry (each line is `stack self_µs`, the flamegraph.pl /\n\
         inferno input format; `malgraph … --profile-out` writes the same thing).\n\
         Self time is wall time inside a span minus its children, so the lines sum\n\
         to real pipeline time with no double counting. Heaviest frames first,\n\
         allocation churn (bytes requested, frees not subtracted) alongside.\n\n```text\n",
    );
    let mut by_self: Vec<&obs::FoldedFrame> = snapshot.folded.iter().collect();
    by_self.sort_by(|a, b| {
        b.self_us
            .cmp(&a.self_us)
            .then_with(|| a.stack.cmp(&b.stack))
    });
    let total_self: u64 = snapshot.folded.iter().map(|f| f.self_us).sum();
    md.push_str(&format!(
        "{:>10}  {:>5}  {:>10}  {:>9}  stack\n",
        "self µs", "%", "alloc", "allocs"
    ));
    for frame in by_self.iter().take(14) {
        let pct = if total_self == 0 {
            0.0
        } else {
            frame.self_us as f64 * 100.0 / total_self as f64
        };
        md.push_str(&format!(
            "{:>10}  {:>4.1}%  {:>10}  {:>9}  {}\n",
            frame.self_us,
            pct,
            fmt_bytes(frame.alloc_bytes),
            frame.allocs,
            frame.stack
        ));
    }
    if by_self.len() > 14 {
        let rest: u64 = by_self.iter().skip(14).map(|f| f.self_us).sum();
        md.push_str(&format!(
            "{:>10}  {:>4.1}%  {:>10}  {:>9}  … {} more frames\n",
            rest,
            if total_self == 0 {
                0.0
            } else {
                rest as f64 * 100.0 / total_self as f64
            },
            "",
            "",
            by_self.len() - 14
        ));
    }
    md.push_str("```\n");
    md
}

fn fmt_bytes(b: u64) -> String {
    match b {
        0..=1023 => format!("{b}B"),
        1024..=1048575 => format!("{:.1}KiB", b as f64 / 1024.0),
        1048576..=1073741823 => format!("{:.1}MiB", b as f64 / 1048576.0),
        _ => format!("{:.2}GiB", b as f64 / 1073741824.0),
    }
}

/// Crash-recovery appendix: the resume-vs-rebuild table rendered from
/// `BENCH_PR10.json`, between fixed prose that explains it. Empty when
/// the record is absent.
fn recovery_appendix(dir: &Path) -> String {
    let Some(pr10) = load_record(dir, "BENCH_PR10.json") else {
        return String::new();
    };
    let full_ms = f(&pr10, "full_build_ms");
    let mut md = String::from(
        "\n## Crash recovery — resume vs. rebuild\n\n\
         Rebuilt from `BENCH_PR10.json` beside this file (regenerate with the\n\
         `recovery_bench` release binary; seed 42, scale 1.0, 18 787 packages in\n\
         9 disclosure-quantile windows, minima over 3 repetitions). Two staged\n\
         crashes bracket the recovery cost against a cold `build()` over the\n\
         union corpus; every resumed graph is asserted node-for-node and\n\
         edge-for-edge identical to that rebuild — including the `f32` bits of\n\
         the similarity traces — before its time is reported.\n\n```text\n",
    );
    md.push_str(&format!(
        "== BENCH_PR10 — crash-consistent checkpointing \
         (seed {}, scale {}, {} windows, best of {})\n{:<48}{:>6}{:>18}\n",
        u(&pr10, "seed"),
        f(&pr10, "scale"),
        u(&pr10, "windows"),
        u(&pr10, "reps"),
        "scenario",
        "ms",
        "vs cold rebuild"
    ));
    for (scenario, key) in [
        ("cold full rebuild (the oracle)", "full_build_ms"),
        ("resume, crash after final checkpoint sealed", "resume_ms"),
        (
            "restore only (bare recover(), nothing to replay)",
            "restore_only_ms",
        ),
        (
            "resume, crash lost the final window",
            "resume_lost_window_ms",
        ),
    ] {
        let ms = f(&pr10, key);
        let note = if key == "resume_ms" {
            "   (target >= 3x)"
        } else {
            ""
        };
        md.push_str(&format!(
            "{scenario:<48}{ms:>6.0}{:>17.2}x{note}\n",
            full_ms / ms
        ));
    }
    md.push_str(
        "```\n\n\
         The headline row is a kill at the last `checkpoint/publish`: every\n\
         window is durable, so resume is the pure recovery path — validate the\n\
         newest generation's checksum, rebuild nodes and structural edges from\n\
         the snapshotted corpus, apply the persisted similarity outputs, find\n\
         nothing in the journal to replay. The last row is the worst case — a\n\
         kill at the last `ingest/apply`, after a full window of similarity work\n\
         completed in memory but before it was checkpointed. That work is\n\
         genuinely lost: replay re-embeds and re-refines the touched ecosystems\n\
         against a cold memo, which costs more than the one-shot rebuild (whose\n\
         own similarity stage is the dominant cost being skipped everywhere\n\
         else). Checkpointing buys a 4.4× restart when the checkpoint landed,\n\
         and never worse than ~1.5× the rebuild when it did not — with the\n\
         byte-identity contract held in both cases, at every one of the eleven\n\
         crash points, at 1 and 7 threads (`crash_recovery` matrix).\n\n\
         Encoding note: the table above was measured with checkpoint format 1,\n\
         which spelled out every similar pair, millions at this scale. Nested\n\
         JSON arrays (three heap nodes per pair, pretty-printed) had made one\n\
         generation write cost 61 s and its read 18 s; a flat `\"a,b a,b …\"`\n\
         string per ecosystem in a compact body brought the write to ~3.9 s and\n\
         the full restore to the 1.76 s above. Format 2 stores each ecosystem's\n\
         class table instead: a cluster and a class id per package and one\n\
         verdict matrix per cluster, so a generation no longer grows with the\n\
         pairs it stands for (DESIGN §6k).\n",
    );
    md
}

/// Perf-sentinel appendix: demonstrates the regression gate on live data
/// by diffing a quick-bench snapshot against itself (clean pass) and then
/// against a copy with one timing inflated 25% (caught, non-zero exit in
/// the CLI). This is exactly what `ci.sh`'s perf_gate step runs via
/// `malgraph perf diff baselines/<bench>.json <bench>.json`.
fn sentinel_appendix(dir: &Path) -> String {
    let Some((name, text)) = ["BENCH_PR8_quick.json", "BENCH_PR6_quick.json"]
        .iter()
        .find_map(|n| std::fs::read_to_string(dir.join(n)).ok().map(|t| (*n, t)))
    else {
        return String::new();
    };
    let Ok(base) = obs::baseline::PerfProfile::from_json_str(name, &text) else {
        return String::new();
    };
    let thresholds = obs::baseline::Thresholds::default();

    // A clean self-diff, then the same diff with the largest timing
    // inflated 25% — past the 10% relative and 500 ms absolute gates.
    let clean = obs::baseline::diff(&base, &base, &thresholds);
    let mut slow = base.clone();
    slow.label = format!("{name} (+25% injected)");
    if let Some((_, m)) = slow
        .entries
        .iter_mut()
        .filter(|(_, m)| matches!(m.kind, obs::baseline::MetricKind::Time { .. }))
        .max_by(|a, b| {
            let us = |e: &(String, obs::baseline::Metric)| match e.1.kind {
                obs::baseline::MetricKind::Time { us_per_unit } => e.1.value * us_per_unit,
                _ => 0.0,
            };
            us(a).total_cmp(&us(b))
        })
    {
        m.value *= 1.25;
    }
    let caught = obs::baseline::diff(&base, &slow, &thresholds);

    let mut md = String::from(
        "\n## Perf sentinel — the regression gate, demonstrated\n\n\
         `malgraph perf diff` compares two snapshots (obs metrics or `BENCH_*.json`)\n\
         and fails when a metric worsens by more than the relative threshold AND the\n\
         absolute noise floor. Below: the checked-in quick-bench snapshot diffed\n\
         against itself (clean), then against a copy with its largest timing\n\
         inflated 25% — the injected regression the gate exists to catch. The same\n\
         check runs in `ci.sh` (perf_gate) against `baselines/`.\n\n```text\n",
    );
    md.push_str(clean.render(false).trim_end_matches('\n'));
    md.push_str("\n\n");
    md.push_str(caught.render(false).trim_end_matches('\n'));
    md.push_str("\n```\n");
    md
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn usage_error(msg: &str) -> ! {
    die(&format!("{msg}\n{USAGE}"))
}
