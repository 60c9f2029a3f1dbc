#!/usr/bin/env bash
# Local CI gate: lint-clean and test-green across the whole workspace.
#
#   ./ci.sh            # fmt check + clippy (deny warnings) + full test suite
#   ./ci.sh --release  # additionally checks the release build
#
# Keep this the single source of truth for "is the tree healthy" — the
# same two commands the PR driver runs.
set -euo pipefail
cd "$(dirname "$0")"

# Formatting first: a misformatted line fails here, before the slower
# lint and test steps. perfbench is a workspace of its own and is not
# covered by `--all`.
echo "== cargo fmt --all --check"
cargo fmt --all --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" == "--release" ]]; then
    echo "== cargo build --release"
    cargo build --release
fi

# One test command for the whole workspace. `cargo test` at the root
# builds only the facade's tests (the root package has no
# `default-members`), so the workspace's own crates are named through
# `--workspace`, minus the vendored stand-ins under vendor/. This runs
# every crate's unit tests and every integration suite, among them:
#  * sandbox and graph core — minilang (parser nesting limit, lowering,
#    the interpreter's budgets), detector (static rules, sandbox labels,
#    cached ≡ reference evaluation) and malgraph-core (the similarity
#    pipeline's caches ≡ the one-shot reference under every kernel ×
#    thread count, checkpoint and ingest); the root `sandbox_golden` and
#    `similarity_golden` tests pin the sandbox's output and `build`'s
#    graph byte for byte;
#  * fault tolerance — failure_injection: the resilient collector
#    survives every fault rate, total blackout included;
#  * observability — obs unit tests (histogram buckets, deterministic
#    shard merge, self-time and allocation attribution, perf-baseline
#    threshold edges), obs_instrumentation (instrumented ≡
#    uninstrumented at 1 and 7 threads) and obs_export (byte-exact
#    exporter goldens, the malgraph-obs/2 schema-stability check);
#  * vector kernels — embed / cluster property suites and
#    kernel_equivalence (every Kernel at 1 and 7 threads, identical
#    output);
#  * the malgraph-bench suites — analysis_equivalence (every section
#    byte-identical to one serial pass on a fresh context, in reverse
#    order, at 7 threads and warm), ingest_equivalence (windowed ≡
#    one window, with exact ingest.* counter deltas), crash_recovery
#    (every crash point × {1, 7} threads × {clean resume, corrupted
#    latest checkpoint} resumes byte-identically), profile_equivalence
#    (folded profile identical at 1 and 7 threads) and repro_cli.
echo "== cargo test -q --workspace (vendored crates excluded)"
cargo test -q --workspace --exclude criterion --exclude crossbeam --exclude proptest --exclude rand --exclude rand_distr

# Benches must at least compile (they are not run in CI).
echo "== cargo bench --no-run -p malgraph-bench"
cargo bench --no-run -p malgraph-bench

# The quick benches assert identity on a fresh release-mode run before
# they report a number, and feed the perf gate below:
#  * kernel_bench — the three kernels agree on a real workload
#    (identical assignments and pair sets);
#  * ingest_bench — the windowed graph matches the one-window graph
#    node for node and edge for edge;
#  * recovery_bench — a staged final-window crash resumed end-to-end
#    matches the uninterrupted graph.
echo "== kernel_bench --quick"
cargo run --release -q -p malgraph-bench --bin kernel_bench -- --quick
echo "== ingest_bench --quick"
cargo run --release -q -p malgraph-bench --bin ingest_bench -- --quick
echo "== recovery_bench --quick"
cargo run --release -q -p malgraph-bench --bin recovery_bench -- --quick

# The perf-regression gate: the quick benches above wrote
# target/perf_gate/BENCH_PR{6,8,10}_quick.json on this machine (never a
# tracked file, so a CI run leaves the tree clean); diff each against its
# checked-in baseline with `malgraph perf diff` and fail on regression.
# Thresholds are deliberately generous (+50% relative AND +250 ms
# absolute, both must be exceeded) — this gate catches real regressions,
# not machine-to-machine variance; the sentinel's 10% sensitivity is
# asserted by the obs::baseline unit tests and the CLI suite. After an
# intentional perf change, regenerate the baselines with:
#   MALGRAPH_PERF_ACCEPT=1 ./ci.sh
echo "== perf_gate (malgraph perf diff vs baselines/)"
cargo build --release -q --bin malgraph
for bench in BENCH_PR6_quick BENCH_PR8_quick BENCH_PR10_quick; do
    if [[ "${MALGRAPH_PERF_ACCEPT:-}" == "1" ]]; then
        cp "target/perf_gate/$bench.json" "baselines/$bench.json"
        echo "perf_gate: accepted target/perf_gate/$bench.json as the new baseline"
    else
        ./target/release/malgraph perf diff "baselines/$bench.json" "target/perf_gate/$bench.json" \
            --threshold 0.50 --floor-us 250000
    fi
done

echo "CI OK"
