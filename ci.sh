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

# One test command for the whole workspace. `cargo test` at the root
# builds only the facade's tests (the root package has no
# `default-members`), so the workspace's own crates are named through
# `--workspace`, minus the vendored stand-ins under vendor/. This runs
# every crate's unit tests and every integration suite, among them:
#  * sandbox and graph core — minilang (parser nesting limit, lowering,
#    the interpreter's budgets), detector (static rules, sandbox labels,
#    cached ≡ reference evaluation) and malgraph-core (the similarity
#    pipeline's caches ≡ the one-shot reference under both kernels ×
#    thread count, checkpoint and ingest); the root `sandbox_golden`,
#    `similarity_golden`, `printer_golden` and `corpus_golden` tests pin
#    the sandbox's output, `build`'s graph, the canonical printer's text
#    and the collected corpus byte for byte;
#  * fault tolerance — failure_injection: the resilient collector
#    survives every fault rate, total blackout included;
#  * observability — obs unit tests (histogram buckets, deterministic
#    shard merge, self-time and allocation attribution, perf-baseline
#    threshold edges), obs_instrumentation (instrumented ≡
#    uninstrumented at 1 and 7 threads) and obs_export (byte-exact
#    exporter goldens, the malgraph-obs/2 schema-stability check);
#  * vector kernels — embed / cluster property suites (K-Means over
#    points that share rows ≡ one row per point, bit for bit) and
#    kernel_equivalence (both kernels at 1 and 7 threads, identical
#    output, the screened assignment kernel included);
#  * the malgraph-bench suites — analysis_equivalence (every section
#    byte-identical to one serial pass on a fresh context, in reverse
#    order, at 7 threads and warm), ingest_equivalence (windowed ≡
#    one window), crash_recovery (every crash point × {1, 7} threads ×
#    {clean resume, corrupted latest checkpoint} resumes
#    byte-identically), profile_equivalence (folded profile identical at
#    1 and 7 threads) and repro_cli.
#
# Performance is gated on exact work counts, never on wall time (which
# varies by about ±20% between runs on one host; perfbench owns it):
#  * alloc_budget (embed) — allocations per embedded module;
#  * print_alloc_budget (minilang) — allocations per printed module;
#  * page_alloc_budget (crawler) — allocations parsing every crawled
#    page of a small world;
#  * step_budget (detector) — sandbox steps actually executed;
#  * similar_budget (malgraph-core) — bytes `build` requests for a
#    2,000-copy flood;
#  * the pinned counters — profile_equivalence caps 17 work counts of
#    the whole pipeline (embeddings, K-Means iterations, kernel screens
#    in total and split by stage as
#    `kernel.{pruned_quantized,rescored}{stage=assign|refine}`, sandbox
#    runs and steps, index builds, …) and asserts every counter but the
#    sections' fan-out count equal at 1 and 7 threads;
#    ingest_equivalence pins the windowed ingest's cache drops
#    (`ingest.invalidated{cache=…}`, one per populated cache per
#    window) and its similarity work, each stage's screens included.
echo "== cargo test -q --workspace (vendored crates excluded)"
cargo test -q --workspace --exclude criterion --exclude crossbeam --exclude proptest --exclude rand --exclude rand_distr

# oss-types again, optimised: its SHA-256 kernel is SIMD code behind an
# `unsafe` dispatch, and its hot loop is only unrolled and scheduled
# under optimisation, so its tests also run on the release build.
echo "== cargo test --release -q -p oss-types"
cargo test --release -q -p oss-types

# Benches must at least compile (they are not run in CI).
echo "== cargo bench --no-run -p malgraph-bench"
cargo bench --no-run -p malgraph-bench

# perfbench is a workspace of its own, so `--workspace` above never
# builds it, yet it calls the library's public API. `--locked` keeps its
# lock file as it is; the build lands in the ignored perfbench/target.
echo "== cargo check --manifest-path perfbench/Cargo.toml"
cargo check --locked --offline --manifest-path perfbench/Cargo.toml

if [[ "${1:-}" == "--release" ]]; then
    echo "== cargo build --release"
    cargo build --release
fi

echo "CI OK"
