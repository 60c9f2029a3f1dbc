//! Golden tests for the four exporter formats. The byte-exact expected
//! strings below ARE the schema contract: any change to an exporter that
//! alters them is a breaking change for downstream consumers
//! (`malgraph stats`, `malgraph perf diff`, Prometheus scrapers,
//! `chrome://tracing`, flamegraph.pl) and must bump the `malgraph-obs/2`
//! schema id.

use malgraph::obs;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The registry is process-global; exporters are tested one at a time.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Records a small, fully deterministic workload on a fake clock and
/// snapshots it.
fn fixture_snapshot() -> obs::Snapshot {
    let clock = Arc::new(obs::FakeClock::default());
    obs::enable_with_clock(clock.clone() as Arc<dyn obs::Clock>);
    obs::reset();

    obs::counter_add("build.edges_added{relation=similar}", 7);
    obs::counter_add("kmeans.iterations", 3);
    obs::gauge_set("world.packages", 1234.0);
    obs::histogram_record("transport.backoff_ms", 1);
    obs::histogram_record("transport.backoff_ms", 250);
    obs::histogram_record("transport.backoff_ms", 2_000_000);

    clock.set_micros(100);
    let outer = obs::span!("build");
    clock.advance_micros(500);
    let inner = obs::span!("build/similar/ecosystem=npm");
    clock.advance_micros(200);
    drop(inner); // closes at 800: start 600, dur 200, all self time
    clock.advance_micros(100);
    drop(outer); // closes at 900: start 100, dur 800, self 600

    let snapshot = obs::snapshot();
    obs::disable();
    snapshot
}

#[test]
fn json_export_matches_the_schema_golden() {
    let _guard = lock();
    let snapshot = fixture_snapshot();
    // No counting allocator is installed in this test binary, so the
    // alloc fields are structurally present but zero.
    let expected = r#"{
  "schema": "malgraph-obs/2",
  "counters": {
    "build.edges_added{relation=similar}": 7,
    "kmeans.iterations": 3
  },
  "gauges": {
    "world.packages": 1234.0
  },
  "histograms": {
    "transport.backoff_ms": {"count": 3, "sum": 2000251, "min": 1, "max": 2000000, "buckets": [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]}
  },
  "spans": {
    "build": {"count": 1, "total_us": 800, "self_us": 600, "alloc_bytes": 0, "allocs": 0},
    "build/similar/ecosystem=npm": {"count": 1, "total_us": 200, "self_us": 200, "alloc_bytes": 0, "allocs": 0}
  },
  "events_dropped": 0
}
"#;
    assert_eq!(snapshot.to_json(), expected);
}

#[test]
fn folded_export_matches_the_schema_golden() {
    let _guard = lock();
    let snapshot = fixture_snapshot();
    // Self-time weights: the inner span's 200µs belong to it alone, the
    // outer span keeps 800 − 200 = 600µs. Paths are sorted, lines are
    // newline-terminated — flamegraph.pl/inferno input, byte for byte.
    assert_eq!(
        snapshot.to_folded(),
        "build 600\nbuild;build/similar/ecosystem=npm 200\n"
    );
    assert_eq!(
        snapshot.to_folded_alloc(),
        "build 0\nbuild;build/similar/ecosystem=npm 0\n"
    );
}

#[test]
fn prometheus_export_matches_the_schema_golden() {
    let _guard = lock();
    let snapshot = fixture_snapshot();
    let expected = "\
# TYPE build_edges_added counter
build_edges_added{relation=\"similar\"} 7
# TYPE kmeans_iterations counter
kmeans_iterations 3
# TYPE world_packages gauge
world_packages 1234.0
# TYPE transport_backoff_ms histogram
transport_backoff_ms_bucket{le=\"1\"} 1
transport_backoff_ms_bucket{le=\"2\"} 1
transport_backoff_ms_bucket{le=\"5\"} 1
transport_backoff_ms_bucket{le=\"10\"} 1
transport_backoff_ms_bucket{le=\"20\"} 1
transport_backoff_ms_bucket{le=\"50\"} 1
transport_backoff_ms_bucket{le=\"100\"} 1
transport_backoff_ms_bucket{le=\"200\"} 1
transport_backoff_ms_bucket{le=\"500\"} 2
transport_backoff_ms_bucket{le=\"1000\"} 2
transport_backoff_ms_bucket{le=\"2000\"} 2
transport_backoff_ms_bucket{le=\"5000\"} 2
transport_backoff_ms_bucket{le=\"10000\"} 2
transport_backoff_ms_bucket{le=\"20000\"} 2
transport_backoff_ms_bucket{le=\"50000\"} 2
transport_backoff_ms_bucket{le=\"100000\"} 2
transport_backoff_ms_bucket{le=\"200000\"} 2
transport_backoff_ms_bucket{le=\"500000\"} 2
transport_backoff_ms_bucket{le=\"1000000\"} 2
transport_backoff_ms_bucket{le=\"+Inf\"} 3
transport_backoff_ms_sum 2000251
transport_backoff_ms_count 3
# TYPE obs_span_total_us counter
obs_span_total_us{span=\"build\"} 800
obs_span_total_us{span=\"build/similar/ecosystem=npm\"} 200
# TYPE obs_span_self_us counter
obs_span_self_us{span=\"build\"} 600
obs_span_self_us{span=\"build/similar/ecosystem=npm\"} 200
# TYPE obs_span_count counter
obs_span_count{span=\"build\"} 1
obs_span_count{span=\"build/similar/ecosystem=npm\"} 1
";
    assert_eq!(snapshot.to_prometheus(), expected);
}

#[test]
fn chrome_trace_export_matches_the_schema_golden() {
    let _guard = lock();
    let snapshot = fixture_snapshot();
    let expected = "\
{\"displayTimeUnit\":\"ms\",\"traceEvents\":[
{\"name\":\"build\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":100,\"dur\":800,\"pid\":1,\"tid\":1},
{\"name\":\"build/similar/ecosystem=npm\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":600,\"dur\":200,\"pid\":1,\"tid\":1}
]}
";
    assert_eq!(snapshot.to_chrome_trace(), expected);
}

#[test]
fn chrome_trace_keeps_worker_shards_on_distinct_tid_rows() {
    let _guard = lock();
    let clock = Arc::new(obs::FakeClock::default());
    obs::enable_with_clock(clock.clone() as Arc<dyn obs::Clock>);
    obs::reset();

    clock.set_micros(100);
    obs::span!("main-stage").finish();
    // Two worker threads, joined in turn so the event timeline is fully
    // scripted; each records one span on its own registry shard.
    for (name, start) in [("worker-a", 200u64), ("worker-b", 300u64)] {
        let clock = clock.clone();
        std::thread::spawn(move || {
            clock.set_micros(start);
            obs::span!("{}", name).finish();
        })
        .join()
        .expect("worker");
    }
    let snapshot = obs::snapshot();
    obs::disable();

    // tids are renumbered densely by first appearance in the
    // time-sorted event list, so the export is byte-stable even though
    // raw registry thread ordinals depend on spawn order history.
    let expected = "\
{\"displayTimeUnit\":\"ms\",\"traceEvents\":[
{\"name\":\"main-stage\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":100,\"dur\":0,\"pid\":1,\"tid\":1},
{\"name\":\"worker-a\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":200,\"dur\":0,\"pid\":1,\"tid\":2},
{\"name\":\"worker-b\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":300,\"dur\":0,\"pid\":1,\"tid\":3}
]}
";
    assert_eq!(snapshot.to_chrome_trace(), expected);
}

#[test]
fn empty_snapshot_exports_are_well_formed() {
    let _guard = lock();
    obs::enable();
    obs::reset();
    let snapshot = obs::snapshot();
    obs::disable();
    assert_eq!(
        snapshot.to_json(),
        "{\n  \"schema\": \"malgraph-obs/2\",\n  \"counters\": {},\n  \"gauges\": {},\n  \
         \"histograms\": {},\n  \"spans\": {},\n  \"events_dropped\": 0\n}\n"
    );
    assert_eq!(snapshot.to_prometheus(), "");
    assert_eq!(
        snapshot.to_chrome_trace(),
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n"
    );
    assert_eq!(snapshot.to_folded(), "");
    assert_eq!(snapshot.to_folded_alloc(), "");
}
