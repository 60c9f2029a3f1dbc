//! Observability spine for the MALGRAPH reproduction.
//!
//! One global registry shared by every pipeline crate, providing three
//! primitives:
//!
//! * **Spans** — hierarchical-by-name timing guards
//!   (`obs::span!("build/similar/ecosystem={eco}")`) measured through a
//!   pluggable [`Clock`]. The path convention uses `/` for stage nesting
//!   and `key=value` segments for dimensions; the given name *is* the
//!   full path (no implicit parent prefixing), so the same code reports
//!   the same path from every entry point.
//! * **Metrics** — named counters, gauges, and fixed-bucket histograms
//!   ([`BUCKET_BOUNDS`]: 1-2-5 per decade). Labels ride inside the name
//!   as a `{key=value}` suffix, e.g. `build.edges_added{relation=similar}`.
//! * **Profiling** — every span tracks *self* time (wall time minus
//!   child spans) alongside total time, and binaries that install
//!   [`alloc::CountingAlloc`] can charge allocation bytes/calls to the
//!   innermost open span ([`alloc`]). Spans nest through a thread-local
//!   stack; [`current_context`] / [`SpanContext::attach`] carry the
//!   logical stack across worker-thread spawns so profiles are
//!   identical at any thread count, and [`detached`] roots spans whose
//!   triggering caller is scheduling-dependent (lazy caches).
//! * **Exporters** — [`Snapshot::to_json`] (schema `malgraph-obs/2`),
//!   [`Snapshot::to_prometheus`] (text exposition format),
//!   [`Snapshot::to_chrome_trace`] (Perfetto-loadable trace events),
//!   and [`Snapshot::to_folded`] (flamegraph.pl-compatible collapsed
//!   stacks, byte-stable under [`FakeClock`]).
//! * **Baselines** — [`baseline`] loads snapshot or bench JSON into
//!   [`baseline::PerfProfile`]s and diffs them under noise thresholds,
//!   powering `malgraph perf diff` and the CI perf gate.
//!
//! # Overhead policy
//!
//! The registry is **off by default**. Disabled call sites cost one
//! relaxed atomic load — `span!` does not even format its name — so
//! instrumentation stays in hot paths permanently. Enabled call sites
//! write to thread-local shards; shards fold into the global accumulator
//! on thread exit or snapshot. Every merged quantity is a `u64` addition,
//! so merge order (i.e. thread scheduling) cannot change a snapshot, and
//! instrumentation never alters pipeline output: instrumented runs are
//! bitwise-identical to uninstrumented ones at any thread count.
//!
//! ```
//! obs::enable();
//! obs::reset();
//! let span = obs::span!("demo/stage");
//! obs::counter_add("demo.items", 3);
//! obs::histogram_record("demo.latency_ms", 17);
//! let elapsed = span.finish();
//! assert!(elapsed >= std::time::Duration::ZERO);
//! let snap = obs::snapshot();
//! assert_eq!(snap.counters, vec![("demo.items".to_string(), 3)]);
//! obs::disable();
//! ```

// deny (not forbid) so the one GlobalAlloc module can carve itself out.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod baseline;
mod clock;
mod export;
mod log;
mod registry;

pub use clock::{Clock, FakeClock, RealClock};
pub use export::{FoldedFrame, HistogramSnapshot, Snapshot, SpanAggregate, SpanEvent};
pub use log::{log_at, log_enabled, log_level, set_log_level, Level};
pub use registry::{
    counter_add, current_context, detached, disable, enable, enable_with_clock, enabled, gauge_set,
    histogram_record, now_micros, reset, snapshot, span_total_micros, ContextGuard, Span,
    SpanContext, BUCKET_BOUNDS,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, OnceLock};

    // Install the counting allocator in the unit-test binary so the
    // allocation-attribution tests exercise the real sampling path.
    #[global_allocator]
    static TEST_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

    /// The registry is global; tests that enable/reset it serialize here.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_registry_records_nothing_and_spans_measure_zero() {
        let _guard = lock();
        disable();
        reset();
        counter_add("x", 5);
        gauge_set("g", 1.0);
        histogram_record("h", 10);
        let span = span!("never/{}", "formatted");
        assert_eq!(span.finish(), std::time::Duration::ZERO);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let _guard = lock();
        enable();
        reset();
        // Exactly on a bound → that bucket; one past → the next bucket.
        for value in [1, 2, 5, 10, 1_000, 1_000_000] {
            histogram_record("bounds", value);
        }
        histogram_record("bounds", 3); // inside (2, 5]
        histogram_record("bounds", 1_000_001); // overflow
        histogram_record("bounds", 0); // below the first bound → first bucket
        let snap = snapshot();
        disable();
        let hist = &snap.histograms[0];
        assert_eq!(hist.name, "bounds");
        assert_eq!(hist.count, 9);
        assert_eq!(hist.min, 0);
        assert_eq!(hist.max, 1_000_001);
        assert_eq!(hist.sum, 1 + 2 + 5 + 10 + 1_000 + 1_000_000 + 3 + 1_000_001);
        let idx = |bound: u64| BUCKET_BOUNDS.iter().position(|b| *b == bound).unwrap();
        assert_eq!(hist.buckets[idx(1)], 2, "0 and 1 both land in le=1");
        assert_eq!(hist.buckets[idx(2)], 1);
        assert_eq!(hist.buckets[idx(5)], 2, "3 and 5 land in le=5");
        assert_eq!(hist.buckets[idx(10)], 1);
        assert_eq!(hist.buckets[idx(1_000)], 1);
        assert_eq!(hist.buckets[idx(1_000_000)], 1);
        assert_eq!(*hist.buckets.last().unwrap(), 1, "1_000_001 overflows");
        assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
    }

    #[test]
    fn shard_merge_is_deterministic_across_thread_counts() {
        let _guard = lock();
        let run = |threads: usize| {
            enable();
            reset();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    scope.spawn(move || {
                        // Each unit of work is keyed by its index, not its
                        // thread, so any partition yields the same totals.
                        for i in (t..64).step_by(threads) {
                            counter_add("work.items", 1);
                            counter_add(&format!("work.bucket{{mod={}}}", i % 3), i as u64);
                            histogram_record("work.cost", (i as u64 % 7) * 100);
                        }
                    });
                }
            });
            let snap = snapshot();
            disable();
            (snap.counters, snap.histograms)
        };
        let single = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(
                run(threads),
                single,
                "{threads} threads must merge identically"
            );
        }
    }

    #[test]
    fn spans_record_events_aggregates_and_return_durations() {
        let _guard = lock();
        let clock = Arc::new(FakeClock::new());
        enable_with_clock(clock.clone());
        reset();
        clock.set_micros(50);
        let outer = span!("stage/{}", "outer");
        clock.advance_micros(10);
        let inner = span!("stage/inner");
        clock.advance_micros(30);
        assert_eq!(inner.finish(), std::time::Duration::from_micros(30));
        clock.advance_micros(5);
        drop(outer); // records 45µs via Drop
        let total = span_total_micros("stage/outer");
        let snap = snapshot();
        disable();
        assert_eq!(total, 45);
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.events.len(), 2);
        let inner_event = snap
            .events
            .iter()
            .find(|e| e.name == "stage/inner")
            .unwrap();
        assert_eq!((inner_event.start_us, inner_event.dur_us), (60, 30));
        let outer_agg = snap.spans.iter().find(|s| s.name == "stage/outer").unwrap();
        assert_eq!((outer_agg.count, outer_agg.total_us), (1, 45));
    }

    #[test]
    fn reset_clears_everything() {
        let _guard = lock();
        enable();
        reset();
        counter_add("c", 1);
        gauge_set("g", 2.0);
        histogram_record("h", 3);
        span!("s").finish();
        reset();
        let snap = snapshot();
        disable();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
        assert!(snap.events.is_empty());
        assert_eq!(snap.events_dropped, 0);
    }

    #[test]
    fn self_time_splits_parent_and_child_and_folds_stacks() {
        let _guard = lock();
        let clock = Arc::new(FakeClock::new());
        enable_with_clock(clock.clone());
        reset();
        clock.set_micros(100);
        let outer = span!("p/outer");
        clock.advance_micros(10);
        let inner = span!("p/inner");
        clock.advance_micros(30);
        inner.finish();
        clock.advance_micros(5);
        drop(outer); // total 45µs, of which 30µs belong to the child
        let snap = snapshot();
        disable();
        let agg = |name: &str| snap.spans.iter().find(|s| s.name == name).unwrap();
        assert_eq!((agg("p/outer").total_us, agg("p/outer").self_us), (45, 15));
        assert_eq!((agg("p/inner").total_us, agg("p/inner").self_us), (30, 30));
        assert_eq!(snap.to_folded(), "p/outer 15\np/outer;p/inner 30\n");
    }

    #[test]
    fn span_context_carries_the_stack_across_threads() {
        let _guard = lock();
        let run = |spawn: bool| {
            let clock = Arc::new(FakeClock::new());
            enable_with_clock(clock.clone());
            reset();
            clock.set_micros(0);
            let root = span!("root");
            clock.advance_micros(10);
            let work = || {
                let child = span!("child");
                clock.advance_micros(7);
                child.finish();
            };
            if spawn {
                let ctx = current_context();
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        let _attached = ctx.attach();
                        work();
                    });
                });
            } else {
                work();
            }
            drop(root); // total 17µs, child 7µs → self 10µs
            let snap = snapshot();
            disable();
            (snap.to_folded(), snap.spans.clone())
        };
        let inline = run(false);
        let threaded = run(true);
        assert_eq!(inline.0, "root 10\nroot;child 7\n");
        assert_eq!(
            inline, threaded,
            "worker spans must fold under the captured parent"
        );
    }

    #[test]
    fn detached_spans_root_at_top_level_and_skip_parent_charging() {
        let _guard = lock();
        let clock = Arc::new(FakeClock::new());
        enable_with_clock(clock.clone());
        reset();
        clock.set_micros(0);
        let caller = span!("caller");
        {
            let _barrier = detached();
            let lazy = span!("lazy/init");
            clock.advance_micros(40);
            lazy.finish();
        }
        clock.advance_micros(2);
        drop(caller);
        let snap = snapshot();
        disable();
        let caller_agg = snap.spans.iter().find(|s| s.name == "caller").unwrap();
        // The detached child's 40µs elapse on the same clock, so they are
        // inside caller's wall time but must NOT be subtracted as child
        // time — the lazy span is attributed as its own root.
        assert_eq!((caller_agg.total_us, caller_agg.self_us), (42, 42));
        assert_eq!(snap.to_folded(), "caller 42\nlazy/init 40\n");
    }

    #[test]
    fn alloc_tracking_charges_bytes_to_the_active_span() {
        let _guard = lock();
        enable();
        reset();
        alloc::enable_tracking();
        let (b0, a0) = alloc::thread_totals();
        let outer = span!("mem/outer");
        let inner = span!("mem/inner");
        let block = std::hint::black_box(vec![0u8; 1 << 16]);
        inner.finish();
        drop(block);
        outer.finish();
        let (b1, a1) = alloc::thread_totals();
        alloc::disable_tracking();
        let snap = snapshot();
        disable();
        assert!(
            b1 - b0 >= 1 << 16,
            "thread totals must see the 64 KiB block"
        );
        assert!(a1 > a0);
        let agg = |name: &str| snap.spans.iter().find(|s| s.name == name).unwrap();
        assert!(
            agg("mem/inner").alloc_bytes >= 1 << 16,
            "inner owns the block"
        );
        assert!(agg("mem/inner").allocs >= 1);
        assert!(
            agg("mem/outer").alloc_bytes < 1 << 16,
            "child allocations must not double-charge the parent (outer self = {})",
            agg("mem/outer").alloc_bytes
        );
        let folded_alloc = snap.to_folded_alloc();
        let inner_line = folded_alloc
            .lines()
            .find(|l| l.starts_with("mem/outer;mem/inner "))
            .expect("folded alloc profile has the nested frame");
        let weight: u64 = inner_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(weight >= 1 << 16);
    }

    #[test]
    fn span_allocations_do_not_depend_on_what_the_thread_ran_before() {
        let _guard = lock();
        enable();
        alloc::enable_tracking();
        // A fresh thread makes its span stack and shard on first use, and
        // its first pass nests deeper than it ever had; the second pass
        // repeats the same work on a thread that has done it all before.
        let passes: Vec<u64> = std::thread::spawn(|| {
            (0..2)
                .map(|_| {
                    reset();
                    {
                        let _s1 = span!("hist/1");
                        let _s2 = span!("hist/2");
                        let _s3 = span!("hist/3");
                        let _s4 = span!("hist/4");
                        let _s5 = span!("hist/5");
                        let _s6 = span!("hist/6");
                        counter_add("hist.calls", 1);
                        std::hint::black_box(vec![0u8; 64]);
                    }
                    let snap = snapshot();
                    snap.spans
                        .iter()
                        .filter(|s| s.name.starts_with("hist/"))
                        .map(|s| s.allocs)
                        .sum()
                })
                .collect()
        })
        .join()
        .unwrap();
        alloc::disable_tracking();
        disable();
        assert_eq!(
            passes[0], passes[1],
            "allocation calls of two identical passes"
        );
    }

    #[test]
    fn alloc_tracking_disabled_reports_zero_deltas() {
        let _guard = lock();
        enable();
        reset();
        let span = span!("mem/quiet");
        let _v = std::hint::black_box(vec![0u8; 4096]);
        span.finish();
        let snap = snapshot();
        disable();
        let agg = snap.spans.iter().find(|s| s.name == "mem/quiet").unwrap();
        assert_eq!((agg.alloc_bytes, agg.allocs), (0, 0));
    }

    #[test]
    fn log_levels_parse_and_order() {
        assert_eq!("info".parse::<Level>().unwrap(), Level::Info);
        assert_eq!("WARN".parse::<Level>().unwrap(), Level::Warn);
        assert!("loud".parse::<Level>().is_err());
        assert!(Level::Error < Level::Trace);
        set_log_level(Level::Warn);
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Warn));
        assert!(!log_enabled(Level::Info));
        set_log_level(Level::Off);
        assert!(!log_enabled(Level::Error));
    }
}
