//! The global metrics/span registry.
//!
//! Hot-path calls (`counter_add`, `histogram_record`, span close) write to
//! a thread-local shard guarded by its own (uncontended) mutex. Shards
//! register themselves in a global list, so a snapshot drains every live
//! shard directly — it does not depend on TLS destructors having run,
//! which matters because scoped-thread joins can return before thread
//! exit completes. A shard's Drop still folds any leftovers into the
//! global accumulator for threads that die between snapshots. All merged
//! quantities are `u64` additions — commutative and associative — so the
//! merged totals are identical regardless of thread scheduling, which is
//! what keeps instrumented pipeline runs bitwise-identical to
//! uninstrumented ones.
//!
//! # Profiling-grade attribution (PR 9)
//!
//! Each thread additionally keeps a **span stack**: the frames of every
//! open span on that thread, in begin order. A closing span charges its
//! wall time (and allocation delta, see [`crate::alloc`]) to the frame
//! below it, so every aggregate carries *self* time — total minus
//! children — and the registry can emit a folded-stack profile
//! ([`crate::Snapshot::to_folded`], flamegraph.pl/inferno-compatible).
//!
//! Parallel sections keep the *logical* stack intact across threads:
//! capture [`current_context`] before spawning and [`SpanContext::attach`]
//! inside the worker, and the worker's spans fold under the same parent
//! (and feed the same child accumulator, via a shared atomic cell) as if
//! they had run inline. Lazily-built shared resources whose triggering
//! caller is scheduling-dependent use [`detached`] instead, rooting their
//! spans at top level so the folded profile never depends on which racing
//! caller won. Together these keep the folded profile byte-identical at
//! any thread count.
//!
//! When the registry is disabled (the default) every entry point returns
//! after a single relaxed atomic load, so instrumentation left in hot
//! loops costs one predictable branch.

use crate::alloc as alloc_track;
use crate::clock::{Clock, RealClock};
use crate::export::{FoldedFrame, HistogramSnapshot, Snapshot, SpanAggregate, SpanEvent};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
use std::time::Duration;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD_ORDINAL: AtomicU64 = AtomicU64::new(1);
/// Tokens identify stack frames; 0 is reserved for "not on any stack".
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Hard cap on retained span events per run; past it events are counted
/// in `events_dropped` instead of stored, bounding memory on long runs.
pub(crate) const MAX_EVENTS: usize = 1 << 18;

/// Upper bucket bounds (inclusive, 1-2-5 per decade) shared by every
/// histogram. Values above the last bound land in the overflow bucket.
pub const BUCKET_BOUNDS: [u64; 19] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000,
];

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Histogram {
    pub counts: [u64; BUCKET_BOUNDS.len() + 1],
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKET_BOUNDS.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn record(&mut self, value: u64) {
        let idx = BUCKET_BOUNDS.partition_point(|bound| *bound < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Per-name span rollup inside a shard: every field is a `u64` sum, so
/// shard merges commute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SpanStat {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
    pub alloc_bytes: u64,
    pub allocs: u64,
}

/// Per-stack-path rollup (the folded profile): self time and self
/// allocations keyed by the full `parent;child;…` path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FoldedStat {
    pub count: u64,
    pub self_us: u64,
    pub alloc_bytes: u64,
    pub allocs: u64,
}

#[derive(Default)]
struct Aggregates {
    counters: HashMap<String, u64>,
    histograms: HashMap<String, Histogram>,
    spans: HashMap<String, SpanStat>,
    folded: HashMap<String, FoldedStat>,
    events: Vec<SpanEvent>,
    events_dropped: u64,
}

impl Aggregates {
    fn merge_from(&mut self, other: &mut Aggregates) {
        for (name, delta) in other.counters.drain() {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (name, hist) in other.histograms.drain() {
            match self.histograms.get_mut(&name) {
                Some(existing) => existing.merge(&hist),
                None => {
                    self.histograms.insert(name, hist);
                }
            }
        }
        for (name, stat) in other.spans.drain() {
            let entry = self.spans.entry(name).or_default();
            entry.count += stat.count;
            entry.total_us += stat.total_us;
            entry.self_us += stat.self_us;
            entry.alloc_bytes += stat.alloc_bytes;
            entry.allocs += stat.allocs;
        }
        for (path, stat) in other.folded.drain() {
            let entry = self.folded.entry(path).or_default();
            entry.count += stat.count;
            entry.self_us += stat.self_us;
            entry.alloc_bytes += stat.alloc_bytes;
            entry.allocs += stat.allocs;
        }
        self.events_dropped += other.events_dropped;
        for event in other.events.drain(..) {
            if self.events.len() < MAX_EVENTS {
                self.events.push(event);
            } else {
                self.events_dropped += 1;
            }
        }
    }
}

struct GlobalState {
    agg: Aggregates,
    gauges: HashMap<String, f64>,
}

fn global() -> &'static Mutex<GlobalState> {
    static GLOBAL: OnceLock<Mutex<GlobalState>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        Mutex::new(GlobalState {
            agg: Aggregates::default(),
            gauges: HashMap::new(),
        })
    })
}

fn clock_cell() -> &'static RwLock<Arc<dyn Clock>> {
    static CLOCK: OnceLock<RwLock<Arc<dyn Clock>>> = OnceLock::new();
    CLOCK.get_or_init(|| RwLock::new(Arc::new(RealClock::new())))
}

/// Microseconds on the registry clock. Mostly useful for log prefixes;
/// spans call it internally.
pub fn now_micros() -> u64 {
    clock_cell().read().unwrap().micros()
}

/// Weak handles to every shard ever registered; dead entries are pruned
/// on each sweep. Lock order is always list → shard → global state.
fn shard_list() -> &'static Mutex<Vec<Weak<Mutex<Aggregates>>>> {
    static LIST: OnceLock<Mutex<Vec<Weak<Mutex<Aggregates>>>>> = OnceLock::new();
    LIST.get_or_init(|| Mutex::new(Vec::new()))
}

struct ShardHandle {
    shard: Arc<Mutex<Aggregates>>,
    ordinal: u64,
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        // Fallback for threads that exit between snapshots: whatever a
        // sweep has not already drained folds into the global state.
        let mut agg = self.shard.lock().unwrap();
        if !agg.counters.is_empty()
            || !agg.histograms.is_empty()
            || !agg.spans.is_empty()
            || !agg.folded.is_empty()
            || !agg.events.is_empty()
            || agg.events_dropped > 0
        {
            global().lock().unwrap().agg.merge_from(&mut agg);
        }
    }
}

thread_local! {
    static SHARD: ShardHandle = {
        let shard = Arc::new(Mutex::new(Aggregates::default()));
        shard_list().lock().unwrap().push(Arc::downgrade(&shard));
        ShardHandle {
            shard,
            ordinal: NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::SeqCst),
        }
    };
}

/// Run `f` against the calling thread's shard, falling back to a direct
/// global merge if the thread-local has already been torn down (a span
/// dropped during thread exit).
fn with_shard(f: impl FnOnce(&mut Aggregates, u64)) {
    let mut f = Some(f);
    let done = SHARD
        .try_with(|handle| (f.take().unwrap())(&mut handle.shard.lock().unwrap(), handle.ordinal));
    if done.is_err() {
        let mut tmp = Aggregates::default();
        (f.take().unwrap())(&mut tmp, 0);
        global().lock().unwrap().agg.merge_from(&mut tmp);
    }
}

/// Drain every live shard into the global accumulator and prune handles
/// whose threads are gone. Called before any read of merged state, so
/// results never depend on TLS-destructor timing.
fn sweep_shards() {
    let mut list = shard_list().lock().unwrap();
    list.retain(|weak| match weak.upgrade() {
        Some(shard) => {
            let mut agg = shard.lock().unwrap();
            global().lock().unwrap().agg.merge_from(&mut agg);
            true
        }
        None => false,
    });
}

/// Turn the registry on with the real wall clock (idempotent; the clock
/// epoch is set the first time the registry is touched).
pub fn enable() {
    // Make the clock now, not inside the first span, which would be
    // charged its allocation.
    let _ = clock_cell();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the registry on with a caller-supplied clock — tests inject a
/// [`crate::FakeClock`] here to pin span timestamps.
pub fn enable_with_clock(clock: Arc<dyn Clock>) {
    *clock_cell().write().unwrap() = clock;
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the registry off; every subsequent call is a one-branch no-op.
/// Accumulated data survives until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the registry is recording. The single branch hot paths pay.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear all recorded counters, gauges, histograms, spans, and events
/// (the calling thread's shard included). Enabled state is unchanged.
pub fn reset() {
    let list = shard_list().lock().unwrap();
    for weak in list.iter() {
        if let Some(shard) = weak.upgrade() {
            *shard.lock().unwrap() = Aggregates::default();
        }
    }
    let mut state = global().lock().unwrap();
    state.agg = Aggregates::default();
    state.gauges.clear();
}

/// Add `delta` to the named counter. Labels ride inside the name using
/// `{key=value}` suffix convention, e.g. `build.edges_added{relation=similar}`.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_shard(|agg, _| match agg.counters.get_mut(name) {
        Some(value) => *value += delta,
        None => {
            agg.counters.insert(name.to_string(), delta);
        }
    });
}

/// Set the named gauge to `value` (last write wins). Gauges are low
/// frequency, so they go straight to the global table under the lock.
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    global()
        .lock()
        .unwrap()
        .gauges
        .insert(name.to_string(), value);
}

/// Record one observation in the named fixed-bucket histogram
/// (bounds in [`BUCKET_BOUNDS`], plus an overflow bucket).
pub fn histogram_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    with_shard(|agg, _| match agg.histograms.get_mut(name) {
        Some(hist) => hist.record(value),
        None => {
            let mut hist = Histogram::new();
            hist.record(value);
            agg.histograms.insert(name.to_string(), hist);
        }
    });
}

/// What children charge their parent frame: wall time plus allocation
/// deltas, all relaxed atomic adds so cross-thread children (attached
/// contexts) merge deterministically.
#[derive(Default)]
pub(crate) struct ChildAccum {
    us: AtomicU64,
    bytes: AtomicU64,
    allocs: AtomicU64,
}

/// One open span (or attached context) on a thread's stack. `path` is
/// the full folded path including the frame's own name; `None` marks a
/// [`detached`] barrier, under which spans root at top level.
struct StackFrame {
    token: u64,
    path: Option<Arc<str>>,
    accum: Arc<ChildAccum>,
}

/// Span nesting depth a thread's stack holds without reallocating.
const STACK_RESERVE: usize = 32;

thread_local! {
    // Reserved up front rather than grown on demand: growth would charge
    // an allocation to whichever span first nests deeper than its thread
    // ever had, so a span's count would depend on the thread's history.
    static STACK: RefCell<Vec<StackFrame>> = RefCell::new(Vec::with_capacity(STACK_RESERVE));
}

/// Remove the frame with `token` and everything above it (frames above a
/// closing frame are stale: their spans were leaked or closed on another
/// thread; truncating keeps later spans from nesting under them).
fn pop_frame(token: u64) {
    if token == 0 {
        return;
    }
    let _ = STACK.try_with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(idx) = stack.iter().rposition(|f| f.token == token) {
            stack.truncate(idx);
        }
    });
}

/// A captured position in the logical span stack, for carrying
/// attribution across a thread spawn. Capture on the spawning thread with
/// [`current_context`], then [`SpanContext::attach`] inside the worker:
/// spans the worker opens fold under the captured parent and charge their
/// time and allocations to it exactly as if they had run inline — which
/// is what keeps folded profiles identical at any thread count.
pub struct SpanContext {
    parent: Option<(Arc<str>, Arc<ChildAccum>)>,
}

/// Capture the calling thread's innermost open span as a propagatable
/// context. Empty (a no-op to attach) when the registry is disabled, the
/// stack is empty, or the top frame is a [`detached`] barrier.
pub fn current_context() -> SpanContext {
    let mut parent = None;
    if enabled() {
        let _ = STACK.try_with(|stack| {
            if let Some(top) = stack.borrow().last() {
                if let Some(path) = &top.path {
                    parent = Some((path.clone(), top.accum.clone()));
                }
            }
        });
    }
    SpanContext { parent }
}

impl SpanContext {
    /// Push this context onto the calling thread's stack until the guard
    /// drops. Spans begun under the guard treat the captured span as
    /// their parent.
    pub fn attach(&self) -> ContextGuard {
        let Some((path, accum)) = &self.parent else {
            return ContextGuard { token: 0 };
        };
        if !enabled() {
            return ContextGuard { token: 0 };
        }
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        let pushed = STACK
            .try_with(|stack| {
                stack.borrow_mut().push(StackFrame {
                    token,
                    path: Some(path.clone()),
                    accum: accum.clone(),
                });
            })
            .is_ok();
        ContextGuard {
            token: if pushed { token } else { 0 },
        }
    }
}

/// Mask the calling thread's span stack until the guard drops: spans
/// begun under it root at top level and their time is not charged to any
/// enclosing span. Use around lazily-built shared resources (`OnceLock`
/// initialisers) whose triggering caller is scheduling-dependent — the
/// folded profile then attributes them to a stable root instead of to
/// whichever racing caller happened to win.
pub fn detached() -> ContextGuard {
    if !enabled() {
        return ContextGuard { token: 0 };
    }
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    let pushed = STACK
        .try_with(|stack| {
            stack.borrow_mut().push(StackFrame {
                token,
                path: None,
                accum: Arc::default(),
            });
        })
        .is_ok();
    ContextGuard {
        token: if pushed { token } else { 0 },
    }
}

/// Stack guard returned by [`SpanContext::attach`] and [`detached`];
/// removes its frame (and any stale frames above it) on drop.
pub struct ContextGuard {
    token: u64,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        pop_frame(self.token);
    }
}

/// A timing guard: measures from construction to drop (or [`Span::finish`])
/// and records a span event plus an aggregate entry under its name.
/// Construct through the [`crate::span!`] macro, which skips the name
/// formatting entirely when the registry is disabled.
///
/// Spans must close on the thread that began them — attribution samples
/// the thread's allocation counters and span stack. A guard moved to and
/// closed on another thread still records its wall time, but its
/// allocation delta is meaningless and is dropped to zero by saturation.
pub struct Span {
    name: Option<String>,
    path: String,
    token: u64,
    start_us: u64,
    start_bytes: u64,
    start_allocs: u64,
    parent: Option<Arc<ChildAccum>>,
    accum: Option<Arc<ChildAccum>>,
}

impl Span {
    /// Begin a span. Returns a no-op guard when the registry is disabled.
    pub fn begin(name: String) -> Span {
        if !enabled() {
            return Span::noop();
        }
        // Make this thread's stack and shard, if this is its first span,
        // before sampling the allocation counters: their one-time
        // allocations belong to no span.
        let _ = STACK.try_with(|_| ());
        let _ = SHARD.try_with(|_| ());
        let (start_bytes, start_allocs) = alloc_track::thread_totals();
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        let accum: Arc<ChildAccum> = Arc::default();
        let mut parent = None;
        let mut path = name.clone();
        let _ = STACK.try_with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(top) = stack.last() {
                if let Some(parent_path) = &top.path {
                    path = format!("{parent_path};{name}");
                }
                parent = Some(top.accum.clone());
            }
            stack.push(StackFrame {
                token,
                path: Some(Arc::from(path.as_str())),
                accum: accum.clone(),
            });
        });
        Span {
            name: Some(name),
            path,
            token,
            start_us: now_micros(),
            start_bytes,
            start_allocs,
            parent,
            accum: Some(accum),
        }
    }

    /// A guard that records nothing and measures zero.
    pub fn noop() -> Span {
        Span {
            name: None,
            path: String::new(),
            token: 0,
            start_us: 0,
            start_bytes: 0,
            start_allocs: 0,
            parent: None,
            accum: None,
        }
    }

    /// Close the span now and return the measured wall time
    /// ([`Duration::ZERO`] for a no-op guard).
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let Some(name) = self.name.take() else {
            return Duration::ZERO;
        };
        let end_us = now_micros();
        let dur_us = end_us.saturating_sub(self.start_us);
        let (end_bytes, end_allocs) = alloc_track::thread_totals();
        let delta_bytes = end_bytes.saturating_sub(self.start_bytes);
        let delta_allocs = end_allocs.saturating_sub(self.start_allocs);
        pop_frame(self.token);
        let (child_us, child_bytes, child_allocs) = match &self.accum {
            Some(accum) => (
                accum.us.load(Ordering::Relaxed),
                accum.bytes.load(Ordering::Relaxed),
                accum.allocs.load(Ordering::Relaxed),
            ),
            None => (0, 0, 0),
        };
        let self_us = dur_us.saturating_sub(child_us);
        let self_bytes = delta_bytes.saturating_sub(child_bytes);
        let self_allocs = delta_allocs.saturating_sub(child_allocs);
        if let Some(parent) = &self.parent {
            parent.us.fetch_add(dur_us, Ordering::Relaxed);
            parent.bytes.fetch_add(delta_bytes, Ordering::Relaxed);
            parent.allocs.fetch_add(delta_allocs, Ordering::Relaxed);
        }
        let path = std::mem::take(&mut self.path);
        let start_us = self.start_us;
        with_shard(|agg, ordinal| {
            let stat = agg.spans.entry(name.clone()).or_default();
            stat.count += 1;
            stat.total_us += dur_us;
            stat.self_us += self_us;
            stat.alloc_bytes += self_bytes;
            stat.allocs += self_allocs;
            let folded = agg.folded.entry(path).or_default();
            folded.count += 1;
            folded.self_us += self_us;
            folded.alloc_bytes += self_bytes;
            folded.allocs += self_allocs;
            if agg.events.len() < MAX_EVENTS {
                agg.events.push(SpanEvent {
                    name,
                    thread: ordinal,
                    start_us,
                    dur_us,
                });
            } else {
                agg.events_dropped += 1;
            }
        });
        Duration::from_micros(dur_us)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// Total recorded microseconds under the named span so far (flushes the
/// calling thread's shard first). Callers use before/after deltas to
/// attribute nested time, e.g. the similarity share of a build.
pub fn span_total_micros(name: &str) -> u64 {
    sweep_shards();
    global()
        .lock()
        .unwrap()
        .agg
        .spans
        .get(name)
        .map(|stat| stat.total_us)
        .unwrap_or(0)
}

/// A consistent copy of everything recorded so far, with deterministic
/// (name-sorted) ordering ready for export.
pub fn snapshot() -> Snapshot {
    sweep_shards();
    let state = global().lock().unwrap();
    let mut counters: Vec<(String, u64)> = state
        .agg
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    counters.sort();
    let mut gauges: Vec<(String, f64)> =
        state.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let mut histograms: Vec<HistogramSnapshot> = state
        .agg
        .histograms
        .iter()
        .map(|(name, h)| HistogramSnapshot {
            name: name.clone(),
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0 } else { h.min },
            max: h.max,
            buckets: h.counts.to_vec(),
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    let mut spans: Vec<SpanAggregate> = state
        .agg
        .spans
        .iter()
        .map(|(name, stat)| SpanAggregate {
            name: name.clone(),
            count: stat.count,
            total_us: stat.total_us,
            self_us: stat.self_us,
            alloc_bytes: stat.alloc_bytes,
            allocs: stat.allocs,
        })
        .collect();
    spans.sort_by(|a, b| a.name.cmp(&b.name));
    let mut folded: Vec<FoldedFrame> = state
        .agg
        .folded
        .iter()
        .map(|(stack, stat)| FoldedFrame {
            stack: stack.clone(),
            count: stat.count,
            self_us: stat.self_us,
            alloc_bytes: stat.alloc_bytes,
            allocs: stat.allocs,
        })
        .collect();
    folded.sort_by(|a, b| a.stack.cmp(&b.stack));
    let mut events = state.agg.events.clone();
    // Name before thread ordinal: worker ordinals depend on spawn timing,
    // so under a fake clock (equal start times) sorting by name keeps the
    // trace byte-stable run to run.
    events.sort_by(|a, b| {
        (a.start_us, &a.name, a.dur_us, a.thread).cmp(&(b.start_us, &b.name, b.dur_us, b.thread))
    });
    Snapshot {
        counters,
        gauges,
        histograms,
        spans,
        folded,
        events,
        events_dropped: state.agg.events_dropped,
    }
}

/// Begin a [`Span`], formatting its name only when the registry is
/// enabled (disabled call sites pay one branch, no allocation).
#[macro_export]
macro_rules! span {
    ($($arg:tt)*) => {
        if $crate::enabled() {
            $crate::Span::begin(format!($($arg)*))
        } else {
            $crate::Span::noop()
        }
    };
}
