//! Sampling span tracer: per-operation phase timelines across the
//! whole stack (em → tree → store → live).
//!
//! Metrics (the [`crate::registry`]) answer *how much in aggregate*;
//! the event ring answers *when, in what order*. This module answers
//! the remaining question — *where did this one operation spend its
//! time* — by recording timestamped [`Span`]s (and, for queries,
//! per-level traversal counters) into the operation's trace.
//!
//! # One per-thread stack
//!
//! Each thread keeps a stack of its open operations. An operation (a
//! query's traversal, a write batch, a merge, a WAL replay) opens one
//! with [`start`], which decides sampling and returns an [`OpTrace`]:
//! [`OpTrace::finish`] publishes the trace, dropping it unfinished (an
//! error path) discards it. Every layer records into the innermost open
//! operation on its own thread with one free call — [`span_since`]
//! after [`span_start`], or the RAII [`span`] — and a query tallies its
//! levels with [`tally_level`]; nothing is threaded through signatures.
//! Isolation: a frame is pushed only while tracing is enabled; an
//! operation that is not sampled pushes an inert frame, so what its
//! nested calls record reaches no enclosing trace; a nested operation
//! (an inline merge) publishes its own trace; and a span lands on its
//! own thread's stack, so a group-commit leader's WAL spans stay in the
//! leader's trace and a background merge's store commit in the worker's.
//!
//! # Sampling & overhead contract
//!
//! Tracing is off by default. While disabled, [`start`] and
//! [`span_start`] cost **one relaxed atomic load** ([`enabled()`]) —
//! the same contract as the registry's recording switch and the fault
//! layer's disarmed probe. prbench reports what arming costs
//! (`obs.trace_overhead_pct`, traced against untraced rounds of the
//! same work, interleaved). [`set_sampling(n)`](set_sampling) arms the
//! tracer at a 1-in-`n` rate (`0` disables, `1` traces everything),
//! decided once per operation by a shared relaxed counter; a span
//! inside a sampled operation costs two `Instant` reads and a push.
//!
//! # Flight recorder & retention policy
//!
//! Finished traces are published ([`publish`]) to the process-wide
//! [`FlightRecorder`], which keeps the **8 slowest traces per op-kind**,
//! admitting only traces at least as slow as the
//! configured threshold ([`FlightRecorder::configure`]; default 0 µs =
//! keep the slowest 8 regardless). Within a kind the list is sorted
//! slowest-first and the fastest retained trace is evicted on overflow,
//! so the recorder converges on "the worst operations this process has
//! seen". `prtree slow`, `stats --json` and `ingest --metrics-file`
//! dump it.
//!
//! # Consumers
//!
//! * `prtree query/knn --explain` — installs a collector
//!   ([`install_collector`]), samples 1-in-1 for one query, and prints
//!   the per-level profile (cross-checked exactly against `QueryStats`).
//! * `prtree slow [--json]` / `stats --json` — the flight recorder.
//! * `prtree ingest --trace-file` — [`chrome_trace_json`], a
//!   Chrome-trace-event JSON export that opens in `about://tracing` or
//!   Perfetto (`--n 0 --flush` captures just open + replay + flush).

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::{JsonArr, JsonObj};

// ---------------------------------------------------------------------------
// Sampling switch
// ---------------------------------------------------------------------------

/// Whether the tracer is armed at all. One relaxed load on every hot
/// path; false means nothing below this line runs.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Trace 1 in `SAMPLE_EVERY` operations (only meaningful while armed).
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);
/// Shared operation counter driving the 1-in-n decision.
static TICK: AtomicU64 = AtomicU64::new(0);

/// True when the tracer is armed (some operations may be sampled).
/// This is the one relaxed atomic load the disabled hot path pays.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arms the tracer at a 1-in-`every` sampling rate. `0` disables
/// tracing entirely; `1` traces every operation.
pub fn set_sampling(every: u64) {
    SAMPLE_EVERY.store(every, Ordering::Relaxed);
    ENABLED.store(every != 0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Trace data model
// ---------------------------------------------------------------------------

/// One timestamped phase inside a trace. `start_us`/`dur_us` are
/// offsets from the trace's start, in microseconds.
#[derive(Clone, Debug)]
pub struct Span {
    /// Which layer emitted the span: `"em"`, `"tree"`, `"store"`,
    /// `"live"`.
    pub layer: &'static str,
    /// Phase name (`"fsync"`, `"bulk_load"`, `"page_read"`, …).
    pub name: &'static str,
    /// Microseconds from the trace's start.
    pub start_us: u64,
    /// Span length in microseconds.
    pub dur_us: u64,
    /// Short free-form payload (`"slot=3 items=4096"`).
    pub detail: String,
}

/// Per-tree-level traversal counters for a query trace (index 0 =
/// leaf level, matching node levels on disk).
#[derive(Clone, Debug, Default)]
pub struct LevelCounters {
    /// Nodes of this level visited (leaves + internal).
    pub nodes: u64,
    /// Leaf nodes visited.
    pub leaves: u64,
    /// Internal nodes visited.
    pub internal: u64,
    /// Device page reads performed while visiting this level.
    pub device_reads: u64,
}

/// A completed trace: one operation's phase timeline.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Operation kind: `"window"`, `"knn"`, `"write"`, `"merge"`,
    /// `"compaction"`, `"wal_replay"`, ….
    pub kind: &'static str,
    /// Wall-clock start (ms since the unix epoch).
    pub unix_ms: u64,
    /// Total operation time in microseconds.
    pub total_us: u64,
    /// Short free-form payload (`"results=117"`).
    pub detail: String,
    /// Phase spans, in the order they ended.
    pub spans: Vec<Span>,
    /// Per-level traversal counters (queries only; empty otherwise).
    pub levels: Vec<LevelCounters>,
}

// ---------------------------------------------------------------------------
// The per-thread stack of open operations
// ---------------------------------------------------------------------------

/// A sampled operation's frame: its start and the trace it fills.
type Frame = (Instant, Trace);

thread_local! {
    /// This thread's open operations, innermost last. `None` is an
    /// operation that was not sampled: what its nested calls record is
    /// dropped.
    static STACK: RefCell<Vec<Option<Frame>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the innermost open operation's start and trace when
/// that operation is sampled; does nothing otherwise.
fn with_top(f: impl FnOnce(Instant, &mut Trace)) {
    STACK.with(|s| {
        if let Some(Some((t0, trace))) = s.borrow_mut().last_mut() {
            f(*t0, trace);
        }
    });
}

/// Opens an operation's trace on this thread, deciding sampling: one
/// relaxed load when tracing is off (nothing is pushed then), else a
/// fetch-add and a frame push — an inert frame unless this operation is
/// the 1-in-n sample. Finish the guard to publish.
#[inline]
pub fn start(kind: &'static str) -> OpTrace {
    let mut op = OpTrace {
        depth: 0,
        sampled: false,
        _thread: PhantomData,
    };
    if enabled() {
        let every = SAMPLE_EVERY.load(Ordering::Relaxed).max(1);
        op.sampled = TICK.fetch_add(1, Ordering::Relaxed).is_multiple_of(every);
        op.depth = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(op.sampled.then(|| {
                let trace = Trace {
                    kind,
                    unix_ms: crate::now_unix_ms(),
                    total_us: 0,
                    detail: String::new(),
                    spans: Vec::new(),
                    levels: Vec::new(),
                };
                (Instant::now(), trace)
            }));
            s.len()
        });
    }
    op
}

/// An open operation's frame on its thread's stack (see [`start`]).
/// Dropping it unfinished discards the frame and any left above it.
#[must_use = "a trace is published only by `finish`"]
pub struct OpTrace {
    /// Stack length once this frame was pushed; 0 when nothing was.
    depth: usize,
    sampled: bool,
    _thread: PhantomData<*const ()>,
}

impl OpTrace {
    /// True when this operation is the sample, so its trace records.
    #[inline]
    pub fn is_sampled(&self) -> bool {
        self.sampled
    }

    /// Pops this operation's frame and, when it was sampled, publishes
    /// its trace with `detail` as the trace-level payload
    /// (`format_args!("results={n}")`, formatted only then).
    pub fn finish(mut self, detail: fmt::Arguments<'_>) {
        if let Some((t0, mut trace)) = self.pop() {
            trace.total_us = t0.elapsed().as_micros() as u64;
            trace.detail = detail.to_string();
            publish(trace);
        }
    }

    fn pop(&mut self) -> Option<Frame> {
        let depth = std::mem::take(&mut self.depth);
        if depth == 0 {
            return None;
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            let frame = s.get_mut(depth - 1).and_then(Option::take);
            s.truncate(depth - 1);
            frame
        })
    }
}

impl Drop for OpTrace {
    fn drop(&mut self) {
        self.pop();
    }
}

/// The start of a span, when this thread's innermost open operation is
/// sampled: pass it to [`span_since`]. One relaxed load when tracing is
/// off.
#[inline]
pub fn span_start() -> Option<Instant> {
    if !enabled() {
        return None;
    }
    let sampled = STACK.with(|s| matches!(s.borrow().last(), Some(Some(_))));
    sampled.then(Instant::now)
}

/// Records a span from `start` (from [`span_start`]; `None` records
/// nothing) to now into this thread's innermost open operation, if that
/// operation is sampled. `detail` is formatted only then.
pub fn span_since(
    layer: &'static str,
    name: &'static str,
    start: Option<Instant>,
    detail: fmt::Arguments<'_>,
) {
    let Some(start) = start else { return };
    with_top(|t0, trace| {
        let now_us = t0.elapsed().as_micros() as u64;
        let dur_us = start.elapsed().as_micros() as u64;
        trace.spans.push(Span {
            layer,
            name,
            start_us: now_us.saturating_sub(dur_us),
            dur_us,
            detail: detail.to_string(),
        });
    });
}

/// Accumulates per-level traversal counters into this thread's
/// innermost sampled operation. `level` 0 is the leaf level.
pub fn tally_level(level: usize, leaves: u64, internal: u64, device_reads: u64) {
    with_top(|_, trace| {
        if trace.levels.len() <= level {
            trace.levels.resize_with(level + 1, LevelCounters::default);
        }
        let lc = &mut trace.levels[level];
        lc.nodes += leaves + internal;
        lc.leaves += leaves;
        lc.internal += internal;
        lc.device_reads += device_reads;
    });
}

/// Opens a span recorded from now until the guard drops, for a layer
/// whose phase has many exits (a store commit, a store open).
pub fn span(layer: &'static str, name: &'static str) -> SpanGuard {
    SpanGuard {
        layer,
        name,
        start: span_start(),
        detail: String::new(),
    }
}

/// A span that records itself on drop (see [`span`]).
pub struct SpanGuard {
    layer: &'static str,
    name: &'static str,
    start: Option<Instant>,
    detail: String,
}

impl SpanGuard {
    /// Attaches a payload, formatted only when the span records.
    pub fn detail(&mut self, detail: fmt::Arguments<'_>) {
        if self.start.is_some() {
            self.detail = detail.to_string();
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        span_since(
            self.layer,
            self.name,
            self.start,
            format_args!("{}", self.detail),
        );
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Bounded keep-the-slowest store of completed traces, grouped by
/// op-kind. See the module docs for the retention policy.
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
}

/// How many traces the flight recorder keeps per op-kind.
const KEEP_PER_KIND: usize = 8;

struct RecorderInner {
    threshold_us: u64,
    /// (kind, slowest-first traces).
    kinds: Vec<(&'static str, Vec<Trace>)>,
}

impl FlightRecorder {
    fn new() -> Self {
        FlightRecorder {
            inner: Mutex::new(RecorderInner {
                threshold_us: 0,
                kinds: Vec::new(),
            }),
        }
    }

    /// Sets the admission bar: only traces of at least `threshold_us`
    /// total time are retained. Already-retained traces below the new
    /// bar are kept until evicted by slower arrivals.
    pub fn configure(&self, threshold_us: u64) {
        self.inner.lock().unwrap().threshold_us = threshold_us;
    }

    /// Offers a completed trace; it is retained if it clears the
    /// threshold and is among the 8 slowest of its kind.
    pub fn offer(&self, trace: Trace) {
        let mut inner = self.inner.lock().unwrap();
        if trace.total_us < inner.threshold_us {
            return;
        }
        let bucket = match inner.kinds.iter_mut().find(|(k, _)| *k == trace.kind) {
            Some((_, b)) => b,
            None => {
                inner.kinds.push((trace.kind, Vec::new()));
                &mut inner.kinds.last_mut().unwrap().1
            }
        };
        if bucket.len() == KEEP_PER_KIND
            && trace.total_us <= bucket.last().map_or(0, |t| t.total_us)
        {
            return;
        }
        let at = bucket
            .iter()
            .position(|t| t.total_us < trace.total_us)
            .unwrap_or(bucket.len());
        bucket.insert(at, trace);
        bucket.truncate(KEEP_PER_KIND);
    }

    /// Copies out all retained traces, grouped by kind (kinds in
    /// first-seen order, traces slowest-first within a kind).
    pub fn snapshot(&self) -> Vec<(&'static str, Vec<Trace>)> {
        self.inner.lock().unwrap().kinds.clone()
    }

    /// Drops all retained traces (policy is kept).
    pub fn clear(&self) {
        self.inner.lock().unwrap().kinds.clear();
    }
}

/// The process-wide flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(FlightRecorder::new)
}

// ---------------------------------------------------------------------------
// Collector (trace-file export / --explain)
// ---------------------------------------------------------------------------

/// An optional process-wide sink receiving *every* published trace, up
/// to its cap: `(cap, traces)`. CLI consumers that want the traces
/// themselves rather than the slowest-N digest install it.
static COLLECTOR: Mutex<Option<(usize, Vec<Trace>)>> = Mutex::new(None);

/// Installs a process-wide collector keeping up to `cap` published
/// traces (further traces are dropped, never blocked on).
pub fn install_collector(cap: usize) {
    *COLLECTOR.lock().unwrap() = Some((cap.max(1), Vec::new()));
}

/// Removes the collector and returns everything it captured.
pub fn drain_collector() -> Vec<Trace> {
    let collector = COLLECTOR.lock().unwrap().take();
    collector.map(|(_, traces)| traces).unwrap_or_default()
}

/// Publishes a completed trace to the flight recorder and (when
/// installed) the collector. Called by [`OpTrace::finish`].
pub fn publish(trace: Trace) {
    if let Some((cap, traces)) = COLLECTOR.lock().unwrap().as_mut() {
        if traces.len() < *cap {
            traces.push(trace.clone());
        }
    }
    recorder().offer(trace);
}

// ---------------------------------------------------------------------------
// JSON renderings
// ---------------------------------------------------------------------------

/// Renders one trace as a JSON object (spans, levels, totals) — the
/// `prtree slow --json` / `stats --json` representation.
pub fn trace_json(t: &Trace) -> String {
    let mut spans = JsonArr::new();
    for s in &t.spans {
        let mut o = JsonObj::new();
        o.str("layer", s.layer)
            .str("name", s.name)
            .u64("start_us", s.start_us)
            .u64("dur_us", s.dur_us);
        if !s.detail.is_empty() {
            o.str("detail", &s.detail);
        }
        spans.push_raw(o.finish());
    }
    let mut levels = JsonArr::new();
    for (i, l) in t.levels.iter().enumerate() {
        let mut o = JsonObj::new();
        o.u64("level", i as u64)
            .u64("nodes", l.nodes)
            .u64("leaves", l.leaves)
            .u64("internal", l.internal)
            .u64("device_reads", l.device_reads);
        levels.push_raw(o.finish());
    }
    let mut obj = JsonObj::new();
    obj.str("kind", t.kind)
        .u64("unix_ms", t.unix_ms)
        .u64("total_us", t.total_us);
    if !t.detail.is_empty() {
        obj.str("detail", &t.detail);
    }
    obj.raw("spans", &spans.finish());
    if !t.levels.is_empty() {
        obj.raw("levels", &levels.finish());
    }
    obj.finish()
}

/// Renders the flight recorder snapshot as a JSON array of
/// `{kind, traces}` groups.
pub fn slow_traces_json(groups: &[(&'static str, Vec<Trace>)]) -> String {
    let mut arr = JsonArr::new();
    for (kind, traces) in groups {
        let mut ts = JsonArr::new();
        for t in traces {
            ts.push_raw(trace_json(t));
        }
        let mut o = JsonObj::new();
        o.str("kind", kind).raw("traces", &ts.finish());
        arr.push_raw(o.finish());
    }
    arr.finish()
}

/// Renders traces in the Chrome trace event format (the "JSON object
/// format": `{"traceEvents": [...]}`), loadable in `about://tracing`
/// and Perfetto. Each trace gets its own `tid`; spans become `B`/`E`
/// pairs nested inside an op-level pair, with timestamps anchored at
/// the trace's wall-clock start.
///
/// B/E pairing is guaranteed per tid: spans are replayed through an
/// explicit open-span stack (a child whose recorded end would overrun
/// its parent is clamped), so every `B` has a matching same-name `E`
/// and pairs nest properly — the property CI validates.
pub fn chrome_trace_json(traces: &[Trace]) -> String {
    let mut arr = JsonArr::new();
    // Thread-name metadata first (ph "M" carries no B/E semantics).
    for (i, t) in traces.iter().enumerate() {
        let mut name_args = JsonObj::new();
        name_args.str("name", t.kind);
        let mut o = JsonObj::new();
        o.str("name", "thread_name")
            .str("ph", "M")
            .u64("pid", 1)
            .u64("tid", i as u64 + 1)
            .raw("args", &name_args.finish());
        arr.push_raw(o.finish());
    }
    for (i, t) in traces.iter().enumerate() {
        let tid = i as u64 + 1;
        let base = t.unix_ms * 1000;
        let ev = |ph: &str, name: &str, cat: &str, ts: u64, args: Option<String>| {
            let mut o = JsonObj::new();
            o.str("name", name)
                .str("cat", cat)
                .str("ph", ph)
                .u64("ts", ts)
                .u64("pid", 1)
                .u64("tid", tid);
            if let Some(a) = args {
                o.raw("args", &a);
            }
            o.finish()
        };
        let mut args = JsonObj::new();
        if !t.detail.is_empty() {
            args.str("detail", &t.detail);
        }
        args.u64("total_us", t.total_us);
        arr.push_raw(ev("B", t.kind, "op", base, Some(args.finish())));
        // Spans sorted by start (outer-first on ties) and replayed
        // through a stack of open spans: before opening a span, close
        // every open span that ends at or before its start.
        let mut spans: Vec<&Span> = t.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_us, std::cmp::Reverse(s.dur_us)));
        // Open spans: (name, cat, end_us). The op itself is the root.
        let mut stack: Vec<(&str, &str, u64)> = vec![(t.kind, "op", t.total_us)];
        for s in spans {
            let start = s.start_us.min(t.total_us);
            while stack.len() > 1 && stack.last().unwrap().2 <= start {
                let (name, cat, end) = stack.pop().unwrap();
                arr.push_raw(ev("E", name, cat, base + end, None));
            }
            // Clamp to the enclosing open span so pairs stay nested.
            let end = (start + s.dur_us).min(stack.last().unwrap().2);
            let mut sargs = JsonObj::new();
            sargs.str("layer", s.layer);
            sargs.u64("dur_us", s.dur_us);
            if !s.detail.is_empty() {
                sargs.str("detail", &s.detail);
            }
            arr.push_raw(ev("B", s.name, s.layer, base + start, Some(sargs.finish())));
            stack.push((s.name, s.layer, end));
        }
        while let Some((name, cat, end)) = stack.pop() {
            arr.push_raw(ev("E", name, cat, base + end, None));
        }
    }
    let mut doc = JsonObj::new();
    doc.raw("traceEvents", &arr.finish_pretty())
        .str("displayTimeUnit", "ms");
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Serializes tests that flip the process-wide sampling switch.
    fn sampling_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` at 1-in-`every` sampling; returns what it published.
    fn traced(every: u64, f: impl FnOnce()) -> Vec<Trace> {
        let _g = sampling_lock();
        drain_collector();
        install_collector(64);
        set_sampling(every);
        f();
        set_sampling(0);
        assert_eq!(STACK.with(|s| s.borrow().len()), 0, "every frame popped");
        drain_collector()
    }

    fn names(t: &Trace) -> Vec<&'static str> {
        t.spans.iter().map(|s| s.name).collect()
    }

    #[test]
    fn off_ctx_is_inert() {
        let traces = traced(0, || {
            let op = start("window");
            assert!(!op.is_sampled() && span_start().is_none());
            tally_level(0, 1, 0, 0);
            drop(span("em", "read"));
            op.finish(format_args!("results=1"));
        });
        assert!(traces.is_empty());
    }

    #[test]
    fn disabled_sampling_never_arms() {
        traced(0, || {
            assert!(!enabled() && !start("window").is_sampled());
            let _op = start("window");
            assert_eq!(STACK.with(|s| s.borrow().len()), 0, "nothing pushed");
        });
    }

    #[test]
    fn sample_every_one_arms_every_op() {
        assert!(traced(1, || assert!((0..3).all(|_| start("w").is_sampled()))).is_empty());
    }

    #[test]
    fn sample_every_n_arms_one_in_n() {
        traced(4, || {
            let armed = (0..64).filter(|_| start("w").is_sampled()).count();
            assert_eq!(armed, 16, "1-in-4 sampling over 64 ops");
        });
    }

    #[test]
    fn spans_and_levels_round_trip() {
        let traces = traced(1, || {
            let op = start("window");
            let t0 = span_start();
            std::thread::sleep(Duration::from_millis(2));
            span_since("tree", "traverse", t0, format_args!("nodes={}", 5));
            tally_level(1, 0, 2, 2);
            tally_level(0, 3, 0, 1);
            op.finish(format_args!("results={}", 9));
        });
        let [t] = &traces[..] else {
            panic!("one trace")
        };
        assert_eq!((t.kind, t.detail.as_str()), ("window", "results=9"));
        assert_eq!(
            (names(t), t.spans[0].detail.as_str()),
            (vec!["traverse"], "nodes=5")
        );
        assert!(t.spans[0].dur_us >= 1_000, "slept 2ms inside the span");
        assert!(t.total_us >= t.spans[0].dur_us);
        let l = &t.levels;
        assert_eq!(
            (l.len(), l[0].leaves, l[0].nodes, l[0].device_reads),
            (2, 3, 3, 1)
        );
        assert_eq!(l[1].internal, 2);
    }

    #[test]
    fn span_since_and_span_guard() {
        let traces = traced(1, || {
            let op = start("merge");
            let t0 = span_start();
            std::thread::sleep(Duration::from_millis(1));
            span_since("em", "component_read", t0, format_args!("slot=2"));
            {
                let mut g = span("store", "commit");
                g.detail(format_args!("pages={}", 7));
                std::thread::sleep(Duration::from_millis(1));
            }
            op.finish(format_args!(""));
        });
        let s = &traces[0].spans;
        assert_eq!((s.len(), s[1].layer, s[1].name), (2, "store", "commit"));
        assert_eq!(s[1].detail, "pages=7");
        assert!(s[0].dur_us >= 500 && s[1].dur_us >= 500);
    }

    #[test]
    fn span_guard_lands_in_the_innermost_op() {
        let traces = traced(1, || {
            let write = start("write");
            let merge = start("merge");
            drop(span("store", "commit"));
            merge.finish(format_args!(""));
            span_since("live", "lead", span_start(), format_args!(""));
            write.finish(format_args!(""));
        });
        // The nested op publishes first, each with its own spans.
        let got: Vec<_> = traces.iter().map(|t| (t.kind, names(t))).collect();
        assert_eq!(got, [("merge", vec!["commit"]), ("write", vec!["lead"])]);
    }

    #[test]
    fn span_outside_any_op_records_nothing() {
        let traces = traced(1, || {
            assert!(span_start().is_none());
            drop(span("store", "commit"));
            tally_level(0, 1, 0, 1);
            start("scrub").finish(format_args!(""));
            // Dropped unfinished: discarded, with the frame left above.
            let outer = start("wal_replay");
            std::mem::forget(start("merge"));
            drop(outer);
        });
        assert_eq!(traces.len(), 1);
        assert!(traces[0].spans.is_empty() && traces[0].levels.is_empty());
    }

    #[test]
    fn inactive_scope_collects_nothing() {
        // An op that is not the sample pushes an inert frame: what its
        // nested calls record leaks into no enclosing trace.
        let traces = traced(2, || {
            let mut delete = start("delete");
            if !delete.is_sampled() {
                drop(delete); // before the next push: a drop pops above it
                delete = start("delete");
            }
            let probe = start("window");
            assert!(!probe.is_sampled(), "1-in-2: the next op is not sampled");
            drop(span("tree", "traverse"));
            span_since("em", "page_read", Some(Instant::now()), format_args!(""));
            tally_level(0, 1, 0, 1);
            probe.finish(format_args!(""));
            span_since("live", "probe", span_start(), format_args!(""));
            delete.finish(format_args!(""));
        });
        assert_eq!(names(&traces[0]), ["probe"]);
        assert!(traces.len() == 1 && traces[0].levels.is_empty());
    }

    fn mk_trace(kind: &'static str, total_us: u64) -> Trace {
        Trace {
            kind,
            unix_ms: 1_000,
            total_us,
            detail: String::new(),
            spans: Vec::new(),
            levels: Vec::new(),
        }
    }

    #[test]
    fn recorder_keeps_n_slowest_per_kind() {
        let rec = FlightRecorder::new();
        for us in [10, 50, 30, 5, 100, 40, 70, 20, 60, 80, 90] {
            rec.offer(mk_trace("window", us));
        }
        rec.offer(mk_trace("knn", 7));
        let snap = rec.snapshot();
        let window = &snap.iter().find(|(k, _)| *k == "window").unwrap().1;
        let totals: Vec<u64> = window.iter().map(|t| t.total_us).collect();
        assert_eq!(
            totals,
            vec![100, 90, 80, 70, 60, 50, 40, 30],
            "slowest 8, sorted desc"
        );
        let knn = &snap.iter().find(|(k, _)| *k == "knn").unwrap().1;
        assert_eq!(knn.len(), 1);
    }

    #[test]
    fn recorder_threshold_filters_admission() {
        let rec = FlightRecorder::new();
        rec.configure(25);
        rec.offer(mk_trace("write", 10));
        rec.offer(mk_trace("write", 30));
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1.len(), 1);
        assert_eq!(snap[0].1[0].total_us, 30);
    }

    #[test]
    fn chrome_export_pairs_and_nests() {
        let mut t = mk_trace("window", 100);
        t.spans.push(Span {
            layer: "tree",
            name: "traverse",
            start_us: 0,
            dur_us: 100,
            detail: String::new(),
        });
        t.spans.push(Span {
            layer: "em",
            name: "page_read",
            start_us: 10,
            dur_us: 20,
            detail: "page=4".into(),
        });
        let doc = chrome_trace_json(&[t]);
        assert!(doc.starts_with('{'));
        assert!(doc.contains("\"traceEvents\""));
        // Balanced B/E count.
        let b = doc.matches("\"ph\":\"B\"").count();
        let e = doc.matches("\"ph\":\"E\"").count();
        assert_eq!(b, 3);
        assert_eq!(e, 3);
        assert!(doc.contains("\"ph\":\"M\""));
        // The op B event comes before the span B events (same ts, the
        // op's dur is larger → sorts first), and every E follows its B.
        let op_b = doc
            .find("\"name\":\"window\",\"cat\":\"op\",\"ph\":\"B\"")
            .unwrap();
        let span_b = doc
            .find("\"name\":\"traverse\",\"cat\":\"tree\",\"ph\":\"B\"")
            .unwrap();
        assert!(op_b < span_b, "outer op must open before inner span");
    }

    #[test]
    fn trace_json_has_spans_and_levels() {
        let mut t = mk_trace("window", 55);
        t.detail = "results=3".into();
        t.spans.push(Span {
            layer: "em",
            name: "page_read",
            start_us: 1,
            dur_us: 2,
            detail: String::new(),
        });
        t.levels.push(LevelCounters {
            nodes: 3,
            leaves: 3,
            internal: 0,
            device_reads: 2,
        });
        let j = trace_json(&t);
        assert!(j.contains("\"kind\":\"window\""));
        assert!(j.contains("\"detail\":\"results=3\""));
        assert!(j.contains("\"level\":0"));
        assert!(j.contains("\"device_reads\":2"));
        let grouped = slow_traces_json(&[("window", vec![t])]);
        assert!(grouped.contains("\"kind\":\"window\""));
        assert!(grouped.contains("\"traces\":["));
    }

    #[test]
    fn collector_captures_published_traces() {
        let _g = sampling_lock();
        drain_collector();
        install_collector(4);
        publish(mk_trace("window", 9));
        publish(mk_trace("write", 11));
        let traces = drain_collector();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].kind, "window");
        // Drained collector no longer captures.
        publish(mk_trace("window", 5));
        assert!(drain_collector().is_empty());
    }
}
