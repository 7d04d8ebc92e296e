//! Sampling span tracer: per-operation phase timelines across the
//! whole stack (em → tree → store → live).
//!
//! Metrics (the [`crate::registry`]) answer *how much in aggregate*;
//! the event ring answers *when, in what order*. This module answers
//! the remaining question — *where did this one operation spend its
//! time* — by recording a bounded list of timestamped [`Span`]s (and,
//! for queries, per-level traversal counters) into a [`SpanCtx`] that
//! rides the operation itself: a query's `QueryScratch`, a writer's
//! stack frame through group commit, a merge worker's loop.
//!
//! # Sampling & overhead contract
//!
//! Tracing is off by default. The entire hot-path cost while disabled
//! is **one relaxed atomic load** ([`enabled()`]) — the same contract
//! as the registry's recording switch and the fault layer's disarmed
//! probe. prbench reports what arming costs (`obs.trace_overhead_pct`,
//! traced against untraced rounds of the same work, interleaved).
//!
//! [`set_sampling(n)`](set_sampling) arms the tracer at a 1-in-`n`
//! sampling rate (`0` disables, `1` traces everything). Sampling is
//! decided once per operation ([`SpanCtx::sampled`]) by a shared
//! relaxed counter, so the per-operation cost while armed is one load
//! plus (1/n of the time) one heap allocation; the per-span cost inside
//! a sampled operation is two `Instant` reads and a `Vec` push.
//!
//! # Flight recorder & retention policy
//!
//! Completed traces are published ([`SpanCtx::finish_publish`]) to the
//! process-wide [`FlightRecorder`], which keeps the **N slowest traces
//! per op-kind** (default 8), admitting only traces at least as slow as
//! the configured threshold ([`FlightRecorder::configure`]; default 0 µs =
//! keep the slowest N regardless). Within a kind the list is sorted
//! slowest-first and the fastest retained trace is evicted on overflow,
//! so the recorder is a bounded reservoir whose contents converge on
//! "the worst operations this process has seen". `prtree slow` and
//! `stats --json` dump it; nothing is ever written unless the tracer is
//! armed.
//!
//! # Consumers
//!
//! * `prtree query/knn --explain` — installs a `Collector`, samples
//!   1-in-1 for one query, and prints the per-level profile
//!   (cross-checked exactly against `QueryStats`).
//! * `prtree slow [--json]` / `stats --json` — the flight recorder.
//! * `prtree ingest --trace-file` — [`chrome_trace_json`], a
//!   Chrome-trace-event JSON export that opens in `about://tracing` or
//!   Perfetto (`--n 0 --flush` captures just open + replay + flush).

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

/// One relaxed load when disabled; when armed, one fetch-add deciding
/// whether this operation is the 1-in-n sample.
#[inline]
fn should_sample() -> bool {
    if !enabled() {
        return false;
    }
    let every = SAMPLE_EVERY.load(Ordering::Relaxed).max(1);
    TICK.fetch_add(1, Ordering::Relaxed).is_multiple_of(every)
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
    /// Span length in microseconds (0 for instantaneous notes).
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
    /// Phase spans, in begin order.
    pub spans: Vec<Span>,
    /// Per-level traversal counters (queries only; empty otherwise).
    pub levels: Vec<LevelCounters>,
}

/// Live recording state behind an armed [`SpanCtx`]. Boxed so the
/// not-sampled case stays a single pointer-sized `None`.
#[derive(Debug)]
struct ActiveTrace {
    kind: &'static str,
    t0: Instant,
    unix_ms: u64,
    detail: String,
    spans: Vec<Span>,
    levels: Vec<LevelCounters>,
}

/// Handle returned by [`SpanCtx::begin`]; pass to [`SpanCtx::end`].
/// The sentinel (`u32::MAX`) means "context inactive, nothing to end".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const OFF: SpanId = SpanId(u32::MAX);
}

/// A per-operation trace context. `off()` (the common case) is inert:
/// every method returns immediately. Construct with [`SpanCtx::sampled`]
/// to participate in 1-in-n sampling, or [`SpanCtx::forced`] to trace
/// unconditionally (used by `--explain`).
#[derive(Debug, Default)]
pub struct SpanCtx {
    inner: Option<Box<ActiveTrace>>,
}

impl SpanCtx {
    /// An inert context: all methods are no-ops.
    pub const fn off() -> Self {
        SpanCtx { inner: None }
    }

    /// An armed context if this operation is the 1-in-n sample;
    /// otherwise inert. One relaxed load when tracing is disabled.
    #[inline]
    pub fn sampled(kind: &'static str) -> Self {
        if should_sample() {
            Self::forced(kind)
        } else {
            Self::off()
        }
    }

    /// An unconditionally armed context (ignores the sampling rate but
    /// not much else: publication still goes through the recorder's
    /// threshold).
    pub fn forced(kind: &'static str) -> Self {
        SpanCtx {
            inner: Some(Box::new(ActiveTrace {
                kind,
                t0: Instant::now(),
                unix_ms: crate::now_unix_ms(),
                detail: String::new(),
                spans: Vec::new(),
                levels: Vec::new(),
            })),
        }
    }

    /// Arms this context in place via sampling, unless already armed.
    /// Lets a context embedded in a reusable scratch participate in
    /// sampling at the top of each operation.
    #[inline]
    pub fn arm_sampled(&mut self, kind: &'static str) {
        if self.inner.is_none() && should_sample() {
            *self = Self::forced(kind);
        }
    }

    /// True when this operation is being traced.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    #[inline]
    fn elapsed_us(active: &ActiveTrace) -> u64 {
        active.t0.elapsed().as_micros() as u64
    }

    /// Opens a span; close it with [`end`](Self::end). Returns a
    /// sentinel id (and does nothing) when inactive.
    #[inline]
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        let Some(active) = self.inner.as_deref_mut() else {
            return SpanId::OFF;
        };
        let start_us = Self::elapsed_us(active);
        let id = active.spans.len() as u32;
        active.spans.push(Span {
            layer,
            name,
            start_us,
            dur_us: 0,
            detail: String::new(),
        });
        SpanId(id)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        self.end_detail(id, "");
    }

    /// Closes a span and attaches a payload (skipped when empty).
    pub fn end_detail(&mut self, id: SpanId, detail: &str) {
        let Some(active) = self.inner.as_deref_mut() else {
            return;
        };
        if id == SpanId::OFF {
            return;
        }
        let now_us = Self::elapsed_us(active);
        if let Some(span) = active.spans.get_mut(id.0 as usize) {
            span.dur_us = now_us.saturating_sub(span.start_us);
            if !detail.is_empty() {
                span.detail = detail.to_string();
            }
        }
    }

    /// Records a complete span that started at `start` (an `Instant`
    /// taken by the caller) and ends now. Convenient where begin/end
    /// would straddle a borrow.
    pub fn span_since(
        &mut self,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        detail: &str,
    ) {
        let Some(active) = self.inner.as_deref_mut() else {
            return;
        };
        let now_us = Self::elapsed_us(active);
        let dur_us = start.elapsed().as_micros() as u64;
        active.spans.push(Span {
            layer,
            name,
            start_us: now_us.saturating_sub(dur_us),
            dur_us,
            detail: detail.to_string(),
        });
    }

    /// Records an instantaneous (zero-duration) note span.
    pub fn note(&mut self, layer: &'static str, name: &'static str, detail: &str) {
        let Some(active) = self.inner.as_deref_mut() else {
            return;
        };
        let now_us = Self::elapsed_us(active);
        active.spans.push(Span {
            layer,
            name,
            start_us: now_us,
            dur_us: 0,
            detail: detail.to_string(),
        });
    }

    /// Accumulates per-level traversal counters for a query trace.
    /// `level` 0 is the leaf level.
    pub fn tally_level(&mut self, level: usize, leaves: u64, internal: u64, device_reads: u64) {
        let Some(active) = self.inner.as_deref_mut() else {
            return;
        };
        if active.levels.len() <= level {
            active.levels.resize_with(level + 1, LevelCounters::default);
        }
        let lc = &mut active.levels[level];
        lc.nodes += leaves + internal;
        lc.leaves += leaves;
        lc.internal += internal;
        lc.device_reads += device_reads;
    }

    /// Sets the trace-level payload (`"results=117"`).
    pub fn set_detail(&mut self, detail: &str) {
        if let Some(active) = self.inner.as_deref_mut() {
            active.detail = detail.to_string();
        }
    }

    /// Absorbs ambient spans collected by an [`AmbientScope`] (spans
    /// recorded by a layer that has no `SpanCtx` in its signatures).
    pub fn absorb(&mut self, ambient: Vec<AmbientSpan>) {
        let Some(active) = self.inner.as_deref_mut() else {
            return;
        };
        for a in ambient {
            let start_us = a.start.saturating_duration_since(active.t0).as_micros() as u64;
            active.spans.push(Span {
                layer: a.layer,
                name: a.name,
                start_us,
                dur_us: a.end.saturating_duration_since(a.start).as_micros() as u64,
                detail: a.detail,
            });
        }
    }

    /// Completes the trace and returns it (None when inactive). The
    /// context reverts to inert, ready for the next `arm_sampled`.
    pub fn finish(&mut self) -> Option<Trace> {
        let active = self.inner.take()?;
        Some(Trace {
            kind: active.kind,
            unix_ms: active.unix_ms,
            total_us: active.t0.elapsed().as_micros() as u64,
            detail: active.detail,
            spans: active.spans,
            levels: active.levels,
        })
    }

    /// Completes the trace and publishes it to the flight recorder and
    /// any installed collector. No-op when inactive.
    pub fn finish_publish(&mut self) {
        if let Some(trace) = self.finish() {
            publish(trace);
        }
    }
}

// ---------------------------------------------------------------------------
// Ambient spans (layers without a SpanCtx in their signatures)
// ---------------------------------------------------------------------------

/// A completed span recorded without access to the operation's
/// [`SpanCtx`] — `Instant`-based so the absorbing context can rebase
/// it onto its own clock.
#[derive(Debug)]
pub struct AmbientSpan {
    /// Emitting layer (`"store"`, `"em"`, …).
    pub layer: &'static str,
    /// Phase name.
    pub name: &'static str,
    /// When the phase started.
    pub start: Instant,
    /// When the phase ended.
    pub end: Instant,
    /// Short free-form payload.
    pub detail: String,
}

thread_local! {
    static AMBIENT: std::cell::RefCell<Option<Vec<AmbientSpan>>> =
        const { std::cell::RefCell::new(None) };
}

/// Collects [`ambient_span`]s emitted on this thread between
/// construction and [`finish`](AmbientScope::finish). Used by cold
/// paths (merge commit, store open) to let `pr_store` report phases
/// without threading a `SpanCtx` through its API. Only installs the
/// thread-local collection when `active` is true, so the common
/// untraced path stays free.
pub struct AmbientScope {
    installed: bool,
}

impl AmbientScope {
    /// Begins collecting on this thread when `active`.
    pub fn begin(active: bool) -> Self {
        if active {
            AMBIENT.with(|a| *a.borrow_mut() = Some(Vec::new()));
        }
        AmbientScope { installed: active }
    }

    /// Stops collecting and returns the spans recorded on this thread.
    pub fn finish(self) -> Vec<AmbientSpan> {
        if self.installed {
            AMBIENT.with(|a| a.borrow_mut().take()).unwrap_or_default()
        } else {
            Vec::new()
        }
    }
}

impl Drop for AmbientScope {
    fn drop(&mut self) {
        if self.installed {
            AMBIENT.with(|a| a.borrow_mut().take());
        }
    }
}

/// Guard that records one ambient span from construction to drop, if
/// (and only if) an [`AmbientScope`] is collecting on this thread.
pub struct AmbientGuard {
    layer: &'static str,
    name: &'static str,
    start: Option<Instant>,
    detail: String,
}

impl AmbientGuard {
    /// Attaches a payload reported when the guard drops.
    pub fn detail(&mut self, detail: impl Into<String>) {
        self.detail = detail.into();
    }
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let detail = std::mem::take(&mut self.detail);
        AMBIENT.with(|a| {
            if let Some(spans) = a.borrow_mut().as_mut() {
                spans.push(AmbientSpan {
                    layer: self.layer,
                    name: self.name,
                    start,
                    end,
                    detail,
                });
            }
        });
    }
}

/// Opens an ambient span guard. Near-free when no [`AmbientScope`] is
/// collecting on this thread (one TL borrow at construction, one at
/// drop).
pub fn ambient_span(layer: &'static str, name: &'static str) -> AmbientGuard {
    let collecting = AMBIENT.with(|a| a.borrow().is_some());
    AmbientGuard {
        layer,
        name,
        start: collecting.then(Instant::now),
        detail: String::new(),
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

struct RecorderInner {
    keep_per_kind: usize,
    threshold_us: u64,
    /// (kind, slowest-first traces).
    kinds: Vec<(&'static str, Vec<Trace>)>,
}

impl FlightRecorder {
    fn new() -> Self {
        FlightRecorder {
            inner: Mutex::new(RecorderInner {
                keep_per_kind: 8,
                threshold_us: 0,
                kinds: Vec::new(),
            }),
        }
    }

    /// Sets the retention policy: keep the `keep_per_kind` slowest
    /// traces per op-kind, admitting only traces of at least
    /// `threshold_us` total time. Already-retained traces below the new
    /// bar are kept until evicted by slower arrivals.
    pub fn configure(&self, keep_per_kind: usize, threshold_us: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.keep_per_kind = keep_per_kind.max(1);
        inner.threshold_us = threshold_us;
    }

    /// Offers a completed trace; it is retained if it clears the
    /// threshold and is among the N slowest of its kind.
    pub fn offer(&self, trace: Trace) {
        let mut inner = self.inner.lock().unwrap();
        if trace.total_us < inner.threshold_us {
            return;
        }
        let keep = inner.keep_per_kind;
        let bucket = match inner.kinds.iter_mut().find(|(k, _)| *k == trace.kind) {
            Some((_, b)) => b,
            None => {
                inner.kinds.push((trace.kind, Vec::new()));
                &mut inner.kinds.last_mut().unwrap().1
            }
        };
        if bucket.len() == keep && trace.total_us <= bucket.last().map_or(0, |t| t.total_us) {
            return;
        }
        let at = bucket
            .iter()
            .position(|t| t.total_us < trace.total_us)
            .unwrap_or(bucket.len());
        bucket.insert(at, trace);
        bucket.truncate(keep);
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

/// An optional process-wide sink receiving *every* published trace (up
/// to a cap), installed by CLI consumers that want the traces
/// themselves rather than the slowest-N digest.
struct Collector {
    cap: usize,
    traces: Mutex<Vec<Trace>>,
}

static COLLECTOR: Mutex<Option<&'static Collector>> = Mutex::new(None);

/// Installs a process-wide collector keeping up to `cap` published
/// traces (further traces are dropped, never blocked on).
pub fn install_collector(cap: usize) {
    let collector = Box::leak(Box::new(Collector {
        cap: cap.max(1),
        traces: Mutex::new(Vec::new()),
    }));
    *COLLECTOR.lock().unwrap() = Some(collector);
}

/// Removes the collector and returns everything it captured.
pub fn drain_collector() -> Vec<Trace> {
    let collector = COLLECTOR.lock().unwrap().take();
    match collector {
        Some(c) => std::mem::take(&mut *c.traces.lock().unwrap()),
        None => Vec::new(),
    }
}

/// Publishes a completed trace to the flight recorder and (when
/// installed) the collector. Called by [`SpanCtx::finish_publish`].
pub fn publish(trace: Trace) {
    if let Some(c) = *COLLECTOR.lock().unwrap() {
        let mut traces = c.traces.lock().unwrap();
        if traces.len() < c.cap {
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

    #[test]
    fn off_ctx_is_inert() {
        let mut ctx = SpanCtx::off();
        assert!(!ctx.is_active());
        let id = ctx.begin("em", "read");
        assert_eq!(id, SpanId::OFF);
        ctx.end(id);
        ctx.tally_level(0, 1, 0, 0);
        assert!(ctx.finish().is_none());
    }

    #[test]
    fn disabled_sampling_never_arms() {
        let _g = sampling_lock();
        set_sampling(0);
        assert!(!enabled());
        let ctx = SpanCtx::sampled("window");
        assert!(!ctx.is_active());
        let mut ctx = SpanCtx::off();
        ctx.arm_sampled("window");
        assert!(!ctx.is_active());
    }

    #[test]
    fn sample_every_one_arms_every_op() {
        let _g = sampling_lock();
        set_sampling(1);
        for _ in 0..3 {
            assert!(SpanCtx::sampled("window").is_active());
        }
        set_sampling(0);
    }

    #[test]
    fn sample_every_n_arms_one_in_n() {
        let _g = sampling_lock();
        set_sampling(4);
        let armed = (0..64)
            .filter(|_| SpanCtx::sampled("w").is_active())
            .count();
        set_sampling(0);
        assert_eq!(armed, 16, "1-in-4 sampling over 64 ops");
    }

    #[test]
    fn spans_and_levels_round_trip() {
        let mut ctx = SpanCtx::forced("window");
        let id = ctx.begin("tree", "traverse");
        std::thread::sleep(Duration::from_millis(2));
        ctx.end_detail(id, "nodes=5");
        ctx.tally_level(1, 0, 2, 2);
        ctx.tally_level(0, 3, 0, 1);
        ctx.set_detail("results=9");
        let t = ctx.finish().expect("forced ctx must yield a trace");
        assert_eq!(t.kind, "window");
        assert_eq!(t.detail, "results=9");
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].name, "traverse");
        assert!(t.spans[0].dur_us >= 1_000, "slept 2ms inside the span");
        assert_eq!(t.spans[0].detail, "nodes=5");
        assert_eq!(t.levels.len(), 2);
        assert_eq!(t.levels[0].leaves, 3);
        assert_eq!(t.levels[0].nodes, 3);
        assert_eq!(t.levels[0].device_reads, 1);
        assert_eq!(t.levels[1].internal, 2);
        assert!(t.total_us >= t.spans[0].dur_us);
        // Context is reusable after finish.
        assert!(!ctx.is_active());
    }

    #[test]
    fn span_since_and_note() {
        let mut ctx = SpanCtx::forced("merge");
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        ctx.span_since("em", "component_read", start, "slot=2");
        ctx.note("live", "cut", "cut_seq=17");
        let t = ctx.finish().unwrap();
        assert_eq!(t.spans.len(), 2);
        assert!(t.spans[0].dur_us >= 500);
        assert_eq!(t.spans[1].dur_us, 0);
        assert_eq!(t.spans[1].detail, "cut_seq=17");
    }

    #[test]
    fn ambient_spans_are_absorbed() {
        let scope = AmbientScope::begin(true);
        {
            let mut g = ambient_span("store", "commit");
            g.detail("pages=7");
            std::thread::sleep(Duration::from_millis(1));
        }
        let spans = scope.finish();
        assert_eq!(spans.len(), 1);
        let mut ctx = SpanCtx::forced("merge");
        ctx.absorb(spans);
        let t = ctx.finish().unwrap();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].layer, "store");
        assert_eq!(t.spans[0].detail, "pages=7");
    }

    #[test]
    fn ambient_span_without_scope_records_nothing() {
        {
            let _g = ambient_span("store", "commit");
        }
        let scope = AmbientScope::begin(true);
        assert!(scope.finish().is_empty());
    }

    #[test]
    fn inactive_scope_collects_nothing() {
        let scope = AmbientScope::begin(false);
        {
            let _g = ambient_span("store", "commit");
        }
        assert!(scope.finish().is_empty());
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
        rec.configure(3, 0);
        for us in [10, 50, 30, 5, 100, 40] {
            rec.offer(mk_trace("window", us));
        }
        rec.offer(mk_trace("knn", 7));
        let snap = rec.snapshot();
        let window = &snap.iter().find(|(k, _)| *k == "window").unwrap().1;
        let totals: Vec<u64> = window.iter().map(|t| t.total_us).collect();
        assert_eq!(totals, vec![100, 50, 40], "slowest 3, sorted desc");
        let knn = &snap.iter().find(|(k, _)| *k == "knn").unwrap().1;
        assert_eq!(knn.len(), 1);
    }

    #[test]
    fn recorder_threshold_filters_admission() {
        let rec = FlightRecorder::new();
        rec.configure(8, 25);
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
