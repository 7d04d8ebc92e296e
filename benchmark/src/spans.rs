//! The traced run: driver spans around every call into a layer, the
//! program's own spans nested under the op that caused them, self time
//! per layer, and a Chrome trace-event file.
//!
//! A span is `(layer, name, start ns, end ns, parent, op)`. The driver
//! opens one around each call it makes into a layer ([`Tracer::op`]);
//! while the program's tracer is armed the driver also publishes a
//! zero-length **marker trace** into the `pr_obs` collector before the
//! call, so the traces the program publishes during the call (same
//! thread, collector order = publish order) can be attributed to that
//! op exactly when the collector is drained — no clock matching. The
//! one durable workload merges inline on the writer, so every trace
//! comes from the client thread, and a merge nests under the write call
//! that overflowed the memtable.
//!
//! **Self time** of a span is its duration minus the union of the
//! intervals its direct children cover (children clipped to the parent,
//! overlaps counted once), so it can never go negative and the self
//! times of a properly nested tree sum to the root's duration.

use pr_obs::json::{JsonArr, JsonObj};
use pr_obs::trace::{self, Trace};
use std::collections::HashMap;
use std::time::Instant;

/// The layers of the ledger (layer = crate; the driver is this
/// benchmark itself: generation, oracles, bookkeeping, probes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    Driver,
    Tree,
    Store,
    Live,
    Em,
}

impl Layer {
    /// Every ledger layer, in reporting order.
    pub const ALL: [Layer; 5] = [
        Layer::Live,
        Layer::Store,
        Layer::Tree,
        Layer::Em,
        Layer::Driver,
    ];

    /// Index of this layer in [`Layer::ALL`] and the ledger's arrays.
    pub fn slot(self) -> usize {
        Layer::ALL
            .iter()
            .position(|l| *l == self)
            .expect("every layer is in ALL")
    }

    /// Lower-case layer name (`"tree"`), as in the metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::Tree => "tree",
            Layer::Store => "store",
            Layer::Live => "live",
            Layer::Em => "em",
        }
    }

    /// The layer a program span names (`Span::layer`); unknown strings
    /// fall back to `fallback` (the enclosing op's layer).
    fn from_program(s: &str, fallback: Layer) -> Layer {
        match s {
            "tree" => Layer::Tree,
            "store" => Layer::Store,
            "live" => Layer::Live,
            "em" => Layer::Em,
            _ => fallback,
        }
    }

    /// The layer that owns a program trace of this kind.
    fn of_trace_kind(kind: &str, fallback: Layer) -> Layer {
        match kind {
            "window" | "knn" => Layer::Tree,
            "write" | "delete" | "merge" | "compaction" | "wal_replay" => Layer::Live,
            "scrub" => Layer::Store,
            _ => fallback,
        }
    }
}

const NONE: u32 = u32::MAX;
/// Kind of the marker traces the driver publishes (never rendered).
const MARKER: &str = "prbench_op";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, `u32::MAX` for a root.
    pub parent: u32,
    /// Index of the driver op span that caused this span (its own index
    /// for driver spans).
    pub op: u32,
    /// Program detail payload (`"items=4096"`), kept for non-query
    /// traces only.
    pub detail: Option<Box<str>>,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle for an open driver span.
#[derive(Clone, Copy)]
pub struct Open(u32);

/// Records spans for one workload process.
pub struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
    armed: bool,
}

/// What the traced run attributes where.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Self seconds per layer, [`Layer::ALL`] order.
    pub self_s: [f64; 5],
    /// Root span duration (the traced wall time), seconds.
    pub wall_s: f64,
    /// Summed durations of program spans by `(layer, name)`, seconds,
    /// with their count.
    pub by_name: Vec<(Layer, &'static str, u64, f64)>,
}

impl Ledger {
    /// Self seconds of `layer`.
    pub fn layer_self_s(&self, layer: Layer) -> f64 {
        self.self_s[layer.slot()]
    }

    /// Sum of all self times (should equal `wall_s`).
    pub fn sum_s(&self) -> f64 {
        self.self_s.iter().sum()
    }
}

impl Tracer {
    /// Starts the root span (`driver/run`) now.
    pub fn new() -> Tracer {
        let mut t = Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            armed: false,
        };
        t.begin(Layer::Driver, "run");
        t
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a driver span that groups other spans (no marker).
    pub fn begin(&mut self, layer: Layer, name: &'static str) -> Open {
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: idx,
            detail: None,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Opens a driver span around one call into a layer. While the
    /// program tracer is armed this also publishes the marker that ties
    /// the program's traces to this op.
    pub fn begin_op(&mut self, layer: Layer, name: &'static str) -> Open {
        if self.armed {
            trace::publish(Trace {
                kind: MARKER,
                unix_ms: self.spans.len() as u64,
                total_us: 0,
                detail: String::new(),
                spans: Vec::new(),
                levels: Vec::new(),
            });
        }
        self.begin(layer, name)
    }

    /// Closes a span opened by [`Tracer::begin`] / [`Tracer::begin_op`].
    pub fn end(&mut self, open: Open) {
        let now = self.now_ns();
        let top = self.stack.pop().expect("span stack underflow");
        assert_eq!(top, open.0, "driver spans must close innermost-first");
        self.spans[top as usize].end_ns = now;
    }

    /// Arms the program's span tracer (every op sampled, a collector
    /// for what it publishes) or disarms it (absorbing what is pending).
    /// Driver spans are recorded either way.
    pub fn set_armed(&mut self, on: bool) {
        if on && !self.armed {
            trace::install_collector(1 << 20);
            trace::set_sampling(1);
            self.armed = true;
        } else if !on && self.armed {
            self.absorb();
            trace::set_sampling(0);
            drop(trace::drain_collector());
            self.armed = false;
        }
    }

    /// Drains what the program published since the last call and nests
    /// it under the ops that caused it. Call between ops (pass / round
    /// boundaries) so the collector stays small.
    pub fn absorb(&mut self) {
        if !self.armed {
            return;
        }
        let traces = trace::drain_collector();
        trace::install_collector(1 << 20);
        let mut current: Option<u32> = None;
        // Where the next trace of `current` starts.
        let mut cursor_ns = 0u64;
        for t in traces {
            if t.kind == MARKER {
                let idx = t.unix_ms as u32;
                current = Some(idx);
                cursor_ns = self.spans[idx as usize].start_ns;
            } else {
                // Root of the span tree when nothing marked an op yet
                // (cannot happen through `Ctx`, but stay total).
                let op = current.unwrap_or(0);
                let op_end = self.spans[op as usize].end_ns;
                let start = cursor_ns.min(op_end);
                self.push_trace(&t, op, start, op_end);
                cursor_ns = start + t.total_us * 1000;
            }
        }
    }

    /// Appends one program trace (a root span named after its kind plus
    /// its phase spans) under the driver op `op`, starting at `start_ns`
    /// and clipped to `limit_ns`.
    fn push_trace(&mut self, t: &Trace, op: u32, start_ns: u64, limit_ns: u64) {
        let op_layer = self.spans[op as usize].layer;
        let keep_detail = !matches!(t.kind, "window" | "knn");
        let root_idx = self.spans.len() as u32;
        let root_end = (start_ns + t.total_us * 1000).min(limit_ns);
        self.spans.push(SpanRec {
            layer: Layer::of_trace_kind(t.kind, op_layer),
            name: t.kind,
            start_ns,
            end_ns: root_end,
            parent: op,
            op,
            detail: (keep_detail && !t.detail.is_empty()).then(|| t.detail.as_str().into()),
        });
        // Phase spans: clip to the root, order by (start, longest
        // first), then nest by containment.
        let mut iv: Vec<(u64, u64, usize)> = t
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let a = (start_ns + s.start_us * 1000).min(root_end);
                let b = (a + s.dur_us * 1000).min(root_end);
                (a, b, i)
            })
            .collect();
        iv.sort_by(|x, y| x.0.cmp(&y.0).then(y.1.cmp(&x.1)));
        let bounds: Vec<(u64, u64)> = iv.iter().map(|&(a, b, _)| (a, b)).collect();
        let parents = nest(&bounds);
        let first = self.spans.len() as u32;
        for (k, &(a, b, i)) in iv.iter().enumerate() {
            let s = &t.spans[i];
            let root_layer = self.spans[root_idx as usize].layer;
            self.spans.push(SpanRec {
                layer: Layer::from_program(s.layer, root_layer),
                name: s.name,
                start_ns: a,
                end_ns: b,
                parent: parents[k].map_or(root_idx, |p| first + p as u32),
                op,
                detail: (keep_detail && !s.detail.is_empty()).then(|| s.detail.as_str().into()),
            });
        }
    }

    /// Closes the root span, disarms the program tracer, and computes
    /// the ledger. The tracer stays readable for [`Tracer::chrome_json`].
    pub fn finish(&mut self) -> Ledger {
        self.set_armed(false);
        while let Some(&top) = self.stack.last() {
            self.end(Open(top));
        }
        let selfs = self_times(&self.spans);
        let mut ledger = Ledger {
            wall_s: self.spans[0].dur_ns() as f64 / 1e9,
            ..Ledger::default()
        };
        let mut by_name: HashMap<(Layer, &'static str), (u64, u64)> = HashMap::new();
        for (s, &self_ns) in self.spans.iter().zip(&selfs) {
            ledger.self_s[s.layer.slot()] += self_ns as f64 / 1e9;
            let e = by_name.entry((s.layer, s.name)).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
        }
        ledger.by_name = by_name
            .into_iter()
            .map(|((l, n), (count, ns))| (l, n, count, ns as f64 / 1e9))
            .collect();
        ledger
            .by_name
            .sort_by(|a, b| b.3.total_cmp(&a.3).then(a.1.cmp(b.1)));
        ledger
    }

    /// Every recorded span (driver and program), in recording order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Renders the spans as a Chrome trace-event document (`about://tracing`,
    /// Perfetto). To keep the file openable, the first 2000 spans of
    /// each name are written plus every span of at least 1 ms; the
    /// ledger is computed from all of them regardless.
    pub fn chrome_json(&self) -> String {
        let mut events = JsonArr::new();
        let mut args = JsonObj::new();
        args.str("name", "client");
        let mut m = JsonObj::new();
        m.str("name", "thread_name")
            .str("ph", "M")
            .u64("pid", 1)
            .u64("tid", 1)
            .raw("args", &args.finish());
        events.push_raw(m.finish());
        let mut seen: HashMap<&'static str, u32> = HashMap::new();
        for (idx, s) in self.spans.iter().enumerate() {
            let n = seen.entry(s.name).or_default();
            *n += 1;
            if *n > 2000 && s.dur_ns() < 1_000_000 {
                continue;
            }
            let mut args = JsonObj::new();
            args.u64("id", idx as u64).u64("op", s.op as u64);
            if s.parent != NONE {
                args.u64("parent", s.parent as u64);
            }
            if let Some(d) = &s.detail {
                args.str("detail", d);
            }
            let mut e = JsonObj::new();
            e.str("name", s.name)
                .str("cat", s.layer.name())
                .str("ph", "X")
                .f64p("ts", s.start_ns as f64 / 1e3, 3)
                .f64p("dur", s.dur_ns() as f64 / 1e3, 3)
                .u64("pid", 1)
                .u64("tid", 1)
                .raw("args", &args.finish());
            events.push_raw(e.finish());
        }
        let mut root = JsonObj::new();
        root.raw("traceEvents", &events.finish())
            .str("displayTimeUnit", "ms");
        root.finish()
    }
}

/// Containment nesting. `iv` holds `(start, end)` intervals sorted by
/// start ascending then end descending; the result gives, for each, the
/// index of the innermost earlier interval that fully contains it
/// (`None` at top level). A partially overlapping interval becomes a
/// sibling, not a child, so no time is hidden from the enclosing span.
pub fn nest(iv: &[(u64, u64)]) -> Vec<Option<usize>> {
    let mut parents = Vec::with_capacity(iv.len());
    let mut stack: Vec<usize> = Vec::new();
    for (i, &(_, end)) in iv.iter().enumerate() {
        while let Some(&top) = stack.last() {
            if end <= iv[top].1 {
                break;
            }
            stack.pop();
        }
        parents.push(stack.last().copied());
        stack.push(i);
    }
    parents
}

/// Self time (ns) of every span: duration minus the union of its direct
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NONE)
        .map(|s| {
            let p = &spans[s.parent as usize];
            let a = s.start_ns.clamp(p.start_ns, p.end_ns);
            let b = s.end_ns.clamp(p.start_ns, p.end_ns);
            (s.parent, a, b)
        })
        .collect();
    kids.sort_unstable();
    let mut covered = vec![0u64; spans.len()];
    let mut i = 0;
    while i < kids.len() {
        let parent = kids[i].0;
        let (mut lo, mut hi) = (kids[i].1, kids[i].2);
        let mut total = 0;
        i += 1;
        while i < kids.len() && kids[i].0 == parent {
            let (_, a, b) = kids[i];
            if a > hi {
                total += hi - lo;
                (lo, hi) = (a, b);
            } else {
                hi = hi.max(b);
            }
            i += 1;
        }
        covered[parent as usize] = total + (hi - lo);
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.dur_ns() - c)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) -> SpanRec {
        SpanRec {
            layer,
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
            detail: None,
        }
    }

    #[test]
    fn nest_picks_innermost_container() {
        // a=[0,100) ⊃ b=[10,50) ⊃ c=[20,30); d=[60,90) ⊂ a; e=[100,120) top.
        let iv = [(0, 100), (10, 50), (20, 30), (60, 90), (100, 120)];
        assert_eq!(nest(&iv), vec![None, Some(0), Some(1), Some(0), None]);
    }

    #[test]
    fn nest_makes_partial_overlap_a_sibling() {
        // b starts inside a but outlives it: sibling; c fits inside b.
        let iv = [(0, 10), (5, 15), (6, 8)];
        assert_eq!(nest(&iv), vec![None, None, Some(1)]);
    }

    #[test]
    fn nest_identical_intervals_chain() {
        let iv = [(0, 10), (0, 10), (0, 10)];
        assert_eq!(nest(&iv), vec![None, Some(0), Some(1)]);
    }

    #[test]
    fn self_time_with_two_overlapping_children_is_not_negative() {
        // Parent [0,100); children [10,70) and [40,90) overlap on
        // [40,70): union is 80, not 110.
        let spans = vec![
            span(Layer::Driver, 0, 100, NONE),
            span(Layer::Tree, 10, 70, 0),
            span(Layer::Em, 40, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![20, 60, 50]);
    }

    #[test]
    fn self_time_clips_children_that_outlive_the_parent() {
        // µs-rounded program spans may poke past their parent.
        let spans = vec![
            span(Layer::Driver, 100, 200, NONE),
            span(Layer::Tree, 50, 150, 0),
            span(Layer::Tree, 180, 400, 0),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn self_times_of_a_nested_tree_sum_to_the_root() {
        let spans = vec![
            span(Layer::Driver, 0, 1000, NONE),
            span(Layer::Live, 100, 600, 0),
            span(Layer::Store, 200, 500, 1),
            span(Layer::Em, 250, 300, 2),
            span(Layer::Em, 300, 450, 2),
            span(Layer::Tree, 700, 900, 0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
        assert_eq!(selfs, vec![300, 200, 100, 50, 150, 200]);
    }

    #[test]
    fn tracer_nests_driver_spans_and_ledger_sums_to_wall() {
        let mut t = Tracer::new();
        let round = t.begin(Layer::Driver, "round");
        let a = t.begin_op(Layer::Tree, "window");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin_op(Layer::Store, "open");
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end(b);
        t.end(round);
        let ledger = t.finish();
        assert_eq!(t.spans()[2].parent, 1);
        assert_eq!(t.spans()[1].parent, 0);
        assert!(ledger.layer_self_s(Layer::Tree) >= 0.002);
        assert!(ledger.layer_self_s(Layer::Store) >= 0.001);
        assert!((ledger.sum_s() - ledger.wall_s).abs() < 1e-9);
    }

    #[test]
    fn program_trace_nests_under_its_op_and_clips() {
        let mut t = Tracer::new();
        let op = t.begin_op(Layer::Live, "insert_batch");
        std::thread::sleep(std::time::Duration::from_millis(3));
        t.end(op);
        // A 2 ms "write" trace with an fsync phase holding a nested
        // em span, and a span that overruns the trace (clipped).
        let mk = |layer, name, start_us, dur_us| pr_obs::trace::Span {
            layer,
            name,
            start_us,
            dur_us,
            detail: String::new(),
        };
        let tr = Trace {
            kind: "write",
            unix_ms: 0,
            total_us: 2000,
            detail: "ops=512".into(),
            spans: vec![
                mk("em", "fsync", 600, 300),
                mk("live", "wal_fsync", 500, 1000),
                mk("live", "apply", 1900, 5000),
            ],
            levels: Vec::new(),
        };
        let (start, end) = (t.spans()[1].start_ns, t.spans()[1].end_ns);
        t.push_trace(&tr, 1, start, end);
        let ledger = t.finish();
        let s = t.spans();
        assert_eq!(
            (s[2].name, s[2].parent, s[2].layer),
            ("write", 1, Layer::Live)
        );
        assert_eq!((s[3].name, s[3].parent), ("wal_fsync", 2));
        assert_eq!(
            (s[4].name, s[4].parent, s[4].layer),
            ("fsync", 3, Layer::Em)
        );
        assert_eq!((s[5].name, s[5].parent), ("apply", 2));
        assert_eq!(s[5].end_ns, s[2].end_ns, "overrun clipped to the trace");
        assert_eq!(s[2].detail.as_deref(), Some("ops=512"));
        assert!((ledger.layer_self_s(Layer::Em) - 0.0003).abs() < 1e-9);
        assert!((ledger.sum_s() - ledger.wall_s).abs() < 1e-9);
    }
}
