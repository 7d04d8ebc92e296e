//! Per-run state: configuration, the op timer every workload calls
//! through, named sample series and totals, and the ops ledger
//! (`attempted` / `failed`).

use crate::spans::{Layer, Tracer};
use crate::stats::{self, Summary};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

/// One run's command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    /// Seeds every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Smoke mode: N ÷ 20, one set-up, one round.
    pub quick: bool,
}

impl Config {
    /// Scales a full-size count down in `--quick` mode.
    pub fn scaled(&self, n: usize) -> usize {
        if self.quick {
            (n / 20).max(1)
        } else {
            n
        }
    }

    /// Set-up repetitions (the median is reported).
    pub fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Measured rounds that must run even if `seconds` is used up.
    pub fn min_rounds(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }
}

/// An operation returned `Err`: already counted in `failed`; the
/// workload stops (its inputs are chosen so this never happens).
#[derive(Debug)]
pub struct Failure(pub String);

pub type Run<T> = Result<T, Failure>;

/// Mutable state of one workload run.
pub struct Ctx {
    pub cfg: Config,
    pub tracer: Option<Tracer>,
    series: BTreeMap<&'static str, Vec<f64>>,
    totals: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    started: Instant,
    /// Registry state when the measured phase began and ended.
    measure_start: Option<pr_obs::RegistrySnapshot>,
    measure_end: Option<pr_obs::RegistrySnapshot>,
}

impl Ctx {
    pub fn new(cfg: Config) -> Ctx {
        let tracer = cfg.trace.then(Tracer::new);
        Ctx {
            cfg,
            tracer,
            series: BTreeMap::new(),
            totals: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            started: Instant::now(),
            measure_start: None,
            measure_end: None,
        }
    }

    /// Set-up is over: forget everything its warm-up passes recorded
    /// and note the registry state the measured phase starts from.
    pub fn begin_measure(&mut self) {
        self.series.clear();
        self.totals.clear();
        self.measure_start = Some(pr_obs::global().snapshot());
    }

    /// The rounds are over: what the oracle, the worst-case grid and the
    /// probes do next stays out of the per-layer counters.
    pub fn end_measure(&mut self) {
        self.measure_end = Some(pr_obs::global().snapshot());
    }

    /// What the program's registry counted over the measured phase.
    pub fn measured(&self) -> Option<pr_obs::RegistrySnapshot> {
        Some(
            self.measure_end
                .as_ref()?
                .delta_since(self.measure_start.as_ref()?),
        )
    }

    /// Seconds since the run started.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// One call into a layer: counted as an attempted op, timed (ns),
    /// wrapped in a driver span when tracing. `Err` counts as failed
    /// and aborts the workload.
    pub fn op<T, E: Display>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Run<(T, f64)> {
        self.attempted += 1;
        let open = self.tracer.as_mut().map(|t| t.begin_op(layer, name));
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as f64;
        if let (Some(t), Some(o)) = (self.tracer.as_mut(), open) {
            t.end(o);
        }
        match r {
            Ok(v) => Ok((v, ns)),
            Err(e) => {
                self.failed += 1;
                Err(Failure(format!("{}::{name} failed: {e}", layer.name())))
            }
        }
    }

    /// [`Ctx::op`] for calls that cannot fail.
    pub fn op_ok<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        match self.op(layer, name, || Ok::<T, std::convert::Infallible>(f())) {
            Ok(v) => v,
            Err(_) => unreachable!("infallible op"),
        }
    }

    /// Groups the ops `f` makes under one driver span and returns the
    /// seconds it took.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Ctx) -> Run<T>,
    ) -> Run<(T, f64)> {
        let open = self.tracer.as_mut().map(|t| t.begin(Layer::Driver, name));
        let t0 = Instant::now();
        let r = f(self);
        let s = t0.elapsed().as_secs_f64();
        if let Some(t) = self.tracer.as_mut() {
            t.absorb();
            t.end(open.expect("opened with the tracer"));
        }
        r.map(|v| (v, s))
    }

    /// Counts one oracle check; a mismatch is a failed op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("MISMATCH {}", what());
        }
    }

    /// Appends a sample to a named series.
    pub fn push(&mut self, series: &'static str, v: f64) {
        self.series.entry(series).or_default().push(v);
    }

    /// Adds to a named running total.
    pub fn add(&mut self, total: &'static str, v: f64) {
        *self.totals.entry(total).or_default() += v;
    }

    /// Overwrites a named value (gauges, end-of-run readings).
    pub fn set(&mut self, total: &'static str, v: f64) {
        self.totals.insert(total, v);
    }

    pub fn series(&self, name: &str) -> &[f64] {
        self.series.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Median of a series (0 when empty).
    pub fn median(&self, name: &str) -> f64 {
        stats::median(self.series(name))
    }

    /// Quiet decile of a series ([`stats::quiet_decile`]; 0 when empty).
    pub fn quiet(&self, name: &str, higher_is_better: bool) -> f64 {
        stats::quiet_decile(self.series(name), higher_is_better)
    }

    /// `a / b`, 0 when `b` is 0.
    pub fn ratio(&self, a: &str, b: &str) -> f64 {
        let d = self.total(b);
        if d == 0.0 {
            0.0
        } else {
            self.total(a) / d
        }
    }

    /// Every series with its median, quartiles and sample count — the
    /// noise protocol's evidence, printed before the result line.
    pub fn print_series(&self) {
        println!(
            "  {:<24} {:>7} {:>14} {:>14} {:>14} {:>7}",
            "series", "n", "q1", "median", "q3", "iqr"
        );
        for (name, v) in &self.series {
            let s = Summary::of(v);
            println!(
                "  {:<24} {:>7} {:>14.4} {:>14.4} {:>14.4} {:>6.1}%",
                name,
                s.n,
                s.q1,
                s.median,
                s.q3,
                100.0 * s.rel_iqr()
            );
        }
    }
}
