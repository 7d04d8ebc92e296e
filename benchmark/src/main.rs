//! `prbench` — the repository's one benchmark.
//!
//! ```text
//! prbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! prbench [--seed N] [--seconds S] [--quick]              all three workloads, untraced then traced
//! prbench --repeat-check [--seed N] [--seconds S]         suite twice; fail if any metric moves past its bound
//! prbench --spread-check [--runs R] [--workload W]        R seeds per workload; fail if a spread exceeds its bound
//! prbench --emit-manifest                                 print BENCHMARK.json from the catalog
//! ```
//!
//! One run executes one workload in this process (so `peak_rss_mb` is
//! per workload), checks its answers, and prints every metric by name
//! with its unit; the last stdout line is the result object the
//! benchmark contract specifies. See `README.md`.

mod catalog;
mod ctx;
mod gen;
mod host;
mod json;
mod live;
mod probes;
mod query;
mod report;
mod spans;
mod statics;
mod stats;
mod suite;

use ctx::{Config, Ctx, Run};
use host::Scratch;
use query::Bufs;
use std::time::Instant;

/// In a traced run every fourth measured round (0, 4, 8, …) runs with
/// the program's tracer off: interleaved reference rounds, whose median
/// against the traced rounds' median gives `obs.trace_overhead_pct`.
const REFERENCE_EVERY: usize = 4;

fn usage() -> ! {
    eprintln!(
        "usage: prbench [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--quick]\n\
         \x20      prbench --repeat-check [--seed N] [--seconds S] [--quick]\n\
         \x20      prbench --spread-check [--runs R] [--workload NAME] [--seed N] [--seconds S]\n\
         \x20      prbench --emit-manifest\n\
         workloads: {}",
        catalog::WORKLOADS.map(|w| w.0).join(" ")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut repeat_check = false;
    let mut spread_check = false;
    let mut runs = 10;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => cfg.workload = value(),
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cfg.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => cfg.quick = true,
            "--repeat-check" => repeat_check = true,
            "--spread-check" => spread_check = true,
            "--runs" => runs = value().parse().unwrap_or_else(|_| usage()),
            "--emit-manifest" => {
                println!("{}", catalog::manifest_json());
                return;
            }
            _ => usage(),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        usage();
    }
    let known = catalog::WORKLOADS.iter().any(|w| w.0 == cfg.workload);
    let code = if spread_check && (known || cfg.workload.is_empty()) && runs >= 2 {
        suite::spread_check(&cfg, runs)
    } else if repeat_check {
        suite::repeat_check(&cfg)
    } else if cfg.workload.is_empty() {
        suite::run_all(&cfg)
    } else if known {
        run_one(cfg)
    } else {
        usage()
    };
    std::process::exit(code)
}

/// Runs one workload in this process and prints its report; the exit
/// code is non-zero iff an op failed or an answer was wrong.
fn run_one(cfg: Config) -> i32 {
    println!(
        "prbench {} seed={} seconds={} trace={} quick={}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8, cfg.quick
    );
    println!("  host: {}", host::fingerprint_json());
    println!("  flush policy: {}", live::FLUSH_POLICY);
    println!(
        "  caveat: OS page cache warm — reads never reach a device, fsync is the sandbox's; \
         latencies are this host's, not a disk's"
    );
    let mut ctx = Ctx::new(cfg);
    let outcome = Scratch::new(&ctx.cfg.workload)
        .map_err(|e| ctx::Failure(format!("scratch dir: {e}")))
        .and_then(|dir| run_workload(&mut ctx, &dir));
    if let Err(ctx::Failure(why)) = &outcome {
        ctx.failed = ctx.failed.max(1);
        eprintln!("FAILED {why}");
    }
    report::print(&mut ctx);
    (ctx.failed > 0) as i32
}

fn run_workload(ctx: &mut Ctx, dir: &Scratch) -> Run<()> {
    let mut bufs = Bufs::default();
    match ctx.cfg.workload.as_str() {
        "live_mixed" => {
            let spec = repeat_setup(ctx, |ctx| live::setup(ctx, dir))?;
            if ctx.cfg.trace {
                ctx.scope("ladder", |ctx| live::ladder(ctx, &spec, dir, &mut bufs))?;
            }
            measure(ctx, |ctx| live::round(ctx, &spec, dir, &mut bufs))?;
            ctx.scope("finish", |ctx| {
                live::finish(ctx, &spec, dir, &mut bufs)?;
                if ctx.cfg.trace {
                    probes::em_fsync(ctx, dir.path())?;
                }
                Ok(())
            })?;
        }
        name => {
            let make = match name {
                "static_hot" => statics::static_hot,
                _ => statics::store_static,
            };
            let p = repeat_setup(ctx, |ctx| statics::setup(ctx, make, dir))?;
            measure(ctx, |ctx| statics::round(ctx, &p, dir, &mut bufs))?;
            ctx.scope("finish", |ctx| {
                statics::finish(ctx, &p, &mut bufs)?;
                if ctx.cfg.trace {
                    statics::layer_probes(ctx, &p, dir, &mut bufs)?;
                }
                Ok(())
            })?;
        }
    }
    if ctx.cfg.trace {
        ctx.scope("probes", |ctx| {
            probes::geom_kernel(ctx);
            probes::hilbert_encode(ctx);
            Ok(())
        })?;
    }
    Ok(())
}

/// Runs set-up `Config::setups()` times (dropping each result before
/// the next starts), records each duration in `setup_s`, and keeps the
/// last. The first repetition pays the host's first-touch page faults;
/// the reported median does not.
fn repeat_setup<T>(ctx: &mut Ctx, mut setup: impl FnMut(&mut Ctx) -> Run<T>) -> Run<T> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..ctx.cfg.setups() {
        drop(kept.take());
        let (v, s) = ctx.scope("setup", &mut setup)?;
        times.push(s);
        kept = Some(v);
    }
    ctx.begin_measure();
    for s in times {
        ctx.push("setup_s", s);
    }
    Ok(kept.expect("at least one set-up"))
}

/// The measured phase: rounds — repetitions of identical work — until
/// `--seconds` have passed and at least `Config::min_rounds()` have run
/// (`--quick`: exactly that one).
fn measure(ctx: &mut Ctx, mut round: impl FnMut(&mut Ctx) -> Run<()>) -> Run<()> {
    let start = Instant::now();
    let timed = !ctx.cfg.quick;
    let mut i = 0;
    while i < ctx.cfg.min_rounds() || (timed && start.elapsed().as_secs_f64() < ctx.cfg.seconds) {
        let reference = ctx.cfg.trace && !ctx.cfg.quick && i % REFERENCE_EVERY == 0;
        if let Some(t) = ctx.tracer.as_mut() {
            t.set_armed(!reference);
        }
        let ((), s) = ctx.scope("round", &mut round)?;
        ctx.push(if reference { "round_ref_s" } else { "round_s" }, s);
        i += 1;
    }
    if let Some(t) = ctx.tracer.as_mut() {
        t.set_armed(true);
    }
    ctx.end_measure();
    // The workload's own high-water mark: set-up and rounds, before the
    // oracle's brute-force scans and the worst-case grid.
    ctx.set("peak_rss_mb", host::peak_rss_mb());
    Ok(())
}
