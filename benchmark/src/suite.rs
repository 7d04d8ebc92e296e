//! Suite mode: every workload as its own child process (so memory
//! high-water marks are per workload), untraced then traced; and the
//! noise self-check that runs the suite twice on the same code and seed.

use crate::catalog::{self, Better, MetricDef};
use crate::ctx::Config;
use crate::host;
use crate::json::{self, Value};
use crate::stats;
use pr_obs::json::{JsonArr, JsonObj};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// One child run's result object, decoded.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    /// The raw result line, for `results.json`.
    raw: String,
}

/// A workload and its run's result (`None`: the child broke the
/// contract).
type Row = (&'static str, Option<RunResult>);

/// Runs `workload` in a child process, passing its report through, and
/// decodes the last stdout line. `None` if the child broke the contract.
fn run_child(cfg: &Config, workload: &str, trace: bool) -> Option<RunResult> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if cfg.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last()?.to_string();
    for line in text.lines().take(text.lines().count().saturating_sub(1)) {
        println!("{line}");
    }
    let v = json::parse(&last).ok()?;
    let metrics = v
        .get("metrics")?
        .as_obj()?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let failed = v.get("failed")?.as_f64()? as u64;
    let clean = out.status.success() && v.get("correct")?.as_bool()?;
    Some(RunResult {
        attempted: v.get("attempted")?.as_f64()? as u64,
        // A child that exits non-zero or reports `correct: false`
        // without owning up to a failed op still counts as one.
        failed: failed.max(!clean as u64),
        metrics,
        raw: last,
    })
}

fn print_table(title: &str, defs: &[MetricDef], rows: &[Row]) {
    println!("\n== {title} ==");
    print!("{:<34} {:<13}", "metric", "unit");
    for (w, _) in rows {
        print!(" {w:>14}");
    }
    println!();
    for m in defs {
        print!("{:<34} {:<13}", m.name, m.unit);
        for (_, r) in rows {
            match r.as_ref().and_then(|r| r.metrics.get(m.name)) {
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
    for (label, pick) in [
        (
            "ops_attempted",
            (|r: &RunResult| r.attempted) as fn(&RunResult) -> u64,
        ),
        ("ops_failed", |r: &RunResult| r.failed),
    ] {
        print!("{label:<34} {:<13}", "count");
        for (_, r) in rows {
            match r {
                Some(r) => print!(" {:>14}", pick(r)),
                None => print!(" {:>14}", "BROKEN"),
            }
        }
        println!();
    }
}

fn failures(rows: &[Row]) -> u64 {
    rows.iter()
        .map(|(_, r)| r.as_ref().map_or(1, |r| r.failed))
        .sum()
}

fn run_pass(cfg: &Config, trace: bool) -> Vec<Row> {
    catalog::WORKLOADS
        .iter()
        .map(|(w, _)| (*w, run_child(cfg, w, trace)))
        .collect()
}

fn results_json(cfg: &Config, passes: &[(&str, &[Row])]) -> String {
    let mut root = JsonObj::new();
    root.raw("host", &host::fingerprint_json())
        .u64("seed", cfg.seed)
        .f64("seconds", cfg.seconds)
        .bool("quick", cfg.quick)
        .str("flush_policy", crate::live::FLUSH_POLICY);
    for (label, rows) in passes {
        let mut o = JsonObj::new();
        for (w, r) in rows.iter() {
            o.raw(w, r.as_ref().map_or("null", |r| r.raw.as_str()));
        }
        root.raw(label, &o.finish());
    }
    root.finish()
}

/// All three workloads, untraced (end-to-end metrics) then traced
/// (per-layer metrics). Exit code 1 if any op failed anywhere.
pub fn run_all(cfg: &Config) -> i32 {
    let e2e = run_pass(cfg, false);
    let layers = run_pass(cfg, true);
    print_table("end-to-end (untraced runs)", &catalog::END_TO_END, &e2e);
    print_table("per-layer (traced runs)", &catalog::PER_LAYER, &layers);
    let doc = results_json(cfg, &[("end_to_end", &e2e), ("per_layer", &layers)]);
    host::write_out("results.json", &doc);
    (failures(&e2e) + failures(&layers) > 0) as i32
}

/// The bounds of record: `BENCHMARK.json` at the checkout root.
fn manifest_bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = host::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end array")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative = better).
fn worsening(first: f64, second: f64, better: Better) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Runs the untraced suite twice on the same code and seed, prints each
/// end-to-end metric's two values and the relative gap, and fails if a
/// gap (in either direction — there is no "better" between two runs of
/// the same code) exceeds that metric's bound in `BENCHMARK.json`.
pub fn repeat_check(cfg: &Config) -> i32 {
    let bounds = match manifest_bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("repeat-check: {e}");
            return 2;
        }
    };
    let first = run_pass(cfg, false);
    let second = run_pass(cfg, false);
    let mut out_of_bound = 0;
    let mut rows = JsonArr::new();
    println!("\n== repeat check: same code, same seed, two suite runs ==");
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for ((w, a), (_, b)) in first.iter().zip(&second) {
        let (Some(a), Some(b)) = (a, b) else {
            println!("{w:<14} BROKEN RUN");
            out_of_bound += 1;
            continue;
        };
        for m in &catalog::END_TO_END {
            let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
            let gap = worsening(x, y, m.better).abs();
            let bound = bounds.get(m.name).copied().unwrap_or(m.bound);
            let over = gap > bound;
            out_of_bound += over as u32;
            println!(
                "{w:<14} {:<22} {x:>14.4} {y:>14.4} {:>7.2}% {:>6.1}%{}",
                m.name,
                gap * 100.0,
                bound * 100.0,
                if over { "  OVER" } else { "" }
            );
            let mut o = JsonObj::new();
            o.str("workload", w)
                .str("metric", m.name)
                .f64("first", x)
                .f64("second", y)
                .f64("gap", gap)
                .f64("bound", bound);
            rows.push_raw(o.finish());
        }
    }
    let mut doc = JsonObj::new();
    doc.raw("host", &host::fingerprint_json())
        .u64("seed", cfg.seed)
        .raw("rows", &rows.finish());
    host::write_out("repeat_check.json", &doc.finish());
    let failed = failures(&first) + failures(&second);
    println!("\nrepeat check: {out_of_bound} metric(s) over bound, {failed} failed op(s)");
    (out_of_bound > 0 || failed > 0) as i32
}

/// The driver's acceptance rule, run locally: `runs` untraced runs of
/// each workload (all of them, or just `cfg.workload`), each with
/// another seed; per end-to-end metric the interquartile distance of
/// the values (Python's `statistics.quantiles(n=4)`) as a share of
/// their median must stay within the metric's bound. `setup_s` is
/// exempt from the spread rule. Flags a spread above a third of the
/// bound as `wide`: the margin the contract asks for.
pub fn spread_check(cfg: &Config, runs: usize) -> i32 {
    let bounds = match manifest_bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("spread-check: {e}");
            return 2;
        }
    };
    let mut over = 0;
    let mut failed = 0;
    let mut rows = JsonArr::new();
    let mut report = Vec::new();
    for (w, _) in catalog::WORKLOADS
        .iter()
        .filter(|(w, _)| cfg.workload.is_empty() || *w == cfg.workload)
    {
        let results: Vec<RunResult> = (0..runs as u64)
            .filter_map(|i| {
                let seeded = Config {
                    seed: cfg.seed + i,
                    ..cfg.clone()
                };
                run_child(&seeded, w, false)
            })
            .collect();
        failed += (runs - results.len()) as u64 + results.iter().map(|r| r.failed).sum::<u64>();
        if results.len() < 2 {
            continue;
        }
        for m in &catalog::END_TO_END {
            let values: Vec<f64> = results.iter().map(|r| r.metrics[m.name]).collect();
            let [q1, med, q3] = stats::quartiles_exclusive(&values);
            let spread = if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            };
            let bound = bounds.get(m.name).copied().unwrap_or(m.bound);
            let flag = if m.name == "setup_s" {
                ""
            } else if spread > bound {
                over += 1;
                "  OVER"
            } else if spread > bound / 3.0 {
                "  wide"
            } else {
                ""
            };
            report.push(format!(
                "{w:<14} {:<22} {q1:>14.4} {med:>14.4} {q3:>14.4} {:>7.2}% {:>6.1}%{flag}",
                m.name,
                spread * 100.0,
                bound * 100.0
            ));
            let mut o = JsonObj::new();
            o.str("workload", w)
                .str("metric", m.name)
                .f64("q1", q1)
                .f64("median", med)
                .f64("q3", q3)
                .f64("spread", spread)
                .f64("bound", bound);
            rows.push_raw(o.finish());
        }
    }
    println!(
        "\n== spread check: {runs} runs per workload, seeds {}.. ==",
        cfg.seed
    );
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for line in report {
        println!("{line}");
    }
    let mut doc = JsonObj::new();
    doc.raw("host", &host::fingerprint_json())
        .u64("first_seed", cfg.seed)
        .u64("runs", runs as u64)
        .raw("rows", &rows.finish());
    host::write_out("spread_check.json", &doc.finish());
    println!("\nspread check: {over} metric(s) over bound, {failed} failed op(s)");
    (over > 0 || failed > 0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }
}
