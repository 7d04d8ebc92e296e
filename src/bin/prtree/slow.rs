use crate::obs::arm_tracing;
use crate::opts::{open_live, Opts};
use crate::CmdResult;
use pr_store::Store;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub(crate) fn cmd_slow(opts: &Opts, out: &mut dyn Write) -> CmdResult {
    let path = opts.path("DIR|FILE")?;
    let json = opts.has("json");
    let limit: usize = opts.num_min("limit", usize::MAX, 1)?;
    // Trace every op unless --trace-sample picks another rate.
    arm_tracing(opts, 1)?;
    if Path::new(path).is_dir() {
        // Opening replays the WAL under tracing; anything slow lands in
        // the flight recorder.
        let _ix = open_live(path, opts)?;
    } else {
        // A bare store file has no write pipeline; trace the next best
        // thing — open + full scrub — with the store's own `store_open`
        // span inside, so the trace shows where the time went.
        let op = pr_obs::trace::start("scrub");
        let t0 = Instant::now();
        let store = Store::open(Path::new(path))?;
        if store.superblock().has_snapshot() {
            store.scrub()?;
        }
        let epoch = store.superblock().epoch;
        pr_obs::trace::span_since("store", "scrub", Some(t0), format_args!("epoch={epoch}"));
        op.finish(format_args!(""));
    }
    pr_obs::trace::set_sampling(0);
    let mut groups = pr_obs::recorder().snapshot();
    for (_, traces) in groups.iter_mut() {
        traces.truncate(limit);
    }
    if json {
        writeln!(out, "{}", pr_obs::slow_traces_json(&groups))?;
    } else if groups.is_empty() {
        writeln!(out, "flight recorder: no ops above the slow threshold")?;
    } else {
        for (kind, traces) in &groups {
            writeln!(out, "{kind}: {} slowest retained", traces.len())?;
            for t in traces {
                writeln!(out, "  {:>9} µs total  {}", t.total_us, t.detail)?;
                for s in &t.spans {
                    let detail = if s.detail.is_empty() {
                        String::new()
                    } else {
                        format!("  {}", s.detail)
                    };
                    writeln!(
                        out,
                        "    {:>9} µs  {}/{}{detail}",
                        s.dur_us, s.layer, s.name
                    )?;
                }
            }
        }
    }
    Ok(())
}
