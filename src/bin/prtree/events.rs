use crate::opts::{open_live, Opts};
use crate::CmdResult;
use std::io::Write;
use std::path::Path;

pub(crate) fn cmd_events(opts: &Opts, out: &mut dyn Write) -> CmdResult {
    let dir = opts.path("DIR")?;
    let json = opts.has("json");
    let limit: usize = opts.num("limit", usize::MAX)?;
    // Lifecycle events are emitted by the live engine (WAL replay,
    // merges, seals); a bare store file never produces any, so asking
    // for its history is a usage error, not an empty success.
    if !Path::new(dir).is_dir() {
        return Err(format!(
            "'{dir}' is a store file; store files have no event history — \
             events requires a live index directory"
        )
        .into());
    }
    // Opening the live dir replays its WAL, so the ring always has the
    // recovery story to tell even on a fresh process.
    let _ix = open_live(dir, opts)?;
    let log = pr_obs::events().snapshot();
    let skip = log.events.len().saturating_sub(limit);
    if json {
        let mut arr = pr_obs::json::JsonArr::new();
        for e in &log.events[skip..] {
            arr.push_raw(pr_obs::event_json(e));
        }
        let mut obj = pr_obs::json::JsonObj::new();
        obj.u64("schema_version", pr_obs::SCHEMA_VERSION)
            .raw("events", &arr.finish_pretty())
            .u64("events_dropped", log.dropped);
        writeln!(out, "{}", obj.finish())?;
        return Ok(());
    }
    writeln!(
        out,
        "{} lifecycle event(s) ({} dropped by the bounded ring):",
        log.events.len(),
        log.dropped
    )?;
    for e in &log.events[skip..] {
        let dur = e
            .duration_us
            .map(|d| format!("  [{d} µs]"))
            .unwrap_or_default();
        writeln!(out, "  #{:<4} {:<18} {}{dur}", e.seq, e.kind, e.detail)?;
    }
    Ok(())
}
