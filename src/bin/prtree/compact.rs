use crate::opts::{open_live, Opts};
use crate::stats::print_write_stats;
use crate::CmdResult;
use std::io::Write;
use std::time::Instant;

pub(crate) fn cmd_compact(opts: &Opts, out: &mut dyn Write) -> CmdResult {
    let dir = opts.path("DIR")?;
    let max_garbage_pct = match opts.opt_num::<u8>("max-garbage-pct") {
        Ok(p) if p.is_none_or(|p| p <= 100) => p,
        _ => return Err("--max-garbage-pct expects an integer 0..=100".into()),
    };
    let ix = open_live(dir, opts)?;
    let before = ix.stats()?;
    let t0 = Instant::now();
    if let Some(pct) = max_garbage_pct {
        // Conditional reclamation: rewrite only past the garbage
        // threshold, otherwise leave the incremental layout alone.
        if !ix.compact_if_garbage(pct)? {
            writeln!(
                out,
                "skipped: {} garbage bytes of {} on disk is within {pct}%",
                before.store_garbage_bytes, before.store_file_bytes
            )?;
            return print_write_stats(out, &ix);
        }
    } else {
        ix.compact()?;
    }
    let after = ix.stats()?;
    writeln!(
        out,
        "compacted in {:.2}s: {} → {} component(s), {} → {} tombstones, \
         {} → {} store bytes",
        t0.elapsed().as_secs_f64(),
        before.components.len(),
        after.components.len(),
        before.tombstones,
        after.tombstones,
        before.store_file_bytes,
        after.store_file_bytes
    )?;
    print_write_stats(out, &ix)
}
