use crate::opts::{open_live, window, Opts};
use crate::stats::print_write_stats;
use crate::CmdResult;
use std::io::Write;
use std::time::Instant;

pub(crate) fn cmd_delete(opts: &Opts, out: &mut dyn Write) -> CmdResult {
    let dir = opts.path("DIR")?;
    let q = window(opts)?;
    let limit: usize = opts.num("limit", usize::MAX)?;
    let ix = open_live(dir, opts)?;
    let (victims, _) = ix.window(&q)?;
    let t0 = Instant::now();
    let mut deleted = 0u64;
    let take = limit.min(victims.len());
    // Batched deletes: one WAL fsync per chunk instead of per victim.
    for chunk in victims[..take].chunks(1024) {
        deleted += ix.delete_batch(chunk)?;
    }
    ix.wait_idle()?;
    writeln!(
        out,
        "deleted {deleted} of {} intersecting items in {:.2}s",
        victims.len(),
        t0.elapsed().as_secs_f64()
    )?;
    print_write_stats(out, &ix)
}
