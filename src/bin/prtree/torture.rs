use crate::opts::{durability, Opts};
use crate::CmdResult;
use pr_live::Durability;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

pub(crate) fn cmd_torture(opts: &Opts, out: &mut dyn Write) -> CmdResult {
    let dir = match opts.positional.as_slice() {
        [] => std::env::temp_dir().join(format!("prtree-torture-{}", std::process::id())),
        [dir] => PathBuf::from(dir),
        _ => return Err("torture expects at most one DIR argument".into()),
    };
    let small = pr_live::TortureConfig::small(&dir, Durability::Fsync);
    let cfg = pr_live::TortureConfig {
        seed: opts.num("seed", small.seed)?,
        batches: opts.num("batches", small.batches)?,
        batch: opts.num("batch", small.batch)?,
        writers: opts.num("writers", small.writers)?,
        stride: opts.num("stride", small.stride)?,
        durability: durability(opts, small.durability)?,
        ..small
    };
    writeln!(
        out,
        "torture: sweeping every{} failable I/O op of a {}x{} trace \
         ({} writer(s), {:?}) in {}",
        if cfg.stride > 1 {
            format!(" {}th", cfg.stride)
        } else {
            String::new()
        },
        cfg.batches,
        cfg.batch,
        cfg.writers,
        cfg.durability,
        dir.display()
    )?;
    let t0 = Instant::now();
    // The harness panics (aborting with a nonzero exit) on any invariant
    // violation, so reaching a report means the sweep passed.
    let r =
        pr_live::run_torture(&cfg).map_err(|e| format!("torture harness could not run: {e}"))?;
    writeln!(
        out,
        "torture: PASS — {} runs over {} ops and {} mark hits in {:.2}s: {} faults \
         injected ({} silent), {} transient failures, {} fatal; every run \
         recovered exactly the acknowledged operations",
        r.runs,
        r.total_ops,
        r.marks,
        t0.elapsed().as_secs_f64(),
        r.injected,
        r.silent,
        r.transient_failures,
        r.fatal_failures
    )?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
