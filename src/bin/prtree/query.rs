use crate::opts::{window, Opts};
use crate::reader::{explained, Reader};
use crate::CmdResult;
use pr_tree::QueryScratch;
use std::io::Write;
use std::time::Instant;

pub(crate) fn cmd_query(opts: &Opts, out: &mut dyn Write) -> CmdResult {
    let path = opts.path("FILE")?;
    let q = window(opts)?;
    let expect: Option<usize> = opts.opt_num("expect")?;
    let reps: usize = opts.num("repeat", 0)?;

    let t0 = Instant::now();
    let reader = Reader::open(path, opts)?;
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut scratch = QueryScratch::new();
    let mut hits = Vec::new();
    let (stats, query_ms, explain) = explained(opts, out, "window", &reader, || {
        reader.window(&q, &mut scratch, &mut hits)
    })?;

    // The report (after the `--explain` profile) goes out before the
    // `--expect` check, but the check's verdict outranks a reader that
    // closed the pipe during either.
    let report = explain.and_then(|()| {
        writeln!(out, "results: {}", hits.len())?;
        writeln!(
            out,
            "query I/O: {} leaves visited, {} internal, {} device reads ({query_ms:.1} ms){}",
            stats.leaves_visited,
            stats.internal_visited,
            stats.device_reads,
            reader.fanout(),
        )?;
        writeln!(out, "{}", reader.open_line(open_ms))?;
        if opts.has("verbose") {
            for item in hits.iter().take(20) {
                writeln!(out, "  id {} rect {:?}", item.id, item.rect)?;
            }
            if hits.len() > 20 {
                writeln!(out, "  ... and {} more", hits.len() - 20)?;
            }
        }
        Ok(())
    });
    if let Some(want) = expect.filter(|&want| want != hits.len()) {
        return Err(format!("expected {want} results, got {}", hits.len()).into());
    }
    report?;
    if reps > 0 {
        // Warm-cache hot loop: one QueryScratch reused across all runs,
        // so after the first iteration the traversal allocates nothing.
        let t0 = Instant::now();
        let mut total = 0u64;
        for _ in 0..reps {
            reader.window(&q, &mut scratch, &mut hits)?;
            total += hits.len() as u64;
        }
        let secs = t0.elapsed().as_secs_f64();
        writeln!(
            out,
            "hot loop: {reps} runs in {:.1} ms — {:.1} µs/query, {:.0} queries/s ({} results/run)",
            secs * 1e3,
            secs / reps as f64 * 1e6,
            reps as f64 / secs,
            total / reps as u64,
        )?;
    }
    Ok(())
}
