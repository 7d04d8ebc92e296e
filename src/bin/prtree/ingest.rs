use crate::obs::{arm_tracing, write_atomic, write_metrics_file};
use crate::opts::{generate, live_opts, tree_params, Opts};
use crate::stats::print_write_stats;
use crate::CmdResult;
use pr_live::LiveIndex;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub(crate) fn cmd_ingest(opts: &Opts, out: &mut dyn Write) -> CmdResult {
    let dir = opts.path("DIR")?;
    let data = opts.get("data").unwrap_or("uniform");
    let n: u32 = opts.num("n", 100_000)?;
    let seed: u64 = opts.num("seed", 42)?;
    let id_base: u32 = opts.num("id-base", 0)?;
    let batch: usize = opts.num_min("batch", 1024, 1)?;
    let writers: usize = opts.num_min("writers", 1, 1)?;
    let params = tree_params(opts)?;
    let lo = live_opts(opts)?;
    let metrics_file = opts.get("metrics-file").map(PathBuf::from);
    // --trace-file wants every operation in the export: trace 1-in-1
    // unless --trace-sample says otherwise, and buffer the run's traces
    // in a collector alongside the flight recorder.
    let trace_file = opts.get("trace-file").map(PathBuf::from);
    arm_tracing(opts, trace_file.is_some().into())?;
    if trace_file.is_some() {
        pr_obs::trace::install_collector(4096);
    }

    let mut items = generate(data, n, seed)?;
    for it in &mut items {
        it.id = it
            .id
            .checked_add(id_base)
            .ok_or("--id-base + generated id overflows u32; ids would collide")?;
    }

    let ix = LiveIndex::<2>::open_or_create(Path::new(dir), params, lo)?;
    // Periodic metrics flusher: a background thread rewrites FILE
    // (atomic rename) every 500 ms while the ingest runs, then a final
    // flush below captures the finished totals.
    let stop_flusher = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flusher = metrics_file.clone().map(|path| {
        let stop = Arc::clone(&stop_flusher);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if let Err(e) = write_metrics_file(&path) {
                    eprintln!("warning: {e}");
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(500));
            }
        })
    });
    let t0 = Instant::now();
    // With --writers N the items are sharded across N threads whose
    // batches coalesce into shared group-commit fsyncs.
    let shard = items.len().div_ceil(writers).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(shard)
            .map(|shard_items| {
                let ix = &ix;
                s.spawn(move || {
                    shard_items
                        .chunks(batch)
                        .try_for_each(|chunk| ix.insert_batch(chunk))
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("ingest writer panicked"))
    })?;
    let acked_s = t0.elapsed().as_secs_f64();
    ix.wait_idle()?;
    if opts.has("flush") {
        ix.flush()?;
    }
    let total_s = t0.elapsed().as_secs_f64();
    stop_flusher.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(h) = flusher {
        h.join().expect("metrics flusher panicked");
    }
    if let Some(path) = &metrics_file {
        write_metrics_file(path)?;
        writeln!(out, "wrote metrics to {}", path.display())?;
    }
    if let Some(path) = &trace_file {
        let traces = pr_obs::trace::drain_collector();
        write_atomic(path, pr_obs::chrome_trace_json(&traces))?;
        writeln!(
            out,
            "wrote {} span trace(s) to {} (Chrome trace-event JSON)",
            traces.len(),
            path.display()
        )?;
    }
    writeln!(
        out,
        "ingested {n} items ({data}, seed {seed}, ids {id_base}..{}) with {writers} \
         writer(s) in {acked_s:.2}s acked ({:.0} items/s), {total_s:.2}s to idle",
        id_base as u64 + n as u64,
        n as f64 / acked_s.max(1e-9),
    )?;
    print_write_stats(out, &ix)
}
