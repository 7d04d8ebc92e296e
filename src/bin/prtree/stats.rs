use crate::obs::{arm_tracing, report_registry};
use crate::opts::{open_live, read_path, Opts};
use crate::CmdResult;
use pr_live::LiveIndex;
use pr_store::{ScrubReport, Store};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The live index's state, every line but the checksum one (which says
/// whether this command scrubbed).
fn print_live_stats(out: &mut dyn Write, ix: &LiveIndex<2>) -> CmdResult {
    let s = ix.stats()?;
    writeln!(out, "live index:   {}", ix.dir().display())?;
    writeln!(
        out,
        "items:        {} live ({} memtable, {} sealed, {} tombstones)",
        s.live, s.memtable, s.sealed, s.tombstones
    )?;
    write!(out, "components:   {} [", s.components.len())?;
    for (i, (slot, len)) in s.components.iter().enumerate() {
        if i > 0 {
            write!(out, ", ")?;
        }
        write!(out, "slot {slot}: {len}")?;
    }
    writeln!(out, "]")?;
    let m = pr_live::obs::metrics();
    writeln!(
        out,
        "deletes:      membership filters hold {} bytes; this process's probes \
         searched {} component(s), skipped {}",
        s.filter_bytes,
        m.probe_searched.get(),
        m.probe_skipped.get()
    )?;
    writeln!(
        out,
        "wal:          seq {} acked / {} synced / {} merged; {} segment(s), {} bytes",
        s.durable_seq, s.synced_seq, s.merged_seq, s.wal_segments, s.wal_bytes
    )?;
    writeln!(
        out,
        "group commit (since open): {} records in {} groups, {} fsyncs",
        s.wal_group_records, s.wal_groups, s.wal_fsyncs
    )?;
    writeln!(
        out,
        "store:        epoch {}, {} bytes on disk ({} garbage); {} merges this session",
        s.store_epoch, s.store_file_bytes, s.store_garbage_bytes, s.merges
    )?;
    writeln!(
        out,
        "merge I/O:    {} pages written, {} reused in place; write amp {}.{:02}x",
        s.store_pages_written,
        s.store_pages_reused,
        s.write_amp_x100 / 100,
        s.write_amp_x100 % 100
    )?;
    write!(out, "runs:         {} [", s.store_runs.len())?;
    for (i, r) in s.store_runs.iter().enumerate() {
        if i > 0 {
            write!(out, ", ")?;
        }
        write!(out, "id {} @ {} x{}", r.id, r.data_offset, r.num_pages)?;
    }
    writeln!(out, "]")?;
    writeln!(
        out,
        "health:       wal {}, merges {}, store reads {}",
        if s.wal_degraded {
            "DEGRADED (transient group failure; next clean group recovers)"
        } else {
            "ok"
        },
        if s.merges_paused {
            "PAUSED (transient failure; retrying with backoff)"
        } else {
            "ok"
        },
        if s.store_degraded {
            "RECHECK (corruption seen; every read re-verified)"
        } else {
            "ok"
        },
    )?;
    Ok(())
}

/// How `ingest`, `delete` and `compact` end: the index's state after
/// the write. None of them re-hashes pages; `stats` does.
pub(crate) fn print_write_stats(out: &mut dyn Write, ix: &LiveIndex<2>) -> CmdResult {
    print_live_stats(out, ix)?;
    writeln!(out, "checksums:    not scrubbed (run `prtree stats`)")?;
    Ok(())
}

fn print_scrub(out: &mut dyn Write, report: &ScrubReport, t0: Instant) -> io::Result<()> {
    writeln!(
        out,
        "checksums:    all {} pages scrubbed in {:.1} ms \
         ({} were already verified by earlier reads)",
        report.pages,
        t0.elapsed().as_secs_f64() * 1e3,
        report.already_verified,
    )
}

pub(crate) fn cmd_stats(opts: &Opts, out: &mut dyn Write) -> CmdResult {
    let path = opts.path("FILE")?;
    arm_tracing(opts, 0)?;
    if Path::new(path).is_dir() {
        stats_live(path, opts, out)
    } else {
        stats_file(path, opts, out)
    }
}

fn stats_live(dir: &str, opts: &Opts, out: &mut dyn Write) -> CmdResult {
    let json = opts.has("json");
    let verify = !opts.has("no-verify");
    let ix = open_live(dir, opts)?;
    if !json {
        print_live_stats(out, &ix)?;
        if verify {
            // Same bit-rot scrub the store-file path runs: every
            // snapshot page re-hashed. A corrupt page is a nonzero exit.
            let t0 = Instant::now();
            print_scrub(out, &ix.scrub()?, t0)?;
        } else {
            writeln!(out, "checksums:    skipped (--no-verify)")?;
        }
        report_registry(out, false, None)?;
        return Ok(());
    }
    if verify {
        // JSON mode still scrubs (and still fails loudly on rot) — the
        // report just stays machine-readable.
        ix.scrub()?;
    }
    // The live-index summary and the per-run store layout ride as extra
    // top-level fields: CI diffs `store_runs` across commits to prove
    // byte-identical page reuse (unchanged id + offset).
    let s = ix.stats()?;
    let mut runs = pr_obs::json::JsonArr::new();
    for r in &s.store_runs {
        let mut o = pr_obs::json::JsonObj::new();
        o.u64("id", r.id)
            .u64("data_offset", r.data_offset)
            .u64("num_pages", r.num_pages);
        runs.push_raw(o.finish());
    }
    let mut components = pr_obs::json::JsonArr::new();
    for &(slot, items) in &s.components {
        let mut o = pr_obs::json::JsonObj::new();
        o.u64("slot", slot as u64).u64("items", items);
        components.push_raw(o.finish());
    }
    let mut live = pr_obs::json::JsonObj::new();
    live.u64("live", s.live)
        .raw("components", &components.finish())
        .u64("tombstones", s.tombstones)
        .u64("filter_bytes", s.filter_bytes)
        .u64("store_epoch", s.store_epoch)
        .u64("store_file_bytes", s.store_file_bytes)
        .u64("store_garbage_bytes", s.store_garbage_bytes)
        .u64("store_pages_written", s.store_pages_written)
        .u64("store_pages_reused", s.store_pages_reused)
        .f64p("write_amp", s.write_amp_x100 as f64 / 100.0, 2);
    let extra = format!(
        "\"index\":{},\"store_runs\":{}",
        live.finish(),
        runs.finish()
    );
    report_registry(out, true, Some(extra))?;
    Ok(())
}

fn stats_file(file: &str, opts: &Opts, out: &mut dyn Write) -> CmdResult {
    let json = opts.has("json");
    let store = Store::open(Path::new(file))?;
    let sb = *store.superblock();
    if !json {
        writeln!(out, "store:        {file}")?;
        writeln!(
            out,
            "format:       v{} (pr-store)",
            pr_store::FORMAT_VERSION
        )?;
        writeln!(
            out,
            "superblock:   slot {} of 2, epoch {}",
            store.active_slot(),
            sb.epoch
        )?;
        writeln!(out, "dimension:    {}", sb.dim)?;
        writeln!(out, "block size:   {} bytes", sb.block_size)?;
        writeln!(
            out,
            "pages:        {} ({} bytes of pages)",
            sb.num_pages,
            sb.num_pages * sb.block_size as u64
        )?;
        writeln!(
            out,
            "layout:       data @ {}, checksum table @ {}, footer @ {}",
            sb.data_offset, sb.table_offset, sb.footer_offset
        )?;
        if let Ok(len) = store.file_len() {
            writeln!(out, "file length:  {len} bytes")?;
        }
        writeln!(
            out,
            "tree meta:    {} items, root level {}, node cap {}, page size {}",
            sb.meta.len, sb.meta.root_level, sb.meta.params.leaf_cap, sb.meta.params.page_size
        )?;
    }
    if !sb.has_snapshot() {
        if !json {
            writeln!(out, "snapshot:     none committed yet")?;
        }
    } else if opts.has("no-verify") {
        // Metadata-only mode: no page is read, so this works (and stays
        // fast) even when the page region is damaged or huge.
        if !json {
            writeln!(
                out,
                "checksums:    skipped (--no-verify; superblock metadata only)"
            )?;
        }
    } else {
        // Eager scrub: re-hashes every page (its job is catching bit rot
        // even on pages earlier reads already verified) and marks them
        // all in the snapshot's shared verify-once bitmap — so the
        // tree-shape traversal below, which shares that bitmap,
        // re-verifies nothing.
        let t0 = Instant::now();
        let report = store.scrub()?;
        if !json {
            print_scrub(out, &report, t0)?;
        }
        // The tree walk goes through the same read path as query/knn.
        let tree = store.tree_with::<2>(read_path(opts))?;
        let shape = tree.stats()?;
        if !json {
            writeln!(
                out,
                "tree shape:   {} nodes ({} leaves), utilization {:.1}% (leaves {:.1}%)",
                shape.num_nodes(),
                shape.num_leaves(),
                shape.utilization() * 100.0,
                shape.leaf_utilization() * 100.0
            )?;
            writeln!(
                out,
                "nodes/level:  {:?} (leaves first)",
                shape.nodes_per_level
            )?;
            let io = tree.device().io_stats();
            let (verified, total) = store.verified_pages();
            writeln!(
                out,
                "I/O counters: {} reads, {} writes through the store device",
                io.reads, io.writes
            )?;
            writeln!(
                out,
                "verify-once:  {verified}/{total} pages verified; reads of verified pages skip CRC"
            )?;
        }
    }
    report_registry(out, json, None)?;
    Ok(())
}
