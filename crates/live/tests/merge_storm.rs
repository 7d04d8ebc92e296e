//! Page accounting of incremental merge commits under a storm of
//! forced seals over a large resident index.
//!
//! A big compacted component (the "resident index") sits in a high
//! slot while small batches are sealed and merged over and over. Every
//! storm merge must commit the resident run **by reference** — same
//! stable id, same byte offset, zero pages rewritten — while only the
//! small merged component is appended. Merges run inline, so every
//! count below is deterministic: this is exact page accounting, not a
//! timing.

use pr_em::Record;
use pr_geom::{Item, Rect};
use pr_live::{LiveIndex, LiveOptions, LiveStats};
use pr_tree::{Entry, TreeParams};

/// Items in the resident (compacted, high-slot) component.
const BASE_N: u32 = 100_000;
/// Storm rounds: each seals + merges one small batch.
const ROUNDS: u32 = 24;
/// Items per storm round.
const ROUND_N: u32 = 512;
const BUFFER_CAP: usize = 2048;
/// Steady-state write-amp bound (×): geometric merging rewrites each
/// ingested byte once per level it cascades through — a handful — plus
/// page-packing overhead. A full-rewrite commit would sit at
/// BASE_N/ROUND_N ≈ 195×.
const WRITE_AMP_BOUND: f64 = 8.0;

fn item(i: u32) -> Item<2> {
    let x = ((i as f64 * 0.754_877_666) % 1.0).abs();
    let y = ((i as f64 * 0.569_840_290) % 1.0).abs();
    Item::new(Rect::xyxy(x, y, x, y), i)
}

fn insert_and_flush(ix: &LiveIndex<2>, ids: std::ops::Range<u32>) {
    let items: Vec<Item<2>> = ids.map(item).collect();
    ix.insert_batch(&items).unwrap();
    ix.flush().unwrap();
}

#[test]
fn storm_commits_reuse_the_resident_run_and_bound_write_amp() {
    let dir = std::env::temp_dir().join(format!("pr-live-storm-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let params = TreeParams::paper_2d();
    let opts = LiveOptions {
        buffer_cap: BUFFER_CAP,
        background_merge: false,
        ..LiveOptions::default()
    };
    let ix = LiveIndex::<2>::create(&dir, params, opts).unwrap();

    // Resident index: bulk ingest, then compact into one big component.
    let base: Vec<Item<2>> = (0..BASE_N).map(item).collect();
    for chunk in base.chunks(BUFFER_CAP) {
        ix.insert_batch(chunk).unwrap();
    }
    ix.compact().unwrap();
    let start = ix.stats().unwrap();
    assert_eq!(start.store_runs.len(), 1, "setup: one resident run");
    let resident = start.store_runs[0];

    // The storm: forced seal + inline merge every ROUND_N items.
    let mut reused = start.store_pages_reused;
    for r in 0..ROUNDS {
        let lo = 1_000_000 + r * ROUND_N;
        insert_and_flush(&ix, lo..lo + ROUND_N);
        let s = ix.stats().unwrap();
        assert!(
            s.store_runs.contains(&resident),
            "round {r}: resident run {resident:?} was rewritten or moved: {:?}",
            s.store_runs
        );
        assert!(
            s.store_pages_reused - reused >= resident.num_pages,
            "round {r}: the commit reused {} pages, fewer than the resident run's {}",
            s.store_pages_reused - reused,
            resident.num_pages
        );
        reused = s.store_pages_reused;
    }
    let after = ix.stats().unwrap();
    assert_eq!(after.live, u64::from(BASE_N + ROUNDS * ROUND_N));
    let pages_written = after.store_pages_written - start.store_pages_written;
    let ingested = u64::from(ROUNDS * ROUND_N) * Entry::<2>::SIZE as u64;
    let write_amp = (pages_written * params.page_size as u64) as f64 / ingested as f64;
    println!(
        "storm write-amp {write_amp:.2}x ({pages_written} pages written, {} reused)",
        reused - start.store_pages_reused
    );
    assert!(
        write_amp <= WRITE_AMP_BOUND,
        "storm write-amp {write_amp:.2}x exceeds the {WRITE_AMP_BOUND}x bound"
    );

    // One small-level merge over the now-large index. Settle slot 0
    // first so the probe cannot land on a cascade boundary: as long as
    // slot 0 cannot absorb a small batch, keep storming.
    let slot0 = |s: &LiveStats| {
        s.components
            .iter()
            .find(|(slot, _)| *slot == 0)
            .map_or(0, |(_, n)| *n)
    };
    let mut extra = 0;
    while slot0(&ix.stats().unwrap()) + 64 > BUFFER_CAP as u64 {
        assert!(extra < 8, "slot 0 never settled");
        let lo = 2_000_000 + extra * ROUND_N;
        insert_and_flush(&ix, lo..lo + ROUND_N);
        extra += 1;
    }
    let before_probe = ix.stats().unwrap();
    insert_and_flush(&ix, 3_000_000..3_000_064);
    let after_probe = ix.stats().unwrap();
    let probe_pages = after_probe.store_pages_written - before_probe.store_pages_written;
    let live_pages: u64 = after_probe.store_runs.iter().map(|r| r.num_pages).sum();
    println!("small merge wrote {probe_pages} of {live_pages} live pages");
    assert!(
        probe_pages * 10 < live_pages,
        "a small-level merge wrote {probe_pages} of {live_pages} live pages — \
         incremental commits are rewriting the index"
    );

    drop(ix);
    std::fs::remove_dir_all(&dir).ok();
}
