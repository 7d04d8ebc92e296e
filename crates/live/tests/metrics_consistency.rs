//! Concurrent-metrics consistency: the process-wide registry must
//! agree with a serial oracle while N writers and M query threads hit
//! one live index.
//!
//! The whole file is a single `#[test]` on purpose — the registry and
//! event ring are process-global, and a sibling test running in the
//! same binary would bump the very counters this test asserts on.
//!
//! Checked invariants, per ISSUE 7's satellite:
//! * acked-insert counters are **exact** (every `insert_batch` return
//!   is one oracle increment, and `live_wal_records_total` must match
//!   item-for-item);
//! * fsync/group counts never exceed the batch count (group commit
//!   coalesces, it never splits);
//! * node-cache misses equal the device reads, and hits the nodes
//!   visited minus device reads, summed over every query thread's own
//!   [`pr_tree::QueryStats`] — the sharded counters lose nothing under
//!   contention;
//! * the event ring preserves merge commit order (`cut_seq` is strictly
//!   increasing in ring order, because ring order is seq order).

use pr_geom::{Item, Rect};
use pr_live::{Durability, LiveIndex, LiveOptions};
use pr_tree::{QueryScratch, TreeParams};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const PHASE1_N: u32 = 4_000;
const WRITERS: usize = 4;
const BATCHES_PER_WRITER: usize = 40;
const BATCH: usize = 16;
const QUERY_THREADS: usize = 3;
const QUERIES_PER_THREAD: usize = 200;

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pr-live-metrics-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn item(i: u32) -> Item<2> {
    let x = (i as f64 * 37.0) % 1000.0;
    let y = (i as f64 * 61.0) % 1000.0;
    Item::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), i)
}

#[test]
fn registry_agrees_with_serial_oracle_under_concurrency() {
    let dir = tmpdir();
    let params = TreeParams::with_cap::<2>(8);

    // Phase 1 — serial ingest with a small buffer and inline merges, so
    // components exist (queries below must actually traverse trees)
    // and the ring records real merge commits.
    {
        let opts = LiveOptions {
            buffer_cap: 512,
            background_merge: false,
            durability: Durability::Fsync,
            ..LiveOptions::default()
        };
        let ix = LiveIndex::<2>::create(&dir, params, opts).unwrap();
        let all: Vec<Item<2>> = (0..PHASE1_N).map(item).collect();
        for chunk in all.chunks(64) {
            ix.insert_batch(chunk).unwrap();
        }
        ix.flush().unwrap();
        let stats = ix.stats().unwrap();
        assert!(
            !stats.components.is_empty(),
            "phase 1 must leave store-backed components behind"
        );
    }

    // Event-ring order: merge commits appear in commit order, because
    // ring sequence numbers are assigned under the ring lock at emit
    // time and merges emit at their swap point under the writer lock.
    let log = pr_obs::events().snapshot();
    let cut_seqs: Vec<u64> = log
        .events
        .iter()
        .filter(|e| e.kind == "merge_commit")
        .map(|e| {
            e.detail
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("cut_seq="))
                .expect("merge_commit detail carries cut_seq")
                .parse::<u64>()
                .unwrap()
        })
        .collect();
    assert!(
        !cut_seqs.is_empty(),
        "phase 1 must commit at least one merge"
    );
    assert!(
        cut_seqs.windows(2).all(|w| w[0] < w[1]),
        "merge_commit cut_seqs out of order in the ring: {cut_seqs:?}"
    );
    let ring_seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
    assert!(
        ring_seqs.windows(2).all(|w| w[0] < w[1]),
        "ring sequence numbers must be strictly increasing"
    );

    // Phase 2 — reopen with an unreachable buffer cap: no seals, no
    // merges, so every registry movement in the window below comes from
    // the writer/query threads themselves.
    let opts = LiveOptions {
        buffer_cap: usize::MAX,
        background_merge: false,
        durability: Durability::Fsync,
        ..LiveOptions::default()
    };
    let ix = LiveIndex::<2>::open(&dir, opts).unwrap();
    let before = pr_obs::global().snapshot();

    let inserted = AtomicU64::new(0);
    let batches = AtomicU64::new(0);
    // Query threads' own sums of nodes visited and of device reads.
    let (probes, reads) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let ix = &ix;
            let (inserted, batches) = (&inserted, &batches);
            s.spawn(move || {
                for b in 0..BATCHES_PER_WRITER {
                    let base = 1_000_000 + (w * BATCHES_PER_WRITER + b) as u32 * BATCH as u32;
                    let items: Vec<Item<2>> = (0..BATCH as u32).map(|k| item(base + k)).collect();
                    ix.insert_batch(&items).unwrap();
                    inserted.fetch_add(items.len() as u64, Ordering::Relaxed);
                    batches.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for q in 0..QUERY_THREADS {
            let ix = &ix;
            let (probes, reads) = (&probes, &reads);
            s.spawn(move || {
                let snap = ix.snapshot();
                let mut scratch = QueryScratch::new();
                let mut out = Vec::new();
                let (mut sum, mut read) = (0u64, 0u64);
                for i in 0..QUERIES_PER_THREAD {
                    let x = ((q * QUERIES_PER_THREAD + i) as f64 * 13.0) % 950.0;
                    let query = Rect::xyxy(x, 0.0, x + 50.0, 1000.0);
                    let stats = snap.window_into(&query, &mut scratch, &mut out).unwrap();
                    sum += stats.nodes_visited;
                    read += stats.device_reads;
                }
                probes.fetch_add(sum, Ordering::Relaxed);
                reads.fetch_add(read, Ordering::Relaxed);
            });
        }
    });

    let after = pr_obs::global().snapshot();
    let delta = after.delta_since(&before);
    let inserted = inserted.load(Ordering::Relaxed);
    let batches = batches.load(Ordering::Relaxed);
    let probes = probes.load(Ordering::Relaxed);
    let reads = reads.load(Ordering::Relaxed);

    // Acked inserts are exact — once as the acked-op counter, once as
    // WAL records (1 insert == 1 record; no deletes in this window).
    assert_eq!(delta.counter("live_inserts_acked_total"), inserted);
    assert_eq!(delta.counter("live_wal_records_total"), inserted);

    // Group commit coalesces: with concurrent writers in Fsync mode,
    // groups (and their one-fsync-each) never exceed batch count.
    let groups = delta.counter("live_wal_groups_total");
    let fsyncs = delta.counter("live_wal_fsyncs_total");
    assert!(
        groups >= 1 && groups <= batches,
        "groups={groups} batches={batches}"
    );
    assert!(fsyncs == groups, "fsyncs={fsyncs} groups={groups}");

    // Sharded node-cache counters lose nothing under contention: every
    // node visit is one lookup, a miss exactly when it read the device,
    // so the registry's deltas split the nodes the query threads counted
    // through their per-traversal QueryStats.
    let hits = delta.counter("tree_node_cache_hits_total");
    let misses = delta.counter("tree_node_cache_misses_total");
    assert!(probes > 0, "queries must have visited component nodes");
    assert!(reads > 0, "queries must have read leaves from the device");
    assert_eq!(misses, reads, "misses = Σ device_reads");
    assert_eq!(
        hits,
        probes - reads,
        "hits = Σ (nodes_visited − device_reads)"
    );

    // No merges ran in the window.
    assert_eq!(delta.counter("live_merges_total"), 0);

    // The batch-latency histogram saw every batch.
    let h = delta
        .histogram("live_insert_batch_us")
        .expect("insert batch histogram registered");
    assert_eq!(h.len(), batches);

    drop(ix);
    std::fs::remove_dir_all(&dir).ok();
}
