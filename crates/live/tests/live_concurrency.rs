//! Concurrency proofs: readers racing active ingest, merges, and
//! compaction always see a **consistent op-boundary cut** whose contents
//! equal a serial brute-force oracle, and a snapshot once taken is
//! frozen forever.
//!
//! The key invariant exploited: the writer applies a deterministic
//! workload, so every reachable cut has a closed-form oracle. Insert-only
//! workloads: a snapshot must contain *exactly* a prefix of each
//! writer's id shard (no holes — nothing torn; no future items). Mixed
//! workloads: the cut is identified by the live-id multiset and checked
//! item-for-item against the oracle's history.

use pr_geom::{Item, Point, Rect};
use pr_live::{LiveIndex, LiveOptions, LiveSnapshot};
use pr_tree::{QueryScratch, TreeParams};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("pr-live-conc-{}", std::process::id()))
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn params() -> TreeParams {
    TreeParams::with_cap::<2>(8)
}

fn item(i: u32) -> Item<2> {
    let x = (i as f64 * 37.0) % 1000.0;
    let y = (i as f64 * 61.0) % 1000.0;
    Item::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), i)
}

fn everything() -> Rect<2> {
    Rect::xyxy(-10.0, -10.0, 1010.0, 1010.0)
}

/// Readers hammer snapshots while `writers` threads each insert their
/// own id shard `w * PER .. (w + 1) * PER` in order, `batch` items per
/// acknowledged call (merges — inline or background — constantly in
/// flight). Within every shard each snapshot must hold an exact prefix
/// of that writer's order (no holes — nothing torn; no future items),
/// at least as long as the acks observed before the pin; its size is
/// bounded by what was acknowledged around the time it was taken; and
/// it is identical to the serial brute-force oracle over those items.
fn insert_only_prefix_invariant(name: &str, background: bool, writers: u32, batch: usize) {
    const PER: u32 = 2000;
    let dir = tmpdir(name);
    let opts = LiveOptions {
        buffer_cap: 64,
        background_merge: background,
        ..LiveOptions::default()
    };
    let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
    let acked: Vec<AtomicU32> = (0..writers).map(|_| AtomicU32::new(0)).collect();
    let running = AtomicU32::new(writers);
    std::thread::scope(|s| {
        let ix = &ix;
        let acked = &acked;
        let running = &running;
        for w in 0..writers {
            s.spawn(move || {
                let shard: Vec<Item<2>> = (w * PER..(w + 1) * PER).map(item).collect();
                for chunk in shard.chunks(batch) {
                    ix.insert_batch(chunk).unwrap();
                    acked[w as usize].fetch_add(chunk.len() as u32, Ordering::Release);
                }
                running.fetch_sub(1, Ordering::Release);
            });
        }
        for reader in 0..3 {
            s.spawn(move || {
                let mut scratch = QueryScratch::new();
                let mut out = Vec::new();
                let mut seen_nonempty = false;
                loop {
                    let finished = running.load(Ordering::Acquire) == 0;
                    let floors: Vec<u32> =
                        acked.iter().map(|a| a.load(Ordering::Acquire)).collect();
                    let low = ix.len(); // acked before the snapshot
                    let snap = ix.snapshot();
                    let high = ix.len(); // acked after the snapshot
                    snap.window_into(&everything(), &mut scratch, &mut out)
                        .unwrap();
                    let k = snap.len();
                    assert!(
                        (low..=high).contains(&k),
                        "reader {reader}: snapshot len {k} outside [{low}, {high}]"
                    );
                    let mut ids: Vec<u32> = out.iter().map(|i| i.id).collect();
                    ids.sort_unstable();
                    let mut want_ids: Vec<u32> = Vec::with_capacity(ids.len());
                    for (w, &floor) in (0..writers).zip(&floors) {
                        let shard = w * PER..(w + 1) * PER;
                        let held = ids.iter().filter(|i| shard.contains(i)).count() as u32;
                        assert!(
                            held >= floor,
                            "reader {reader}: shard {w} misses acked inserts ({held} < {floor})"
                        );
                        want_ids.extend(shard.start..shard.start + held);
                    }
                    assert_eq!(
                        ids, want_ids,
                        "reader {reader}: snapshot is not an exact prefix of every shard"
                    );
                    // Contents match the oracle item-for-item.
                    for it in &out {
                        assert_eq!(*it, item(it.id), "reader {reader}: item bits differ");
                    }
                    // A sub-window agrees with brute force over the prefixes.
                    let q = Rect::xyxy(100.0, 100.0, 400.0, 400.0);
                    let got = snap.window(&q).unwrap();
                    let mut got_ids: Vec<u32> = got.iter().map(|i| i.id).collect();
                    got_ids.sort_unstable();
                    let want: Vec<u32> = want_ids
                        .iter()
                        .copied()
                        .filter(|&i| item(i).rect.intersects(&q))
                        .collect();
                    assert_eq!(got_ids, want, "reader {reader}: window vs oracle");
                    seen_nonempty |= k > 0;
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
                assert!(seen_nonempty, "reader {reader} never saw data");
            });
        }
    });
    ix.wait_idle().unwrap();
    // Final state: the full id set, through queries and through k-NN.
    let snap = ix.snapshot();
    let mut ids: Vec<u32> = snap.items().unwrap().iter().map(|i| i.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..writers * PER).collect::<Vec<_>>());
    assert_eq!(snap.len(), ids.len() as u64);
    let stats = ix.stats().unwrap();
    assert!(stats.merges >= 1, "workload must have exercised merges");
    let (nn, _) = ix
        .nearest_neighbors(&Point::new([500.0, 500.0]), 10)
        .unwrap();
    assert_eq!(nn.len(), 10);
    assert!(nn.windows(2).all(|w| w[0].1 <= w[1].1));
}

#[test]
fn concurrent_readers_see_exact_prefixes_inline_merges() {
    insert_only_prefix_invariant("prefix-inline", false, 1, 1);
}

#[test]
fn concurrent_readers_see_exact_prefixes_background_merges() {
    insert_only_prefix_invariant("prefix-background", true, 1, 1);
}

/// Two writers share group commits; odd-sized batches straddle every
/// seal boundary of the 64-item memtable.
#[test]
fn concurrent_readers_see_exact_prefixes_two_writers() {
    insert_only_prefix_invariant("prefix-two-writers", true, 2, 97);
}

/// Mixed insert/delete workload with background merges: the *writer*
/// verifies full oracle equality at every step (serial correctness
/// while merges race underneath), and concurrent readers verify
/// structural consistency (no duplicates, no foreign items, no dead
/// items older than the snapshot allows).
#[test]
fn mixed_ops_match_oracle_with_concurrent_readers() {
    let dir = tmpdir("mixed");
    let opts = LiveOptions {
        buffer_cap: 48,
        background_merge: true,
        ..LiveOptions::default()
    };
    let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let ix = &ix;
        let done = &done;
        s.spawn(move || {
            let mut oracle: Vec<Item<2>> = Vec::new();
            let mut scratch = QueryScratch::new();
            let mut out = Vec::new();
            for k in 0..1200u32 {
                // Deterministic mixed workload: every 3rd op deletes the
                // oldest survivor.
                if k % 3 == 2 && !oracle.is_empty() {
                    let victim = oracle.remove(0);
                    assert!(ix.delete(&victim).unwrap(), "op {k}");
                } else {
                    ix.insert(item(k)).unwrap();
                    oracle.push(item(k));
                }
                if k % 50 == 49 {
                    let snap = ix.snapshot();
                    snap.window_into(&everything(), &mut scratch, &mut out)
                        .unwrap();
                    let mut got: Vec<u32> = out.iter().map(|i| i.id).collect();
                    let mut want: Vec<u32> = oracle.iter().map(|i| i.id).collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "writer-side oracle check at op {k}");
                }
            }
            done.store(true, Ordering::Release);
        });
        for reader in 0..2 {
            s.spawn(move || {
                let mut scratch = QueryScratch::new();
                let mut out = Vec::new();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let snap = ix.snapshot();
                    snap.window_into(&everything(), &mut scratch, &mut out)
                        .unwrap();
                    assert_eq!(out.len() as u64, snap.len(), "reader {reader}: count");
                    let mut ids: Vec<u32> = out.iter().map(|i| i.id).collect();
                    ids.sort_unstable();
                    let unique_before = ids.len();
                    ids.dedup();
                    assert_eq!(ids.len(), unique_before, "reader {reader}: duplicate ids");
                    for it in &out {
                        assert_eq!(*it, item(it.id), "reader {reader}: foreign item");
                    }
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }
    });
    ix.wait_idle().unwrap();
    assert!(ix.stats().unwrap().merges >= 1);
}

/// A snapshot is pinned: its results never change, even across further
/// ingest, merges, and a full compaction that rewrites (and unlinks)
/// the store file underneath it. It is taken while the memtable holds
/// tiled full chunks and a partly filled tail, which it shares with the
/// index until deletes and appends copy them.
#[test]
fn snapshot_stays_frozen_across_merges_and_compaction() {
    let dir = tmpdir("pinned");
    let opts = LiveOptions {
        buffer_cap: 256,
        background_merge: false,
        ..LiveOptions::default()
    };
    let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
    let run = |ids: std::ops::Range<u32>| ids.map(item).collect::<Vec<_>>();
    ix.insert_batch(&run(0..256)).unwrap(); // one merge: a component
    ix.insert_batch(&run(256..356)).unwrap(); // three tiled chunks + tail
    for i in 356..366 {
        ix.insert(item(i)).unwrap(); // onto the tail chunk
    }
    let snap: LiveSnapshot<2> = ix.snapshot();
    assert_eq!(
        (snap.num_components(), snap.loose_chunks()),
        (1, 4),
        "a component, three full chunks and a tail"
    );
    let q = Rect::xyxy(0.0, 0.0, 600.0, 600.0);
    let points: Vec<Point<2>> = (0..16u32)
        .map(|i| Point::new([f64::from(i * 67 % 1000), f64::from(i * 131 % 1000)]))
        .collect();
    let knn = |snap: &LiveSnapshot<2>| {
        let (mut scratch, mut out) = (QueryScratch::new(), Vec::new());
        points
            .iter()
            .map(|p| {
                snap.nearest_neighbors_into(p, 12, &mut scratch, &mut out)
                    .unwrap();
                out.clone()
            })
            .collect::<Vec<_>>()
    };
    let baseline = snap.window(&q).unwrap();
    let baseline_knn = knn(&snap);
    let baseline_len = snap.len();

    // Mutate heavily: delete memtable residents out of the shared
    // chunks, append to the shared tail, then more inserts, deletes,
    // merges, and a compaction that replaces the store file wholesale.
    for i in [260, 300, 357] {
        assert!(ix.delete(&item(i)).unwrap());
    }
    for i in 366..900 {
        ix.insert(item(i)).unwrap();
    }
    for i in (0..256).step_by(2) {
        assert!(ix.delete(&item(i)).unwrap());
    }
    ix.compact().unwrap();

    // The old snapshot still answers from its pinned world.
    assert_eq!(snap.len(), baseline_len);
    let again = snap.window(&q).unwrap();
    assert_eq!(again, baseline, "snapshot results drifted");
    assert_eq!(knn(&snap), baseline_knn, "snapshot k-NN drifted");

    // And a fresh snapshot sees the new world.
    let fresh = ix.snapshot();
    assert_eq!(fresh.len(), 900 - 3 - 128);
}

/// k-NN on a live snapshot matches a brute-force oracle while merges
/// run (deletes included).
#[test]
fn knn_matches_oracle_after_churn() {
    let dir = tmpdir("knn");
    let opts = LiveOptions {
        buffer_cap: 16,
        background_merge: false,
        ..LiveOptions::default()
    };
    let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
    let mut oracle = Vec::new();
    for i in 0..400u32 {
        ix.insert(item(i)).unwrap();
        oracle.push(item(i));
    }
    for i in (0..400u32).step_by(3) {
        assert!(ix.delete(&item(i)).unwrap());
        oracle.retain(|it| it.id != i);
    }
    let q = Point::new([321.0, 456.0]);
    let (got, _) = ix.nearest_neighbors(&q, 15).unwrap();
    let mut want: Vec<(u32, f64)> = oracle
        .iter()
        .map(|i| (i.id, i.rect.min_dist2(&q).sqrt()))
        .collect();
    want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let got_pairs: Vec<(u32, f64)> = got.iter().map(|(i, d)| (i.id, *d)).collect();
    assert_eq!(got_pairs, want[..15].to_vec());
}
