//! Group-commit proofs: N concurrent writers share fsyncs (the PR 6
//! acceptance claim), multi-writer workloads recover exactly the
//! acknowledged set at every kill boundary with gap-free sequence
//! numbers, async durability recovers the synced prefix of the acked
//! sequence under real byte loss, and the paranoid re-hash read path
//! serves the same answers.

use pr_geom::{Item, Rect};
use pr_live::{Durability, LiveIndex, LiveOptions, Wal};
use pr_tree::TreeParams;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("pr-live-group-{}", std::process::id()))
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn params() -> TreeParams {
    TreeParams::with_cap::<2>(8)
}

/// Deterministic item: position derived from the id.
fn item(i: u32) -> Item<2> {
    let x = (i as f64 * 37.0) % 1000.0;
    let y = (i as f64 * 61.0) % 1000.0;
    Item::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), i)
}

/// Writer `w`'s id space is disjoint from every other writer's.
fn w_item(w: usize, k: u32) -> Item<2> {
    item(w as u32 * 1_000_000 + k)
}

fn sorted_ids(items: &[Item<2>]) -> Vec<u32> {
    let mut ids: Vec<u32> = items.iter().map(|i| i.id).collect();
    ids.sort_unstable();
    ids
}

/// The acceptance assertion: with ≥2 concurrent writers in `Fsync`
/// mode, the group fsync count stays **below** the batch count —
/// batches coalesce into shared groups. Scheduling on a small machine
/// can serialize one run into all-singleton groups, so several attempts
/// are allowed; correctness invariants are asserted on every attempt.
#[test]
fn concurrent_writers_coalesce_fsyncs() {
    const WRITERS: usize = 4;
    const BATCHES: usize = 300;
    const BATCH: usize = 4;
    for attempt in 0..5 {
        let dir = tmpdir(&format!("coalesce-{attempt}"));
        let opts = LiveOptions {
            buffer_cap: usize::MAX, // no merges: every fsync is a commit
            background_merge: false,
            ..LiveOptions::default()
        };
        let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let ix = &ix;
                s.spawn(move || {
                    for b in 0..BATCHES {
                        let base = (b * BATCH) as u32;
                        let batch: Vec<Item<2>> =
                            (0..BATCH as u32).map(|i| w_item(w, base + i)).collect();
                        ix.insert_batch(&batch).unwrap();
                    }
                });
            }
        });
        let total_batches = (WRITERS * BATCHES) as u64;
        let total_ops = total_batches * BATCH as u64;
        assert_eq!(ix.len(), total_ops);
        let stats = ix.stats().unwrap();
        assert_eq!(stats.wal_group_records, total_ops, "every op logged");
        assert!(
            stats.wal_groups <= total_batches,
            "groups cannot exceed batches"
        );
        assert_eq!(stats.durable_seq, total_ops);
        assert_eq!(stats.synced_seq, total_ops, "Fsync mode: acked == synced");
        if stats.wal_fsyncs < total_batches {
            return; // coalescing observed — the claim holds
        }
    }
    panic!("no fsync coalescing observed across 5 attempts");
}

/// N writers × interleaved insert/delete batches, background merges
/// racing underneath; after every round the process "crashes" (plain
/// drop). Reopen must recover exactly the acknowledged set, and the
/// surviving WAL records must carry gap-free, file-ordered sequence
/// numbers (group commit may never reorder or skip a seq).
#[test]
fn multi_writer_kill_boundaries_recover_exact_acked_set() {
    const WRITERS: usize = 3;
    const ROUNDS: u32 = 6;
    const PER_ROUND: u32 = 60;
    let dir = tmpdir("kill-boundaries");
    let opts = LiveOptions {
        buffer_cap: 64,
        background_merge: true,
        ..LiveOptions::default()
    };
    let mut oracles: Vec<Vec<Item<2>>> = vec![Vec::new(); WRITERS];
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
        drop(ix); // created-then-crashed must reopen
    }
    for r in 0..ROUNDS {
        let ix = LiveIndex::<2>::open(&dir, opts).unwrap();
        std::thread::scope(|s| {
            for (w, _) in oracles.iter().enumerate() {
                let ix = &ix;
                s.spawn(move || {
                    let base = r * PER_ROUND;
                    // Insert this round's items in small batches...
                    for chunk in (0..PER_ROUND).collect::<Vec<_>>().chunks(7) {
                        let batch: Vec<Item<2>> =
                            chunk.iter().map(|k| w_item(w, base + k)).collect();
                        ix.insert_batch(&batch).unwrap();
                    }
                    // ...then delete every 3rd of them (own id space, so
                    // every victim is live and must be accepted).
                    let victims: Vec<Item<2>> = (0..PER_ROUND)
                        .step_by(3)
                        .map(|k| w_item(w, base + k))
                        .collect();
                    let deleted = ix.delete_batch(&victims).unwrap();
                    assert_eq!(deleted, victims.len() as u64, "writer {w} round {r}");
                });
            }
        });
        for (w, oracle) in oracles.iter_mut().enumerate() {
            let base = r * PER_ROUND;
            for k in 0..PER_ROUND {
                if k % 3 != 0 {
                    oracle.push(w_item(w, base + k));
                }
            }
        }
        let want: Vec<Item<2>> = oracles.iter().flatten().copied().collect();
        assert_eq!(ix.len(), want.len() as u64, "round {r}: acked live count");
        drop(ix); // crash

        // Gap-free sequences: replayable records, in file order, form
        // one contiguous run (merges may have pruned a prefix).
        let (_wal, records) = Wal::open::<2>(&dir).unwrap();
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(
                rec.seq,
                records[0].seq + i as u64,
                "round {r}: seq gap or reorder at record {i}"
            );
        }

        let ix = LiveIndex::<2>::open(&dir, opts).unwrap();
        let got = ix.snapshot().items().unwrap();
        assert_eq!(
            sorted_ids(&got),
            sorted_ids(&want),
            "round {r}: recovered set != acked set"
        );
        drop(ix);
    }
}

/// Async durability under real byte loss: everything past the last
/// explicit sync is chopped off the newest segment after the "crash"
/// (simulating a power cut the page cache never survived), and reopen
/// recovers exactly the synced prefix of the acknowledged sequence —
/// never a torn suffix, never anything unacknowledged.
#[test]
fn async_crash_recovers_synced_prefix_of_acked() {
    const SYNCED_OPS: u32 = 60;
    const ACKED_OPS: u32 = 100;
    for torn_extra in [0u64, 13] {
        let dir = tmpdir(&format!("async-prefix-{torn_extra}"));
        let opts = LiveOptions {
            buffer_cap: usize::MAX, // single segment: no rotation syncs
            background_merge: false,
            durability: Durability::Async {
                max_inflight_bytes: 1 << 20,
            },
            ..LiveOptions::default()
        };
        let newest = {
            let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
            for chunk in (0..SYNCED_OPS).collect::<Vec<_>>().chunks(10) {
                let batch: Vec<Item<2>> = chunk.iter().map(|k| item(*k)).collect();
                ix.insert_batch(&batch).unwrap();
            }
            ix.sync_wal().unwrap();
            assert_eq!(ix.stats().unwrap().synced_seq, SYNCED_OPS as u64);
            for chunk in (SYNCED_OPS..ACKED_OPS).collect::<Vec<_>>().chunks(10) {
                let batch: Vec<Item<2>> = chunk.iter().map(|k| item(*k)).collect();
                ix.insert_batch(&batch).unwrap();
            }
            let stats = ix.stats().unwrap();
            assert_eq!(stats.durable_seq, ACKED_OPS as u64, "all ops acked");
            newest_wal_segment(&dir)
        };
        // The synced prefix ends exactly at the recorded sync point:
        // single writer, so the file held seqs 1..=SYNCED_OPS then.
        // (Record the length *now*, after drop, from replay: recompute
        // instead from the wire format — header + ops * frame size.)
        let frame =
            (pr_live::wal::RECORD_HEADER_SIZE + pr_live::WalRecord::<2>::PAYLOAD_SIZE) as u64;
        let synced_len = pr_live::wal::SEGMENT_HEADER_SIZE + SYNCED_OPS as u64 * frame;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&newest)
            .unwrap();
        f.set_len(synced_len + torn_extra).unwrap();
        drop(f);

        let ix = LiveIndex::<2>::open(&dir, opts).unwrap();
        let got = ix.snapshot().items().unwrap();
        let want: Vec<Item<2>> = (0..SYNCED_OPS).map(item).collect();
        assert_eq!(
            sorted_ids(&got),
            sorted_ids(&want),
            "torn_extra={torn_extra}: must recover exactly the synced prefix"
        );
        assert_eq!(ix.stats().unwrap().durable_seq, SYNCED_OPS as u64);
    }
}

/// A clean close under async durability drains the in-flight window
/// (the syncer's goodbye), so a reopen recovers every acknowledged op.
#[test]
fn async_clean_close_loses_nothing() {
    let dir = tmpdir("async-clean-close");
    let opts = LiveOptions {
        buffer_cap: 128,
        background_merge: true,
        durability: Durability::Async {
            max_inflight_bytes: 4096, // small window: backpressure exercised
        },
        ..LiveOptions::default()
    };
    let n: u32 = 2000;
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
        for chunk in (0..n).collect::<Vec<_>>().chunks(32) {
            let batch: Vec<Item<2>> = chunk.iter().map(|k| item(*k)).collect();
            ix.insert_batch(&batch).unwrap();
        }
        ix.wait_idle().unwrap();
        assert_eq!(ix.len(), n as u64);
    }
    let ix = LiveIndex::<2>::open(&dir, opts).unwrap();
    assert_eq!(ix.len(), n as u64);
    let got = ix.snapshot().items().unwrap();
    assert_eq!(sorted_ids(&got), (0..n).collect::<Vec<_>>());
}

/// The paranoid read path (`recheck_reads`: every store page re-hashed
/// on every read) answers bit-identically to the default zero-copy
/// path, across merges, deletes, reopen, and both query kinds.
#[test]
fn recheck_read_mode_roundtrip() {
    let dir = tmpdir("recheck");
    let opts = LiveOptions {
        buffer_cap: 32,
        background_merge: false,
        recheck_reads: true,
        ..LiveOptions::default()
    };
    let mut oracle: Vec<Item<2>> = Vec::new();
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts).unwrap();
        for k in 0..300u32 {
            ix.insert(item(k)).unwrap();
            oracle.push(item(k));
        }
        for k in (0..300u32).step_by(4) {
            assert!(ix.delete(&item(k)).unwrap());
            oracle.retain(|i| i.id != k);
        }
        ix.flush().unwrap();
    }
    let ix = LiveIndex::<2>::open(&dir, opts).unwrap();
    let snap = ix.snapshot();
    assert_eq!(snap.len(), oracle.len() as u64);
    let q = Rect::xyxy(100.0, 100.0, 700.0, 700.0);
    let mut got = snap.window(&q).unwrap();
    let mut want: Vec<Item<2>> = oracle
        .iter()
        .filter(|i| i.rect.intersects(&q))
        .copied()
        .collect();
    got.sort_by_key(|i| i.id);
    want.sort_by_key(|i| i.id);
    assert_eq!(got, want, "paranoid window vs oracle");
    let (nn, _) = ix
        .nearest_neighbors(&pr_geom::Point::from([500.0, 500.0]), 12)
        .unwrap();
    assert_eq!(nn.len(), 12);
    assert!(nn.windows(2).all(|w| w[0].1 <= w[1].1));
}

fn newest_wal_segment(dir: &std::path::Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().to_string();
            (name.starts_with("wal-") && name.ends_with(".log")).then_some(p)
        })
        .collect();
    segs.sort();
    segs.pop().unwrap()
}
