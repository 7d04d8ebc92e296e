//! Crash-recovery proofs for the live index.
//!
//! The durability contract: a write acknowledged (its WAL fsync
//! returned) is never lost, and a write never acknowledged is never
//! resurrected — no matter where the process dies. These tests cover
//! every boundary of the protocol:
//!
//! * plain crash (drop without any shutdown) at **every op boundary**,
//! * a torn WAL tail (garbage and corrupted final records),
//! * a power cut **between the WAL segment fsync/rotation and the
//!   manifest flip** (fault mark `merge.commit`), and **between the flip
//!   and the WAL prune** (`merge.swap`) — the two windows of the
//!   merge-commit protocol,
//! * overflow merges that do **not** rotate the WAL (a segment holding
//!   records on both sides of the manifest's cut), the size rotation,
//!   and the checkpoint rotation `flush()` always performs,
//! * compaction's atomic-rename window (stale temp file).
//!
//! The power cuts arm `pr_em::fault`'s process-wide hook, which a
//! parallel test's merge would also hit at the same mark, so every test
//! here takes `fault::exclusive()` first.

use pr_em::fault::{self, FaultSchedule};
use pr_geom::{Item, Rect};
use pr_live::wal::{RECORD_HEADER_SIZE, SEGMENT_HEADER_SIZE};
use pr_live::{LiveError, LiveIndex, LiveOptions, WalRecord};
use pr_tree::TreeParams;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("pr-live-recovery-{}", std::process::id()))
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn opts(cap: usize) -> LiveOptions {
    LiveOptions {
        buffer_cap: cap,
        background_merge: false, // deterministic merge points
        ..LiveOptions::default()
    }
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

/// Applies operation `k` of the deterministic workload to both the
/// index and the oracle: mostly inserts, with every 5th op deleting the
/// item inserted 3 ops ago.
fn apply_op(ix: &LiveIndex<2>, oracle: &mut Vec<Item<2>>, k: u32) {
    if k % 5 == 4 && k >= 3 {
        let victim = item(k - 3);
        let was_live = oracle.iter().any(|i| i == &victim);
        let deleted = ix.delete(&victim).unwrap();
        assert_eq!(deleted, was_live, "op {k}: delete disagrees with oracle");
        if was_live {
            oracle.retain(|i| i != &victim);
        }
    } else {
        ix.insert(item(k)).unwrap();
        oracle.push(item(k));
    }
}

/// Runs `op` under a power cut at the first hit of fault mark `at` and
/// checks that it died there, with the injected EIO. The cut is lifted
/// when this returns.
fn dies_at<T: std::fmt::Debug>(at: &'static str, op: impl FnOnce() -> Result<T, LiveError>) {
    let _cut = fault::install(FaultSchedule::die_at(at, 0));
    match op() {
        Err(LiveError::Io(e)) if e.raw_os_error() == Some(5) && fault::injected_count() > 0 => {}
        other => panic!("expected the injected power cut at {at}, got {other:?}"),
    }
}

fn assert_state_matches(ix: &LiveIndex<2>, oracle: &[Item<2>], context: &str) {
    let snap = ix.snapshot();
    assert_eq!(snap.len(), oracle.len() as u64, "{context}: len");
    let mut got = snap.items().unwrap();
    let mut want = oracle.to_vec();
    got.sort_by_key(|i| i.id);
    want.sort_by_key(|i| i.id);
    assert_eq!(got, want, "{context}: items");
    // The query path agrees with the scan path.
    let q = Rect::xyxy(0.0, 0.0, 500.0, 500.0);
    let mut through_query = snap.window(&q).unwrap();
    let mut brute: Vec<Item<2>> = want
        .iter()
        .filter(|i| i.rect.intersects(&q))
        .copied()
        .collect();
    through_query.sort_by_key(|i| i.id);
    brute.sort_by_key(|i| i.id);
    assert_eq!(through_query, brute, "{context}: window");
}

/// Crash (plain drop — nothing is flushed on drop) after **every single
/// operation** of a workload that crosses many merge commits; reopen
/// must recover exactly the acknowledged prefix each time.
#[test]
fn crash_at_every_op_boundary_recovers_exact_prefix() {
    let _hook = fault::exclusive();
    let dir = tmpdir("every-boundary");
    let mut oracle: Vec<Item<2>> = Vec::new();
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts(8)).unwrap();
        drop(ix); // even "created then crashed immediately" must reopen
    }
    for k in 0..80u32 {
        let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
        assert_state_matches(&ix, &oracle, &format!("reopen before op {k}"));
        apply_op(&ix, &mut oracle, k);
        assert_state_matches(&ix, &oracle, &format!("after op {k}"));
        drop(ix); // crash
    }
    let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
    assert_state_matches(&ix, &oracle, "final reopen");
    assert!(ix.stats().unwrap().merges == 0 || !ix.is_empty());
}

/// Garbage appended to the newest WAL segment (a write torn before its
/// fsync, i.e. never acknowledged) is discarded; everything before it
/// survives.
#[test]
fn torn_wal_tail_is_truncated_to_acknowledged_prefix() {
    let _hook = fault::exclusive();
    let dir = tmpdir("torn-tail");
    let mut oracle = Vec::new();
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts(64)).unwrap();
        for k in 0..20 {
            apply_op(&ix, &mut oracle, k);
        }
    }
    // Simulate a torn append: random bytes after the last record.
    let newest = newest_wal_segment(&dir);
    let mut bytes = std::fs::read(&newest).unwrap();
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0xAB; 29]); // partial frame
    std::fs::write(&newest, &bytes).unwrap();

    let ix = LiveIndex::<2>::open(&dir, opts(64)).unwrap();
    assert_state_matches(&ix, &oracle, "after torn tail");
    drop(ix);
    // Recovery physically chopped the tail.
    assert!(std::fs::metadata(&newest).unwrap().len() <= clean_len as u64 + 53);
}

/// A bit-flip inside the **final** record (the op whose fsync the crash
/// interrupted — by simulation, never acknowledged) drops exactly that
/// op and nothing before it.
#[test]
fn corrupt_final_record_drops_only_the_unacked_op() {
    let _hook = fault::exclusive();
    let dir = tmpdir("corrupt-last");
    let mut oracle = Vec::new();
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts(64)).unwrap();
        for k in 0..10 {
            // inserts only, so "last op" is unambiguous
            ix.insert(item(k)).unwrap();
            oracle.push(item(k));
        }
    }
    let newest = newest_wal_segment(&dir);
    let len = std::fs::metadata(&newest).unwrap().len();
    // Flip a byte inside the last record's payload (record = 8-byte
    // frame + 45-byte payload in 2-D).
    flip_byte(&newest, len - 10);
    oracle.pop(); // the torn op was op 9

    let ix = LiveIndex::<2>::open(&dir, opts(64)).unwrap();
    assert_state_matches(&ix, &oracle, "after corrupt final record");
}

/// A power cut after the WAL rotation but **before the manifest
/// flip**: the merge never committed, the old manifest + the un-pruned
/// segments replay everything acknowledged.
#[test]
fn crash_between_wal_fsync_and_manifest_flip_loses_nothing() {
    let _hook = fault::exclusive();
    let dir = tmpdir("before-flip");
    let mut oracle = Vec::new();
    let stats_before;
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts(16)).unwrap();
        for k in 0..40 {
            apply_op(&ix, &mut oracle, k);
        }
        ix.flush().unwrap(); // a real committed merge first
        for k in 40..55 {
            apply_op(&ix, &mut oracle, k);
        }
        stats_before = ix.stats().unwrap();
        dies_at("merge.commit", || ix.flush());
        // The process "dies" here: plain drop, no further cleanup.
    }
    let ix = LiveIndex::<2>::open(&dir, opts(16)).unwrap();
    assert_state_matches(&ix, &oracle, "reopen after pre-flip crash");
    // The aborted merge really did not commit.
    assert_eq!(
        ix.stats().unwrap().store_epoch,
        stats_before.store_epoch,
        "manifest must not have advanced"
    );
}

/// A power cut **after the manifest flip but before the WAL prune
/// and in-memory swap**: the new manifest's cut filters the stale
/// segments; nothing is lost, nothing double-applies.
#[test]
fn crash_between_manifest_flip_and_wal_prune_loses_nothing() {
    let _hook = fault::exclusive();
    let dir = tmpdir("after-flip");
    let mut oracle = Vec::new();
    let stats_before;
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts(16)).unwrap();
        for k in 0..48 {
            apply_op(&ix, &mut oracle, k);
        }
        stats_before = ix.stats().unwrap();
        dies_at("merge.swap", || ix.flush());
    }
    // Stale segments from before the rotation still exist (prune never
    // ran) — replay must filter them by the manifest's cut, not
    // double-apply them.
    let ix = LiveIndex::<2>::open(&dir, opts(16)).unwrap();
    assert_state_matches(&ix, &oracle, "reopen after post-flip crash");
    assert!(
        ix.stats().unwrap().store_epoch > stats_before.store_epoch,
        "the flip did commit"
    );
}

/// The same two windows, hit while deletes are outstanding (tombstones
/// in the checkpoint path).
#[test]
fn injected_crashes_with_outstanding_tombstones() {
    let _hook = fault::exclusive();
    for mark in ["merge.commit", "merge.swap"] {
        let dir = tmpdir(&format!("tombstone-crash-{mark}"));
        let mut oracle = Vec::new();
        {
            let ix = LiveIndex::<2>::create(&dir, params(), opts(8)).unwrap();
            for k in 0..24 {
                ix.insert(item(k)).unwrap();
                oracle.push(item(k));
            }
            ix.flush().unwrap();
            // Deletes landing as tombstones (targets live in components).
            for k in [0u32, 5, 11] {
                assert!(ix.delete(&item(k)).unwrap());
                oracle.retain(|i| i.id != k);
            }
            for k in 24..30 {
                ix.insert(item(k)).unwrap();
                oracle.push(item(k));
            }
            dies_at(mark, || ix.flush());
        }
        let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
        assert_state_matches(&ix, &oracle, &format!("tombstones across {mark}"));
    }
}

/// Crash on both sides of a **partial** (incremental) merge commit —
/// the commit that reuses a surviving component's pages in place,
/// appends one new component, and flips the manifest. Either way the
/// reopened index recovers exactly the acked prefix, and the surviving
/// run's stable id **and byte offset** are unchanged: recovery reads
/// the reused pages where they always were, never a rewritten copy.
#[test]
fn crash_at_partial_merge_boundaries_preserves_reused_runs() {
    let _hook = fault::exclusive();
    for mark in ["merge.commit", "merge.swap"] {
        let dir = tmpdir(&format!("partial-merge-{mark}"));
        let big: Vec<Item<2>> = (0..120).map(item).collect();
        let survivor_run;
        let epoch_before;
        {
            let ix = LiveIndex::<2>::create(&dir, params(), opts(8)).unwrap();
            ix.insert_batch(&big).unwrap();
            ix.compact().unwrap(); // one big committed component, slot 4
            let stats = ix.stats().unwrap();
            assert_eq!(stats.store_runs.len(), 1, "setup: a single run");
            survivor_run = stats.store_runs[0];
            epoch_before = stats.store_epoch;
            // A small second batch: its merge targets slot 0, so the big
            // component survives and its run is committed by reference —
            // the partial-merge shape under test.
            let small: Vec<Item<2>> = (1000..1006).map(item).collect();
            ix.insert_batch(&small).unwrap();
            dies_at(mark, || ix.flush());
            // Process "dies": plain drop.
        }
        let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
        let mut oracle: Vec<Item<2>> = big.clone();
        oracle.extend((1000..1006).map(item));
        assert_state_matches(&ix, &oracle, &format!("partial merge {mark}"));
        let stats = ix.stats().unwrap();
        let reopened: Vec<_> = stats
            .store_runs
            .iter()
            .filter(|r| r.id == survivor_run.id)
            .collect();
        assert_eq!(
            reopened.len(),
            1,
            "{mark}: surviving component id must still be live"
        );
        assert_eq!(
            (reopened[0].data_offset, reopened[0].num_pages),
            (survivor_run.data_offset, survivor_run.num_pages),
            "{mark}: reused run moved — pages were rewritten"
        );
        if mark == "merge.commit" {
            assert_eq!(stats.store_epoch, epoch_before, "flip must not have landed");
            assert_eq!(stats.store_runs.len(), 1, "no new run before the flip");
        } else {
            assert!(stats.store_epoch > epoch_before, "the flip did commit");
            assert_eq!(
                stats.store_runs.len(),
                2,
                "partial commit: reused run + one new run"
            );
        }
    }
}

/// Incremental commits leave superseded runs behind as garbage;
/// `compact_if_garbage` reclaims them only past its threshold, and a
/// reopened index never reads a reclaimed page run — every live run
/// sits inside the fresh file, under fresh offsets, and the full
/// scan/query oracle still agrees.
#[test]
fn reopened_index_never_reads_reclaimed_runs() {
    let _hook = fault::exclusive();
    let dir = tmpdir("reclaimed-runs");
    let mut oracle = Vec::new();
    let ix = LiveIndex::<2>::create(&dir, params(), opts(16)).unwrap();
    // Many small merges: low slots are superseded over and over, so the
    // file accrues garbage while high slots are committed by reference.
    for k in 0..160 {
        apply_op(&ix, &mut oracle, k);
    }
    ix.flush().unwrap();
    let before = ix.stats().unwrap();
    assert!(
        before.store_pages_reused > 0,
        "steady-state merges must reuse runs in place"
    );
    assert!(
        before.store_garbage_bytes > 0,
        "superseded runs must accrue as garbage"
    );
    // Threshold not reached (garbage can never exceed 100% of the
    // file): no rewrite, identical runs.
    assert!(!ix.compact_if_garbage(100).unwrap());
    assert_eq!(ix.stats().unwrap().store_runs, before.store_runs);
    // Threshold reached: full rewrite into a fresh file. What remains
    // as "garbage" is block-alignment slack, not reclaimed runs.
    assert!(ix.compact_if_garbage(0).unwrap());
    let after = ix.stats().unwrap();
    assert!(
        after.store_garbage_bytes < before.store_garbage_bytes,
        "compaction reclaims garbage ({} -> {})",
        before.store_garbage_bytes,
        after.store_garbage_bytes
    );
    assert!(after.store_file_bytes < before.store_file_bytes);
    for run in &after.store_runs {
        assert!(
            run.data_offset < after.store_file_bytes,
            "live run points outside the fresh file"
        );
    }
    assert_state_matches(&ix, &oracle, "after threshold compaction");
    drop(ix);
    let ix = LiveIndex::<2>::open(&dir, opts(16)).unwrap();
    assert_state_matches(&ix, &oracle, "reopen after reclamation");
    // Nothing below the threshold to reclaim on the fresh file.
    assert!(!ix.compact_if_garbage(50).unwrap());
}

/// Compaction rewrites the store into a fresh file via atomic rename;
/// data survives, superseded snapshot space is reclaimed, and a stale
/// temp file from a crashed compaction is ignored at open.
#[test]
fn compaction_reclaims_space_and_survives_reopen() {
    let _hook = fault::exclusive();
    let dir = tmpdir("compact");
    let mut oracle = Vec::new();
    let ix = LiveIndex::<2>::create(&dir, params(), opts(16)).unwrap();
    for k in 0..200 {
        apply_op(&ix, &mut oracle, k);
    }
    ix.flush().unwrap();
    let before = ix.stats().unwrap();
    assert!(before.merges >= 1);
    ix.compact().unwrap();
    let after = ix.stats().unwrap();
    assert_eq!(after.live, oracle.len() as u64);
    assert_eq!(after.components.len(), 1, "compaction leaves one component");
    assert_eq!(after.tombstones, 0, "compaction absorbs all tombstones");
    assert!(
        after.store_file_bytes < before.store_file_bytes,
        "fresh file ({}) should be smaller than the grown one ({})",
        after.store_file_bytes,
        before.store_file_bytes
    );
    assert_state_matches(&ix, &oracle, "after compact");
    drop(ix);

    // A dead compaction's temp file must not confuse open.
    std::fs::write(dir.join("index.prt.tmp"), b"half-written junk").unwrap();
    let ix = LiveIndex::<2>::open(&dir, opts(16)).unwrap();
    assert_state_matches(&ix, &oracle, "reopen after compact + stale tmp");
    assert!(!dir.join("index.prt.tmp").exists());
}

/// Reopening with a different buffer cap (a tuning change across
/// restarts) keeps all data and keeps merging correctly.
#[test]
fn reopen_with_different_buffer_cap() {
    let _hook = fault::exclusive();
    let dir = tmpdir("cap-change");
    let mut oracle = Vec::new();
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts(32)).unwrap();
        for k in 0..50 {
            apply_op(&ix, &mut oracle, k);
        }
    }
    let ix = LiveIndex::<2>::open(&dir, opts(4)).unwrap();
    assert_state_matches(&ix, &oracle, "reopen with cap 4");
    for k in 50..70 {
        apply_op(&ix, &mut oracle, k);
    }
    assert_state_matches(&ix, &oracle, "after more ops under cap 4");
}

/// `delete_batch` (one fsync per batch) matches serial deletes exactly:
/// duplicates within a batch, memtable + component victims, misses —
/// and the whole batch survives a crash-reopen.
#[test]
fn delete_batch_matches_serial_semantics_and_survives() {
    let _hook = fault::exclusive();
    let dir = tmpdir("delete-batch");
    let mut oracle = Vec::new();
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts(8)).unwrap();
        for k in 0..30 {
            ix.insert(item(k)).unwrap();
            oracle.push(item(k));
        }
        // Victims: component residents, memtable residents, one
        // duplicate, and two misses (never-inserted + wrong rect).
        let batch = vec![
            item(0),
            item(5),
            item(5), // duplicate: only the first copy is live
            item(28),
            item(29),
            item(500),                                    // never existed
            Item::new(Rect::xyxy(0.0, 0.0, 9.0, 9.0), 1), // right id, wrong rect
        ];
        let deleted = ix.delete_batch(&batch).unwrap();
        assert_eq!(deleted, 4, "exactly the live victims");
        for id in [0u32, 5, 28, 29] {
            oracle.retain(|i| i.id != id);
        }
        assert_state_matches(&ix, &oracle, "after delete_batch");
        // A second identical batch deletes nothing.
        assert_eq!(ix.delete_batch(&batch).unwrap(), 0);
    }
    let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
    assert_state_matches(&ix, &oracle, "delete_batch after crash-reopen");
}

/// The one-pass decide (one counted map per batch) returns what serial
/// deletes return on the cases it folds together: memtable residents,
/// in-batch duplicates, a reborn identity (a dead stored copy and a
/// live buffered one), an identity with a live copy on each side, and
/// misses.
#[test]
fn delete_batch_decides_like_serial_deletes() {
    let _hook = fault::exclusive();
    let history = |name: &str| {
        let ix = LiveIndex::<2>::create(&tmpdir(name), params(), opts(8)).unwrap();
        for k in 0..24 {
            ix.insert(item(k)).unwrap(); // three merges: all stored
        }
        assert!(ix.delete(&item(3)).unwrap());
        ix.insert(item(3)).unwrap(); // reborn: dead stored, live buffered
        ix.insert(item(7)).unwrap(); // live stored and live buffered
        for k in 24..28 {
            ix.insert(item(k)).unwrap(); // memtable residents
        }
        assert_eq!(ix.stats().unwrap().memtable, 6);
        ix
    };
    let batch = [
        item(3),
        item(3),
        item(7),
        item(25),
        item(7),
        item(25),
        item(7),
        item(26),
        item(5),
        item(5),
        item(500),
    ];
    let serial = history("decide-serial");
    let one_by_one: u64 = batch.iter().map(|v| serial.delete(v).unwrap() as u64).sum();
    let batched = history("decide-batch");
    assert_eq!(batched.delete_batch(&batch).unwrap(), one_by_one);
    assert_eq!(one_by_one, 6, "3 once, 7 twice, 25, 26 and 5 once each");
    let (a, b) = (serial.stats().unwrap(), batched.stats().unwrap());
    assert_eq!(
        (a.live, a.memtable, a.tombstones),
        (b.live, b.memtable, b.tombstones)
    );
    let mut want = serial.snapshot().items().unwrap();
    let mut got = batched.snapshot().items().unwrap();
    want.sort_by_key(|i| i.id);
    got.sort_by_key(|i| i.id);
    assert_eq!(got, want);
}

/// Membership filters live only in memory. After a restart with
/// deletes in the WAL tail, replay rebuilds them through the same lazy
/// path, and the replayed state and the first `delete_batch` answer
/// exactly as an index that never restarted.
#[test]
fn filters_rebuilt_after_reopen_answer_as_before() {
    let _hook = fault::exclusive();
    let history = |ix: &LiveIndex<2>| {
        for k in 0..64 {
            ix.insert(item(k)).unwrap(); // eight merges: memtable empty
        }
        assert_eq!(ix.stats().unwrap().filter_bytes, 0, "insert-only");
        let tail: Vec<Item<2>> = (0..20).step_by(2).map(item).collect();
        assert_eq!(ix.delete_batch(&tail).unwrap(), 10);
        for k in 64..67 {
            ix.insert(item(k)).unwrap();
        }
        assert!(ix.delete(&item(65)).unwrap());
        let s = ix.stats().unwrap();
        assert!(s.merged_seq < s.durable_seq, "deletes in the WAL tail");
        assert!(s.filter_bytes > 0);
    };
    let steady = LiveIndex::<2>::create(&tmpdir("filters-steady"), params(), opts(8)).unwrap();
    history(&steady);
    let dir = tmpdir("filters-restart");
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts(8)).unwrap();
        history(&ix);
    }
    let reopened = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
    assert!(reopened.stats().unwrap().filter_bytes > 0, "replay probed");
    let items = |ix: &LiveIndex<2>| {
        let mut v = ix.snapshot().items().unwrap();
        v.sort_by_key(|i| i.id);
        v
    };
    assert_eq!(items(&reopened), items(&steady), "replayed state");
    let batch: Vec<Item<2>> = [0, 1, 2, 3, 40, 40, 64, 65, 66, 900]
        .into_iter()
        .map(item)
        .collect();
    let want = steady.delete_batch(&batch).unwrap();
    assert_eq!(reopened.delete_batch(&batch).unwrap(), want);
    assert_eq!(want, 5, "1, 3, 40, 64 and 66");
    assert_eq!(items(&reopened), items(&steady), "after the first batch");
    assert_eq!(
        reopened.stats().unwrap().tombstones,
        steady.stats().unwrap().tombstones
    );
}

/// `flush()` after tombstone-only deletes (empty memtable) still
/// commits a checkpoint: the manifest catches up to the acknowledged
/// sequence and the WAL becomes prunable.
#[test]
fn flush_checkpoints_tombstone_only_deletes() {
    let _hook = fault::exclusive();
    let dir = tmpdir("tombstone-checkpoint");
    let ix = LiveIndex::<2>::create(&dir, params(), opts(8)).unwrap();
    for k in 0..24 {
        ix.insert(item(k)).unwrap();
    }
    ix.flush().unwrap();
    // All items now live in components; these deletes are pure
    // tombstones and leave the memtable empty.
    for k in [1u32, 2, 3] {
        assert!(ix.delete(&item(k)).unwrap());
    }
    let before = ix.stats().unwrap();
    assert!(
        before.merged_seq < before.durable_seq,
        "deletes outrun manifest"
    );
    ix.flush().unwrap();
    let after = ix.stats().unwrap();
    assert_eq!(
        after.merged_seq, after.durable_seq,
        "flush must checkpoint tombstone-only deletes"
    );
    drop(ix);
    // Reopen replays nothing (manifest covers everything) and agrees.
    let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
    assert_eq!(ix.len(), 21);
}

/// Inserts `ids` one acked op at a time (cap-sized overflow merges fire
/// inline along the way).
fn insert_ids(ix: &LiveIndex<2>, oracle: &mut Vec<Item<2>>, ids: std::ops::Range<u32>) {
    for k in ids {
        ix.insert(item(k)).unwrap();
        oracle.push(item(k));
    }
}

/// Bytes of a segment's header and of one framed 2-D record.
const SEG_HEADER: usize = SEGMENT_HEADER_SIZE as usize;
const RECORD: usize = RECORD_HEADER_SIZE + WalRecord::<2>::PAYLOAD_SIZE;

/// Sequence numbers of every record in one segment file, in file order
/// (the payload behind each frame header leads with the seq).
fn segment_seqs(path: &std::path::Path) -> Vec<u64> {
    let bytes = std::fs::read(path).unwrap();
    bytes[SEG_HEADER..]
        .chunks_exact(RECORD)
        .map(|rec| {
            let seq = &rec[RECORD_HEADER_SIZE..RECORD_HEADER_SIZE + 8];
            u64::from_le_bytes(seq.try_into().unwrap())
        })
        .collect()
}

/// (a) Several overflow merges with no rotation in between: the one
/// segment keeps every record, those the manifest's cut covers and the
/// tail past it alike. A crash there recovers exactly the acked set,
/// replaying only the tail.
#[test]
fn crash_after_unrotated_overflow_merges_replays_only_the_tail() {
    let _hook = fault::exclusive();
    let dir = tmpdir("mixed-segment");
    let mut oracle = Vec::new();
    let stats;
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts(8)).unwrap();
        insert_ids(&ix, &mut oracle, 0..29); // merges at 8, 16, 24 + 5 more
        assert!(ix.delete(&item(3)).unwrap()); // a tombstone past the cut
        oracle.retain(|i| i.id != 3);
        stats = ix.stats().unwrap();
        assert_eq!(stats.merges, 3);
        assert_eq!(stats.wal_segments, 1, "overflow merges must not rotate");
        assert_eq!((stats.merged_seq, stats.durable_seq), (24, 30));
    } // crash
    let seqs = segment_seqs(&newest_wal_segment(&dir));
    assert_eq!(
        seqs,
        (1..=30).collect::<Vec<u64>>(),
        "one segment, records on both sides of the cut"
    );
    let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
    assert_state_matches(&ix, &oracle, "reopen over a mixed segment");
    let after = ix.stats().unwrap();
    assert_eq!(after.store_epoch, stats.store_epoch);
    assert_eq!((after.merged_seq, after.durable_seq), (24, 30));
    // The memtable holds exactly the five inserts past the cut, the
    // tombstone set exactly the one delete: records at or below the cut
    // were skipped, not applied a second time.
    assert_eq!((after.memtable, after.tombstones), (5, 1));
    // Appends continue in the same segment, and the next merge's cut
    // still lands.
    insert_ids(&ix, &mut oracle, 100..110);
    drop(ix);
    let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
    assert_state_matches(&ix, &oracle, "second reopen");
}

/// (b) Damage at the end of such a mixed segment is still a torn tail:
/// garbage after the last record is chopped, and a flipped byte in the
/// final record drops exactly that (by simulation never-acked) op —
/// nothing the cut covers, nothing before it in the tail.
#[test]
fn torn_tail_in_a_mixed_segment_drops_only_the_unacked_op() {
    let _hook = fault::exclusive();
    for flip in [false, true] {
        let dir = tmpdir(&format!("mixed-torn-{flip}"));
        let mut oracle = Vec::new();
        {
            let ix = LiveIndex::<2>::create(&dir, params(), opts(8)).unwrap();
            insert_ids(&ix, &mut oracle, 0..21); // merges at 8 and 16
            let stats = ix.stats().unwrap();
            assert_eq!((stats.wal_segments, stats.merged_seq), (1, 16));
        }
        let newest = newest_wal_segment(&dir);
        if flip {
            let len = std::fs::metadata(&newest).unwrap().len();
            flip_byte(&newest, len - 10);
            oracle.pop(); // op 21 was the torn one
        } else {
            let mut bytes = std::fs::read(&newest).unwrap();
            bytes.extend_from_slice(&[0xAB; 29]); // partial frame
            std::fs::write(&newest, &bytes).unwrap();
        }
        let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
        assert_state_matches(&ix, &oracle, &format!("mixed segment, flip={flip}"));
        assert_eq!(ix.stats().unwrap().merged_seq, 16);
    }
}

/// (c) Crossing the size threshold: the overflow merge whose cut finds
/// the segment full rotates, leaving the older segment complete; a
/// crash between that rotation and the commit's flip loses nothing (old
/// manifest + both segments), and once a rotating merge commits, the
/// older segment is pruned.
#[test]
fn size_rotation_leaves_a_complete_segment_and_survives_a_pre_flip_crash() {
    let _hook = fault::exclusive();
    let dir = tmpdir("size-rotation");
    let mut oracle = Vec::new();
    let epoch_before;
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts(8)).unwrap();
        // The merges at ops 8 and 16 find the segment short of 20
        // records; the one at op 24 is the first to find it full.
        ix.set_wal_rotate_bytes((SEG_HEADER + 20 * RECORD) as u64);
        insert_ids(&ix, &mut oracle, 0..23);
        let stats = ix.stats().unwrap();
        assert_eq!((stats.merges, stats.wal_segments), (2, 1));
        epoch_before = stats.store_epoch;
        dies_at("merge.commit", || ix.insert(item(23)));
        // Op 24 was acknowledged (its WAL group landed) before the merge
        // it triggered died.
        oracle.push(item(23));
    }
    let mut segs = wal_segments(&dir);
    assert_eq!(segs.len(), 2, "the cut rotated before the crash");
    let newest = segs.pop().unwrap();
    assert_eq!(
        segment_seqs(&segs[0]),
        (1..=24).collect::<Vec<u64>>(),
        "the older segment is complete"
    );
    assert_eq!(
        std::fs::metadata(&newest).unwrap().len(),
        SEGMENT_HEADER_SIZE,
        "header only"
    );

    let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
    assert_state_matches(&ix, &oracle, "reopen after rotation, before flip");
    assert_eq!(ix.stats().unwrap().store_epoch, epoch_before);
    // The retried merge commits without rotating again (the fresh
    // segment is nowhere near full), so the stale segment stays until
    // the next rotation — here a checkpoint — prunes it.
    insert_ids(&ix, &mut oracle, 24..32);
    assert_eq!(ix.stats().unwrap().wal_segments, 2);
    ix.flush().unwrap();
    assert_eq!(ix.stats().unwrap().wal_segments, 1);
    drop(ix);
    let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
    assert_state_matches(&ix, &oracle, "reopen after the prune");
}

/// (d) `flush()` is a checkpoint: however many unrotated overflow
/// merges came before it, it rotates and prunes, leaving exactly one,
/// header-only segment and a manifest that covers every acked op.
#[test]
fn flush_after_unrotated_merges_leaves_one_header_only_segment() {
    let _hook = fault::exclusive();
    let dir = tmpdir("flush-checkpoint");
    let mut oracle = Vec::new();
    let ix = LiveIndex::<2>::create(&dir, params(), opts(8)).unwrap();
    insert_ids(&ix, &mut oracle, 0..29);
    let before = ix.stats().unwrap();
    assert_eq!(before.wal_segments, 1);
    assert_eq!(
        before.wal_bytes,
        (SEG_HEADER + 29 * RECORD) as u64,
        "nothing pruned so far"
    );
    ix.flush().unwrap();
    let after = ix.stats().unwrap();
    assert_eq!(after.wal_segments, 1);
    assert_eq!(
        after.wal_bytes, SEGMENT_HEADER_SIZE,
        "header-only segment after flush"
    );
    assert_eq!(after.merged_seq, after.durable_seq);
    assert_eq!(wal_segments(&dir).len(), 1);
    drop(ix);
    let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
    assert_state_matches(&ix, &oracle, "reopen after checkpoint");
    assert_eq!(ix.stats().unwrap().memtable, 0, "nothing left to replay");
}

/// The directory lock refuses a second concurrent open — even a
/// "read-only" open truncates torn WAL tails, so sharing would corrupt.
#[test]
fn concurrent_open_is_refused_while_locked() {
    let _hook = fault::exclusive();
    let dir = tmpdir("locked");
    let ix = LiveIndex::<2>::create(&dir, params(), opts(8)).unwrap();
    ix.insert(item(1)).unwrap();
    match LiveIndex::<2>::open(&dir, opts(8)) {
        Err(LiveError::Locked(d)) => assert_eq!(d, dir),
        other => panic!("expected Locked, got {:?}", other.map(|_| ())),
    }
    drop(ix);
    // Released on drop (or process death): reopen succeeds.
    let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
    assert_eq!(ix.len(), 1);
}

/// `create` over an existing index must destroy it whole — in
/// particular stale rotated WAL segments, which would otherwise be
/// replayed into the new index on a later reopen.
#[test]
fn create_over_existing_index_leaves_no_stale_wal() {
    let _hook = fault::exclusive();
    let dir = tmpdir("recreate");
    {
        let ix = LiveIndex::<2>::create(&dir, params(), opts(8)).unwrap();
        for k in 0..30 {
            ix.insert(item(k)).unwrap();
        }
        ix.flush().unwrap(); // rotates: segment index >= 2 now current
        for k in 30..40 {
            ix.insert(item(k)).unwrap();
        }
    }
    let ix = LiveIndex::<2>::create(&dir, params(), opts(8)).unwrap();
    assert_eq!(ix.len(), 0, "create must start empty");
    ix.insert(item(1000)).unwrap();
    drop(ix);
    let ix = LiveIndex::<2>::open(&dir, opts(8)).unwrap();
    assert_eq!(ix.len(), 1, "old items resurrected from stale WAL");
    assert_eq!(ix.snapshot().items().unwrap(), vec![item(1000)]);
}

/// `Durability::Async` at **every op boundary**: ops `0..k` are acked
/// and explicitly synced, then a few more ops are acked into the
/// in-flight window; the process crashes and the unsynced bytes never
/// reach disk (modelled by truncating the newest segment back to the
/// synced length — an in-process drop drains the window, a power cut
/// would not). Reopen must recover **exactly the synced prefix of the
/// acknowledged sequence**: never a torn suffix, never op `k` or later.
#[test]
fn async_crash_at_every_boundary_recovers_synced_prefix() {
    let _hook = fault::exclusive();
    const TAIL: u32 = 3;
    let aopts = |cap| LiveOptions {
        durability: pr_live::Durability::Async {
            max_inflight_bytes: 1 << 20,
        },
        ..opts(cap)
    };
    for k in 0..40u32 {
        let dir = tmpdir(&format!("async-boundary-{k}"));
        let mut oracle: Vec<Item<2>> = Vec::new();
        let ix = LiveIndex::<2>::create(&dir, params(), aopts(1000)).unwrap();
        for j in 0..k {
            apply_op(&ix, &mut oracle, j);
        }
        ix.sync_wal().unwrap();
        // buffer_cap 1000 → no merges, single segment: its length right
        // now is exactly the synced prefix boundary.
        let newest = newest_wal_segment(&dir);
        let synced_len = std::fs::metadata(&newest).unwrap().len();
        let mut tail_oracle = oracle.clone();
        for j in k..k + TAIL {
            apply_op(&ix, &mut tail_oracle, j); // acked, not synced
        }
        drop(ix); // crash
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&newest)
            .unwrap();
        f.set_len(synced_len).unwrap();
        drop(f);
        let ix = LiveIndex::<2>::open(&dir, aopts(1000)).unwrap();
        assert_state_matches(&ix, &oracle, &format!("synced prefix at boundary {k}"));
        assert_eq!(ix.stats().unwrap().durable_seq, k as u64);
    }
}

fn newest_wal_segment(dir: &std::path::Path) -> PathBuf {
    wal_segments(dir).pop().expect("at least one segment")
}

/// Every WAL segment file in `dir`, oldest first.
fn wal_segments(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().to_string();
            (name.starts_with("wal-") && name.ends_with(".log")).then_some(p)
        })
        .collect();
    segs.sort();
    segs
}

fn flip_byte(path: &std::path::Path, offset: u64) {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    b[0] ^= 0x55;
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&b).unwrap();
}
