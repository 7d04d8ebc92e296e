//! Fail-any-I/O torture sweeps (the tentpole acceptance tests).
//!
//! Each test arms the process-wide fault hook via the `pr_live::torture`
//! harness or directly, so everything here serialises on
//! `pr_em::fault::exclusive()` — either taken by the harness itself or
//! taken explicitly at the top of the test.

use pr_em::fault::{self, Errno, FaultKind, FaultSchedule, OpClass};
use pr_geom::{Item, Rect};
use pr_live::{Durability, LiveError, LiveIndex, LiveOptions, TortureConfig};
use pr_tree::TreeParams;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("pr-live-torture-{}", std::process::id()))
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn params() -> TreeParams {
    TreeParams::with_cap::<2>(8)
}

fn item(i: u32) -> Item<2> {
    let x = f64::from((i * 37) % 1000);
    let y = f64::from((i * 61) % 1000);
    Item::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), i)
}

fn no_merge_opts(durability: Durability) -> LiveOptions {
    LiveOptions {
        buffer_cap: 10_000, // keep merges out of the picture
        background_merge: false,
        durability,
        ..LiveOptions::default()
    }
}

/// The headline sweep: fail every single I/O op the fsync-mode trace
/// performs, one run per op, and require the acked-prefix invariant
/// after every reopen.
#[test]
fn sweep_every_op_fsync() {
    let dir = tmpdir("sweep-fsync");
    let cfg = TortureConfig::small(&dir, Durability::Fsync);
    let report = pr_live::run_torture(&cfg).expect("torture harness");
    assert!(report.total_ops > 30, "trace too small: {report:?}");
    assert_eq!(report.runs, report.total_ops);
    // Fsync mode is deterministic: every programmed fault must fire
    // (EINTR runs inject too — the retry consumes the fault).
    assert_eq!(report.silent, 0, "fsync sweep had silent runs: {report:?}");
    assert!(report.injected == report.runs, "{report:?}");
}

/// The same sweep with the WAL rotation size lowered into the trace's
/// reach. At the production size no overflow merge of this trace
/// rotates (every cut leaves a segment holding records on both sides of
/// it — what the sweep above covers); at 2 KiB the first merge still
/// does not, the second rotates and prunes, and the third cuts into the
/// fresh segment — so segment creation, its two fsyncs and the prune
/// are failed op by op too.
#[test]
fn sweep_every_op_fsync_across_rotations() {
    let dir = tmpdir("sweep-fsync-rotating");
    let plain = TortureConfig {
        stride: u64::MAX, // the counting pass and one run: just the op total
        ..TortureConfig::small(&dir, Durability::Fsync)
    };
    let plain_ops = pr_live::run_torture(&plain)
        .expect("torture harness")
        .total_ops;
    let cfg = TortureConfig {
        wal_rotate_bytes: Some(2048),
        ..TortureConfig::small(&dir, Durability::Fsync)
    };
    let report = pr_live::run_torture(&cfg).expect("torture harness");
    assert!(
        report.total_ops > plain_ops,
        "no rotation inside the sweep: {} ops with, {plain_ops} without",
        report.total_ops
    );
    assert_eq!(report.runs, report.total_ops);
    assert_eq!(report.silent, 0, "fsync sweep had silent runs: {report:?}");
}

/// Same sweep under async durability. Syncer-thread scheduling makes op
/// indices nondeterministic, so some runs may be silent — those still
/// verify the clean-run invariant; fired runs verify the fault path.
#[test]
fn sweep_every_op_async() {
    let dir = tmpdir("sweep-async");
    let cfg = TortureConfig::small(
        &dir,
        Durability::Async {
            max_inflight_bytes: 1 << 16,
        },
    );
    let report = pr_live::run_torture(&cfg).expect("torture harness");
    assert!(report.total_ops > 20, "trace too small: {report:?}");
    assert_eq!(report.runs, report.total_ops);
    assert!(
        report.injected > report.runs / 2,
        "async sweep mostly silent — op counting is off: {report:?}"
    );
}

/// Two concurrent writers under the sweep: acked ⊆ recovered ⊆ issued,
/// no duplicates, at every sampled failure point.
#[test]
fn sweep_two_writers() {
    let dir = tmpdir("sweep-multi");
    let cfg = TortureConfig {
        writers: 2,
        stride: 3,
        ..TortureConfig::small(&dir, Durability::Fsync)
    };
    let report = pr_live::run_torture_multi(&cfg).expect("torture harness");
    assert!(report.total_ops > 50, "trace too small: {report:?}");
    assert!(report.runs >= report.total_ops / 3, "{report:?}");
}

/// ENOSPC-then-free must not need a reopen: the failed batch rolls
/// back, the queue enters degraded mode, and the next clean group
/// unpoisons it (satellite 1's regression test).
fn enospc_then_free(durability: Durability, name: &str) {
    let _hook = fault::exclusive();
    let dir = tmpdir(name);
    let ix = LiveIndex::<2>::create(&dir, params(), no_merge_opts(durability)).expect("create");

    let clean: Vec<Item<2>> = (0..20).map(item).collect();
    ix.insert_batch(&clean).expect("clean insert");

    let unpoisons_before = pr_live::obs::metrics().wal_unpoisons.get();

    // Disk fills: every write fails until the guard drops.
    let guard = fault::install(FaultSchedule::sticky(
        7,
        0,
        Some(OpClass::Write),
        FaultKind::Errno(Errno::Enospc),
    ));
    let doomed: Vec<Item<2>> = (100..120).map(item).collect();
    let err = ix.insert_batch(&doomed).expect_err("full disk must fail");
    assert!(
        matches!(
            err,
            LiveError::GroupFailed {
                transient: true,
                ..
            }
        ),
        "ENOSPC must classify as a transient group failure, got: {err}"
    );
    let stats = ix.stats().expect("stats");
    assert!(stats.wal_degraded, "queue should report degraded mode");

    // Space freed: ingest resumes on the same handle, no reopen.
    drop(guard);
    let resumed: Vec<Item<2>> = (200..220).map(item).collect();
    ix.insert_batch(&resumed)
        .expect("ingest must resume after ENOSPC clears");
    let stats = ix.stats().expect("stats");
    assert!(!stats.wal_degraded, "clean group must lift degraded mode");
    assert!(
        pr_live::obs::metrics().wal_unpoisons.get() > unpoisons_before,
        "unpoison recovery must be observable"
    );

    // The rolled-back batch must not resurrect on reopen.
    drop(ix);
    let ix = LiveIndex::<2>::open(&dir, no_merge_opts(Durability::Fsync)).expect("reopen");
    let mut ids: Vec<u32> = ix
        .snapshot()
        .items()
        .expect("scan")
        .iter()
        .map(|it| it.id)
        .collect();
    ids.sort_unstable();
    let want: Vec<u32> = (0..20).chain(200..220).collect();
    assert_eq!(ids, want, "recovered exactly the acked batches");
}

#[test]
fn enospc_then_free_fsync() {
    enospc_then_free(Durability::Fsync, "enospc-fsync");
}

#[test]
fn enospc_then_free_async() {
    enospc_then_free(
        Durability::Async {
            max_inflight_bytes: 1 << 16,
        },
        "enospc-async",
    );
}

/// Fail **every single I/O op of a partial merge commit**, one run per
/// op: the commit that reuses a big surviving component's pages in
/// place, appends one small new component, and flips the manifest.
/// Whatever op dies — WAL rotation fsync, the run's one positioned
/// write (pages, checksum table, manifest and footer together), the
/// body fsync, the superblock flip, the prune — the reopened
/// index must recover exactly the acked set, and the surviving run must
/// still be referenced at its original byte offset (its pages were
/// never rewritten, and recovery never reads a reclaimed run).
fn partial_merge_fault_sweep(durability: Durability, name: &str) {
    let _hook = fault::exclusive();
    let opts = || LiveOptions {
        buffer_cap: 8,
        background_merge: false,
        durability,
        ..LiveOptions::default()
    };
    for at_op in 0u64.. {
        let dir = tmpdir(&format!("{name}-{at_op}"));
        let survivor_run;
        {
            // Build outside the schedule: a big compacted component plus
            // a small synced memtable tail — everything below is acked
            // *and synced* before the first fault can fire.
            let ix = LiveIndex::<2>::create(&dir, params(), opts()).expect("create");
            let big: Vec<Item<2>> = (0..120).map(item).collect();
            ix.insert_batch(&big).expect("big batch");
            ix.compact().expect("compact");
            survivor_run = ix.stats().expect("stats").store_runs[0];
            let small: Vec<Item<2>> = (1000..1006).map(item).collect();
            ix.insert_batch(&small).expect("small batch");
            ix.sync_wal().expect("sync");

            let guard = fault::install(FaultSchedule::fail_op(
                0x9e_17 + at_op,
                at_op,
                None,
                FaultKind::Errno(Errno::Eio),
            ));
            let res = ix.flush(); // the partial merge under fire
            let fired = fault::injected_count() > 0;
            drop(guard);
            if !fired {
                // The schedule outlived the merge's op trace: the merge
                // ran clean and the sweep is complete (every op below
                // `at_op` was faulted in an earlier run).
                res.expect("un-faulted merge must succeed");
                assert!(at_op > 6, "trace too small: {at_op} faulted ops");
                break;
            }
            drop(ix); // crash: no shutdown, poisoned or not
        }
        let ix = LiveIndex::<2>::open(&dir, opts()).expect("reopen");
        let mut ids: Vec<u32> = ix
            .snapshot()
            .items()
            .expect("scan")
            .iter()
            .map(|it| it.id)
            .collect();
        ids.sort_unstable();
        let want: Vec<u32> = (0..120).chain(1000..1006).collect();
        assert_eq!(ids, want, "op {at_op}: acked set after faulted merge");
        let stats = ix.stats().expect("stats");
        let kept: Vec<_> = stats
            .store_runs
            .iter()
            .filter(|r| r.id == survivor_run.id)
            .collect();
        assert_eq!(kept.len(), 1, "op {at_op}: surviving run dropped");
        assert_eq!(
            (kept[0].data_offset, kept[0].num_pages),
            (survivor_run.data_offset, survivor_run.num_pages),
            "op {at_op}: reused run moved — pages were rewritten"
        );
    }
}

#[test]
fn partial_merge_fault_sweep_fsync() {
    partial_merge_fault_sweep(Durability::Fsync, "merge-sweep-fsync");
}

#[test]
fn partial_merge_fault_sweep_async() {
    partial_merge_fault_sweep(
        Durability::Async {
            max_inflight_bytes: 1 << 16,
        },
        "merge-sweep-async",
    );
}

/// A fatal error (EIO) keeps the classic semantics: the failed batch
/// rolls back, but the write path stays poisoned until reopen.
#[test]
fn fatal_eio_poisons_until_reopen() {
    let _hook = fault::exclusive();
    let dir = tmpdir("fatal-eio");
    let ix =
        LiveIndex::<2>::create(&dir, params(), no_merge_opts(Durability::Fsync)).expect("create");
    let clean: Vec<Item<2>> = (0..10).map(item).collect();
    ix.insert_batch(&clean).expect("clean insert");

    let guard = fault::install(FaultSchedule::fail_op(
        11,
        0,
        Some(OpClass::Write),
        FaultKind::Errno(Errno::Eio),
    ));
    let doomed: Vec<Item<2>> = (100..110).map(item).collect();
    let err = ix
        .insert_batch(&doomed)
        .expect_err("EIO must fail the group");
    assert!(
        matches!(
            err,
            LiveError::GroupFailed {
                transient: false,
                ..
            }
        ),
        "EIO must classify as fatal, got: {err}"
    );
    drop(guard);

    // Fatal poison is sticky: even with the disk healthy again, writes
    // are refused until the operator reopens.
    let late: Vec<Item<2>> = (200..210).map(item).collect();
    let err = ix
        .insert_batch(&late)
        .expect_err("poisoned path must refuse writes");
    assert!(
        matches!(err, LiveError::Corrupt(_)),
        "poisoned write path should surface as Corrupt, got: {err}"
    );

    drop(ix);
    let ix = LiveIndex::<2>::open(&dir, no_merge_opts(Durability::Fsync)).expect("reopen");
    let mut ids: Vec<u32> = ix
        .snapshot()
        .items()
        .expect("scan")
        .iter()
        .map(|it| it.id)
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..10).collect::<Vec<u32>>());
}
