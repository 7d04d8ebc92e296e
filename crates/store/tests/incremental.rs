//! Incremental commits: reused components' pages stay byte-identically
//! in place across epochs, zero-new-page commits are valid, torn
//! incremental commits fall back, and garbage accounting adds up.

use pr_em::{MemDevice, PositionedFile};
use pr_geom::{Item, Rect};
use pr_store::{CommitComponent, ReadPath, Store, StoreError};
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::BulkLoader;
use pr_tree::{RTree, TreeParams};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pr-store-incr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn build(params: TreeParams, ids: std::ops::Range<u32>, x0: f64) -> RTree<2> {
    let items: Vec<Item<2>> = ids
        .map(|i| {
            let x = x0 + (i % 100) as f64;
            Item::new(Rect::xyxy(x, 0.0, x + 0.5, 1.0), i)
        })
        .collect();
    PrTreeLoader::default()
        .load(Arc::new(MemDevice::new(params.page_size)), params, items)
        .unwrap()
}

fn read_run_bytes(path: &PathBuf, offset: u64, len: u64) -> Vec<u8> {
    let f = std::fs::File::open(path).unwrap();
    let f = PositionedFile::new(f);
    let mut buf = vec![0u8; len as usize];
    f.read_exact_or_zero_at(&mut buf, offset).unwrap();
    buf
}

#[test]
fn reused_component_pages_stay_byte_identical_in_place() {
    let path = tmp("reuse.prt");
    let params = TreeParams::with_cap::<2>(8);
    let big = build(params, 0..2000, 0.0);
    let small = build(params, 2000..2100, 5000.0);
    let replacement = build(params, 2000..2400, 5000.0);

    let mut store = Store::create::<2>(&path, params).unwrap();
    store.save_components(&[&big, &small], b"epoch-1").unwrap();
    let runs1 = store.component_runs();
    assert_eq!(runs1.len(), 2);
    let big_id = runs1[0].id;
    let bs = store.block_size() as u64;
    let big_bytes_before = read_run_bytes(&path, runs1[0].data_offset, runs1[0].num_pages * bs);

    // Replace the small component, keep the big one in place.
    let outcome = store
        .commit_components(
            &[
                CommitComponent::Reuse(big_id),
                CommitComponent::New(&replacement),
            ],
            b"epoch-2",
        )
        .unwrap();
    assert_eq!(outcome.pages_reused, runs1[0].num_pages);
    assert!(outcome.pages_written > 0);
    assert!(
        outcome.pages_written < runs1[0].num_pages,
        "replacing the small component must not rewrite the big one"
    );
    assert_eq!(outcome.component_ids[0], big_id, "reuse keeps the id");
    assert_ne!(outcome.component_ids[1], runs1[1].id, "new run, new id");

    let runs2 = store.component_runs();
    assert_eq!(
        runs2[0], runs1[0],
        "reused run is unchanged, offsets and all"
    );
    let big_bytes_after = read_run_bytes(&path, runs2[0].data_offset, runs2[0].num_pages * bs);
    assert_eq!(big_bytes_before, big_bytes_after, "pages byte-identical");

    // Reopen from disk: both components answer correctly.
    drop(store);
    let store = Store::open(&path).unwrap();
    assert_eq!(store.superblock().epoch, 2);
    assert_eq!(store.app(), b"epoch-2");
    let runs = store.component_runs();
    assert_eq!(runs[0], runs1[0]);
    let comps = store.components::<2>().unwrap();
    assert_eq!(comps[0].len(), 2000);
    assert_eq!(comps[1].len(), 400);
    for (orig, reopened) in [(&big, &comps[0]), (&replacement, &comps[1])] {
        let q = Rect::xyxy(-10.0, -10.0, 10000.0, 10.0);
        let mut want = orig.window(&q).unwrap();
        let mut got = reopened.window(&q).unwrap();
        want.sort_by_key(|i| i.id);
        got.sort_by_key(|i| i.id);
        assert_eq!(got, want);
    }
    std::fs::remove_file(&path).ok();
}

/// A commit mixing `New` and `Reuse` in every position reopens to the
/// same answers through both read paths: the verify-once mmap path and
/// the re-hash-every-read one (which would trip over any page whose
/// bytes and table entry disagree).
#[test]
fn mixed_new_and_reuse_commit_reopens_identically_under_both_read_paths() {
    let path = tmp("mixed.prt");
    let params = TreeParams::with_cap::<2>(8);
    let a = build(params, 0..1500, 0.0);
    let b = build(params, 1500..1600, 3000.0);
    let c = build(params, 1600..2600, 6000.0);
    let d = build(params, 2600..2650, 9000.0);
    let e = build(params, 2650..3000, 12000.0);

    let mut store = Store::create::<2>(&path, params).unwrap();
    store.save_components(&[&a, &b, &c], b"epoch-1").unwrap();
    let ids: Vec<u64> = store.component_runs().iter().map(|r| r.id).collect();
    // New, Reuse, New, Reuse: b is dropped, d and e are appended as two
    // runs of one commit (their tables share the commit's table region).
    let outcome = store
        .commit_components(
            &[
                CommitComponent::New(&d),
                CommitComponent::Reuse(ids[0]),
                CommitComponent::New(&e),
                CommitComponent::Reuse(ids[2]),
            ],
            b"epoch-2",
        )
        .unwrap();
    assert_eq!(outcome.component_ids[1], ids[0]);
    assert_eq!(outcome.component_ids[3], ids[2]);
    drop(store);

    let store = Store::open(&path).unwrap();
    assert_eq!(store.app(), b"epoch-2");
    let q = Rect::xyxy(-10.0, -10.0, 20000.0, 10.0);
    for read_path in [ReadPath::ZeroCopy, ReadPath::Recheck] {
        let comps = store.components_with::<2>(read_path).unwrap();
        assert_eq!(comps.len(), 4);
        for (orig, reopened) in [&d, &a, &e, &c].into_iter().zip(&comps) {
            assert_eq!(reopened.len(), orig.len());
            let mut want = orig.window(&q).unwrap();
            let mut got = reopened.window(&q).unwrap();
            want.sort_by_key(|i| i.id);
            got.sort_by_key(|i| i.id);
            assert_eq!(got, want, "{read_path:?}");
            reopened.validate().unwrap().assert_ok();
        }
    }
    store.scrub().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn all_reuse_commit_writes_zero_pages() {
    let path = tmp("all-reuse.prt");
    let params = TreeParams::with_cap::<2>(8);
    let a = build(params, 0..300, 0.0);
    let mut store = Store::create::<2>(&path, params).unwrap();
    store.save_components(&[&a], b"first").unwrap();
    let id = store.component_runs()[0].id;

    // A checkpoint-only commit: same components, new app blob.
    let outcome = store
        .commit_components::<2>(&[CommitComponent::Reuse(id)], b"second")
        .unwrap();
    assert_eq!(outcome.pages_written, 0);
    assert_eq!(outcome.pages_reused, store.component_runs()[0].num_pages);
    assert_eq!(store.superblock().epoch, 2);
    assert_eq!(store.superblock().num_pages, 0, "nothing newly written");

    drop(store);
    let store = Store::open(&path).unwrap();
    assert_eq!(store.superblock().epoch, 2);
    assert_eq!(store.app(), b"second");
    assert_eq!(store.components::<2>().unwrap()[0].len(), 300);
    std::fs::remove_file(&path).ok();
}

#[test]
fn verify_once_bits_survive_an_incremental_commit() {
    let path = tmp("verify-carry.prt");
    let params = TreeParams::with_cap::<2>(8);
    let a = build(params, 0..1000, 0.0);
    let b = build(params, 1000..1050, 3000.0);
    let mut store = Store::create::<2>(&path, params).unwrap();
    store.save_components(&[&a], b"1").unwrap();
    let id = store.component_runs()[0].id;

    // Touch every page of the committed component: all verified.
    let t = store.components::<2>().unwrap().remove(0);
    t.warm_cache().unwrap();
    let _ = t.window(&Rect::xyxy(-1.0, -1.0, 10000.0, 10.0)).unwrap();
    let (verified_before, total_before) = store.verified_pages();
    assert_eq!(verified_before, total_before);

    // The reused run's proof carries across the commit; only the new
    // component's pages start unverified.
    let outcome = store
        .commit_components(
            &[CommitComponent::Reuse(id), CommitComponent::New(&b)],
            b"2",
        )
        .unwrap();
    let (verified_after, total_after) = store.verified_pages();
    assert_eq!(verified_after, verified_before);
    assert_eq!(total_after, total_before + outcome.pages_written);
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_reuse_id_is_a_typed_error_and_writes_nothing() {
    let path = tmp("unknown.prt");
    let params = TreeParams::with_cap::<2>(8);
    let a = build(params, 0..100, 0.0);
    let mut store = Store::create::<2>(&path, params).unwrap();
    store.save_components(&[&a], b"1").unwrap();
    let epoch = store.superblock().epoch;
    let len = store.file_len().unwrap();
    let err = store
        .commit_components::<2>(&[CommitComponent::Reuse(999)], b"2")
        .unwrap_err();
    assert!(matches!(err, StoreError::UnknownComponent(999)));
    assert_eq!(store.superblock().epoch, epoch);
    assert_eq!(store.file_len().unwrap(), len, "nothing was appended");
    std::fs::remove_file(&path).ok();
}

/// A crash after an incremental commit wrote its new pages but before
/// the superblock flip (simulated: corrupt the new manifest) falls back
/// to the previous epoch, whose reused runs still validate.
#[test]
fn torn_incremental_commit_falls_back_one_epoch() {
    let path = tmp("torn-incr.prt");
    let params = TreeParams::with_cap::<2>(8);
    let a = build(params, 0..800, 0.0);
    let b = build(params, 800..900, 2000.0);
    let c = build(params, 800..1100, 2000.0);
    let mut store = Store::create::<2>(&path, params).unwrap();
    store.save_components(&[&a, &b], b"epoch-1").unwrap();
    let a_id = store.component_runs()[0].id;
    store
        .commit_components(
            &[CommitComponent::Reuse(a_id), CommitComponent::New(&c)],
            b"epoch-2",
        )
        .unwrap();
    let sb = *store.superblock();
    assert_eq!(sb.epoch, 2);
    drop(store);

    // Flip a byte in epoch 2's manifest: the incremental commit is torn.
    {
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let f = PositionedFile::new(f);
        let mut byte = [0u8; 1];
        let off = sb.manifest_offset + 8;
        f.read_exact_or_zero_at(&mut byte, off).unwrap();
        byte[0] ^= 0xFF;
        f.write_all_at(&byte, off).unwrap();
    }
    let store = Store::open(&path).unwrap();
    assert_eq!(store.superblock().epoch, 1);
    assert_eq!(store.app(), b"epoch-1");
    let comps = store.components::<2>().unwrap();
    assert_eq!(comps[0].len(), 800);
    assert_eq!(comps[1].len(), 100);
    std::fs::remove_file(&path).ok();
}

/// A manifest whose reused run extends past the end of the file (the
/// run was reclaimed out from under it) must fail validation rather
/// than serve out-of-file pages.
#[test]
fn out_of_file_run_fails_validation() {
    let path = tmp("oof-run.prt");
    let params = TreeParams::with_cap::<2>(8);
    let a = build(params, 0..500, 0.0);
    let b = build(params, 500..600, 2000.0);
    let mut store = Store::create::<2>(&path, params).unwrap();
    store.save_components(&[&a], b"epoch-1").unwrap();
    let a_id = store.component_runs()[0].id;
    store
        .commit_components(
            &[CommitComponent::Reuse(a_id), CommitComponent::New(&b)],
            b"epoch-2",
        )
        .unwrap();
    let runs = store.component_runs();
    drop(store);

    // Truncate inside the first (reused) run: both epochs' snapshots
    // reference it, so neither validates — a typed error, not a panic
    // and never a silently empty store.
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(runs[0].data_offset + 100).unwrap();
    drop(f);
    match Store::open(&path) {
        Err(StoreError::TornSnapshot { .. }) => {}
        Err(other) => panic!("expected TornSnapshot, got {other}"),
        Ok(_) => panic!("expected TornSnapshot, got a successful open"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn garbage_accounting_adds_up() {
    let path = tmp("garbage.prt");
    let params = TreeParams::with_cap::<2>(8);
    let a = build(params, 0..1000, 0.0);
    let b = build(params, 1000..1100, 2000.0);
    let b2 = build(params, 1000..1200, 2000.0);
    let mut store = Store::create::<2>(&path, params).unwrap();
    store.save_components(&[&a, &b], b"1").unwrap();
    let g1 = store.garbage_bytes().unwrap();
    let a_id = store.component_runs()[0].id;

    // Replacing b strands its pages (and the old table/manifest tail).
    let bs = store.block_size() as u64;
    let b_pages = store.component_runs()[1].num_pages;
    store
        .commit_components(
            &[CommitComponent::Reuse(a_id), CommitComponent::New(&b2)],
            b"2",
        )
        .unwrap();
    let g2 = store.garbage_bytes().unwrap();
    assert!(
        g2 >= g1 + b_pages * bs,
        "replaced component's pages ({}) must show up as garbage (before {g1}, after {g2})",
        b_pages * bs
    );
    assert_eq!(store.live_bytes() + g2, store.file_len().unwrap());
    std::fs::remove_file(&path).ok();
}
