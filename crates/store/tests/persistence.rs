//! Persistence acceptance tests: build → save → drop → open must be
//! indistinguishable from never having persisted (identical results,
//! identical leaf I/O), and every flavor of file damage must surface as
//! a typed error — never a panic, never a silently wrong answer.

use pr_data::{size_dataset, uniform_points};
use pr_em::{BlockDevice, EmError, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_store::{Store, StoreError};
use pr_tree::bulk::LoaderKind;
use pr_tree::{QueryStats, RTree, TreeParams};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fresh temp path per test (process id + name keeps parallel tests
/// apart).
fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pr-store-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}.prt"))
}

fn build(kind: LoaderKind, items: &[Item<2>], cap: usize) -> RTree<2> {
    let params = TreeParams::with_cap::<2>(cap);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    kind.loader::<2>()
        .load(dev, params, items.to_vec())
        .expect("bulk load")
}

fn test_queries() -> Vec<Rect<2>> {
    vec![
        Rect::xyxy(0.0, 0.0, 1.0, 1.0),
        Rect::xyxy(0.1, 0.1, 0.3, 0.35),
        Rect::xyxy(0.45, 0.4, 0.48, 0.9),
        Rect::xyxy(0.9, 0.9, 0.95, 0.95),
        Rect::xyxy(2.0, 2.0, 3.0, 3.0), // empty
    ]
}

/// Runs the full query battery, returning results + stats per query.
fn run_battery(tree: &RTree<2>) -> Vec<(Vec<Item<2>>, QueryStats)> {
    tree.warm_cache().unwrap();
    test_queries()
        .iter()
        .map(|q| tree.window_with_stats(q).unwrap())
        .collect()
}

/// build → save → drop → open → query is byte-identical (results in the
/// same order with the same bits) and leaf-I/O-identical for every bulk
/// loader variant.
#[test]
fn roundtrip_identical_for_every_loader_variant() {
    let mut items = uniform_points(2_000, 11);
    let extra = size_dataset(1_000, 0.05, 12);
    let base = items.len() as u32;
    items.extend(
        extra
            .into_iter()
            .map(|mut i| {
                i.id += base;
                i
            })
            .collect::<Vec<_>>(),
    );

    for kind in LoaderKind::all() {
        let path = temp_store(&format!("roundtrip-{}", kind.name()));
        let tree = build(kind, &items, 8);
        let before = run_battery(&tree);

        let mut store = Store::create::<2>(&path, *tree.params()).unwrap();
        store.save(&tree).unwrap();
        drop((store, tree)); // the only surviving state is the file

        let reopened = Store::open_tree::<2>(&path).unwrap();
        assert_eq!(reopened.len(), items.len() as u64, "{}", kind.name());
        let after = run_battery(&reopened);

        assert_eq!(before.len(), after.len());
        for (i, ((r0, s0), (r1, s1))) in before.iter().zip(&after).enumerate() {
            assert_eq!(r0, r1, "{}: query {i} results differ", kind.name());
            assert_eq!(
                s0.leaves_visited,
                s1.leaves_visited,
                "{}: query {i} leaf I/O differs",
                kind.name()
            );
            assert_eq!(
                s0.internal_visited,
                s1.internal_visited,
                "{}: query {i} internal visits differ",
                kind.name()
            );
            assert_eq!(
                s0.device_reads,
                s1.device_reads,
                "{}: query {i} device reads differ (both warm-cached)",
                kind.name()
            );
            assert_eq!(s0.results, s1.results);
        }

        // k-NN rides on the same pages: identical answers and leaf I/O.
        let q = Point::new([0.31, 0.77]);
        let t2 = Store::open_tree::<2>(&path).unwrap();
        t2.warm_cache().unwrap();
        let orig = build(kind, &items, 8);
        orig.warm_cache().unwrap();
        let (nn0, ks0) = orig.nearest_neighbors_with_stats(&q, 10).unwrap();
        let (nn1, ks1) = t2.nearest_neighbors_with_stats(&q, 10).unwrap();
        assert_eq!(nn0, nn1, "{}: k-NN answers differ", kind.name());
        assert_eq!(ks0.leaves_visited, ks1.leaves_visited);

        std::fs::remove_file(&path).ok();
    }
}

/// The reopened tree's structure (node counts per level, utilization)
/// matches the original: the BFS rewrite relabels pages, nothing else.
#[test]
fn reopened_structure_matches_original() {
    let items = uniform_points(3_000, 3);
    let tree = build(LoaderKind::Pr, &items, 16);
    let path = temp_store("structure");
    let mut store = Store::create::<2>(&path, *tree.params()).unwrap();
    store.save(&tree).unwrap();
    let reopened = store.tree::<2>().unwrap();
    assert_eq!(tree.stats().unwrap(), reopened.stats().unwrap());
    assert_eq!(tree.height(), reopened.height());
    reopened.validate().unwrap().assert_ok();
    // Root is page 0 by the BFS contract.
    assert_eq!(reopened.root(), 0);
    std::fs::remove_file(&path).ok();
}

/// Empty trees persist too.
#[test]
fn empty_tree_roundtrip() {
    let params = TreeParams::with_cap::<2>(8);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = RTree::<2>::new_empty(dev, params).unwrap();
    let path = temp_store("empty");
    let mut store = Store::create::<2>(&path, params).unwrap();
    store.save(&tree).unwrap();
    let reopened = Store::open_tree::<2>(&path).unwrap();
    assert!(reopened.is_empty());
    assert!(reopened
        .window(&Rect::xyxy(0.0, 0.0, 1.0, 1.0))
        .unwrap()
        .is_empty());
    std::fs::remove_file(&path).ok();
}

/// Repeated saves bump the epoch, alternate slots, and reopen at the
/// newest snapshot.
#[test]
fn successive_saves_alternate_slots_and_reopen_newest() {
    let path = temp_store("epochs");
    let params = TreeParams::with_cap::<2>(8);
    let mut store = Store::create::<2>(&path, params).unwrap();
    assert_eq!(store.superblock().epoch, 0);
    assert!(matches!(
        store.tree::<2>(),
        Err(StoreError::NoCommittedSnapshot)
    ));

    let t1 = build(LoaderKind::Hilbert, &uniform_points(500, 1), 8);
    store.save(&t1).unwrap();
    assert_eq!(store.superblock().epoch, 1);
    let slot_after_first = store.active_slot();

    let t2 = build(LoaderKind::Hilbert, &uniform_points(900, 2), 8);
    store.save(&t2).unwrap();
    assert_eq!(store.superblock().epoch, 2);
    assert_ne!(store.active_slot(), slot_after_first);
    drop(store);

    let reopened = Store::open(&path).unwrap();
    assert_eq!(reopened.superblock().epoch, 2);
    assert_eq!(reopened.tree::<2>().unwrap().len(), 900);
    reopened.scrub().unwrap();
    std::fs::remove_file(&path).ok();
}

/// A snapshot pinned by an open tree stays readable across a later save
/// into the same store (commits never move pages under a live reader).
#[test]
fn open_tree_survives_concurrent_save() {
    let path = temp_store("pinned");
    let params = TreeParams::with_cap::<2>(8);
    let mut store = Store::create::<2>(&path, params).unwrap();
    let t1 = build(LoaderKind::Pr, &uniform_points(800, 4), 8);
    store.save(&t1).unwrap();
    let pinned = store.tree::<2>().unwrap();

    let t2 = build(LoaderKind::Pr, &uniform_points(1_500, 5), 8);
    store.save(&t2).unwrap();

    // The pinned handle still answers from snapshot 1.
    assert_eq!(pinned.len(), 800);
    let hits = pinned.window(&Rect::xyxy(0.0, 0.0, 1.0, 1.0)).unwrap();
    assert_eq!(hits.len(), 800);
    // A fresh handle sees snapshot 2.
    assert_eq!(store.tree::<2>().unwrap().len(), 1_500);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Corruption: every damaged byte is a typed error, never a panic or a
// wrong answer.
// ---------------------------------------------------------------------

fn flip_byte(path: &Path, offset: u64) {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.read_exact(&mut b).unwrap();
    b[0] ^= 0xFF;
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&b).unwrap();
}

fn saved_store(name: &str, n: u32) -> (PathBuf, Store) {
    let path = temp_store(name);
    let tree = build(LoaderKind::Pr, &uniform_points(n, 9), 8);
    let mut store = Store::create::<2>(&path, *tree.params()).unwrap();
    store.save(&tree).unwrap();
    (path, store)
}

/// A flipped byte inside a page is caught by the per-page CRC32 on the
/// read that touches it: the query returns a checksum error, and the
/// eager sweep pinpoints the page.
#[test]
fn flipped_page_byte_fails_checksum_not_answers() {
    let (path, store) = saved_store("flip-page", 1_000);
    let sb = *store.superblock();
    drop(store);
    // Damage a byte in the middle of the page region.
    let mid_page = sb.num_pages / 2;
    flip_byte(
        &path,
        sb.data_offset + mid_page * sb.block_size as u64 + sb.block_size as u64 / 3,
    );

    // Open succeeds: the superblock, footer, and table are intact.
    let store = Store::open(&path).unwrap();
    assert!(matches!(
        store.scrub(),
        Err(StoreError::ChecksumMismatch { page }) if page == mid_page
    ));
    // A full-coverage query must hit the bad page and error — the damage
    // can never leak into results.
    let tree = store.tree::<2>().unwrap();
    let err = tree
        .window(&Rect::xyxy(-10.0, -10.0, 10.0, 10.0))
        .expect_err("query crossing a damaged page must fail");
    assert!(
        matches!(err, EmError::Corrupt(ref msg) if msg.contains("CRC32")),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// Truncating the footer of the only committed snapshot is a typed
/// torn-snapshot error (no silent fallback to "empty store").
#[test]
fn truncated_footer_is_a_typed_error() {
    let (path, store) = saved_store("trunc-footer", 500);
    let footer_offset = store.superblock().footer_offset;
    drop(store);
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(footer_offset).unwrap(); // chop the commit record off
    drop(f);
    match Store::open(&path) {
        Err(StoreError::TornSnapshot { epoch: 1, .. }) => {}
        Err(other) => panic!("want TornSnapshot at epoch 1, got error {other:?}"),
        Ok(_) => panic!("want TornSnapshot at epoch 1, got a healthy store"),
    }
    std::fs::remove_file(&path).ok();
}

/// A corrupted checksum table is likewise torn, not trusted.
#[test]
fn corrupted_checksum_table_is_a_typed_error() {
    let (path, store) = saved_store("bad-table", 500);
    let table_offset = store.superblock().table_offset;
    drop(store);
    flip_byte(&path, table_offset + 5);
    assert!(matches!(
        Store::open(&path),
        Err(StoreError::TornSnapshot { .. })
    ));
    std::fs::remove_file(&path).ok();
}

/// Damage to the *newest* snapshot falls back to the previous committed
/// one: the double-superblock scheme in action.
#[test]
fn torn_newest_snapshot_recovers_previous_commit() {
    let path = temp_store("fallback");
    let params = TreeParams::with_cap::<2>(8);
    let mut store = Store::create::<2>(&path, params).unwrap();
    let t1 = build(LoaderKind::Pr, &uniform_points(600, 21), 8);
    store.save(&t1).unwrap();
    let t2 = build(LoaderKind::Pr, &uniform_points(1_100, 22), 8);
    store.save(&t2).unwrap();
    let newest_footer = store.superblock().footer_offset;
    drop(store);
    flip_byte(&path, newest_footer + 9); // tear epoch 2's commit record

    let store = Store::open(&path).unwrap();
    assert_eq!(store.superblock().epoch, 1, "fell back to epoch 1");
    let tree = store.tree::<2>().unwrap();
    assert_eq!(tree.len(), 600);
    tree.validate().unwrap().assert_ok();
    std::fs::remove_file(&path).ok();
}

/// Garbage appended past the committed snapshot (a torn, never-flipped
/// save) is invisible: the store reopens at the committed state.
#[test]
fn torn_append_without_flip_is_invisible() {
    let (path, store) = saved_store("torn-append", 700);
    drop(store);
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(&vec![0xCD; 10_000]).unwrap(); // half a snapshot, no flip
    drop(f);
    let tree = Store::open_tree::<2>(&path).unwrap();
    assert_eq!(tree.len(), 700);
    std::fs::remove_file(&path).ok();
}

/// Files that are not stores at all: typed errors, not panics.
#[test]
fn non_store_files_are_bad_magic() {
    let path = temp_store("not-a-store");
    std::fs::write(&path, b"hello, I am a text file, definitely not an index").unwrap();
    assert!(matches!(Store::open(&path), Err(StoreError::BadMagic)));
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(Store::open(&path), Err(StoreError::BadMagic)));
    std::fs::remove_file(&path).ok();
}

/// Opening with the wrong dimensionality is typed.
#[test]
fn dimension_mismatch_is_typed() {
    let (path, store) = saved_store("dim", 300);
    drop(store);
    assert!(matches!(
        Store::open_tree::<3>(&path),
        Err(StoreError::DimensionMismatch {
            file: 2,
            requested: 3
        })
    ));
    std::fs::remove_file(&path).ok();
}

/// Saving a tree with mismatched geometry is typed.
#[test]
fn save_guards_block_size_and_dimension() {
    let path = temp_store("guards");
    let params = TreeParams::with_cap::<2>(8);
    let mut store = Store::create::<2>(&path, params).unwrap();
    let wrong = build(LoaderKind::Pr, &uniform_points(100, 1), 16); // bigger pages
    assert!(matches!(
        store.save(&wrong),
        Err(StoreError::BlockSizeMismatch { .. })
    ));
    std::fs::remove_file(&path).ok();
}

/// A store on a read-only file opens for querying; `save` is a typed
/// error. (Root bypasses permission checks, so the assertion only runs
/// when the chmod actually bites.)
#[cfg(unix)]
#[test]
fn read_only_file_opens_for_queries_but_not_saves() {
    use std::os::unix::fs::PermissionsExt;
    let (path, store) = saved_store("ro-file", 400);
    drop(store);
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o444)).unwrap();
    let can_still_write = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .is_ok();
    let mut store = Store::open(&path).expect("read-only open must succeed");
    let tree = store.tree::<2>().unwrap();
    assert_eq!(tree.len(), 400);
    assert_eq!(
        tree.window(&Rect::xyxy(0.0, 0.0, 1.0, 1.0)).unwrap().len(),
        400
    );
    if !can_still_write {
        let t = build(LoaderKind::Pr, &uniform_points(100, 1), 8);
        assert!(matches!(store.save(&t), Err(StoreError::ReadOnly)));
    }
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o644)).ok();
    std::fs::remove_file(&path).ok();
}

/// The reopened device is read-only: mutating it is a typed error.
#[test]
fn reopened_tree_is_read_only() {
    let (path, store) = saved_store("readonly", 200);
    let mut tree = store.tree::<2>().unwrap();
    let item = Item::new(Rect::xyxy(0.5, 0.5, 0.6, 0.6), 9_999);
    assert!(matches!(tree.insert(item), Err(EmError::ReadOnly)));
    std::fs::remove_file(&path).ok();
}
