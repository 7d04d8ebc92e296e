//! Corruption battery for the zero-copy (mmap + verify-once) read
//! path, pinning the documented detection semantics:
//!
//! * a flipped byte in an **unverified** page surfaces as `Corrupt` on
//!   the first read that touches it — mmap or `read_at`, same contract;
//! * a flipped byte in a page that was **already verified** is served
//!   without re-detection (verify-once is the documented trade) — until
//!   the eager scrub re-hashes it, reports `ChecksumMismatch`, and
//!   clears its verify-once bit so later reads fail loudly;
//! * the `Recheck` path (the pre-zero-copy behavior) detects the
//!   post-verification flip on the very next read, which is exactly the
//!   paranoia it exists to sell;
//! * both read paths, mmap'd or not, return results and traversal
//!   statistics bit-identical to the never-persisted in-memory tree,
//!   for every loader.

use pr_em::{BlockDevice, EmError, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_store::{ReadPath, Store, StoreError};
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::{BulkLoader, LoaderKind};
use pr_tree::{RTree, TreeParams};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpfile(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pr-store-zerocopy-{}-{name}.prt",
        std::process::id()
    ))
}

fn items(n: u32) -> Vec<Item<2>> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 37.61) % 1000.0;
            let y = (i as f64 * 17.23) % 1000.0;
            Item::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), i)
        })
        .collect()
}

/// Builds, saves, and returns `(path, leaf page count)`.
fn build_store(name: &str, n: u32) -> (PathBuf, u64) {
    let path = tmpfile(name);
    let params = TreeParams::with_cap::<2>(16);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = PrTreeLoader::default().load(dev, params, items(n)).unwrap();
    let mut store = Store::create::<2>(&path, params).unwrap();
    store.save(&tree).unwrap();
    let pages = store.superblock().num_pages;
    (path, pages)
}

/// Flips one byte inside snapshot page `page` of the store at `path`.
/// Read–XOR–write, so the byte is guaranteed to change whatever its
/// current value (a constant overwrite could coincide and silently turn
/// the whole battery into a no-op).
fn flip_byte(path: &PathBuf, store: &Store, page: u64) {
    use std::io::Read;
    let sb = store.superblock();
    let off = sb.data_offset + page * sb.block_size as u64 + 100;
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    f.seek(SeekFrom::Start(off)).unwrap();
    let mut byte = [0u8; 1];
    f.read_exact(&mut byte).unwrap();
    f.seek(SeekFrom::Start(off)).unwrap();
    f.write_all(&[byte[0] ^ 0xFF]).unwrap();
    f.sync_data().unwrap();
}

fn everything() -> Rect<2> {
    Rect::xyxy(-10.0, -10.0, 2000.0, 2000.0)
}

#[test]
fn unverified_flip_surfaces_corrupt_on_first_touch() {
    let (path, pages) = build_store("fresh-flip", 5_000);
    let store = Store::open(&path).unwrap();
    // BFS layout: the root is page 0, leaves are the tail. The last
    // page is a leaf nobody has read yet.
    let victim = pages - 1;
    flip_byte(&path, &store, victim);
    let tree: RTree<2> = store.tree().unwrap();
    tree.warm_cache().unwrap();
    let err = tree.window(&everything()).unwrap_err();
    assert!(
        matches!(&err, EmError::Corrupt(msg) if msg.contains("CRC32")),
        "wanted a CRC corruption error, got {err:?}"
    );
    // The verify-once bitmap records only the pages that passed.
    let (verified, total) = store.verified_pages();
    assert!(verified < total, "corrupt page must not count as verified");
    std::fs::remove_file(&path).ok();
}

#[test]
fn post_verification_flip_served_until_scrub_catches_it() {
    let (path, pages) = build_store("rot-after-verify", 5_000);
    let store = Store::open(&path).unwrap();
    let tree: RTree<2> = store.tree().unwrap();
    tree.warm_cache().unwrap();
    // First full query verifies every leaf lazily.
    let clean = tree.window(&everything()).unwrap();
    let (verified, total) = store.verified_pages();
    assert_eq!(verified, total, "full window touches every page");

    // Bit rot after verification: verify-once means the next read does
    // NOT re-detect it — the flipped coordinate comes straight back.
    let victim = pages - 1;
    flip_byte(&path, &store, victim);
    let served = tree.window(&everything()).unwrap();
    assert_eq!(
        served.len(),
        clean.len(),
        "verified pages are served without re-hashing (documented)"
    );

    // The eager scrub re-hashes everything, reports the rotted page...
    let err = store.scrub().unwrap_err();
    assert!(
        matches!(err, StoreError::ChecksumMismatch { page } if page == victim),
        "scrub must name the rotted page, got {err:?}"
    );
    // ...and clears its verify-once bit, so the next read fails loudly
    // instead of serving the stale verification.
    let err = tree.window(&everything()).unwrap_err();
    assert!(matches!(&err, EmError::Corrupt(msg) if msg.contains("CRC32")));
    let (verified, total) = store.verified_pages();
    assert_eq!(verified, total - 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn scrub_sweeps_past_the_first_failure_and_unverifies_every_bad_page() {
    let (path, pages) = build_store("multi-rot", 5_000);
    let store = Store::open(&path).unwrap();
    let tree: RTree<2> = store.tree().unwrap();
    tree.warm_cache().unwrap();
    tree.window(&everything()).unwrap(); // verify everything lazily

    // Rot two distinct verified pages.
    let (bad_lo, bad_hi) = (pages - 2, pages - 1);
    flip_byte(&path, &store, bad_lo);
    flip_byte(&path, &store, bad_hi);

    // The scrub names the lowest bad page but must have swept to the
    // end: BOTH pages lose their verified bit.
    let err = store.scrub().unwrap_err();
    assert!(matches!(err, StoreError::ChecksumMismatch { page } if page == bad_lo));
    let (verified, total) = store.verified_pages();
    assert_eq!(
        verified,
        total - 2,
        "every rotted page must be un-verified, not just the first"
    );

    // Repair only the first bad page; a full query must still fail on
    // the second — it cannot hide behind its stale verification.
    flip_byte(&path, &store, bad_lo); // XOR flip restores the byte
    let err = tree.window(&everything()).unwrap_err();
    assert!(matches!(&err, EmError::Corrupt(msg) if msg.contains("CRC32")));
    std::fs::remove_file(&path).ok();
}

#[test]
fn recheck_path_detects_post_verification_rot_immediately() {
    let (path, pages) = build_store("recheck", 3_000);
    let store = Store::open(&path).unwrap();
    let tree: RTree<2> = store.tree_with(ReadPath::Recheck).unwrap();
    tree.warm_cache().unwrap();
    let clean = tree.window(&everything()).unwrap();
    assert!(!clean.is_empty());
    flip_byte(&path, &store, pages - 1);
    // No verify-once shortcut on this path: the very next read fails.
    let err = tree.window(&everything()).unwrap_err();
    assert!(matches!(&err, EmError::Corrupt(msg) if msg.contains("CRC32")));
    std::fs::remove_file(&path).ok();
}

/// The zero-copy battery's guarantees must not secretly depend on mmap:
/// with mapping denied (the fault layer's `deny_mmap`, standing in for
/// platforms and filesystems where `mmap` fails), `Store::open` falls
/// back to positioned reads and every semantic above must hold
/// bit-identically — same query answers, same verify-once accounting,
/// same corruption detection on first touch and under the scrub.
#[test]
fn non_mmap_fallback_is_bit_identical_and_detects_rot() {
    use pr_em::fault::{self, FaultSchedule};
    let _hook = fault::exclusive();
    let (path, pages) = build_store("no-mmap", 4_000);

    // Baseline: the mmap path's answer on the healthy file.
    let store = Store::open(&path).unwrap();
    assert!(store.is_mmapped(), "test premise: mmap is the default");
    let tree: RTree<2> = store.tree().unwrap();
    tree.warm_cache().unwrap();
    let want = tree.window(&everything()).unwrap();
    drop(tree);
    drop(store);

    // Same file, mapping denied: the fallback must agree bit for bit.
    let guard = fault::install(FaultSchedule::never(false).with_deny_mmap());
    let store = Store::open(&path).unwrap();
    assert!(
        !store.is_mmapped(),
        "deny_mmap must force the read_at fallback"
    );
    let tree: RTree<2> = store.tree().unwrap();
    tree.warm_cache().unwrap();
    let got = tree.window(&everything()).unwrap();
    assert_eq!(got, want, "fallback read path must agree with mmap");
    let (verified, total) = store.verified_pages();
    assert_eq!(
        verified, total,
        "full window verifies every page, mmap or not"
    );

    // Post-verification rot: same verify-once trade, same scrub catch.
    let victim = pages - 1;
    flip_byte(&path, &store, victim);
    let err = store.scrub().unwrap_err();
    assert!(
        matches!(err, StoreError::ChecksumMismatch { page } if page == victim),
        "scrub on the fallback path must name the rotted page, got {err:?}"
    );
    let err = tree.window(&everything()).unwrap_err();
    assert!(matches!(&err, EmError::Corrupt(msg) if msg.contains("CRC32")));
    drop(tree);
    drop(store);

    // Unverified first touch: a fresh open (fresh bitmap, still no
    // mmap) fails loudly on the first read of the rotted leaf.
    let store = Store::open(&path).unwrap();
    assert!(!store.is_mmapped());
    let tree: RTree<2> = store.tree().unwrap();
    tree.warm_cache().unwrap();
    let err = tree.window(&everything()).unwrap_err();
    assert!(matches!(&err, EmError::Corrupt(msg) if msg.contains("CRC32")));
    drop(guard);
    std::fs::remove_file(&path).ok();
}

/// Every loader's tree, saved and reopened on both read paths, must
/// answer exactly like the never-persisted in-memory tree: results in
/// the same order, the same traversal statistics, and — nothing sits
/// between a leaf visit and the device — one device read per leaf
/// visit on the cold pass and on the repeat alike.
fn read_paths_agree_with_the_in_memory_tree(mmapped: bool) {
    let params = TreeParams::with_cap::<2>(16);
    for kind in LoaderKind::all() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let mem = kind.loader::<2>().load(dev, params, items(4_000)).unwrap();
        mem.warm_cache().unwrap();
        let path = tmpfile(&format!("healthy-{}-{mmapped}", kind.name()));
        Store::create::<2>(&path, params)
            .unwrap()
            .save(&mem)
            .unwrap();
        let store = Store::open(&path).unwrap();
        assert_eq!(store.is_mmapped(), mmapped, "test premise");
        let recheck: RTree<2> = store.tree_with(ReadPath::Recheck).unwrap();
        let zero: RTree<2> = store.tree_with(ReadPath::ZeroCopy).unwrap();
        let paths = [("recheck", &recheck), ("zero-copy", &zero)];
        for (_, t) in paths {
            t.warm_cache().unwrap();
        }
        for i in 0..12u32 {
            let x = (i as f64 * 83.0) % 900.0;
            let q = Rect::xyxy(x, 0.0, x + 120.0, 1000.0);
            let (want, want_stats) = mem.window_with_stats(&q).unwrap();
            for (name, t) in paths {
                for pass in ["cold", "repeat"] {
                    let ctx = format!("{}/{name}/{pass} on {q:?}", kind.name());
                    let (got, stats) = t.window_with_stats(&q).unwrap();
                    assert_eq!(got, want, "{ctx}: results differ");
                    assert_eq!(stats, want_stats, "{ctx}: traversal stats differ");
                    assert_eq!(stats.device_reads, stats.leaves_visited, "{ctx}");
                }
            }
            let p = Point::new([x, (x * 7.0) % 1000.0]);
            let (want, _) = mem.nearest_neighbors_with_stats(&p, 10).unwrap();
            for (name, t) in paths {
                let (got, _) = t.nearest_neighbors_with_stats(&p, 10).unwrap();
                assert_eq!(got, want, "{}/{name}: k-NN differs at {p:?}", kind.name());
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn all_read_paths_agree_on_a_healthy_store() {
    use pr_em::fault::{self, FaultSchedule};
    let _hook = fault::exclusive();
    read_paths_agree_with_the_in_memory_tree(true);
    // The read_at fallback has nothing in front of it either.
    let _guard = fault::install(FaultSchedule::never(false).with_deny_mmap());
    read_paths_agree_with_the_in_memory_tree(false);
}
