//! Heap high-water of the PR-tree build paths, measured with a counting
//! global allocator (this binary only). Run with `--nocapture` to see
//! the ratios.
//!
//! The pseudo-PR-tree grouping permutes one entry buffer in place
//! (`bulk::kd_split`), so a build holds its input, the pages it writes
//! and little else. The `Vec`-per-node recursion it replaced pinned
//! ≈ 2D · N · depth entries. Both tests, before → after the rewrite:
//!
//! | build | before | after |
//! |-------|--------|-------|
//! | `PrTreeLoader::load`, 200 000 items, × the input's bytes | 33.20 | 1.92 |
//! | `PrExternalLoader::load`, 100 000 entries, × `memory_bytes` = 256 KiB | 11.08 | 1.42 |
//!
//! 1.92 is the input buffer (1.0) plus the finished `MemDevice` (36 B on
//! the page for 40 B in memory). Of the external 1.42 one load of
//! decoded entries is 1.11 (`memory_bytes / 36` entries at 40 B each),
//! held by `pr_em`'s run formation and by the in-memory base case alike.
//! Run formation held such a load twice, 2.50 in all, while it sorted
//! each load with a stable sort and its scratch; the external lists'
//! orders now sort a load in place.
//!
//! The next two tests hold `scratch.rs` to its word for windows, counts,
//! exact matches and k-NN: a warmed [`QueryScratch`] answers without a
//! single allocation. The last holds a checkpoint's tombstone map to one
//! allocation: it is sized before it is filled.

use pr_em::{BlockDevice, FileDevice, MemDevice, Stream};
use pr_geom::{Item, Point, Rect};
use pr_tree::bulk::external::ExternalConfig;
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::pr_external::PrExternalLoader;
use pr_tree::bulk::BulkLoader;
use pr_tree::dynamic::tombstone::{TombstoneKey, Tombstones};
use pr_tree::dynamic::LprTree;
use pr_tree::{Entry, QueryScratch, TreeParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocation calls made by this thread (growing reallocs included).
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The counters are process-wide, so each test holds this from its first
/// allocation to its last: the harness runs tests on parallel threads.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` and returns its result with the most heap bytes that were
/// live at any moment of the call, beyond those live when it began.
fn heap_high_water<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(before))
}

/// Runs `f` and returns its result with the number of allocations this
/// thread made during the call. Queries run on the calling thread, and
/// the harness's own bookkeeping on other threads does not count.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let x: f64 = rng.gen_range(0.0..1000.0);
            let y: f64 = rng.gen_range(0.0..1000.0);
            let w: f64 = rng.gen_range(0.0..2.0);
            let h: f64 = rng.gen_range(0.0..2.0);
            Item::new(Rect::xyxy(x, y, x + w, y + h), i)
        })
        .collect()
}

#[test]
fn in_memory_load_holds_its_input_and_its_pages() {
    let _alone = alone();
    const N: u32 = 200_000;
    let params = TreeParams::paper_2d();
    let input_bytes = N as usize * std::mem::size_of::<Item<2>>();
    // The input buffer is created inside the measured call, and the
    // finished `MemDevice` is still alive at its end: both count.
    let (tree, peak) = heap_high_water(|| {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        PrTreeLoader::default()
            .load(dev, params, random_items(N, 16))
            .unwrap()
    });
    assert_eq!(tree.len(), N as u64);
    let ratio = peak as f64 / input_bytes as f64;
    println!(
        "PrTreeLoader::load, {N} items: heap high-water {peak} B = {ratio:.2} x the input's {input_bytes} B"
    );
    assert!(
        ratio <= 4.0,
        "in-memory build held {ratio:.2} x its input (limit 4 x)"
    );
}

#[test]
fn external_load_stays_near_its_memory_budget() {
    let _alone = alone();
    const N: u32 = 100_000;
    const MEMORY_BYTES: usize = 256 << 10;
    let params = TreeParams::paper_2d();
    let path = std::env::temp_dir().join(format!("pr-tree-build-alloc-{}", std::process::id()));
    let dev: Arc<dyn BlockDevice> = Arc::new(FileDevice::create(&path, params.page_size).unwrap());
    let input = Stream::from_iter(
        dev.as_ref(),
        random_items(N, 17).into_iter().map(Entry::from_item),
    )
    .unwrap();
    let (tree, peak) = heap_high_water(|| {
        PrExternalLoader::new(ExternalConfig::with_memory(MEMORY_BYTES))
            .load::<2>(Arc::clone(&dev), params, &input)
            .unwrap()
    });
    std::fs::remove_file(&path).ok();
    assert_eq!(tree.len(), N as u64);
    let ratio = peak as f64 / MEMORY_BYTES as f64;
    println!(
        "PrExternalLoader::load, {N} entries: heap high-water {peak} B = {ratio:.2} x memory_bytes = {MEMORY_BYTES} B"
    );
    assert!(
        ratio <= 1.6,
        "external build held {ratio:.2} x its memory budget (limit 1.6 x)"
    );
}

/// An LPR-tree over `items` whose every third stored item is dead: its
/// queries meet tombstoned copies, whose per-key consumption the
/// query's filter tracks in the [`QueryScratch`].
fn tombstoned_lpr(params: TreeParams, items: &[Item<2>]) -> LprTree<2> {
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let mut lpr = LprTree::<2>::new(dev, params, 16);
    for item in items {
        lpr.insert(*item).unwrap();
    }
    let stored = items.len() - items.len() % 16;
    for item in items[..stored].iter().step_by(3) {
        assert!(lpr.delete(item).unwrap());
    }
    assert!(lpr.num_components() >= 3 && lpr.num_tombstones() > 0);
    lpr
}

/// Steady-state k-NN is allocation-free: every heap of the best-first
/// search and the tombstone filter's consumption map live in the
/// `QueryScratch`, over one tree and over an LPR-tree's whole forest
/// (buffer chunks + components, with tombstones).
#[test]
fn warmed_knn_allocates_nothing() {
    let _alone = alone();
    let params = TreeParams::with_cap::<2>(8);
    let items = random_items(4_000, 18);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = PrTreeLoader::default()
        .load(dev, params, items.clone())
        .unwrap();
    tree.warm_cache().unwrap();
    let lpr = tombstoned_lpr(params, &items[..1_000]);

    let points: Vec<Point<2>> = (0..64)
        .map(|i| Point::new([(i * 131 % 1000) as f64, (i * 577 % 1000) as f64]))
        .collect();
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let mut pass = |scratch: &mut QueryScratch<2>| {
        let mut results = 0;
        for p in &points {
            results += tree
                .nearest_neighbors_into(p, 10, scratch, &mut out)
                .unwrap()
                .results;
            results += lpr
                .nearest_neighbors_into(p, 10, scratch, &mut out)
                .unwrap()
                .results;
        }
        results
    };
    let (warm, sizing) = allocations_in(|| pass(&mut scratch));
    assert!(sizing > 0, "the first pass sizes the scratch");
    let (again, allocations) = allocations_in(|| pass(&mut scratch));
    assert_eq!(again, warm);
    assert_eq!(warm, 2 * 10 * points.len() as u64);
    assert_eq!(
        allocations, 0,
        "a warmed k-NN allocated {allocations} times"
    );
}

/// Steady-state windows, counts and exact matches are allocation-free
/// on a warmed tree: internal nodes come from the cache, leaves are
/// scanned in place, and the stack, mask and output are reused. So are
/// windows over an LPR-tree with tombstones.
#[test]
fn warmed_windows_allocate_nothing() {
    let _alone = alone();
    let params = TreeParams::paper_2d();
    let items = random_items(20_000, 19);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = PrTreeLoader::default()
        .load(dev, params, items.clone())
        .unwrap();
    tree.warm_cache().unwrap();
    assert!(tree.root_level() >= 1);
    let lpr = tombstoned_lpr(TreeParams::with_cap::<2>(8), &items[..1_000]);

    let windows: Vec<Rect<2>> = (0..64)
        .map(|i| {
            let (x, y) = ((i * 131 % 1000) as f64, (i * 577 % 1000) as f64);
            Rect::xyxy(x, y, x + 40.0, y + 40.0)
        })
        .collect();
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let mut pass = |scratch: &mut QueryScratch<2>| {
        let (mut reported, mut counted, mut found, mut lpr_live) = (0, 0, 0, 0);
        for (q, victim) in windows.iter().zip(items.iter().step_by(97)) {
            reported += tree.window_into(q, scratch, &mut out).unwrap().results;
            counted += tree.window_count_into(q, scratch).unwrap().0;
            found += tree.count_exact(victim, scratch).unwrap().results;
            lpr_live += lpr.window_into(q, scratch, &mut out).unwrap().results;
        }
        (reported, counted, found, lpr_live)
    };
    let (warm, sizing) = allocations_in(|| pass(&mut scratch));
    assert!(sizing > 0, "the first pass sizes the scratch");
    let (again, allocations) = allocations_in(|| pass(&mut scratch));
    assert_eq!(again, warm);
    assert!(warm.0 > 0 && warm.0 == warm.1, "{warm:?}");
    assert_eq!(warm.2, windows.len() as u64);
    assert!(warm.3 > 0, "{warm:?}");
    assert_eq!(
        allocations, 0,
        "warmed windows, counts, exact matches and LPR windows allocated {allocations} times"
    );
}

/// Collecting a checkpoint's `(key, count)` entries into [`Tombstones`]
/// (what a live index's reopen does) sizes the map once from the
/// iterator's length: no rehash on the way to 10 000 keys.
#[test]
fn collected_tombstones_allocate_once() {
    let _alone = alone();
    let entries: Vec<(TombstoneKey<2>, u32)> = random_items(10_000, 20)
        .iter()
        .map(|item| (TombstoneKey::of(item), 1 + item.id % 3))
        .collect();
    let (set, allocations) = allocations_in(|| entries.iter().copied().collect::<Tombstones<2>>());
    assert_eq!(set.entries().len(), 10_000);
    assert_eq!(
        allocations, 1,
        "collecting 10 000 tombstone keys allocated {allocations} times"
    );
}
