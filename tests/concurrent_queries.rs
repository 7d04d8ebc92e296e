//! Concurrent-read correctness for the node cache: one copy-on-write
//! map per tree.
//!
//! The contract: any number of threads may query one `&RTree`
//! concurrently, and on a warmed tree neither results nor any query's
//! `QueryStats` (its leaf I/Os and device reads, which are also its
//! node-cache hits and misses) may differ from a serial run. On a cold
//! tree, concurrent misses are admitted copy-on-write and none is lost.
//! These tests pin that down against `brute_force_window` ground truth.

use prtree::em::{BlockId, EmError, IoCounters};
use prtree::prelude::*;
use prtree::tree::query::brute_force_window;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let x: f64 = rng.gen_range(0.0..100.0);
            let y: f64 = rng.gen_range(0.0..100.0);
            let w: f64 = rng.gen_range(0.0..3.0);
            let h: f64 = rng.gen_range(0.0..3.0);
            Item::new(Rect::xyxy(x, y, x + w, y + h), i)
        })
        .collect()
}

fn random_windows(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..90.0);
            let y: f64 = rng.gen_range(0.0..90.0);
            let w: f64 = rng.gen_range(0.5..10.0);
            let h: f64 = rng.gen_range(0.5..10.0);
            Rect::xyxy(x, y, x + w, y + h)
        })
        .collect()
}

fn build(items: &[Item<2>]) -> RTree<2> {
    let params = TreeParams::with_cap::<2>(16);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    PrTreeLoader::default()
        .load(dev, params, items.to_vec())
        .unwrap()
}

fn sorted_ids(items: &[Item<2>]) -> Vec<u32> {
    let mut ids: Vec<u32> = items.iter().map(|i| i.id).collect();
    ids.sort_unstable();
    ids
}

/// Answers `queries` on `threads` scoped threads over contiguous chunks,
/// one `QueryScratch` per thread, results in input order.
fn windows_on_threads(
    tree: &RTree<2>,
    queries: &[Rect<2>],
    threads: usize,
) -> Vec<(Vec<Item<2>>, QueryStats)> {
    let chunk = queries.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|qs| {
                scope.spawn(move || {
                    let mut scratch = QueryScratch::new();
                    qs.iter()
                        .map(|q| {
                            let mut out = Vec::new();
                            let stats = tree.window_into(q, &mut scratch, &mut out).unwrap();
                            (out, stats)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("query thread panicked"))
            .collect()
    })
}

#[test]
fn n_threads_of_random_windows_match_brute_force() {
    let items = random_items(4_000, 21);
    let tree = build(&items);
    tree.warm_cache().unwrap();
    let windows = random_windows(64, 22);

    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let tree = &tree;
            let items = &items;
            let windows = &windows;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(100 + t);
                for _ in 0..40 {
                    let q = &windows[rng.gen_range(0..windows.len())];
                    let got = tree.window(q).unwrap();
                    let want = brute_force_window(items, q);
                    assert_eq!(sorted_ids(&got), sorted_ids(&want), "window {q:?}");
                }
            });
        }
    });
}

#[test]
fn threaded_windows_match_serial_results_and_leaf_ios() {
    let items = random_items(6_000, 31);
    let tree = build(&items);
    tree.warm_cache().unwrap();
    let windows = random_windows(200, 32);

    let serial: Vec<_> = windows
        .iter()
        .map(|q| tree.window_with_stats(q).unwrap())
        .collect();

    for threads in [1, 2, 4, 8] {
        let parallel = windows_on_threads(&tree, &windows, threads);
        assert_eq!(parallel.len(), serial.len());
        for (i, ((pr, ps), (sr, ss))) in parallel.iter().zip(&serial).enumerate() {
            assert_eq!(
                sorted_ids(pr),
                sorted_ids(sr),
                "query {i} results differ at {threads} threads"
            );
            assert_eq!(
                ps, ss,
                "query {i} stats differ at {threads} threads (incl. leaf I/Os)"
            );
        }
    }
}

#[test]
fn threaded_windows_handle_edge_batches() {
    let items = random_items(500, 51);
    let tree = build(&items);
    tree.warm_cache().unwrap();

    // Empty batch.
    assert!(windows_on_threads(&tree, &[], 4).is_empty());

    // More threads than queries.
    let one = vec![Rect::xyxy(10.0, 10.0, 20.0, 20.0)];
    let got = windows_on_threads(&tree, &one, 16);
    assert_eq!(got.len(), 1);
    let (serial, serial_stats) = tree.window_with_stats(&one[0]).unwrap();
    assert_eq!(sorted_ids(&got[0].0), sorted_ids(&serial));
    assert_eq!(got[0].1, serial_stats);
}

#[test]
fn concurrent_knn_agrees_with_serial() {
    let items = random_items(3_000, 61);
    let tree = build(&items);
    tree.warm_cache().unwrap();

    let serial: Vec<Vec<u32>> = (0..16)
        .map(|i| {
            let p = Point::new([(i * 6) as f64, (i * 5) as f64]);
            tree.nearest_neighbors(&p, 10)
                .unwrap()
                .iter()
                .map(|(it, _)| it.id)
                .collect()
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let tree = &tree;
            let serial = &serial;
            scope.spawn(move || {
                for (i, want) in serial.iter().enumerate() {
                    let p = Point::new([(i * 6) as f64, (i * 5) as f64]);
                    let got: Vec<u32> = tree
                        .nearest_neighbors(&p, 10)
                        .unwrap()
                        .iter()
                        .map(|(it, _)| it.id)
                        .collect();
                    assert_eq!(&got, want, "thread {t} query {i}");
                }
            });
        }
    });
}

/// The race pin for copy-on-write admission: 8 threads split the
/// windows over one unwarmed tree, so their internal-node misses are
/// admitted concurrently. Each round starts from a fresh cold handle.
#[test]
fn uncached_concurrent_queries_still_correct() {
    let items = random_items(20_000, 71);
    let built = build(&items);
    let cold = || RTree::<2>::from_parts(Arc::clone(built.device()), built.meta()).unwrap();
    let windows = random_windows(256, 72);
    let serial_tree = cold();
    let serial: Vec<_> = windows
        .iter()
        .map(|q| serial_tree.window_with_stats(q).unwrap())
        .collect();
    assert!(
        serial[0].1.device_reads > serial[0].1.leaves_visited,
        "cold"
    );
    let brute: Vec<_> = windows
        .iter()
        .map(|q| sorted_ids(&brute_force_window(&items, q)))
        .collect();

    for round in 0..4 {
        let tree = cold();
        let parallel = windows_on_threads(&tree, &windows, 8);
        for (i, ((got, stats), (want, want_stats))) in parallel.iter().zip(&serial).enumerate() {
            assert_eq!(
                sorted_ids(got),
                sorted_ids(want),
                "round {round} window {i}"
            );
            assert_eq!(sorted_ids(got), brute[i], "round {round} window {i}");
            assert_eq!(stats.nodes_visited, want_stats.nodes_visited);
            assert_eq!(stats.leaves_visited, want_stats.leaves_visited);
        }
        // Every internal node the windows reached was admitted and kept.
        for (i, q) in windows.iter().enumerate() {
            let (_, stats) = tree.window_with_stats(q).unwrap();
            assert_eq!(
                stats.device_reads, stats.leaves_visited,
                "round {round} window {i}: an admission was lost"
            );
        }
    }
}

/// Forwards to a `MemDevice`, but panics on every read while armed.
struct PanickyDevice {
    inner: MemDevice,
    armed: AtomicBool,
}

impl BlockDevice for PanickyDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn allocate(&self, n: u64) -> BlockId {
        self.inner.allocate(n)
    }
    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<(), EmError> {
        if self.armed.load(Ordering::Relaxed) {
            panic!("injected poison read of block {block}");
        }
        self.inner.read_block(block, buf)
    }
    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<(), EmError> {
        self.inner.write_block(block, buf)
    }
    fn counters(&self) -> &Arc<IoCounters> {
        self.inner.counters()
    }
}

#[test]
fn tree_still_answers_after_a_thread_panicked_mid_query() {
    let items = random_items(2_000, 81);
    let params = TreeParams::with_cap::<2>(16);
    let dev = Arc::new(PanickyDevice {
        inner: MemDevice::new(params.page_size),
        armed: AtomicBool::new(false),
    });
    let tree = PrTreeLoader::default()
        .load(
            Arc::clone(&dev) as Arc<dyn BlockDevice>,
            params,
            items.clone(),
        )
        .unwrap();
    // Internal nodes are cached, so a query's device reads are its leaves.
    tree.warm_cache().unwrap();
    let windows = random_windows(16, 82);

    dev.armed.store(true, Ordering::Relaxed);
    std::thread::scope(|scope| {
        let died = scope.spawn(|| tree.window(&windows[0])).join();
        assert!(died.is_err(), "an armed device panics the query thread");
    });

    // The tree survives its reader's panic: heal the device and query
    // again.
    dev.armed.store(false, Ordering::Relaxed);
    for (q, (got, _)) in windows.iter().zip(windows_on_threads(&tree, &windows, 2)) {
        assert_eq!(
            sorted_ids(&got),
            sorted_ids(&brute_force_window(&items, q)),
            "window {q:?}"
        );
    }
}
