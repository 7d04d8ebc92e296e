//! What a commit costs in I/O calls: a new run goes down in one
//! positioned write per 1 MiB chunk, with its checksum table, the
//! manifest and the footer riding the last one — not one write per
//! page.
//!
//! Alone in its binary on purpose: the op counter is the process-wide
//! `pr_em::fault` hook, which any concurrently running test would feed.

use pr_em::fault::{self, FaultSchedule};
use pr_em::MemDevice;
use pr_geom::{Item, Rect};
use pr_store::Store;
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::BulkLoader;
use pr_tree::TreeParams;
use std::sync::Arc;

#[test]
fn a_commit_writes_once_per_chunk_not_once_per_page() {
    let _hook = fault::exclusive();
    let dir = std::env::temp_dir().join(format!("pr-store-commit-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let params = TreeParams::paper_2d();
    // A leaf-only tree, one under a chunk, one spanning two.
    for n in [50u32, 3_000, 40_000] {
        let items: Vec<Item<2>> = (0..n)
            .map(|i| {
                let (x, y) = (f64::from(i % 200), f64::from(i / 200));
                Item::new(Rect::xyxy(x, y, x + 0.5, y + 0.5), i)
            })
            .collect();
        let tree = PrTreeLoader::default()
            .load(Arc::new(MemDevice::new(params.page_size)), params, items)
            .unwrap();
        let path = dir.join(format!("{n}.prt"));
        let mut store = Store::create::<2>(&path, params).unwrap();

        let guard = fault::install(FaultSchedule::count_only(1));
        store.save_components(&[&tree], b"app").unwrap();
        let ops = fault::op_count();
        drop(guard);

        let pages = store.total_pages();
        let chunks = (pages * params.page_size as u64).div_ceil(1 << 20);
        // File-realm ops of a commit: its writes and the two fsyncs
        // (body, superblock flip). The source tree lives on a
        // `MemDevice`, whose reads are not file ops.
        let writes = ops - 2;
        assert!(
            (2..=chunks + 2).contains(&writes),
            "{pages} pages ({chunks} chunks) took {writes} writes"
        );
        // And the file they produced is what a reader expects.
        drop(store);
        let reopened = Store::open_tree::<2>(&path).unwrap();
        assert_eq!(reopened.len(), u64::from(n));
        assert_eq!(reopened.items().unwrap().len(), n as usize);
    }
    std::fs::remove_dir_all(&dir).ok();
}
