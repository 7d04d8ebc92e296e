//! A failed traversal is not a completed query. `tree_queries_total`
//! counts completed traversals, so a window, a k-NN search and an
//! exact-match probe that die on a corrupt leaf add nothing to it, while
//! the failed page read still counts as a node-cache miss.
//!
//! One test in its own binary, because the registry is process-global.

use pr_em::{BlockDevice, BlockId, EmError, MemDevice};
use pr_geom::{Item, Rect};
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::BulkLoader;
use pr_tree::{QueryScratch, TreeParams};
use std::sync::Arc;

#[test]
fn failed_traversals_count_misses_not_queries() {
    let params = TreeParams::with_cap::<2>(8);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let items: Vec<Item<2>> = (0..512u32)
        .map(|i| {
            let (x, y) = ((i % 32) as f64, (i / 32) as f64);
            Item::new(Rect::xyxy(x, y, x + 0.6, y + 0.6), i)
        })
        .collect();
    let tree = PrTreeLoader::default()
        .load(Arc::clone(&dev), params, items)
        .unwrap();
    tree.warm_cache().unwrap();

    // The first leaf down the leftmost path, and one of its items.
    let mut page = tree.root();
    let leaf = loop {
        let (node, _) = tree.read_node(page).unwrap();
        if node.is_leaf() {
            break node;
        }
        page = node.entries[0].ptr as BlockId;
    };
    let victim = leaf.entries[0].to_item();
    let mut buf = vec![0u8; dev.block_size()];
    dev.read_block(page, &mut buf).unwrap();
    buf[..4].copy_from_slice(b"XXXX");
    dev.write_block(page, &buf).unwrap();

    let m = pr_tree::obs::metrics();
    let queries = || [&m.window_queries, &m.knn_queries, &m.exact_queries].map(|c| c.get());
    let (queries_before, misses_before) = (queries(), m.node_cache_misses.get());

    let scratch = &mut QueryScratch::new();
    let corrupt = |r: Result<(), EmError>| matches!(r, Err(EmError::Corrupt(_)));
    assert!(corrupt(
        tree.window_into(&victim.rect, scratch, &mut Vec::new())
            .map(drop)
    ));
    let inside = victim.rect.center();
    assert!(corrupt(
        tree.nearest_neighbors_into(&inside, 1, scratch, &mut Vec::new())
            .map(drop)
    ));
    assert!(corrupt(tree.count_exact(&victim, scratch).map(drop)));

    assert_eq!(
        queries(),
        queries_before,
        "window, knn and exact: a failed traversal is not a completed query"
    );
    assert!(
        m.node_cache_misses.get() >= misses_before + 3,
        "each failed read is one node-cache miss"
    );
}
