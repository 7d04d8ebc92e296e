//! `tree_leaf_cache_resident_bytes` is one process-wide gauge summed
//! over every live `LeafCache`, so this check owns its own test binary:
//! the crate's unit tests admit into other caches on parallel threads.

use pr_geom::Rect;
use pr_tree::page::NodePage;
use pr_tree::{Entry, LeafCache, SoaNode};
use std::sync::Arc;

fn leaf(n: usize) -> Arc<SoaNode<2>> {
    let entries = (0..n)
        .map(|i| Entry::new(Rect::xyxy(i as f64, 0.0, i as f64 + 1.0, 1.0), i as u32))
        .collect();
    Arc::new(SoaNode::from_page(&NodePage::new(0, entries)))
}

#[test]
fn dropping_a_leaf_cache_returns_its_bytes_to_the_gauge() {
    let gauge = &pr_tree::obs::metrics().leaf_cache_resident_bytes;
    let start = gauge.get();
    for _ in 0..3 {
        let cache = LeafCache::<2>::new(1 << 20);
        let epoch = cache.register_epoch();
        for page in 0..50u64 {
            // Admission is second-touch: offer every page twice.
            cache.admit(epoch, page, leaf(8));
            cache.admit(epoch, page, leaf(8));
        }
        assert_eq!(cache.len(), 50);
        assert_eq!(gauge.get(), start + cache.resident_bytes() as u64);
    }
    assert_eq!(gauge.get(), start, "a dropped cache must leave no bytes");
}
