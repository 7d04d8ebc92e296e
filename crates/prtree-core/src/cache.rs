//! The node cache: one copy-on-write map of internal nodes per tree.
//!
//! The paper's query experiments keep *all internal nodes* cached ("they
//! never occupied more than 6MB", §3.3), so reported query I/O equals the
//! number of leaves fetched. Leaves always come from the device (for
//! store-backed trees that is the mmap'd, verify-once snapshot, i.e. the
//! OS page cache); the cache holds internal nodes only, in the SoA form
//! the query kernels scan ([`SoaNode`]).
//!
//! # Design
//!
//! A tree's cache is one immutable [`FrozenMap`] behind one
//! `parking_lot::RwLock`:
//!
//! * **Reads.** Each traversal clones the map's `Arc` once
//!   (`NodeCache::snapshot`) and probes that plain `HashMap` per node
//!   visit, with no lock and no refcount traffic in the hot loop. A
//!   snapshot never changes, so a traversal reads one consistent map
//!   whatever other threads admit meanwhile.
//! * **Warm.** [`crate::tree::RTree::warm_cache`] reads every internal
//!   node and installs the whole map at once (`NodeCache::install`),
//!   the paper's steady-state query configuration.
//! * **Cold admission.** On a tree that was never warmed (a fresh
//!   `attach`, a logarithmic-method component), a traversal collects its
//!   internal-node misses and admits them when it ends
//!   (`NodeCache::admit`): under the write lock, `Arc::make_mut` copies
//!   the map only if another traversal still holds a snapshot of it, so
//!   each traversal costs at most one map copy per tree, and none once
//!   every internal node it reaches is cached.
//! * **Updates.** A Guttman update rewrites pages through `&mut RTree`,
//!   so no traversal is running; `NodeCache::rewrite` edits the map in
//!   place (a snapshot held elsewhere keeps the old nodes).
//!
//! The cache counts nothing. A query's [`crate::query::QueryStats`] is
//! its tally: a node visit is a hit unless it read the device
//! (`device_reads`), flushed once per traversal into the registry's
//! `tree_node_cache_{hits,misses}_total` ([`crate::obs`]).

use crate::soa::SoaNode;
use parking_lot::RwLock;
use pr_em::BlockId;
use std::collections::HashMap;
use std::sync::Arc;

/// An immutable snapshot of a tree's cached internal nodes. Traversals
/// clone the `Arc` once and index it lock-free per node visit.
pub(crate) type FrozenMap<const D: usize> = Arc<HashMap<BlockId, Arc<SoaNode<D>>>>;

/// A tree's node cache (see the module docs).
pub(crate) struct NodeCache<const D: usize> {
    map: RwLock<FrozenMap<D>>,
}

impl<const D: usize> NodeCache<D> {
    /// An empty (cold) cache.
    pub(crate) fn new() -> Self {
        NodeCache {
            map: RwLock::new(Arc::default()),
        }
    }

    /// The current map, cloned once per traversal.
    pub(crate) fn snapshot(&self) -> FrozenMap<D> {
        Arc::clone(&self.map.read())
    }

    /// Replaces the whole map (what `warm_cache` built).
    pub(crate) fn install(&self, map: HashMap<BlockId, Arc<SoaNode<D>>>) {
        *self.map.write() = Arc::new(map);
    }

    /// Admits internal nodes read on misses (leaves are never cached).
    /// Copies the map at most once, and only if a snapshot of it is
    /// still held, so callers drop their own snapshot first.
    pub(crate) fn admit(&self, nodes: impl IntoIterator<Item = (BlockId, Arc<SoaNode<D>>)>) {
        let mut guard = self.map.write();
        let map = Arc::make_mut(&mut guard);
        for (page, node) in nodes {
            debug_assert!(node.level() > 0, "page {page} is a leaf");
            map.entry(page).or_insert(node);
        }
    }

    /// `page` was rewritten to `node`; `None` drops it (it is a leaf
    /// now). `&mut self`: no traversal is reading the map.
    pub(crate) fn rewrite(&mut self, page: BlockId, node: Option<Arc<SoaNode<D>>>) {
        let map = Arc::make_mut(self.map.get_mut());
        match node {
            Some(node) => map.insert(page, node),
            None => map.remove(&page),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;
    use crate::page::NodePage;
    use crate::params::TreeParams;
    use crate::tree::RTree;
    use pr_em::{BlockDevice, MemDevice};
    use pr_geom::{Item, Rect};

    fn node(level: u8) -> Arc<SoaNode<2>> {
        Arc::new(SoaNode::from_page(&NodePage::new(
            level,
            vec![Entry::new(Rect::xyxy(0.0, 0.0, 1.0, 1.0), 0)],
        )))
    }

    /// A cold cache serves nothing, and a snapshot taken before an
    /// admission never sees it.
    #[test]
    fn none_policy_never_caches() {
        let c = NodeCache::new();
        let cold = c.snapshot();
        assert!(cold.is_empty());
        c.admit([(1, node(2))]);
        assert!(cold.get(&1).is_none(), "a held snapshot is immutable");
        assert!(c.snapshot().get(&1).is_some());
    }

    /// A tree of 20 items with 4 per node, built by Guttman inserts.
    fn guttman_tree() -> RTree<2> {
        let params = TreeParams::with_cap::<2>(4);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let mut t = RTree::<2>::new_empty(dev, params).unwrap();
        for i in 0..20 {
            t.insert(item(i)).unwrap();
        }
        t
    }

    fn item(i: u32) -> Item<2> {
        Item::new(Rect::xyxy(i as f64, 0.0, i as f64 + 0.5, 1.0), i)
    }

    /// A cold tree's leaf scan and `read_node` of every page admit its
    /// internal nodes and never a leaf.
    #[test]
    fn internal_policy_skips_leaves() {
        let built = guttman_tree();
        let t = RTree::<2>::from_parts(Arc::clone(built.device()), built.meta()).unwrap();
        assert!(t.cache_snapshot().is_empty(), "a fresh handle is cold");
        assert_eq!(t.items().unwrap().len(), 20);
        let s = t.stats().unwrap();
        let map = t.cache_snapshot();
        assert_eq!(map.len() as u64, s.num_nodes() - s.num_leaves());
        assert!(map.values().all(|n| n.level() > 0));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = NodeCache::new();
        c.admit([(2, node(1)), (3, node(1))]);
        c.rewrite(2, None);
        c.rewrite(3, Some(node(2)));
        let map = c.snapshot();
        assert!(map.get(&2).is_none());
        assert_eq!(map[&3].level(), 2);
    }

    /// `install` replaces the map: entries it lacks are gone.
    #[test]
    fn clear_empties() {
        let c = NodeCache::new();
        c.admit([(2, node(1)), (3, node(3))]);
        c.install(HashMap::new());
        assert!(c.snapshot().is_empty());
    }

    /// A snapshot probe borrows the cached node in place.
    #[test]
    fn lookup_with_runs_in_place() {
        let c = NodeCache::new();
        c.admit([(2, node(1))]);
        let map = c.snapshot();
        assert_eq!(map.get(&2).map(|n| n.level()), Some(1));
        assert_eq!(map.get(&9).map(|n| n.level()), None);
        assert!(Arc::ptr_eq(&map, &c.snapshot()), "no admission, no copy");
    }

    /// A snapshot held across a Guttman insert that rewrites internal
    /// pages still answers from the old nodes; the next traversal sees
    /// the new ones, with no device read for an internal node.
    #[test]
    fn snapshot_survives_a_guttman_insert() {
        let mut t = guttman_tree();
        t.warm_cache().unwrap();
        let held = t.cache_snapshot();
        let before: Vec<_> = held.iter().map(|(&p, n)| (p, n.to_page())).collect();

        t.insert(item(100)).unwrap();
        for (p, node) in &before {
            assert_eq!(held[p].to_page(), *node, "held snapshot unchanged");
        }
        let now = t.cache_snapshot();
        assert!(before
            .iter()
            .any(|(p, node)| now.get(p).map(|n| n.to_page()).as_ref() != Some(node)));
        for (&p, node) in now.iter() {
            let on_device = NodePage::read(t.device().as_ref(), p).unwrap();
            assert_eq!(node.to_page(), on_device, "page {p}");
        }

        let q = Rect::xyxy(100.0, 0.0, 101.0, 1.0);
        let (hits, stats) = t.window_with_stats(&q).unwrap();
        assert_eq!(hits, [item(100)]);
        assert_eq!(stats.device_reads, stats.leaves_visited);
    }

    #[test]
    fn concurrent_readers_count_exactly() {
        let c = NodeCache::<2>::new();
        c.admit((0..64u64).map(|p| (p, node(1))));
        // A reader's panic fails the scope, so every outcome is checked.
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = &c;
                s.spawn(move || {
                    let held = c.snapshot();
                    for i in 0..1000u64 {
                        // Even lookups are cached pages and hit; odd ones miss.
                        let cached = i % 2 == 0;
                        let page = (i + t) % 64 + if cached { 0 } else { 1000 };
                        assert_eq!(c.snapshot().get(&page).is_some(), cached, "page {page}");
                    }
                    // Admit while a snapshot is held: copy-on-write.
                    c.admit([(2000 + t, node(1))]);
                    assert!(held.get(&(2000 + t)).is_none());
                });
            }
        });
        let map = c.snapshot();
        assert_eq!(map.len(), 64 + 8, "no concurrent admission is lost");
        assert!((2000..2008).all(|p| map.contains_key(&p)));
    }
}
