//! The page-level R-tree runtime shared by all variants.
//!
//! An [`RTree`] is a handle: a device, a root page id, the root's level,
//! and a node cache. Every bulk loader in [`crate::bulk`] produces this
//! same representation, so query costs are directly comparable — only the
//! *shape* of the tree differs between variants, exactly as in the paper.

use crate::cache::{FrozenMap, NodeCache};
use crate::dynamic::membership::MembershipFilter;
use crate::dynamic::tombstone::TombstoneKey;
use crate::leaf::LeafRecords;
use crate::meta::TreeMeta;
use crate::obs::QueryKind;
use crate::page::{page_header, NodePage};
use crate::params::TreeParams;
use crate::query::QueryStats;
use crate::scratch::QueryScratch;
use crate::soa::SoaNode;
use parking_lot::RwLock;
use pr_em::{BlockDevice, BlockId, EmError};
use pr_geom::Item;
use pr_obs::trace::{self, OpTrace};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A height-balanced R-tree stored on a block device.
///
/// The handle is `Send + Sync` (statically asserted below): the node
/// cache is one copy-on-write map (`crate::cache`) and the device is
/// `Send + Sync` by trait bound, so any number of threads may run
/// queries on one `&RTree` concurrently. Mutation (`&mut self` dynamic
/// updates) follows the usual exclusive-borrow rules.
pub struct RTree<const D: usize> {
    dev: Arc<dyn BlockDevice>,
    params: TreeParams,
    root: BlockId,
    root_level: u8,
    len: u64,
    cache: NodeCache<D>,
    /// Built on the first [`RTree::may_contain`], cleared by every
    /// [`RTree::write_node`] ([`crate::dynamic::membership`]).
    membership: RwLock<Option<MembershipFilter>>,
}

// Compile-time proof that trees can be shared across threads; fails to
// compile if any field loses Send/Sync.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RTree<2>>();
    assert_send_sync::<RTree<3>>();
};

/// One node as a traversal reads it ([`Walk::visit`]).
pub(crate) enum NodeView<'a, const D: usize> {
    /// An internal node: cached, or transcoded into the query's scratch.
    Internal(&'a SoaNode<D>),
    /// A leaf's records, borrowed in place from the device.
    Leaf(LeafRecords<'a, D>),
}

impl<const D: usize> RTree<D> {
    /// Wraps an existing tree: `root` is the page id of the root node at
    /// `root_level` (0 for a single-leaf tree), `len` the number of items.
    ///
    /// Bulk loaders call this; it is public so trees can be reattached
    /// after a device is persisted elsewhere.
    pub(crate) fn attach(
        dev: Arc<dyn BlockDevice>,
        params: TreeParams,
        root: BlockId,
        root_level: u8,
        len: u64,
    ) -> Self {
        RTree {
            dev,
            params,
            root,
            root_level,
            len,
            cache: NodeCache::new(),
            membership: RwLock::new(None),
        }
    }

    /// Reopens a tree from persisted metadata — the open path used by
    /// `pr-store` after it has validated checksums and picked a committed
    /// snapshot. Produces the same handle as `RTree::attach` (a cold
    /// node cache; [`RTree::warm_cache`] works as usual) but validates
    /// the metadata against the device instead of trusting it: the root
    /// must be an allocated block and the device's block size must match
    /// the recorded page size.
    pub fn from_parts(dev: Arc<dyn BlockDevice>, meta: TreeMeta) -> Result<Self, EmError> {
        if dev.block_size() != meta.params.page_size {
            return Err(EmError::Corrupt(format!(
                "device block size {} does not match tree page size {}",
                dev.block_size(),
                meta.params.page_size
            )));
        }
        if meta.root >= dev.num_blocks() {
            return Err(EmError::BlockOutOfRange {
                block: meta.root,
                len: dev.num_blocks(),
            });
        }
        Ok(RTree::attach(
            dev,
            meta.params,
            meta.root,
            meta.root_level,
            meta.len,
        ))
    }

    /// The serializable metadata describing this tree (everything a
    /// persisted copy needs besides the pages themselves).
    pub fn meta(&self) -> TreeMeta {
        TreeMeta {
            params: self.params,
            root: self.root,
            root_level: self.root_level,
            len: self.len,
        }
    }

    /// Creates an empty tree (a zero-entry leaf root) — the starting point
    /// for dynamic insertion.
    pub fn new_empty(dev: Arc<dyn BlockDevice>, params: TreeParams) -> Result<Self, EmError> {
        let root = NodePage::<D>::new(0, Vec::new()).append(dev.as_ref())?;
        Ok(RTree::attach(dev, params, root, 0, 0))
    }

    /// Number of indexed items.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height in levels (1 for a single-leaf tree).
    pub fn height(&self) -> u32 {
        self.root_level as u32 + 1
    }

    /// Root page id.
    pub fn root(&self) -> BlockId {
        self.root
    }

    /// Level of the root node (height − 1).
    pub fn root_level(&self) -> u8 {
        self.root_level
    }

    /// Tree parameters.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// The backing device (shared).
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.dev
    }

    /// Reads a node through the cache in decoded AoS form. Returns the
    /// node and whether the read hit the device (`true` = one real I/O).
    ///
    /// This is the **maintenance/write boundary**: the cache stores
    /// [`SoaNode`]s, so a cache hit converts back to a [`NodePage`]
    /// (one allocation), which the caller owns and may edit. Dynamic updates, validation, and the bulk-load
    /// inspectors use this; the query hot path goes through
    /// the crate's one node visit instead and never materializes
    /// entries.
    pub fn read_node(&self, page: BlockId) -> Result<(NodePage<D>, bool), EmError> {
        if let Some(n) = self.cache.snapshot().get(&page) {
            return Ok((n.to_page(), false));
        }
        let node = NodePage::read(self.dev.as_ref(), page)?;
        if let Some(soa) = Self::cached_form(&node) {
            self.cache.admit([(page, soa)]);
        }
        Ok((node, true))
    }

    /// The internal node's SoA form the cache holds; `None` for a leaf.
    fn cached_form(node: &NodePage<D>) -> Option<Arc<SoaNode<D>>> {
        (!node.is_leaf()).then(|| Arc::new(SoaNode::from_page(node)))
    }

    /// The node cache's current map, cloned once per traversal.
    pub(crate) fn cache_snapshot(&self) -> FrozenMap<D> {
        self.cache.snapshot()
    }

    /// Writes a node page and updates its cache entry. Only Guttman
    /// updates call it, on `&mut self`, so no query reads the cache
    /// meanwhile. An internal page is transcoded to its SoA form at this
    /// boundary so queries keep reading columns. This is the one
    /// mutation path, so it also drops the membership filter; the next
    /// [`RTree::may_contain`] rebuilds it from the new leaves.
    pub(crate) fn write_node(&mut self, page: BlockId, node: &NodePage<D>) -> Result<(), EmError> {
        node.write(self.dev.as_ref(), page)?;
        self.cache.rewrite(page, Self::cached_form(node));
        *self.membership.get_mut() = None;
        Ok(())
    }

    /// `false` only if the tree certainly stores no copy of `item`'s
    /// exact identity (id and coordinate bits, as
    /// [`same_identity`](crate::dynamic::same_identity) compares them).
    /// The first call builds the tree's membership filter
    /// (`crate::dynamic::membership`) with one leaf scan (`scratch`
    /// serves it); later calls are one hash and one cache line.
    pub fn may_contain(
        &self,
        item: &Item<D>,
        scratch: &mut QueryScratch<D>,
    ) -> Result<bool, EmError> {
        if let Some(admits) = self.filter_admits(item) {
            return Ok(admits);
        }
        let mut slot = self.membership.write();
        // Another prober may have built it while this one waited.
        if slot.is_none() {
            *slot = Some(MembershipFilter::of_tree(self, scratch)?);
        }
        let filter = slot.as_ref().expect("built above");
        Ok(filter.may_contain(&TombstoneKey::of(item)))
    }

    /// [`RTree::may_contain`]'s answer if the filter is built, `None` if
    /// it is not. Never builds it.
    pub(crate) fn filter_admits(&self, item: &Item<D>) -> Option<bool> {
        let slot = self.membership.read();
        slot.as_ref()
            .map(|f| f.may_contain(&TombstoneKey::of(item)))
    }

    /// Heap bytes held by the membership filter: 0 until the first
    /// [`RTree::may_contain`], and again after a node write.
    pub fn filter_bytes(&self) -> usize {
        self.membership.read().as_ref().map_or(0, |f| f.bytes())
    }

    /// Allocates a fresh page for a new node and writes it.
    pub(crate) fn append_node(&mut self, node: &NodePage<D>) -> Result<BlockId, EmError> {
        let page = self.dev.allocate(1);
        self.write_node(page, node)?;
        Ok(page)
    }

    /// Loads every internal node into the cache (the paper's setup: "in
    /// all our experiments we cached all internal nodes") and installs
    /// the whole map at once (`crate::cache` module docs). A node
    /// already cached is reused, not read again.
    pub fn warm_cache(&self) -> Result<(), EmError> {
        if self.root_level == 0 {
            // Single-leaf tree: nothing internal to cache.
            return Ok(());
        }
        let (dev, cached) = (self.dev.as_ref(), self.cache.snapshot());
        let mut map = HashMap::new();
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = match cached.get(&page) {
                Some(n) => Arc::clone(n),
                None => Arc::new(SoaNode::from_page(&NodePage::read(dev, page)?)),
            };
            if node.level() > 1 {
                stack.extend(node.ptrs().iter().map(|&p| p as BlockId));
            }
            map.insert(page, node);
        }
        self.cache.install(map);
        Ok(())
    }

    /// Applies `f` to every item in the tree (DFS order). Leaves are
    /// scanned in place (`crate::leaf::LeafRecords`); `f` must not write
    /// to this tree's device.
    pub fn for_each_item(&self, mut f: impl FnMut(Item<D>)) -> Result<(), EmError> {
        self.for_each_leaf(&mut QueryScratch::new(), |leaf| leaf.for_each_item(&mut f))
    }

    /// Runs `f` on every leaf's records (DFS order) on a [`Walk`]; it
    /// flushes only the node-cache pair.
    pub(crate) fn for_each_leaf(
        &self,
        scratch: &mut QueryScratch<D>,
        mut f: impl FnMut(LeafRecords<'_, D>),
    ) -> Result<(), EmError> {
        let descend = |n: &SoaNode<D>, _: &mut _, stack: &mut Vec<BlockId>| {
            stack.extend(n.ptrs().iter().map(|&p| p as BlockId))
        };
        self.dfs(scratch, None, descend, |records| {
            f(records);
            0
        })
        .map(drop)
    }

    /// Depth-first from the root on a [`Walk`] of `kind`: `descend` pushes
    /// the children of an internal node to open (the batch kernels write
    /// the scratch's mask), and `leaf` scans a leaf's records in place and
    /// returns how many matched, summed into `results`.
    pub(crate) fn dfs(
        &self,
        scratch: &mut QueryScratch<D>,
        kind: Option<QueryKind>,
        mut descend: impl FnMut(&SoaNode<D>, &mut Vec<u8>, &mut Vec<BlockId>),
        mut leaf: impl FnMut(LeafRecords<'_, D>) -> u64,
    ) -> Result<QueryStats, EmError> {
        let QueryScratch {
            stack,
            page_buf,
            mask,
            soa,
            ..
        } = scratch;
        let mut walk = Walk::new(page_buf, soa, kind);
        let cached = self.cache_snapshot();
        stack.clear();
        stack.push(self.root);
        let result = (|| {
            while let Some(page) = stack.pop() {
                let matched = walk.visit(self, &cached, page, |n| match n {
                    NodeView::Leaf(records) => leaf(records),
                    NodeView::Internal(n) => {
                        descend(n, mask, stack);
                        0
                    }
                })?;
                walk.stats.results += matched;
            }
            Ok(())
        })();
        // Unshare the map first, so admitting this walk's misses copies
        // it only if another traversal holds it.
        drop(cached);
        walk.finish(result)
    }

    /// All items in the tree (test/rebuild helper).
    pub fn items(&self) -> Result<Vec<Item<D>>, EmError> {
        let mut out = Vec::with_capacity(self.len as usize);
        self.for_each_item(|i| out.push(i))?;
        Ok(out)
    }

    /// Structural statistics: node counts and fill per level.
    pub fn stats(&self) -> Result<TreeStructure, EmError> {
        let levels = self.root_level as usize + 1;
        let mut nodes = vec![0u64; levels];
        let mut entries = vec![0u64; levels];
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let (node, _) = self.read_node(page)?;
            let l = node.level as usize;
            nodes[l] += 1;
            entries[l] += node.len() as u64;
            if !node.is_leaf() {
                for e in &node.entries {
                    stack.push(e.ptr as BlockId);
                }
            }
        }
        Ok(TreeStructure {
            nodes_per_level: nodes,
            entries_per_level: entries,
            leaf_cap: self.params.leaf_cap,
        })
    }

    // Internal accessors for sibling modules (dynamic updates).
    pub(crate) fn set_root(&mut self, root: BlockId, root_level: u8) {
        self.root = root;
        self.root_level = root_level;
    }

    pub(crate) fn bump_len(&mut self, delta: i64) {
        self.len = (self.len as i64 + delta) as u64;
    }
}

/// One traversal's node visits: the crate's one node-visit path.
/// Every traversal ([`RTree::dfs`], [`crate::knn::KnnSearch::run`]) runs
/// its own descend test, leaf kernel and frontier on top of it.
///
/// [`Walk::visit`] resolves a page and counts it in [`Walk::stats`]. A
/// walk of a query kind that traces ([`QueryKind::trace`]) opens its
/// operation's trace ([`pr_obs::trace::start`]: one relaxed load when
/// tracing is off); when sampled, each visit also tallies its level and
/// each device read its `em/page_read` span. [`Walk::finish`] admits the
/// walk's internal-node misses to their trees' caches, flushes the
/// registry once ([`crate::obs::record_walk`]) and publishes the trace.
pub(crate) struct Walk<'s, 't, const D: usize> {
    page_buf: &'s mut Vec<u8>,
    soa: &'s mut SoaNode<D>,
    kind: Option<QueryKind>,
    /// The walk's operation trace, if its kind traces.
    trace: Option<OpTrace>,
    /// The traversal span's name and start, when the trace is sampled.
    traverse: Option<(&'static str, Instant)>,
    /// Internal nodes read from the device, admitted at [`Walk::finish`].
    misses: Vec<(&'t RTree<D>, BlockId, Arc<SoaNode<D>>)>,
    /// Nodes, leaves, internal nodes and device reads; callers add
    /// `results` and `loose_chunks`.
    pub(crate) stats: QueryStats,
}

impl<'s, 't, const D: usize> Walk<'s, 't, D> {
    /// Starts a walk that reads pages into `page_buf` and transcodes
    /// internal misses into `soa` (the query's scratch buffers). A `kind`
    /// of `None` is a leaf scan, not a query.
    pub(crate) fn new(
        page_buf: &'s mut Vec<u8>,
        soa: &'s mut SoaNode<D>,
        kind: Option<QueryKind>,
    ) -> Self {
        let (trace, traverse) = match kind.and_then(QueryKind::trace) {
            Some((name, span)) => {
                let op = trace::start(name);
                let traverse = op.is_sampled().then(|| (span, Instant::now()));
                (Some(op), traverse)
            }
            None => (None, None),
        };
        Walk {
            page_buf,
            soa,
            kind,
            trace,
            traverse,
            misses: Vec::new(),
            stats: QueryStats::default(),
        }
    }

    /// Resolves `page` of `tree` (`cached` is its cache snapshot, taken
    /// once per traversal) and runs `f` on it in place, returning `f`'s
    /// result.
    ///
    /// * Cache hit: `f` gets the cached internal [`SoaNode`], found by
    ///   one `HashMap` probe with no lock and no `Arc` clone.
    /// * Leaf miss (level byte 0): `f` gets the page's [`LeafRecords`],
    ///   borrowed from the bytes [`BlockDevice::with_block`] exposes. It
    ///   runs while the device lends the page, so it must not write to
    ///   this tree's device. Nothing is transcoded or retained.
    /// * Internal miss: the page is transcoded into the scratch's `soa`,
    ///   and a copy is kept for [`Walk::finish`] to admit.
    ///
    /// Either way the header is validated first: a bad magic, or a count
    /// beyond the page's capacity, is [`EmError::Corrupt`]. Every error
    /// is a failed device read, which visits nothing.
    #[inline]
    pub(crate) fn visit<R>(
        &mut self,
        tree: &'t RTree<D>,
        cached: &FrozenMap<D>,
        page: BlockId,
        f: impl FnOnce(NodeView<'_, D>) -> R,
    ) -> Result<R, EmError> {
        let t0 = self.traverse.is_some().then(Instant::now);
        let mut f = Some(f);
        let mut level = 0u8;
        let mut r = cached.get(&page).map(|n| {
            level = n.level();
            (f.take().expect("first use"))(NodeView::Internal(n))
        });
        let did_io = r.is_none();
        if did_io {
            let soa = &mut *self.soa;
            let mut header = Ok(());
            tree.dev.with_block(page, self.page_buf, &mut |bytes| {
                header = match page_header::<D>(bytes) {
                    Ok((0, count)) => {
                        let f = f.take().expect("a leaf runs f once");
                        r = Some(f(NodeView::Leaf(LeafRecords::new(bytes, count))));
                        Ok(())
                    }
                    Ok(_) => soa.refill_from_bytes(bytes),
                    Err(e) => Err(e),
                };
            })?;
            header?;
            if r.is_none() {
                level = soa.level();
                self.misses.push((tree, page, Arc::new(soa.clone())));
                let f = f.take().expect("an internal miss runs f once");
                r = Some(f(NodeView::Internal(soa)));
            }
        }
        let (leaf, internal) = ((level == 0) as u64, (level > 0) as u64);
        self.stats.nodes_visited += 1;
        self.stats.leaves_visited += leaf;
        self.stats.internal_visited += internal;
        self.stats.device_reads += did_io as u64;
        if t0.is_some() {
            if did_io {
                trace::span_since("em", "page_read", t0, format_args!("page={page}"));
            }
            trace::tally_level(level as usize, leaf, internal, did_io as u64);
        }
        Ok(r.expect("every path runs f"))
    }

    /// Ends the walk with its traversal's `result`: admits its misses,
    /// one [`crate::cache`] write per tree (the caller has dropped its
    /// snapshots, so the map is copied only if another traversal holds
    /// one), flushes the registry once, closes and publishes the trace,
    /// and returns the stats.
    pub(crate) fn finish(mut self, result: Result<(), EmError>) -> Result<QueryStats, EmError> {
        self.misses
            .sort_by_key(|(tree, ..)| *tree as *const RTree<D>);
        for run in self.misses.chunk_by(|a, b| std::ptr::eq(a.0, b.0)) {
            let nodes = run.iter().map(|(_, page, n)| (*page, Arc::clone(n)));
            run[0].0.cache.admit(nodes);
        }
        crate::obs::record_walk(self.kind, &self.stats, result.is_ok());
        if let Some((span, t0)) = self.traverse {
            let nodes = self.stats.nodes_visited;
            trace::span_since("tree", span, Some(t0), format_args!("nodes={nodes}"));
        }
        if let Some(op) = self.trace {
            op.finish(format_args!("results={}", self.stats.results));
        }
        result.map(|()| self.stats)
    }
}

/// Node counts and fill factors, per level and overall.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeStructure {
    /// Number of nodes at each level (index 0 = leaves).
    pub nodes_per_level: Vec<u64>,
    /// Total entries at each level.
    pub entries_per_level: Vec<u64>,
    /// The tree's one node capacity, the same at every level (for
    /// utilization).
    pub leaf_cap: usize,
}

impl TreeStructure {
    /// Number of leaf pages.
    pub fn num_leaves(&self) -> u64 {
        self.nodes_per_level[0]
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> u64 {
        self.nodes_per_level.iter().sum()
    }

    /// Space utilization over all nodes: entries stored divided by entry
    /// slots available. The paper reports >99% for all bulk loaders.
    pub fn utilization(&self) -> f64 {
        let used: u64 = self.entries_per_level.iter().sum();
        let avail = (self.num_nodes() as usize * self.leaf_cap) as f64;
        if avail == 0.0 {
            0.0
        } else {
            used as f64 / avail
        }
    }

    /// Leaf-only utilization (what dominates space usage).
    pub fn leaf_utilization(&self) -> f64 {
        let avail = self.nodes_per_level[0] as f64 * self.leaf_cap as f64;
        if avail == 0.0 {
            0.0
        } else {
            self.entries_per_level[0] as f64 / avail
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;
    use pr_em::MemDevice;
    use pr_geom::Rect;

    fn leaf_entry(i: u32) -> Entry<2> {
        let f = i as f64;
        Entry::new(Rect::xyxy(f, 0.0, f + 0.5, 1.0), i)
    }

    /// Builds a tiny 2-level tree by hand: two leaves under one root.
    fn two_leaf_tree() -> RTree<2> {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let params = TreeParams::with_cap::<2>(4);
        let l0 = NodePage::new(0, vec![leaf_entry(0), leaf_entry(1)])
            .append(dev.as_ref())
            .unwrap();
        let l1 = NodePage::new(0, vec![leaf_entry(2), leaf_entry(3)])
            .append(dev.as_ref())
            .unwrap();
        let root = NodePage::new(
            1,
            vec![
                Entry::new(Rect::xyxy(0.0, 0.0, 1.5, 1.0), l0 as u32),
                Entry::new(Rect::xyxy(2.0, 0.0, 3.5, 1.0), l1 as u32),
            ],
        )
        .append(dev.as_ref())
        .unwrap();
        RTree::attach(dev, params, root, 1, 4)
    }

    #[test]
    fn attach_and_basic_accessors() {
        let t = two_leaf_tree();
        assert_eq!(t.len(), 4);
        assert_eq!(t.height(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn items_are_all_reachable() {
        let t = two_leaf_tree();
        let mut ids: Vec<u32> = t.items().unwrap().iter().map(|i| i.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1, 2, 3]);
    }

    #[test]
    fn cache_policy_controls_device_reads() {
        let t = two_leaf_tree();
        t.warm_cache().unwrap();
        let before = t.device().io_stats();
        let (_, io1) = t.read_node(t.root()).unwrap();
        assert!(!io1, "root cached after warm_cache");
        assert_eq!(t.device().io_stats().since(before).reads, 0);

        // A fresh handle on the same device starts cold.
        let cold = RTree::<2>::attach(Arc::clone(t.device()), t.params, t.root, 1, t.len);
        let before = t.device().io_stats();
        let (_, io2) = cold.read_node(t.root()).unwrap();
        assert!(io2);
        assert_eq!(t.device().io_stats().since(before).reads, 1);
        let (_, io3) = cold.read_node(t.root()).unwrap();
        assert!(!io3, "a read admits the internal node");
    }

    #[test]
    fn stats_and_utilization() {
        let t = two_leaf_tree();
        let s = t.stats().unwrap();
        assert_eq!(s.nodes_per_level, vec![2, 1]);
        assert_eq!(s.entries_per_level, vec![4, 2]);
        assert_eq!(s.num_leaves(), 2);
        assert_eq!(s.num_nodes(), 3);
        // leaves: 4/8; root: 2/4 → (4+2)/(8+4) = 0.5
        assert!((s.utilization() - 0.5).abs() < 1e-12);
        assert!((s.leaf_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_tree() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let t = RTree::<2>::new_empty(dev, TreeParams::with_cap::<2>(4)).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.items().unwrap().is_empty());
    }

    /// A packed tree on a device whose block size matches its params
    /// (what every loader produces; `from_parts` insists on it).
    fn packed_tree() -> RTree<2> {
        let params = TreeParams::with_cap::<2>(4);
        let dev: Arc<dyn BlockDevice> = Arc::new(pr_em::MemDevice::new(params.page_size));
        let entries: Vec<Entry<2>> = (0..6).map(leaf_entry).collect();
        crate::writer::build_packed(dev, params, entries).unwrap()
    }

    #[test]
    fn from_parts_reopens_with_identical_queries() {
        let t = packed_tree();
        let meta = t.meta();
        let dev = Arc::clone(t.device());
        drop(t);
        let t2 = RTree::<2>::from_parts(dev, meta).unwrap();
        assert_eq!(t2.len(), 6);
        assert_eq!(t2.height(), 2);
        let hits = t2.window(&Rect::xyxy(0.0, 0.0, 10.0, 1.0)).unwrap();
        assert_eq!(hits.len(), 6);
    }

    #[test]
    fn from_parts_rejects_bad_metadata() {
        let t = packed_tree();
        let dev = Arc::clone(t.device());
        let mut meta = t.meta();
        meta.root = 999;
        assert!(matches!(
            RTree::<2>::from_parts(Arc::clone(&dev), meta),
            Err(EmError::BlockOutOfRange { block: 999, .. })
        ));
        let mut meta = t.meta();
        meta.params.page_size = 8192;
        assert!(matches!(
            RTree::<2>::from_parts(dev, meta),
            Err(EmError::Corrupt(_))
        ));
    }

    #[test]
    fn write_node_updates_cache() {
        let mut t = two_leaf_tree();
        t.warm_cache().unwrap();
        let (mut modified, _) = t.read_node(t.root()).unwrap();
        modified.entries.pop();
        t.write_node(t.root(), &modified).unwrap();
        let (back, io) = t.read_node(t.root()).unwrap();
        assert!(!io, "rewritten node re-admitted to cache");
        assert_eq!(back.len(), 1);
    }
}
