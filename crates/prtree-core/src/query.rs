//! Window queries.
//!
//! The query procedure is the same for every R-tree variant (§1.1): start
//! at the root, recursively visit children whose bounding boxes intersect
//! the query window, and report intersecting data rectangles at the
//! leaves. The *cost* differs only through tree shape.
//!
//! [`QueryStats`] separates leaf visits from internal visits because the
//! paper's headline metric is leaf I/Os with all internal nodes cached.
//!
//! # The decode-free engine
//!
//! Traversal never touches a decoded [`crate::page::NodePage`]. Every
//! traversal reaches its nodes through one visit, the crate's per-query
//! walk in `tree.rs`, which also keeps the [`QueryStats`] and hands
//! each node over in one of two forms:
//! * an **internal node** is a SoA [`crate::soa::SoaNode`] — cached (the
//!   paper's setup pins every internal node) or, on a miss, transcoded
//!   into the reusable [`QueryScratch`] — and is scanned by the
//!   vectorized [`pr_geom::batch`] kernels;
//! * a **leaf** is scanned in place: a `LeafRecords` borrows its
//!   records from the bytes the device exposes, and each leaf kernel is
//!   one pass over them. A leaf is never transcoded and never cached.
//!
//! The steady-state query therefore allocates nothing
//! (`tests/build_alloc.rs` counts it). The `_into` variants expose the
//! scratch for reuse across queries; the plain variants wrap them with a
//! throwaway scratch. Results, emit order, [`QueryStats`], and leaf-I/O
//! counts are identical to the scalar AoS engine — the retained
//! [`crate::reference`] implementation plus the property tests in
//! `tests/engine_equivalence.rs` pin that equivalence.

use crate::leaf::LeafRecords;
use crate::obs::QueryKind;
use crate::scratch::QueryScratch;
use crate::soa::SoaNode;
use crate::tree::RTree;
use pr_em::{BlockId, EmError};
use pr_geom::{Item, Rect};

/// Cost breakdown of one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Nodes of any kind visited (bounding box intersected the query).
    pub nodes_visited: u64,
    /// Leaf nodes visited — the paper's query cost metric.
    pub leaves_visited: u64,
    /// Internal nodes visited.
    pub internal_visited: u64,
    /// Actual device reads (cache misses) incurred.
    pub device_reads: u64,
    /// Number of reported items (`T`).
    pub results: u64,
    /// In-memory loose chunks scanned (`crate::dynamic::loose`): an
    /// LPR-tree's smallest level, which costs no I/O and so counts in
    /// none of the node fields above.
    pub loose_chunks: u64,
}

impl QueryStats {
    /// Folds another traversal's cost counters (nodes, leaves, internal,
    /// device reads — **not** `results`) into this one. Multi-component
    /// structures (the LPR-tree, pr-live snapshots) use this to
    /// aggregate their per-component fan-out; `results` is set once from
    /// the filtered output they assemble.
    pub fn add_traversal(&mut self, other: &QueryStats) {
        self.nodes_visited += other.nodes_visited;
        self.leaves_visited += other.leaves_visited;
        self.internal_visited += other.internal_visited;
        self.device_reads += other.device_reads;
    }

    /// Lower bound `⌈T/B⌉` on blocks needed just to report the output.
    pub fn output_blocks(&self, leaf_cap: usize) -> u64 {
        self.results.div_ceil(leaf_cap as u64)
    }

    /// The paper's figure-of-merit: leaf blocks read divided by `⌈T/B⌉`
    /// (expressed as a percentage in Figures 12–15). Returns `None` when
    /// the query reports nothing.
    pub fn relative_cost(&self, leaf_cap: usize) -> Option<f64> {
        let lb = self.output_blocks(leaf_cap);
        (lb > 0).then(|| self.leaves_visited as f64 / lb as f64)
    }
}

impl<const D: usize> RTree<D> {
    /// Reports all items whose rectangles intersect `query`.
    pub fn window(&self, query: &Rect<D>) -> Result<Vec<Item<D>>, EmError> {
        Ok(self.window_with_stats(query)?.0)
    }

    /// Window query returning both results and cost statistics.
    pub fn window_with_stats(
        &self,
        query: &Rect<D>,
    ) -> Result<(Vec<Item<D>>, QueryStats), EmError> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let stats = self.window_into(query, &mut scratch, &mut out)?;
        Ok((out, stats))
    }

    /// [`RTree::window_with_stats`] with caller-owned buffers: results go
    /// into `out` (cleared first) and all traversal state lives in
    /// `scratch`, so a reused scratch makes repeated queries
    /// allocation-free. Results and statistics are identical to the
    /// plain variant.
    pub fn window_into(
        &self,
        query: &Rect<D>,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<Item<D>>,
    ) -> Result<QueryStats, EmError> {
        out.clear();
        self.window_append_into(query, scratch, out)
    }

    /// [`RTree::window_into`] that **appends** to `out` instead of
    /// clearing it. This is the fan-out primitive of multi-component
    /// structures ([`crate::dynamic::LprTree`], pr-live): one reused
    /// scratch and one result vector serve a query over any number of
    /// trees. The returned statistics cover only this traversal
    /// (`results` counts this tree's matches, not `out.len()`).
    pub(crate) fn window_append_into(
        &self,
        query: &Rect<D>,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<Item<D>>,
    ) -> Result<QueryStats, EmError> {
        self.window_traverse(query, scratch, |leaf| leaf.collect_intersecting(query, out))
    }

    /// Counts intersecting items without materializing them.
    pub fn window_count(&self, query: &Rect<D>) -> Result<(u64, QueryStats), EmError> {
        self.window_count_into(query, &mut QueryScratch::new())
    }

    /// [`RTree::window_count`] with a reusable scratch (the
    /// allocation-free hot path for counting workloads). Leaves are
    /// tallied in place by `LeafRecords::count_intersecting` — no ids
    /// read, no per-match emit — with statistics identical to
    /// [`RTree::window_with_stats`].
    pub fn window_count_into(
        &self,
        query: &Rect<D>,
        scratch: &mut QueryScratch<D>,
    ) -> Result<(u64, QueryStats), EmError> {
        let stats = self.window_traverse(query, scratch, |leaf| leaf.count_intersecting(query))?;
        Ok((stats.results, stats))
    }

    /// The window traversal: a DFS ([`RTree::dfs`]) into every child
    /// whose box intersects `query`; `leaf` scans a leaf's records and
    /// returns how many matched. An empty tree records nothing.
    fn window_traverse(
        &self,
        query: &Rect<D>,
        scratch: &mut QueryScratch<D>,
        leaf: impl FnMut(LeafRecords<'_, D>) -> u64,
    ) -> Result<QueryStats, EmError> {
        if self.is_empty() {
            return Ok(QueryStats::default());
        }
        let descend = |n: &SoaNode<D>, mask: &mut _, stack: &mut Vec<BlockId>| {
            n.for_each_intersecting(query, mask, |i| stack.push(n.ptr(i) as BlockId))
        };
        self.dfs(scratch, Some(QueryKind::Window), descend, leaf)
    }

    /// Counts the stored copies of `item`'s exact identity (id and
    /// coordinate bits, as
    /// [`same_identity`](crate::dynamic::same_identity) compares them) —
    /// the delete path's liveness probe. It is an exact-match descent,
    /// not a window query:
    /// * a child is opened only if its box *covers* `item.rect`
    ///   ([`pr_geom::batch::covers_mask`]);
    /// * a leaf counts, in place, the records whose id and bits equal the
    ///   victim's (`LeafRecords::count_identical`).
    ///
    /// In the paper's `R ↦ R*` view the victim is one point in
    /// 2D-space, so this follows the few paths whose boxes hold that
    /// point. For a valid rectangle, covering implies intersecting, so
    /// it visits a subset of the nodes a window query on `item.rect`
    /// visits. A completed probe counts in
    /// `tree_queries_total{kind="exact"}`; it arms no trace. The count is
    /// the returned `results`.
    pub fn count_exact(
        &self,
        item: &Item<D>,
        scratch: &mut QueryScratch<D>,
    ) -> Result<QueryStats, EmError> {
        if self.is_empty() {
            return Ok(QueryStats::default());
        }
        let descend = |n: &SoaNode<D>, mask: &mut _, stack: &mut Vec<BlockId>| {
            n.for_each_covering(&item.rect, mask, |i| stack.push(n.ptr(i) as BlockId))
        };
        self.dfs(scratch, Some(QueryKind::Exact), descend, |leaf| {
            leaf.count_identical(item)
        })
    }
}

/// Brute-force reference: scan `items` and report intersections. Tests
/// compare every tree variant against this.
pub fn brute_force_window<const D: usize>(items: &[Item<D>], query: &Rect<D>) -> Vec<Item<D>> {
    items
        .iter()
        .filter(|i| i.rect.intersects(query))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;
    use crate::page::NodePage;
    use crate::params::TreeParams;
    use pr_em::{BlockDevice, MemDevice};
    use pr_geom::Point;
    use std::sync::Arc;

    /// Hand-built 2-level tree: items i = 0..8 at x in [i, i+0.5].
    fn grid_tree() -> (RTree<2>, Vec<Item<2>>) {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let items: Vec<Item<2>> = (0..8u32)
            .map(|i| {
                let f = i as f64;
                Item::new(Rect::xyxy(f, 0.0, f + 0.5, 1.0), i)
            })
            .collect();
        let mut parents = Vec::new();
        for chunk in items.chunks(2) {
            let entries: Vec<Entry<2>> = chunk.iter().map(|&i| Entry::from_item(i)).collect();
            let mbr = Entry::mbr(&entries);
            let page = NodePage::new(0, entries).append(dev.as_ref()).unwrap();
            parents.push(Entry::new(mbr, page as u32));
        }
        let root = NodePage::new(1, parents).append(dev.as_ref()).unwrap();
        (
            RTree::attach(dev, TreeParams::with_cap::<2>(4), root, 1, 8),
            items,
        )
    }

    #[test]
    fn window_matches_brute_force() {
        let (t, items) = grid_tree();
        for (xmin, xmax) in [(0.0, 8.0), (1.2, 3.4), (0.75, 0.8), (-5.0, -1.0)] {
            let q = Rect::xyxy(xmin, 0.2, xmax, 0.8);
            let mut got = t.window(&q).unwrap();
            let mut want = brute_force_window(&items, &q);
            got.sort_by_key(|i| i.id);
            want.sort_by_key(|i| i.id);
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn stats_count_leaves_and_results() {
        let (t, _) = grid_tree();
        // Query covering items 2..=5 → leaves 1 and 2 (+ leaf 3? item 6 at
        // x=6; no). Items 2,3 in leaf 1; 4,5 in leaf 2.
        let q = Rect::xyxy(2.0, 0.0, 5.6, 1.0);
        let (hits, stats) = t.window_with_stats(&q).unwrap();
        assert_eq!(hits.len(), 4);
        assert_eq!(stats.results, 4);
        assert_eq!(stats.leaves_visited, 2);
        assert_eq!(stats.internal_visited, 1);
        assert_eq!(stats.nodes_visited, 3);
    }

    #[test]
    fn empty_query_visits_root_only() {
        let (t, _) = grid_tree();
        let q = Rect::xyxy(100.0, 100.0, 101.0, 101.0);
        let (hits, stats) = t.window_with_stats(&q).unwrap();
        assert!(hits.is_empty());
        assert_eq!(stats.nodes_visited, 1);
        assert_eq!(stats.leaves_visited, 0);
    }

    #[test]
    fn device_reads_depend_on_cache_state() {
        let (t, _) = grid_tree();
        t.warm_cache().unwrap();
        let q = Rect::xyxy(0.0, 0.0, 8.0, 1.0);
        let (_, stats) = t.window_with_stats(&q).unwrap();
        // All 4 leaves read from device; root from cache.
        assert_eq!(stats.device_reads, 4);
        assert_eq!(stats.leaves_visited, 4);

        // A fresh handle on the same device is cold: the root is read
        // once, then admitted.
        let cold = RTree::attach(
            Arc::clone(t.device()),
            *t.params(),
            t.root(),
            t.root_level(),
            t.len(),
        );
        let (_, stats) = cold.window_with_stats(&q).unwrap();
        assert_eq!(stats.device_reads, 5, "cold: every visit is an I/O");
        let (_, stats) = cold.window_with_stats(&q).unwrap();
        assert_eq!(stats.device_reads, 4, "the root was admitted");
    }

    #[test]
    fn count_and_exists() {
        let (t, _) = grid_tree();
        let q = Rect::xyxy(0.0, 0.0, 2.0, 1.0);
        let (n, _) = t.window_count(&q).unwrap();
        assert_eq!(n, 3); // items 0, 1, 2 (touching at x=2.0)
    }

    #[test]
    fn scratch_reuse_matches_fresh_queries() {
        let (t, items) = grid_tree();
        t.warm_cache().unwrap();
        let mut scratch = crate::scratch::QueryScratch::new();
        let mut out = Vec::new();
        for (xmin, xmax) in [(0.0, 8.0), (1.2, 3.4), (-5.0, -1.0), (0.75, 0.8)] {
            let q = Rect::xyxy(xmin, 0.2, xmax, 0.8);
            let stats = t.window_into(&q, &mut scratch, &mut out).unwrap();
            let (want, want_stats) = t.window_with_stats(&q).unwrap();
            assert_eq!(out, want, "query {q:?}");
            assert_eq!(stats, want_stats);
            let (n, count_stats) = t.window_count_into(&q, &mut scratch).unwrap();
            assert_eq!(n, want.len() as u64);
            assert_eq!(count_stats, want_stats);
            let mut brute = brute_force_window(&items, &q);
            let mut got = out.clone();
            got.sort_by_key(|i| i.id);
            brute.sort_by_key(|i| i.id);
            assert_eq!(got, brute);
        }
    }

    /// Overwrites the leaf holding items 2 and 3 with `corrupt(page)`
    /// and asserts that every read path reaching it — and only it —
    /// reports [`EmError::Corrupt`].
    fn corrupt_leaf_is_an_error_on_every_read_path(corrupt: impl FnOnce(&mut [u8])) {
        let (t, items) = grid_tree();
        t.warm_cache().unwrap();
        let mut buf = vec![0u8; t.device().block_size()];
        let (root, _) = t.read_node(t.root()).unwrap();
        let leaf = root.entries[1].ptr as BlockId;
        t.device().read_block(leaf, &mut buf).unwrap();
        corrupt(&mut buf);
        t.device().write_block(leaf, &buf).unwrap();

        let q = Rect::xyxy(2.1, 0.0, 3.2, 1.0); // this leaf's box only
        let scratch = &mut QueryScratch::new();
        let corrupt = |r: Result<(), EmError>| matches!(r, Err(EmError::Corrupt(_)));
        assert!(corrupt(
            t.window_into(&q, scratch, &mut Vec::new()).map(drop)
        ));
        assert!(corrupt(t.window_count_into(&q, scratch).map(drop)));
        assert!(corrupt(t.count_exact(&items[2], scratch).map(drop)));
        let inside = Point::new([2.2, 0.5]);
        assert!(corrupt(
            t.nearest_neighbors_into(&inside, 1, scratch, &mut Vec::new())
                .map(drop)
        ));
        // The other leaves still answer.
        let elsewhere = Rect::xyxy(4.0, 0.0, 8.0, 1.0);
        assert_eq!(t.window_count_into(&elsewhere, scratch).unwrap().0, 4);
    }

    #[test]
    fn bad_magic_leaf_is_corrupt_on_every_read_path() {
        corrupt_leaf_is_an_error_on_every_read_path(|page| page[..4].copy_from_slice(b"XXXX"));
    }

    #[test]
    fn overfull_leaf_count_is_corrupt_on_every_read_path() {
        corrupt_leaf_is_an_error_on_every_read_path(|page| {
            page[6..8].copy_from_slice(&500u16.to_le_bytes())
        });
    }

    #[test]
    fn relative_cost_metric() {
        let s = QueryStats {
            leaves_visited: 6,
            results: 10,
            ..Default::default()
        };
        // B = 4: T/B = ceil(10/4) = 3; 6/3 = 2.0 (i.e. "200%").
        assert_eq!(s.output_blocks(4), 3);
        assert!((s.relative_cost(4).unwrap() - 2.0).abs() < 1e-12);
        let empty = QueryStats::default();
        assert_eq!(empty.relative_cost(4), None);
    }
}
