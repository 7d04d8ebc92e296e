//! k-nearest-neighbor queries: one bounded best-first search over a
//! forest.
//!
//! Not part of the paper's evaluation (which is window queries only),
//! but §1.1 notes that "many types of queries can be answered
//! efficiently using an R-tree" — and any production spatial index needs
//! k-NN. It runs on *any* tree the bulk loaders produce, so PR-tree
//! robustness extends to k-NN workloads for free.
//!
//! **The forest.** The paper's LPR-tree (§4) answers a query from
//! O(log N) components plus an in-memory level, so the unit of search
//! here is not a tree but a set of them. [`KnnSearch`] opens pages
//! nearest first over all trees at once — the classic best-first
//! branch-and-bound of Hjaltason–Samet, seeded with every tree's root.
//! The in-memory level is [`LooseItems`], whose chunks are leaves that
//! cost no I/O: each list (a buffer or memtable, and a sealed batch)
//! enters the frontier as one range of its chunks, keyed by the `dist²`
//! of each chunk's MBR, so a chunk is scanned only when the bound admits
//! it, like any leaf.
//! [`RTree::nearest_neighbors_into`] is the forest of one.
//!
//! **The frontier.** A heap of every admitted child pushes a node's
//! whole fan-out (≈ 640 pages per query on `static_hot`) to open ten of
//! them. So an opened node's admitted `(dist², page)` children go into
//! one range of a reusable arena instead, and the node heap holds one
//! cursor per range, keyed by its nearest child. Popping a cursor takes
//! that child and swap-removes it from the range; one linear scan
//! (≤ B entries) finds the next nearest, and the cursor goes back only
//! while the bound admits it. A tree root is a one-entry range. Pages
//! still open best-first over every pending page, under the same strict
//! test below (only the order among equal distances is the frontier's
//! own), while heap work follows the pages opened: at most one cursor
//! per tree and per opened internal node.
//!
//! **The bound.** Beside the node heap sits a max-heap of the `k` best
//! *admitted* items so far; once it holds `k`, its top is the pruning
//! bound. A child, a loose chunk or a leaf item is considered only if
//! the set is not full or its `dist²` is **strictly** below the bound,
//! and the search stops at the first popped page that fails the same
//! test: a page is never read to settle a tie. Loose chunks and pages
//! compete in one order, so a chunk far from the query is pruned like
//! a far leaf instead of being scanned up front. Work follows the `k`
//! answers reported, not `k` candidates per component.
//!
//! **The contract.** The reported distances are exactly the `k`
//! smallest among admitted (live) items — fewer only when fewer exist —
//! in `(dist, id)` order. Which of several items tied *at the k-th
//! distance* is reported is deterministic but unspecified. The query's
//! multiset [`TombstoneFilter`](crate::dynamic::TombstoneFilter) covers
//! every stored copy (a buffer or memtable is never tombstoned). It is
//! asked only about items that would otherwise be kept, and about each
//! copy at most once, so it stays exact: aliased copies are
//! bit-identical and equidistant, so a copy that is never asked about
//! is one the bound had already excluded together with its twins.
//! Distances are squared throughout (the batched kernel's output); the
//! square root is taken once per reported item.

use crate::dynamic::loose::LooseItems;
use crate::dynamic::tombstone::Tombstones;
use crate::obs::QueryKind;
use crate::query::QueryStats;
use crate::scratch::QueryScratch;
use crate::tree::{NodeView, RTree, Walk};
use pr_em::{BlockId, EmError};
use pr_geom::{Item, Point};
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// A heap entry ordered by its squared distance **alone**. Equal
/// distances compare equal, so a push never sifts past a tie and ties
/// pop in `BinaryHeap`'s own order — deterministic for a given sequence
/// of [`Frontier`] calls, which the scalar reference makes in the same
/// order. (On road-like data a query point sits inside many MBRs at
/// distance 0; a total order on `(dist², tree, page)` made every such
/// push climb through its ties and measured ≈ 20 % slower per query.)
pub(crate) struct AtDist2<T> {
    pub(crate) dist2: f64,
    pub(crate) what: T,
}

impl<T> PartialEq for AtDist2<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for AtDist2<T> {}
impl<T> PartialOrd for AtDist2<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for AtDist2<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist2.total_cmp(&other.dist2)
    }
}

/// The admitted children of one opened node that are still to open:
/// `children[start..end]` of the [`Frontier`], whose nearest is at
/// `children[at]`.
#[derive(Clone, Copy)]
struct Range {
    tree: usize,
    start: usize,
    end: usize,
    at: usize,
}

/// The pages still to open, nearest first (see the module docs): every
/// opened node's admitted `(dist², page)` children, one range each, and
/// a heap of one cursor per non-empty range, keyed by its nearest child
/// (`Reverse` because `BinaryHeap` is a max-heap).
#[derive(Default)]
pub(crate) struct Frontier {
    children: Vec<(f64, BlockId)>,
    cursors: BinaryHeap<Reverse<AtDist2<Range>>>,
}

impl Frontier {
    pub(crate) fn clear(&mut self) {
        self.children.clear();
        self.cursors.clear();
    }

    /// Adds one node's admitted children of `tree` as a new range.
    pub(crate) fn open_range(
        &mut self,
        tree: usize,
        children: impl IntoIterator<Item = (f64, BlockId)>,
    ) {
        let start = self.children.len();
        self.children.extend(children);
        let end = self.children.len();
        if start < end {
            let at = start + nearest(&self.children[start..end]);
            self.cursors.push(Reverse(AtDist2 {
                dist2: self.children[at].0,
                what: Range {
                    tree,
                    start,
                    end,
                    at,
                },
            }));
        }
    }

    /// Takes the nearest pending page as `(tree, page)`, or `None` when
    /// none is left that `best` admits — every other pending page is at
    /// least as far, so the search is over.
    pub(crate) fn next_page<const D: usize>(
        &mut self,
        best: &KBest<D>,
    ) -> Option<(usize, BlockId)> {
        let mut top = self.cursors.peek_mut()?;
        if !best.admits(top.0.dist2) {
            return None;
        }
        let mut range = top.0.what;
        let page = self.children[range.at].1;
        range.end -= 1;
        self.children[range.at] = self.children[range.end];
        if range.start < range.end {
            range.at = range.start + nearest(&self.children[range.start..range.end]);
            let dist2 = self.children[range.at].0;
            if best.admits(dist2) {
                // Re-keyed in place: sifts down when the guard drops.
                top.0 = AtDist2 { dist2, what: range };
                return Some((range.tree, page));
            }
        }
        PeekMut::pop(top);
        Some((range.tree, page))
    }
}

/// Index of the first nearest of `children` (non-empty).
fn nearest(children: &[(f64, BlockId)]) -> usize {
    let (mut at, mut near) = (0, children[0].0);
    for (i, &(dist2, _)) in children.iter().enumerate().skip(1) {
        if dist2 < near {
            (at, near) = (i, dist2);
        }
    }
    at
}

/// The `k` best admitted items so far: a max-heap capped at `k` whose
/// top, once full, is the search's pruning bound. Grows by pushes only,
/// so `k = usize::MAX` reserves nothing.
pub(crate) struct KBest<const D: usize> {
    k: usize,
    heap: BinaryHeap<AtDist2<Item<D>>>,
}

impl<const D: usize> KBest<D> {
    pub(crate) fn new(k: usize) -> Self {
        KBest {
            k,
            heap: BinaryHeap::new(),
        }
    }

    fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    /// True when something at `dist2` can still enter the result: the
    /// set is not full, or `dist2` is strictly below the k-th best.
    #[inline]
    pub(crate) fn admits(&self, dist2: f64) -> bool {
        self.heap.len() < self.k || self.heap.peek().is_some_and(|worst| dist2 < worst.dist2)
    }

    /// Keeps `item`, evicting the current worst when full. Call only
    /// after [`KBest::admits`] said yes.
    pub(crate) fn insert(&mut self, dist2: f64, item: Item<D>) {
        let kept = AtDist2 { dist2, what: item };
        if self.heap.len() < self.k {
            self.heap.push(kept);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            *worst = kept; // sifts down when the guard drops
        }
    }

    /// Empties the set into `out` (cleared first) in `(dist, id)` order.
    pub(crate) fn drain_sorted_into(&mut self, out: &mut Vec<(Item<D>, f64)>) {
        out.clear();
        out.extend(self.heap.drain().map(|w| (w.what, w.dist2.sqrt())));
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.id.cmp(&b.0.id)));
    }
}

/// One k-NN query in progress over a forest of trees and loose chunks
/// (see the module docs for the search and its contract). Every buffer
/// lives in the [`QueryScratch`], so a warmed scratch makes the whole
/// query allocation-free.
pub struct KnnSearch<'a, const D: usize> {
    query: &'a Point<D>,
    scratch: &'a mut QueryScratch<D>,
}

impl<'a, const D: usize> KnnSearch<'a, D> {
    /// Starts a search for the `k` items nearest to `query`.
    pub fn new(query: &'a Point<D>, k: usize, scratch: &'a mut QueryScratch<D>) -> Self {
        scratch.frontier.clear();
        scratch.best.reset(k);
        KnnSearch { query, scratch }
    }

    /// Runs the best-first search over trees `0..trees` (`tree_at` may
    /// return `None` for an empty slot) and the chunks of the `fresh`
    /// and `sealed` loose lists, and writes the result to `out` (cleared
    /// first), nearest first. `fresh` (a buffer or memtable) is never
    /// tombstoned; every other copy passes one multiset filter over
    /// `tombstones`. An internal node's distances come from the
    /// vectorized [`pr_geom::batch::min_dist2_batch`] kernel; a leaf's
    /// or a chunk's are computed in place as its records are read
    /// (`crate::leaf::LeafRecords`). Both are bit-identical to the
    /// scalar `Rect::min_dist2`. A chunk scan counts in
    /// [`QueryStats::loose_chunks`], never as a node or leaf.
    pub fn run<'t>(
        self,
        trees: usize,
        tree_at: impl Fn(usize) -> Option<&'t RTree<D>>,
        fresh: &LooseItems<D>,
        sealed: Option<&LooseItems<D>>,
        tombstones: &Tombstones<D>,
        out: &mut Vec<(Item<D>, f64)>,
    ) -> Result<QueryStats, EmError> {
        let query = self.query;
        let QueryScratch {
            page_buf,
            soa,
            dist,
            frontier,
            best,
            forest,
            spent,
            ..
        } = self.scratch;
        let mut filter = tombstones.filter(spent);
        // One walk, so one trace and one registry flush, however many
        // trees the search spans.
        let mut walk = Walk::new(page_buf, soa, Some(QueryKind::Knn));
        forest.resize(trees, None);
        for (tree, cached) in forest.iter_mut().enumerate() {
            if let Some(t) = tree_at(tree).filter(|t| !t.is_empty()) {
                *cached = Some(t.cache_snapshot());
                frontier.open_range(tree, [(0.0, t.root())]);
            }
        }
        // `fresh` is source `trees` and `sealed` source `trees + 1`;
        // their "pages" are chunk indexes.
        let no_batch = LooseItems::new();
        let loose = [fresh, sealed.unwrap_or(&no_batch)];
        for (j, list) in loose.iter().enumerate() {
            let chunks = list.chunks().iter().enumerate();
            frontier.open_range(
                trees + j,
                chunks.map(|(i, c)| (c.mbr().min_dist2(query), i as BlockId)),
            );
        }
        let result = (|| {
            while let Some((tree, page)) = frontier.next_page(best) {
                if let Some(j) = tree.checked_sub(trees) {
                    walk.stats.loose_chunks += 1;
                    let records = loose[j].chunks()[page as usize].records();
                    if j == 0 {
                        records.offer_nearest(query, best, |_| true);
                    } else {
                        records.offer_nearest(query, best, |it| filter.admit(it));
                    }
                    continue;
                }
                let t = tree_at(tree).expect("seeded above");
                let cached = forest[tree].as_ref().expect("seeded above");
                walk.visit(t, cached, page, |n| match n {
                    NodeView::Leaf(leaf) => leaf.offer_nearest(query, best, |it| filter.admit(it)),
                    NodeView::Internal(n) => {
                        n.min_dist2_into(query, dist);
                        frontier.open_range(
                            tree,
                            dist.iter()
                                .zip(n.ptrs())
                                .filter(|(&d2, _)| best.admits(d2))
                                .map(|(&d2, &ptr)| (d2, ptr as BlockId)),
                        );
                    }
                })?;
            }
            Ok(())
        })();
        forest.clear();
        best.drain_sorted_into(out);
        walk.stats.results = out.len() as u64;
        walk.finish(result)
    }
}

impl<const D: usize> RTree<D> {
    /// The `k` items nearest to `query` (Euclidean distance to their
    /// rectangles, 0 when the point is inside), closest first. Ties are
    /// broken arbitrarily but deterministically. Returns fewer than `k`
    /// items only when the tree holds fewer.
    pub fn nearest_neighbors(
        &self,
        query: &Point<D>,
        k: usize,
    ) -> Result<Vec<(Item<D>, f64)>, EmError> {
        Ok(self.nearest_neighbors_with_stats(query, k)?.0)
    }

    /// k-NN with traversal statistics (leaves read, device I/Os).
    pub fn nearest_neighbors_with_stats(
        &self,
        query: &Point<D>,
        k: usize,
    ) -> Result<(Vec<(Item<D>, f64)>, QueryStats), EmError> {
        let mut out = Vec::new();
        let stats = self.nearest_neighbors_into(query, k, &mut QueryScratch::new(), &mut out)?;
        Ok((out, stats))
    }

    /// [`RTree::nearest_neighbors_with_stats`] with caller-owned
    /// buffers: neighbors go into `out` (cleared first), the frontier,
    /// the k-best heap and the batched-distance buffer live in
    /// `scratch`. This is
    /// [`KnnSearch`] over a forest of one.
    pub fn nearest_neighbors_into(
        &self,
        query: &Point<D>,
        k: usize,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<(Item<D>, f64)>,
    ) -> Result<QueryStats, EmError> {
        KnnSearch::new(query, k, scratch).run(
            1,
            |_| Some(self),
            &LooseItems::new(),
            None,
            &Tombstones::new(),
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::pr::PrTreeLoader;
    use crate::bulk::{BulkLoader, LoaderKind};
    use crate::dynamic::tombstone::{same_identity, Spent};
    use crate::params::TreeParams;
    use crate::reference::ReferenceEngine;
    use pr_em::{BlockDevice, MemDevice};
    use pr_geom::Rect;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                let w: f64 = rng.gen_range(0.0..2.0);
                Item::new(Rect::xyxy(x, y, x + w, y + w), i)
            })
            .collect()
    }

    fn brute_knn(items: &[Item<2>], q: &Point<2>, k: usize) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> = items.iter().map(|i| (i.id, i.rect.min_dist(q))).collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    fn build<const D: usize>(items: &[Item<D>]) -> RTree<D> {
        let params = TreeParams::with_cap::<D>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        PrTreeLoader::default()
            .load(dev, params, items.to_vec())
            .unwrap()
    }

    #[test]
    fn knn_matches_brute_force_distances() {
        let items = random_items(2_000, 5);
        let tree = build(&items);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..25 {
            let q = Point::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
            for k in [1usize, 5, 20] {
                let got = tree.nearest_neighbors(&q, k).unwrap();
                let want = brute_knn(&items, &q, k);
                assert_eq!(got.len(), k);
                // Distances must match exactly (ties may swap ids).
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g.1 - w.1).abs() < 1e-9,
                        "k={k} q={q:?}: got {} want {}",
                        g.1,
                        w.1
                    );
                }
                // Results are sorted by distance.
                for pair in got.windows(2) {
                    assert!(pair[0].1 <= pair[1].1);
                }
            }
        }
    }

    #[test]
    fn knn_inside_rectangles_has_distance_zero() {
        let items = vec![
            Item::new(Rect::xyxy(0.0, 0.0, 10.0, 10.0), 0),
            Item::new(Rect::xyxy(50.0, 50.0, 60.0, 60.0), 1),
        ];
        let tree = build(&items);
        let got = tree.nearest_neighbors(&Point::new([5.0, 5.0]), 2).unwrap();
        assert_eq!(got[0].0.id, 0);
        assert_eq!(got[0].1, 0.0);
        assert!(got[1].1 > 0.0);
    }

    #[test]
    fn knn_edge_cases() {
        let items = random_items(50, 2);
        let tree = build(&items);
        let q = Point::new([50.0, 50.0]);
        assert!(tree.nearest_neighbors(&q, 0).unwrap().is_empty());
        // k larger than the tree: everything, in order.
        let got = tree.nearest_neighbors(&q, 1000).unwrap();
        assert_eq!(got.len(), 50);
        // Empty tree.
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let empty = RTree::<2>::new_empty(dev, params).unwrap();
        assert!(empty.nearest_neighbors(&q, 3).unwrap().is_empty());
    }

    #[test]
    fn knn_prunes_most_of_the_tree() {
        // Best-first search on a good tree should read only a few leaves.
        let items = random_items(5_000, 7);
        let tree = build(&items);
        let (_, stats) = tree
            .nearest_neighbors_with_stats(&Point::new([42.0, 42.0]), 10)
            .unwrap();
        let total_leaves = tree.stats().unwrap().num_leaves();
        assert!(
            stats.leaves_visited * 10 < total_leaves,
            "visited {} of {total_leaves} leaves",
            stats.leaves_visited
        );
    }

    #[test]
    fn knn_works_on_every_loader() {
        let items = random_items(800, 11);
        let q = Point::new([33.0, 66.0]);
        let want = brute_knn(&items, &q, 7);
        for kind in LoaderKind::all() {
            let params = TreeParams::with_cap::<2>(8);
            let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
            let tree = kind.loader::<2>().load(dev, params, items.clone()).unwrap();
            let got = tree.nearest_neighbors(&q, 7).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-9, "{}", kind.name());
            }
        }
    }

    #[test]
    fn knn_in_three_dimensions() {
        let mut rng = SmallRng::seed_from_u64(3);
        let items: Vec<Item<3>> = (0..600)
            .map(|i| {
                let p = [
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                ];
                Item::new(Rect::new(p, p), i)
            })
            .collect();
        let params = TreeParams::with_cap::<3>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let tree = PrTreeLoader::default()
            .load(dev, params, items.clone())
            .unwrap();
        let q = Point::new([5.0, 5.0, 5.0]);
        let got = tree.nearest_neighbors(&q, 5).unwrap();
        let mut want: Vec<f64> = items.iter().map(|i| i.rect.min_dist(&q)).collect();
        want.sort_by(f64::total_cmp);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.1 - w).abs() < 1e-9);
        }
    }

    // ---- the forest: several trees + loose items under one bound ----

    fn random_boxes<const D: usize>(n: u32, id_base: u32, seed: u64) -> Vec<Item<D>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let lo: [f64; D] = std::array::from_fn(|_| rng.gen_range(0.0..100.0));
                let hi: [f64; D] = std::array::from_fn(|d| lo[d] + rng.gen_range(0.0..2.0));
                Item::new(Rect::new(lo, hi), id_base + i)
            })
            .collect()
    }

    fn loose<const D: usize>(items: &[Item<D>]) -> LooseItems<D> {
        let mut loose = LooseItems::new();
        loose.extend(items);
        loose
    }

    /// Everything a snapshot can hold: an unfiltered buffer and a
    /// tombstone-filtered sealed batch of loose chunks, and
    /// tombstone-filtered trees.
    struct Forest<const D: usize> {
        buffer: LooseItems<D>,
        sealed: LooseItems<D>,
        trees: Vec<RTree<D>>,
        tombstones: Tombstones<D>,
    }

    impl<const D: usize> Forest<D> {
        fn knn(&self, q: &Point<D>, k: usize) -> (Vec<(Item<D>, f64)>, QueryStats) {
            let mut scratch = QueryScratch::new();
            let mut out = Vec::new();
            let stats = KnnSearch::new(q, k, &mut scratch)
                .run(
                    self.trees.len(),
                    |t| Some(&self.trees[t]),
                    &self.buffer,
                    Some(&self.sealed),
                    &self.tombstones,
                    &mut out,
                )
                .unwrap();
            (out, stats)
        }

        /// The live multiset by brute force: buffer items, plus stored
        /// copies minus `count` tombstones per identity.
        fn live(&self) -> Vec<Item<D>> {
            let mut live = self.buffer.to_vec();
            let mut spent = Spent::new();
            let mut filter = self.tombstones.filter(&mut spent);
            let stored = self.trees.iter().flat_map(|t| t.items().unwrap());
            let stored = self.sealed.to_vec().into_iter().chain(stored);
            live.extend(stored.filter(|i| filter.admit(i)));
            live
        }

        /// Contract check against the oracle: exactly the k smallest
        /// live distances (bit for bit), in `(dist, id)` order, and no
        /// identity reported more often than it is live.
        fn check(&self, q: &Point<D>, k: usize) {
            let live = self.live();
            let (got, stats) = self.knn(q, k);
            let mut want: Vec<f64> = live.iter().map(|i| i.rect.min_dist2(q).sqrt()).collect();
            want.sort_by(f64::total_cmp);
            want.truncate(k);
            let got_dist: Vec<u64> = got.iter().map(|(_, d)| d.to_bits()).collect();
            let want_dist: Vec<u64> = want.iter().map(|d| d.to_bits()).collect();
            assert_eq!(got_dist, want_dist, "k={k} q={q:?}");
            assert_eq!(stats.results, got.len() as u64);
            for pair in got.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                assert!(
                    a.1 < b.1 || (a.1 == b.1 && a.0.id <= b.0.id),
                    "(dist, id) order"
                );
            }
            for (item, _) in &got {
                let reported = got.iter().filter(|(g, _)| same_identity(g, item)).count();
                let alive = live.iter().filter(|l| same_identity(l, item)).count();
                assert!(
                    reported <= alive,
                    "{item:?}: reported {reported}, live {alive}"
                );
            }
        }
    }

    /// Four components with aliased copies spread over components and
    /// the sealed batch: every 5th base item has 3 extra stored copies
    /// (m = 4) and c = id % 5 ∈ 0..=4 tombstones, so keys range from
    /// fully live to fully dead.
    fn aliased_forest<const D: usize>(seed: u64) -> Forest<D> {
        let base: Vec<Item<D>> = random_boxes(240, 0, seed);
        let aliased: Vec<Item<D>> = base.iter().copied().step_by(5).collect();
        let mut tombstones = Tombstones::new();
        for (n, item) in aliased.iter().enumerate() {
            for _ in 0..n % 5 {
                tombstones.add(item);
            }
        }
        // Some unaliased stored items are dead too.
        for item in base.iter().skip(2).step_by(10) {
            tombstones.add(item);
        }
        let mut sealed = random_boxes(20, 1_000, seed + 1);
        sealed.extend(&aliased);
        let mut sets = vec![base[..160].to_vec(), base[160..].to_vec()];
        sets.push([random_boxes(40, 2_000, seed + 2), aliased.clone()].concat());
        sets.push(aliased);
        Forest {
            buffer: loose(&random_boxes(12, 3_000, seed + 3)),
            sealed: loose(&sealed),
            trees: sets.iter().map(|s| build(s)).collect(),
            tombstones,
        }
    }

    fn check_aliased_forest<const D: usize>(seed: u64) {
        let forest = aliased_forest::<D>(seed);
        let live = forest.live().len();
        let mut rng = SmallRng::seed_from_u64(seed + 9);
        let mut points: Vec<Point<D>> = (0..12)
            .map(|_| Point::new(std::array::from_fn(|_| rng.gen_range(-10.0..110.0))))
            .collect();
        // Inside aliased items, so their copies are the nearest answers.
        points.extend(
            forest.trees[3]
                .items()
                .unwrap()
                .iter()
                .take(8)
                .map(|i| i.rect.center()),
        );
        for q in &points {
            for k in [0, 1, 3, 10, 60, live, live + 7, usize::MAX] {
                forest.check(q, k);
            }
        }
        let q = &points[0];
        assert_eq!(
            forest.knn(q, live + 7).0.len(),
            live,
            "k ≥ live: all of them"
        );
        assert_eq!(
            forest.knn(q, usize::MAX).0.len(),
            live,
            "no k-sized reserve"
        );
        let (none, stats) = forest.knn(q, 0);
        assert!(none.is_empty());
        assert_eq!(stats.nodes_visited, 0, "k = 0 opens no page");
    }

    #[test]
    fn forest_with_aliased_copies_matches_multiset_oracle() {
        check_aliased_forest::<2>(41);
    }

    #[test]
    fn forest_in_three_dimensions_matches_multiset_oracle() {
        check_aliased_forest::<3>(43);
    }

    /// All items equidistant: any k of them are a correct answer, the
    /// choice is deterministic, and once k are held no further page is
    /// read to settle the tie — one leaf in the whole forest.
    #[test]
    fn equidistant_items_never_read_a_page_to_settle_a_tie() {
        let spot = Rect::xyxy(5.0, 5.0, 6.0, 6.0);
        let trees: Vec<RTree<2>> = (0..3u32)
            .map(|t| {
                let items: Vec<Item<2>> = (0..100).map(|i| Item::new(spot, t * 100 + i)).collect();
                build(&items)
            })
            .collect();
        let forest = Forest {
            buffer: LooseItems::new(),
            sealed: LooseItems::new(),
            trees,
            tombstones: Tombstones::new(),
        };
        let q = Point::new([0.0, 0.0]);
        forest.check(&q, 5);
        let (got, stats) = forest.knn(&q, 5);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|(_, d)| *d == 50f64.sqrt()));
        assert_eq!(stats.leaves_visited, 1);
        assert_eq!(forest.knn(&q, 5).0, got, "deterministic choice among ties");
        forest.check(&q, 300);
        forest.check(&q, 301);
    }

    /// Every MBR in the forest contains the query point, so every child
    /// and every item sits at `dist² = 0`: ranges drain through re-keys
    /// among ties, and for large `k` every range empties. Checked
    /// against the multiset oracle, and each tree against the scalar
    /// reference (items in order, distance bits, `QueryStats`).
    fn check_nested_forest<const D: usize>(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let c: [f64; D] = std::array::from_fn(|_| rng.gen_range(20.0..80.0));
        let trees: Vec<RTree<D>> = (0..3u32)
            .map(|t| {
                let items: Vec<Item<D>> = (0..150)
                    .map(|i| {
                        let lo = std::array::from_fn(|d| c[d] - rng.gen_range(0.0..10.0));
                        let hi = std::array::from_fn(|d| c[d] + rng.gen_range(0.0..10.0));
                        Item::new(Rect::new(lo, hi), t * 1_000 + i)
                    })
                    .collect();
                build(&items)
            })
            .collect();
        for t in &trees {
            assert!(t.root_level() >= 2);
            t.warm_cache().unwrap();
        }
        let forest = Forest {
            buffer: LooseItems::new(),
            sealed: LooseItems::new(),
            trees,
            tombstones: Tombstones::new(),
        };
        let q = Point::new(c);
        let cap = 8; // `build`'s node capacity
        let live = forest.live().len();
        for k in [1, cap, cap + 1, live, usize::MAX] {
            forest.check(&q, k);
            for t in &forest.trees {
                let engine = ReferenceEngine::new(t).unwrap();
                assert_eq!(
                    t.nearest_neighbors_with_stats(&q, k).unwrap(),
                    engine.nearest_neighbors_with_stats(&q, k).unwrap(),
                    "k={k}"
                );
            }
        }
        assert_eq!(forest.knn(&q, usize::MAX).0.len(), live);
    }

    #[test]
    fn all_distances_zero_drains_ranges_like_the_reference() {
        check_nested_forest::<2>(51);
    }

    #[test]
    fn all_distances_zero_drains_ranges_like_the_reference_in_three_dimensions() {
        check_nested_forest::<3>(53);
    }

    /// The node heap holds one cursor per tree and per opened internal
    /// node, never one entry per child: given exactly that capacity up
    /// front, a k = 10 query never grows it. A heap of every admitted
    /// child outgrows it at the first internal node below the root.
    #[test]
    fn node_heap_holds_one_cursor_per_opened_node() {
        let cap = 32;
        let params = TreeParams::with_cap::<2>(cap);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let tree = PrTreeLoader::default()
            .load(dev, params, random_items(5_000, 19))
            .unwrap();
        assert!(tree.root_level() >= 2, "at least three levels");
        tree.warm_cache().unwrap();
        let mut rng = SmallRng::seed_from_u64(23);
        let mut out = Vec::new();
        for _ in 0..20 {
            let q = Point::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
            let (_, stats) = tree.nearest_neighbors_with_stats(&q, 10).unwrap();
            let bound = stats.internal_visited as usize + 1;
            assert!(bound < cap, "q={q:?}: {bound} cursors vs fan-out {cap}");
            let mut scratch = QueryScratch::new();
            scratch.frontier.cursors.reserve_exact(bound);
            assert_eq!(scratch.frontier.cursors.capacity(), bound);
            let again = tree.nearest_neighbors_into(&q, 10, &mut scratch, &mut out);
            assert_eq!(again.unwrap(), stats);
            assert_eq!(
                scratch.frontier.cursors.capacity(),
                bound,
                "q={q:?}: node heap outgrew internal nodes opened + trees"
            );
        }
    }

    /// Leaves are the paper's cost unit: the search may open only
    /// leaves whose MBR is no farther than the k-th reported item
    /// (counted by a full scan of the level-1 entries).
    #[test]
    fn knn_opens_no_leaf_beyond_the_kth_distance() {
        let items = random_items(3_000, 13);
        let tree = build(&items);
        assert!(tree.root_level() > 0);
        let mut leaf_mbrs = Vec::new();
        let mut stack = vec![tree.root()];
        while let Some(page) = stack.pop() {
            let (node, _) = tree.read_node(page).unwrap();
            for e in &node.entries {
                if node.level == 1 {
                    leaf_mbrs.push(e.rect);
                } else {
                    stack.push(e.ptr as BlockId);
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(17);
        for _ in 0..40 {
            let q = Point::new([rng.gen_range(-5.0..105.0), rng.gen_range(-5.0..105.0)]);
            for k in [1usize, 10, 64] {
                let (got, stats) = tree.nearest_neighbors_with_stats(&q, k).unwrap();
                let kth = got.last().unwrap().0.rect.min_dist2(&q);
                let within = leaf_mbrs.iter().filter(|r| r.min_dist2(&q) <= kth).count();
                assert!(
                    stats.leaves_visited <= within as u64,
                    "k={k} q={q:?}: {} leaves opened, {within} within the k-th distance",
                    stats.leaves_visited
                );
            }
        }
    }

    /// Loose chunks are leaves to the search: only chunks whose MBR is
    /// no farther than the k-th reported item are scanned, none counts
    /// as a node, and the answers are the brute-force ones.
    #[test]
    fn loose_chunks_open_only_within_the_kth_distance() {
        let items = random_items(3_000, 29);
        let forest = Forest {
            buffer: loose(&items[..2_000]),
            sealed: loose(&items[2_000..]),
            trees: Vec::new(),
            tombstones: Tombstones::new(),
        };
        let held = forest.buffer.chunks().len() + forest.sealed.chunks().len();
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..40 {
            let q = Point::new([rng.gen_range(-5.0..105.0), rng.gen_range(-5.0..105.0)]);
            for k in [1usize, 10, 64] {
                forest.check(&q, k);
                let (got, stats) = forest.knn(&q, k);
                let kth = got.last().unwrap().0.rect.min_dist2(&q);
                let within = [&forest.buffer, &forest.sealed]
                    .iter()
                    .flat_map(|l| l.chunks())
                    .filter(|c| c.mbr().min_dist2(&q) <= kth)
                    .count();
                assert!(stats.loose_chunks <= within as u64, "k={k} q={q:?}");
                assert!(stats.loose_chunks * 4 < held as u64, "k={k} q={q:?}");
                assert_eq!(stats.nodes_visited, 0);
            }
        }
    }
}
