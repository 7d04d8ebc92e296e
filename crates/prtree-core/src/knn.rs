//! k-nearest-neighbor queries.
//!
//! Not part of the paper's evaluation (which is window queries only),
//! but §1.1 notes that "many types of queries can be answered
//! efficiently using an R-tree" — and any production spatial index needs
//! k-NN. This is the classic best-first branch-and-bound search
//! (Hjaltason–Samet): a priority queue over nodes and items keyed by
//! minimum distance to the query point; items popped in distance order
//! are exact nearest neighbors. It runs on *any* tree the bulk loaders
//! produce, so PR-tree robustness extends to k-NN workloads for free.

use crate::cache::CacheTally;
use crate::query::QueryStats;
use crate::scratch::QueryScratch;
use crate::tree::RTree;
use pr_em::{BlockId, EmError};
use pr_geom::{Item, Point};
use std::cmp::Ordering;

/// Priority-queue element: a node or an item at its min distance.
pub(crate) enum Candidate<const D: usize> {
    Node(BlockId),
    Item(Item<D>),
}

/// Heap entry of the best-first search; lives in
/// [`QueryScratch`] so the candidate heap is reusable. Distances are
/// squared (the batched kernel's output); the square root is taken only
/// when an item is reported.
pub(crate) struct Prioritized<const D: usize> {
    pub(crate) dist2: f64,
    pub(crate) candidate: Candidate<D>,
}

impl<const D: usize> PartialEq for Prioritized<D> {
    fn eq(&self, other: &Self) -> bool {
        self.dist2 == other.dist2
    }
}
impl<const D: usize> Eq for Prioritized<D> {}
impl<const D: usize> PartialOrd for Prioritized<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for Prioritized<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the closest first.
        other.dist2.total_cmp(&self.dist2)
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
        let mut out = Vec::with_capacity(k.min(self.len() as usize));
        let stats = self.nearest_neighbors_into(query, k, &mut QueryScratch::new(), &mut out)?;
        Ok((out, stats))
    }

    /// [`RTree::nearest_neighbors_with_stats`] with caller-owned
    /// buffers: neighbors go into `out` (cleared first), the candidate
    /// heap and batched-distance buffer live in `scratch`. Per-node
    /// distances come from the vectorized
    /// [`pr_geom::batch::min_dist2_batch`] kernel, which is bit-identical
    /// to the scalar `Rect::min_dist2` — so heap order, tie-breaks, and
    /// reported distances match the scalar engine exactly.
    pub fn nearest_neighbors_into(
        &self,
        query: &Point<D>,
        k: usize,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<(Item<D>, f64)>,
    ) -> Result<QueryStats, EmError> {
        self.nearest_neighbors_filtered_into(query, k, scratch, out, |_| true)
    }

    /// [`RTree::nearest_neighbors_into`] with an admission predicate
    /// applied **inside the best-first loop**: an item popped from the
    /// candidate heap that `admit` rejects is skipped — it consumes
    /// neither a result slot nor any extra leaf visits beyond the one
    /// that surfaced it. This is the tombstone-aware k-NN primitive of
    /// the multi-component structures (LPR-tree, pr-live snapshots):
    /// they pass their shared multiset [`TombstoneFilter`] as `admit`,
    /// so each component yields its `k` nearest *live* items directly
    /// instead of over-fetching `k + total_tombstones` and filtering
    /// afterwards — with heavy tombstones, the difference between
    /// reading a handful of leaves and scanning most of the component.
    ///
    /// Items are popped in exact min-distance order, so rejecting a dead
    /// head admits the next-nearest live item with no extra traversal;
    /// results and distances equal the over-fetch-then-filter answer.
    ///
    /// [`TombstoneFilter`]: crate::dynamic::tombstone::TombstoneFilter
    pub fn nearest_neighbors_filtered_into(
        &self,
        query: &Point<D>,
        k: usize,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<(Item<D>, f64)>,
        mut admit: impl FnMut(&Item<D>) -> bool,
    ) -> Result<QueryStats, EmError> {
        out.clear();
        let mut stats = QueryStats::default();
        if k == 0 || self.is_empty() {
            return Ok(stats);
        }
        let QueryScratch {
            page_buf,
            soa,
            dist,
            heap,
            trace,
            ..
        } = scratch;
        // Same tracing contract as `window_traverse`: one relaxed load
        // when disabled, per-level tallies + per-I/O spans when sampled.
        trace.arm_sampled("knn");
        let tracing = trace.is_active();
        let traverse = trace.begin("tree", "best_first");
        heap.clear();
        heap.push(Prioritized {
            dist2: 0.0,
            candidate: Candidate::Node(self.root()),
        });
        // Per-query local cache accounting + one-time frozen snapshot,
        // flushed/dropped once (see query.rs).
        let mut tally = CacheTally::default();
        let frozen = self.frozen_snapshot();
        let walk = (|| {
            while let Some(Prioritized { dist2, candidate }) = heap.pop() {
                match candidate {
                    Candidate::Item(item) => {
                        if !admit(&item) {
                            continue; // tombstoned copy: skip in place
                        }
                        out.push((item, dist2.sqrt()));
                        stats.results += 1;
                        if out.len() == k {
                            break;
                        }
                    }
                    Candidate::Node(page) => {
                        let t_node = tracing.then(std::time::Instant::now);
                        let mut level = 0u8;
                        let ((), did_io) = self.with_soa_node(
                            page,
                            frozen.as_ref(),
                            &mut tally,
                            page_buf,
                            soa,
                            |n| {
                                if tracing {
                                    level = n.level();
                                }
                                stats.nodes_visited += 1;
                                n.min_dist2_into(query, dist);
                                if n.is_leaf() {
                                    stats.leaves_visited += 1;
                                    // Defer the items through the heap so
                                    // they are emitted in global distance
                                    // order.
                                    for (i, &d2) in dist.iter().enumerate() {
                                        heap.push(Prioritized {
                                            dist2: d2,
                                            candidate: Candidate::Item(n.item(i)),
                                        });
                                    }
                                } else {
                                    stats.internal_visited += 1;
                                    for (&d2, &ptr) in dist.iter().zip(n.ptrs()) {
                                        heap.push(Prioritized {
                                            dist2: d2,
                                            candidate: Candidate::Node(ptr as BlockId),
                                        });
                                    }
                                }
                            },
                        )?;
                        stats.device_reads += did_io as u64;
                        if tracing {
                            if did_io {
                                let t0 = t_node.expect("set while tracing");
                                trace.span_since("em", "page_read", t0, &format!("page={page}"));
                            }
                            let is_leaf = level == 0;
                            trace.tally_level(
                                level as usize,
                                is_leaf as u64,
                                !is_leaf as u64,
                                did_io as u64,
                            );
                        }
                    }
                }
            }
            Ok(())
        })();
        self.record_cache_tally(tally);
        crate::obs::record_query(crate::obs::QueryKind::Knn, &stats);
        if tracing {
            trace.end_detail(traverse, &format!("nodes={}", stats.nodes_visited));
            trace.set_detail(&format!("results={}", stats.results));
            trace.finish_publish();
        }
        walk.map(|()| stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::pr::PrTreeLoader;
    use crate::bulk::{BulkLoader, LoaderKind};
    use crate::params::TreeParams;
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

    fn build(items: &[Item<2>]) -> RTree<2> {
        let params = TreeParams::with_cap::<2>(8);
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
}
