//! The retained scalar AoS engine — the correctness oracle.
//!
//! This module preserves the query engine this crate shipped before
//! the decode-free SoA read path: decoded [`NodePage`]s with a branchy
//! per-entry `Rect::intersects`/`min_dist2`, fresh `Vec` allocations
//! per query, and an `Arc` clone per cached-node visit — the window
//! traversal verbatim, the k-NN as the scalar form of `crate::knn`'s
//! bounded best-first search over a forest of one. It
//! exists as the oracle: the engine-equivalence property tests
//! (`tests/engine_equivalence.rs`) run every loader × dataset through
//! both engines and assert *identical* results (same items, same
//! order, same `f64` bits) and *identical* [`QueryStats`] — leaves,
//! internal nodes, device reads. That is the proof that the SoA
//! engine changed cost, not answers.
//!
//! A [`ReferenceEngine`] models the paper's steady state the old engine
//! ran in: every internal node decoded and pinned in its own AoS map
//! (what a warmed node cache held, in AoS form), leaves read
//! and decoded from the device on every visit. Construct it *after*
//! `warm_cache` when comparing statistics, so both engines see
//! internal-hit/leaf-miss accounting.

use crate::page::NodePage;
use crate::query::QueryStats;
use crate::tree::RTree;
use pr_em::{BlockId, EmError};
use pr_geom::{Item, Point, Rect};
use std::collections::HashMap;
use std::sync::Arc;

/// Scalar AoS query engine over a borrowed tree (see module docs).
pub struct ReferenceEngine<'t, const D: usize> {
    tree: &'t RTree<D>,
    /// Every internal node, decoded once — the old engine's post-warm
    /// node map.
    pinned: HashMap<BlockId, Arc<NodePage<D>>>,
}

impl<'t, const D: usize> ReferenceEngine<'t, D> {
    /// Decodes and pins all internal nodes of `tree` (bypassing its
    /// cache, so building or querying the reference engine never
    /// perturbs the real engine's hit/miss counters).
    pub fn new(tree: &'t RTree<D>) -> Result<Self, EmError> {
        let mut pinned = HashMap::new();
        if tree.root_level() > 0 {
            let mut stack = vec![(tree.root(), tree.root_level())];
            while let Some((page, level)) = stack.pop() {
                let node = Arc::new(NodePage::<D>::read(tree.device().as_ref(), page)?);
                if level > 1 {
                    for e in &node.entries {
                        stack.push((e.ptr as BlockId, level - 1));
                    }
                }
                pinned.insert(page, node);
            }
        }
        Ok(ReferenceEngine { tree, pinned })
    }

    /// Old-engine node access: pinned internal nodes are cloned out of
    /// the map (an `Arc` clone per visit, as the old engine did); everything
    /// else is one device read plus a full AoS decode.
    fn read_node(&self, page: BlockId) -> Result<(Arc<NodePage<D>>, bool), EmError> {
        if let Some(n) = self.pinned.get(&page) {
            return Ok((Arc::clone(n), false));
        }
        let node = NodePage::read(self.tree.device().as_ref(), page)?;
        Ok((Arc::new(node), true))
    }

    /// Scalar window query; the loop body is the pre-SoA `traverse`.
    pub fn window_with_stats(
        &self,
        query: &Rect<D>,
    ) -> Result<(Vec<Item<D>>, QueryStats), EmError> {
        let mut out = Vec::new();
        let stats = self.traverse(query, |item| out.push(item))?;
        Ok((out, stats))
    }

    fn traverse(
        &self,
        query: &Rect<D>,
        mut emit: impl FnMut(Item<D>),
    ) -> Result<QueryStats, EmError> {
        let mut stats = QueryStats::default();
        if self.tree.is_empty() {
            return Ok(stats);
        }
        let mut stack: Vec<BlockId> = vec![self.tree.root()];
        while let Some(page) = stack.pop() {
            let (node, did_io) = self.read_node(page)?;
            stats.nodes_visited += 1;
            stats.device_reads += did_io as u64;
            if node.is_leaf() {
                stats.leaves_visited += 1;
                for e in &node.entries {
                    if e.rect.intersects(query) {
                        stats.results += 1;
                        emit(e.to_item());
                    }
                }
            } else {
                stats.internal_visited += 1;
                for e in &node.entries {
                    if e.rect.intersects(query) {
                        stack.push(e.ptr as BlockId);
                    }
                }
            }
        }
        Ok(stats)
    }

    /// Scalar form of the bounded best-first k-NN in `crate::knn`,
    /// over this one tree: the same frontier of per-node child ranges
    /// (same argmin, same swap-remove, one heap cursor per opened node),
    /// the same k-best heap, the same strict `dist² < k-th best` test on
    /// children, leaf items and popped pages, with a per-entry
    /// `Rect::min_dist2` in place of the batched kernel — so items,
    /// distance bits and [`QueryStats`] are identical, ties included.
    pub fn nearest_neighbors_with_stats(
        &self,
        query: &Point<D>,
        k: usize,
    ) -> Result<(Vec<(Item<D>, f64)>, QueryStats), EmError> {
        use crate::knn::{Frontier, KBest};
        let mut stats = QueryStats::default();
        let mut best = KBest::new(k);
        let mut frontier = Frontier::default();
        if !self.tree.is_empty() {
            frontier.open_range(0, [(0.0, self.tree.root())]);
        }
        while let Some((_, page)) = frontier.next_page(&best) {
            let (node, did_io) = self.read_node(page)?;
            stats.nodes_visited += 1;
            stats.device_reads += did_io as u64;
            if node.is_leaf() {
                stats.leaves_visited += 1;
                for e in &node.entries {
                    let dist2 = e.rect.min_dist2(query);
                    if best.admits(dist2) {
                        best.insert(dist2, e.to_item());
                    }
                }
            } else {
                stats.internal_visited += 1;
                let children = node.entries.iter().filter_map(|e| {
                    let dist2 = e.rect.min_dist2(query);
                    best.admits(dist2).then_some((dist2, e.ptr as BlockId))
                });
                frontier.open_range(0, children);
            }
        }
        let mut out = Vec::new();
        best.drain_sorted_into(&mut out);
        stats.results = out.len() as u64;
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::pr::PrTreeLoader;
    use crate::bulk::BulkLoader;
    use crate::params::TreeParams;
    use pr_em::{BlockDevice, MemDevice};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                let w: f64 = rng.gen_range(0.0..3.0);
                Item::new(Rect::xyxy(x, y, x + w, y + w), i)
            })
            .collect()
    }

    #[test]
    fn reference_engine_matches_soa_engine() {
        let items = random_items(3_000, 21);
        let params = TreeParams::with_cap::<2>(16);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let tree = PrTreeLoader::default().load(dev, params, items).unwrap();
        tree.warm_cache().unwrap();
        let engine = ReferenceEngine::new(&tree).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..30 {
            let x: f64 = rng.gen_range(0.0..90.0);
            let y: f64 = rng.gen_range(0.0..90.0);
            let s: f64 = rng.gen_range(0.0..20.0);
            let q = Rect::xyxy(x, y, x + s, y + s);
            let (fast, fast_stats) = tree.window_with_stats(&q).unwrap();
            let (slow, slow_stats) = engine.window_with_stats(&q).unwrap();
            assert_eq!(fast, slow, "results must be identical, in order");
            assert_eq!(fast_stats, slow_stats, "QueryStats must be identical");

            let p = Point::new([x, y]);
            let (fast_nn, fast_nn_stats) = tree.nearest_neighbors_with_stats(&p, 10).unwrap();
            let (slow_nn, slow_nn_stats) = engine.nearest_neighbors_with_stats(&p, 10).unwrap();
            assert_eq!(fast_nn, slow_nn);
            assert_eq!(fast_nn_stats, slow_nn_stats);
        }
    }

    #[test]
    fn reference_engine_on_single_leaf_tree() {
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let tree = PrTreeLoader::default()
            .load(dev, params, random_items(5, 3))
            .unwrap();
        assert_eq!(tree.height(), 1);
        tree.warm_cache().unwrap();
        let engine = ReferenceEngine::new(&tree).unwrap();
        let q = Rect::xyxy(0.0, 0.0, 100.0, 100.0);
        let (fast, fs) = tree.window_with_stats(&q).unwrap();
        let (slow, ss) = engine.window_with_stats(&q).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fs, ss);
        assert_eq!(ss.device_reads, 1, "single-leaf root is never cached");
    }
}
