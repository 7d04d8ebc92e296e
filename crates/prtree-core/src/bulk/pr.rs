//! The PR-tree bulk loader (§2.2, generalized to `D` dimensions in §2.3).
//!
//! A PR-tree is built bottom-up in stages. Stage `i` runs the
//! pseudo-PR-tree grouping over the set `S_i` (stage 0: the input
//! rectangles; stage `i > 0`: the bounding boxes of the level-`i−1` nodes)
//! and keeps only the *leaves* of that pseudo tree — priority leaves and
//! kd leaves alike — as the nodes of level `i`; the pseudo tree's internal
//! kd nodes are discarded. Stages repeat until one node holds everything:
//! that node is the root.
//!
//! A stage holds its set in **one buffer**: the grouping
//! (`crate::bulk::kd_split`) permutes it in place and names each leaf
//! by its range, the leaves are encoded straight from the buffer through
//! one page-sized scratch block in emission order, and their bounding
//! boxes become the next stage's buffer (the level loop and root rule
//! are [`crate::writer`]'s). Besides its pages a build holds
//! the input buffer (`Item`s are converted in place), one range per leaf
//! and the parent entries — not the ≈ `2D · N · depth` entries the
//! per-node `Vec`s of the old recursion pinned (see the kernel's docs).
//!
//! The resulting tree is a perfectly ordinary R-tree (degree Θ(B), all
//! leaves on one level) that answers window queries in
//! `O((N/B)^{1−1/d} + T/B)` I/Os (Theorem 1/2).

use crate::bulk::kd_split::{leaf_ranges, NodeShape};
use crate::bulk::BulkLoader;
use crate::entry::Entry;
use crate::params::TreeParams;
use crate::tree::RTree;
use crate::writer::stack_levels;
use pr_em::{BlockDevice, EmError};
use pr_geom::{Axis, Item};
use std::sync::Arc;

/// Configuration of the PR-tree loader.
#[derive(Debug, Clone, Copy)]
pub struct PrTreeLoader {
    /// Size of each priority leaf. `None` means "node capacity" (the
    /// paper's choice: priority leaves hold the `B` most extreme
    /// rectangles). Smaller values are an ablation knob — `Some(1)`
    /// recovers the structure of Agarwal et al.'s earlier index.
    pub priority_size: Option<usize>,
    /// Snap kd splits to multiples of the node capacity so nearly every
    /// node comes out full (the paper's ~100% utilization trick). Disable
    /// to get the exact structural definition of §2.1.
    pub snap_splits: bool,
}

impl Default for PrTreeLoader {
    fn default() -> Self {
        PrTreeLoader {
            priority_size: None,
            snap_splits: true,
        }
    }
}

impl PrTreeLoader {
    /// The node sizes of a stage with node capacity `cap`.
    pub(crate) fn shape(&self, cap: usize) -> NodeShape {
        NodeShape {
            cap,
            prio: self.priority_size.unwrap_or(cap).min(cap).max(1),
            snap: self.snap_splits.then_some(cap),
        }
    }
}

impl<const D: usize> BulkLoader<D> for PrTreeLoader {
    fn name(&self) -> &'static str {
        "PR"
    }

    fn load(
        &self,
        dev: Arc<dyn BlockDevice>,
        params: TreeParams,
        items: Vec<Item<D>>,
    ) -> Result<RTree<D>, EmError> {
        // Same size and alignment: the collect reuses the input's buffer.
        let entries: Vec<Entry<D>> = items.into_iter().map(Entry::from_item).collect();
        stack_levels(dev, params, entries, |entries, cap| {
            leaf_ranges(entries, Axis(0), self.shape(cap))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::brute_force_window;
    use pr_em::MemDevice;
    use pr_geom::Rect;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                let w: f64 = rng.gen_range(0.0..2.0);
                let h: f64 = rng.gen_range(0.0..2.0);
                Item::new(Rect::xyxy(x, y, x + w, y + h), i)
            })
            .collect()
    }

    fn build(items: Vec<Item<2>>, cap: usize) -> RTree<2> {
        let dev: Arc<dyn BlockDevice> =
            Arc::new(MemDevice::new(TreeParams::with_cap::<2>(cap).page_size));
        PrTreeLoader::default()
            .load(dev, TreeParams::with_cap::<2>(cap), items)
            .unwrap()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let t = build(vec![], 8);
        assert!(t.is_empty());
        let t = build(random_items(5, 1), 8);
        assert_eq!(t.height(), 1);
        assert_eq!(t.len(), 5);
        t.validate().unwrap().assert_ok();
    }

    #[test]
    fn structure_is_valid_across_sizes() {
        for n in [1u32, 7, 8, 9, 63, 64, 65, 500, 2000] {
            let t = build(random_items(n, n as u64), 8);
            let report = t.validate().unwrap();
            report.assert_ok();
            assert_eq!(t.len(), n as u64);
        }
    }

    #[test]
    fn queries_match_brute_force() {
        let items = random_items(3000, 42);
        let t = build(items.clone(), 16);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let x: f64 = rng.gen_range(0.0..90.0);
            let y: f64 = rng.gen_range(0.0..90.0);
            let q = Rect::xyxy(
                x,
                y,
                x + rng.gen_range(0.1..10.0),
                y + rng.gen_range(0.1..10.0),
            );
            let mut got = t.window(&q).unwrap();
            let mut want = brute_force_window(&items, &q);
            got.sort_by_key(|i| i.id);
            want.sort_by_key(|i| i.id);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn utilization_is_high_with_snapping() {
        let t = build(random_items(5000, 3), 10);
        let s = t.stats().unwrap();
        assert!(
            s.leaf_utilization() > 0.95,
            "leaf utilization {:.3} below the paper's ~100%",
            s.leaf_utilization()
        );
    }

    #[test]
    fn exact_definition_without_snapping_still_valid() {
        let loader = PrTreeLoader {
            priority_size: None,
            snap_splits: false,
        };
        let dev: Arc<dyn BlockDevice> =
            Arc::new(MemDevice::new(TreeParams::with_cap::<2>(8).page_size));
        let t = loader
            .load(dev, TreeParams::with_cap::<2>(8), random_items(1000, 9))
            .unwrap();
        t.validate().unwrap().assert_ok();
        // Exact halving fills leaves to ≥ 50% on average.
        let s = t.stats().unwrap();
        assert!(s.leaf_utilization() > 0.5);
    }

    #[test]
    fn priority_size_ablation_builds_valid_trees() {
        for prio in [1usize, 2, 4] {
            let loader = PrTreeLoader {
                priority_size: Some(prio),
                snap_splits: true,
            };
            let dev: Arc<dyn BlockDevice> =
                Arc::new(MemDevice::new(TreeParams::with_cap::<2>(8).page_size));
            let t = loader
                .load(dev, TreeParams::with_cap::<2>(8), random_items(500, 11))
                .unwrap();
            t.validate().unwrap().assert_ok();
            assert_eq!(t.len(), 500);
        }
    }

    #[test]
    fn three_dimensional_build() {
        let mut rng = SmallRng::seed_from_u64(5);
        let items: Vec<Item<3>> = (0..600)
            .map(|i| {
                let p = [
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                ];
                Item::new(
                    pr_geom::Rect::new(p, [p[0] + 0.1, p[1] + 0.2, p[2] + 0.3]),
                    i,
                )
            })
            .collect();
        let dev: Arc<dyn BlockDevice> =
            Arc::new(MemDevice::new(TreeParams::with_cap::<3>(8).page_size));
        let t = PrTreeLoader::default()
            .load(dev, TreeParams::with_cap::<3>(8), items.clone())
            .unwrap();
        t.validate().unwrap().assert_ok();
        let q = pr_geom::Rect::new([2.0, 2.0, 2.0], [5.0, 5.0, 5.0]);
        let mut got = t.window(&q).unwrap();
        let mut want = brute_force_window(&items, &q);
        got.sort_by_key(|i| i.id);
        want.sort_by_key(|i| i.id);
        assert_eq!(got, want);
    }
}
