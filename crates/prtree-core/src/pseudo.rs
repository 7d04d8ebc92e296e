//! The standalone pseudo-PR-tree of §2.1.
//!
//! A pseudo-PR-tree on a set `S` of `D`-dimensional rectangles is a
//! `2D`-dimensional kd-tree over the corner-mapped points `S*`, where
//! every internal node additionally owns up to `2D` **priority leaves**:
//! the `B` rectangles remaining in its subtree that are most extreme in
//! each mapped direction. It answers window queries in
//! `O((N/B)^{1−1/d} + T/B)` I/Os (Lemma 2) but is *not* a real R-tree —
//! leaves live at many depths and internal fanout is `2D + 2`, not
//! `Θ(B)`.
//!
//! The PR-tree proper ([`crate::bulk::pr`]) uses this structure's leaf
//! sets stage by stage; this module keeps the whole structure around so
//! it can be queried and studied directly.

use crate::bulk::kd_split::{split_node, NodeShape};
use crate::entry::Entry;
use crate::query::QueryStats;
use pr_geom::{Axis, Item, Rect};

/// One node of a pseudo-PR-tree.
#[derive(Debug, Clone)]
pub enum PseudoNode<const D: usize> {
    /// A block of at most `B` rectangles — either a priority leaf or a
    /// kd base-case leaf. One disk block in the paper's cost model.
    Leaf(Vec<Item<D>>),
    /// A kd node: up to `2D` priority leaves plus up to two subtrees,
    /// each tagged with the minimal bounding box of its contents.
    Internal(Vec<(Rect<D>, PseudoNode<D>)>),
}

/// An in-memory pseudo-PR-tree.
#[derive(Debug, Clone)]
pub struct PseudoPrTree<const D: usize> {
    root: Option<PseudoNode<D>>,
    len: usize,
}

impl<const D: usize> PseudoPrTree<D> {
    /// Builds a pseudo-PR-tree with blocks of `block_cap` (= the paper's
    /// `B`) rectangles. Priority leaves have size `block_cap`.
    pub fn build(items: Vec<Item<D>>, block_cap: usize) -> Self {
        assert!(block_cap >= 1);
        let len = items.len();
        let mut entries: Vec<Entry<D>> = items.into_iter().map(Entry::from_item).collect();
        let root = if entries.is_empty() {
            None
        } else {
            Some(build_node(&mut entries, Axis(0), block_cap))
        };
        PseudoPrTree { root, len }
    }

    /// Number of rectangles stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Window query: all stored rectangles intersecting `query`.
    pub fn window(&self, query: &Rect<D>) -> Vec<Item<D>> {
        self.window_with_stats(query).0
    }

    /// Window query with cost counters. Every node occupies `O(1)`
    /// blocks and a leaf one; `device_reads` is 0, because the structure
    /// lives in memory.
    pub fn window_with_stats(&self, query: &Rect<D>) -> (Vec<Item<D>>, QueryStats) {
        let mut out = Vec::new();
        let mut stats = QueryStats::default();
        if let Some(root) = &self.root {
            visit(root, query, &mut out, &mut stats);
        }
        stats.internal_visited = stats.nodes_visited - stats.leaves_visited;
        stats.results = out.len() as u64;
        (out, stats)
    }

    /// Total number of leaf blocks (for the "fraction visited" metric).
    pub fn num_leaves(&self) -> u64 {
        fn count<const D: usize>(n: &PseudoNode<D>) -> u64 {
            match n {
                PseudoNode::Leaf(_) => 1,
                PseudoNode::Internal(ch) => ch.iter().map(|(_, c)| count(c)).sum(),
            }
        }
        self.root.as_ref().map_or(0, count)
    }

    /// Maximum leaf size observed (must be ≤ `block_cap`).
    pub fn max_leaf_len(&self) -> usize {
        fn walk<const D: usize>(n: &PseudoNode<D>) -> usize {
            match n {
                PseudoNode::Leaf(items) => items.len(),
                PseudoNode::Internal(ch) => ch.iter().map(|(_, c)| walk(c)).max().unwrap_or(0),
            }
        }
        self.root.as_ref().map_or(0, walk)
    }

    /// The root node (read-only), for structural tests.
    pub fn root(&self) -> Option<&PseudoNode<D>> {
        self.root.as_ref()
    }
}

/// The subtree over `entries`, which the shared grouping kernel permutes
/// in place; leaves copy their items out of it.
fn build_node<const D: usize>(entries: &mut [Entry<D>], axis: Axis, cap: usize) -> PseudoNode<D> {
    let leaf = |group: &[Entry<D>]| PseudoNode::Leaf(group.iter().map(|e| e.to_item()).collect());
    if entries.len() <= cap {
        return leaf(entries);
    }
    // Exact medians: the structural definition, not the packing trick.
    let shape = NodeShape {
        cap,
        prio: cap,
        snap: None,
    };
    let mut leaves = Vec::new();
    let kids = split_node(entries, 0..entries.len(), axis, shape, &mut leaves);
    let mut children: Vec<(Rect<D>, PseudoNode<D>)> = leaves
        .into_iter()
        .map(|range| (Entry::mbr(&entries[range.clone()]), leaf(&entries[range])))
        .collect();
    for kid in kids.into_iter().flatten() {
        let node = build_node(&mut entries[kid], axis.next::<D>(), cap);
        children.push((node_mbr(&node), node));
    }
    PseudoNode::Internal(children)
}

fn node_mbr<const D: usize>(node: &PseudoNode<D>) -> Rect<D> {
    match node {
        PseudoNode::Leaf(items) => items
            .iter()
            .fold(Rect::EMPTY, |acc, i| acc.mbr_with(&i.rect)),
        PseudoNode::Internal(ch) => ch.iter().fold(Rect::EMPTY, |acc, (r, _)| acc.mbr_with(r)),
    }
}

fn visit<const D: usize>(
    node: &PseudoNode<D>,
    query: &Rect<D>,
    out: &mut Vec<Item<D>>,
    stats: &mut QueryStats,
) {
    stats.nodes_visited += 1;
    match node {
        PseudoNode::Leaf(items) => {
            stats.leaves_visited += 1;
            for i in items {
                if i.rect.intersects(query) {
                    out.push(*i);
                }
            }
        }
        PseudoNode::Internal(children) => {
            for (mbr, child) in children {
                if mbr.intersects(query) {
                    visit(child, query, out, stats);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::brute_force_window;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..1.0);
                let y: f64 = rng.gen_range(0.0..1.0);
                Item::new(Rect::xyxy(x, y, x + 0.001, y + 0.001), i)
            })
            .collect()
    }

    #[test]
    fn empty_and_single_leaf() {
        let t = PseudoPrTree::<2>::build(vec![], 8);
        assert!(t.is_empty());
        assert!(t.window(&Rect::xyxy(0.0, 0.0, 1.0, 1.0)).is_empty());
        let t = PseudoPrTree::build(random_items(5, 1), 8);
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn all_leaves_within_capacity() {
        for n in [10u32, 100, 1000, 5000] {
            let t = PseudoPrTree::build(random_items(n, n as u64), 16);
            assert!(t.max_leaf_len() <= 16);
            assert_eq!(t.len(), n as usize);
        }
    }

    #[test]
    fn internal_fanout_is_at_most_2d_plus_2() {
        let t = PseudoPrTree::build(random_items(5000, 3), 8);
        fn check<const D: usize>(n: &PseudoNode<D>) {
            if let PseudoNode::Internal(ch) = n {
                assert!(ch.len() <= 2 * D + 2, "fanout {} too large", ch.len());
                assert!(!ch.is_empty());
                for (_, c) in ch {
                    check(c);
                }
            }
        }
        check(t.root().unwrap());
    }

    #[test]
    fn bounding_boxes_cover_contents() {
        let t = PseudoPrTree::build(random_items(2000, 9), 8);
        fn check<const D: usize>(n: &PseudoNode<D>) -> Rect<D> {
            match n {
                PseudoNode::Leaf(items) => items
                    .iter()
                    .fold(Rect::EMPTY, |acc, i| acc.mbr_with(&i.rect)),
                PseudoNode::Internal(ch) => {
                    let mut acc = Rect::EMPTY;
                    for (stored, c) in ch {
                        let actual = check(c);
                        assert_eq!(&actual, stored, "stale bounding box");
                        acc = acc.mbr_with(stored);
                    }
                    acc
                }
            }
        }
        check(t.root().unwrap());
    }

    #[test]
    fn queries_match_brute_force() {
        let items = random_items(3000, 77);
        let t = PseudoPrTree::build(items.clone(), 16);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..60 {
            let x: f64 = rng.gen_range(0.0..0.9);
            let y: f64 = rng.gen_range(0.0..0.9);
            let q = Rect::xyxy(x, y, x + rng.gen_range(0.001..0.2), y + 0.05);
            let mut got = t.window(&q);
            let mut want = brute_force_window(&items, &q);
            got.sort_by_key(|i| i.id);
            want.sort_by_key(|i| i.id);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn query_cost_scales_like_sqrt() {
        // Lemma 2: an empty-output strip query touches O(√(N/B)) blocks.
        // Check the fraction of leaves visited falls as N grows.
        let mut fractions = Vec::new();
        for n in [1000u32, 4000, 16000] {
            let t = PseudoPrTree::build(random_items(n, 11), 16);
            // Thin vertical strip through the middle, almost no output.
            let q = Rect::xyxy(0.5, 0.0, 0.5000001, 1.0);
            let (_, stats) = t.window_with_stats(&q);
            fractions.push(stats.leaves_visited as f64 / t.num_leaves() as f64);
        }
        assert!(
            fractions[2] < fractions[0],
            "visited fraction should shrink with N: {fractions:?}"
        );
        // √(N/B) for N=16000,B=16 is ~32 of 1000 leaves; allow slack ×4.
        let t = PseudoPrTree::build(random_items(16000, 11), 16);
        let (_, stats) = t.window_with_stats(&Rect::xyxy(0.5, 0.0, 0.5000001, 1.0));
        let bound = 4.0 * ((16000.0f64 / 16.0).sqrt()) + stats.results as f64 / 16.0;
        assert!(
            (stats.leaves_visited as f64) < bound,
            "visited {} exceeds 4·√(N/B) = {bound}",
            stats.leaves_visited
        );
    }
}
