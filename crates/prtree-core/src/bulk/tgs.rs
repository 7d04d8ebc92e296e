//! Top-down Greedy Split (TGS) — García, López & Leutenegger,
//! reference 12 of the paper and its strongest query-time competitor.
//!
//! To build a node over `n` rectangles, TGS recursively *binary-partitions*
//! the set until it falls apart into at most `B` slots of `unit =
//! B^(h−1)·B_leaf` rectangles each (sizes rounded to powers of the fanout,
//! per the paper's footnote 1). Each binary partition considers, for every
//! one-dimensional ordering (by `xmin`, `ymin`, `xmax`, `ymax` in 2-D) and
//! every unit-aligned cut position, the **sum of the areas of the two
//! resulting bounding boxes**, and greedily applies the cheapest cut. The
//! children are then built recursively.
//!
//! The implementation sorts the input once per ordering and *distributes*
//! the sorted sequences through every binary split (exactly like the
//! external variant), so each binary level costs `O(n)` rather than a
//! fresh `O(n log n)` sort — the tree produced is identical, because the
//! greedy rule only consults orderings, which distribution preserves.
//!
//! Both TGS loaders share this module's rules, so they build the same
//! tree (`tgs_external::tests` compares their leaves, repeated ids
//! included):
//!
//! * the height, `root_level`, from `subtree_capacity`;
//! * the orders: each is sorted like the external loader's lists, by
//!   `kd_split::AxisOrder(axis, Order::Kd)`, so only identical entries
//!   tie and they are adjacent in every ordering;
//! * the greedy cut, `best_cut`, over each ordering's unit segments;
//! * the split, `goes_left`: the last entry left of the cut is the
//!   threshold, and every ordering sends left what is below it plus the
//!   first `ties` copies of it, where `ties` counts its copies left of
//!   the cut. A split needs no side table: identical entries are
//!   interchangeable, so a count is all the orderings must agree on.
//!
//! Pages go through `writer::LevelWriter`, like every loader's.
//!
//! §2.4 of the paper proves this greedy rule can be trapped: on the
//! shifted-grid dataset it always prefers vertical cuts, producing
//! column-aligned leaves that a horizontal line query must all visit.

use crate::bulk::kd_split::{AxisOrder, Order};
use crate::bulk::BulkLoader;
use crate::entry::Entry;
use crate::params::TreeParams;
use crate::tree::RTree;
use crate::writer::LevelWriter;
use pr_em::{BlockDevice, EmError, SortOrder};
use pr_geom::{Axis, Item, Rect};
use std::cmp::Ordering;
use std::sync::Arc;

/// The TGS bulk loader.
#[derive(Debug, Clone, Copy, Default)]
pub struct TgsLoader;

/// Maximum items a subtree rooted at `level` can hold:
/// `leaf_cap^(level + 1)`.
pub(crate) fn subtree_capacity(params: &TreeParams, level: u8) -> usize {
    params.leaf_cap.saturating_pow(u32::from(level) + 1)
}

/// The root's level for `n` items: the smallest `h` with
/// `leaf_cap^(h+1) ≥ n`.
pub(crate) fn root_level(params: &TreeParams, n: u64) -> u8 {
    let mut level = 0;
    while (subtree_capacity(params, level) as u64) < n {
        level += 1;
    }
    level
}

/// The greedy rule. `segments[a]` holds the bounding boxes of ordering
/// `a` cut into consecutive units; returns the ordering and the number
/// of units left of the cut that minimizes the sum of the two sides'
/// areas (the first such cut on ties).
pub(crate) fn best_cut<const D: usize>(segments: &[Vec<Rect<D>>]) -> (Axis, usize) {
    let mut best = (Axis(0), 1);
    let mut best_cost = f64::INFINITY;
    for (a, segs) in segments.iter().enumerate() {
        let mut suffix = vec![Rect::EMPTY; segs.len()];
        let mut fold = Rect::EMPTY;
        for (i, s) in segs.iter().enumerate().rev() {
            fold = fold.mbr_with(s);
            suffix[i] = fold;
        }
        let mut prefix = Rect::EMPTY;
        for k in 1..segs.len() {
            prefix = prefix.mbr_with(&segs[k - 1]);
            let cost = prefix.area() + suffix[k].area();
            if cost < best_cost {
                best = (Axis(a), k);
                best_cost = cost;
            }
        }
    }
    best
}

/// The split rule: in every ordering, an entry goes left if it is below
/// `threshold` in the order of `axis`'s list, or is one of the first
/// `ties` copies of it. Only identical entries tie, and the threshold is
/// the last entry left of the cut in its own ordering, so every ordering
/// sends the same entries left.
pub(crate) fn goes_left<const D: usize>(
    axis: Axis,
    threshold: Entry<D>,
    mut ties: u64,
) -> impl FnMut(&Entry<D>) -> bool {
    let mut order = AxisOrder(axis, Order::Kd);
    move |e| match order.cmp(e, &threshold) {
        Ordering::Less => true,
        Ordering::Equal if ties > 0 => {
            ties -= 1;
            true
        }
        _ => false,
    }
}

/// The working state of one subset: the same entries in all `2D`
/// coordinate orders, each sorted like the external loader's lists.
struct Orders<const D: usize> {
    by_axis: Vec<Vec<Entry<D>>>,
}

impl<const D: usize> Orders<D> {
    /// Sorts `entries` into every ordering.
    fn build(entries: Vec<Entry<D>>) -> Self {
        let by_axis = Axis::all::<D>()
            .map(|axis| {
                let mut v = entries.clone();
                AxisOrder(axis, Order::Kd).sort(&mut v);
                v
            })
            .collect();
        Orders { by_axis }
    }

    fn len(&self) -> usize {
        self.by_axis[0].len()
    }

    /// Splits along `axis` after the first `left_len` entries of that
    /// ordering, distributing every ordering stably.
    fn split(self, axis: Axis, left_len: usize) -> (Orders<D>, Orders<D>) {
        let cut = &self.by_axis[axis.0][..left_len];
        let threshold = cut[left_len - 1];
        let mut order = AxisOrder(axis, Order::Kd);
        let ties = cut
            .iter()
            .rev()
            .take_while(|e| order.cmp(e, &threshold) == Ordering::Equal)
            .count() as u64;
        let mut left = Vec::with_capacity(2 * D);
        let mut right = Vec::with_capacity(2 * D);
        for list in self.by_axis {
            let mut goes_left = goes_left(axis, threshold, ties);
            let mut l = Vec::with_capacity(left_len);
            let mut r = Vec::with_capacity(list.len() - left_len);
            for e in list {
                if goes_left(&e) {
                    l.push(e);
                } else {
                    r.push(e);
                }
            }
            left.push(l);
            right.push(r);
        }
        (Orders { by_axis: left }, Orders { by_axis: right })
    }
}

/// Recursively binary-partitions `orders` into groups of at most `unit`.
fn partition<const D: usize>(orders: Orders<D>, unit: usize, out: &mut Vec<Vec<Entry<D>>>) {
    let n = orders.len();
    if n <= unit {
        out.push(orders.by_axis.into_iter().next().expect("2D ≥ 1 orders"));
        return;
    }
    let segments: Vec<Vec<Rect<D>>> = orders
        .by_axis
        .iter()
        .map(|list| list.chunks(unit).map(Entry::mbr).collect())
        .collect();
    let (axis, k) = best_cut(&segments);
    let (left, right) = orders.split(axis, (k * unit).min(n));
    partition(left, unit, out);
    partition(right, unit, out);
}

/// Builds the subtree for `entries` whose root sits at `level`; returns
/// the root's entry (MBR + page id).
fn build_node<const D: usize>(
    dev: &dyn BlockDevice,
    params: &TreeParams,
    entries: Vec<Entry<D>>,
    level: u8,
) -> Result<Entry<D>, EmError> {
    if level == 0 {
        debug_assert!(entries.len() <= params.leaf_cap);
        return LevelWriter::new(dev, 0).append(&entries);
    }
    let unit = subtree_capacity(params, level - 1);
    let mut groups = Vec::new();
    partition(Orders::build(entries), unit, &mut groups);
    debug_assert!(groups.len() <= params.leaf_cap);
    let children = groups
        .into_iter()
        .map(|g| build_node(dev, params, g, level - 1))
        .collect::<Result<Vec<_>, _>>()?;
    LevelWriter::new(dev, level).append(&children)
}

impl<const D: usize> BulkLoader<D> for TgsLoader {
    fn name(&self) -> &'static str {
        "TGS"
    }

    fn load(
        &self,
        dev: Arc<dyn BlockDevice>,
        params: TreeParams,
        items: Vec<Item<D>>,
    ) -> Result<RTree<D>, EmError> {
        if items.is_empty() {
            return RTree::new_empty(dev, params);
        }
        let len = items.len() as u64;
        let level = root_level(&params, len);
        let entries = items.into_iter().map(Entry::from_item).collect();
        let root = build_node(dev.as_ref(), &params, entries, level)?;
        Ok(RTree::attach(dev, params, root.ptr as u64, level, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::brute_force_window;
    use pr_em::MemDevice;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                Item::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), i)
            })
            .collect()
    }

    fn build(items: Vec<Item<2>>, cap: usize) -> RTree<2> {
        let params = TreeParams::with_cap::<2>(cap);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        TgsLoader.load(dev, params, items).unwrap()
    }

    #[test]
    fn builds_valid_trees() {
        for n in [1u32, 8, 9, 65, 700, 2000] {
            let t = build(random_items(n, n as u64), 8);
            t.validate().unwrap().assert_ok();
            assert_eq!(t.len(), n as u64);
        }
    }

    #[test]
    fn queries_match_brute_force() {
        let items = random_items(1500, 13);
        let t = build(items.clone(), 16);
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..40 {
            let x: f64 = rng.gen_range(0.0..95.0);
            let y: f64 = rng.gen_range(0.0..95.0);
            let q = Rect::xyxy(x, y, x + 6.0, y + 2.0);
            let mut got = t.window(&q).unwrap();
            let mut want = brute_force_window(&items, &q);
            got.sort_by_key(|i| i.id);
            want.sort_by_key(|i| i.id);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn greedy_cut_prefers_obvious_gap() {
        // Two clusters far apart in x: the best cut must separate them.
        let mut items: Vec<Item<2>> = Vec::new();
        for i in 0..8u32 {
            let x = if i < 4 { i as f64 } else { 100.0 + i as f64 };
            items.push(Item::new(Rect::xyxy(x, 0.0, x + 0.5, 1.0), i));
        }
        let entries: Vec<Entry<2>> = items.iter().map(|&i| Entry::from_item(i)).collect();
        let orders = Orders::build(entries);
        let segments: Vec<Vec<Rect<2>>> = orders
            .by_axis
            .iter()
            .map(|list| list.chunks(4).map(Entry::mbr).collect())
            .collect();
        let (axis, k) = best_cut(&segments);
        assert_eq!(k, 1, "one unit of 4 left of the cut");
        assert_eq!(axis.dim::<2>(), 0, "cut along x");
        // And the split really separates the clusters.
        let (l, r) = orders.split(axis, 4);
        assert!(l.by_axis[0].iter().all(|e| e.rect.lo_at(0) < 50.0));
        assert!(r.by_axis[0].iter().all(|e| e.rect.lo_at(0) > 50.0));
    }

    #[test]
    fn orders_split_preserves_each_ordering() {
        let entries: Vec<Entry<2>> = random_items(200, 5)
            .into_iter()
            .map(Entry::from_item)
            .collect();
        let (l, r) = Orders::build(entries).split(Axis(1), 80);
        for (part, expect_len) in [(&l, 80usize), (&r, 120usize)] {
            for (a, order) in part.by_axis.iter().enumerate() {
                assert_eq!(order.len(), expect_len);
                let mut cmp = AxisOrder(Axis(a), Order::Kd);
                for w in order.windows(2) {
                    assert_ne!(
                        cmp.cmp(&w[0], &w[1]),
                        Ordering::Greater,
                        "ordering {a} broken after split"
                    );
                }
            }
        }
    }

    /// A multiset input — ids stored two and three times — splits like
    /// any other: the build terminates and indexes every copy. (A split
    /// by id sent all copies of an id left and could recurse forever.)
    #[test]
    fn aliased_copies_are_all_indexed() {
        let mut items = random_items(300, 17);
        let copies: Vec<Item<2>> = items.iter().step_by(3).copied().collect();
        items.extend(&copies);
        items.extend(&copies[..50]);
        let t = build(items.clone(), 6);
        t.validate().unwrap().assert_ok();
        assert_eq!(t.len(), items.len() as u64);
        let all = t.window(&Rect::xyxy(0.0, 0.0, 101.0, 101.0)).unwrap();
        assert_eq!(all.len(), items.len());
    }

    #[test]
    fn node_sizes_respect_unit_rounding() {
        let t = build(random_items(700, 7), 8);
        let s = t.stats().unwrap();
        assert_eq!(s.entries_per_level[0], 700);
        for (level, &n) in s.nodes_per_level.iter().enumerate() {
            assert!(n > 0, "level {level} empty");
        }
    }

    #[test]
    fn tgs_beats_random_order_on_area() {
        // Sanity: TGS leaves should have far smaller total MBR area than
        // leaves packed in input (random) order.
        let items = random_items(1000, 3);
        let tgs = build(items.clone(), 10);
        let dev: Arc<dyn BlockDevice> =
            Arc::new(MemDevice::new(TreeParams::with_cap::<2>(10).page_size));
        let naive = crate::writer::build_packed(
            dev,
            TreeParams::with_cap::<2>(10),
            items.iter().map(|&i| Entry::from_item(i)).collect(),
        )
        .unwrap();
        let leaf_area = |t: &RTree<2>| -> f64 {
            crate::bulk::testing::leaves(t)
                .iter()
                .map(|n| n.mbr().area())
                .sum()
        };
        assert!(leaf_area(&tgs) * 5.0 < leaf_area(&naive));
    }
}
