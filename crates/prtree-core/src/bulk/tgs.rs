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
//! §2.4 of the paper proves this greedy rule can be trapped: on the
//! shifted-grid dataset it always prefers vertical cuts, producing
//! column-aligned leaves that a horizontal line query must all visit.

use crate::bulk::BulkLoader;
use crate::entry::Entry;
use crate::page::NodePage;
use crate::params::TreeParams;
use crate::tree::RTree;
use crate::writer::page_ptr;
use pr_em::{BlockDevice, EmError};
use pr_geom::mapped::cmp_items_on_axis;
use pr_geom::{Axis, Item, Rect};
use std::sync::Arc;

/// The TGS bulk loader.
#[derive(Debug, Clone, Copy, Default)]
pub struct TgsLoader;

/// The working state of one subset: the same entries in all `2D`
/// coordinate orders (ascending by `(mapped coordinate, id)`). Inside
/// one [`build_node`] call an entry's `ptr` holds its *tag*, an index
/// into [`Tags::ids`], rather than its id.
struct Orders<const D: usize> {
    by_axis: Vec<Vec<Entry<D>>>,
}

/// Tells the entries of one [`build_node`] call apart. A multiset input
/// may hold one id on several rectangles and one identity several times
/// (aliased copies), so ids do not; tags do, and a split finds its left
/// side with one flag lookup per entry.
struct Tags {
    /// The entry's id, by tag.
    ids: Vec<u32>,
    /// Scratch for [`Orders::split`]: set for the tags going left, all
    /// clear between splits.
    in_left: Vec<bool>,
}

impl<const D: usize> Orders<D> {
    /// Sorts `entries` into every ordering, replacing each id by a tag.
    fn build(mut entries: Vec<Entry<D>>) -> (Self, Tags) {
        let ids: Vec<u32> = entries.iter().map(|e| e.ptr).collect();
        for (tag, e) in entries.iter_mut().enumerate() {
            e.ptr = tag as u32;
        }
        let mut by_axis = Vec::with_capacity(2 * D);
        for axis in Axis::all::<D>() {
            let mut v = entries.clone();
            sort_by_axis(&mut v, axis, &ids);
            by_axis.push(v);
        }
        drop(entries);
        let in_left = vec![false; ids.len()];
        (Orders { by_axis }, Tags { ids, in_left })
    }

    fn len(&self) -> usize {
        self.by_axis[0].len()
    }

    /// Splits along `axis` after the first `left_len` entries of that
    /// ordering, distributing every other ordering stably. Every
    /// ordering sends exactly those `left_len` tags left.
    fn split(self, axis: Axis, left_len: usize, tags: &mut Tags) -> (Orders<D>, Orders<D>) {
        let n = self.len();
        for e in &self.by_axis[axis.0][..left_len] {
            tags.in_left[e.ptr as usize] = true;
        }
        let mut left = Vec::with_capacity(2 * D);
        let mut right = Vec::with_capacity(2 * D);
        for order in self.by_axis {
            let mut l = Vec::with_capacity(left_len);
            let mut r = Vec::with_capacity(n - left_len);
            for e in order {
                if tags.in_left[e.ptr as usize] {
                    l.push(e);
                } else {
                    r.push(e);
                }
            }
            left.push(l);
            right.push(r);
        }
        for e in &left[0] {
            tags.in_left[e.ptr as usize] = false;
        }
        (Orders { by_axis: left }, Orders { by_axis: right })
    }
}

/// Sorts tagged entries by `(mapped coordinate, id)`.
fn sort_by_axis<const D: usize>(entries: &mut [Entry<D>], axis: Axis, ids: &[u32]) {
    let item = |e: &Entry<D>| Item {
        rect: e.rect,
        id: ids[e.ptr as usize],
    };
    entries.sort_unstable_by(|a, b| cmp_items_on_axis(axis, &item(a), &item(b)));
}

/// The best binary cut found for one subset.
struct Cut {
    axis: Axis,
    /// Number of leading *items* (not units) going to the left side.
    left_len: usize,
    cost: f64,
}

/// Evaluates every (ordering, unit cut) pair and returns the greedy best.
fn best_cut<const D: usize>(orders: &Orders<D>, unit: usize) -> Cut {
    let n = orders.len();
    let m = n.div_ceil(unit);
    debug_assert!(m >= 2);
    let mut best = Cut {
        axis: Axis(0),
        left_len: unit,
        cost: f64::INFINITY,
    };
    for axis in Axis::all::<D>() {
        let sorted = &orders.by_axis[axis.0];
        // Bounding boxes of the m unit segments in this ordering.
        let seg_mbrs: Vec<Rect<D>> = sorted.chunks(unit).map(Entry::mbr).collect();
        // Prefix and suffix folds at segment boundaries.
        let mut prefix = Vec::with_capacity(m);
        let mut acc = Rect::EMPTY;
        for s in &seg_mbrs {
            acc = acc.mbr_with(s);
            prefix.push(acc);
        }
        let mut suffix = vec![Rect::EMPTY; m];
        let mut acc = Rect::EMPTY;
        for (i, s) in seg_mbrs.iter().enumerate().rev() {
            acc = acc.mbr_with(s);
            suffix[i] = acc;
        }
        for k in 1..m {
            let cost = prefix[k - 1].area() + suffix[k].area();
            if cost < best.cost {
                best = Cut {
                    axis,
                    left_len: (k * unit).min(n),
                    cost,
                };
            }
        }
    }
    best
}

/// Recursively binary-partitions `orders` into groups of at most `unit`.
fn partition<const D: usize>(
    orders: Orders<D>,
    unit: usize,
    tags: &mut Tags,
    out: &mut Vec<Vec<Entry<D>>>,
) {
    if orders.len() <= unit {
        out.push(orders.by_axis.into_iter().next().expect("2D ≥ 1 orders"));
        return;
    }
    let cut = best_cut(&orders, unit);
    let (left, right) = orders.split(cut.axis, cut.left_len, tags);
    partition(left, unit, tags, out);
    partition(right, unit, tags, out);
}

/// Builds the subtree for `entries` whose root sits at `level`; returns
/// the root's entry (MBR + page id). Shared with the external loader's
/// memory-cutoff path.
pub(crate) fn build_node<const D: usize>(
    dev: &dyn BlockDevice,
    params: &TreeParams,
    entries: Vec<Entry<D>>,
    level: u8,
) -> Result<Entry<D>, EmError> {
    if level == 0 {
        debug_assert!(entries.len() <= params.leaf_cap);
        let mbr = Entry::mbr(&entries);
        let page = NodePage::new(0, entries).append(dev)?;
        return Ok(Entry::new(mbr, page_ptr(page)?));
    }
    let unit = subtree_capacity(params, level - 1);
    let mut groups = Vec::new();
    let (orders, mut tags) = Orders::build(entries);
    partition(orders, unit, &mut tags, &mut groups);
    debug_assert!(groups.len() <= params.node_cap);
    let mut children = Vec::with_capacity(groups.len());
    for mut g in groups {
        for e in &mut g {
            e.ptr = tags.ids[e.ptr as usize];
        }
        children.push(build_node(dev, params, g, level - 1)?);
    }
    let mbr = Entry::mbr(&children);
    let page = NodePage::new(level, children).append(dev)?;
    Ok(Entry::new(mbr, page_ptr(page)?))
}

/// Maximum items a subtree rooted at `level` can hold.
fn subtree_capacity(params: &TreeParams, level: u8) -> usize {
    let mut cap = params.leaf_cap;
    for _ in 0..level {
        cap = cap.saturating_mul(params.node_cap);
    }
    cap
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
        let entries: Vec<Entry<D>> = items.into_iter().map(Entry::from_item).collect();
        // Height: smallest h with leaf_cap · node_cap^(h-1) ≥ n.
        let mut root_level: u8 = 0;
        while subtree_capacity(&params, root_level) < entries.len() {
            root_level += 1;
        }
        let root_entry = build_node(dev.as_ref(), &params, entries, root_level)?;
        Ok(RTree::attach(
            dev,
            params,
            root_entry.ptr as u64,
            root_level,
            len,
        ))
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
        let (orders, mut tags) = Orders::build(entries);
        let cut = best_cut(&orders, 4);
        assert_eq!(cut.left_len, 4);
        assert_eq!(cut.axis.dim::<2>(), 0, "cut along x");
        // And the split really separates the clusters.
        let (l, r) = orders.split(cut.axis, cut.left_len, &mut tags);
        assert!(l.by_axis[0].iter().all(|e| e.rect.lo_at(0) < 50.0));
        assert!(r.by_axis[0].iter().all(|e| e.rect.lo_at(0) > 50.0));
    }

    #[test]
    fn orders_split_preserves_each_ordering() {
        let entries: Vec<Entry<2>> = random_items(200, 5)
            .into_iter()
            .map(Entry::from_item)
            .collect();
        let (orders, mut tags) = Orders::build(entries);
        let (l, r) = orders.split(Axis(1), 80, &mut tags);
        assert!(tags.in_left.iter().all(|&f| !f), "flags cleared");
        for (part, expect_len) in [(&l, 80usize), (&r, 120usize)] {
            for (a, order) in part.by_axis.iter().enumerate() {
                assert_eq!(order.len(), expect_len);
                let axis = Axis(a);
                for w in order.windows(2) {
                    let ia = Item {
                        rect: w[0].rect,
                        id: tags.ids[w[0].ptr as usize],
                    };
                    let ib = Item {
                        rect: w[1].rect,
                        id: tags.ids[w[1].ptr as usize],
                    };
                    assert_ne!(
                        cmp_items_on_axis(axis, &ia, &ib),
                        std::cmp::Ordering::Greater,
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
            &items
                .iter()
                .map(|&i| Entry::from_item(i))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let leaf_area = |t: &RTree<2>| -> f64 {
            let mut total = 0.0;
            let mut stack = vec![t.root()];
            while let Some(p) = stack.pop() {
                let (node, _) = t.read_node(p).unwrap();
                if node.is_leaf() {
                    total += node.mbr().area();
                } else {
                    for e in &node.entries {
                        stack.push(e.ptr as u64);
                    }
                }
            }
            total
        };
        assert!(leaf_area(&tgs) * 5.0 < leaf_area(&naive));
    }
}
