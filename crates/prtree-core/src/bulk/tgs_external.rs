//! External-memory Top-down Greedy Split.
//!
//! Follows the implementation the paper measured (TPIE, reference 12): the input
//! is sorted once into `2D` coordinate-ordered lists, and every greedy
//! binary partition then costs a scan of the current subset — one pass
//! per ordering to sweep candidate cuts, plus one distribution pass. The
//! number of binary-partition levels is `log₂(N/B)`, which is why the
//! paper observes `O(N/B · log₂ N)` behaviour and why TGS is by far the
//! most expensive loader in Figure 9 (≈4.5× the PR-tree's I/O).
//!
//! `memory_cutoff` (off by default, matching the measured implementation)
//! switches a subset to the in-memory algorithm once it fits in `M`; it
//! exists as an ablation to show how much of TGS's cost is recoverable.

use crate::bulk::external::ExternalConfig;
use crate::bulk::kd_split::{AxisOrder, Order};
use crate::bulk::tgs;
use crate::entry::Entry;
use crate::page::NodePage;
use crate::params::TreeParams;
use crate::tree::RTree;
use crate::writer::page_ptr;
use pr_em::{
    external_sort_multi, merge_runs, BlockDevice, EmError, Record, SortOrder, Stream, StreamReader,
    StreamWriter,
};
use pr_geom::{Axis, Rect};
use std::cmp::Ordering;
use std::sync::Arc;

/// A subset mid-partition: its `2D` sorted lists and its size.
type Side = (Vec<Stream>, u64);

/// External TGS loader.
#[derive(Debug, Clone, Copy)]
pub struct TgsExternalLoader {
    /// Memory budget (`M`) — used by the initial sorts, and by the
    /// in-memory cutoff when enabled.
    pub config: ExternalConfig,
    /// Switch to the in-memory algorithm for subsets that fit in `M`.
    /// Disabled by default: the paper's measured implementation scans at
    /// every binary level.
    pub memory_cutoff: bool,
}

impl TgsExternalLoader {
    /// Loader with the given budget and the paper's scan-everything
    /// behaviour.
    pub fn new(config: ExternalConfig) -> Self {
        TgsExternalLoader {
            config,
            memory_cutoff: false,
        }
    }

    /// Bulk-loads a TGS R-tree from an entry stream.
    pub fn load<const D: usize>(
        &self,
        dev: Arc<dyn BlockDevice>,
        params: TreeParams,
        input: &Stream,
    ) -> Result<RTree<D>, EmError> {
        if input.is_empty() {
            return RTree::new_empty(dev, params);
        }
        let len = input.len();

        // Height such that leaf_cap · node_cap^(root_level−…) covers n.
        let mut root_level: u8 = 0;
        while subtree_capacity(&params, root_level) < len as usize {
            root_level += 1;
        }

        // One sorted list per ordering, ascending by (coordinate, id):
        // one read of the input forms the runs of all `2D`, and every
        // list is written out, since each binary partition rescans it.
        let mut orders: Vec<_> = Axis::all::<D>()
            .map(|axis| AxisOrder(axis, Order::Kd))
            .collect();
        let runs = external_sort_multi::<Entry<D>, _>(
            dev.as_ref(),
            input,
            self.config.sort(),
            &mut orders,
        )?;
        let lists = runs
            .into_iter()
            .zip(orders)
            .map(|(runs, order)| merge_runs::<Entry<D>, _>(dev.as_ref(), runs, order))
            .collect::<Result<Vec<_>, _>>()?;

        let root_entry = self.build::<D>(dev.as_ref(), &params, lists, len, root_level)?;
        Ok(RTree::attach(
            dev,
            params,
            root_entry.ptr as u64,
            root_level,
            len,
        ))
    }

    /// Builds the subtree rooted at `level` over the sorted lists.
    fn build<const D: usize>(
        &self,
        dev: &dyn BlockDevice,
        params: &TreeParams,
        lists: Vec<Stream>,
        count: u64,
        level: u8,
    ) -> Result<Entry<D>, EmError> {
        if self.memory_cutoff && count <= self.config.records_fit(Entry::<D>::SIZE) as u64 {
            let entries = lists[0].read_all::<Entry<D>>(dev)?;
            discard_all(dev, lists);
            return tgs::build_node(dev, params, entries, level);
        }
        if level == 0 {
            debug_assert!(count <= params.leaf_cap as u64);
            let entries = lists[0].read_all::<Entry<D>>(dev)?;
            discard_all(dev, lists);
            let mbr = Entry::mbr(&entries);
            let page = NodePage::new(0, entries).append(dev)?;
            return Ok(Entry::new(mbr, page_ptr(page)?));
        }

        let unit = subtree_capacity(params, level - 1) as u64;
        // Greedy binary partition until every group fits one child slot.
        let mut groups: Vec<(Vec<Stream>, u64)> = Vec::new();
        let mut queue: Vec<(Vec<Stream>, u64)> = vec![(lists, count)];
        while let Some((lists, n)) = queue.pop() {
            if n <= unit {
                groups.push((lists, n));
                continue;
            }
            let (left, right) = self.binary_split::<D>(dev, lists, n, unit)?;
            queue.push(right);
            queue.push(left);
        }
        debug_assert!(groups.len() <= params.node_cap);

        let mut children = Vec::with_capacity(groups.len());
        for (glists, gn) in groups {
            children.push(self.build::<D>(dev, params, glists, gn, level - 1)?);
        }
        let mbr = Entry::mbr(&children);
        let page = NodePage::new(level, children).append(dev)?;
        Ok(Entry::new(mbr, page_ptr(page)?))
    }

    /// One greedy binary partition: sweeps all orderings for the cheapest
    /// unit-aligned cut (sum of the two bounding-box areas), then
    /// distributes every list.
    fn binary_split<const D: usize>(
        &self,
        dev: &dyn BlockDevice,
        lists: Vec<Stream>,
        n: u64,
        unit: u64,
    ) -> Result<(Side, Side), EmError> {
        let m = n.div_ceil(unit);
        debug_assert!(m >= 2);

        // Scan each ordering once: segment MBRs + the boundary entries
        // that would become split thresholds, each with the number of
        // entries up to it that are identical to it (the only ones its
        // order ties with it): 1 unless entries repeat.
        // (axis, left_len, cost, threshold, ties)
        let mut best: Option<(usize, u64, f64, Entry<D>, u64)> = None;
        for (axis_idx, list) in lists.iter().enumerate() {
            let mut order = AxisOrder(Axis(axis_idx), Order::Kd);
            let mut seg_mbrs: Vec<Rect<D>> = Vec::with_capacity(m as usize);
            let mut boundaries: Vec<(Entry<D>, u64)> = Vec::with_capacity(m as usize - 1);
            let mut reader = StreamReader::<Entry<D>>::new(dev, list);
            let mut acc = Rect::EMPTY;
            let mut idx = 0u64;
            let (mut prev, mut ties) = (None, 0u64);
            while let Some(e) = reader.next_record()? {
                acc = acc.mbr_with(&e.rect);
                idx += 1;
                ties = match prev {
                    Some(p) if order.cmp(&p, &e) == Ordering::Equal => ties + 1,
                    _ => 1,
                };
                prev = Some(e);
                if idx.is_multiple_of(unit) || idx == n {
                    seg_mbrs.push(acc);
                    acc = Rect::EMPTY;
                    if idx < n {
                        boundaries.push((e, ties));
                    }
                }
            }
            debug_assert_eq!(seg_mbrs.len(), m as usize);
            // Prefix/suffix folds over the segments.
            let mut prefix = Vec::with_capacity(m as usize);
            let mut fold = Rect::EMPTY;
            for s in &seg_mbrs {
                fold = fold.mbr_with(s);
                prefix.push(fold);
            }
            let mut suffix = vec![Rect::EMPTY; m as usize];
            let mut fold = Rect::EMPTY;
            for (i, s) in seg_mbrs.iter().enumerate().rev() {
                fold = fold.mbr_with(s);
                suffix[i] = fold;
            }
            for k in 1..m {
                let cost = prefix[k as usize - 1].area() + suffix[k as usize].area();
                if best.as_ref().is_none_or(|b| cost < b.2) {
                    let (threshold, ties) = boundaries[k as usize - 1];
                    best = Some((axis_idx, (k * unit).min(n), cost, threshold, ties));
                }
            }
        }
        let (axis_idx, left_len, _, threshold, ties) = best.expect("m >= 2 yields a cut");
        let mut order = AxisOrder(Axis(axis_idx), Order::Kd);

        // Distribution pass: < threshold goes left, and so do the first
        // `ties` entries equal to it (the threshold is the last entry of
        // the left side in the chosen ordering), so every list splits at
        // `left_len`.
        let mut left_lists = Vec::with_capacity(lists.len());
        let mut right_lists = Vec::with_capacity(lists.len());
        for list in &lists {
            let mut reader = StreamReader::<Entry<D>>::new(dev, list);
            let mut lw = StreamWriter::<Entry<D>>::new(dev);
            let mut rw = StreamWriter::<Entry<D>>::new(dev);
            let mut ties_left = ties;
            while let Some(e) = reader.next_record()? {
                let left = match order.cmp(&e, &threshold) {
                    Ordering::Less => true,
                    Ordering::Equal if ties_left > 0 => {
                        ties_left -= 1;
                        true
                    }
                    _ => false,
                };
                if left {
                    lw.push(&e)?;
                } else {
                    rw.push(&e)?;
                }
            }
            left_lists.push(lw.finish()?);
            right_lists.push(rw.finish()?);
        }
        discard_all(dev, lists);
        Ok(((left_lists, left_len), (right_lists, n - left_len)))
    }
}

fn subtree_capacity(params: &TreeParams, level: u8) -> usize {
    let mut cap = params.leaf_cap;
    for _ in 0..level {
        cap = cap.saturating_mul(params.node_cap);
    }
    cap
}

fn discard_all(dev: &dyn BlockDevice, lists: Vec<Stream>) {
    for l in lists {
        l.discard(dev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::tgs::TgsLoader;
    use crate::bulk::BulkLoader;
    use pr_em::MemDevice;
    use pr_geom::Item;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                Item::new(Rect::xyxy(x, y, x + 1.0, y + 0.5), i)
            })
            .collect()
    }

    fn leaf_groups(t: &RTree<2>) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        let mut stack = vec![t.root()];
        while let Some(p) = stack.pop() {
            let (node, _) = t.read_node(p).unwrap();
            if node.is_leaf() {
                let mut ids: Vec<u32> = node.entries.iter().map(|e| e.ptr).collect();
                ids.sort_unstable();
                out.push(ids);
            } else {
                for e in &node.entries {
                    stack.push(e.ptr as u64);
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn external_matches_in_memory_tgs() {
        let items = random_items(1200, 17);
        let params = TreeParams::with_cap::<2>(8);

        let dev_mem: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let t_mem = TgsLoader
            .load(Arc::clone(&dev_mem), params, items.clone())
            .unwrap();

        let dev_ext: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = Stream::from_iter(dev_ext.as_ref(), items.iter().map(|&i| Entry::from_item(i)))
            .unwrap();
        let t_ext = TgsExternalLoader::new(ExternalConfig::with_memory(20 * params.page_size))
            .load::<2>(Arc::clone(&dev_ext), params, &input)
            .unwrap();

        t_ext.validate().unwrap().assert_ok();
        assert_eq!(t_mem.height(), t_ext.height());
        assert_eq!(leaf_groups(&t_mem), leaf_groups(&t_ext));
    }

    #[test]
    fn memory_cutoff_produces_identical_tree() {
        let items = random_items(900, 23);
        let params = TreeParams::with_cap::<2>(8);
        let build = |cutoff: bool| {
            let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
            let input = Stream::from_iter(dev.as_ref(), items.iter().map(|&i| Entry::from_item(i)))
                .unwrap();
            let mut loader =
                TgsExternalLoader::new(ExternalConfig::with_memory(30 * params.page_size));
            loader.memory_cutoff = cutoff;
            let before = dev.io_stats();
            let t = loader.load::<2>(Arc::clone(&dev), params, &input).unwrap();
            let cost = dev.io_stats().since(before).total();
            (leaf_groups(&t), cost)
        };
        let (full, cost_full) = build(false);
        let (cut, cost_cut) = build(true);
        assert_eq!(full, cut, "cutoff must not change the tree");
        assert!(
            cost_cut < cost_full,
            "cutoff should save I/O: {cost_cut} vs {cost_full}"
        );
    }

    #[test]
    fn queries_match_brute_force() {
        let items = random_items(1000, 31);
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input =
            Stream::from_iter(dev.as_ref(), items.iter().map(|&i| Entry::from_item(i))).unwrap();
        let t = TgsExternalLoader::new(ExternalConfig::with_memory(16 * params.page_size))
            .load::<2>(Arc::clone(&dev), params, &input)
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..25 {
            let x: f64 = rng.gen_range(0.0..90.0);
            let y: f64 = rng.gen_range(0.0..90.0);
            let q = Rect::xyxy(x, y, x + 8.0, y + 3.0);
            let mut got = t.window(&q).unwrap();
            let mut want = crate::query::brute_force_window(&items, &q);
            got.sort_by_key(|i| i.id);
            want.sort_by_key(|i| i.id);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn repeated_ids_keep_every_record() {
        use crate::bulk::testing::{assert_holds_exactly, duplicate_ids};
        let same = vec![Item::new(Rect::xyxy(1.0, 2.0, 3.0, 4.0), 7); 600];
        for items in [duplicate_ids(1200, 19), same] {
            let params = TreeParams::with_cap::<2>(8);
            for pages in [16, 40] {
                let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
                let input =
                    Stream::from_iter(dev.as_ref(), items.iter().map(|&i| Entry::from_item(i)))
                        .unwrap();
                let t =
                    TgsExternalLoader::new(ExternalConfig::with_memory(pages * params.page_size))
                        .load::<2>(Arc::clone(&dev), params, &input)
                        .unwrap();
                assert_holds_exactly(&t, &items);
            }
        }
    }

    #[test]
    fn empty_input() {
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = Stream::from_iter::<Entry<2>>(dev.as_ref(), []).unwrap();
        let t = TgsExternalLoader::new(ExternalConfig::with_memory(1 << 20))
            .load::<2>(Arc::clone(&dev), params, &input)
            .unwrap();
        assert!(t.is_empty());
    }
}
