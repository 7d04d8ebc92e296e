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
//! The rules are [`crate::bulk::tgs`]'s: the height, the greedy cut over
//! the segments one scan per ordering gathers, and the threshold/ties
//! split one distribution pass applies to every list. Each boundary a
//! scan records carries its count of identical entries up to it, which
//! is the split's `ties`. So both loaders build the same tree, and pages
//! go through the same node writer, `writer::LevelWriter`.

use crate::bulk::external::ExternalConfig;
use crate::bulk::kd_split::{AxisOrder, Order};
use crate::bulk::tgs::{best_cut, goes_left, root_level, subtree_capacity};
use crate::entry::Entry;
use crate::params::TreeParams;
use crate::tree::RTree;
use crate::writer::LevelWriter;
use pr_em::{
    external_sort_multi, merge_runs, BlockDevice, EmError, SortOrder, Stream, StreamReader,
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
    /// Memory budget (`M`), used by the initial sorts.
    pub config: ExternalConfig,
}

impl TgsExternalLoader {
    /// Loader with the given budget.
    pub fn new(config: ExternalConfig) -> Self {
        TgsExternalLoader { config }
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
        let level = root_level(&params, len);

        // One sorted list per ordering, ascending by (coordinate, id):
        // one read of the input forms the runs of all `2D`, and every
        // list is written out, since each binary partition rescans it.
        let mut orders: Vec<_> = Axis::all::<D>()
            .map(|axis| AxisOrder(axis, Order::Kd))
            .collect();
        let runs =
            external_sort_multi::<Entry<D>, _>(dev.as_ref(), input, self.config, &mut orders)?;
        let lists = runs
            .into_iter()
            .zip(orders)
            .map(|(runs, order)| merge_runs::<Entry<D>, _>(dev.as_ref(), runs, order))
            .collect::<Result<Vec<_>, _>>()?;

        let root = build::<D>(dev.as_ref(), &params, lists, len, level)?;
        Ok(RTree::attach(dev, params, root.ptr as u64, level, len))
    }
}

/// Builds the subtree rooted at `level` over the sorted lists.
fn build<const D: usize>(
    dev: &dyn BlockDevice,
    params: &TreeParams,
    lists: Vec<Stream>,
    count: u64,
    level: u8,
) -> Result<Entry<D>, EmError> {
    if level == 0 {
        debug_assert!(count <= params.leaf_cap as u64);
        let entries = lists[0].read_all::<Entry<D>>(dev)?;
        discard_all(dev, lists);
        return LevelWriter::new(dev, 0).append(&entries);
    }

    let unit = subtree_capacity(params, level - 1) as u64;
    // Greedy binary partition until every group fits one child slot.
    let mut groups: Vec<Side> = Vec::new();
    let mut queue: Vec<Side> = vec![(lists, count)];
    while let Some((lists, n)) = queue.pop() {
        if n <= unit {
            groups.push((lists, n));
            continue;
        }
        let (left, right) = binary_split::<D>(dev, lists, n, unit)?;
        queue.push(right);
        queue.push(left);
    }
    debug_assert!(groups.len() <= params.leaf_cap);

    let children = groups
        .into_iter()
        .map(|(lists, n)| build::<D>(dev, params, lists, n, level - 1))
        .collect::<Result<Vec<_>, _>>()?;
    LevelWriter::new(dev, level).append(&children)
}

/// One greedy binary partition: one scan per ordering gathers its unit
/// segments' bounding boxes for the greedy rule, then one distribution
/// pass splits every list by the split rule.
fn binary_split<const D: usize>(
    dev: &dyn BlockDevice,
    lists: Vec<Stream>,
    n: u64,
    unit: u64,
) -> Result<(Side, Side), EmError> {
    // Per ordering: the segments' bounding boxes, and the entries that
    // end a segment, the cut's possible thresholds, each with the number
    // of entries up to it that are identical to it (the only ones its
    // order ties with it): 1 unless entries repeat.
    let mut segments = Vec::with_capacity(lists.len());
    let mut boundaries = Vec::with_capacity(lists.len());
    for (a, list) in lists.iter().enumerate() {
        let mut order = AxisOrder(Axis(a), Order::Kd);
        let mut segs: Vec<Rect<D>> = Vec::new();
        let mut ends: Vec<(Entry<D>, u64)> = Vec::new();
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
                segs.push(acc);
                acc = Rect::EMPTY;
                ends.push((e, ties));
            }
        }
        segments.push(segs);
        boundaries.push(ends);
    }
    let (axis, k) = best_cut(&segments);
    let (threshold, ties) = boundaries[axis.0][k - 1];
    let left_len = (k as u64 * unit).min(n);

    let mut left_lists = Vec::with_capacity(lists.len());
    let mut right_lists = Vec::with_capacity(lists.len());
    for list in &lists {
        let mut goes_left = goes_left(axis, threshold, ties);
        let mut reader = StreamReader::<Entry<D>>::new(dev, list);
        let mut lw = StreamWriter::<Entry<D>>::new(dev);
        let mut rw = StreamWriter::<Entry<D>>::new(dev);
        while let Some(e) = reader.next_record()? {
            if goes_left(&e) {
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
        let mut out: Vec<Vec<u32>> = crate::bulk::testing::leaves(t)
            .iter()
            .map(|n| {
                let mut ids: Vec<u32> = n.entries.iter().map(|e| e.ptr).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        out.sort();
        out
    }

    /// Both loaders sort like each other and split by the same rule, so
    /// their leaf groups match, for repeated ids too.
    #[test]
    fn external_matches_in_memory_tgs() {
        use crate::bulk::testing::duplicate_ids;
        let params = TreeParams::with_cap::<2>(8);
        for items in [random_items(1200, 17), duplicate_ids(1200, 19)] {
            let dev_mem: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
            let t_mem = TgsLoader
                .load(Arc::clone(&dev_mem), params, items.clone())
                .unwrap();

            let dev_ext: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
            let input =
                Stream::from_iter(dev_ext.as_ref(), items.iter().map(|&i| Entry::from_item(i)))
                    .unwrap();
            let t_ext = TgsExternalLoader::new(ExternalConfig::with_memory(20 * params.page_size))
                .load::<2>(Arc::clone(&dev_ext), params, &input)
                .unwrap();

            t_ext.validate().unwrap().assert_ok();
            assert_eq!(t_mem.height(), t_ext.height());
            assert_eq!(leaf_groups(&t_mem), leaf_groups(&t_ext));
        }
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
