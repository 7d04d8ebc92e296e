//! Sort-Tile-Recursive (STR) packing — Leutenegger, López & Edgington,
//! reference 18 of the paper.
//!
//! Not part of the paper's measured quartet, but it is *the* bulk loader
//! shipped by mainstream spatial libraries, which makes it a valuable
//! extra baseline: the experiments show where the PR-tree beats what
//! practitioners actually deploy.
//!
//! STR sorts by the center of the first dimension, cuts the data into
//! `⌈P^(1/D)⌉` vertical slabs (`P` = number of leaves), recursively tiles
//! each slab on the remaining dimensions, then packs leaves in the
//! resulting order and repeats for upper levels.

use crate::bulk::BulkLoader;
use crate::entry::Entry;
use crate::params::TreeParams;
use crate::tree::RTree;
use crate::writer::{chunks, stack_levels};
use pr_em::{BlockDevice, EmError};
use pr_geom::Item;
use std::sync::Arc;

/// The STR bulk loader.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrLoader;

/// Orders `entries` into STR tile order for node capacity `cap`,
/// recursing over dimensions starting at `dim`. Loose items are cut into
/// chunks in this order too ([`crate::dynamic::loose`]).
pub(crate) fn tile<const D: usize>(entries: &mut [Entry<D>], dim: usize, cap: usize) {
    entries.sort_unstable_by(|a, b| {
        let ca = (a.rect.lo_at(dim) + a.rect.hi_at(dim)) / 2.0;
        let cb = (b.rect.lo_at(dim) + b.rect.hi_at(dim)) / 2.0;
        ca.total_cmp(&cb).then_with(|| a.ptr.cmp(&b.ptr))
    });
    if dim + 1 == D || entries.len() <= cap {
        return;
    }
    let leaves = entries.len().div_ceil(cap);
    let remaining_dims = (D - dim) as f64;
    let slabs = (leaves as f64).powf(1.0 / remaining_dims).ceil() as usize;
    // Slab sizes are multiples of the node capacity so that the final
    // chunking never produces a node straddling two slabs (in the original
    // STR formulation each vertical slice holds S·B rectangles).
    let slab_size = entries.len().div_ceil(slabs.max(1)).div_ceil(cap).max(1) * cap;
    for chunk in entries.chunks_mut(slab_size) {
        tile(chunk, dim + 1, cap);
    }
}

impl<const D: usize> BulkLoader<D> for StrLoader {
    fn name(&self) -> &'static str {
        "STR"
    }

    fn load(
        &self,
        dev: Arc<dyn BlockDevice>,
        params: TreeParams,
        items: Vec<Item<D>>,
    ) -> Result<RTree<D>, EmError> {
        let entries: Vec<Entry<D>> = items.into_iter().map(Entry::from_item).collect();
        // Every level, leaves and the parent rectangles above them alike,
        // is tiled before it is packed — the "recursive" in
        // Sort-Tile-Recursive.
        stack_levels(dev, params, entries, |entries, cap| {
            tile(entries, 0, cap);
            chunks(entries.len(), cap)
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
                Item::new(Rect::xyxy(x, y, x + 0.5, y + 0.5), i)
            })
            .collect()
    }

    fn build(items: Vec<Item<2>>, cap: usize) -> RTree<2> {
        let params = TreeParams::with_cap::<2>(cap);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        StrLoader.load(dev, params, items).unwrap()
    }

    #[test]
    fn builds_valid_trees() {
        for n in [1u32, 10, 64, 65, 777, 3000] {
            let t = build(random_items(n, n as u64), 8);
            t.validate().unwrap().assert_ok();
            assert_eq!(t.len(), n as u64);
        }
    }

    #[test]
    fn leaves_are_packed_full() {
        let t = build(random_items(4000, 4), 10);
        assert!(t.stats().unwrap().leaf_utilization() > 0.99);
    }

    #[test]
    fn queries_match_brute_force() {
        let items = random_items(2000, 21);
        let t = build(items.clone(), 16);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..40 {
            let x: f64 = rng.gen_range(0.0..95.0);
            let y: f64 = rng.gen_range(0.0..95.0);
            let q = Rect::xyxy(x, y, x + 4.0, y + 4.0);
            let mut got = t.window(&q).unwrap();
            let mut want = brute_force_window(&items, &q);
            got.sort_by_key(|i| i.id);
            want.sort_by_key(|i| i.id);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn tiling_groups_are_spatially_coherent() {
        // Uniform points: each leaf MBR should cover a small fraction of
        // the domain (tiles, not stripes).
        let t = build(random_items(4000, 8), 16);
        let max_area = crate::bulk::testing::leaves(&t)
            .iter()
            .map(|n| n.mbr().area())
            .fold(0.0, f64::max);
        assert!(
            max_area < 0.05 * 100.0 * 100.0,
            "leaf MBR too large: {max_area}"
        );
    }
}
