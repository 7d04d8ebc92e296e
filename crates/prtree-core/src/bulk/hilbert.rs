//! Packed Hilbert R-tree (H) and four-dimensional Hilbert R-tree (H4).
//!
//! Both loaders are one-dimensional sorts followed by bottom-up packing
//! (Kamel–Faloutsos, reference 15 in the paper):
//!
//! * **H** sorts by the Hilbert value of rectangle *centers* — a
//!   `D`-dimensional curve. Simple and fast, but blind to rectangle
//!   extent, which is exactly what the paper's SIZE/ASPECT experiments
//!   punish.
//! * **H4** maps each rectangle to the `2D`-dimensional point
//!   `(lo₁,…,lo_D,hi₁,…,hi_D)` and sorts on a `2D`-dimensional curve, so
//!   extent participates in clustering. The paper finds it slightly worse
//!   than H on nice data but far more robust on extreme data.

use crate::bulk::BulkLoader;
use crate::entry::Entry;
use crate::params::TreeParams;
use crate::tree::RTree;
use crate::writer::build_packed;
use pr_em::{BlockDevice, EmError};
use pr_geom::{Item, Rect};
use pr_hilbert::HilbertMapper;
use std::sync::Arc;

/// Sort-by-Hilbert-value bulk loader.
#[derive(Debug, Clone, Copy)]
pub struct HilbertLoader {
    /// `false`: H (curve over centers). `true`: H4 (curve over the corner
    /// mapping).
    pub use_corners: bool,
}

impl HilbertLoader {
    /// The packed Hilbert R-tree ("H").
    pub fn centers() -> Self {
        HilbertLoader { use_corners: false }
    }

    /// The four-dimensional Hilbert R-tree ("H4").
    pub fn corners() -> Self {
        HilbertLoader { use_corners: true }
    }

    /// Curve dimensionality for data dimension `D`.
    pub(crate) fn curve_dims<const D: usize>(&self) -> usize {
        if self.use_corners {
            2 * D
        } else {
            D
        }
    }

    /// Bits per curve dimension: as fine as fits in the 128-bit index.
    pub(crate) fn curve_order<const D: usize>(&self) -> u32 {
        (128 / self.curve_dims::<D>() as u32).min(32)
    }

    /// Builds the quantizer for a dataset bounding box. Uses one uniform
    /// scale across dimensions (the classic Kamel–Faloutsos quantization:
    /// the grid is a square over the data, not a per-dimension stretch) —
    /// geometry must not be distorted or the curve's locality is lost on
    /// anisotropic domains, and the paper's Theorem-3 behaviour of H/H4
    /// depends on it.
    pub(crate) fn mapper<const D: usize>(&self, domain: &Rect<D>) -> HilbertMapper {
        let dims = self.curve_dims::<D>();
        let mut lo = Vec::with_capacity(dims);
        let mut hi = Vec::with_capacity(dims);
        for k in 0..dims {
            let d = k % D;
            lo.push(domain.lo_at(d));
            hi.push(domain.hi_at(d));
        }
        HilbertMapper::new_uniform(&lo, &hi, self.curve_order::<D>())
    }

    /// The sort key of one rectangle.
    pub(crate) fn key_of<const D: usize>(&self, mapper: &HilbertMapper, rect: &Rect<D>) -> u128 {
        let mut coords = Vec::with_capacity(self.curve_dims::<D>());
        if self.use_corners {
            for d in 0..D {
                coords.push(rect.lo_at(d));
            }
            for d in 0..D {
                coords.push(rect.hi_at(d));
            }
        } else {
            let c = rect.center();
            coords.extend_from_slice(c.coords());
        }
        mapper.index_of(&coords)
    }
}

impl<const D: usize> BulkLoader<D> for HilbertLoader {
    fn name(&self) -> &'static str {
        if self.use_corners {
            "H4"
        } else {
            "H"
        }
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
        let domain = Rect::mbr_of(items.iter().map(|i| &i.rect));
        let mapper = self.mapper(&domain);
        let mut keyed: Vec<(u128, Entry<D>)> = items
            .into_iter()
            .map(|i| (self.key_of(&mapper, &i.rect), Entry::from_item(i)))
            .collect();
        // Ties (identical curve cells) break by id for determinism.
        keyed.sort_unstable_by_key(|(k, e)| (*k, e.ptr));
        let leaf_entries: Vec<Entry<D>> = keyed.into_iter().map(|(_, e)| e).collect();
        build_packed(dev, params, leaf_entries)
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

    fn build(loader: HilbertLoader, items: Vec<Item<2>>, cap: usize) -> RTree<2> {
        let params = TreeParams::with_cap::<2>(cap);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        loader.load(dev, params, items).unwrap()
    }

    #[test]
    fn curve_configuration() {
        let h = HilbertLoader::centers();
        let h4 = HilbertLoader::corners();
        assert_eq!(h.curve_dims::<2>(), 2);
        assert_eq!(h4.curve_dims::<2>(), 4);
        assert_eq!(h.curve_order::<2>(), 32);
        assert_eq!(h4.curve_order::<2>(), 32);
        assert_eq!(h4.curve_dims::<3>(), 6);
        assert_eq!(h4.curve_order::<3>(), 21);
        assert_eq!(<HilbertLoader as BulkLoader<2>>::name(&h), "H");
        assert_eq!(<HilbertLoader as BulkLoader<2>>::name(&h4), "H4");
    }

    #[test]
    fn both_variants_build_valid_trees() {
        for loader in [HilbertLoader::centers(), HilbertLoader::corners()] {
            for n in [1u32, 9, 100, 1234] {
                let t = build(loader, random_items(n, n as u64), 8);
                t.validate().unwrap().assert_ok();
                assert_eq!(t.len(), n as u64);
            }
        }
    }

    #[test]
    fn packing_is_nearly_full() {
        for loader in [HilbertLoader::centers(), HilbertLoader::corners()] {
            let t = build(loader, random_items(4000, 2), 10);
            let s = t.stats().unwrap();
            assert!(s.leaf_utilization() > 0.99, "packed leaves are full");
        }
    }

    #[test]
    fn queries_match_brute_force() {
        let items = random_items(2500, 77);
        for loader in [HilbertLoader::centers(), HilbertLoader::corners()] {
            let t = build(loader, items.clone(), 16);
            let mut rng = SmallRng::seed_from_u64(8);
            for _ in 0..40 {
                let x: f64 = rng.gen_range(0.0..95.0);
                let y: f64 = rng.gen_range(0.0..95.0);
                let q = Rect::xyxy(x, y, x + 5.0, y + 5.0);
                let mut got = t.window(&q).unwrap();
                let mut want = brute_force_window(&items, &q);
                got.sort_by_key(|i| i.id);
                want.sort_by_key(|i| i.id);
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn hilbert_clusters_neighbors() {
        // Items on a line, shuffled: after a Hilbert build, each leaf's
        // items should be spatially close (x-extent of a leaf's MBR far
        // below the full span).
        let mut items = random_items(1000, 5);
        use rand::seq::SliceRandom;
        items.shuffle(&mut SmallRng::seed_from_u64(1));
        let t = build(HilbertLoader::centers(), items, 10);
        let s = t.stats().unwrap();
        assert_eq!(s.nodes_per_level[0], 100);
        // Average leaf MBR area must be tiny compared to the 100×100 domain.
        let pages = crate::bulk::testing::leaves(&t);
        let total_area: f64 = pages.iter().map(|n| n.mbr().area()).sum();
        let leaves = pages.len() as f64;
        assert!(total_area / leaves < 0.05 * 100.0 * 100.0);
    }
}
