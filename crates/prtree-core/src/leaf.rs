//! Leaf pages read in place — the leaf side of the query engine.
//!
//! The paper prices a query in leaf I/Os with every internal node
//! cached, so a leaf is read once per visit and is never retained
//! ([`crate::cache`] keeps internal nodes only). A [`LeafRecords`]
//! borrows the entry array of a raw leaf page — `count` back-to-back
//! little-endian [`Entry`] records, 36 bytes each for D = 2 and 52 for
//! D = 3 — straight from the bytes [`pr_em::BlockDevice::with_block`]
//! exposes, and runs each leaf kernel in **one pass** over them: the
//! window test and push, the match count, the existence test, the
//! exact-identity count, the k-NN admission and the plain item walk.
//! Nothing is transcoded; an [`Item`] is built only for a record the
//! kernel keeps.
//!
//! Every comparison is the one the SoA kernels of [`pr_geom::batch`]
//! make, on the same `f64` bits, so results, their order and every
//! distance are unchanged from a transcoded scan (pinned by
//! `tests/engine_equivalence.rs` against the scalar reference engine).

use crate::dynamic::same_identity;
use crate::entry::Entry;
use crate::knn::KBest;
use crate::page::PAGE_HEADER_SIZE;
use pr_em::Record;
use pr_geom::{Item, Point, Rect};

/// The records of one leaf page, borrowed in place (see module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeafRecords<'a, const D: usize> {
    /// Exactly `len · Entry::<D>::SIZE` bytes.
    bytes: &'a [u8],
}

#[inline(always)]
fn decode_item<const D: usize>(rec: &[u8]) -> Item<D> {
    let (lo, hi) = Entry::<D>::read_corners(rec);
    Item::new(Rect::new(lo, hi), Entry::<D>::read_ptr(rec))
}

/// True when `rec` is bit-identical to `item`; coordinates are read only
/// for a record whose id matches.
#[inline(always)]
fn identical<const D: usize>(rec: &[u8], item: &Item<D>) -> bool {
    Entry::<D>::read_ptr(rec) == item.id && same_identity(&decode_item::<D>(rec), item)
}

/// Closed intersection, branch-free over the dimensions — the test
/// [`pr_geom::batch::intersects_mask`] makes.
#[inline(always)]
fn intersects<const D: usize>(lo: &[f64; D], hi: &[f64; D], q: &Rect<D>) -> bool {
    let mut keep = true;
    for d in 0..D {
        keep &= (lo[d] <= q.hi_at(d)) & (q.lo_at(d) <= hi[d]);
    }
    keep
}

impl<'a, const D: usize> LeafRecords<'a, D> {
    /// The first `count` records of a page whose header
    /// [`crate::page::page_header`] has already accepted.
    pub(crate) fn new(buf: &'a [u8], count: usize) -> Self {
        Self::from_records(&buf[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + count * Entry::<D>::SIZE])
    }

    /// Records laid out back to back with no page header: a loose chunk
    /// ([`crate::dynamic::loose`]).
    pub(crate) fn from_records(bytes: &'a [u8]) -> Self {
        debug_assert_eq!(bytes.len() % Entry::<D>::SIZE, 0);
        LeafRecords { bytes }
    }

    #[inline]
    fn records(&self) -> std::slice::ChunksExact<'a, u8> {
        self.bytes.chunks_exact(Entry::<D>::SIZE)
    }

    /// Calls `f` on every record as an [`Item`], in page order.
    pub(crate) fn for_each_item(&self, mut f: impl FnMut(Item<D>)) {
        for rec in self.records() {
            f(decode_item::<D>(rec));
        }
    }

    /// Appends every record intersecting `query` to `out`, in page
    /// order, and returns how many matched.
    pub(crate) fn collect_intersecting(&self, query: &Rect<D>, out: &mut Vec<Item<D>>) -> u64 {
        let mut count = 0u64;
        for rec in self.records() {
            let (lo, hi) = Entry::<D>::read_corners(rec);
            if intersects(&lo, &hi, query) {
                out.push(Item::new(Rect::new(lo, hi), Entry::<D>::read_ptr(rec)));
                count += 1;
            }
        }
        count
    }

    /// Counts the records intersecting `query`; reads no id.
    pub(crate) fn count_intersecting(&self, query: &Rect<D>) -> u64 {
        self.records()
            .map(|rec| {
                let (lo, hi) = Entry::<D>::read_corners(rec);
                intersects(&lo, &hi, query) as u64
            })
            .sum()
    }

    /// Counts records bit-identical to `item`, as [`same_identity`]
    /// compares them. The id is tested first; coordinates are read only
    /// for a record whose id matches.
    pub(crate) fn count_identical(&self, item: &Item<D>) -> u64 {
        self.records().filter(|rec| identical(rec, item)).count() as u64
    }

    /// Index of the first record bit-identical to `item`, tested as
    /// [`LeafRecords::count_identical`] tests it.
    pub(crate) fn position_identical(&self, item: &Item<D>) -> Option<usize> {
        self.records().position(|rec| identical(rec, item))
    }

    /// The k-NN leaf step: every record whose squared distance to `p`
    /// `best` still admits, and that `admit` accepts, enters `best`, in
    /// page order. The distance is
    /// [`pr_geom::batch::min_dist2_batch`]'s, bit for bit; an [`Item`]
    /// is built only for a record the bound admits.
    pub(crate) fn offer_nearest(
        &self,
        p: &Point<D>,
        best: &mut KBest<D>,
        mut admit: impl FnMut(&Item<D>) -> bool,
    ) {
        for rec in self.records() {
            let (lo, hi) = Entry::<D>::read_corners(rec);
            let mut d2 = 0.0;
            for d in 0..D {
                let c = p.coord(d);
                let delta = (lo[d] - c).max(c - hi[d]).max(0.0);
                d2 += delta * delta;
            }
            if best.admits(d2) {
                let it = Item::new(Rect::new(lo, hi), Entry::<D>::read_ptr(rec));
                if admit(&it) {
                    best.insert(d2, it);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{page_header, NodePage};
    use pr_em::EmError;
    use pr_geom::batch;

    /// Views a raw leaf page the way a traversal does: the header is
    /// validated as [`NodePage::decode`] validates it, and a page whose
    /// level is not 0 is [`EmError::Corrupt`] too.
    fn from_bytes<const D: usize>(buf: &[u8]) -> Result<LeafRecords<'_, D>, EmError> {
        match page_header::<D>(buf)? {
            (0, count) => Ok(LeafRecords::new(buf, count)),
            (level, _) => Err(EmError::Corrupt(format!(
                "page at level {level} is not a leaf"
            ))),
        }
    }

    fn page<const D: usize>(level: u8, n: usize) -> Vec<u8> {
        let entries = (0..n)
            .map(|i| {
                let f = i as f64;
                let lo = std::array::from_fn(|d| f - d as f64);
                let hi = std::array::from_fn(|d| f + 1.0 + d as f64);
                Entry::new(Rect::new(lo, hi), i as u32 * 3)
            })
            .collect();
        let mut buf = vec![0u8; 4096];
        NodePage::<D>::new(level, entries).encode(&mut buf);
        buf
    }

    fn items<const D: usize>(buf: &[u8]) -> Vec<Item<D>> {
        NodePage::<D>::decode(buf)
            .unwrap()
            .entries
            .iter()
            .map(|e| e.to_item())
            .collect()
    }

    #[test]
    fn corrupt_buffers_are_rejected() {
        let bad = |buf: &[u8]| matches!(from_bytes::<2>(buf), Err(EmError::Corrupt(_)));
        assert!(bad(&[0u8; 4096]), "bad magic");
        let mut buf = page::<2>(0, 3);
        buf[6..8].copy_from_slice(&500u16.to_le_bytes());
        assert!(bad(&buf), "count > cap");
        assert!(bad(&buf[..8]), "short header");
        assert!(bad(&page::<2>(1, 3)), "internal page");
        let mut n = 0;
        from_bytes::<2>(&page::<2>(0, 113))
            .unwrap()
            .for_each_item(|_| n += 1);
        assert_eq!(n, 113);
    }

    fn kernels_match_decoded_items<const D: usize>() {
        let buf = page::<D>(0, (4096 - PAGE_HEADER_SIZE) / Entry::<D>::SIZE);
        let leaf = from_bytes::<D>(&buf).unwrap();
        let want = items::<D>(&buf);
        let mut walked = Vec::new();
        leaf.for_each_item(|it| walked.push(it));
        assert_eq!(walked, want);
        for (lo, hi) in [(2.0, 9.5), (50.0, 50.0), (-100.0, -50.0), (0.0, 1e9)] {
            let q = Rect::new([lo; D], [hi; D]);
            let hits: Vec<Item<D>> = want
                .iter()
                .copied()
                .filter(|it| it.rect.intersects(&q))
                .collect();
            let mut out = vec![want[0]];
            assert_eq!(leaf.collect_intersecting(&q, &mut out), hits.len() as u64);
            assert_eq!(out[1..], hits[..], "appended in page order");
            assert_eq!(leaf.count_intersecting(&q), hits.len() as u64);
        }
        assert_eq!(leaf.count_identical(&want[7]), 1);
        let mut moved = want[7];
        moved.rect = Rect::new(*moved.rect.lo(), moved.rect.hi().map(f64::next_up));
        assert_eq!(leaf.count_identical(&moved), 0, "same id, other bits");
    }

    #[test]
    fn kernels_match_decoded_items_2d() {
        kernels_match_decoded_items::<2>();
    }

    #[test]
    fn kernels_match_decoded_items_3d() {
        kernels_match_decoded_items::<3>();
    }

    /// The k-NN step keeps exactly what the batched-distance loop over a
    /// transcoded node kept, distance bits included.
    #[test]
    fn offer_nearest_matches_the_batched_distances() {
        let buf = page::<2>(0, 60);
        let leaf = from_bytes::<2>(&buf).unwrap();
        let want = items::<2>(&buf);
        let lo: Vec<Vec<f64>> = (0..2)
            .map(|d| want.iter().map(|i| i.rect.lo_at(d)).collect())
            .collect();
        let hi: Vec<Vec<f64>> = (0..2)
            .map(|d| want.iter().map(|i| i.rect.hi_at(d)).collect())
            .collect();
        let p = Point::new([20.25, -3.0]);
        let mut dist = vec![0.0; want.len()];
        batch::min_dist2_batch(&[&lo[0], &lo[1]], &[&hi[0], &hi[1]], &p, &mut dist);
        let (mut got, mut expect) = (KBest::new(9), KBest::new(9));
        leaf.offer_nearest(&p, &mut got, |it| it.id % 2 == 0);
        for (it, &d2) in want.iter().zip(&dist) {
            if expect.admits(d2) && it.id % 2 == 0 {
                expect.insert(d2, *it);
            }
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        got.drain_sorted_into(&mut a);
        expect.drain_sorted_into(&mut b);
        assert_eq!(a.len(), 9);
        assert_eq!(
            a.iter().map(|(i, d)| (*i, d.to_bits())).collect::<Vec<_>>(),
            b.iter().map(|(i, d)| (*i, d.to_bits())).collect::<Vec<_>>()
        );
    }
}
