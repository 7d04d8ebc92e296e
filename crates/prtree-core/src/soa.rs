//! Structure-of-arrays node views — the decode-free read path.
//!
//! # Why a second node representation
//!
//! [`crate::page::NodePage`] decodes a 4KB page into a `Vec<Entry>`:
//! perfect for the *write* path (loaders, dynamic updates, encoding),
//! but expensive to scan — every query visit walks 113 heap-allocated
//! 36-byte AoS records with a branchy scalar `Rect::intersects` per
//! entry. A [`SoaNode`] transcodes the same page **once** into
//! per-dimension coordinate columns (`lo[d][..]`, `hi[d][..]`) plus a
//! `ptrs` column, so the per-visit scan becomes the branch-free,
//! auto-vectorized kernels of [`pr_geom::batch`] over contiguous `f64`
//! slices.
//!
//! Division of labor after this module:
//!
//! * **Read path (hot):** [`crate::cache::ShardedNodeCache`], its frozen
//!   post-warm snapshot, and the pinned shard maps all store
//!   `Arc<SoaNode>`; traversal ([`crate::query`], [`crate::knn`]) only
//!   ever touches columns. Cache misses transcode straight from the raw
//!   page bytes into a reusable [`crate::scratch::QueryScratch`] buffer —
//!   no `Vec<Entry>`, no per-visit allocation.
//! * **Write path:** loaders and dynamic updates keep producing
//!   [`NodePage`]s; [`SoaNode::from_page`]/[`SoaNode::to_page`] convert
//!   at the boundary (`tree.rs` admit/readback).
//!
//! Columns are plain `Vec<f64>` (8-byte aligned, each dimension
//! contiguous); the kernels rely on contiguity, not on wider alignment —
//! unaligned SIMD loads are free on every target this runs on.

use crate::dynamic::same_identity;
use crate::entry::Entry;
use crate::page::{NodePage, MAGIC, PAGE_HEADER_SIZE};
use pr_em::{EmError, Record};
use pr_geom::{batch, Item, Point, Rect};

/// A node transcoded into structure-of-arrays columns.
///
/// Layout: `lo` and `hi` hold `D · len` coordinates each, dimension-major
/// (`lo[d·len .. (d+1)·len]` is the lower-corner column of dimension
/// `d`); `ptrs[i]` is the data id (leaves) or child page id (internal
/// nodes) of entry `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaNode<const D: usize> {
    level: u8,
    len: usize,
    lo: Vec<f64>,
    hi: Vec<f64>,
    ptrs: Vec<u32>,
}

impl<const D: usize> Default for SoaNode<D> {
    fn default() -> Self {
        SoaNode {
            level: 0,
            len: 0,
            lo: Vec::new(),
            hi: Vec::new(),
            ptrs: Vec::new(),
        }
    }
}

impl<const D: usize> SoaNode<D> {
    /// An empty leaf; the reusable transcode target starts here.
    pub fn new_empty() -> Self {
        Self::default()
    }

    /// Transcodes a raw on-device page buffer (validates the header the
    /// same way [`NodePage::decode`] does).
    pub fn from_bytes(buf: &[u8]) -> Result<Self, EmError> {
        let mut node = Self::new_empty();
        node.refill_from_bytes(buf)?;
        Ok(node)
    }

    /// Re-transcodes `buf` into this node in place, reusing the column
    /// allocations — the zero-allocation leaf-miss path of the query
    /// engine.
    pub fn refill_from_bytes(&mut self, buf: &[u8]) -> Result<(), EmError> {
        if buf.len() < PAGE_HEADER_SIZE || buf[..4] != MAGIC {
            return Err(EmError::Corrupt("bad node page magic".into()));
        }
        let level = buf[4];
        let count = u16::from_le_bytes(buf[6..8].try_into().expect("2 bytes")) as usize;
        let cap = (buf.len() - PAGE_HEADER_SIZE) / Entry::<D>::SIZE;
        if count > cap {
            return Err(EmError::Corrupt(format!(
                "node count {count} exceeds page capacity {cap}"
            )));
        }
        self.level = level;
        self.len = count;
        self.lo.resize(D * count, 0.0);
        self.hi.resize(D * count, 0.0);
        self.ptrs.resize(count, 0);
        // Column-at-a-time transcode over `chunks_exact` records: the
        // zip bounds the iteration and the in-record offsets are
        // compile-time constants (the `0..D` loop unrolls), so the body
        // is bounds-check-free — this runs on every uncached leaf visit.
        let stride = Entry::<D>::SIZE;
        let records = buf[PAGE_HEADER_SIZE..].chunks_exact(stride);
        for d in 0..D {
            let lo_col = &mut self.lo[d * count..(d + 1) * count];
            for (v, rec) in lo_col.iter_mut().zip(records.clone()) {
                *v = f64::from_le_bytes(rec[d * 8..d * 8 + 8].try_into().expect("8 bytes"));
            }
            let hi_col = &mut self.hi[d * count..(d + 1) * count];
            for (v, rec) in hi_col.iter_mut().zip(records.clone()) {
                *v = f64::from_le_bytes(
                    rec[(D + d) * 8..(D + d) * 8 + 8]
                        .try_into()
                        .expect("8 bytes"),
                );
            }
        }
        for (v, rec) in self.ptrs.iter_mut().zip(records) {
            *v = u32::from_le_bytes(rec[2 * D * 8..2 * D * 8 + 4].try_into().expect("4 bytes"));
        }
        Ok(())
    }

    /// Converts a decoded AoS node (write-path boundary).
    pub fn from_page(page: &NodePage<D>) -> Self {
        let count = page.entries.len();
        let mut node = SoaNode {
            level: page.level,
            len: count,
            lo: vec![0.0; D * count],
            hi: vec![0.0; D * count],
            ptrs: Vec::with_capacity(count),
        };
        for (i, e) in page.entries.iter().enumerate() {
            for d in 0..D {
                node.lo[d * count + i] = e.rect.lo_at(d);
                node.hi[d * count + i] = e.rect.hi_at(d);
            }
            node.ptrs.push(e.ptr);
        }
        node
    }

    /// Converts back to the AoS form (maintenance/update boundary).
    pub fn to_page(&self) -> NodePage<D> {
        NodePage::new(self.level, (0..self.len).map(|i| self.entry(i)).collect())
    }

    /// Level in the tree: 0 for leaves.
    #[inline]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// True for leaf nodes.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the node has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lower-corner coordinate column of dimension `d`.
    #[inline]
    pub fn lo_dim(&self, d: usize) -> &[f64] {
        &self.lo[d * self.len..(d + 1) * self.len]
    }

    /// Upper-corner coordinate column of dimension `d`.
    #[inline]
    pub fn hi_dim(&self, d: usize) -> &[f64] {
        &self.hi[d * self.len..(d + 1) * self.len]
    }

    /// All lower-corner columns, ready for the batch kernels.
    #[inline]
    pub fn lo_dims(&self) -> [&[f64]; D] {
        std::array::from_fn(|d| self.lo_dim(d))
    }

    /// All upper-corner columns.
    #[inline]
    pub fn hi_dims(&self) -> [&[f64]; D] {
        std::array::from_fn(|d| self.hi_dim(d))
    }

    /// Pointer column (data ids in leaves, child pages in internal nodes).
    #[inline]
    pub fn ptrs(&self) -> &[u32] {
        &self.ptrs
    }

    /// Pointer of entry `i`.
    #[inline]
    pub fn ptr(&self, i: usize) -> u32 {
        self.ptrs[i]
    }

    /// Rectangle of entry `i`, gathered from the columns.
    #[inline]
    pub fn rect(&self, i: usize) -> Rect<D> {
        batch::gather_rect(&self.lo_dims(), &self.hi_dims(), i)
    }

    /// Entry `i` in AoS form.
    #[inline]
    pub fn entry(&self, i: usize) -> Entry<D> {
        Entry::new(self.rect(i), self.ptrs[i])
    }

    /// Leaf entry `i` as an input item.
    #[inline]
    pub fn item(&self, i: usize) -> Item<D> {
        Item::new(self.rect(i), self.ptrs[i])
    }

    /// Minimal bounding rectangle of all entries.
    pub fn mbr(&self) -> Rect<D> {
        (0..self.len).fold(Rect::EMPTY, |acc, i| acc.mbr_with(&self.rect(i)))
    }

    /// Runs the vectorized intersection kernel against `query` and calls
    /// `f(i)` for every matching entry index, in ascending order (the
    /// same order the AoS scan visited entries, so traversal output and
    /// stack order are unchanged). `mask` is caller-provided scratch.
    #[inline]
    pub fn for_each_intersecting(
        &self,
        query: &Rect<D>,
        mask: &mut Vec<u8>,
        mut f: impl FnMut(usize),
    ) {
        mask.resize(self.len, 0);
        batch::intersects_mask(&self.lo_dims(), &self.hi_dims(), query, mask);
        for (i, &m) in mask.iter().enumerate() {
            if m != 0 {
                f(i);
            }
        }
    }

    /// [`SoaNode::for_each_intersecting`] with the covering kernel:
    /// calls `f(i)` for every entry whose rectangle covers `query`
    /// ([`batch::covers_mask`]), in ascending order.
    #[inline]
    pub fn for_each_covering(&self, query: &Rect<D>, mask: &mut Vec<u8>, mut f: impl FnMut(usize)) {
        mask.resize(self.len, 0);
        batch::covers_mask(&self.lo_dims(), &self.hi_dims(), query, mask);
        for (i, &m) in mask.iter().enumerate() {
            if m != 0 {
                f(i);
            }
        }
    }

    /// Counts entries bit-identical to `item`: the same pointer (a
    /// leaf's data id) and the same coordinate bits, exactly as
    /// [`same_identity`] compares them.
    /// The id test screens first, so a rectangle is gathered only for
    /// an id match.
    pub fn count_identical(&self, item: &Item<D>) -> u64 {
        self.ptrs
            .iter()
            .enumerate()
            .filter(|&(i, &p)| p == item.id && same_identity(&self.item(i), item))
            .count() as u64
    }

    /// Counts entries intersecting `query` — the leaf kernel of
    /// counting window queries: no mask, no pointer reads, one fused
    /// branch-free pass.
    #[inline]
    pub fn count_intersecting(&self, query: &Rect<D>) -> u64 {
        batch::intersects_count(&self.lo_dims(), &self.hi_dims(), self.len, query)
    }

    /// Appends every entry intersecting `query` to `out` as an
    /// [`Item`], in ascending index order, returning how many matched —
    /// the leaf kernel of materializing window queries. The columns are
    /// hoisted once, so each match is a handful of in-cache loads and
    /// one 40-byte push rather than a fresh gather through the
    /// accessors.
    pub fn collect_intersecting(&self, query: &Rect<D>, out: &mut Vec<Item<D>>) -> u64 {
        let lo = self.lo_dims();
        let hi = self.hi_dims();
        let mut count = 0u64;
        for i in 0..self.len {
            let mut keep = true;
            for d in 0..D {
                keep &= (lo[d][i] <= query.hi_at(d)) & (query.lo_at(d) <= hi[d][i]);
            }
            if keep {
                out.push(Item::new(
                    Rect::new(
                        std::array::from_fn(|d| lo[d][i]),
                        std::array::from_fn(|d| hi[d][i]),
                    ),
                    self.ptrs[i],
                ));
                count += 1;
            }
        }
        count
    }

    /// True if any entry intersects `query` (kernel pass over the node;
    /// the `intersects_any` early-exit path uses this per leaf).
    #[inline]
    pub fn any_intersecting(&self, query: &Rect<D>, mask: &mut Vec<u8>) -> bool {
        mask.resize(self.len, 0);
        batch::intersects_mask(&self.lo_dims(), &self.hi_dims(), query, mask);
        mask.iter().any(|&m| m != 0)
    }

    /// Batched `min_dist2` from `p` to every entry into `out`
    /// (bit-identical to the scalar [`Rect::min_dist2`]).
    #[inline]
    pub fn min_dist2_into(&self, p: &Point<D>, out: &mut Vec<f64>) {
        out.resize(self.len, 0.0);
        batch::min_dist2_batch(&self.lo_dims(), &self.hi_dims(), p, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_geom::Rect;

    fn entries(n: usize) -> Vec<Entry<2>> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                Entry::new(Rect::xyxy(f, -f, f + 1.0, f + 2.0), i as u32)
            })
            .collect()
    }

    #[test]
    fn page_roundtrips_through_soa() {
        let page = NodePage::new(3, entries(7));
        let soa = SoaNode::from_page(&page);
        assert_eq!(soa.level(), 3);
        assert!(!soa.is_leaf());
        assert_eq!(soa.len(), 7);
        assert_eq!(soa.to_page(), page);
        assert_eq!(soa.mbr(), page.mbr());
        for (i, e) in page.entries.iter().enumerate() {
            assert_eq!(soa.entry(i), *e);
            assert_eq!(soa.rect(i), e.rect);
            assert_eq!(soa.ptr(i), e.ptr);
        }
    }

    #[test]
    fn bytes_transcode_matches_page_decode() {
        let page = NodePage::new(0, entries(113));
        let mut buf = vec![0u8; 4096];
        page.encode(&mut buf);
        let soa = SoaNode::<2>::from_bytes(&buf).unwrap();
        assert_eq!(soa.to_page(), NodePage::decode(&buf).unwrap());
        assert_eq!(soa.lo_dim(0).len(), 113);
        assert_eq!(soa.ptrs().len(), 113);
    }

    #[test]
    fn refill_reuses_and_resizes() {
        let mut buf = vec![0u8; 4096];
        NodePage::new(0, entries(50)).encode(&mut buf);
        let mut soa = SoaNode::<2>::from_bytes(&buf).unwrap();
        assert_eq!(soa.len(), 50);
        NodePage::new(2, entries(3)).encode(&mut buf);
        soa.refill_from_bytes(&buf).unwrap();
        assert_eq!(soa.len(), 3);
        assert_eq!(soa.level(), 2);
        assert_eq!(soa.to_page(), NodePage::decode(&buf).unwrap());
        NodePage::new(1, entries(100)).encode(&mut buf);
        soa.refill_from_bytes(&buf).unwrap();
        assert_eq!(soa.len(), 100);
        assert_eq!(soa.to_page(), NodePage::decode(&buf).unwrap());
    }

    #[test]
    fn corrupt_buffers_are_rejected() {
        assert!(SoaNode::<2>::from_bytes(&[0u8; 4096]).is_err());
        let mut buf = vec![0u8; 4096];
        NodePage::new(0, entries(3)).encode(&mut buf);
        buf[6..8].copy_from_slice(&500u16.to_le_bytes());
        assert!(SoaNode::<2>::from_bytes(&buf).is_err());
        assert!(SoaNode::<2>::from_bytes(&buf[..8]).is_err());
    }

    #[test]
    fn intersection_and_distance_helpers() {
        let soa = SoaNode::from_page(&NodePage::new(0, entries(8)));
        let q = Rect::xyxy(2.0, 0.0, 4.0, 1.0);
        let mut mask = Vec::new();
        let mut hits = Vec::new();
        soa.for_each_intersecting(&q, &mut mask, |i| hits.push(i));
        let want: Vec<usize> = (0..8).filter(|&i| soa.rect(i).intersects(&q)).collect();
        assert_eq!(hits, want);
        assert_eq!(soa.count_intersecting(&q), want.len() as u64);
        assert_eq!(
            soa.count_intersecting(&Rect::xyxy(50.0, 50.0, 51.0, 51.0)),
            0
        );
        assert!(soa.any_intersecting(&q, &mut mask));
        assert!(!soa.any_intersecting(&Rect::xyxy(50.0, 50.0, 51.0, 51.0), &mut mask));
        let p = pr_geom::Point::new([3.0, -2.0]);
        let mut d2 = Vec::new();
        soa.min_dist2_into(&p, &mut d2);
        for (i, v) in d2.iter().enumerate() {
            assert_eq!(v.to_bits(), soa.rect(i).min_dist2(&p).to_bits());
        }
    }

    #[test]
    fn empty_node() {
        let soa = SoaNode::<2>::new_empty();
        assert!(soa.is_empty());
        assert!(soa.is_leaf());
        assert!(soa.mbr().is_empty());
        let mut mask = Vec::new();
        assert!(!soa.any_intersecting(&Rect::xyxy(0.0, 0.0, 1.0, 1.0), &mut mask));
    }
}
