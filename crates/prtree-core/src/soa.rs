//! Structure-of-arrays internal nodes — the cached half of the read
//! path.
//!
//! # Why a second node representation
//!
//! [`crate::page::NodePage`] decodes a 4KB page into a `Vec<Entry>`:
//! right for the *write* path (loaders, dynamic updates, encoding), but
//! a poor shape to scan over and over. A [`SoaNode`] transcodes an
//! internal page **once** into per-dimension coordinate columns
//! (`lo[d][..]`, `hi[d][..]`) plus a `ptrs` column, so every later visit
//! is a branch-free, auto-vectorized kernel of [`pr_geom::batch`] over
//! contiguous `f64` slices.
//!
//! The transcode pays only because internal nodes are visited many
//! times. Leaves are visited once per query and never cached, so they
//! are not transcoded: [`crate::leaf::LeafRecords`] scans their records
//! in place.
//!
//! Measured against in-place records on internal nodes too, on the
//! 500 k TIGER-profile PR-tree of prbench's `static_hot` (41 internal
//! nodes; a 2-vCPU host; a scratch program that asserted both forms open
//! the same children and give bit-identical distances, medians of three
//! timed passes):
//!
//! * min-dist² over one 113-entry internal node: ≈ 240 ns as columns,
//!   ≈ 570 ns as records;
//! * the internal descent of a 0.01 %-area window (7.10 internal nodes):
//!   ≈ 1.62 µs as columns, ≈ 1.92 µs as records.
//!
//! A k-NN query opens ≈ 7.2 internal nodes, so records would add
//! ≈ 2.4 µs to a `knn_p50_us` of ≈ 9.5 µs: more than that metric's 25 %
//! bound. Columns stay for internal nodes.
//!
//! Division of labor:
//!
//! * **Internal nodes (read path):** the node cache's one map
//!   ([`crate::cache::FrozenMap`]) stores `Arc<SoaNode>`; traversal ([`crate::query`], [`crate::knn`]) reads
//!   only columns. A cache miss transcodes the raw page into a reusable
//!   [`crate::scratch::QueryScratch`] buffer ([`SoaNode::refill_from_bytes`]).
//! * **Leaves (read path):** [`crate::leaf::LeafRecords`], in place.
//! * **Write path:** loaders and dynamic updates keep producing
//!   [`NodePage`]s; [`SoaNode::from_page`]/[`SoaNode::to_page`] convert
//!   at the boundary (`tree.rs` admit/readback).
//!
//! Columns are plain `Vec<f64>` (8-byte aligned, each dimension
//! contiguous); the kernels rely on contiguity, not on wider alignment —
//! unaligned SIMD loads are free on every target this runs on.

use crate::entry::Entry;
use crate::page::{page_header, NodePage, PAGE_HEADER_SIZE};
use pr_em::{EmError, Record};
use pr_geom::{batch, Point, Rect};

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
    /// An empty node; the reusable transcode target starts here.
    pub(crate) fn new_empty() -> Self {
        Self::default()
    }

    /// Re-transcodes the raw internal page `buf` into this node in
    /// place, reusing the column allocations — the query engine's
    /// internal-miss path. The header is validated as
    /// [`NodePage::decode`] validates it.
    pub(crate) fn refill_from_bytes(&mut self, buf: &[u8]) -> Result<(), EmError> {
        let (level, count) = page_header::<D>(buf)?;
        self.level = level;
        self.len = count;
        self.lo.resize(D * count, 0.0);
        self.hi.resize(D * count, 0.0);
        self.ptrs.resize(count, 0);
        // Column-at-a-time transcode over `chunks_exact` records: the
        // zip bounds the iteration and the in-record offsets are
        // compile-time constants (the `0..D` loop unrolls), so the body
        // is bounds-check-free.
        let records = buf[PAGE_HEADER_SIZE..].chunks_exact(Entry::<D>::SIZE);
        for d in 0..D {
            let lo_col = &mut self.lo[d * count..(d + 1) * count];
            for (v, rec) in lo_col.iter_mut().zip(records.clone()) {
                *v = Entry::<D>::read_coord(rec, d);
            }
            let hi_col = &mut self.hi[d * count..(d + 1) * count];
            for (v, rec) in hi_col.iter_mut().zip(records.clone()) {
                *v = Entry::<D>::read_coord(rec, D + d);
            }
        }
        for (v, rec) in self.ptrs.iter_mut().zip(records) {
            *v = Entry::<D>::read_ptr(rec);
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
    pub(crate) fn to_page(&self) -> NodePage<D> {
        NodePage::new(self.level, (0..self.len).map(|i| self.entry(i)).collect())
    }

    /// Level in the tree: 0 for leaves.
    #[inline]
    pub(crate) fn level(&self) -> u8 {
        self.level
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
    pub(crate) fn lo_dim(&self, d: usize) -> &[f64] {
        &self.lo[d * self.len..(d + 1) * self.len]
    }

    /// Upper-corner coordinate column of dimension `d`.
    #[inline]
    pub(crate) fn hi_dim(&self, d: usize) -> &[f64] {
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

    /// Pointer column (child pages).
    #[inline]
    pub(crate) fn ptrs(&self) -> &[u32] {
        &self.ptrs
    }

    /// Pointer of entry `i`.
    #[inline]
    pub(crate) fn ptr(&self, i: usize) -> u32 {
        self.ptrs[i]
    }

    /// Rectangle of entry `i`, gathered from the columns.
    #[inline]
    pub(crate) fn rect(&self, i: usize) -> Rect<D> {
        batch::gather_rect(&self.lo_dims(), &self.hi_dims(), i)
    }

    /// Entry `i` in AoS form.
    #[inline]
    pub(crate) fn entry(&self, i: usize) -> Entry<D> {
        Entry::new(self.rect(i), self.ptrs[i])
    }

    /// Runs the vectorized intersection kernel against `query` and calls
    /// `f(i)` for every matching entry index, in ascending order (the
    /// same order the AoS scan visited entries, so traversal output and
    /// stack order are unchanged). `mask` is caller-provided scratch.
    #[inline]
    pub(crate) fn for_each_intersecting(
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
    pub(crate) fn for_each_covering(
        &self,
        query: &Rect<D>,
        mask: &mut Vec<u8>,
        mut f: impl FnMut(usize),
    ) {
        mask.resize(self.len, 0);
        batch::covers_mask(&self.lo_dims(), &self.hi_dims(), query, mask);
        for (i, &m) in mask.iter().enumerate() {
            if m != 0 {
                f(i);
            }
        }
    }

    /// Batched `min_dist2` from `p` to every entry into `out`
    /// (bit-identical to the scalar [`Rect::min_dist2`]).
    #[inline]
    pub(crate) fn min_dist2_into(&self, p: &Point<D>, out: &mut Vec<f64>) {
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

    fn transcode(buf: &[u8]) -> Result<SoaNode<2>, EmError> {
        let mut soa = SoaNode::new_empty();
        soa.refill_from_bytes(buf)?;
        Ok(soa)
    }

    #[test]
    fn page_roundtrips_through_soa() {
        let page = NodePage::new(3, entries(7));
        let soa = SoaNode::from_page(&page);
        assert_eq!(soa.level(), 3);
        assert_eq!(soa.len(), 7);
        assert_eq!(soa.to_page(), page);
        for (i, e) in page.entries.iter().enumerate() {
            assert_eq!(soa.entry(i), *e);
            assert_eq!(soa.rect(i), e.rect);
            assert_eq!(soa.ptr(i), e.ptr);
        }
    }

    #[test]
    fn bytes_transcode_matches_page_decode() {
        let page = NodePage::new(1, entries(113));
        let mut buf = vec![0u8; 4096];
        page.encode(&mut buf);
        let soa = transcode(&buf).unwrap();
        assert_eq!(soa.to_page(), NodePage::decode(&buf).unwrap());
        assert_eq!(soa.lo_dim(0).len(), 113);
        assert_eq!(soa.ptrs().len(), 113);
    }

    #[test]
    fn refill_reuses_and_resizes() {
        let mut buf = vec![0u8; 4096];
        NodePage::new(1, entries(50)).encode(&mut buf);
        let mut soa = transcode(&buf).unwrap();
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
        let bad = |buf: &[u8]| matches!(transcode(buf), Err(EmError::Corrupt(_)));
        assert!(bad(&[0u8; 4096]), "bad magic");
        let mut buf = vec![0u8; 4096];
        NodePage::new(1, entries(3)).encode(&mut buf);
        buf[6..8].copy_from_slice(&500u16.to_le_bytes());
        assert!(bad(&buf), "count > cap");
        assert!(bad(&buf[..8]), "short header");
    }

    #[test]
    fn intersection_and_distance_helpers() {
        let soa = SoaNode::from_page(&NodePage::new(1, entries(8)));
        let q = Rect::xyxy(2.0, 0.0, 4.0, 1.0);
        let mut mask = Vec::new();
        let mut hits = Vec::new();
        soa.for_each_intersecting(&q, &mut mask, |i| hits.push(i));
        let want: Vec<usize> = (0..8).filter(|&i| soa.rect(i).intersects(&q)).collect();
        assert_eq!(hits, want);
        let inner = Rect::xyxy(3.25, 1.0, 3.5, 1.5);
        let mut covering = Vec::new();
        soa.for_each_covering(&inner, &mut mask, |i| covering.push(i));
        let want: Vec<usize> = (0..8)
            .filter(|&i| soa.rect(i).contains_rect(&inner))
            .collect();
        assert_eq!(covering, want);
        assert!(!covering.is_empty());
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
        let mut mask = Vec::new();
        soa.for_each_intersecting(&Rect::xyxy(0.0, 0.0, 1.0, 1.0), &mut mask, |_| {
            panic!("no entries")
        });
    }
}
