//! Tree entries: the 36-byte record everything is made of.
//!
//! This module is the one place that knows the record's layout: pages,
//! streams, loose chunks, WAL frames and live manifests all encode
//! through [`Entry`]'s [`Record`] impl, and the in-place readers below
//! serve the kernels that scan records without decoding them.
//!
//! ```text
//! offset   size   field
//! 0        8·D    lower corner (little-endian f64 each)
//! 8·D      8·D    upper corner
//! 16·D     4      ptr (little-endian u32)
//! ```

use pr_em::Record;
use pr_geom::{Item, Rect};

/// One slot of an R-tree node: a rectangle plus a 32-bit pointer.
///
/// * In a **leaf**, `ptr` is the data id of the input rectangle (the
///   paper's "pointer to the original object").
/// * In an **internal node**, `rect` is the minimal bounding box of a
///   child subtree and `ptr` is the page id of the child.
///
/// In 2-D this is exactly the paper's 36-byte layout (§3.1): 4 × 8-byte
/// coordinates + 4-byte pointer, for both input rectangles and bounding
/// boxes in internal nodes — which is what pins the fanout at 113 for 4KB
/// blocks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Entry<const D: usize> {
    /// Data rectangle or child bounding box.
    pub rect: Rect<D>,
    /// Data id (leaves) or child page id (internal nodes).
    pub ptr: u32,
}

impl<const D: usize> Entry<D> {
    /// Creates an entry.
    pub fn new(rect: Rect<D>, ptr: u32) -> Self {
        Entry { rect, ptr }
    }

    /// Views an input item as a leaf entry.
    pub fn from_item(item: Item<D>) -> Self {
        Entry {
            rect: item.rect,
            ptr: item.id,
        }
    }

    /// Views a leaf entry as an input item.
    pub fn to_item(self) -> Item<D> {
        Item {
            rect: self.rect,
            id: self.ptr,
        }
    }

    /// Minimal bounding rectangle of a slice of entries.
    pub(crate) fn mbr(entries: &[Entry<D>]) -> Rect<D> {
        entries
            .iter()
            .fold(Rect::EMPTY, |acc, e| acc.mbr_with(&e.rect))
    }

    /// Byte offset of `ptr` within a record.
    const PTR_AT: usize = 2 * D * 8;

    /// Coordinate `k` of an encoded record, read in place: `0..D` are
    /// the lower corner, `D..2D` the upper corner.
    #[inline(always)]
    pub(crate) fn read_coord(rec: &[u8], k: usize) -> f64 {
        f64::from_le_bytes(rec[k * 8..k * 8 + 8].try_into().expect("8 bytes"))
    }

    /// Both corners of an encoded record, read in place.
    #[inline(always)]
    pub(crate) fn read_corners(rec: &[u8]) -> ([f64; D], [f64; D]) {
        (
            std::array::from_fn(|d| Self::read_coord(rec, d)),
            std::array::from_fn(|d| Self::read_coord(rec, D + d)),
        )
    }

    /// The `ptr` of an encoded record, read in place.
    #[inline(always)]
    pub(crate) fn read_ptr(rec: &[u8]) -> u32 {
        u32::from_le_bytes(
            rec[Self::PTR_AT..Self::PTR_AT + 4]
                .try_into()
                .expect("4 bytes"),
        )
    }

    /// Overwrites the `ptr` of an encoded record in place.
    #[inline]
    pub(crate) fn write_ptr(rec: &mut [u8], ptr: u32) {
        rec[Self::PTR_AT..Self::PTR_AT + 4].copy_from_slice(&ptr.to_le_bytes());
    }
}

impl<const D: usize> Record for Entry<D> {
    const SIZE: usize = 2 * D * 8 + 4;

    // Encode/decode split the record into exact-size subslices up front
    // and walk them with `chunks_exact`, so the bounds checks of the old
    // per-field `buf[off..off + 8]` arithmetic hoist out of the loop —
    // this path runs once per entry for every page the bulk loaders
    // write and every AoS decode on the build/update path.

    fn encode(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), Self::SIZE);
        let (lo_bytes, rest) = buf.split_at_mut(D * 8);
        let (hi_bytes, ptr_bytes) = rest.split_at_mut(D * 8);
        for (chunk, v) in lo_bytes.chunks_exact_mut(8).zip(self.rect.lo()) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        for (chunk, v) in hi_bytes.chunks_exact_mut(8).zip(self.rect.hi()) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        ptr_bytes[..4].copy_from_slice(&self.ptr.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        debug_assert_eq!(buf.len(), Self::SIZE);
        let (lo_bytes, rest) = buf.split_at(D * 8);
        let (hi_bytes, ptr_bytes) = rest.split_at(D * 8);
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for (v, chunk) in lo.iter_mut().zip(lo_bytes.chunks_exact(8)) {
            *v = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        for (v, chunk) in hi.iter_mut().zip(hi_bytes.chunks_exact(8)) {
            *v = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        let ptr = u32::from_le_bytes(ptr_bytes[..4].try_into().expect("4 bytes"));
        Entry {
            rect: Rect::new(lo, hi),
            ptr,
        }
    }
}

/// A keyed entry used by sort-based loaders (Hilbert value + entry).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct KeyedEntry<const D: usize> {
    /// Sort key (Hilbert index).
    pub key: u128,
    /// The entry itself.
    pub entry: Entry<D>,
}

impl<const D: usize> Record for KeyedEntry<D> {
    const SIZE: usize = 16 + Entry::<D>::SIZE;

    fn encode(&self, buf: &mut [u8]) {
        buf[..16].copy_from_slice(&self.key.to_le_bytes());
        self.entry.encode(&mut buf[16..]);
    }

    fn decode(buf: &[u8]) -> Self {
        KeyedEntry {
            key: u128::from_le_bytes(buf[..16].try_into().expect("16 bytes")),
            entry: Entry::decode(&buf[16..]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn entry_size_matches_paper() {
        assert_eq!(Entry::<2>::SIZE, 36);
        assert_eq!(Entry::<3>::SIZE, 52);
    }

    /// The record's bytes, pinned by hand: the lower corner, the upper
    /// corner, each coordinate a little-endian `f64`, then the
    /// little-endian `u32` pointer. Signed zeros keep their sign bit.
    #[test]
    fn entry_bytes_are_pinned() {
        let e2 = Entry::new(Rect::new([-0.0, 0.1], [2.0, 3.25]), 0xDEAD_BEEF);
        let want2: [u8; 36] = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, // lo[0] = -0.0
            0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f, // lo[1] = 0.1
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, // hi[0] = 2.0
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x40, // hi[1] = 3.25
            0xef, 0xbe, 0xad, 0xde, // ptr = 0xDEADBEEF
        ];
        let mut buf = [0u8; 36];
        e2.encode(&mut buf);
        assert_eq!(buf, want2);
        let back = Entry::<2>::decode(&want2);
        assert_eq!(back.rect.lo_at(0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(back, e2);

        let e3 = Entry::new(Rect::new([-1.0, 0.0, -0.0], [0.5, 4.0, 1.5]), 7);
        let want3: [u8; 52] = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0xbf, // lo[0] = -1.0
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lo[1] = 0.0
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, // lo[2] = -0.0
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // hi[0] = 0.5
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40, // hi[1] = 4.0
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, // hi[2] = 1.5
            0x07, 0x00, 0x00, 0x00, // ptr = 7
        ];
        let mut buf = [0u8; 52];
        e3.encode(&mut buf);
        assert_eq!(buf, want3);
        let back = Entry::<3>::decode(&want3);
        assert_eq!(back.rect.lo_at(2).to_bits(), (-0.0f64).to_bits());
        assert_eq!(back, e3);
    }

    proptest! {
        /// Decode and the in-place readers give back what encode wrote.
        #[test]
        fn entry_roundtrip(
            x in -1000.0..1000.0f64,
            y in -1000.0..1000.0f64,
            w in 0.0..100.0f64,
            h in 0.0..100.0f64,
            id in any::<u32>(),
        ) {
            let e = Entry::new(Rect::xyxy(x, y, x + w, y + h), id);
            let mut buf = [0u8; 36];
            e.encode(&mut buf);
            let back = Entry::<2>::decode(&buf);
            prop_assert_eq!(back, e);
            prop_assert_eq!(Entry::<2>::read_corners(&buf), (*e.rect.lo(), *e.rect.hi()));
            prop_assert_eq!(Entry::<2>::read_ptr(&buf), id);
        }
    }

    #[test]
    fn keyed_entry_roundtrip() {
        let k = KeyedEntry {
            key: u128::MAX - 5,
            entry: Entry::new(Rect::xyxy(0.0, 0.0, 1.0, 1.0), 9),
        };
        let mut buf = vec![0u8; KeyedEntry::<2>::SIZE];
        k.encode(&mut buf);
        assert_eq!(KeyedEntry::<2>::decode(&buf), k);
    }

    #[test]
    fn item_conversions() {
        let item = Item::new(Rect::xyxy(0.0, 1.0, 2.0, 3.0), 5);
        let e = Entry::from_item(item);
        assert_eq!(e.ptr, 5);
        assert_eq!(e.to_item(), item);
    }

    #[test]
    fn mbr_of_entries() {
        let es = [
            Entry::new(Rect::xyxy(0.0, 0.0, 1.0, 1.0), 0),
            Entry::new(Rect::xyxy(2.0, -1.0, 3.0, 0.5), 1),
        ];
        assert_eq!(Entry::mbr(&es), Rect::xyxy(0.0, -1.0, 3.0, 1.0));
        assert!(Entry::<2>::mbr(&[]).is_empty());
    }
}
