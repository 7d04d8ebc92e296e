//! On-disk node pages.
//!
//! Every node of every tree variant is one device block:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "PRTN"
//! 4       1     level      (0 = leaf)
//! 5       1     flags      (reserved)
//! 6       2     count      (number of entries, little-endian u16)
//! 8       8     reserved
//! 16      36·k  entries    (see `Entry`)
//! ```
//!
//! The 16-byte header plus 36-byte entries on a 4KB page give the paper's
//! fanout of 113.

use crate::entry::Entry;
use pr_em::{BlockDevice, BlockId, EmError, Record};

/// Bytes of page header before the entry array.
pub(crate) const PAGE_HEADER_SIZE: usize = 16;

pub(crate) const MAGIC: [u8; 4] = *b"PRTN";

/// A decoded R-tree node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePage<const D: usize> {
    /// Level in the tree: 0 for leaves, increasing toward the root.
    pub level: u8,
    /// Node entries (data rectangles or child bounding boxes).
    pub entries: Vec<Entry<D>>,
}

impl<const D: usize> NodePage<D> {
    /// Creates a node.
    pub fn new(level: u8, entries: Vec<Entry<D>>) -> Self {
        NodePage { level, entries }
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the node has no entries (only legal transiently during
    /// dynamic deletion).
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Minimal bounding rectangle of all entries.
    pub fn mbr(&self) -> pr_geom::Rect<D> {
        Entry::mbr(&self.entries)
    }

    /// Serializes into a page buffer of exactly `page_size` bytes.
    ///
    /// # Panics
    /// Panics if the entries do not fit in the page.
    pub(crate) fn encode(&self, buf: &mut [u8]) {
        encode_node(self.level, &self.entries, buf);
    }

    /// Deserializes a page buffer.
    pub(crate) fn decode(buf: &[u8]) -> Result<Self, EmError> {
        let (level, count) = page_header::<D>(buf)?;
        let mut entries = Vec::with_capacity(count);
        let mut off = PAGE_HEADER_SIZE;
        for _ in 0..count {
            entries.push(Entry::decode(&buf[off..off + Entry::<D>::SIZE]));
            off += Entry::<D>::SIZE;
        }
        Ok(NodePage { level, entries })
    }

    /// Reads and decodes the node stored at `page` on `dev`.
    pub fn read(dev: &dyn BlockDevice, page: BlockId) -> Result<Self, EmError> {
        let mut buf = vec![0u8; dev.block_size()];
        dev.read_block(page, &mut buf)?;
        NodePage::decode(&buf)
    }

    /// Encodes and writes the node to `page` on `dev`.
    pub(crate) fn write(&self, dev: &dyn BlockDevice, page: BlockId) -> Result<(), EmError> {
        let mut buf = vec![0u8; dev.block_size()];
        self.encode(&mut buf);
        dev.write_block(page, &buf)
    }

    /// Allocates a fresh page and writes the node there, returning its id.
    pub fn append(&self, dev: &dyn BlockDevice) -> Result<BlockId, EmError> {
        let page = dev.allocate(1);
        self.write(dev, page)?;
        Ok(page)
    }
}

/// Validates a raw page's header against its buffer and returns
/// `(level, entry count)`.
pub(crate) fn page_header<const D: usize>(buf: &[u8]) -> Result<(u8, usize), EmError> {
    if buf.len() < PAGE_HEADER_SIZE || buf[..4] != MAGIC {
        return Err(EmError::Corrupt("bad node page magic".into()));
    }
    let count = u16::from_le_bytes(buf[6..8].try_into().expect("2 bytes")) as usize;
    let cap = (buf.len() - PAGE_HEADER_SIZE) / Entry::<D>::SIZE;
    if count > cap {
        return Err(EmError::Corrupt(format!(
            "node count {count} exceeds page capacity {cap}"
        )));
    }
    Ok((buf[4], count))
}

/// Rewrites the child pointers of a raw, encoded node page in place:
/// `remap` sees each child's current page id, in entry order, and
/// returns the pointer to store instead. Leaves have no child pointers
/// and are left untouched (their `ptr` fields are data ids). Returns
/// the page's level.
///
/// This is how `pr-store` relocates a tree without decoding it: a page
/// is copied verbatim and only these four-byte fields change, so the
/// copy is byte-identical to a decode → re-encode of the same node.
pub fn remap_children<const D: usize>(
    page: &mut [u8],
    mut remap: impl FnMut(BlockId) -> Result<u32, EmError>,
) -> Result<u8, EmError> {
    let (level, count) = page_header::<D>(page)?;
    if level > 0 {
        let entries = &mut page[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + count * Entry::<D>::SIZE];
        for entry in entries.chunks_exact_mut(Entry::<D>::SIZE) {
            let child = BlockId::from(Entry::<D>::read_ptr(entry));
            Entry::<D>::write_ptr(entry, remap(child)?);
        }
    }
    Ok(level)
}

/// Serializes a node at `level` holding `entries` into a page buffer of
/// exactly `page_size` bytes — [`NodePage::encode`] without the owned
/// `Vec`, for writers that cut nodes out of a larger entry buffer.
///
/// # Panics
/// Panics if the entries do not fit in the page.
pub(crate) fn encode_node<const D: usize>(level: u8, entries: &[Entry<D>], buf: &mut [u8]) {
    let cap = (buf.len() - PAGE_HEADER_SIZE) / Entry::<D>::SIZE;
    assert!(
        entries.len() <= cap && entries.len() <= u16::MAX as usize,
        "node with {} entries exceeds page capacity {cap}",
        entries.len()
    );
    buf[..4].copy_from_slice(&MAGIC);
    buf[4] = level;
    buf[5] = 0;
    buf[6..8].copy_from_slice(&(entries.len() as u16).to_le_bytes());
    buf[8..16].fill(0);
    let mut off = PAGE_HEADER_SIZE;
    for e in entries {
        e.encode(&mut buf[off..off + Entry::<D>::SIZE]);
        off += Entry::<D>::SIZE;
    }
    buf[off..].fill(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_em::MemDevice;
    use pr_geom::Rect;

    fn entries(n: usize) -> Vec<Entry<2>> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                Entry::new(Rect::xyxy(f, f, f + 1.0, f + 2.0), i as u32)
            })
            .collect()
    }

    #[test]
    fn header_size_gives_paper_fanout() {
        assert_eq!((4096 - PAGE_HEADER_SIZE) / Entry::<2>::SIZE, 113);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let node = NodePage::new(3, entries(7));
        let mut buf = vec![0u8; 4096];
        node.encode(&mut buf);
        let back = NodePage::<2>::decode(&buf).unwrap();
        assert_eq!(back, node);
        assert!(!back.is_leaf());
        assert_eq!(back.len(), 7);
    }

    #[test]
    fn full_page_roundtrip() {
        let node = NodePage::new(0, entries(113));
        let mut buf = vec![0u8; 4096];
        node.encode(&mut buf);
        let back = NodePage::<2>::decode(&buf).unwrap();
        assert_eq!(back.entries.len(), 113);
        assert!(back.is_leaf());
    }

    #[test]
    #[should_panic(expected = "exceeds page capacity")]
    fn overfull_page_panics() {
        let node = NodePage::new(0, entries(114));
        let mut buf = vec![0u8; 4096];
        node.encode(&mut buf);
    }

    #[test]
    fn corrupt_magic_is_error() {
        let buf = vec![0u8; 4096];
        assert!(NodePage::<2>::decode(&buf).is_err());
    }

    #[test]
    fn corrupt_count_is_error() {
        let node = NodePage::new(0, entries(3));
        let mut buf = vec![0u8; 4096];
        node.encode(&mut buf);
        buf[6..8].copy_from_slice(&500u16.to_le_bytes());
        assert!(NodePage::<2>::decode(&buf).is_err());
    }

    #[test]
    fn remap_children_equals_decode_patch_encode() {
        let node = NodePage::new(2, entries(9));
        let mut raw = vec![0u8; 4096];
        node.encode(&mut raw);
        let mut seen = Vec::new();
        let level = remap_children::<2>(&mut raw, |child| {
            seen.push(child);
            Ok(child as u32 + 100)
        })
        .unwrap();
        assert_eq!(level, 2);
        assert_eq!(seen, (0..9).collect::<Vec<BlockId>>());
        let mut patched = node.clone();
        for e in &mut patched.entries {
            e.ptr += 100;
        }
        let mut want = vec![0u8; 4096];
        patched.encode(&mut want);
        assert_eq!(raw, want);

        // A leaf's ptr fields are data ids: nothing is visited or changed.
        let leaf = NodePage::new(0, entries(5));
        leaf.encode(&mut want);
        raw.copy_from_slice(&want);
        let level = remap_children::<2>(&mut raw, |_| panic!("leaf has no children")).unwrap();
        assert_eq!(level, 0);
        assert_eq!(raw, want);

        // The header is validated exactly as `decode` validates it.
        raw[6..8].copy_from_slice(&500u16.to_le_bytes());
        assert!(remap_children::<2>(&mut raw, |c| Ok(c as u32)).is_err());
        assert!(remap_children::<2>(&mut [0u8; 4096], |c| Ok(c as u32)).is_err());
    }

    #[test]
    fn device_roundtrip() {
        let dev = MemDevice::new(4096);
        let node = NodePage::new(1, entries(5));
        let page = node.append(&dev).unwrap();
        let back = NodePage::<2>::read(&dev, page).unwrap();
        assert_eq!(back, node);
        assert_eq!(dev.io_stats().writes, 1);
        assert_eq!(dev.io_stats().reads, 1);
    }

    #[test]
    fn mbr_of_node() {
        let node = NodePage::new(0, entries(3));
        assert_eq!(node.mbr(), Rect::xyxy(0.0, 0.0, 3.0, 4.0));
    }
}
