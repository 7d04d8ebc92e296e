//! Serializable tree metadata.
//!
//! An [`crate::tree::RTree`] is pages on a device *plus* a handful of
//! fields that live only in the handle: the tree parameters, the root
//! page id, the root's level, and the item count. Persisting a tree
//! means persisting the pages and this record; reopening means decoding
//! the record and calling [`crate::tree::RTree::from_parts`]. The
//! `pr-store` crate embeds the encoded form in its superblock.
//!
//! Encoded layout (40 bytes, little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     page_size                   (u32)
//! 4       4     leaf_cap                    (u32)
//! 8       4     node_cap, always leaf_cap   (u32)
//! 12      4     min_fill_percent, always 40 (u32)
//! 16      8     root page id                (u64)
//! 24      8     item count                  (u64)
//! 32      1     root_level                  (u8)
//! 33      7     reserved (zero)
//! ```
//!
//! A tree has one capacity and a fixed 40 % minimum fill
//! ([`TreeParams`]). The `node_cap` and `min_fill_percent` slots are
//! kept so that stored files do not change: encode writes `leaf_cap`
//! and 40 there, as every writer always has, and decode rejects any
//! other value as corrupt.

use crate::params::{TreeParams, MIN_FILL_PERCENT};
use pr_em::{BlockId, EmError};

/// Everything an R-tree is besides its pages. See the module docs for
/// the wire layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeMeta {
    /// Static tree configuration (page size, capacity).
    pub params: TreeParams,
    /// Page id of the root node.
    pub root: BlockId,
    /// Level of the root (0 = single-leaf tree).
    pub root_level: u8,
    /// Number of indexed items.
    pub len: u64,
}

impl TreeMeta {
    /// Size of the encoded record in bytes.
    pub(crate) const ENCODED_SIZE: usize = 40;

    /// Serializes into `buf` (must be exactly `TreeMeta::ENCODED_SIZE`).
    pub fn encode(&self, buf: &mut [u8]) {
        assert_eq!(buf.len(), Self::ENCODED_SIZE);
        buf[0..4].copy_from_slice(&(self.params.page_size as u32).to_le_bytes());
        buf[4..8].copy_from_slice(&(self.params.leaf_cap as u32).to_le_bytes());
        buf[8..12].copy_from_slice(&(self.params.leaf_cap as u32).to_le_bytes());
        buf[12..16].copy_from_slice(&(MIN_FILL_PERCENT as u32).to_le_bytes());
        buf[16..24].copy_from_slice(&self.root.to_le_bytes());
        buf[24..32].copy_from_slice(&self.len.to_le_bytes());
        buf[32] = self.root_level;
        buf[33..40].fill(0);
    }

    /// Deserializes a record, rejecting layouts no tree could have
    /// produced (so a corrupted superblock surfaces as a typed error,
    /// never as an absurd handle).
    pub fn decode(buf: &[u8]) -> Result<Self, EmError> {
        if buf.len() != Self::ENCODED_SIZE {
            return Err(EmError::Corrupt(format!(
                "tree metadata record is {} bytes, want {}",
                buf.len(),
                Self::ENCODED_SIZE
            )));
        }
        let u32_at = |off: usize| {
            u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes")) as usize
        };
        let u64_at =
            |off: usize| u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"));
        let params = TreeParams {
            page_size: u32_at(0),
            leaf_cap: u32_at(4),
        };
        let meta = TreeMeta {
            params,
            root: u64_at(16),
            len: u64_at(24),
            root_level: buf[32],
        };
        if params.leaf_cap < 2 || u32_at(8) != params.leaf_cap {
            return Err(EmError::Corrupt(format!(
                "tree metadata has impossible capacities (leaf {}, node {})",
                params.leaf_cap,
                u32_at(8)
            )));
        }
        if u32_at(12) != MIN_FILL_PERCENT {
            return Err(EmError::Corrupt(format!(
                "tree metadata has min fill {}%, want {MIN_FILL_PERCENT}%",
                u32_at(12)
            )));
        }
        if params.page_size == 0 {
            return Err(EmError::Corrupt("tree metadata has zero page size".into()));
        }
        Ok(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TreeMeta {
        TreeMeta {
            params: TreeParams::paper_2d(),
            root: 1234,
            root_level: 3,
            len: 5_000_000,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let meta = sample();
        let mut buf = [0u8; TreeMeta::ENCODED_SIZE];
        meta.encode(&mut buf);
        assert_eq!(TreeMeta::decode(&buf).unwrap(), meta);
    }

    /// The superblock's tree record, pinned byte for byte.
    #[test]
    fn meta_bytes_are_pinned() {
        let want: [u8; TreeMeta::ENCODED_SIZE] = [
            0x00, 0x10, 0x00, 0x00, // page_size = 4096
            0x71, 0x00, 0x00, 0x00, // leaf_cap = 113
            0x71, 0x00, 0x00, 0x00, // node_cap = 113
            0x28, 0x00, 0x00, 0x00, // min_fill_percent = 40
            0xd2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // root = 1234
            0x40, 0x4b, 0x4c, 0x00, 0x00, 0x00, 0x00, 0x00, // len = 5 000 000
            0x03, // root_level
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // reserved
        ];
        let mut buf = [0xffu8; TreeMeta::ENCODED_SIZE];
        sample().encode(&mut buf);
        assert_eq!(buf, want);
        assert_eq!(TreeMeta::decode(&want).unwrap(), sample());
    }

    #[test]
    fn wrong_length_is_an_error() {
        assert!(TreeMeta::decode(&[0u8; 16]).is_err());
    }

    #[test]
    fn impossible_fields_are_errors() {
        let meta = sample();
        let mut buf = [0u8; TreeMeta::ENCODED_SIZE];
        meta.encode(&mut buf);
        let mut bad = buf;
        bad[4..8].copy_from_slice(&1u32.to_le_bytes()); // leaf_cap = 1
        assert!(TreeMeta::decode(&bad).is_err());
        let mut bad = buf;
        bad[12..16].copy_from_slice(&250u32.to_le_bytes()); // fill > 100%
        assert!(TreeMeta::decode(&bad).is_err());
        let mut bad = buf;
        bad[8..12].copy_from_slice(&112u32.to_le_bytes()); // capacities differ
        assert!(TreeMeta::decode(&bad).is_err());
        let mut bad = buf;
        bad[12..16].copy_from_slice(&39u32.to_le_bytes()); // fill != 40%
        assert!(TreeMeta::decode(&bad).is_err());
        let mut bad = buf;
        bad[0..4].copy_from_slice(&0u32.to_le_bytes()); // page_size = 0
        assert!(TreeMeta::decode(&bad).is_err());
    }
}
