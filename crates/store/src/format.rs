//! On-disk records: superblock and footer.
//!
//! Byte layouts (all integers little-endian). The superblock occupies
//! the first [`Superblock::ENCODED_SIZE`] bytes of each of the two fixed
//! 4-KiB slots at file offsets 0 and 4096; the rest of a slot is zero.
//!
//! ```text
//! Superblock (128 bytes)            Footer (40 bytes)
//! off sz field                      off sz field
//! 0   8  magic "PRSTORE1"           0   4  magic "PRFO"
//! 8   4  format_version             4   4  format_version
//! 12  4  block_size                 8   8  epoch
//! 16  8  epoch (0 = empty store)    16  8  num_pages
//! 24  4  dimension D                24  4  table_crc
//! 28  4  reserved                   28  4  reserved
//! 32  40 TreeMeta (see pr-tree)     32  4  footer_crc over bytes 0..32
//! 72  8  num_pages                  36  4  zero padding
//! 80  8  data_offset
//! 88  8  table_offset
//! 96  8  footer_offset
//! 104 4  table_crc
//! 108 8  manifest_offset (0 = single-tree snapshot, no manifest)
//! 116 4  manifest_len
//! 120 4  reserved
//! 124 4  superblock_crc over bytes 0..124
//! ```
//!
//! A **manifest** ([`ManifestRecord`]) turns a snapshot into a
//! *multi-component* commit: each component is an independent
//! contiguous **page run** somewhere in the file, described by a
//! [`ComponentRun`] — a stable identity, a BFS page run at an absolute
//! byte offset, and that run's own CRC32 table. Runs written by earlier
//! epochs are referenced **in place**: a commit only appends the pages
//! of components that actually changed and re-points everything else,
//! which is what makes merge I/O O(merged levels) instead of O(index).
//! An opaque application blob rides along under the same CRC —
//! `pr-live` stores its WAL position, tombstones, and memtable
//! checkpoint there. Layout:
//!
//! ```text
//! Manifest (variable)
//! off       sz    field
//! 0         4     magic "PRMF"
//! 4         4     format_version
//! 8         8     epoch (must match the superblock)
//! 16        4     num_components
//! 20        4     app_len
//! 24        76·k  component runs (see ComponentRun)
//! 24+76k    app   application blob
//! ...       4     manifest_crc over all previous bytes
//!
//! ComponentRun (76 bytes)
//! off sz field
//! 0   8  component id (stable across epochs while the run is reused)
//! 8   40 TreeMeta (root is run-relative; always page 0)
//! 48  8  data_offset (absolute byte offset of the run's first page)
//! 56  8  num_pages
//! 64  8  table_offset (absolute byte offset of the run's CRC table)
//! 72  4  table_crc (CRC32 of the run's table bytes)
//! ```
//!
//! The superblock's own `data_offset`/`num_pages`/`table_offset`/
//! `table_crc` describe only the region **newly written by this
//! epoch's commit** (reused runs were proven by the epoch that wrote
//! them and are re-verified against their per-run `table_crc` at open);
//! the footer commits that new region. A commit that reuses every
//! component writes zero pages and an empty table — still a valid,
//! fully CRC-guarded commit.

use crate::crc::crc32;
use crate::error::StoreError;
use pr_tree::TreeMeta;

/// Store file magic (first 8 bytes of both superblock slots).
pub(crate) const SB_MAGIC: [u8; 8] = *b"PRSTORE1";
/// Footer magic.
pub(crate) const FOOTER_MAGIC: [u8; 4] = *b"PRFO";
/// Manifest record magic.
pub(crate) const MANIFEST_MAGIC: [u8; 4] = *b"PRMF";
/// Current format version. Version 2 replaced the manifest's packed
/// `TreeMeta` list with per-component page runs ([`ComponentRun`]),
/// enabling incremental commits that reference unchanged components'
/// pages in place.
pub const FORMAT_VERSION: u32 = 2;

/// One committed (or empty) store state. Two slots of these alternate;
/// the one with the highest epoch that validates wins at open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Superblock {
    /// Page/block size of the snapshot region in bytes.
    pub block_size: u32,
    /// Commit epoch: 0 for a freshly created (empty) store, then +1 per
    /// successful `save`.
    pub epoch: u64,
    /// Dimensionality `D` of the indexed rectangles.
    pub dim: u32,
    /// The tree handle's metadata (root is snapshot-relative; the root
    /// page is always page 0 of the snapshot).
    pub meta: TreeMeta,
    /// Number of pages in the committed snapshot.
    pub num_pages: u64,
    /// Byte offset of the snapshot's first page.
    pub data_offset: u64,
    /// Byte offset of the per-page CRC32 table.
    pub table_offset: u64,
    /// Byte offset of the footer record.
    pub footer_offset: u64,
    /// CRC32 of the checksum table bytes.
    pub table_crc: u32,
    /// Byte offset of the [`ManifestRecord`] (0 = single-tree snapshot
    /// without a manifest).
    pub manifest_offset: u64,
    /// Encoded length of the manifest record in bytes (0 when absent).
    pub manifest_len: u32,
}

impl Superblock {
    /// Encoded size of the live header inside a slot.
    pub(crate) const ENCODED_SIZE: usize = 128;
    /// Size of each superblock slot. Fixed (rather than one block) so a
    /// reader can locate slot B before it knows the block size, even
    /// when slot A is torn.
    pub const SLOT_SIZE: u64 = 4096;

    /// Byte offset of slot 0 or 1.
    pub(crate) fn slot_offset(slot: usize) -> u64 {
        debug_assert!(slot < 2);
        slot as u64 * Self::SLOT_SIZE
    }

    /// First byte past the two superblock slots.
    pub(crate) fn data_region_start() -> u64 {
        2 * Self::SLOT_SIZE
    }

    /// Serializes into `buf` (exactly [`Superblock::ENCODED_SIZE`] bytes).
    pub(crate) fn encode(&self, buf: &mut [u8]) {
        assert_eq!(buf.len(), Self::ENCODED_SIZE);
        buf[0..8].copy_from_slice(&SB_MAGIC);
        buf[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf[12..16].copy_from_slice(&self.block_size.to_le_bytes());
        buf[16..24].copy_from_slice(&self.epoch.to_le_bytes());
        buf[24..28].copy_from_slice(&self.dim.to_le_bytes());
        buf[28..32].fill(0);
        self.meta.encode(&mut buf[32..72]);
        buf[72..80].copy_from_slice(&self.num_pages.to_le_bytes());
        buf[80..88].copy_from_slice(&self.data_offset.to_le_bytes());
        buf[88..96].copy_from_slice(&self.table_offset.to_le_bytes());
        buf[96..104].copy_from_slice(&self.footer_offset.to_le_bytes());
        buf[104..108].copy_from_slice(&self.table_crc.to_le_bytes());
        buf[108..116].copy_from_slice(&self.manifest_offset.to_le_bytes());
        buf[116..120].copy_from_slice(&self.manifest_len.to_le_bytes());
        buf[120..124].fill(0);
        let crc = crc32(&buf[0..124]);
        buf[124..128].copy_from_slice(&crc.to_le_bytes());
    }

    /// Deserializes one slot's header, verifying magic, version, and the
    /// superblock's own CRC.
    pub(crate) fn decode(buf: &[u8]) -> Result<Self, StoreError> {
        if buf.len() != Self::ENCODED_SIZE {
            return Err(StoreError::Corrupt(format!(
                "superblock buffer is {} bytes, want {}",
                buf.len(),
                Self::ENCODED_SIZE
            )));
        }
        if buf[0..8] != SB_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let stored_crc = u32::from_le_bytes(buf[124..128].try_into().expect("4 bytes"));
        let computed = crc32(&buf[0..124]);
        if stored_crc != computed {
            return Err(StoreError::Corrupt(format!(
                "superblock checksum mismatch (stored {stored_crc:08x}, computed {computed:08x})"
            )));
        }
        let meta = TreeMeta::decode(&buf[32..72])
            .map_err(|e| StoreError::Corrupt(format!("superblock tree metadata: {e}")))?;
        let sb = Superblock {
            block_size: u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")),
            epoch: u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes")),
            dim: u32::from_le_bytes(buf[24..28].try_into().expect("4 bytes")),
            meta,
            num_pages: u64::from_le_bytes(buf[72..80].try_into().expect("8 bytes")),
            data_offset: u64::from_le_bytes(buf[80..88].try_into().expect("8 bytes")),
            table_offset: u64::from_le_bytes(buf[88..96].try_into().expect("8 bytes")),
            footer_offset: u64::from_le_bytes(buf[96..104].try_into().expect("8 bytes")),
            table_crc: u32::from_le_bytes(buf[104..108].try_into().expect("4 bytes")),
            manifest_offset: u64::from_le_bytes(buf[108..116].try_into().expect("8 bytes")),
            manifest_len: u32::from_le_bytes(buf[116..120].try_into().expect("4 bytes")),
        };
        if sb.block_size == 0 {
            return Err(StoreError::Corrupt("superblock has zero block size".into()));
        }
        if sb.epoch > 0 && sb.data_offset < Self::data_region_start() {
            return Err(StoreError::Corrupt(format!(
                "snapshot data offset {} overlaps the superblocks",
                sb.data_offset
            )));
        }
        Ok(sb)
    }

    /// True when this superblock describes a committed snapshot (not the
    /// freshly created empty state).
    pub fn has_snapshot(&self) -> bool {
        self.epoch > 0
    }

    /// True when the committed snapshot carries a multi-component
    /// manifest record.
    pub(crate) fn has_manifest(&self) -> bool {
        self.manifest_offset != 0
    }
}

/// One component's page run: a stable identity plus the absolute
/// location of its BFS pages and their CRC table. Page ids inside a run
/// are run-relative (the root is always page 0), so a run means the
/// same tree no matter which epoch's manifest references it — that is
/// what lets a commit leave unchanged components' pages in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentRun {
    /// Stable component identity. Assigned once when the component's
    /// pages are written; every later manifest that reuses the run
    /// carries the same id, so higher layers can recognize "same bytes,
    /// same tree" across epochs.
    pub id: u64,
    /// The component's tree metadata; `root` is run-relative (0).
    pub meta: TreeMeta,
    /// Absolute byte offset of the run's first page.
    pub data_offset: u64,
    /// Number of pages in the run.
    pub num_pages: u64,
    /// Absolute byte offset of the run's per-page CRC32 table
    /// (`num_pages * 4` bytes).
    pub table_offset: u64,
    /// CRC32 of the run's table bytes.
    pub table_crc: u32,
}

impl ComponentRun {
    /// Encoded size in bytes.
    pub(crate) const ENCODED_SIZE: usize = 76;

    /// Serializes into `buf` (exactly [`ComponentRun::ENCODED_SIZE`]
    /// bytes).
    pub(crate) fn encode(&self, buf: &mut [u8]) {
        assert_eq!(buf.len(), Self::ENCODED_SIZE);
        buf[0..8].copy_from_slice(&self.id.to_le_bytes());
        self.meta.encode(&mut buf[8..48]);
        buf[48..56].copy_from_slice(&self.data_offset.to_le_bytes());
        buf[56..64].copy_from_slice(&self.num_pages.to_le_bytes());
        buf[64..72].copy_from_slice(&self.table_offset.to_le_bytes());
        buf[72..76].copy_from_slice(&self.table_crc.to_le_bytes());
    }

    /// Deserializes one run entry (integrity is the enclosing
    /// manifest's CRC).
    pub(crate) fn decode(buf: &[u8]) -> Result<Self, StoreError> {
        if buf.len() != Self::ENCODED_SIZE {
            return Err(StoreError::Corrupt(format!(
                "component run is {} bytes, want {}",
                buf.len(),
                Self::ENCODED_SIZE
            )));
        }
        let meta = TreeMeta::decode(&buf[8..48])
            .map_err(|e| StoreError::Corrupt(format!("component run metadata: {e}")))?;
        Ok(ComponentRun {
            id: u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes")),
            meta,
            data_offset: u64::from_le_bytes(buf[48..56].try_into().expect("8 bytes")),
            num_pages: u64::from_le_bytes(buf[56..64].try_into().expect("8 bytes")),
            table_offset: u64::from_le_bytes(buf[64..72].try_into().expect("8 bytes")),
            table_crc: u32::from_le_bytes(buf[72..76].try_into().expect("4 bytes")),
        })
    }
}

/// A multi-component commit record: the snapshot holds `runs.len()`
/// trees, each an independent page run (possibly written by an earlier
/// epoch and referenced in place), plus an opaque application blob. See
/// the module docs for the byte layout. The record's own CRC covers the
/// runs *and* the blob, so a torn manifest invalidates the whole
/// candidate snapshot at open (falling back one epoch, exactly like a
/// torn footer).
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestRecord {
    /// Epoch this manifest belongs to (must match its superblock).
    pub epoch: u64,
    /// One page run per component.
    pub runs: Vec<ComponentRun>,
    /// Opaque application payload (pr-live's checkpoint).
    pub app: Vec<u8>,
}

impl ManifestRecord {
    /// Fixed header bytes before the runs.
    pub const HEADER_SIZE: usize = 24;

    /// Encoded size of this record in bytes.
    pub(crate) fn encoded_size(&self) -> usize {
        Self::HEADER_SIZE + self.runs.len() * ComponentRun::ENCODED_SIZE + self.app.len() + 4
    }

    /// Serializes into a fresh buffer.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; self.encoded_size()];
        buf[0..4].copy_from_slice(&MANIFEST_MAGIC);
        buf[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf[8..16].copy_from_slice(&self.epoch.to_le_bytes());
        buf[16..20].copy_from_slice(&(self.runs.len() as u32).to_le_bytes());
        buf[20..24].copy_from_slice(&(self.app.len() as u32).to_le_bytes());
        let mut off = Self::HEADER_SIZE;
        for run in &self.runs {
            run.encode(&mut buf[off..off + ComponentRun::ENCODED_SIZE]);
            off += ComponentRun::ENCODED_SIZE;
        }
        buf[off..off + self.app.len()].copy_from_slice(&self.app);
        off += self.app.len();
        let crc = crc32(&buf[..off]);
        buf[off..off + 4].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Deserializes and verifies a manifest record.
    pub(crate) fn decode(buf: &[u8]) -> Result<Self, StoreError> {
        if buf.len() < Self::HEADER_SIZE + 4 {
            return Err(StoreError::Corrupt(format!(
                "manifest record is {} bytes, too short for a header",
                buf.len()
            )));
        }
        if buf[0..4] != MANIFEST_MAGIC {
            return Err(StoreError::Corrupt("bad manifest magic".into()));
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let epoch = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
        let num = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")) as usize;
        let app_len = u32::from_le_bytes(buf[20..24].try_into().expect("4 bytes")) as usize;
        let want = Self::HEADER_SIZE + num * ComponentRun::ENCODED_SIZE + app_len + 4;
        if buf.len() != want {
            return Err(StoreError::Corrupt(format!(
                "manifest record is {} bytes, header implies {want}",
                buf.len()
            )));
        }
        let stored_crc = u32::from_le_bytes(buf[want - 4..want].try_into().expect("4 bytes"));
        let computed = crc32(&buf[..want - 4]);
        if stored_crc != computed {
            return Err(StoreError::Corrupt(format!(
                "manifest checksum mismatch (stored {stored_crc:08x}, computed {computed:08x})"
            )));
        }
        let mut runs = Vec::with_capacity(num);
        let mut off = Self::HEADER_SIZE;
        for _ in 0..num {
            runs.push(ComponentRun::decode(
                &buf[off..off + ComponentRun::ENCODED_SIZE],
            )?);
            off += ComponentRun::ENCODED_SIZE;
        }
        let app = buf[off..off + app_len].to_vec();
        Ok(ManifestRecord { epoch, runs, app })
    }
}

/// The commit record written at the end of a snapshot, before the
/// superblock flip. Validating it proves the snapshot body (pages +
/// checksum table) was fully written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footer {
    /// Epoch this footer commits (must match its superblock).
    pub epoch: u64,
    /// Number of pages in the snapshot.
    pub num_pages: u64,
    /// CRC32 of the checksum table bytes.
    pub table_crc: u32,
}

impl Footer {
    /// Encoded size in bytes.
    pub(crate) const ENCODED_SIZE: usize = 40;

    /// Serializes into `buf` (exactly [`Footer::ENCODED_SIZE`] bytes).
    pub(crate) fn encode(&self, buf: &mut [u8]) {
        assert_eq!(buf.len(), Self::ENCODED_SIZE);
        buf[0..4].copy_from_slice(&FOOTER_MAGIC);
        buf[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf[8..16].copy_from_slice(&self.epoch.to_le_bytes());
        buf[16..24].copy_from_slice(&self.num_pages.to_le_bytes());
        buf[24..28].copy_from_slice(&self.table_crc.to_le_bytes());
        buf[28..32].fill(0);
        let crc = crc32(&buf[0..32]);
        buf[32..36].copy_from_slice(&crc.to_le_bytes());
        buf[36..40].fill(0);
    }

    /// Deserializes and verifies a footer record.
    pub(crate) fn decode(buf: &[u8]) -> Result<Self, StoreError> {
        if buf.len() != Self::ENCODED_SIZE {
            return Err(StoreError::Corrupt(format!(
                "footer buffer is {} bytes, want {}",
                buf.len(),
                Self::ENCODED_SIZE
            )));
        }
        if buf[0..4] != FOOTER_MAGIC {
            return Err(StoreError::Corrupt("bad footer magic".into()));
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let stored_crc = u32::from_le_bytes(buf[32..36].try_into().expect("4 bytes"));
        let computed = crc32(&buf[0..32]);
        if stored_crc != computed {
            return Err(StoreError::Corrupt(format!(
                "footer checksum mismatch (stored {stored_crc:08x}, computed {computed:08x})"
            )));
        }
        Ok(Footer {
            epoch: u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
            num_pages: u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes")),
            table_crc: u32::from_le_bytes(buf[24..28].try_into().expect("4 bytes")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_tree::TreeParams;

    fn sample_sb() -> Superblock {
        Superblock {
            block_size: 4096,
            epoch: 3,
            dim: 2,
            meta: TreeMeta {
                params: TreeParams::paper_2d(),
                root: 0,
                root_level: 2,
                len: 100_000,
            },
            num_pages: 1234,
            data_offset: 8192,
            table_offset: 8192 + 1234 * 4096,
            footer_offset: 8192 + 1234 * 4096 + 1234 * 4,
            table_crc: 0xDEAD_BEEF,
            manifest_offset: 0,
            manifest_len: 0,
        }
    }

    #[test]
    fn superblock_roundtrip() {
        let sb = sample_sb();
        let mut buf = vec![0u8; Superblock::ENCODED_SIZE];
        sb.encode(&mut buf);
        assert_eq!(Superblock::decode(&buf).unwrap(), sb);
        assert!(sb.has_snapshot());
    }

    #[test]
    fn superblock_bit_flip_is_detected() {
        let sb = sample_sb();
        let mut buf = vec![0u8; Superblock::ENCODED_SIZE];
        sb.encode(&mut buf);
        for off in [9, 17, 40, 75, 101, 110] {
            let mut bad = buf.clone();
            bad[off] ^= 0x40;
            assert!(Superblock::decode(&bad).is_err(), "flip at {off} accepted");
        }
    }

    #[test]
    fn wrong_magic_and_version() {
        let sb = sample_sb();
        let mut buf = vec![0u8; Superblock::ENCODED_SIZE];
        sb.encode(&mut buf);
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            Superblock::decode(&bad),
            Err(StoreError::BadMagic)
        ));
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Superblock::decode(&bad),
            Err(StoreError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn footer_roundtrip_and_corruption() {
        let f = Footer {
            epoch: 7,
            num_pages: 55,
            table_crc: 0x1234_5678,
        };
        let mut buf = vec![0u8; Footer::ENCODED_SIZE];
        f.encode(&mut buf);
        assert_eq!(Footer::decode(&buf).unwrap(), f);
        let mut bad = buf.clone();
        bad[20] ^= 1;
        assert!(Footer::decode(&bad).is_err());
        let mut bad = buf;
        bad[0] = 0;
        assert!(Footer::decode(&bad).is_err());
    }

    fn sample_run(id: u64, root_level: u8, len: u64, data_offset: u64) -> ComponentRun {
        ComponentRun {
            id,
            meta: TreeMeta {
                params: TreeParams::paper_2d(),
                root: 0,
                root_level,
                len,
            },
            data_offset,
            num_pages: len.div_ceil(100).max(1),
            table_offset: data_offset + len * 4096,
            table_crc: 0xABCD_0000 | id as u32,
        }
    }

    #[test]
    fn component_run_roundtrip() {
        let run = sample_run(7, 2, 1000, 8192);
        let mut buf = vec![0u8; ComponentRun::ENCODED_SIZE];
        run.encode(&mut buf);
        assert_eq!(ComponentRun::decode(&buf).unwrap(), run);
        assert!(ComponentRun::decode(&buf[..10]).is_err());
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let m = ManifestRecord {
            epoch: 9,
            runs: vec![sample_run(1, 2, 1000, 8192), sample_run(4, 1, 64, 500_000)],
            app: b"opaque payload".to_vec(),
        };
        let buf = m.encode();
        assert_eq!(buf.len(), m.encoded_size());
        assert_eq!(ManifestRecord::decode(&buf).unwrap(), m);
        // A flip anywhere — header, run entry, app blob, crc — is caught.
        for off in [0, 9, 17, 30, 70, 110, buf.len() - 10, buf.len() - 2] {
            let mut bad = buf.clone();
            bad[off] ^= 0x20;
            assert!(ManifestRecord::decode(&bad).is_err(), "flip at {off}");
        }
        // Truncation is caught.
        assert!(ManifestRecord::decode(&buf[..buf.len() - 1]).is_err());
        assert!(ManifestRecord::decode(&buf[..10]).is_err());
    }

    #[test]
    fn empty_manifest_is_valid() {
        let m = ManifestRecord {
            epoch: 1,
            runs: Vec::new(),
            app: Vec::new(),
        };
        let buf = m.encode();
        assert_eq!(ManifestRecord::decode(&buf).unwrap(), m);
    }

    #[test]
    fn superblock_manifest_fields_roundtrip() {
        let mut sb = sample_sb();
        sb.manifest_offset = 123_456;
        sb.manifest_len = 789;
        let mut buf = vec![0u8; Superblock::ENCODED_SIZE];
        sb.encode(&mut buf);
        let back = Superblock::decode(&buf).unwrap();
        assert_eq!(back, sb);
        assert!(back.has_manifest());
        assert!(!sample_sb().has_manifest());
    }

    #[test]
    fn slots_are_fixed_and_disjoint() {
        assert_eq!(Superblock::slot_offset(0), 0);
        assert_eq!(Superblock::slot_offset(1), 4096);
        assert_eq!(Superblock::data_region_start(), 8192);
        assert!(Superblock::ENCODED_SIZE as u64 <= Superblock::SLOT_SIZE);
    }
}
