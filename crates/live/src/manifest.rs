//! The live index's checkpoint record — the application blob committed
//! through `pr-store`'s multi-component manifest.
//!
//! A merge commit writes one of these alongside the component snapshot
//! list, making the pair `{component trees, LiveManifest}` a **complete,
//! consistent cut** of the index at WAL sequence `wal_seq`: component
//! placement (slots), the tombstone multiset, and the memtable contents
//! at that sequence. Reopen restores the cut, then replays only WAL
//! records with `seq > wal_seq` — so a crash at *any* point loses
//! nothing acknowledged and double-applies nothing.
//!
//! Integrity: this blob is embedded in `pr_store::ManifestRecord`, whose
//! CRC covers every byte here; a flipped bit fails the snapshot at open
//! and recovery falls back one epoch. No separate checksum is needed.
//!
//! ```text
//! off  sz   field
//! 0    8    magic "PRLIVE1\0"
//! 8    4    version
//! 12   4    reserved
//! 16   8    wal_seq
//! 24   4    num_components
//! 28   4    num_tombstones (distinct keys)
//! 32   4    num_memtable
//! 36   4    reserved
//! 40   4c   component slot indices (u32 each, parallel to the store
//!           manifest's TreeMeta list)
//! …    40t  tombstones: item bytes + count (u32) each
//! …    36m  memtable items
//! ```

use crate::error::LiveError;
use pr_em::Record;
use pr_geom::Item;
use pr_tree::dynamic::tombstone::{TombstoneKey, Tombstones};
use pr_tree::Entry;

/// Live-manifest magic.
pub const LIVE_MAGIC: [u8; 8] = *b"PRLIVE1\0";
/// Live-manifest version.
pub const LIVE_VERSION: u32 = 1;
const HEADER_SIZE: usize = 40;

/// The durable cut of the live index at one WAL sequence number.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LiveManifest<const D: usize> {
    /// Every WAL record with `seq <= wal_seq` is reflected in the
    /// committed components + tombstones + memtable; records above it
    /// are replayed from the WAL at open.
    pub wal_seq: u64,
    /// Geometric slot of each committed component, parallel to the
    /// store manifest's component list.
    pub slots: Vec<u32>,
    /// Dead `(id, rect)` identities among the committed components.
    pub tombstones: Tombstones<D>,
    /// Memtable contents at the cut.
    pub memtable: Vec<Item<D>>,
}

impl<const D: usize> LiveManifest<D> {
    /// Serializes the checkpoint (see module docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let item_size = Entry::<D>::SIZE;
        let tombs = self.tombstones.entries();
        let size = HEADER_SIZE
            + self.slots.len() * 4
            + tombs.len() * (item_size + 4)
            + self.memtable.len() * item_size;
        let mut buf = vec![0u8; size];
        buf[0..8].copy_from_slice(&LIVE_MAGIC);
        buf[8..12].copy_from_slice(&LIVE_VERSION.to_le_bytes());
        buf[16..24].copy_from_slice(&self.wal_seq.to_le_bytes());
        buf[24..28].copy_from_slice(&(self.slots.len() as u32).to_le_bytes());
        buf[28..32].copy_from_slice(&(tombs.len() as u32).to_le_bytes());
        buf[32..36].copy_from_slice(&(self.memtable.len() as u32).to_le_bytes());
        let mut off = HEADER_SIZE;
        for slot in &self.slots {
            buf[off..off + 4].copy_from_slice(&slot.to_le_bytes());
            off += 4;
        }
        for (key, count) in tombs {
            Entry::from_item(key.to_item()).encode(&mut buf[off..off + item_size]);
            off += item_size;
            buf[off..off + 4].copy_from_slice(&count.to_le_bytes());
            off += 4;
        }
        for item in &self.memtable {
            Entry::from_item(*item).encode(&mut buf[off..off + item_size]);
            off += item_size;
        }
        debug_assert_eq!(off, size);
        buf
    }

    /// Deserializes a checkpoint written by [`LiveManifest::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self, LiveError> {
        let item_size = Entry::<D>::SIZE;
        if buf.len() < HEADER_SIZE {
            return Err(LiveError::Corrupt(format!(
                "live manifest is {} bytes, too short for a header",
                buf.len()
            )));
        }
        if buf[0..8] != LIVE_MAGIC {
            return Err(LiveError::Corrupt("bad live-manifest magic".into()));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        if version != LIVE_VERSION {
            return Err(LiveError::Corrupt(format!(
                "unsupported live-manifest version {version}"
            )));
        }
        let wal_seq = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
        let u32_at = |off: usize| {
            u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes")) as usize
        };
        let (nc, nt, nm) = (u32_at(24), u32_at(28), u32_at(32));
        let want = HEADER_SIZE + nc * 4 + nt * (item_size + 4) + nm * item_size;
        if buf.len() != want {
            return Err(LiveError::Corrupt(format!(
                "live manifest is {} bytes, header implies {want}",
                buf.len()
            )));
        }
        let mut off = HEADER_SIZE;
        let mut slots = Vec::with_capacity(nc);
        for _ in 0..nc {
            slots.push(u32::from_le_bytes(
                buf[off..off + 4].try_into().expect("4 bytes"),
            ));
            off += 4;
        }
        let tombstones: Tombstones<D> = (0..nt)
            .map(|_| {
                let item = Entry::<D>::decode(&buf[off..off + item_size]).to_item();
                off += item_size;
                let count = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"));
                off += 4;
                (TombstoneKey::of(&item), count)
            })
            .collect();
        let mut memtable = Vec::with_capacity(nm);
        for _ in 0..nm {
            memtable.push(Entry::<D>::decode(&buf[off..off + item_size]).to_item());
            off += item_size;
        }
        Ok(LiveManifest {
            wal_seq,
            slots,
            tombstones,
            memtable,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_geom::Rect;

    fn item(id: u32, x: f64) -> Item<2> {
        Item::new(Rect::xyxy(x, 0.0, x + 1.0, 1.0), id)
    }

    #[test]
    fn roundtrip() {
        let mut tombstones = Tombstones::new();
        tombstones.add(&item(9, 1.5));
        tombstones.add(&item(9, 1.5));
        tombstones.add(&item(11, 7.0));
        let m = LiveManifest::<2> {
            wal_seq: 12345,
            slots: vec![2, 5],
            tombstones,
            memtable: vec![item(100, 0.0), item(101, 3.0)],
        };
        let buf = m.encode();
        let back = LiveManifest::<2>::decode(&buf).unwrap();
        assert_eq!(back.wal_seq, m.wal_seq);
        assert_eq!(back.slots, m.slots);
        assert_eq!(back.memtable, m.memtable);
        assert_eq!(back.tombstones.total(), 3);
        assert_eq!(back.tombstones.count(&item(9, 1.5)), 2);
    }

    /// A checkpoint's bytes, pinned field by field. One tombstone key
    /// (counted twice): the map's iteration order is not fixed, so a
    /// second key would make the order of the tombstone records vary.
    #[test]
    fn manifest_bytes_are_pinned() {
        let mut tombstones = Tombstones::new();
        tombstones.add(&item(9, -0.0));
        tombstones.add(&item(9, -0.0));
        let m = LiveManifest::<2> {
            wal_seq: 12345,
            slots: vec![2, 5],
            tombstones,
            memtable: vec![item(100, 0.0), item(101, 3.0)],
        };
        let f = |v: f64| v.to_le_bytes();
        let u = |v: u32| v.to_le_bytes();
        let want: Vec<u8> = [
            &b"PRLIVE1\0"[..],
            &u(1),                   // version
            &u(0),                   // reserved
            &12345u64.to_le_bytes(), // wal_seq
            &u(2),                   // slots
            &u(1),                   // distinct tombstone keys
            &u(2),                   // memtable items
            &u(0),                   // reserved
            &u(2),
            &u(5),                        // slot indices
            &[0, 0, 0, 0, 0, 0, 0, 0x80], // tombstone: lo = (-0.0, 0.0)
            &[0; 8],
            &f(1.0), // hi = (1.0, 1.0)
            &f(1.0),
            &u(9),   // id
            &u(2),   // count
            &f(0.0), // memtable[0]
            &f(0.0),
            &f(1.0),
            &f(1.0),
            &u(100),
            &f(3.0), // memtable[1]
            &f(0.0),
            &f(4.0),
            &f(1.0),
            &u(101),
        ]
        .concat();
        let buf = m.encode();
        assert_eq!(buf, want);
        let back = LiveManifest::<2>::decode(&want).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.tombstones.count(&item(9, 0.0)), 0, "-0.0 is kept");
    }

    /// A checkpoint the size of a churned index's: the decode that sizes
    /// its map up front gives back the same multiset.
    #[test]
    fn ten_thousand_tombstones_roundtrip() {
        let mut tombstones = Tombstones::new();
        for id in 0..10_000 {
            tombstones.add_count(TombstoneKey::of(&item(id, id as f64)), 1 + id % 3);
        }
        let m = LiveManifest::<2> {
            wal_seq: 7,
            slots: vec![0, 3, 4],
            tombstones,
            memtable: (0..500).map(|id| item(20_000 + id, -(id as f64))).collect(),
        };
        let back = LiveManifest::<2>::decode(&m.encode()).unwrap();
        assert_eq!(back.tombstones.total(), 19_999);
        assert_eq!(back.tombstones.count(&item(4, 4.0)), 2);
        assert_eq!(back, m);
    }

    #[test]
    fn empty_roundtrip() {
        let m = LiveManifest::<2>::default();
        let back = LiveManifest::<2>::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(LiveManifest::<2>::decode(b"nope").is_err());
        let mut buf = LiveManifest::<2>::default().encode();
        buf[0] = b'X';
        assert!(LiveManifest::<2>::decode(&buf).is_err());
        let mut buf = LiveManifest::<2>::default().encode();
        buf[24] = 200; // claims 200 components, buffer too short
        assert!(LiveManifest::<2>::decode(&buf).is_err());
    }
}
