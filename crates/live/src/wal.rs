//! The CRC-guarded, segmented write-ahead log.
//!
//! The WAL is the sole durability story between merges, and since PR 6
//! it is fed through a **group-commit pipeline** rather than one
//! append+fsync per caller. The append path has three roles:
//!
//! * **Enqueue** — a writer, holding only the sequencing lock, assigns
//!   sequence numbers and *encodes* its batch onto the end of the commit
//!   queue's one group buffer (`WalRecord::encode_into`, one record
//!   per op). No I/O happens under the sequencing lock.
//! * **Lead** — the first waiter to find the queue non-idle takes the
//!   group buffer, holding *every* queued batch, lands it with one
//!   positioned write (`Wal::append`), issues **one**
//!   `fsync` for the whole group (`Wal::sync`; skipped in async
//!   durability, where a dedicated syncer thread syncs behind a bounded
//!   window), applies the group to the memtable, and publishes the new
//!   durable horizon.
//! * **Follow** — every other waiter sleeps on the commit condvar until
//!   the horizon covers its last sequence number. N concurrent writers
//!   therefore share one fsync instead of paying N.
//!
//! The queue/leader machinery lives in `crate::commit`; this module
//! owns the on-disk format, which is **unchanged** from the
//! one-fsync-per-batch era: a group is nothing but the batches' record
//! frames laid back to back, so recovery cannot tell (and need not
//! care) where group boundaries fell.
//!
//! Records live in numbered segment files `wal-NNNNNN.log`. A merge
//! commit's manifest records its WAL cut `wal_seq`, and replay skips
//! every record at or below it — that rule alone decides what a reopen
//! applies, so a segment may hold records on both sides of the cut.
//! Segments exist to bound what replay has to *scan*: the cut of a
//! checkpoint (`flush()`, `compact()`) always *rotates* to a fresh
//! segment first, the cut of a routine overflow merge only once the
//! current segment has reached `SEGMENT_ROTATE_BYTES`. After the
//! manifest of a rotating cut is durable every record the index still
//! needs lives in segments at or after the rotation, and the older
//! segments are deleted whole (`Wal::prune_old`). No in-place
//! truncation, no rewriting. Rotation only ever happens inside a cut,
//! after the commit queue is quiesced and the current segment fsynced,
//! preserving the invariant that non-newest segments are complete and
//! durable.
//!
//! ## Wire format
//!
//! ```text
//! segment header (16 bytes)        record
//! 0  8  magic "PRWAL1\0\0"         0  4  payload_len (u32)
//! 8  4  format_version             4  4  crc32 over payload
//! 12 4  reserved                   8  …  payload:
//!                                        seq (u64) | op (u8) | item bytes
//! ```
//!
//! ## Recovery
//!
//! [`Wal::open`] replays every segment in index order. A record whose
//! length or CRC does not check out in the **newest** segment is a torn
//! tail — a write that died with the process before it was fsynced
//! (under `Durability::Fsync` that means it was never acknowledged;
//! under `Durability::Async` it may cover acknowledged records past the
//! synced prefix, which is exactly the contract of that mode) — so the
//! segment is truncated at the last valid boundary and replay stops
//! there. The same damage in an *older* segment cannot be a torn tail
//! (older segments were complete and fsynced before the log rotated
//! past them) and surfaces as [`LiveError::Corrupt`].

use crate::error::LiveError;
use pr_em::{fsync_dir, PositionedFile, Record};
use pr_geom::Item;
use pr_store::crc32;
use pr_tree::Entry;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

/// Segment file magic.
pub(crate) const WAL_MAGIC: [u8; 8] = *b"PRWAL1\0\0";
/// WAL format version.
pub(crate) const WAL_VERSION: u32 = 1;
/// Size of the fixed segment header.
pub const SEGMENT_HEADER_SIZE: u64 = 16;
/// Size of the per-record frame (length + CRC) before the payload.
pub const RECORD_HEADER_SIZE: usize = 8;
/// Segment size at which the cut of an overflow merge rotates. It
/// bounds the covered records a reopen scans and skips (about a
/// millisecond per MiB) against a segment create + two fsyncs + an
/// unlink per rotation — paid per merge, those cost more than the
/// merge's own bulk load.
pub(crate) const SEGMENT_ROTATE_BYTES: u64 = 1 << 20;

/// A logged mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalOp {
    /// The item was inserted.
    Insert,
    /// The (live) item was deleted.
    Delete,
}

impl WalOp {
    fn to_byte(self) -> u8 {
        match self {
            WalOp::Insert => 1,
            WalOp::Delete => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(WalOp::Insert),
            2 => Some(WalOp::Delete),
            _ => None,
        }
    }
}

/// One acknowledged mutation: a monotone sequence number, the operation,
/// and the full item identity (deletes log the item too, so replay can
/// re-derive where the delete landed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalRecord<const D: usize> {
    /// Monotone sequence number (assigned under the writer lock).
    pub seq: u64,
    /// What happened.
    pub(crate) op: WalOp,
    /// The item inserted or deleted.
    pub item: Item<D>,
}

impl<const D: usize> WalRecord<D> {
    /// Payload bytes of one record (seq + op + item).
    pub const PAYLOAD_SIZE: usize = 8 + 1 + Entry::<D>::SIZE;

    /// Appends this record's frame (length + CRC header, then the
    /// payload) to `buf`. Allocation-free: the payload is encoded
    /// directly into `buf` and the CRC patched over it afterwards, so
    /// encoding into a commit group's reused buffer touches the heap
    /// only to grow the buffer's capacity.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        let frame = buf.len();
        buf.extend_from_slice(&(Self::PAYLOAD_SIZE as u32).to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]); // CRC, patched below
        let payload = buf.len();
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.push(self.op.to_byte());
        let item = buf.len();
        buf.resize(item + Entry::<D>::SIZE, 0);
        Entry::from_item(self.item).encode(&mut buf[item..]);
        let crc = crc32(&buf[payload..]);
        buf[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
    }

    fn decode(payload: &[u8]) -> Option<Self> {
        if payload.len() != Self::PAYLOAD_SIZE {
            return None;
        }
        let seq = u64::from_le_bytes(payload[0..8].try_into().ok()?);
        let op = WalOp::from_byte(payload[8])?;
        let item = Entry::<D>::decode(&payload[9..]).to_item();
        Some(WalRecord { seq, op, item })
    }
}

/// The append side of the log: the current segment and its write offset.
pub struct Wal {
    dir: PathBuf,
    seg_index: u64,
    file: PositionedFile,
    write_off: u64,
    /// Prefix of the active segment known to be on disk: everything
    /// below it was covered by an fsync this handle issued. Recovered
    /// records count as unsynced — the process that appended them may
    /// have died before its fsync.
    synced_off: u64,
    /// [`SEGMENT_ROTATE_BYTES`], unless a test lowered it.
    rotate_bytes: u64,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.log"))
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, LiveError> {
    let mut segs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(num) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
        {
            if let Ok(index) = num.parse::<u64>() {
                segs.push((index, entry.path()));
            }
        }
    }
    segs.sort_by_key(|(i, _)| *i);
    Ok(segs)
}

fn create_segment(dir: &Path, index: u64) -> Result<PositionedFile, LiveError> {
    let path = segment_path(dir, index);
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)?;
    let file = PositionedFile::new(file);
    let mut header = [0u8; SEGMENT_HEADER_SIZE as usize];
    header[0..8].copy_from_slice(&WAL_MAGIC);
    header[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    file.write_all_at(&header, 0)?;
    file.sync_all()?;
    fsync_dir(dir)?;
    Ok(file)
}

impl Wal {
    /// The log positioned on segment `index`, appending at `write_off`.
    fn at(dir: &Path, index: u64, file: PositionedFile, write_off: u64) -> Wal {
        Wal {
            dir: dir.to_path_buf(),
            seg_index: index,
            file,
            write_off,
            synced_off: SEGMENT_HEADER_SIZE,
            rotate_bytes: SEGMENT_ROTATE_BYTES,
        }
    }

    /// Creates the log for a brand-new index: one empty segment.
    pub(crate) fn create(dir: &Path) -> Result<Wal, LiveError> {
        let file = create_segment(dir, 1)?;
        Ok(Wal::at(dir, 1, file, SEGMENT_HEADER_SIZE))
    }

    /// Opens an existing log, replaying every intact record (all
    /// segments, index order) and truncating a torn tail off the newest
    /// segment. Returns the log positioned for appends plus the replayed
    /// records; the caller filters by its manifest's `wal_seq`.
    pub fn open<const D: usize>(dir: &Path) -> Result<(Wal, Vec<WalRecord<D>>), LiveError> {
        let segs = list_segments(dir)?;
        if segs.is_empty() {
            let wal = Wal::create(dir)?;
            return Ok((wal, Vec::new()));
        }
        let mut records = Vec::new();
        let newest = segs.len() - 1;
        let mut wal = None;
        for (pos, (index, path)) in segs.iter().enumerate() {
            let is_newest = pos == newest;
            let file = PositionedFile::new(OpenOptions::new().read(true).write(true).open(path)?);
            let len = file.len()?;
            let mut bytes = vec![0u8; len as usize];
            file.read_exact_or_zero_at(&mut bytes, 0)?;
            let valid_end = scan_segment::<D>(&bytes, &mut records)?;
            if is_newest {
                if valid_end < SEGMENT_HEADER_SIZE {
                    // Even the header is torn (the process died inside
                    // rotation, before the header fsync): no record ever
                    // lived here. Rebuild the segment in place.
                    let file = create_segment(dir, *index)?;
                    wal = Some(Wal::at(dir, *index, file, SEGMENT_HEADER_SIZE));
                    continue;
                }
                if valid_end < len {
                    // Torn tail: the write died before its fsync
                    // acknowledged, so nothing past valid_end was ever
                    // promised. Chop it.
                    file.set_len(valid_end)?;
                    file.sync_all()?;
                }
                wal = Some(Wal::at(dir, *index, file, valid_end));
            } else if valid_end < len {
                return Err(LiveError::Corrupt(format!(
                    "segment {} is damaged at byte {valid_end} but is not the \
                     newest segment — not a torn tail",
                    path.display()
                )));
            }
        }
        Ok((wal.expect("segs nonempty"), records))
    }

    /// Appends encoded record frames — a whole commit group, its
    /// batches back to back — with one positioned write, and **no**
    /// sync. This is the group leader's step; the one shared fsync (or
    /// the async syncer's next pass) follows.
    pub(crate) fn append(&mut self, frames: &[u8]) -> Result<(), LiveError> {
        self.file.write_all_at(frames, self.write_off)?;
        self.write_off += frames.len() as u64;
        Ok(())
    }

    /// Current append offset in the active segment. Captured by a group
    /// leader *before* its append so a failed group can be
    /// rolled back with [`Wal::rollback_to`].
    pub(crate) fn offset(&self) -> u64 {
        self.write_off
    }

    /// Rolls the active segment back to `off`, discarding every byte a
    /// failed (never-acknowledged) group may have landed past it. The
    /// truncation matters: a short/torn group write can leave CRC-valid
    /// record frames on disk, and recovery cannot tell a rolled-back
    /// frame from a real one — without the cut those ghosts would
    /// resurrect on reopen. Uses `set_len`, a *shrinking* truncate that
    /// needs no data-block allocation, so it succeeds even on the full
    /// disk that just failed the append.
    pub(crate) fn rollback_to(&mut self, off: u64) -> Result<(), LiveError> {
        self.file.set_len(off)?;
        self.write_off = off;
        self.synced_off = self.synced_off.min(off);
        Ok(())
    }

    /// Forces every appended byte to disk. The group-commit
    /// acknowledgment point under `Durability::Fsync`; the syncer
    /// thread's heartbeat under `Durability::Async`. Returns whether an
    /// fsync was issued: when every appended byte is already covered by
    /// an earlier one (a merge cut right behind an fsync-acked group)
    /// there is nothing to force and none is.
    pub(crate) fn sync(&mut self) -> Result<bool, LiveError> {
        if self.synced_off == self.write_off {
            return Ok(false);
        }
        let start = std::time::Instant::now();
        self.file.sync_all()?;
        self.synced_off = self.write_off;
        crate::obs::metrics()
            .wal_fsync_us
            .record_duration_us(start.elapsed());
        Ok(true)
    }

    /// True once the active segment has reached the rotation size: the
    /// next merge cut should start a fresh one.
    pub(crate) fn segment_full(&self) -> bool {
        self.write_off >= self.rotate_bytes
    }

    /// Lowers (or raises) the rotation size of this handle — tests
    /// only, so a short trace can cross it.
    #[doc(hidden)]
    pub(crate) fn set_rotate_bytes(&mut self, bytes: u64) {
        self.rotate_bytes = bytes;
    }

    /// Starts a fresh segment; subsequent appends land there. Called
    /// inside a merge cut — always by a checkpoint, by an overflow
    /// merge once [`Wal::segment_full`] — so the manifest's `wal_seq`
    /// cut is also a clean segment boundary and everything older can be
    /// pruned once that manifest is durable.
    pub(crate) fn rotate(&mut self) -> Result<(), LiveError> {
        let next = self.seg_index + 1;
        self.file = create_segment(&self.dir, next)?;
        self.seg_index = next;
        self.write_off = SEGMENT_HEADER_SIZE;
        self.synced_off = SEGMENT_HEADER_SIZE;
        crate::obs::metrics().wal_rotations.inc();
        pr_obs::events().emit("wal_rotate", format!("segment={next}"));
        Ok(())
    }

    /// Deletes every segment older than the current one. Safe once a
    /// manifest with the rotation's cut sequence is durable: everything
    /// in the old segments is at or below the cut.
    pub(crate) fn prune_old(&mut self) -> Result<(), LiveError> {
        let mut pruned = false;
        for (index, path) in list_segments(&self.dir)? {
            if index < self.seg_index {
                std::fs::remove_file(&path)?;
                pruned = true;
            }
        }
        if pruned {
            fsync_dir(&self.dir)?;
        }
        Ok(())
    }

    /// Number of segment files on disk.
    pub(crate) fn num_segments(&self) -> Result<u64, LiveError> {
        Ok(list_segments(&self.dir)?.len() as u64)
    }

    /// Total bytes across all segment files.
    pub(crate) fn total_bytes(&self) -> Result<u64, LiveError> {
        let mut total = 0;
        for (_, path) in list_segments(&self.dir)? {
            total += std::fs::metadata(path)?.len();
        }
        Ok(total)
    }
}

/// Walks one segment's bytes, pushing intact records. Returns the byte
/// offset of the first invalid (or absent) frame.
fn scan_segment<const D: usize>(
    bytes: &[u8],
    out: &mut Vec<WalRecord<D>>,
) -> Result<u64, LiveError> {
    let hdr = SEGMENT_HEADER_SIZE as usize;
    if bytes.len() < hdr || bytes[0..8] != WAL_MAGIC {
        // Torn segment header (crash during rotation, before the header
        // fsync): no records can exist here.
        return Ok(0);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(LiveError::Corrupt(format!(
            "unsupported WAL segment version {version}"
        )));
    }
    let mut off = hdr;
    loop {
        if off + RECORD_HEADER_SIZE > bytes.len() {
            return Ok(off as u64);
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        if len != WalRecord::<D>::PAYLOAD_SIZE || off + RECORD_HEADER_SIZE + len > bytes.len() {
            return Ok(off as u64);
        }
        let payload = &bytes[off + RECORD_HEADER_SIZE..off + RECORD_HEADER_SIZE + len];
        if crc32(payload) != crc {
            return Ok(off as u64);
        }
        match WalRecord::<D>::decode(payload) {
            Some(rec) => out.push(rec),
            None => return Ok(off as u64),
        }
        off += RECORD_HEADER_SIZE + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_geom::Rect;

    /// One record frame, pinned byte for byte: length, CRC-32 of the
    /// payload, then sequence number, op and the item's 36 bytes.
    #[test]
    fn frame_bytes_are_pinned() {
        let rec = WalRecord::<2> {
            seq: 0x0102_0304_0506_0708,
            op: WalOp::Delete,
            item: Item::new(Rect::xyxy(-0.0, 1.0, 2.0, 3.0), 7),
        };
        let want: [u8; 53] = [
            0x2d, 0x00, 0x00, 0x00, // payload_len = 45
            0xaa, 0xf2, 0x8a, 0xb6, // crc32 over the payload
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // seq
            0x02, // op = Delete
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, // lo[0] = -0.0
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, // lo[1] = 1.0
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, // hi[0] = 2.0
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, // hi[1] = 3.0
            0x07, 0x00, 0x00, 0x00, // id = 7
        ];
        let mut buf = vec![0xee];
        rec.encode_into(&mut buf);
        assert_eq!(buf[0], 0xee, "the frame is appended");
        assert_eq!(buf[1..], want);
        let back = WalRecord::<2>::decode(&want[8..]).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.item.rect.lo_at(0).to_bits(), (-0.0f64).to_bits());
    }
}
