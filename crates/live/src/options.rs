//! The tuning knobs of a [`LiveIndex`](crate::LiveIndex): [`LiveOptions`]
//! and the [`Durability`] mode it carries.

use pr_store::ReadPath;

/// When a write is acknowledged relative to its fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Acknowledge only after the write's group fsync: a returned
    /// insert/delete survives any crash. The classic semantics, now
    /// group-committed — N concurrent writers share one fsync.
    Fsync,
    /// Acknowledge after the buffered group append; a dedicated syncer
    /// thread fsyncs behind the writers. Crash recovery is guaranteed
    /// to reach the last *synced* prefix of the acknowledged sequence
    /// (and never more than was acknowledged). Writers stall once the
    /// unsynced window exceeds `max_inflight_bytes`, bounding the
    /// at-risk tail; [`LiveIndex::flush`] and [`LiveIndex::sync_wal`]
    /// drain the window.
    ///
    /// [`LiveIndex::flush`]: crate::LiveIndex::flush
    /// [`LiveIndex::sync_wal`]: crate::LiveIndex::sync_wal
    Async {
        /// Backpressure bound on WAL bytes written but not yet fsynced.
        max_inflight_bytes: usize,
    },
}

/// Tuning knobs for a [`LiveIndex`].
///
/// [`LiveIndex`]: crate::LiveIndex
#[derive(Debug, Clone, Copy)]
pub struct LiveOptions {
    /// Memtable seal threshold (the logarithmic method's buffer size).
    pub buffer_cap: usize,
    /// Run merges on a dedicated background thread (`true`) or inline on
    /// the overflowing writer (`false`). Readers never block either way;
    /// background mode also keeps *writers* responsive during merges.
    pub background_merge: bool,
    /// When writes are acknowledged relative to their fsync (see
    /// [`Durability`]). Default: [`Durability::Fsync`].
    pub durability: Durability,
    /// Paranoid read mode: open every store-backed component through
    /// [`pr_store::ReadPath::Recheck`], hashing each page on every read
    /// instead of the default verify-once zero-copy path. Catches
    /// in-memory corruption of cached pages at a per-read CRC cost.
    pub recheck_reads: bool,
}

impl LiveOptions {
    /// How store-backed components are opened: the paranoid
    /// re-hash-every-read path when `recheck_reads` is set.
    pub(crate) fn read_path(&self) -> ReadPath {
        if self.recheck_reads {
            ReadPath::Recheck
        } else {
            ReadPath::ZeroCopy
        }
    }
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            buffer_cap: 1024,
            background_merge: true,
            durability: Durability::Fsync,
            recheck_reads: false,
        }
    }
}
