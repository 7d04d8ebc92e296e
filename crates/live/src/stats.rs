//! [`LiveStats`]: a live index's operational counters.

use crate::error::LiveError;
use crate::index::{LiveIndex, LiveInner};
use std::sync::atomic::Ordering;

impl<const D: usize> LiveInner<D> {
    /// Write amplification, fixed-point ×100: store bytes written by
    /// merge commits per byte sealed out of the memtable; `None` before
    /// the first seal. The `live_write_amp` gauge and [`LiveStats`] both
    /// read it here.
    pub(crate) fn write_amp_x100(&self) -> Option<u64> {
        let pages = self.merge_pages_written.load(Ordering::Relaxed);
        (pages * self.params.page_size as u64 * 100)
            .checked_div(self.ingest_bytes.load(Ordering::Relaxed))
    }
}

impl<const D: usize> LiveIndex<D> {
    /// Operational counters for `prtree stats` and tests.
    pub fn stats(&self) -> Result<LiveStats, LiveError> {
        let (
            live,
            memtable,
            sealed,
            components,
            filter_bytes,
            tombstones,
            durable_seq,
            merged_seq,
            merges,
        ) = {
            let core = self.inner.core.read();
            (
                core.live,
                core.memtable.len(),
                core.sealed.as_ref().map_or(0, |s| s.len()),
                core.components.layout(),
                core.components
                    .iter()
                    .map(|(t, _)| t.filter_bytes() as u64)
                    .sum(),
                core.tombstones.total(),
                core.durable_seq,
                core.merged_seq,
                core.merges,
            )
        };
        let (wal_segments, wal_bytes) = {
            let wal = self.inner.group.wal.lock().expect("wal mutex");
            (wal.num_segments()?, wal.total_bytes()?)
        };
        let synced_seq = {
            let q = self.inner.group.q.lock().expect("commit queue");
            q.synced_seq
        };
        let wal_fsyncs = self.inner.group.fsyncs.load(Ordering::Relaxed);
        let wal_groups = self.inner.group.groups.load(Ordering::Relaxed);
        let wal_group_records = self.inner.group.records.load(Ordering::Relaxed);
        let (store_epoch, store_file_bytes, store_degraded, store_garbage_bytes, store_runs) = {
            let store = self.inner.store.lock();
            (
                store.superblock().epoch,
                store.file_len()?,
                store.degraded(),
                store.garbage_bytes()?,
                store
                    .component_runs()
                    .iter()
                    .map(|r| StoreRunStat {
                        id: r.id,
                        data_offset: r.data_offset,
                        num_pages: r.num_pages,
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let store_pages_written = self.inner.merge_pages_written.load(Ordering::Relaxed);
        let store_pages_reused = self.inner.merge_pages_reused.load(Ordering::Relaxed);
        let write_amp_x100 = self.inner.write_amp_x100().unwrap_or(0);
        let merges_paused = {
            let sig = self.inner.signal.lock().expect("signal mutex");
            sig.merges_paused
        };
        let wal_degraded = {
            let q = self.inner.group.q.lock().expect("commit queue");
            q.degraded
        };
        Ok(LiveStats {
            live,
            memtable,
            sealed,
            components,
            filter_bytes,
            tombstones,
            durable_seq,
            synced_seq,
            merged_seq,
            merges,
            wal_segments,
            wal_bytes,
            wal_fsyncs,
            wal_groups,
            wal_group_records,
            store_epoch,
            store_file_bytes,
            store_degraded,
            merges_paused,
            wal_degraded,
            store_pages_written,
            store_pages_reused,
            write_amp_x100,
            store_garbage_bytes,
            store_runs,
        })
    }
}

/// Operational counters of a live index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveStats {
    /// Live item count.
    pub live: u64,
    /// Items in the active memtable.
    pub memtable: usize,
    /// Items in the sealed batch (0 when no merge pending).
    pub sealed: usize,
    /// `(slot, items)` per committed component.
    pub components: Vec<(usize, u64)>,
    /// Heap bytes held by the components' membership filters. A filter
    /// is built by a component's first delete probe, at 16 bits per
    /// stored item, so this stays 0 under insert-only use.
    pub filter_bytes: u64,
    /// Outstanding tombstones.
    pub tombstones: u64,
    /// Highest acknowledged WAL sequence.
    pub durable_seq: u64,
    /// Highest WAL sequence covered by an fsync. Equals `durable_seq`
    /// under [`Durability::Fsync`]; can trail it by the in-flight
    /// window under [`Durability::Async`].
    ///
    /// [`Durability::Fsync`]: crate::Durability::Fsync
    /// [`Durability::Async`]: crate::Durability::Async
    pub synced_seq: u64,
    /// The committed manifest's WAL cut.
    pub merged_seq: u64,
    /// Merge commits completed this process.
    pub merges: u64,
    /// WAL segment files on disk.
    pub wal_segments: u64,
    /// Total WAL bytes on disk.
    pub wal_bytes: u64,
    /// Commit-path fsyncs issued since open. With concurrent writers
    /// this stays **below** the number of committed batches — the whole
    /// point of group commit.
    pub wal_fsyncs: u64,
    /// Commit groups written since open.
    pub wal_groups: u64,
    /// Records written through commit groups since open.
    pub wal_group_records: u64,
    /// Store commit epoch.
    pub store_epoch: u64,
    /// Store file size in bytes.
    pub store_file_bytes: u64,
    /// True while the store serves reads in forced-recheck degraded
    /// mode after detected page corruption (cleared by a clean scrub).
    pub store_degraded: bool,
    /// True while background merges back off after a transient failure
    /// (writers still ingest under memtable backpressure).
    pub merges_paused: bool,
    /// True while the write path is degraded by a transient group
    /// failure with no clean group landed since (see
    /// [`LiveError::GroupFailed`]).
    pub wal_degraded: bool,
    /// Store pages appended by this process's merge commits.
    pub store_pages_written: u64,
    /// Store pages committed by in-place reference (their bytes were
    /// **not** rewritten) by this process's merge commits.
    pub store_pages_reused: u64,
    /// Write amplification, fixed-point ×100: store bytes written by
    /// merge commits per byte sealed out of the memtable (0 before the
    /// first seal). Steady-state ingest under the geometric policy
    /// keeps this O(levels), not O(index size).
    pub write_amp_x100: u64,
    /// Store file bytes no active run references — reclaimable by
    /// [`LiveIndex::compact`] / [`LiveIndex::compact_if_garbage`].
    pub store_garbage_bytes: u64,
    /// Active component runs in store (commit) order. Byte-identical
    /// page reuse across merges is observable here as unchanged
    /// `(id, data_offset)` pairs.
    pub store_runs: Vec<StoreRunStat>,
}

/// One active component run, as reported by [`LiveStats::store_runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRunStat {
    /// Stable component id — survives every commit that reuses the run.
    pub id: u64,
    /// Absolute byte offset of the run's first page in the store file.
    pub data_offset: u64,
    /// Pages in the run.
    pub num_pages: u64,
}
