//! [`LiveIndex`]: the durable, reader-concurrent face of the LPR-tree.
//!
//! ## Moving parts
//!
//! * **WAL** ([`crate::wal`]) — every insert/delete is appended and
//!   `fsync`ed before it is acknowledged or becomes visible.
//! * **Memtable** (`Core::memtable`, a
//!   [`LooseItems`](pr_tree::dynamic::LooseItems)) — acknowledged writes
//!   accumulate here, in MBR-keyed chunks that queries treat as
//!   in-memory leaves beside the components' pages.
//! * **Components** — bulk-loaded PR-trees in the geometric slots of a
//!   [`ComponentSet`], each beside its stable store id, persisted in one
//!   `pr-store` file and opened through checksum-verifying,
//!   snapshot-pinned devices.
//! * **Merges** (`crate::merge`) — a memtable overflow seals it into
//!   an immutable batch and merges batch + lower components into a new
//!   bulk-loaded component, committed atomically (pages + manifest +
//!   superblock flip); the manifest's `wal_seq` is what replay skips
//!   up to, and old WAL segments are pruned after a cut that rotated.
//!   The plan, drain and install are the set's, shared with the
//!   in-memory `LprTree`; the locks, the commit and the WAL are this
//!   crate's.
//!
//! [`ComponentSet`]: pr_tree::dynamic::ComponentSet
//!
//! ## Locking discipline
//!
//! * `writer` (mutex) — the **sequencing** lock: delete-liveness
//!   decisions, sequence assignment, record encoding, and the commit
//!   enqueue happen under it. **No I/O** — since the PR 6 group-commit
//!   rework, the fsync is paid off this lock, by a group leader, once
//!   per group (see `crate::commit`).
//! * `core` (rwlock) — the queryable state. Write-locked only for
//!   O(batch) memory ops — never across I/O. Writers push their logical
//!   ops onto `core.pending` under `writer`; the group leader pops and
//!   applies them (in sequence order) after the group's WAL write is
//!   acknowledged, so queries only ever see acknowledged state. Readers
//!   take the read lock just long enough to clone a [`LiveSnapshot`]
//!   (`Arc` bumps only), then query entirely off-lock
//!   through the PR 3 decode-free engine.
//! * `commit queue` (std mutex + condvar, `crate::commit`) — the
//!   leader/follower handoff and the WAL itself. Never held while
//!   acquiring `writer`; merges quiesce it (drain + sync) before
//!   sealing or rotating.
//! * `maintenance` (mutex) — serializes whole merges end-to-end.
//!
//! Consequence: readers never wait on a merge (its long phases hold no
//! core lock; its swap is a pointer exchange), N concurrent writers
//! share one fsync per group instead of paying one each, and a snapshot
//! taken at any moment is a clean group-boundary cut that stays frozen
//! — pinned store devices keep serving replaced components, even after
//! the store file itself is compact-rewritten.
//!
//! ## Where each part lives
//!
//! * `options` — [`LiveOptions`] and [`Durability`](crate::Durability).
//! * `core` — the queryable state (`Core`), the pending ops and the
//!   one delete decision.
//! * `recovery` — create, open, the directory lock, WAL replay.
//! * `write` — inserts, deletes and the group-commit wait.
//! * `maintenance` — the merge worker, flush, compaction, backpressure.
//! * `snapshot` — [`LiveSnapshot`] and the one-shot queries.
//! * `stats` — [`LiveStats`](crate::LiveStats).

use crate::commit::GroupCommit;
use crate::core::Core;
use crate::maintenance::Signal;
use crate::options::LiveOptions;
use crate::snapshot::LiveSnapshot;
use parking_lot::{Mutex, RwLock};
use pr_store::Store;
use pr_tree::TreeParams;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;

pub(crate) struct WriterState {
    /// Next sequence number to assign.
    pub(crate) next_seq: u64,
}

pub(crate) struct LiveInner<const D: usize> {
    pub(crate) dir: PathBuf,
    pub(crate) params: TreeParams,
    pub(crate) opts: LiveOptions,
    pub(crate) writer: Mutex<WriterState>,
    /// The group-commit pipeline (queue + condvar + the WAL itself).
    pub(crate) group: GroupCommit,
    pub(crate) core: RwLock<Core<D>>,
    pub(crate) store: Mutex<Store>,
    pub(crate) maintenance: Mutex<()>,
    pub(crate) signal: StdMutex<Signal>,
    pub(crate) cv: Condvar,
    /// Cumulative store pages appended by this process's merge commits
    /// — the write-amplification numerator (× `params.page_size`).
    pub(crate) merge_pages_written: AtomicU64,
    /// Cumulative store pages committed by in-place reference instead
    /// of rewritten.
    pub(crate) merge_pages_reused: AtomicU64,
    /// Cumulative bytes of items sealed out of the memtable — the
    /// write-amplification denominator.
    pub(crate) ingest_bytes: AtomicU64,
    /// Held exclusive lock on `dir/LOCK` for this index's lifetime
    /// (released by the OS when the file closes, crash included).
    pub(crate) _lock: std::fs::File,
}

/// A durable, concurrently-readable LPR-tree.
///
/// Cloneable-by-`Arc` usage: wrap in `Arc` and share; all methods take
/// `&self`. See the module docs for the architecture and
/// [`LiveIndex::snapshot`] for the read path.
pub struct LiveIndex<const D: usize> {
    pub(crate) inner: Arc<LiveInner<D>>,
    pub(crate) worker: Option<JoinHandle<()>>,
    /// Async-durability syncer thread (None under `Durability::Fsync`).
    pub(crate) syncer: Option<JoinHandle<()>>,
}

// Compile-time proof that one index (and its snapshots) can be shared
// across writer and reader threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LiveIndex<2>>();
    assert_send_sync::<LiveSnapshot<2>>();
};

impl<const D: usize> LiveIndex<D> {
    /// Index directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Tree parameters the components are built with.
    pub fn params(&self) -> &TreeParams {
        &self.inner.params
    }

    /// Live item count.
    pub fn len(&self) -> u64 {
        self.inner.core.read().live
    }

    /// True when no live items exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<const D: usize> Drop for LiveIndex<D> {
    fn drop(&mut self) {
        if let Some(handle) = self.worker.take() {
            {
                let mut sig = self.inner.signal.lock().expect("signal mutex");
                sig.shutdown = true;
            }
            self.inner.cv.notify_all();
            let _ = handle.join();
        }
        if let Some(handle) = self.syncer.take() {
            // The syncer drains the async window once more on its way
            // out — a clean close shouldn't strand acknowledged writes
            // behind a missing fsync. (A crash still can; that is the
            // `Async` contract.)
            self.inner.group.begin_shutdown();
            let _ = handle.join();
        }
        // An unmerged memtable/sealed batch needs no goodbye: the WAL
        // has every acknowledged record and reopen replays it.
    }
}
