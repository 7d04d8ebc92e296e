//! Leader/follower group commit: the machinery that lets N concurrent
//! writers share one WAL write + one fsync.
//!
//! ## Protocol
//!
//! 1. **Enqueue.** A writer, still holding the index's sequencing lock,
//!    pushes its already-encoded batch ([`PendingBatch`]) onto the
//!    queue. Because every enqueue happens under that lock, queue order
//!    is sequence order. (The writer's logical ops were pushed onto the
//!    core's pending FIFO in the same critical section, so the leader
//!    can apply them without re-decoding anything.)
//! 2. **Lead / follow.** The writer then calls
//!    [`GroupCommit::commit_wait`] — *without* the sequencing lock. The
//!    first waiter to observe "no leader active, queue non-empty"
//!    becomes the leader: it takes the whole queue, and the caller's
//!    `lead` closure lands it with one vectored write (plus one fsync
//!    under `Fsync` durability) and applies the group to the core.
//!    Everyone else sleeps on the condvar until the published horizon
//!    covers their last sequence number.
//! 3. **Sync window** (async durability). Acks happen at the *applied*
//!    horizon; a dedicated syncer thread calls
//!    [`GroupCommit::sync_window`] whenever written bytes run ahead of
//!    synced bytes, and [`GroupCommit::enqueue`] blocks (backpressure)
//!    while the unsynced window would exceed its bound.
//!
//! ## Failure model
//!
//! A failed group write or fsync fails the **whole group**: the leader
//! rolls the WAL back to the pre-group offset and discards the group's
//! never-applied pending ops (see `LiveInner::commit_wait`), then every
//! member — leader and followers alike — gets
//! [`LiveError::GroupFailed`] naming the cause. What happens next
//! depends on the error's class ([`LiveError::is_transient`]):
//!
//! * **Transient** (ENOSPC, EINTR past the device layer's own retries,
//!   timeouts): the write path is *not* poisoned. The queue is marked
//!   degraded; the next group that lands cleanly clears the mark and
//!   bumps `live_wal_unpoisons_total` — ingest resumes without a
//!   reopen once (say) disk space is freed. Failed batches stay
//!   failed: they were rolled back, never acknowledged, and their
//!   sequence numbers are simply skipped.
//! * **Fatal** (EIO, corruption, a failed rollback): the first error
//!   is **sticky** — stored on the queue, every current waiter woken
//!   with it, every later enqueue or wait failing fast. The index
//!   stays readable; only the write path is poisoned (mirroring a real
//!   fail-stop, which is what the crash-recovery tests simulate).
//!
//! Waiters of a failed group are told apart from waiters of later,
//! successful groups by per-group failed ranges: membership is decided
//! by sequence number *before* the ack horizons are consulted, so a
//! later group advancing `applied_seq` past a rolled-back seq can
//! never turn that seq's rollback into a false ack.
//!
//! Lock ordering: the queue mutex is never held across WAL I/O (the
//! leader and the syncer both drop it first), and the WAL mutex is
//! never held while taking the queue mutex *and waiting*. Quiesce
//! callers ([`GroupCommit::wait_applied`]) hold the sequencing lock,
//! which leaders never take — progress is guaranteed because every
//! queued batch has a live waiter that can lead it.

use crate::error::LiveError;
use crate::wal::Wal;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// One enqueued, already-encoded WAL batch awaiting its group.
pub(crate) struct PendingBatch {
    /// Concatenated record frames, ready for the vectored append.
    pub(crate) bytes: Vec<u8>,
    /// Number of records (== logical ops) in the batch.
    pub(crate) n_ops: usize,
    /// Highest sequence number in the batch.
    pub(crate) last_seq: u64,
}

/// The sequence range of a group whose commit failed: its batches were
/// rolled back and will never be acknowledged. Kept (briefly) so the
/// group's followers wake into [`LiveError::GroupFailed`] instead of
/// mistaking a later group's ack horizon for their own — removed once
/// every follower has collected the verdict.
pub(crate) struct FailedRange {
    /// First sequence number of the failed group.
    pub(crate) lo: u64,
    /// Last sequence number of the failed group.
    pub(crate) hi: u64,
    /// Rendered cause, shared by every member's error.
    pub(crate) reason: String,
    /// Whether the failure was transient (see the module docs).
    pub(crate) transient: bool,
    /// Followers still to be woken with the verdict; the range is
    /// dropped when this reaches zero.
    pub(crate) remaining: usize,
}

/// Mutable queue state, behind [`GroupCommit::q`].
pub(crate) struct CommitQueue {
    /// Encoded batches awaiting a leader, in sequence order.
    pub(crate) pending: Vec<PendingBatch>,
    /// Total frame bytes queued in `pending`.
    pub(crate) pending_bytes: u64,
    /// A leader is writing/applying a group right now.
    pub(crate) leader_active: bool,
    /// Highest seq written to the WAL file *and* applied to the core —
    /// the ack horizon under `Durability::Async`.
    pub(crate) applied_seq: u64,
    /// Highest seq covered by an fsync — the ack horizon under
    /// `Durability::Fsync`, and what crash recovery is guaranteed to
    /// reach under `Async`.
    pub(crate) synced_seq: u64,
    /// Monotone count of frame bytes handed to the WAL file.
    pub(crate) written_bytes: u64,
    /// Monotone count of frame bytes covered by an fsync.
    pub(crate) synced_bytes: u64,
    /// Highest seq whose outcome is decided — success (acknowledged and
    /// applied) *or* failure (rolled back). Runs at or ahead of
    /// `applied_seq`; quiesce waits ([`GroupCommit::wait_applied`]) use
    /// this horizon so a rolled-back group cannot hang them.
    pub(crate) resolved_seq: u64,
    /// Failed groups whose followers have not all been woken yet.
    pub(crate) failed: Vec<FailedRange>,
    /// A transient group failure happened and no group has landed
    /// cleanly since; cleared (with `live_wal_unpoisons_total` bumped)
    /// by the next successful group.
    pub(crate) degraded: bool,
    /// Tells the async syncer thread to drain and exit.
    pub(crate) shutdown: bool,
    /// Sticky first **fatal** I/O error; poisons the write path.
    /// Transient failures never set this (see the module docs).
    pub(crate) io_error: Option<String>,
}

impl CommitQueue {
    fn check_poisoned(&self) -> Result<(), LiveError> {
        match &self.io_error {
            Some(e) => Err(LiveError::Corrupt(format!("write-ahead log failed: {e}"))),
            None => Ok(()),
        }
    }

    /// If `seq` belongs to a failed (rolled-back) group, consumes one
    /// follower slot from its range and returns the group's verdict.
    fn take_failed(&mut self, seq: u64) -> Option<LiveError> {
        let idx = self
            .failed
            .iter()
            .position(|r| r.lo <= seq && seq <= r.hi)?;
        let err = LiveError::GroupFailed {
            reason: self.failed[idx].reason.clone(),
            transient: self.failed[idx].transient,
        };
        self.failed[idx].remaining -= 1;
        if self.failed[idx].remaining == 0 {
            self.failed.swap_remove(idx);
        }
        Some(err)
    }
}

/// Cap on pooled spare encode buffers: generous for any realistic
/// writer count, small enough that one ingest burst can't pin
/// unbounded memory in the pool forever.
const SPARE_BUFS_CAP: usize = 64;

/// The commit pipeline: queue + condvar + the WAL itself + counters.
pub(crate) struct GroupCommit {
    pub(crate) q: Mutex<CommitQueue>,
    pub(crate) cv: Condvar,
    /// The log. Leaders append under this mutex, the syncer fsyncs under
    /// it, merges rotate/prune under it — never while holding `q`.
    pub(crate) wal: Mutex<Wal>,
    /// Commit-path fsyncs issued (group syncs + syncer passes; segment
    /// creation/rotation syncs are not counted).
    pub(crate) fsyncs: AtomicU64,
    /// Groups written.
    pub(crate) groups: AtomicU64,
    /// Records written through groups.
    pub(crate) records: AtomicU64,
    /// The encode arena: spare frame buffers recycled across batches.
    /// Writers take one under the sequencing lock ([`GroupCommit::
    /// take_buf`]); the leader returns the whole group's buffers after
    /// landing (or rolling back) it. Lock order: only ever taken with
    /// `q` already held or with no pipeline lock at all — never the
    /// reverse.
    spare: Mutex<Vec<Vec<u8>>>,
    /// Fresh buffer allocations — pool-empty takes. Pinned by the
    /// group-commit test: once the pool warms, batches stop allocating.
    pub(crate) arena_allocs: AtomicU64,
}

impl GroupCommit {
    /// Wraps `wal`, with every horizon starting at `start_seq` (the
    /// recovered durable sequence).
    pub(crate) fn new(wal: Wal, start_seq: u64) -> GroupCommit {
        GroupCommit {
            q: Mutex::new(CommitQueue {
                pending: Vec::new(),
                pending_bytes: 0,
                leader_active: false,
                applied_seq: start_seq,
                synced_seq: start_seq,
                written_bytes: 0,
                synced_bytes: 0,
                resolved_seq: start_seq,
                failed: Vec::new(),
                degraded: false,
                shutdown: false,
                io_error: None,
            }),
            cv: Condvar::new(),
            wal: Mutex::new(wal),
            fsyncs: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            records: AtomicU64::new(0),
            spare: Mutex::new(Vec::new()),
            arena_allocs: AtomicU64::new(0),
        }
    }

    /// Hands out a cleared encode buffer from the arena pool — the
    /// per-batch frame `Vec` without the per-batch allocation. The
    /// buffer rides the queue inside its [`PendingBatch`] and returns
    /// to the pool once its group's leader is done with it.
    pub(crate) fn take_buf(&self) -> Vec<u8> {
        if let Some(buf) = self.spare.lock().expect("spare buffers").pop() {
            return buf;
        }
        self.arena_allocs.fetch_add(1, Ordering::Relaxed);
        Vec::new()
    }

    /// Returns a landed (or rolled-back — either way never again read)
    /// group's encode buffers to the arena pool.
    fn recycle(&self, group: Vec<PendingBatch>) {
        let mut pool = self.spare.lock().expect("spare buffers");
        for b in group {
            if pool.len() >= SPARE_BUFS_CAP {
                break;
            }
            let mut bytes = b.bytes;
            bytes.clear();
            pool.push(bytes);
        }
    }

    /// Enqueues an encoded batch. The caller holds the sequencing lock,
    /// so queue order == seq order. With `max_inflight` set (async
    /// durability) this is also the backpressure point: blocks while
    /// the unsynced window plus the queue would overflow the bound —
    /// unless the window is empty, so a single oversized batch is
    /// always admitted rather than deadlocking.
    pub(crate) fn enqueue(
        &self,
        batch: PendingBatch,
        max_inflight: Option<u64>,
    ) -> Result<(), LiveError> {
        let mut q = self.q.lock().expect("commit queue");
        if let Some(maxb) = max_inflight {
            loop {
                if q.io_error.is_some() {
                    break;
                }
                let outstanding = (q.written_bytes - q.synced_bytes) + q.pending_bytes;
                if outstanding == 0 || outstanding + batch.bytes.len() as u64 <= maxb {
                    break;
                }
                q = self.cv.wait(q).expect("commit queue");
            }
        }
        q.check_poisoned()?;
        q.pending_bytes += batch.bytes.len() as u64;
        q.pending.push(batch);
        self.cv.notify_all();
        Ok(())
    }

    /// Waits until `seq` is acknowledged — synced when `fsync_mode`,
    /// applied otherwise — leading whenever the queue has work and no
    /// leader is active. `lead` runs with no queue lock held; it must
    /// write the group to the WAL (fsyncing it iff `fsync_mode`) and
    /// apply its ops to the core, in order.
    pub(crate) fn commit_wait<F>(
        &self,
        seq: u64,
        fsync_mode: bool,
        mut lead: F,
    ) -> Result<(), LiveError>
    where
        F: FnMut(&[PendingBatch]) -> Result<(), LiveError>,
    {
        let mut q = self.q.lock().expect("commit queue");
        loop {
            // Failed-group membership FIRST: once a later group lands,
            // applied_seq covers the rolled-back seqs numerically, and
            // checking the ack horizon first would turn this waiter's
            // rollback into a false ack (a lost write reported ok).
            if let Some(err) = q.take_failed(seq) {
                return Err(err);
            }
            let acked = if fsync_mode {
                q.synced_seq >= seq
            } else {
                q.applied_seq >= seq
            };
            if acked {
                return Ok(());
            }
            q.check_poisoned()?;
            if !q.leader_active && !q.pending.is_empty() {
                q.leader_active = true;
                let group = std::mem::take(&mut q.pending);
                q.pending_bytes = 0;
                let bytes: u64 = group.iter().map(|b| b.bytes.len() as u64).sum();
                let n_ops: u64 = group.iter().map(|b| b.n_ops as u64).sum();
                let last_seq = group.last().expect("group nonempty").last_seq;
                drop(q);
                let res = lead(&group);
                q = self.q.lock().expect("commit queue");
                q.leader_active = false;
                match res {
                    Ok(()) => {
                        let n_batches = group.len();
                        q.applied_seq = last_seq;
                        q.resolved_seq = q.resolved_seq.max(last_seq);
                        if q.degraded {
                            // The write path healed: a group landed
                            // cleanly after a transient failure.
                            q.degraded = false;
                            crate::obs::metrics().wal_unpoisons.inc();
                            pr_obs::events().emit(
                                "wal_unpoison",
                                format!(
                                    "group landed after transient failure, last_seq={last_seq}"
                                ),
                            );
                        }
                        q.written_bytes += bytes;
                        if fsync_mode {
                            q.synced_seq = last_seq;
                            q.synced_bytes = q.written_bytes;
                        }
                        let inflight = q.written_bytes - q.synced_bytes;
                        self.groups.fetch_add(1, Ordering::Relaxed);
                        self.records.fetch_add(n_ops, Ordering::Relaxed);
                        let m = crate::obs::metrics();
                        m.wal_groups.inc();
                        m.wal_records.add(n_ops);
                        m.wal_bytes.add(bytes);
                        m.inflight_wal_bytes.set(inflight);
                        pr_obs::events().emit(
                            "group_flush",
                            format!(
                                "last_seq={last_seq} batches={n_batches} ops={n_ops} \
                                 bytes={bytes} fsync={fsync_mode}"
                            ),
                        );
                        self.cv.notify_all();
                        self.recycle(group);
                    }
                    Err(e) => {
                        // The lead closure rolled the group back (WAL
                        // truncated, pending ops discarded): resolve its
                        // whole seq range as failed so quiesce waiters
                        // don't hang on seqs that will never apply, and
                        // leave the verdict for the followers.
                        let transient = e.is_transient();
                        let reason = e.to_string();
                        let lo = q.resolved_seq + 1;
                        q.resolved_seq = q.resolved_seq.max(last_seq);
                        if group.len() > 1 {
                            q.failed.push(FailedRange {
                                lo,
                                hi: last_seq,
                                reason: reason.clone(),
                                transient,
                                remaining: group.len() - 1,
                            });
                        }
                        if transient {
                            q.degraded = true;
                        } else if q.io_error.is_none() {
                            q.io_error = Some(reason.clone());
                        }
                        crate::obs::metrics().wal_io_errors.inc();
                        pr_obs::events().emit(
                            "wal_group_fail",
                            format!(
                                "seqs={lo}..={last_seq} transient={transient} \
                                 reason={reason}"
                            ),
                        );
                        self.cv.notify_all();
                        self.recycle(group);
                        return Err(LiveError::GroupFailed { reason, transient });
                    }
                }
                continue;
            }
            q = self.cv.wait(q).expect("commit queue");
        }
    }

    /// Blocks until every assigned sequence number at or below `seq` is
    /// **resolved**: written and applied, or rolled back by a failed
    /// group (whose seqs will never apply — waiting on the applied
    /// horizon would hang forever on them). Quiesce primitive for
    /// merges — the caller holds the sequencing lock, so no new
    /// sequences can appear, and each in-flight group is driven to
    /// completion by its own waiters (which never take that lock).
    pub(crate) fn wait_applied(&self, seq: u64) -> Result<(), LiveError> {
        let mut q = self.q.lock().expect("commit queue");
        while q.resolved_seq < seq {
            q.check_poisoned()?;
            q = self.cv.wait(q).expect("commit queue");
        }
        Ok(())
    }

    /// Fsyncs the WAL and publishes the new synced horizon: everything
    /// applied/written *before* this call is durable after it. The async
    /// syncer's whole job; also the merge cut's drain — which under
    /// `Durability::Fsync` finds every byte already covered by its
    /// group's fsync, issues none, and is not counted as one.
    pub(crate) fn sync_window(&self) -> Result<(), LiveError> {
        // Snapshot the horizon BEFORE syncing — bytes written after this
        // point may or may not be covered, so don't claim them.
        let (seq, bytes) = {
            let q = self.q.lock().expect("commit queue");
            q.check_poisoned()?;
            (q.applied_seq, q.written_bytes)
        };
        let res = {
            let mut wal = self.wal.lock().expect("wal mutex");
            wal.sync()
        };
        let mut q = self.q.lock().expect("commit queue");
        match res {
            Ok(fsynced) => {
                q.synced_seq = q.synced_seq.max(seq);
                q.synced_bytes = q.synced_bytes.max(bytes);
                let m = crate::obs::metrics();
                if fsynced {
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                    m.wal_fsyncs.inc();
                }
                m.inflight_wal_bytes.set(q.written_bytes - q.synced_bytes);
                self.cv.notify_all();
                Ok(())
            }
            Err(e) => {
                // The fsync moved no horizon, so a transient failure
                // (ENOSPC journal commit, EINTR storm) needs no
                // rollback and no poison: the window simply stays
                // unsynced and the next pass retries. Fatal errors
                // poison as usual.
                if !e.is_transient() && q.io_error.is_none() {
                    q.io_error = Some(e.to_string());
                }
                crate::obs::metrics().wal_io_errors.inc();
                pr_obs::events().emit(
                    "wal_sync_fail",
                    format!("transient={} reason={e}", e.is_transient()),
                );
                self.cv.notify_all();
                Err(e)
            }
        }
    }

    /// Signals the syncer thread (if any) to drain and exit.
    pub(crate) fn begin_shutdown(&self) {
        let mut q = self.q.lock().expect("commit queue");
        q.shutdown = true;
        self.cv.notify_all();
    }

    /// Syncer-thread body: sleep until written bytes run ahead of synced
    /// bytes, fsync, publish, repeat. On shutdown it drains the window
    /// once more (a clean close shouldn't strand acknowledged writes
    /// behind a missing fsync) and exits. Transient fsync failures are
    /// retried with exponential backoff (the window just stays open a
    /// little longer — that is the `Async` contract); fatal ones poison
    /// the write path and end the thread. A shutdown with a persisting
    /// transient error gives up after a bounded number of retries so a
    /// full disk can't hang `Drop` forever.
    pub(crate) fn syncer_loop(&self) {
        let mut backoff = Duration::from_millis(1);
        let mut consecutive_failures = 0u32;
        loop {
            {
                let mut q = self.q.lock().expect("commit queue");
                loop {
                    if q.io_error.is_some() {
                        return;
                    }
                    let dirty = q.written_bytes > q.synced_bytes;
                    if q.shutdown && (!dirty || consecutive_failures >= 8) {
                        return;
                    }
                    if dirty {
                        break;
                    }
                    q = self.cv.wait(q).expect("commit queue");
                }
            }
            match self.sync_window() {
                Ok(()) => {
                    backoff = Duration::from_millis(1);
                    consecutive_failures = 0;
                }
                Err(e) if e.is_transient() => {
                    consecutive_failures += 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(100));
                }
                Err(_) => return, // fatal: sync_window poisoned the queue
            }
        }
    }
}
