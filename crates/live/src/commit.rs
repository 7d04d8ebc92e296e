//! Leader/follower group commit: the machinery that lets N concurrent
//! writers share one WAL write + one fsync.
//!
//! ## Protocol
//!
//! 1. **Enqueue.** A writer, still holding the index's sequencing lock,
//!    encodes its batch's record frames straight onto the end of the
//!    queued [`Group`], one buffer shared by every batch that group
//!    will carry. Because every enqueue happens under that lock, the
//!    buffer is in sequence order. (The writer's logical ops were
//!    pushed onto the core's pending FIFO in the same critical section,
//!    so the leader can apply them without re-decoding anything.)
//! 2. **Lead / follow.** The writer then calls
//!    [`GroupCommit::commit_wait`] — *without* the sequencing lock. The
//!    first waiter to observe "no leader active, queue non-empty"
//!    becomes the leader: it takes the whole group, and the caller's
//!    `lead` closure lands its buffer with one positioned write (plus
//!    one fsync under `Fsync` durability) and applies it to the core.
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
use crate::wal::{Wal, WalRecord, RECORD_HEADER_SIZE};
use pr_obs::trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// The batches enqueued since the last leader took the queue: their
/// record frames back to back in sequence order, as one append lands
/// them.
#[derive(Default)]
pub(crate) struct Group {
    /// Concatenated record frames of every batch in the group.
    pub(crate) bytes: Vec<u8>,
    /// Batches (enqueue calls) in the group.
    pub(crate) batches: usize,
    /// Records (== logical ops) in the group.
    pub(crate) n_ops: usize,
    /// Highest sequence number in the group.
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
    /// The group awaiting a leader; empty when `batches == 0`.
    pub(crate) group: Group,
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
}

impl GroupCommit {
    /// Wraps `wal`, with every horizon starting at `start_seq` (the
    /// recovered durable sequence).
    pub(crate) fn new(wal: Wal, start_seq: u64) -> GroupCommit {
        GroupCommit {
            q: Mutex::new(CommitQueue {
                group: Group::default(),
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
        }
    }

    /// Encodes a batch's records (at least one, in sequence order) onto
    /// the end of the queued group. The caller holds the sequencing
    /// lock, so group order == seq order. With `max_inflight` set (async
    /// durability) this is also the backpressure point: blocks while
    /// the unsynced window plus the queue would overflow the bound —
    /// unless the window is empty, so a single oversized batch is
    /// always admitted rather than deadlocking.
    pub(crate) fn enqueue<const D: usize>(
        &self,
        records: impl ExactSizeIterator<Item = WalRecord<D>>,
        max_inflight: Option<u64>,
    ) -> Result<(), LiveError> {
        let n_ops = records.len();
        let batch_bytes = n_ops * (RECORD_HEADER_SIZE + WalRecord::<D>::PAYLOAD_SIZE);
        let t_enq = trace::span_start();
        let mut q = self.q.lock().expect("commit queue");
        if let Some(maxb) = max_inflight {
            loop {
                if q.io_error.is_some() {
                    break;
                }
                let outstanding = (q.written_bytes - q.synced_bytes) + q.group.bytes.len() as u64;
                if outstanding == 0 || outstanding + batch_bytes as u64 <= maxb {
                    break;
                }
                q = self.cv.wait(q).expect("commit queue");
            }
        }
        q.check_poisoned()?;
        trace::span_since("live", "enqueue", t_enq, format_args!(""));
        let t_enc = trace::span_start();
        let group = &mut q.group;
        // One allocation at most, also when the leader holds the last
        // group's buffer and this batch starts a fresh one.
        group.bytes.reserve(batch_bytes);
        for rec in records {
            rec.encode_into(&mut group.bytes);
            group.last_seq = rec.seq;
        }
        group.batches += 1;
        group.n_ops += n_ops;
        trace::span_since(
            "live",
            "encode",
            t_enc,
            format_args!("ops={n_ops} bytes={batch_bytes}"),
        );
        self.cv.notify_all();
        Ok(())
    }

    /// Waits until `seq` is acknowledged — synced when `fsync_mode`,
    /// applied otherwise — leading whenever the queue has work and no
    /// leader is active. `lead` runs with no queue lock held; it must
    /// append the group's bytes to the WAL (fsyncing them iff
    /// `fsync_mode`) and apply its ops to the core, in order.
    pub(crate) fn commit_wait<F>(
        &self,
        seq: u64,
        fsync_mode: bool,
        mut lead: F,
    ) -> Result<(), LiveError>
    where
        F: FnMut(&Group) -> Result<(), LiveError>,
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
            if !q.leader_active && q.group.batches > 0 {
                q.leader_active = true;
                let mut group = std::mem::take(&mut q.group);
                drop(q);
                let res = lead(&group);
                q = self.q.lock().expect("commit queue");
                q.leader_active = false;
                let (bytes, n_batches) = (group.bytes.len() as u64, group.batches);
                let (n_ops, last_seq) = (group.n_ops as u64, group.last_seq);
                if q.group.bytes.is_empty() {
                    // No writer has started the next group: hand the
                    // allocation back, so a lone writer's steady state
                    // allocates nothing per batch.
                    group.bytes.clear();
                    q.group.bytes = group.bytes;
                }
                match res {
                    Ok(()) => {
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
                        if n_batches > 1 {
                            q.failed.push(FailedRange {
                                lo,
                                hi: last_seq,
                                reason: reason.clone(),
                                transient,
                                remaining: n_batches - 1,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalOp;
    use pr_em::fault::{self, FaultSchedule};
    use pr_geom::{Item, Rect};

    /// Three batches enqueued from one thread and led by one
    /// `commit_wait` land as one group: the segment grows by exactly
    /// their frames, which decode back in seq order, and the group costs
    /// one write op (the lead's only other I/O is the fsync mode's one
    /// fsync). The leader hands the buffer back for the next group.
    #[test]
    fn one_group_is_one_write() {
        let _hook = fault::exclusive();
        let frame = (RECORD_HEADER_SIZE + WalRecord::<2>::PAYLOAD_SIZE) as u64;
        let recs: Vec<WalRecord<2>> = (1..=6u32)
            .map(|i| WalRecord {
                seq: u64::from(i),
                op: WalOp::Insert,
                item: Item::new(Rect::xyxy(f64::from(i), 0.0, f64::from(i) + 1.0, 1.0), i),
            })
            .collect();
        for fsync_mode in [false, true] {
            let dir = std::env::temp_dir()
                .join(format!("pr-live-index-{}", std::process::id()))
                .join(format!("one-group-fsync-{fsync_mode}"));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            let gc = GroupCommit::new(Wal::create(&dir).unwrap(), 0);
            for batch in [&recs[0..2], &recs[2..5], &recs[5..6]] {
                gc.enqueue(batch.iter().copied(), None).unwrap();
            }

            let guard = fault::install(FaultSchedule::count_only(1));
            let mut leads = 0;
            gc.commit_wait(6, fsync_mode, |group| {
                leads += 1;
                assert_eq!((group.batches, group.n_ops, group.last_seq), (3, 6, 6));
                let mut wal = gc.wal.lock().expect("wal mutex");
                wal.append(&group.bytes)?;
                if fsync_mode {
                    wal.sync()?;
                }
                Ok(())
            })
            .unwrap();
            let ops = fault::op_count();
            drop(guard);
            assert_eq!(leads, 1, "one commit_wait leads the three batches");
            assert_eq!(ops, 1 + u64::from(fsync_mode), "fsync={fsync_mode}");

            let q = gc.q.lock().expect("commit queue");
            assert_eq!((q.applied_seq, q.written_bytes), (6, 6 * frame));
            assert!(q.group.bytes.is_empty() && q.group.bytes.capacity() as u64 >= 6 * frame);
            drop(q);
            drop(gc);
            let seg = std::fs::metadata(dir.join("wal-000001.log")).unwrap().len();
            assert_eq!(seg, crate::wal::SEGMENT_HEADER_SIZE + 6 * frame);
            let (_wal, back) = Wal::open::<2>(&dir).unwrap();
            assert_eq!(back, recs);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
