//! The write path: inserts and deletes are sequenced under the writer
//! lock, encoded onto the commit queue's group buffer, and acknowledged
//! by a group commit.

use crate::core::PendingApply;
use crate::error::LiveError;
use crate::index::{LiveIndex, LiveInner, WriterState};
use crate::merge::MergeKind;
use crate::options::Durability;
use parking_lot::MutexGuard;
use pr_geom::Item;
use pr_obs::trace;
use pr_tree::dynamic::fanout::{self, FilterBuild, ProbeTally};
use pr_tree::QueryScratch;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl<const D: usize> LiveInner<D> {
    /// Async-durability backpressure bound; `None` disables it.
    fn max_inflight(&self) -> Option<u64> {
        match self.opts.durability {
            Durability::Fsync => None,
            Durability::Async { max_inflight_bytes } => Some(max_inflight_bytes as u64),
        }
    }

    /// Waits until `seq` is acknowledged, leading a commit group when
    /// the queue needs one: one WAL write of the group's buffer, which
    /// holds every enqueued batch, one fsync for the lot (Fsync mode),
    /// then the whole group's ops applied to the core in sequence order.
    ///
    /// When the caller's op is sampled, the commit phases are recorded
    /// in its trace: `lead`/`wait` covering the whole call, and (leader
    /// only) `wal_append`, `wal_fsync`, and `apply` — the attribution
    /// half of the group-commit story: a follower's trace shows one
    /// opaque wait, the leader's shows where the group's time actually
    /// went.
    fn commit_wait(&self, seq: u64) -> Result<(), LiveError> {
        let fsync_mode = matches!(self.opts.durability, Durability::Fsync);
        let t_wait = trace::span_start();
        let mut led = false;
        let res = self.group.commit_wait(seq, fsync_mode, |group| {
            led = true;
            let n_ops = group.n_ops;
            {
                let mut wal = self.group.wal.lock().expect("wal mutex");
                let saved_off = wal.offset();
                let t_append = trace::span_start();
                let res = wal.append(&group.bytes).inspect(|_| {
                    trace::span_since(
                        "live",
                        "wal_append",
                        t_append,
                        format_args!("batches={} ops={n_ops}", group.batches),
                    );
                });
                let res = res.and_then(|_| {
                    if fsync_mode {
                        let t_sync = trace::span_start();
                        wal.sync().map(|_| {
                            trace::span_since("live", "wal_fsync", t_sync, format_args!(""));
                        })
                    } else {
                        Ok(())
                    }
                });
                if let Err(e) = res {
                    // The group was never acknowledged; scrub every
                    // trace of it so this failure — transient or not —
                    // leaves the index exactly as if the group had
                    // never been enqueued. Two halves:
                    //
                    // 1. WAL truncation back to the pre-group offset. A
                    //    short (torn) group write can leave CRC-valid
                    //    frames behind, and recovery cannot tell a
                    //    rolled-back frame from a real one — without
                    //    the cut, reopening would resurrect writes
                    //    whose callers were told they failed.
                    let rollback = wal.rollback_to(saved_off);
                    drop(wal);
                    // 2. Discard the group's pending (never-applied)
                    //    logical ops — the oldest n_ops entries: groups
                    //    apply in seq order and only one leader runs at
                    //    a time, so the queue's front is exactly this
                    //    group.
                    {
                        let mut core = self.core.write();
                        for _ in 0..n_ops {
                            core.pending.pop_front().expect("pending ops underflow");
                        }
                    }
                    return match rollback {
                        Ok(()) => Err(e),
                        // Ghost frames may survive on disk where replay
                        // would find them: even a transient append
                        // error must escalate to fatal.
                        Err(rb) => Err(LiveError::Corrupt(format!(
                            "group write failed ({e}) and the WAL rollback \
                             failed too ({rb}); unacknowledged frames may \
                             survive on disk"
                        ))),
                    };
                }
                if fsync_mode {
                    self.group.fsyncs.fetch_add(1, Ordering::Relaxed);
                    crate::obs::metrics().wal_fsyncs.inc();
                }
            }
            let last_seq = group.last_seq;
            let t_apply = trace::span_start();
            {
                let mut core = self.core.write();
                core.apply_pending(n_ops);
                core.durable_seq = last_seq;
                crate::obs::metrics()
                    .memtable_items
                    .set(core.memtable.len() as u64);
            }
            trace::span_since("live", "apply", t_apply, format_args!("ops={n_ops}"));
            Ok(())
        });
        trace::span_since(
            "live",
            if led { "lead" } else { "wait" },
            t_wait,
            format_args!("seq={seq}"),
        );
        res
    }

    /// The one op path of every write. Under the sequencing lock `w`,
    /// gives the batch's ops (at least one) consecutive sequence numbers,
    /// pushes the ops onto `core.pending` and encodes one WAL record per
    /// op onto the queued group; then releases `w` and waits for the
    /// group commit that acknowledges and applies them. Returns the
    /// batch's last sequence number.
    ///
    /// `ops` is walked twice, once to push and once to encode, so an
    /// insert batch passes a mapping iterator and allocates nothing.
    pub(crate) fn commit_ops<I>(
        &self,
        mut w: MutexGuard<'_, WriterState>,
        ops: I,
    ) -> Result<u64, LiveError>
    where
        I: ExactSizeIterator<Item = PendingApply<D>> + Clone,
    {
        let n_ops = ops.len();
        let first = w.next_seq;
        let last_seq = first + n_ops as u64 - 1;
        // The ops go onto `core.pending` first: once the records are
        // queued, another writer's leader may take and apply them.
        self.core.write().pending.extend(ops.clone());
        let records = ops.enumerate().map(|(i, op)| op.record(first + i as u64));
        if let Err(e) = self.group.enqueue(records, self.max_inflight()) {
            // A sticky WAL error: take the ops back off `core.pending`,
            // so the two queues never desync.
            let mut core = self.core.write();
            for _ in 0..n_ops {
                core.pending.pop_back();
            }
            return Err(e);
        }
        w.next_seq = last_seq + 1;
        drop(w);
        self.commit_wait(last_seq)?;
        Ok(last_seq)
    }
}

impl<const D: usize> LiveIndex<D> {
    /// Inserts one item (ids must be unique among live items). Returns
    /// once the write is acknowledged: after its group's fsync under
    /// [`Durability::Fsync`] (the write survives any crash from here
    /// on), after the buffered group append under [`Durability::Async`].
    pub fn insert(&self, item: Item<D>) -> Result<(), LiveError> {
        self.insert_batch(std::slice::from_ref(&item))
    }

    /// Inserts a batch, group-committed: the batch is encoded and
    /// enqueued under the sequencing lock (no I/O there), then a group
    /// leader lands it — together with every concurrently enqueued
    /// batch, all encoded into one group buffer — with one write and
    /// **at most one** fsync for the whole group. Acknowledged (and, in `Fsync` mode,
    /// crash-durable) as a unit when this returns.
    pub fn insert_batch(&self, items: &[Item<D>]) -> Result<(), LiveError> {
        if items.is_empty() {
            return Ok(());
        }
        let t0 = std::time::Instant::now();
        let inner = &self.inner;
        let op = trace::start("write");
        let ops = items.iter().map(|&item| PendingApply::Insert(item));
        let last_seq = inner.commit_ops(inner.writer.lock(), ops)?;
        let m = crate::obs::metrics();
        m.inserts_acked.add(items.len() as u64);
        m.insert_batch_us.record_duration_us(t0.elapsed());
        op.finish(format_args!("ops={} last_seq={last_seq}", items.len()));
        let overflow = {
            let core = inner.core.read();
            core.memtable.len() >= core.components.buffer_cap()
        };
        if overflow {
            self.on_overflow()?;
        }
        Ok(())
    }

    /// Deletes the live item with this exact `(id, rect)` identity.
    /// Returns `false` (without logging anything) if no such live item
    /// exists. Like inserts, a `true` return means the delete is
    /// acknowledged (crash-durable under [`Durability::Fsync`]).
    pub fn delete(&self, item: &Item<D>) -> Result<bool, LiveError> {
        Ok(self.delete_batch(std::slice::from_ref(item))? == 1)
    }

    /// Deletes a batch, group-committed like [`LiveIndex::insert_batch`]
    /// — at most one fsync for the whole group the batch lands in.
    /// Victims with no matching live item are skipped (not logged);
    /// decisions within the batch see earlier victims' effects, exactly
    /// as if applied serially. Returns how many items were deleted; all
    /// of them are acknowledged when this returns.
    ///
    /// Cost note — a delete is priced like an insert plus one probe:
    /// * **Probe, off the sequencing lock.** Each victim's stored copies
    ///   are counted against a structure pinned with a brief read lock
    ///   ([`fanout::count_stored_copies`]). A component whose membership
    ///   filter rejects the victim costs one hash. Only the components
    ///   it admits run an exact-match descent, which opens just the
    ///   children whose boxes cover the victim's rectangle. A
    ///   component's filter is built by one leaf scan on its first
    ///   probe, so a merge's output pays that scan once, at its first
    ///   delete.
    /// * **Decide, under the lock.** One counted map of the batch's
    ///   distinct identities is filled from the memtable chunks whose
    ///   MBRs contain each identity and by one pass over the pending
    ///   ops. The decide never scans the whole memtable per victim. The
    ///   probe is redone under the lock only when a seal or merge swap
    ///   landed in between. That re-probe builds no filter: a component
    ///   the swap installed is searched by one exact-match descent per
    ///   victim, and its filter is left to the next off-lock probe.
    /// * **Commit.** The WAL append and group fsync, the same as for an
    ///   insert batch.
    pub fn delete_batch(&self, items: &[Item<D>]) -> Result<u64, LiveError> {
        if items.is_empty() {
            return Ok(0);
        }
        let t0 = std::time::Instant::now();
        let inner = &self.inner;
        let op = trace::start("delete");
        // Pin the stored structure (sealed + components) with a brief
        // read lock, then probe copies entirely off-lock. Validity: a
        // merge moves copies between sealed/components without changing
        // any identity's stored-copy count, but a *seal* (memtable →
        // sealed) and a merge *swap* both change what "stored" covers —
        // each bumps `structure_epoch`, and an epoch mismatch under the
        // sequencing lock sends that batch down the re-probe slow path.
        // Tombstones and the memtable are always read fresh under the
        // lock, so an unchanged epoch makes the off-lock counts exact.
        let (pin_epoch, pinned_sealed, pinned_components) = {
            let core = inner.core.read();
            (
                core.structure_epoch,
                core.sealed.clone(),
                core.components
                    .iter()
                    .map(|(t, _)| Arc::clone(t))
                    .collect::<Vec<_>>(),
            )
        };
        let mut scratch = QueryScratch::new();
        let mut tally = ProbeTally::default();
        let t_probe = trace::span_start();
        let probed = items
            .iter()
            .map(|item| {
                fanout::count_stored_copies(
                    pinned_sealed.as_deref(),
                    pinned_components.iter().map(|a| a.as_ref()),
                    item,
                    FilterBuild::Lazy,
                    &mut scratch,
                    &mut tally,
                )
            })
            .collect::<Result<Vec<u64>, _>>()?;
        crate::obs::record_probe(&tally);
        trace::span_since(
            "live",
            "probe",
            t_probe,
            format_args!(
                "victims={} searched={} skipped={}",
                items.len(),
                tally.searched,
                tally.skipped
            ),
        );
        let w = inner.writer.lock();
        let t_decide = trace::span_start();
        let (ops, any_tombstone) =
            inner
                .core
                .read()
                .decide(items, &probed, pin_epoch, &mut scratch)?;
        if ops.is_empty() {
            return Ok(0);
        }
        trace::span_since(
            "live",
            "decide",
            t_decide,
            format_args!("ops={}", ops.len()),
        );
        let last_seq = inner.commit_ops(w, ops.iter().copied())?;
        let deleted = ops.len() as u64;
        let m = crate::obs::metrics();
        m.deletes_acked.add(deleted);
        m.delete_batch_us.record_duration_us(t0.elapsed());
        op.finish(format_args!("deleted={deleted} last_seq={last_seq}"));
        let needs_compaction = any_tombstone && {
            let core = inner.core.read();
            let sealed = core.sealed.as_ref().map_or(0, |s| s.len() as u64);
            core.components
                .needs_compaction(core.tombstones.total(), sealed)
        };
        if needs_compaction {
            self.request_merge(MergeKind::Full { reclaim: false })?;
        }
        Ok(deleted)
    }
}
