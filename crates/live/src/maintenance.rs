//! Merges and upkeep: the background worker, explicit flush and
//! compaction, merge requests and writer backpressure, WAL sync and
//! store scrub.

use crate::error::LiveError;
use crate::index::{LiveIndex, LiveInner};
use crate::merge::{run_merge, MergeKind};
use std::sync::Arc;
use std::time::Duration;

/// Background merges only: writers stall (briefly, on a condvar) once
/// the memtable holds this many `buffer_cap`s while a sealed batch is
/// still being merged, bounding memory.
const BACKPRESSURE_FACTOR: usize = 4;

/// Background-worker signaling.
#[derive(Default)]
pub(crate) struct Signal {
    pub(crate) merge: bool,
    pub(crate) full: bool,
    pub(crate) shutdown: bool,
    /// True from the moment the worker claims a request (clearing its
    /// flag) until its merge finishes — without this, `wait_idle` could
    /// observe cleared flags + no sealed batch while the worker is still
    /// between claiming and sealing, and report idle too early.
    pub(crate) busy: bool,
    /// First **fatal** error a background merge hit (surfaced by
    /// flush/wait_idle). Transient failures never land here — they set
    /// `merges_paused` and retry instead.
    pub(crate) error: Option<String>,
    /// Degraded mode: the last background merge failed transiently
    /// (ENOSPC, most likely) and the worker is backing off before
    /// retrying. Writers keep ingesting, bounded only by memtable
    /// backpressure; cleared by the next successful merge.
    pub(crate) merges_paused: bool,
}

impl Signal {
    /// Asks the worker for a merge of this kind.
    fn request(&mut self, kind: MergeKind) {
        match kind {
            MergeKind::Overflow => self.merge = true,
            _ => self.full = true,
        }
    }
}

impl<const D: usize> LiveInner<D> {
    /// The one outcome path of every merge, and the only place
    /// merges-paused mode is entered or left. Success lifts it. With a
    /// `retry` note, a transient failure (ENOSPC, most likely) enters it
    /// and returns `Ok(true)`: the merge rode on acknowledged writes,
    /// safe in memtable/sealed batch + WAL, so a later merge retries it.
    /// Any other error, and every error of an explicit merge, returns.
    pub(crate) fn settle_merge(
        &self,
        outcome: Result<(), LiveError>,
        retry: Option<&str>,
    ) -> Result<bool, LiveError> {
        let mut sig = self.signal.lock().expect("signal mutex");
        match (outcome, retry) {
            (Ok(()), _) => {
                if sig.merges_paused {
                    sig.merges_paused = false;
                    crate::obs::metrics().merges_paused.set(0);
                    pr_obs::events()
                        .emit("merges_resume", "merge succeeded after transient failure");
                }
                Ok(false)
            }
            (Err(e), Some(retry)) if e.is_transient() => {
                sig.merges_paused = true;
                let m = crate::obs::metrics();
                m.merge_retries.inc();
                m.merges_paused.set(1);
                pr_obs::events().emit("merge_retry", format!("{retry}: {e}"));
                Ok(true)
            }
            (Err(e), _) => Err(e),
        }
    }
}

impl<const D: usize> LiveIndex<D> {
    /// Forces the memtable (any size) through a merge, synchronously.
    /// After this returns every prior write is reflected in committed
    /// components and the WAL holds nothing the manifest doesn't cover
    /// — in particular, under [`Durability::Async`] the in-flight
    /// window is fully drained (the merge cut quiesces the commit
    /// queue), so every acknowledged write is durable.
    ///
    /// [`Durability::Async`]: crate::Durability::Async
    pub fn flush(&self) -> Result<(), LiveError> {
        self.merge_now(MergeKind::Force)
    }

    /// Global compaction: merges memtable + every component into one
    /// tree (dropping all tombstones) and rewrites the store into a
    /// fresh file (atomic rename), reclaiming the space of superseded
    /// snapshots. Readers holding older snapshots keep working — their
    /// devices pin the unlinked file.
    pub fn compact(&self) -> Result<(), LiveError> {
        self.merge_now(MergeKind::Full { reclaim: true })
    }

    /// [`LiveIndex::compact`], but only when reclaimable garbage
    /// exceeds `max_garbage_pct` percent of the store file. Routine
    /// merges reuse surviving runs in place, so the file grows by the
    /// superseded runs' bytes rather than by whole-index rewrites —
    /// this is the explicit trigger that trades one full rewrite for
    /// that accrued space. Returns whether a compaction ran.
    pub fn compact_if_garbage(&self, max_garbage_pct: u8) -> Result<bool, LiveError> {
        let (garbage, file_len) = {
            let store = self.inner.store.lock();
            (store.garbage_bytes()?, store.file_len()?)
        };
        if garbage * 100 <= u64::from(max_garbage_pct) * file_len {
            return Ok(false);
        }
        self.compact()?;
        Ok(true)
    }

    /// An explicit merge, run on this thread: every error is the
    /// caller's.
    fn merge_now(&self, kind: MergeKind) -> Result<(), LiveError> {
        self.surface_worker_error()?;
        self.inner
            .settle_merge(run_merge(&self.inner, kind), None)?;
        self.notify_done();
        Ok(())
    }

    /// Blocks until no sealed batch is pending and no requested
    /// background merge remains, surfacing any background-merge error.
    pub fn wait_idle(&self) -> Result<(), LiveError> {
        loop {
            self.surface_worker_error()?;
            let busy = {
                let sig = self.inner.signal.lock().expect("signal mutex");
                sig.merge || sig.full || sig.busy
            } || self.inner.core.read().sealed.is_some();
            if !busy {
                return Ok(());
            }
            let sig = self.inner.signal.lock().expect("signal mutex");
            let _ = self
                .inner
                .cv
                .wait_timeout(sig, Duration::from_millis(20))
                .expect("signal mutex");
        }
    }

    /// Forces every *acknowledged* WAL byte to disk and advances the
    /// synced horizon. Under [`Durability::Async`] this drains the
    /// in-flight window on demand (the syncer thread does the same
    /// continuously); under [`Durability::Fsync`] acknowledged writes
    /// are already durable and no fsync is issued.
    ///
    /// [`Durability::Async`]: crate::Durability::Async
    /// [`Durability::Fsync`]: crate::Durability::Fsync
    pub fn sync_wal(&self) -> Result<(), LiveError> {
        self.inner.group.sync_window()
    }

    /// Re-hashes every committed store page against its checksum table
    /// (see [`Store::scrub`]). On detected corruption the store keeps
    /// serving reads in forced-recheck degraded mode until a later
    /// scrub comes back clean.
    ///
    /// [`Store::scrub`]: pr_store::Store::scrub
    pub fn scrub(&self) -> Result<pr_store::ScrubReport, LiveError> {
        Ok(self.inner.store.lock().scrub()?)
    }

    /// Overrides the WAL segment rotation size of this handle (test
    /// harness: lets a short trace cross it; production uses
    /// [`crate::wal::SEGMENT_ROTATE_BYTES`]).
    #[doc(hidden)]
    pub fn set_wal_rotate_bytes(&self, bytes: u64) {
        let mut wal = self.inner.group.wal.lock().expect("wal mutex");
        wal.set_rotate_bytes(bytes);
    }

    pub(crate) fn request_merge(&self, kind: MergeKind) -> Result<(), LiveError> {
        if self.inner.opts.background_merge {
            self.inner
                .signal
                .lock()
                .expect("signal mutex")
                .request(kind);
            self.inner.cv.notify_all();
            Ok(())
        } else {
            // A later overflow or an explicit flush() retries a merge
            // that failed transiently.
            self.inner.settle_merge(
                run_merge(&self.inner, kind),
                Some("transient inline-merge failure"),
            )?;
            self.notify_done();
            Ok(())
        }
    }

    pub(crate) fn on_overflow(&self) -> Result<(), LiveError> {
        self.request_merge(MergeKind::Overflow)?;
        if !self.inner.opts.background_merge {
            return Ok(());
        }
        // Backpressure: a writer outrunning the merger stalls here once
        // the memtable is several seals deep, holding no locks.
        loop {
            self.surface_worker_error()?;
            let crowded = {
                let core = self.inner.core.read();
                let limit = BACKPRESSURE_FACTOR.saturating_mul(core.components.buffer_cap());
                core.sealed.is_some() && core.memtable.len() >= limit
            };
            if !crowded {
                return Ok(());
            }
            let sig = self.inner.signal.lock().expect("signal mutex");
            let _ = self
                .inner
                .cv
                .wait_timeout(sig, Duration::from_millis(10))
                .expect("signal mutex");
        }
    }

    fn surface_worker_error(&self) -> Result<(), LiveError> {
        let mut sig = self.inner.signal.lock().expect("signal mutex");
        match sig.error.take() {
            Some(msg) => Err(LiveError::Corrupt(format!(
                "background merge failed: {msg}"
            ))),
            None => Ok(()),
        }
    }

    fn notify_done(&self) {
        self.inner.cv.notify_all();
    }
}

pub(crate) fn worker_loop<const D: usize>(inner: Arc<LiveInner<D>>) {
    let mut backoff = Duration::from_millis(2);
    loop {
        let kind = {
            let mut sig = inner.signal.lock().expect("signal mutex");
            loop {
                if sig.shutdown {
                    return;
                }
                if sig.full {
                    sig.full = false;
                    sig.busy = true;
                    break MergeKind::Full { reclaim: false };
                }
                if sig.merge {
                    sig.merge = false;
                    sig.busy = true;
                    break MergeKind::Overflow;
                }
                sig = inner.cv.wait(sig).expect("signal mutex");
            }
        };
        // Transient (ENOSPC): a merge is safe to retry from scratch —
        // rotation keeps the old segment on any error, and the store
        // commit either flipped the superblock or left the old snapshot
        // intact — so back off and re-request instead of failing acked
        // writes. Writers stay up (memtable backpressure bounds memory);
        // `sig.error` stays reserved for fatal failures.
        let settled = inner.settle_merge(
            run_merge(&inner, kind),
            Some(&format!("transient failure, retrying in {backoff:?}")),
        );
        let mut retry_after = None;
        {
            let mut sig = inner.signal.lock().expect("signal mutex");
            sig.busy = false;
            match settled {
                Ok(false) => backoff = Duration::from_millis(2),
                Ok(true) => {
                    sig.request(kind);
                    retry_after = Some(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                }
                Err(e) => {
                    if sig.error.is_none() {
                        sig.error = Some(e.to_string());
                    }
                }
            }
        }
        inner.cv.notify_all();
        if let Some(pause) = retry_after {
            // Shutdown-interruptible backoff: sleep on the signal
            // condvar so a closing index doesn't wait out the timer.
            let sig = inner.signal.lock().expect("signal mutex");
            if !sig.shutdown {
                let _ = inner.cv.wait_timeout(sig, pause).expect("signal mutex");
            }
        }
    }
}
