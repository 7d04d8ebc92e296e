//! [`LiveIndex`]: the durable, reader-concurrent face of the LPR-tree.
//!
//! ## Moving parts
//!
//! * **WAL** ([`crate::wal`]) — every insert/delete is appended and
//!   `fsync`ed before it is acknowledged or becomes visible.
//! * **Memtable** ([`crate::memtable`]) — acknowledged writes accumulate
//!   here; queries scan it alongside the components.
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
//!   (memtable copy + `Arc` bumps), then query entirely off-lock
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

use crate::commit::{GroupCommit, PendingBatch};
use crate::error::LiveError;
use crate::manifest::LiveManifest;
use crate::memtable::Memtable;
use crate::merge::{run_merge, MergeKind};
use crate::wal::{Wal, WalOp, WalRecord};
use parking_lot::{Mutex, RwLock};
use pr_geom::{Item, Point, Rect};
use pr_store::{ReadPath, Store};
use pr_tree::dynamic::fanout::{self, FilterBuild, ProbeTally};
use pr_tree::dynamic::{ComponentSet, TombstoneKey, Tombstones};
use pr_tree::{KnnSearch, QueryScratch, QueryStats, RTree, TreeParams};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::Duration;

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
    Async {
        /// Backpressure bound on WAL bytes written but not yet fsynced.
        max_inflight_bytes: usize,
    },
}

/// Background merges only: writers stall (briefly, on a condvar) once
/// the memtable holds this many `buffer_cap`s while a sealed batch is
/// still being merged, bounding memory.
const BACKPRESSURE_FACTOR: usize = 4;

/// Tuning knobs for a [`LiveIndex`].
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

/// A sequenced, WAL-enqueued logical op awaiting its group's
/// acknowledgment. Decisions (insert vs. memtable-delete vs. tombstone)
/// are final at enqueue time; the group leader replays them verbatim.
pub(crate) enum PendingApply<const D: usize> {
    /// Insert into the memtable.
    Insert(Item<D>),
    /// Remove a memtable resident.
    DeleteMem(Item<D>),
    /// Tombstone a stored (sealed/component) copy.
    DeleteTomb(Item<D>),
}

/// The queryable state, swapped atomically under the core write lock.
pub(crate) struct Core<const D: usize> {
    pub(crate) memtable: Memtable<D>,
    /// A sealed (immutable) memtable awaiting its merge.
    pub(crate) sealed: Option<Arc<Vec<Item<D>>>>,
    /// Geometric component slots, each a store-backed, warmed tree and
    /// its stable store component id (unchanged across commits that
    /// reuse the run in place). Merges commit surviving slots by that id
    /// as in-place run references — no page rewrite.
    pub(crate) components: ComponentSet<(Arc<RTree<D>>, u64)>,
    /// Dead identities among sealed + components (never the memtable).
    pub(crate) tombstones: Arc<Tombstones<D>>,
    /// Enqueued-but-unacknowledged ops, in sequence order. Invisible to
    /// snapshots and `live`; consulted (under the sequencing lock) by
    /// delete decisions so logical state = applied state + pending.
    pub(crate) pending: VecDeque<PendingApply<D>>,
    /// Bumped whenever sealed/components change shape (a seal or a
    /// merge swap) — the off-lock delete-probe path revalidates its
    /// pinned component snapshot against this.
    pub(crate) structure_epoch: u64,
    /// Live item count.
    pub(crate) live: u64,
    /// Highest acknowledged (group-committed and applied) WAL sequence.
    /// Under `Durability::Async` this can run ahead of the synced
    /// sequence by the in-flight window.
    pub(crate) durable_seq: u64,
    /// The committed manifest's WAL cut.
    pub(crate) merged_seq: u64,
    /// Completed merge commits this process.
    pub(crate) merges: u64,
}

pub(crate) struct WriterState {
    /// Next sequence number to assign.
    pub(crate) next_seq: u64,
}

/// Background-worker signaling.
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
    _lock: std::fs::File,
}

impl<const D: usize> Core<D> {
    /// Counts stored copies (sealed batch + every component) of `item`'s
    /// exact bit identity — the copies-vs-tombstones liveness probe,
    /// against this core's current structure. The off-lock delete path
    /// runs the same [`fanout::count_stored_copies`] against a pinned
    /// structure instead; WAL-replay re-derivation calls this directly,
    /// so their equivalence (which crash recovery depends on) is
    /// structural, not copy-paste.
    pub(crate) fn stored_copies(
        &self,
        item: &Item<D>,
        build: FilterBuild,
        scratch: &mut QueryScratch<D>,
        tally: &mut ProbeTally,
    ) -> Result<u64, LiveError> {
        Ok(fanout::count_stored_copies(
            self.sealed.as_deref().map(|v| v.as_slice()),
            self.components.iter().map(|(t, _)| t.as_ref()),
            item,
            build,
            scratch,
            tally,
        )?)
    }

    /// Pops and applies the oldest `n` pending ops — the group leader's
    /// step, run under the core write lock after the group's WAL write
    /// is acknowledged. Ops apply in sequence order (enqueue order).
    pub(crate) fn apply_pending(&mut self, n: usize) {
        for _ in 0..n {
            match self.pending.pop_front().expect("pending ops underflow") {
                PendingApply::Insert(it) => {
                    self.memtable.insert(it);
                    self.live += 1;
                }
                PendingApply::DeleteMem(it) => {
                    let removed = self.memtable.remove(&it);
                    debug_assert!(removed, "decision said memtable");
                    self.live -= 1;
                }
                PendingApply::DeleteTomb(it) => {
                    Arc::make_mut(&mut self.tombstones).add(&it);
                    self.live -= 1;
                }
            }
        }
    }

    /// What a delete batch may claim, per distinct victim identity,
    /// in the serial-equivalent view: the applied state plus every
    /// enqueued-but-unapplied op (`pending`). Returns one share per
    /// distinct identity and, per victim, the index of its share. One
    /// pass over the memtable and one over `pending`, so the cost is
    /// O(memtable + pending + batch) whatever the batch size.
    pub(crate) fn claimable(&self, victims: &[Item<D>]) -> (Vec<Claimable>, Vec<usize>) {
        let mut index: HashMap<TombstoneKey<D>, usize> = HashMap::with_capacity(victims.len());
        let mut shares: Vec<Claimable> = Vec::with_capacity(victims.len());
        let share_of = victims
            .iter()
            .map(|v| {
                *index.entry(TombstoneKey::of(v)).or_insert_with(|| {
                    let dead = u64::from(self.tombstones.count(v));
                    shares.push(Claimable { mem: 0, dead });
                    shares.len() - 1
                })
            })
            .collect();
        let mut bump = |item: &Item<D>, f: fn(&mut Claimable)| {
            if let Some(&i) = index.get(&TombstoneKey::of(item)) {
                f(&mut shares[i]);
            }
        };
        for it in self.memtable.items() {
            bump(it, |c| c.mem += 1);
        }
        for op in &self.pending {
            match op {
                PendingApply::Insert(it) => bump(it, |c| c.mem += 1),
                PendingApply::DeleteMem(it) => bump(it, |c| c.mem -= 1),
                PendingApply::DeleteTomb(it) => bump(it, |c| c.dead += 1),
            }
        }
        (shares, share_of)
    }

    /// Decides every victim of a delete batch against the applied state
    /// plus every enqueued-but-unapplied op (`pending`) plus the batch's
    /// own earlier victims — the serial-equivalent view. Returns the ops
    /// to log and whether any of them is a tombstone.
    ///
    /// `probed` holds each victim's stored copies, counted off-lock
    /// against the structure pinned at `pin_epoch`. If a seal or merge
    /// swap has landed since, a victim the memtable cannot absorb is
    /// counted again here, under the caller's sequencing lock, with
    /// [`FilterBuild::Never`]: a component that arrived since has no
    /// filter yet and is searched directly, one exact-match descent per
    /// victim, instead of being scanned for a filter while writers wait.
    pub(crate) fn decide(
        &self,
        victims: &[Item<D>],
        probed: &[u64],
        pin_epoch: u64,
        scratch: &mut QueryScratch<D>,
    ) -> Result<(Vec<PendingApply<D>>, bool), LiveError> {
        let stale = self.structure_epoch != pin_epoch;
        let (mut shares, share_of) = self.claimable(victims);
        let mut ops = Vec::with_capacity(victims.len());
        let mut any_tombstone = false;
        let mut reprobe = ProbeTally::default();
        for ((item, &copies), &share) in victims.iter().zip(probed).zip(&share_of) {
            let c = &mut shares[share];
            if c.mem > 0 {
                c.mem -= 1;
                ops.push(PendingApply::DeleteMem(*item));
                continue;
            }
            let copies = if stale {
                self.stored_copies(item, FilterBuild::Never, scratch, &mut reprobe)?
            } else {
                copies
            };
            if copies > c.dead {
                c.dead += 1;
                any_tombstone = true;
                ops.push(PendingApply::DeleteTomb(*item));
            }
        }
        crate::obs::record_probe(&reprobe);
        Ok((ops, any_tombstone))
    }
}

/// One victim identity's share of the logical state (see
/// [`Core::claimable`]). A delete decision spends from it, so a batch's
/// later duplicates see its earlier victims' effects.
pub(crate) struct Claimable {
    /// Memtable copies not yet claimed: applied, plus pending inserts,
    /// minus pending (and in-batch) memtable deletes.
    mem: i64,
    /// Tombstones against stored copies: applied, pending, in-batch.
    dead: u64,
}

impl<const D: usize> LiveInner<D> {
    /// How store-backed components are opened (satellite: paranoid
    /// re-hash-every-read mode).
    pub(crate) fn read_path(&self) -> ReadPath {
        if self.opts.recheck_reads {
            ReadPath::Recheck
        } else {
            ReadPath::ZeroCopy
        }
    }

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

    /// Async-durability backpressure bound; `None` disables it.
    fn max_inflight(&self) -> Option<u64> {
        match self.opts.durability {
            Durability::Fsync => None,
            Durability::Async { max_inflight_bytes } => Some(max_inflight_bytes as u64),
        }
    }

    /// Waits until `seq` is acknowledged, leading a commit group when
    /// the queue needs one: one vectored WAL write for every enqueued
    /// batch, one fsync for the lot (Fsync mode), then the whole group's
    /// ops applied to the core in sequence order.
    ///
    /// When `trace` is armed, the commit phases are recorded on it:
    /// `lead`/`wait` covering the whole call, and (leader only)
    /// `wal_append`, `wal_fsync`, and `apply` — the attribution half of
    /// the group-commit story: a follower's trace shows one opaque wait,
    /// the leader's shows where the group's time actually went.
    fn commit_wait(&self, seq: u64, trace: &mut pr_obs::SpanCtx) -> Result<(), LiveError> {
        let fsync_mode = matches!(self.opts.durability, Durability::Fsync);
        let tracing = trace.is_active();
        let t_wait = tracing.then(std::time::Instant::now);
        let mut led = false;
        let res = self.group.commit_wait(seq, fsync_mode, |group| {
            led = true;
            let n_ops: usize = group.iter().map(|b| b.n_ops).sum();
            {
                let mut wal = self.group.wal.lock().expect("wal mutex");
                let saved_off = wal.offset();
                let bufs: Vec<&[u8]> = group.iter().map(|b| b.bytes.as_slice()).collect();
                let t_append = tracing.then(std::time::Instant::now);
                let res = wal.append_encoded(&bufs).inspect(|_| {
                    if let Some(t0) = t_append {
                        trace.span_since(
                            "live",
                            "wal_append",
                            t0,
                            &format!("batches={} ops={n_ops}", group.len()),
                        );
                    }
                });
                let res = res.and_then(|_| {
                    if fsync_mode {
                        let t_sync = tracing.then(std::time::Instant::now);
                        wal.sync().map(|_| {
                            if let Some(t0) = t_sync {
                                trace.span_since("live", "wal_fsync", t0, "");
                            }
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
            let last_seq = group.last().expect("group nonempty").last_seq;
            let t_apply = tracing.then(std::time::Instant::now);
            {
                let mut core = self.core.write();
                core.apply_pending(n_ops);
                core.durable_seq = last_seq;
                crate::obs::metrics()
                    .memtable_items
                    .set(core.memtable.len() as u64);
            }
            if let Some(t0) = t_apply {
                trace.span_since("live", "apply", t0, &format!("ops={n_ops}"));
            }
            Ok(())
        });
        if let Some(t0) = t_wait {
            trace.span_since(
                "live",
                if led { "lead" } else { "wait" },
                t0,
                &format!("seq={seq}"),
            );
        }
        res
    }

    /// Enqueues an encoded batch whose logical ops were just pushed onto
    /// `core.pending` — rolling those ops back if the enqueue itself
    /// fails (sticky WAL error), so the two queues never desync. Caller
    /// holds the sequencing lock.
    fn enqueue_or_rollback(&self, batch: PendingBatch) -> Result<(), LiveError> {
        let n_ops = batch.n_ops;
        if let Err(e) = self.group.enqueue(batch, self.max_inflight()) {
            let mut core = self.core.write();
            for _ in 0..n_ops {
                core.pending.pop_back();
            }
            return Err(e);
        }
        Ok(())
    }
}

/// A durable, concurrently-readable LPR-tree.
///
/// Cloneable-by-`Arc` usage: wrap in `Arc` and share; all methods take
/// `&self`. See the module docs for the architecture and
/// [`LiveIndex::snapshot`] for the read path.
pub struct LiveIndex<const D: usize> {
    inner: Arc<LiveInner<D>>,
    worker: Option<JoinHandle<()>>,
    /// Async-durability syncer thread (None under `Durability::Fsync`).
    syncer: Option<JoinHandle<()>>,
}

// Compile-time proof that one index (and its snapshots) can be shared
// across writer and reader threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LiveIndex<2>>();
    assert_send_sync::<LiveSnapshot<2>>();
};

impl<const D: usize> LiveIndex<D> {
    /// Creates a fresh index in `dir` (created if absent). Any previous
    /// index there is destroyed whole: the store file is truncated and
    /// **every** stale WAL segment is removed — `Wal::create` only
    /// truncates segment 1, and a leftover higher segment would
    /// otherwise be replayed into the new index on a later reopen.
    pub fn create(dir: &Path, params: TreeParams, opts: LiveOptions) -> Result<Self, LiveError> {
        std::fs::create_dir_all(dir)?;
        let lock = acquire_dir_lock(dir)?;
        // Destruction order matters for crash safety: unlink the store
        // FIRST (a crash now leaves "no index here" — a clean open error)
        // and only then the stale WAL segments. The reverse order has a
        // window where the old store exists with its WAL gone: open()
        // would silently serve the old snapshot minus every write that
        // lived only in the deleted log.
        if dir.join("index.prt").exists() {
            std::fs::remove_file(dir.join("index.prt"))?;
            pr_em::fsync_dir(dir)?;
        }
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if (name.starts_with("wal-") && name.ends_with(".log")) || name == "index.prt.tmp" {
                std::fs::remove_file(&path)?;
            }
        }
        pr_em::fsync_dir(dir)?;
        let store = Store::create::<D>(&dir.join("index.prt"), params)?;
        pr_em::fsync_dir(dir)?;
        let wal = Wal::create(dir)?;
        Self::assemble(
            dir,
            params,
            opts,
            store,
            wal,
            LiveManifest::default(),
            Vec::new(),
            lock,
        )
    }

    /// Opens an existing index: recovers the newest committed snapshot,
    /// then replays WAL records past the manifest's cut into the
    /// memtable — every acknowledged write survives, in order.
    pub fn open(dir: &Path, opts: LiveOptions) -> Result<Self, LiveError> {
        let lock = acquire_dir_lock(dir)?;
        // A compaction that died before its atomic rename leaves a stale
        // temp file; it was never the index.
        std::fs::remove_file(dir.join("index.prt.tmp")).ok();
        let store = Store::open(&dir.join("index.prt"))?;
        let sb = *store.superblock();
        if sb.dim != D as u32 {
            return Err(LiveError::Store(pr_store::StoreError::DimensionMismatch {
                file: sb.dim,
                requested: D as u32,
            }));
        }
        let params = sb.meta.params;
        let app = store.app();
        let manifest = if app.is_empty() {
            LiveManifest::default()
        } else {
            LiveManifest::<D>::decode(app)?
        };
        let (wal, records) = Wal::open::<D>(dir)?;
        Self::assemble(dir, params, opts, store, wal, manifest, records, lock)
    }

    /// [`LiveIndex::open`] if an index exists in `dir`, else
    /// [`LiveIndex::create`].
    pub fn open_or_create(
        dir: &Path,
        params: TreeParams,
        opts: LiveOptions,
    ) -> Result<Self, LiveError> {
        if dir.join("index.prt").exists() {
            Self::open(dir, opts)
        } else {
            Self::create(dir, params, opts)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        dir: &Path,
        params: TreeParams,
        opts: LiveOptions,
        store: Store,
        wal: Wal,
        manifest: LiveManifest<D>,
        records: Vec<WalRecord<D>>,
        lock: std::fs::File,
    ) -> Result<Self, LiveError> {
        // Components out of the store, arranged into their slots.
        let read_path = if opts.recheck_reads {
            ReadPath::Recheck
        } else {
            ReadPath::ZeroCopy
        };
        let trees = store.components_with::<D>(read_path)?;
        let runs = store.component_runs();
        if trees.len() != manifest.slots.len() {
            return Err(LiveError::Corrupt(format!(
                "store holds {} components but the live manifest places {}",
                trees.len(),
                manifest.slots.len()
            )));
        }
        let mut components = ComponentSet::new(opts.buffer_cap);
        // The manifest's slot list, the store's runs, and
        // `components_with`'s trees all share commit order, so they zip
        // 1:1 — that is how each slot learns its stable component id.
        for ((slot, tree), run) in manifest.slots.iter().zip(trees).zip(runs) {
            let slot = *slot as usize;
            if components.get(slot).is_some() {
                return Err(LiveError::Corrupt(format!(
                    "live manifest places two components in slot {slot}"
                )));
            }
            tree.warm_cache()?;
            components.place(slot, (Arc::new(tree), run.id));
        }

        let stored = components.stored();
        let mut core = Core {
            memtable: Memtable::from_items(manifest.memtable),
            sealed: None,
            components,
            tombstones: Arc::new(manifest.tombstones),
            pending: VecDeque::new(),
            structure_epoch: 0,
            live: 0,
            durable_seq: manifest.wal_seq,
            merged_seq: manifest.wal_seq,
            merges: 0,
        };
        core.live = stored + core.memtable.len() as u64 - core.tombstones.total();

        // WAL replay: everything past the manifest's cut, in order.
        let mut rtrace = pr_obs::SpanCtx::off();
        if !records.is_empty() {
            rtrace.arm_sampled("wal_replay");
        }
        let t_replay = rtrace.is_active().then(std::time::Instant::now);
        let mut next_seq = manifest.wal_seq + 1;
        let mut replayed: u64 = 0;
        let mut scratch = QueryScratch::new();
        let mut tally = ProbeTally::default();
        for rec in records {
            if rec.seq <= manifest.wal_seq {
                continue;
            }
            match rec.op {
                WalOp::Insert => {
                    core.memtable.insert(rec.item);
                    core.live += 1;
                }
                WalOp::Delete => {
                    // Re-derive where the delete landed against the
                    // reconstructed state — the same decision the live
                    // path made.
                    if core.memtable.remove(&rec.item) {
                        core.live -= 1;
                    } else {
                        let copies = core.stored_copies(
                            &rec.item,
                            FilterBuild::Lazy,
                            &mut scratch,
                            &mut tally,
                        )?;
                        if copies > core.tombstones.count(&rec.item) as u64 {
                            Arc::make_mut(&mut core.tombstones).add(&rec.item);
                            core.live -= 1;
                        }
                    }
                }
            }
            core.durable_seq = rec.seq;
            next_seq = rec.seq + 1;
            replayed += 1;
        }
        crate::obs::record_probe(&tally);
        crate::obs::metrics()
            .memtable_items
            .set(core.memtable.len() as u64);
        pr_obs::events().emit(
            "wal_replay",
            format!(
                "cut_seq={} replayed={replayed} recovered_seq={}",
                manifest.wal_seq, core.durable_seq
            ),
        );
        if let Some(t0) = t_replay {
            rtrace.span_since("live", "replay", t0, &format!("records={replayed}"));
            rtrace.set_detail(&format!(
                "cut_seq={} recovered_seq={}",
                manifest.wal_seq, core.durable_seq
            ));
        }
        rtrace.finish_publish();

        let recovered_seq = core.durable_seq;
        let inner = Arc::new(LiveInner {
            dir: dir.to_path_buf(),
            params,
            opts,
            writer: Mutex::new(WriterState { next_seq }),
            group: GroupCommit::new(wal, recovered_seq),
            core: RwLock::new(core),
            store: Mutex::new(store),
            maintenance: Mutex::new(()),
            signal: StdMutex::new(Signal {
                merge: false,
                full: false,
                shutdown: false,
                busy: false,
                error: None,
                merges_paused: false,
            }),
            cv: Condvar::new(),
            merge_pages_written: AtomicU64::new(0),
            merge_pages_reused: AtomicU64::new(0),
            ingest_bytes: AtomicU64::new(0),
            _lock: lock,
        });

        let worker = if opts.background_merge {
            let inner = Arc::clone(&inner);
            Some(std::thread::spawn(move || worker_loop(inner)))
        } else {
            None
        };
        let syncer = match opts.durability {
            Durability::Async { .. } => {
                let inner = Arc::clone(&inner);
                Some(std::thread::spawn(move || inner.group.syncer_loop()))
            }
            Durability::Fsync => None,
        };
        Ok(LiveIndex {
            inner,
            worker,
            syncer,
        })
    }

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
    /// batch — with one vectored write and **at most one** fsync for
    /// the whole group. Acknowledged (and, in `Fsync` mode,
    /// crash-durable) as a unit when this returns.
    pub fn insert_batch(&self, items: &[Item<D>]) -> Result<(), LiveError> {
        if items.is_empty() {
            return Ok(());
        }
        let t0 = std::time::Instant::now();
        let inner = &self.inner;
        let mut trace = pr_obs::SpanCtx::off();
        trace.arm_sampled("write");
        let tracing = trace.is_active();
        let last_seq = {
            let mut w = inner.writer.lock();
            let first = w.next_seq;
            let t_enc = tracing.then(std::time::Instant::now);
            // Encode straight into an arena buffer (recycled once the
            // group leader lands the batch): the steady-state enqueue
            // path allocates nothing per batch.
            let mut bytes = inner.group.take_buf();
            for (i, item) in items.iter().enumerate() {
                WalRecord {
                    seq: first + i as u64,
                    op: WalOp::Insert,
                    item: *item,
                }
                .encode_into(&mut bytes);
            }
            if let Some(t) = t_enc {
                trace.span_since(
                    "live",
                    "encode",
                    t,
                    &format!("ops={} bytes={}", items.len(), bytes.len()),
                );
            }
            let last_seq = first + items.len() as u64 - 1;
            {
                let mut core = inner.core.write();
                core.pending
                    .extend(items.iter().map(|it| PendingApply::Insert(*it)));
            }
            let t_enq = tracing.then(std::time::Instant::now);
            inner.enqueue_or_rollback(PendingBatch {
                bytes,
                n_ops: items.len(),
                last_seq,
            })?;
            if let Some(t) = t_enq {
                trace.span_since("live", "enqueue", t, "");
            }
            w.next_seq = last_seq + 1;
            last_seq
        };
        inner.commit_wait(last_seq, &mut trace)?;
        let m = crate::obs::metrics();
        m.inserts_acked.add(items.len() as u64);
        m.insert_batch_us.record_duration_us(t0.elapsed());
        trace.set_detail(&format!("ops={} last_seq={last_seq}", items.len()));
        trace.finish_publish();
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
    ///   distinct identities is filled by one pass over the memtable
    ///   and one over the pending ops. The decide is therefore
    ///   O(memtable + pending + batch), not O(memtable × batch). The
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
        let mut trace = pr_obs::SpanCtx::off();
        trace.arm_sampled("delete");
        let tracing = trace.is_active();
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
        let t_probe = tracing.then(std::time::Instant::now);
        let probed = items
            .iter()
            .map(|item| {
                fanout::count_stored_copies(
                    pinned_sealed.as_deref().map(|v| v.as_slice()),
                    pinned_components.iter().map(|a| a.as_ref()),
                    item,
                    FilterBuild::Lazy,
                    &mut scratch,
                    &mut tally,
                )
            })
            .collect::<Result<Vec<u64>, _>>()?;
        crate::obs::record_probe(&tally);
        if let Some(t) = t_probe {
            trace.span_since(
                "live",
                "probe",
                t,
                &format!(
                    "victims={} searched={} skipped={}",
                    items.len(),
                    tally.searched,
                    tally.skipped
                ),
            );
        }
        let (deleted, last_seq, any_tombstone) = {
            let mut w = inner.writer.lock();
            let t_decide = tracing.then(std::time::Instant::now);
            let (ops, any_tombstone) =
                inner
                    .core
                    .read()
                    .decide(items, &probed, pin_epoch, &mut scratch)?;
            if ops.is_empty() {
                return Ok(0);
            }
            let first = w.next_seq;
            let mut bytes = inner.group.take_buf();
            for (i, op) in ops.iter().enumerate() {
                let item = match op {
                    PendingApply::Insert(it)
                    | PendingApply::DeleteMem(it)
                    | PendingApply::DeleteTomb(it) => *it,
                };
                WalRecord {
                    seq: first + i as u64,
                    op: WalOp::Delete,
                    item,
                }
                .encode_into(&mut bytes);
            }
            let n_ops = ops.len();
            let last_seq = first + n_ops as u64 - 1;
            if let Some(t) = t_decide {
                trace.span_since(
                    "live",
                    "decide",
                    t,
                    &format!("ops={n_ops} bytes={}", bytes.len()),
                );
            }
            {
                let mut core = inner.core.write();
                core.pending.extend(ops);
            }
            let t_enq = tracing.then(std::time::Instant::now);
            inner.enqueue_or_rollback(PendingBatch {
                bytes,
                n_ops,
                last_seq,
            })?;
            if let Some(t) = t_enq {
                trace.span_since("live", "enqueue", t, "");
            }
            w.next_seq = last_seq + 1;
            (n_ops as u64, last_seq, any_tombstone)
        };
        inner.commit_wait(last_seq, &mut trace)?;
        let m = crate::obs::metrics();
        m.deletes_acked.add(deleted);
        m.delete_batch_us.record_duration_us(t0.elapsed());
        trace.set_detail(&format!("deleted={deleted} last_seq={last_seq}"));
        trace.finish_publish();
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

    /// An epoch-pinned, point-in-time view for querying. Cheap: one
    /// memtable copy plus `Arc` bumps. The snapshot stays valid and
    /// immutable across any amount of concurrent ingest, merging, and
    /// compaction.
    pub fn snapshot(&self) -> LiveSnapshot<D> {
        let core = self.inner.core.read();
        LiveSnapshot {
            memtable: core.memtable.items().to_vec(),
            sealed: core.sealed.clone(),
            components: core.components.iter().map(|(t, _)| Arc::clone(t)).collect(),
            tombstones: Arc::clone(&core.tombstones),
            live: core.live,
            seq: core.durable_seq,
        }
    }

    /// One-shot window query (takes a fresh snapshot; hot loops should
    /// hold a [`LiveSnapshot`] and a [`QueryScratch`] instead).
    pub fn window(&self, query: &Rect<D>) -> Result<(Vec<Item<D>>, QueryStats), LiveError> {
        let snap = self.snapshot();
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let stats = snap.window_into(query, &mut scratch, &mut out)?;
        Ok((out, stats))
    }

    /// One-shot k-nearest-neighbors query.
    pub fn nearest_neighbors(
        &self,
        query: &Point<D>,
        k: usize,
    ) -> Result<(Vec<(Item<D>, f64)>, QueryStats), LiveError> {
        let snap = self.snapshot();
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let stats = snap.nearest_neighbors_into(query, k, &mut scratch, &mut out)?;
        Ok((out, stats))
    }

    /// Forces the memtable (any size) through a merge, synchronously.
    /// After this returns every prior write is reflected in committed
    /// components and the WAL holds nothing the manifest doesn't cover
    /// — in particular, under [`Durability::Async`] the in-flight
    /// window is fully drained (the merge cut quiesces the commit
    /// queue), so every acknowledged write is durable.
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
        let ingest_bytes = self.inner.ingest_bytes.load(Ordering::Relaxed);
        let write_amp_x100 = (store_pages_written * self.inner.params.page_size as u64 * 100)
            .checked_div(ingest_bytes)
            .unwrap_or(0);
        let wal_arena_allocs = self.inner.group.arena_allocs.load(Ordering::Relaxed);
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
            wal_arena_allocs,
        })
    }

    /// Forces every *acknowledged* WAL byte to disk and advances the
    /// synced horizon. Under [`Durability::Async`] this drains the
    /// in-flight window on demand (the syncer thread does the same
    /// continuously); under [`Durability::Fsync`] acknowledged writes
    /// are already durable and no fsync is issued.
    pub fn sync_wal(&self) -> Result<(), LiveError> {
        self.inner.group.sync_window()
    }

    /// Re-hashes every committed store page against its checksum table
    /// (see [`Store::scrub`]). On detected corruption the store keeps
    /// serving reads in forced-recheck degraded mode until a later
    /// scrub comes back clean.
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

    fn request_merge(&self, kind: MergeKind) -> Result<(), LiveError> {
        if self.inner.opts.background_merge {
            {
                let mut sig = self.inner.signal.lock().expect("signal mutex");
                match kind {
                    MergeKind::Overflow => sig.merge = true,
                    _ => sig.full = true,
                }
            }
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

    fn on_overflow(&self) -> Result<(), LiveError> {
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

fn worker_loop<const D: usize>(inner: Arc<LiveInner<D>>) {
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
                    match kind {
                        MergeKind::Overflow => sig.merge = true,
                        _ => sig.full = true,
                    }
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

/// Takes the exclusive advisory lock on `dir/LOCK`, refusing to share
/// the directory with any other live process: even "read-only" opens
/// truncate torn WAL tails and clean compaction temp files, which would
/// corrupt a concurrently running writer. The lock dies with the file
/// handle (process exit/crash included), so no stale-lock recovery is
/// needed.
fn acquire_dir_lock(dir: &Path) -> Result<std::fs::File, LiveError> {
    let lock = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(dir.join("LOCK"))?;
    match lock.try_lock() {
        Ok(()) => Ok(lock),
        Err(std::fs::TryLockError::WouldBlock) => Err(LiveError::Locked(dir.to_path_buf())),
        Err(std::fs::TryLockError::Error(e)) => Err(e.into()),
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
    /// Fresh WAL-encode buffer allocations (arena-pool misses); flat
    /// once the pool warms regardless of batch count.
    pub wal_arena_allocs: u64,
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

/// An immutable, point-in-time view of a [`LiveIndex`].
///
/// Queries fan out over the memtable copy, the sealed batch (if a merge
/// is in flight), and every component through the decode-free engine —
/// one shared [`QueryScratch`] across all of them — with tombstones
/// filtered by multiset subtraction. Holding a snapshot pins its
/// components' store pages; results are bit-stable no matter what the
/// live index does meanwhile.
pub struct LiveSnapshot<const D: usize> {
    memtable: Vec<Item<D>>,
    sealed: Option<Arc<Vec<Item<D>>>>,
    components: Vec<Arc<RTree<D>>>,
    tombstones: Arc<Tombstones<D>>,
    live: u64,
    seq: u64,
}

impl<const D: usize> LiveSnapshot<D> {
    /// Live item count at snapshot time.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// True when the snapshot holds no live items.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Highest acknowledged WAL sequence reflected in this snapshot.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of components in view.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// The components in view (read-only, test harness).
    #[doc(hidden)]
    pub fn components(&self) -> impl Iterator<Item = &RTree<D>> {
        self.components.iter().map(|c| c.as_ref())
    }

    /// Window query with caller-owned buffers (allocation-free when
    /// reused).
    pub fn window_into(
        &self,
        query: &Rect<D>,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<Item<D>>,
    ) -> Result<QueryStats, LiveError> {
        let t0 = std::time::Instant::now();
        let stats = fanout::window_into(
            &self.memtable,
            self.sealed.as_deref().map(|v| v.as_slice()),
            self.components.iter().map(|c| c.as_ref()),
            &self.tombstones,
            query,
            scratch,
            out,
        )?;
        crate::obs::metrics()
            .window_query_us
            .record_duration_us(t0.elapsed());
        Ok(stats)
    }

    /// Convenience window query.
    pub fn window(&self, query: &Rect<D>) -> Result<Vec<Item<D>>, LiveError> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.window_into(query, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// k-nearest-neighbors with caller-owned buffers: one
    /// [`KnnSearch`] over the whole snapshot. The memtable copy and the
    /// (tombstone-filtered) sealed batch are offered first — squared
    /// distances, no sort — so the k-th-distance bound is tight before
    /// the first page is touched; the components are then searched
    /// best-first as one forest under that bound. One
    /// [`TombstoneFilter`](pr_tree::dynamic::TombstoneFilter) spans the
    /// sealed batch and every component and is asked only about items
    /// that would otherwise be kept, which keeps the multiset
    /// subtraction exact (see `pr_tree::knn` for the argument) and costs
    /// no over-fetch as tombstones approach the compaction trigger.
    pub fn nearest_neighbors_into(
        &self,
        query: &Point<D>,
        k: usize,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<(Item<D>, f64)>,
    ) -> Result<QueryStats, LiveError> {
        let t0 = std::time::Instant::now();
        let mut search = KnnSearch::new(query, k, scratch);
        for item in &self.memtable {
            search.offer(item, |_| true);
        }
        let mut filter = self.tombstones.filter();
        for item in self.sealed.iter().flat_map(|s| s.iter()) {
            search.offer(item, |i| filter.admit(i));
        }
        let stats = search.run(
            self.components.len(),
            |c| Some(&*self.components[c]),
            |i| filter.admit(i),
            out,
        )?;
        crate::obs::metrics()
            .knn_query_us
            .record_duration_us(t0.elapsed());
        Ok(stats)
    }

    /// All live items (test helper; full scan).
    pub fn items(&self) -> Result<Vec<Item<D>>, LiveError> {
        Ok(fanout::items(
            &self.memtable,
            self.sealed.as_deref().map(|v| v.as_slice()),
            self.components.iter().map(|c| c.as_ref()),
            &self.tombstones,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A decide that finds its pinned structure stale re-counts under
    /// the sequencing lock, and that re-count builds no membership
    /// filter: the leaf scan stays off the lock that writers wait on.
    #[test]
    fn stale_decide_builds_no_filter_under_the_lock() {
        let dir = std::env::temp_dir()
            .join(format!("pr-live-index-{}", std::process::id()))
            .join("stale-decide");
        std::fs::remove_dir_all(&dir).ok();
        let opts = LiveOptions {
            buffer_cap: 16,
            background_merge: false,
            ..LiveOptions::default()
        };
        let ix = LiveIndex::<2>::create(&dir, TreeParams::with_cap::<2>(8), opts).unwrap();
        let items: Vec<Item<2>> = (0..200u32)
            .map(|i| {
                let (x, y) = (f64::from(i % 20), f64::from(i / 20));
                Item::new(Rect::xyxy(x, y, x + 0.5, y + 0.5), i)
            })
            .collect();
        ix.insert_batch(&items).unwrap();
        ix.flush().unwrap();
        let filter_bytes = || ix.stats().unwrap().filter_bytes;
        assert_eq!(filter_bytes(), 0, "insert-only");

        // Stored victims, one twice, and one that is not stored.
        let mut victims = vec![items[3], items[77], items[77], items[150]];
        victims.push(Item::new(items[5].rect, 9_999));
        {
            let _w = ix.inner.writer.lock();
            let core = ix.inner.core.read();
            assert!(core.memtable.is_empty() && !core.components.is_empty());
            // Off-lock counts taken against an older structure: all
            // wrong, so only the re-count can decide correctly.
            let probed = vec![0; victims.len()];
            let stale_epoch = core.structure_epoch.wrapping_sub(1);
            let (ops, any_tombstone) = core
                .decide(&victims, &probed, stale_epoch, &mut QueryScratch::new())
                .unwrap();
            let tombstoned: Vec<u32> = ops
                .iter()
                .map(|op| match op {
                    PendingApply::DeleteTomb(it) => it.id,
                    _ => panic!("memtable is empty"),
                })
                .collect();
            assert_eq!(tombstoned, [3, 77, 150]);
            assert!(any_tombstone);
            assert_eq!(
                core.components
                    .iter()
                    .map(|(c, _)| c.filter_bytes())
                    .sum::<usize>(),
                0,
                "a filter was built under the sequencing lock"
            );
        }
        assert_eq!(ix.delete_batch(&victims).unwrap(), 3);
        assert!(filter_bytes() > 0, "the off-lock probe builds them");
        drop(ix);
        std::fs::remove_dir_all(&dir).ok();
    }
}
