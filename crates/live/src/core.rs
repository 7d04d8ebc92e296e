//! The queryable state ([`Core`]) and the one delete decision.
//!
//! A delete lands the same way whether it is decided live or re-derived
//! by WAL replay: both paths count the victim's stored copies, decide
//! with [`Core::decide`] and apply the decided ops with
//! [`Core::apply_pending`]. Crash recovery depends on that equivalence.

use crate::error::LiveError;
use crate::wal::{WalOp, WalRecord};
use pr_geom::Item;
use pr_tree::dynamic::fanout::{self, FilterBuild, ProbeTally};
use pr_tree::dynamic::{ComponentSet, LooseItems, TombstoneKey, Tombstones};
use pr_tree::{QueryScratch, RTree};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A sequenced, WAL-enqueued logical op awaiting its group's
/// acknowledgment. Decisions (insert vs. memtable-delete vs. tombstone)
/// are final at enqueue time; the group leader replays them verbatim.
#[derive(Clone, Copy)]
pub(crate) enum PendingApply<const D: usize> {
    /// Insert into the memtable.
    Insert(Item<D>),
    /// Remove a memtable resident.
    DeleteMem(Item<D>),
    /// Tombstone a stored (sealed/component) copy.
    DeleteTomb(Item<D>),
}

impl<const D: usize> PendingApply<D> {
    /// This op's WAL record at `seq` — the one place a record is built
    /// from an op. Both delete variants log as [`WalOp::Delete`]: replay
    /// re-derives where the delete lands.
    pub(crate) fn record(self, seq: u64) -> WalRecord<D> {
        let (op, item) = match self {
            PendingApply::Insert(item) => (WalOp::Insert, item),
            PendingApply::DeleteMem(item) | PendingApply::DeleteTomb(item) => (WalOp::Delete, item),
        };
        WalRecord { seq, op, item }
    }
}

/// The queryable state, swapped atomically under the core write lock.
pub(crate) struct Core<const D: usize> {
    /// The memtable: acknowledged writes not yet sealed, as `Arc`'d
    /// chunks in leaf-record layout that queries scan like leaves. A
    /// delete of a memtable resident removes it directly and needs no
    /// tombstone, which is why queries never filter the memtable. A
    /// snapshot shares the chunks, and a later write copies only the
    /// chunk it changes.
    pub(crate) memtable: LooseItems<D>,
    /// A sealed (immutable) memtable awaiting its merge.
    pub(crate) sealed: Option<Arc<LooseItems<D>>>,
    /// Geometric component slots, each a store-backed, warmed tree and
    /// its stable store component id (unchanged across commits that
    /// reuse the run in place). Merges commit surviving slots by that id
    /// as in-place run references — no page rewrite.
    pub(crate) components: ComponentSet<(Arc<RTree<D>>, u64)>,
    /// Dead identities among sealed + components (never the memtable).
    /// A delete adds through `Arc::make_mut`, so while a snapshot or a
    /// merge's cut pins the set, the first delete copies it (a `Vec`
    /// copy of the key-ordered run, plus the delta) and later ones
    /// mutate the copy.
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

impl<const D: usize> Core<D> {
    /// Counts stored copies (sealed batch + every component) of `item`'s
    /// exact bit identity — the copies-vs-tombstones liveness probe,
    /// against this core's current structure. The off-lock delete path
    /// runs the same [`fanout::count_stored_copies`] against a pinned
    /// structure instead; replay and the stale re-probe call this.
    pub(crate) fn stored_copies(
        &self,
        item: &Item<D>,
        build: FilterBuild,
        scratch: &mut QueryScratch<D>,
        tally: &mut ProbeTally,
    ) -> Result<u64, LiveError> {
        Ok(fanout::count_stored_copies(
            self.sealed.as_deref(),
            self.components.iter().map(|(t, _)| t.as_ref()),
            item,
            build,
            scratch,
            tally,
        )?)
    }

    /// Pops and applies the oldest `n` pending ops — the group leader's
    /// step, run under the core write lock after the group's WAL write
    /// is acknowledged. Ops apply in sequence order (enqueue order); each
    /// run of consecutive inserts enters the memtable as one run, so a
    /// batch of at least a chunk is tiled ([`LooseItems::extend`]).
    pub(crate) fn apply_pending(&mut self, n: usize) {
        let mut run = Vec::new();
        for _ in 0..n {
            match self.pending.pop_front().expect("pending ops underflow") {
                PendingApply::Insert(it) => run.push(it),
                PendingApply::DeleteMem(it) => {
                    self.insert_run(&mut run);
                    let removed = self.memtable.remove(&it);
                    debug_assert!(removed, "decision said memtable");
                    self.live -= 1;
                }
                PendingApply::DeleteTomb(it) => {
                    self.insert_run(&mut run);
                    Arc::make_mut(&mut self.tombstones).add(&it);
                    self.live -= 1;
                }
            }
        }
        self.insert_run(&mut run);
    }

    /// Moves a run of inserts (emptied) into the memtable.
    fn insert_run(&mut self, run: &mut Vec<Item<D>>) {
        self.memtable.extend(run);
        self.live += run.len() as u64;
        run.clear();
    }

    /// What a delete batch may claim, per distinct victim identity,
    /// in the serial-equivalent view: the applied state plus every
    /// enqueued-but-unapplied op (`pending`). Returns one share per
    /// distinct identity and, per victim, the index of its share. Each
    /// distinct identity's memtable copies are counted in the chunks
    /// whose MBR contains it, and `pending` is passed over once, so the
    /// cost is O(pending + batch · chunks met) whatever the batch size.
    pub(crate) fn claimable(&self, victims: &[Item<D>]) -> (Vec<Claimable>, Vec<usize>) {
        let mut index: HashMap<TombstoneKey<D>, usize> = HashMap::with_capacity(victims.len());
        let mut shares: Vec<Claimable> = Vec::with_capacity(victims.len());
        let share_of = victims
            .iter()
            .map(|v| {
                *index.entry(TombstoneKey::of(v)).or_insert_with(|| {
                    let mem = self.memtable.count_identical(v) as i64;
                    let dead = u64::from(self.tombstones.count(v));
                    shares.push(Claimable { mem, dead });
                    shares.len() - 1
                })
            })
            .collect();
        let mut bump = |item: &Item<D>, f: fn(&mut Claimable)| {
            if let Some(&i) = index.get(&TombstoneKey::of(item)) {
                f(&mut shares[i]);
            }
        };
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

    /// Replays a WAL tail — the records past the manifest's cut, in
    /// order — through the live path's own steps. Each run of inserts
    /// enters the memtable as one run, as the group leader applies it.
    /// Each run of deletes is probed, decided by [`Core::decide`] and
    /// applied by [`Core::apply_pending`], so every delete lands where
    /// it landed before the crash.
    pub(crate) fn replay(&mut self, records: &[WalRecord<D>]) -> Result<(), LiveError> {
        let mut scratch = QueryScratch::new();
        let mut tally = ProbeTally::default();
        let mut run = Vec::new();
        for ops in records.chunk_by(|a, b| a.op == b.op) {
            run.extend(ops.iter().map(|r| r.item));
            match ops[0].op {
                WalOp::Insert => self.insert_run(&mut run),
                WalOp::Delete => {
                    let probed = run
                        .iter()
                        .map(|v| self.stored_copies(v, FilterBuild::Lazy, &mut scratch, &mut tally))
                        .collect::<Result<Vec<u64>, _>>()?;
                    let (decided, _) =
                        self.decide(&run, &probed, self.structure_epoch, &mut scratch)?;
                    let n = decided.len();
                    self.pending.extend(decided);
                    self.apply_pending(n);
                    run.clear();
                }
            }
        }
        if let Some(last) = records.last() {
            self.durable_seq = last.seq;
        }
        crate::obs::record_probe(&tally);
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LiveIndex, LiveOptions};
    use pr_geom::Rect;
    use pr_tree::TreeParams;

    /// A decide that finds its pinned structure stale re-counts under
    /// the sequencing lock, and that re-count builds no membership
    /// filter: the leaf scan stays off the lock that writers wait on.
    #[test]
    fn stale_decide_builds_no_filter_under_the_lock() {
        // File I/O in this binary stays out of another test's fault count.
        let _hook = pr_em::fault::exclusive();
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
