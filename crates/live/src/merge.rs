//! The geometric merge: seal → build → cut → commit → swap (→ prune).
//!
//! A merge turns the sealed memtable batch plus the occupied low slots
//! into one freshly bulk-loaded PR-tree, then commits the **entire**
//! post-merge component set through `pr-store` in one atomic step
//! (pages, then live manifest, then superblock flip — fsynced in that
//! order); WAL segments are pruned only after that, and only by a
//! merge whose cut rotated. Plan, drain and install are the
//! [`ComponentSet`](pr_tree::dynamic::ComponentSet)'s, as in `LprTree`;
//! the phases around them and what they hold are this module's:
//!
//! 1. **Seal** (`writer` + `core` write, O(1)): quiesce the commit
//!    queue (every assigned seq applied — no new seqs can appear while
//!    `writer` is held), then move the memtable into the immutable
//!    `sealed` slot, chunks and all; a fresh memtable keeps taking
//!    writes.
//! 2. **Plan** (`core` read, O(components)): plan the merge, clone Arcs
//!    of its inputs and the tombstone set.
//! 3. **Build** (no locks — the long part): drain sealed batch + inputs,
//!    dropping items dead in the tombstone snapshot (recording what was
//!    *consumed*), bulk-load the union. Readers and writers proceed
//!    untouched.
//! 4. **Cut** (`writer`, O(memtable)): quiesce the commit queue again
//!    (drain, and fsync whatever no group fsync covers yet — a segment
//!    must be complete and durable before the log rotates past it,
//!    which is also what makes `flush()` drain the async in-flight
//!    window), fix `cut_seq`, and snapshot {memtable, post-merge
//!    layout} for the manifest and pin the tombstone set's `Arc`, which
//!    is exact: every seq ≤ `cut_seq` is applied by then. The
//!    manifest's tombstones − consumed (a copy, then one linear merge:
//!    [`Tombstones::subtract`](pr_tree::dynamic::Tombstones::subtract))
//!    are built after the lock is released, and the pin is dropped
//!    before the commit starts, so writers' deletes meanwhile copy the
//!    set at most once. A checkpoint
//!    (`Force` / `Full`) rotates the WAL here, so every assigned seq ≤
//!    `cut_seq` sits in old segments; an `Overflow` merge rotates only
//!    once the segment is full ([`crate::wal::SEGMENT_ROTATE_BYTES`])
//!    and otherwise leaves records on both sides of the cut in one
//!    segment — replay tells them apart by `seq`, not by file. The
//!    lock is released immediately: writers keep appending (seqs past
//!    the cut, covered by replay) for the whole commit.
//! 5. **Commit** (`store` lock only): write the snapshot whose manifest
//!    checkpoints the cut, fsync, flip the superblock; open + warm the
//!    freshly written component. Readers *and writers* run throughout.
//!    It starts at the fault mark `merge.commit`: a
//!    [`die_at`](pr_em::fault::FaultSchedule::die_at) there leaves the
//!    cut (and any rotation) on disk and the old manifest in force.
//! 6. **Swap + prune** (`writer`, then briefly `core` write): install
//!    the merge, clear the sealed batch, and subtract exactly
//!    the consumed tombstones from the *current* set — deletes recorded
//!    while the commit ran are thereby preserved. If the cut rotated,
//!    delete the WAL segments below the rotation. It starts at the mark
//!    `merge.swap`: dying there leaves the flipped manifest and the
//!    unpruned segments.
//!
//! **Incremental commits:** phase 5 rewrites only what changed. Every
//! *surviving* component is committed as an in-place run reference —
//! the store's manifest points at its existing pages under the same
//! stable component id, and the open `RTree` (devices, pinned mmap,
//! verify-once CRC bitmap) is carried across the swap untouched —
//! while the merged target is the only component whose pages are
//! appended. Bytes written per merge are therefore
//! O(new component); sustained ingest pays the geometric policy's
//! O(levels) amortized write amplification instead of O(index size).
//! Superseded runs are *not* reused in place: their bytes accrue as
//! garbage ([`pr_store::Store::garbage_bytes`]) until an explicit
//! [`crate::LiveIndex::compact`] /
//! [`crate::LiveIndex::compact_if_garbage`] — which keep full-rewrite
//! semantics (fresh file, atomic rename) — reclaims them.
//!
//! Crash anywhere before the superblock flip → the old manifest + the
//! segments on disk replay everything acknowledged. Crash after the
//! flip → the new manifest's `cut_seq` filters whatever the log still
//! holds at or below it: not-yet-pruned old segments, and the covered
//! head of a segment the cut did not rotate away from.

use crate::error::LiveError;
use crate::index::LiveInner;
use crate::manifest::LiveManifest;
use pr_em::{fault, fsync_dir, BlockDevice, MemDevice, Record};
use pr_obs::trace;
use pr_store::{CommitComponent, Store};
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::BulkLoader;
use pr_tree::dynamic::{components, LooseItems, MergePlan, Tombstones};
use pr_tree::{Entry, RTree};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What kind of merge to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MergeKind {
    /// The memtable reached its cap: seal (if at cap) and merge into the
    /// geometric target slot.
    Overflow,
    /// Seal whatever the memtable holds (any size) and merge it — the
    /// explicit `flush()` path. Commits a pure checkpoint (no component
    /// changes) when only tombstones/memtable are ahead of the manifest,
    /// so `flush()` always leaves the WAL prunable.
    Force,
    /// Merge *everything* (sealed + all components) into one tree,
    /// absorbing every tombstone. `reclaim` additionally rewrites the
    /// store into a fresh file (atomic rename) to return the space of
    /// superseded snapshots.
    Full { reclaim: bool },
}

pub(crate) fn run_merge<const D: usize>(
    inner: &LiveInner<D>,
    kind: MergeKind,
) -> Result<(), LiveError> {
    let _serialize = inner.maintenance.lock();
    let merge_start = std::time::Instant::now();
    let reclaim = matches!(kind, MergeKind::Full { reclaim: true });
    // This merge's trace (sampled): one span per merge phase, plus the
    // store layer's commit spans, recorded on this thread in phase 5.
    let op = trace::start(if reclaim { "compaction" } else { "merge" });
    pr_obs::events().emit("merge_start", format!("kind={kind:?}"));

    // Phase 1: seal the memtable (if this merge wants it). Quiesce
    // first: with the sequencing lock held no new seqs can be assigned,
    // and waiting for every assigned op to be applied ensures the
    // memtable is complete before it freezes (an enqueued DeleteMem
    // must find its resident; an enqueued insert must not miss the
    // seal and then double-apply after it).
    {
        let t_seal = trace::span_start();
        let mut sealed_items = 0usize;
        let w = inner.writer.lock();
        inner.group.wait_applied(w.next_seq.saturating_sub(1))?;
        let mut core = inner.core.write();
        if core.sealed.is_none() {
            let should = match kind {
                MergeKind::Overflow => core.memtable.len() >= core.components.buffer_cap(),
                MergeKind::Force | MergeKind::Full { .. } => !core.memtable.is_empty(),
            };
            if should {
                let batch = std::mem::take(&mut core.memtable);
                sealed_items = batch.len();
                let m = crate::obs::metrics();
                m.memtable_seals.inc();
                m.memtable_items.set(0);
                pr_obs::events().emit("memtable_seal", format!("items={}", batch.len()));
                core.sealed = Some(Arc::new(batch));
                // "Stored" now covers the batch: off-lock delete probes
                // pinned before this seal are stale.
                core.structure_epoch += 1;
            }
        }
        drop(core);
        drop(w);
        if sealed_items > 0 {
            // Write-amp denominator: bytes of user data leaving the
            // memtable for durable storage.
            inner.ingest_bytes.fetch_add(
                sealed_items as u64 * Entry::<D>::SIZE as u64,
                Ordering::Relaxed,
            );
        }
        trace::span_since("live", "seal", t_seal, format_args!("items={sealed_items}"));
    }

    // Phase 2: plan; pin the inputs and tombstones for the drain.
    let (sealed, plan, inputs, t_snap) = {
        let core = inner.core.read();
        let sealed = core.sealed.clone();
        let plan = match (kind, &sealed) {
            (MergeKind::Overflow | MergeKind::Force, Some(batch)) => {
                core.components.plan(batch.len() as u64)
            }
            (MergeKind::Overflow | MergeKind::Force, None) => {
                // No batch to merge. An Overflow request is simply done;
                // a Force (flush) must still checkpoint any acknowledged
                // ops the manifest doesn't cover — tombstone-only
                // deletes leave the memtable empty but the WAL
                // non-prunable.
                if matches!(kind, MergeKind::Overflow) || core.merged_seq == core.durable_seq {
                    return Ok(());
                }
                MergePlan::default()
            }
            (MergeKind::Full { .. }, _) => {
                if sealed.is_none()
                    && core.components.is_empty()
                    && !reclaim
                    && core.merged_seq == core.durable_seq
                {
                    return Ok(()); // nothing to compact or checkpoint
                }
                core.components.plan_full()
            }
        };
        let inputs: Vec<(usize, Arc<RTree<D>>)> = core
            .components
            .inputs(&plan)
            .map(|(slot, (tree, _))| (slot, Arc::clone(tree)))
            .collect();
        (sealed, plan, inputs, Arc::clone(&core.tombstones))
    };

    // Phase 3: drain and build the merged component off-lock.
    let (items, consumed) = components::drain(
        sealed.as_deref().unwrap_or(&LooseItems::new()),
        inputs.iter().map(|(slot, tree)| (*slot, tree.as_ref())),
        &t_snap,
    )?;
    drop(t_snap);
    let n_items = items.len();
    let new_tree: Option<RTree<D>> = if items.is_empty() {
        None
    } else {
        let t_build = trace::span_start();
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(inner.params.page_size));
        let tree = PrTreeLoader::default().load(dev, inner.params, items)?;
        trace::span_since(
            "tree",
            "bulk_load",
            t_build,
            format_args!("items={n_items}"),
        );
        Some(tree)
    };

    // Phase 4: the cut. Brief writer lock: quiesce the commit pipeline
    // — every assigned seq written + applied, then the segment fsynced
    // where no group fsync covers it yet (recovery treats damage in a
    // non-newest segment as corruption, not a torn tail, so rotation
    // must only ever leave complete, durable segments behind; this is
    // also what drains the async in-flight window on flush) — rotate if
    // this cut is a checkpoint or the segment is full, snapshot the
    // manifest state and pin the tombstones at the cut; then release so
    // writers run during the commit.
    let t_cut = trace::span_start();
    let (cut_seq, rotated, target, layout, cut_tombstones, memtable_snapshot) = {
        let w = inner.writer.lock();
        inner.group.wait_applied(w.next_seq.saturating_sub(1))?;
        inner.group.sync_window()?;
        let rotated = {
            let mut wal = inner.group.wal.lock().expect("wal mutex");
            let rotated = !matches!(kind, MergeKind::Overflow) || wal.segment_full();
            if rotated {
                wal.rotate()?;
            }
            rotated
        };
        let cut_seq = w.next_seq - 1;
        let core = inner.core.read();
        // Where the merged tree lands; `None` when the merge produced no
        // items (a pure checkpoint or an all-dead merge).
        let target = core.components.target(&plan, n_items);
        // The commit plan in ascending slot order, the order the
        // manifest, the store's runs and `components_with` share:
        // survivors by their stable ids, the target as the one new run.
        let layout: Vec<(u32, Option<u64>)> = core
            .components
            .after_merge(&plan, target)
            .into_iter()
            .map(|(slot, kept)| (slot as u32, kept.map(|&(_, id)| id)))
            .collect();
        (
            cut_seq,
            rotated,
            target,
            layout,
            Arc::clone(&core.tombstones),
            core.memtable.to_vec(),
        )
    };
    trace::span_since(
        "live",
        "cut",
        t_cut,
        format_args!("cut_seq={cut_seq} rotated={rotated}"),
    );
    let slots: Vec<u32> = layout.iter().map(|&(slot, _)| slot).collect();
    let comps: Vec<CommitComponent<'_, D>> = layout
        .iter()
        .map(|&(_, kept)| match kept {
            Some(id) => CommitComponent::Reuse(id),
            None => CommitComponent::New(new_tree.as_ref().expect("the target holds the merge")),
        })
        .collect();
    // Off the lock: the cut's tombstones minus this merge's. The pin
    // goes first, so deletes during the commit mutate the set in place.
    let mut tombstones = Tombstones::clone(&cut_tombstones);
    drop(cut_tombstones);
    tombstones.subtract(&consumed);
    let app = LiveManifest {
        wal_seq: cut_seq,
        slots: slots.clone(),
        tombstones,
        memtable: memtable_snapshot,
    }
    .encode();

    // Phase 5: commit, with no writer lock held — inserts and deletes
    // acknowledged during this window carry seqs past the cut and are
    // covered by WAL replay; the next merge picks them up.
    fault::mark("merge.commit")?;
    // The store records its own spans (commit, fsync_body, fsync_flip,
    // store_open) into this merge's trace.
    let t_commit = trace::span_start();
    // `merged` is what the swap installs in the target slot: the open
    // tree and its stable store id.
    let (pages_written, pages_reused, merged) = {
        let mut store = inner.store.lock();
        let (written, reused) = if reclaim {
            // Compaction keeps full-rewrite semantics: the snapshot is
            // written into a fresh file renamed over the old one, so
            // superseded runs' space is reclaimed; pinned readers keep
            // the unlinked inode alive. A full merge drains every slot,
            // so the merged tree (if any) is the whole snapshot.
            debug_assert!(layout.iter().all(|&(_, kept)| kept.is_none()));
            let refs: Vec<&RTree<D>> = new_tree.iter().collect();
            let tmp = inner.dir.join("index.prt.tmp");
            let mut fresh = Store::create::<D>(&tmp, inner.params)?;
            fresh.save_components(&refs, &app)?;
            drop(fresh);
            std::fs::rename(&tmp, inner.dir.join("index.prt"))?;
            fsync_dir(&inner.dir)?;
            *store = Store::open(&inner.dir.join("index.prt"))?;
            crate::obs::metrics().compactions.inc();
            pr_obs::events().emit(
                "compaction",
                format!("cut_seq={cut_seq} components={}", refs.len()),
            );
            let written = store.component_runs().iter().map(|r| r.num_pages).sum();
            (written, 0)
        } else {
            // Incremental commit: surviving runs stay exactly where
            // they are — pages, checksum tables, and verify-once
            // bitmaps referenced, not copied — and their already-open
            // trees (devices, pinned mmap, warmed caches) stay in their
            // slots untouched. Only the merged target's pages are
            // appended.
            let outcome = store.commit_components(&comps, &app)?;
            (outcome.pages_written, outcome.pages_reused)
        };
        // Only the freshly written component is opened and warmed.
        let merged = match target {
            Some(t) => {
                let i = slots
                    .iter()
                    .position(|&slot| slot as usize == t)
                    .expect("the target is committed");
                let tree = store.component_with::<D>(i, inner.opts.read_path())?;
                tree.warm_cache()?;
                Some((t, (Arc::new(tree), store.component_runs()[i].id)))
            }
            None => None,
        };
        (written, reused, merged)
    };
    inner
        .merge_pages_written
        .fetch_add(pages_written, Ordering::Relaxed);
    inner
        .merge_pages_reused
        .fetch_add(pages_reused, Ordering::Relaxed);
    if let Some(x100) = inner.write_amp_x100() {
        crate::obs::metrics().write_amp.set(x100);
    }
    trace::span_since(
        "store",
        "commit_snapshot",
        t_commit,
        format_args!(
            "components={} written={pages_written} reused={pages_reused} reclaim={reclaim}",
            slots.len()
        ),
    );
    fault::mark("merge.swap")?;

    // Phase 6: swap + prune. The tombstone set is re-derived from the
    // *current* set minus what this merge consumed (one linear merge,
    // which also folds its delta into its run), so deletes recorded
    // during the commit window survive the swap. (Ops still pending in
    // the commit queue are untouched: their liveness decisions hold
    // across the swap because a merge preserves per-identity stored-copy
    // and tombstone counts.)
    let _w = inner.writer.lock();
    let t_swap = trace::span_start();
    {
        let mut core = inner.core.write();
        core.components.install(&plan, merged);
        core.sealed = None;
        Arc::make_mut(&mut core.tombstones).subtract(&consumed);
        core.merged_seq = cut_seq;
        core.merges += 1;
        core.structure_epoch += 1;
    }
    trace::span_since("live", "swap", t_swap, format_args!(""));
    // The manifest at cut_seq is durable; segments below this cut's
    // rotation hold nothing newer than cut_seq. Without a rotation there
    // is nothing new to prune.
    if rotated {
        let t_prune = trace::span_start();
        let mut wal = inner.group.wal.lock().expect("wal mutex");
        wal.prune_old()?;
        drop(wal);
        trace::span_since("live", "wal_prune", t_prune, format_args!(""));
    }
    let elapsed = merge_start.elapsed();
    let m = crate::obs::metrics();
    m.merges.inc();
    m.merge_us.record_duration_us(elapsed);
    let summary = format!(
        "cut_seq={cut_seq} components={} written={pages_written} reused={pages_reused}",
        slots.len()
    );
    pr_obs::events().emit_timed("merge_commit", summary.clone(), elapsed);
    op.finish(format_args!("{summary}"));
    Ok(())
}
