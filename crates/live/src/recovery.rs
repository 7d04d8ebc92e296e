//! Opening an index: create, open, the directory lock, and
//! `assemble`, which arranges the store's components into their slots
//! and replays the WAL past the manifest's cut.

use crate::commit::GroupCommit;
use crate::core::Core;
use crate::error::LiveError;
use crate::index::{LiveIndex, LiveInner, WriterState};
use crate::maintenance::{worker_loop, Signal};
use crate::manifest::LiveManifest;
use crate::options::{Durability, LiveOptions};
use crate::wal::{Wal, WalRecord};
use parking_lot::{Mutex, RwLock};
use pr_store::Store;
use pr_tree::dynamic::{ComponentSet, LooseItems};
use pr_tree::TreeParams;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex as StdMutex};

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
        // The replay trace begins before the store opens, so it holds
        // `store/store_open`; it is published only when the WAL holds
        // records.
        let replay = pr_obs::trace::start("wal_replay");
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
            let t_manifest = pr_obs::trace::span_start();
            let manifest = LiveManifest::<D>::decode(app)?;
            pr_obs::trace::span_since(
                "live",
                "manifest",
                t_manifest,
                format_args!(
                    "tombstones={} memtable={}",
                    manifest.tombstones.entries().len(),
                    manifest.memtable.len()
                ),
            );
            manifest
        };
        let (wal, records) = Wal::open::<D>(dir)?;
        let cut_seq = manifest.wal_seq;
        let last_seq = records.last().map(|rec| rec.seq.max(cut_seq));
        let ix = Self::assemble(dir, params, opts, store, wal, manifest, records, lock)?;
        if let Some(recovered_seq) = last_seq {
            replay.finish(format_args!(
                "cut_seq={cut_seq} recovered_seq={recovered_seq}"
            ));
        }
        Ok(ix)
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
        mut records: Vec<WalRecord<D>>,
        lock: std::fs::File,
    ) -> Result<Self, LiveError> {
        // Components out of the store, arranged into their slots.
        let trees = store.components_with::<D>(opts.read_path())?;
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

        let mut memtable = LooseItems::new();
        memtable.extend(&manifest.memtable);
        let held = components.stored() + memtable.len() as u64;
        let Some(live) = held.checked_sub(manifest.tombstones.total()) else {
            return Err(LiveError::Corrupt(format!(
                "live manifest holds {} tombstones against {held} stored and memtable copies",
                manifest.tombstones.total()
            )));
        };
        let mut core = Core {
            memtable,
            sealed: None,
            components,
            tombstones: Arc::new(manifest.tombstones),
            pending: VecDeque::new(),
            structure_epoch: 0,
            live,
            durable_seq: manifest.wal_seq,
            merged_seq: manifest.wal_seq,
            merges: 0,
        };

        // WAL replay: everything past the manifest's cut, in order.
        let t_replay = pr_obs::trace::span_start().filter(|_| !records.is_empty());
        records.retain(|rec| rec.seq > manifest.wal_seq);
        core.replay(&records)?;
        let replayed = records.len();
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
        pr_obs::trace::span_since(
            "live",
            "replay",
            t_replay,
            format_args!("records={replayed}"),
        );

        let recovered_seq = core.durable_seq;
        let inner = Arc::new(LiveInner {
            dir: dir.to_path_buf(),
            params,
            opts,
            writer: Mutex::new(WriterState {
                next_seq: recovered_seq + 1,
            }),
            group: GroupCommit::new(wal, recovered_seq),
            core: RwLock::new(core),
            store: Mutex::new(store),
            maintenance: Mutex::new(()),
            signal: StdMutex::new(Signal::default()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use pr_geom::{Item, Rect};
    use pr_tree::dynamic::TombstoneKey;

    /// A manifest that decodes cleanly but holds more tombstones than
    /// stored and memtable copies is corrupt: the live count would wrap.
    #[test]
    fn a_manifest_with_surplus_tombstones_is_corrupt() {
        // File I/O in this binary stays out of another test's fault count.
        let _hook = pr_em::fault::exclusive();
        let dir = std::env::temp_dir()
            .join(format!("pr-live-index-{}", std::process::id()))
            .join("surplus-tombstones");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let params = TreeParams::with_cap::<2>(8);
        let item = Item::new(Rect::xyxy(1.0, 1.0, 2.0, 2.0), 7);
        // One memtable copy of `item` and `dead` tombstones for it.
        let assemble = |dead: u32| {
            let lock = acquire_dir_lock(&dir).unwrap();
            let store = Store::create::<2>(&dir.join("index.prt"), params).unwrap();
            let wal = Wal::create(&dir).unwrap();
            let manifest = LiveManifest {
                memtable: vec![item],
                tombstones: [(TombstoneKey::of(&item), dead)].into_iter().collect(),
                ..LiveManifest::default()
            };
            LiveIndex::assemble(
                &dir,
                params,
                LiveOptions::default(),
                store,
                wal,
                manifest,
                Vec::new(),
                lock,
            )
        };
        match assemble(2) {
            Err(LiveError::Corrupt(msg)) => assert!(msg.contains("2 tombstones"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|ix| ix.len())),
        }
        let ix = assemble(0).unwrap();
        assert_eq!(ix.len(), 1);
        drop(ix);
        std::fs::remove_dir_all(&dir).ok();
    }
}
