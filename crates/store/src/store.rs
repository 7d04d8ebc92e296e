//! Store lifecycle: create, save (commit), open, verify.
//!
//! # Incremental commits
//!
//! Since format v2 a snapshot is a set of **component page runs**
//! ([`ComponentRun`]): each component's pages live in their own
//! contiguous region with run-relative page ids (root = page 0) and
//! their own CRC table. A commit ([`Store::commit_components`]) takes a
//! mix of [`CommitComponent::New`] trees — BFS-copied into freshly
//! appended pages — and [`CommitComponent::Reuse`] references to
//! components of the *current* snapshot, whose pages stay exactly where
//! they are. Only new pages, their tables, the manifest, and the footer
//! are written, so a merge that replaces the small levels of an index
//! costs O(pages of merged components), not O(index).
//!
//! Because a reused run's bytes, offsets, and page ids are identical
//! across epochs, everything pinned to it survives the commit: the
//! shared mmap (the new mapping covers a superset of the old), the
//! verify-once bitmap (carried forward, so pages proven once stay
//! proven), and any `RTree` handle opened on it. Space freed by
//! dropped components is reclaimed only by an explicit full rewrite
//! (`pr-live`'s `compact()`), which the [`Store::garbage_bytes`]
//! accounting makes an informed decision about.
//!
//! The legacy single-tree [`Store::save`] path remains a full rewrite
//! (one `New` component, no manifest record).

use crate::crc::crc32;
use crate::device::{ScrubReport, StoreDevice, VerifiedBitmap};
use crate::error::StoreError;
use crate::format::{ComponentRun, Footer, ManifestRecord, Superblock};
use pr_em::{BlockDevice, BlockId, Mmap, PositionedFile};
use pr_tree::page::remap_children;
use pr_tree::writer::page_ptr;
use pr_tree::{RTree, TreeMeta, TreeParams};
use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::path::Path;
use std::sync::Arc;

/// How a reopened tree's device reads the snapshot. See
/// [`crate::device`] for the full design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPath {
    /// mmap the snapshot region (positioned-read fallback where
    /// unavailable) and verify each page's CRC **once**, on first touch,
    /// through a bitmap shared by every handle of this snapshot. The
    /// default, and the fast path.
    #[default]
    ZeroCopy,
    /// Positioned `read_at` into a caller buffer with a full CRC32 check
    /// on **every** read — the pre-zero-copy behavior, retained as a
    /// paranoid mode and as prbench's `store.recheck_ns_per_leaf`
    /// baseline.
    Recheck,
}

/// One component a commit is made of: either a tree whose pages are
/// appended by this commit, or the id of a current-snapshot component
/// whose existing page run is referenced in place.
pub enum CommitComponent<'a, const D: usize> {
    /// BFS-copy this tree into freshly appended pages.
    New(&'a RTree<D>),
    /// Keep the identified current component's pages where they are.
    /// The id must name a component of the active snapshot.
    Reuse(u64),
}

/// What a commit did, for write-amplification accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Pages appended by this commit (new components only).
    pub pages_written: u64,
    /// Pages referenced in place (reused components).
    pub pages_reused: u64,
    /// Component id of every committed component, in commit order.
    /// Reused components keep their id; new ones get a fresh one.
    pub component_ids: Vec<u64>,
}

/// Per-component read-path state: the run's location plus the shared
/// checksum table and verify-once bitmap every device of this run uses.
/// Reused runs carry these `Arc`s across commits, so pages proven once
/// stay proven for the component's whole lifetime.
#[derive(Clone)]
struct RunState {
    run: ComponentRun,
    checksums: Arc<Vec<u32>>,
    verified: Arc<VerifiedBitmap>,
}

/// A durable index file. See the crate docs for the format and commit
/// protocol.
pub struct Store {
    file: Arc<PositionedFile>,
    /// Slot (0 or 1) holding the active superblock; `save` writes the
    /// other one.
    active_slot: usize,
    sb: Superblock,
    /// Per-component state of the active snapshot, in manifest order
    /// (one synthetic entry for a legacy single-tree snapshot; empty
    /// when no snapshot).
    runs: Vec<RunState>,
    /// Shared mapping of the file prefix covering every run (`None`
    /// off-unix, on mapping failure, or when there is no snapshot).
    /// Devices clone the `Arc`, so pinned readers outlive later commits
    /// and renames.
    map: Option<Arc<Mmap>>,
    /// Multi-component manifest of the active snapshot, when present.
    manifest: Option<ManifestRecord>,
    /// Next component id to assign (monotone within this handle; seeded
    /// past the largest committed id at open).
    next_component_id: u64,
    /// Shared degraded flag (see [`StoreDevice`]): set by any handle or
    /// scrub that catches corruption; while set, every read re-hashes.
    /// Lives for the whole `Store` (not per snapshot): once rot is seen,
    /// paranoia persists until a clean scrub clears it.
    degraded: Arc<std::sync::atomic::AtomicBool>,
    /// True when the backing file could only be opened for reading
    /// (read-only permissions or filesystem). Queries work; `save` is a
    /// typed error.
    read_only: bool,
}

impl Store {
    /// Creates (truncating) a new, empty store for `D`-dimensional trees
    /// with the given parameters. The store's block size is the params'
    /// page size; `save` insists every tree matches it.
    pub fn create<const D: usize>(path: &Path, params: TreeParams) -> Result<Store, StoreError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let file = Arc::new(PositionedFile::new(file));
        let sb = Superblock {
            block_size: params.page_size as u32,
            epoch: 0,
            dim: D as u32,
            meta: TreeMeta {
                params,
                root: 0,
                root_level: 0,
                len: 0,
            },
            num_pages: 0,
            data_offset: 0,
            table_offset: 0,
            footer_offset: 0,
            table_crc: 0,
            manifest_offset: 0,
            manifest_len: 0,
        };
        // Both slots start at epoch 0 so either survives losing the other.
        write_superblock(&file, 0, &sb)?;
        write_superblock(&file, 1, &sb)?;
        file.sync_data()?;
        Ok(Store {
            file,
            active_slot: 0,
            sb,
            runs: Vec::new(),
            map: None,
            manifest: None,
            next_component_id: 1,
            degraded: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            read_only: false,
        })
    }

    /// Opens an existing store, recovering the newest committed state.
    ///
    /// Both superblock slots are decoded; candidates are tried newest
    /// epoch first, and each must prove its snapshot intact (footer
    /// record present and self-consistent, the commit's newly written
    /// checksum table matching its committed CRC, and **every**
    /// component run — reused ones included — matching its per-run
    /// table CRC) before it is accepted. A save torn anywhere before
    /// its superblock flip therefore falls back to the previous
    /// committed snapshot; a store with no intact state at all is a
    /// typed error, never a panic.
    ///
    /// A file that cannot be opened for writing (read-only permissions
    /// or media) opens read-only: queries and verification work,
    /// [`Store::save`] returns [`StoreError::ReadOnly`].
    pub fn open(path: &Path) -> Result<Store, StoreError> {
        // Recorded into this thread's innermost open trace (a live-dir
        // open's `wal_replay`, a compaction, `prtree slow`'s scrub).
        let mut open_span = pr_obs::trace::span("store", "store_open");
        let (file, read_only) = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(f) => (f, false),
            Err(rw_err) => match OpenOptions::new().read(true).open(path) {
                Ok(f) => (f, true),
                Err(_) => return Err(rw_err.into()),
            },
        };
        let file = Arc::new(PositionedFile::new(file));
        let mut slot_states: [Option<Superblock>; 2] = [None, None];
        let mut decode_errors: Vec<StoreError> = Vec::new();
        for (slot, state) in slot_states.iter_mut().enumerate() {
            let mut buf = vec![0u8; Superblock::ENCODED_SIZE];
            file.read_exact_or_zero_at(&mut buf, Superblock::slot_offset(slot))?;
            match Superblock::decode(&buf) {
                Ok(sb) => *state = Some(sb),
                Err(e) => decode_errors.push(e),
            }
        }
        if slot_states.iter().all(|s| s.is_none()) {
            // Prefer the most specific story: a version error beats
            // "not a store", which beats generic corruption.
            let mut best = StoreError::NoValidSuperblock;
            for e in decode_errors {
                best = match (&e, &best) {
                    (StoreError::UnsupportedVersion(_), _) => e,
                    (StoreError::BadMagic, StoreError::NoValidSuperblock) => e,
                    _ => best,
                };
            }
            return Err(best);
        }
        // Candidate slots, newest epoch first. A committed candidate that
        // fails validation falls back only to an *older committed*
        // snapshot: recovering to the epoch-0 empty state would silently
        // erase data a superblock proves was once committed, so in that
        // case the torn state is surfaced as an error instead. (A crash
        // before the very first commit flip leaves both slots at epoch 0
        // and correctly reopens as an empty store.)
        let mut order: Vec<usize> = (0..2).filter(|&s| slot_states[s].is_some()).collect();
        order.sort_by_key(|&s| std::cmp::Reverse(slot_states[s].as_ref().unwrap().epoch));
        let mut torn: Option<(u64, String)> = None;
        for &slot in &order {
            let sb = slot_states[slot].expect("filtered to Some");
            if !sb.has_snapshot() && torn.is_some() {
                continue;
            }
            match validate_snapshot(&file, &sb) {
                Ok((run_tables, manifest)) => {
                    let runs: Vec<RunState> = run_tables
                        .into_iter()
                        .map(|(run, checksums)| {
                            let verified = Arc::new(VerifiedBitmap::new(checksums.len() as u64));
                            RunState {
                                run,
                                checksums: Arc::new(checksums),
                                verified,
                            }
                        })
                        .collect();
                    let map = map_runs(&file, &runs, sb.block_size as u64);
                    let next_component_id = runs.iter().map(|r| r.run.id).max().unwrap_or(0) + 1;
                    let total: u64 = runs.iter().map(|r| r.run.num_pages).sum();
                    open_span.detail(format_args!(
                        "epoch={} components={} pages={total}",
                        sb.epoch,
                        runs.len()
                    ));
                    return Ok(Store {
                        file,
                        active_slot: slot,
                        sb,
                        runs,
                        map,
                        manifest,
                        next_component_id,
                        degraded: Arc::new(std::sync::atomic::AtomicBool::new(false)),
                        read_only,
                    });
                }
                Err(Rejected::Io(e)) => return Err(e.into()),
                Err(Rejected::Torn(reason)) => {
                    if torn.is_none() {
                        torn = Some((sb.epoch, reason));
                    }
                }
            }
        }
        let (epoch, reason) = torn.expect("at least one candidate failed");
        Err(StoreError::TornSnapshot { epoch, reason })
    }

    /// Convenience: [`Store::open`] followed by [`Store::tree`].
    pub fn open_tree<const D: usize>(path: &Path) -> Result<RTree<D>, StoreError> {
        Store::open(path)?.tree::<D>()
    }

    /// Commits `tree` as the store's new current snapshot.
    ///
    /// Pages reachable from the root are copied in breadth-first order
    /// (root first, each level contiguous, leaves last) with child
    /// pointers rewritten to the new, dense page ids — a save is also a
    /// compaction, so discarded build-time scratch blocks never reach
    /// the file. The snapshot body (pages, checksum table, footer) is
    /// appended and fsynced *before* the inactive superblock slot is
    /// rewritten and fsynced; the flip is the commit point. A crash
    /// anywhere earlier leaves the previous superblock pointing at its
    /// intact snapshot.
    pub fn save<const D: usize>(&mut self, tree: &RTree<D>) -> Result<(), StoreError> {
        self.commit(&[CommitComponent::New(tree)], None).map(|_| ())
    }

    /// Commits a **multi-component** snapshot where every component is
    /// freshly written: each tree is BFS-copied into its own appended
    /// page run, followed by the checksum tables, a [`ManifestRecord`]
    /// carrying the run list plus the opaque `app` blob, and the footer
    /// — all fsynced before the superblock flip, exactly like
    /// [`Store::save`]. This is the full-rewrite commit `pr-live`'s
    /// `compact()` uses; steady-state merges go through
    /// [`Store::commit_components`] to reuse unchanged runs.
    ///
    /// An empty component list is a valid commit (all data lives in the
    /// app blob). Reopen with [`Store::components`] / [`Store::app`].
    pub fn save_components<const D: usize>(
        &mut self,
        components: &[&RTree<D>],
        app: &[u8],
    ) -> Result<(), StoreError> {
        let comps: Vec<CommitComponent<'_, D>> =
            components.iter().map(|t| CommitComponent::New(t)).collect();
        self.commit(&comps, Some(app)).map(|_| ())
    }

    /// Commits an **incremental** multi-component snapshot: `New`
    /// components are appended, `Reuse` components' existing page runs
    /// are referenced in place (see the module docs). Returns what was
    /// written vs reused for write-amplification accounting.
    pub fn commit_components<const D: usize>(
        &mut self,
        comps: &[CommitComponent<'_, D>],
        app: &[u8],
    ) -> Result<CommitOutcome, StoreError> {
        self.commit(comps, Some(app))
    }

    /// The shared commit path. `app == None` writes the legacy
    /// single-tree snapshot (no manifest record); `Some` always writes a
    /// manifest, even for zero or one component.
    fn commit<const D: usize>(
        &mut self,
        comps: &[CommitComponent<'_, D>],
        app: Option<&[u8]>,
    ) -> Result<CommitOutcome, StoreError> {
        let commit_start = std::time::Instant::now();
        // Recorded into this thread's innermost open trace (a merge or
        // compaction).
        let mut commit_span = pr_obs::trace::span("store", "commit");
        if self.read_only {
            return Err(StoreError::ReadOnly);
        }
        if D as u32 != self.sb.dim {
            return Err(StoreError::DimensionMismatch {
                file: self.sb.dim,
                requested: D as u32,
            });
        }
        assert!(
            app.is_some() || (comps.len() == 1 && matches!(comps[0], CommitComponent::New(_))),
            "legacy save commits exactly one new tree"
        );
        let bs = self.block_size();
        // Resolve every component up front: block-size check for new
        // trees, current-snapshot lookup for reuses — so nothing has
        // been written when a bad reuse id errors out.
        for comp in comps {
            match comp {
                CommitComponent::New(tree) => {
                    if tree.params().page_size != bs {
                        return Err(StoreError::BlockSizeMismatch {
                            store: bs,
                            tree: tree.params().page_size,
                        });
                    }
                }
                CommitComponent::Reuse(id) => {
                    if !self.runs.iter().any(|r| r.run.id == *id) {
                        return Err(StoreError::UnknownComponent(*id));
                    }
                }
            }
        }
        let bs64 = bs as u64;
        let data_offset = self
            .file
            .len()?
            .max(Superblock::data_region_start())
            .div_ceil(bs64)
            * bs64;

        // Breadth-first copy of each new component into its own run
        // with run-relative page ids (root = 0). Ids are assigned in
        // enqueue order, so every level occupies a contiguous range —
        // warm_cache on reopen reads a sequential prefix of the run.
        // Pages travel as raw bytes: each is borrowed from the tree's
        // device, copied once into the write chunk, has its child
        // pointers (if any) patched there and is hashed in place —
        // never decoded, never admitted to the source tree's node
        // cache. Reused components are resolved to their existing
        // state; their pages are not touched.
        enum Pending {
            New {
                run: ComponentRun,
                checksums: Vec<u32>,
            },
            Reused(RunState),
        }
        let mut pending: Vec<Pending> = Vec::with_capacity(comps.len());
        let mut written: u64 = 0;
        let mut reused: u64 = 0;
        let mut out = ChunkWriter::new(&self.file, data_offset);
        let mut scratch = Vec::new();
        let mut next_component_id = self.next_component_id;
        for comp in comps {
            match comp {
                CommitComponent::New(tree) => {
                    let run_offset = data_offset + written * bs64;
                    let mut meta = tree.meta();
                    meta.root = 0;
                    let mut next_id: u64 = 1;
                    let mut checksums: Vec<u32> = Vec::new();
                    let mut queue: VecDeque<BlockId> = VecDeque::new();
                    queue.push_back(tree.root());
                    while let Some(old_page) = queue.pop_front() {
                        let start = out.buf.len();
                        tree.device()
                            .with_block(old_page, &mut scratch, &mut |bytes| {
                                out.buf.extend_from_slice(bytes)
                            })?;
                        let page = &mut out.buf[start..];
                        if page.len() != bs {
                            return Err(StoreError::BlockSizeMismatch {
                                store: bs,
                                tree: page.len(),
                            });
                        }
                        remap_children::<D>(page, |child| {
                            queue.push_back(child);
                            next_id += 1;
                            page_ptr(next_id - 1)
                        })?;
                        checksums.push(crc32(page));
                        written += 1;
                        out.flush_if_full()?;
                    }
                    debug_assert_eq!(checksums.len() as u64, next_id);
                    let run = ComponentRun {
                        id: next_component_id,
                        meta,
                        data_offset: run_offset,
                        num_pages: checksums.len() as u64,
                        table_offset: 0, // patched once the table lands
                        table_crc: 0,
                    };
                    next_component_id += 1;
                    pending.push(Pending::New { run, checksums });
                }
                CommitComponent::Reuse(id) => {
                    let state = self
                        .runs
                        .iter()
                        .find(|r| r.run.id == *id)
                        .expect("checked above")
                        .clone();
                    reused += state.run.num_pages;
                    pending.push(Pending::Reused(state));
                }
            }
        }

        // New runs' checksum tables, concatenated — the superblock /
        // footer commit exactly this newly written region; each run also
        // records its own slice's offset and CRC so it can be
        // re-validated independently for as long as it is reused. The
        // tables, the manifest and the footer ride the last page chunk:
        // one positioned write lands them all.
        let table_offset = data_offset + written * bs64;
        debug_assert_eq!(out.offset(), table_offset);
        let tables_start = out.buf.len();
        for p in &mut pending {
            if let Pending::New { run, checksums } = p {
                run.table_offset = out.offset();
                let start = out.buf.len();
                for crc in checksums.iter() {
                    out.buf.extend_from_slice(&crc.to_le_bytes());
                }
                run.table_crc = crc32(&out.buf[start..]);
            }
        }
        let table_crc = crc32(&out.buf[tables_start..]);

        let epoch = self.sb.epoch + 1;
        let all_runs: Vec<ComponentRun> = pending
            .iter()
            .map(|p| match p {
                Pending::New { run, .. } => *run,
                Pending::Reused(state) => state.run,
            })
            .collect();
        let manifest = app.map(|app| ManifestRecord {
            epoch,
            runs: all_runs.clone(),
            app: app.to_vec(),
        });
        let (manifest_offset, manifest_len) = match &manifest {
            Some(m) => {
                let bytes = m.encode();
                let off = out.offset();
                out.buf.extend_from_slice(&bytes);
                (off, bytes.len() as u32)
            }
            None => (0, 0),
        };

        let footer_offset = out.offset();
        let footer = Footer {
            epoch,
            num_pages: written,
            table_crc,
        };
        let at = out.buf.len();
        out.buf.resize(at + Footer::ENCODED_SIZE, 0);
        footer.encode(&mut out.buf[at..]);
        out.flush()?;
        {
            let _s = pr_obs::trace::span("store", "fsync_body");
            self.file.sync_data()?;
        }

        // The commit point: flip the inactive superblock slot. The
        // superblock's embedded meta is the first component (or an empty
        // synthetic one), kept for the single-tree open path and stats;
        // its data/table fields describe only this commit's new region.
        let meta = all_runs.first().map(|r| r.meta).unwrap_or(TreeMeta {
            params: self.sb.meta.params,
            root: 0,
            root_level: 0,
            len: 0,
        });
        let new_sb = Superblock {
            block_size: bs as u32,
            epoch,
            dim: self.sb.dim,
            meta,
            num_pages: written,
            data_offset,
            table_offset,
            footer_offset,
            table_crc,
            manifest_offset,
            manifest_len,
        };
        let stale_slot = 1 - self.active_slot;
        write_superblock(&self.file, stale_slot, &new_sb)?;
        {
            let _s = pr_obs::trace::span("store", "fsync_flip");
            self.file.sync_data()?;
        }

        self.active_slot = stale_slot;
        self.sb = new_sb;
        // Per-run read-path state: new runs get a fresh all-unverified
        // bitmap (the bytes were just written by us, but verify-once
        // semantics are per *committed run* — the first reader proves
        // the disk kept them); reused runs carry their bitmap and table
        // forward, so pages proven under an earlier epoch stay proven.
        self.runs = pending
            .into_iter()
            .map(|p| match p {
                Pending::New { run, checksums } => {
                    let verified = Arc::new(VerifiedBitmap::new(run.num_pages));
                    RunState {
                        run,
                        checksums: Arc::new(checksums),
                        verified,
                    }
                }
                Pending::Reused(state) => state,
            })
            .collect();
        self.map = map_runs(&self.file, &self.runs, bs64);
        self.manifest = manifest;
        self.next_component_id = next_component_id;
        commit_span.detail(format_args!(
            "epoch={} written={written} reused={reused}",
            self.sb.epoch
        ));
        let m = crate::obs::metrics();
        m.commits.inc();
        m.pages_written.add(written);
        m.pages_reused.add(reused);
        m.commit_us.record_duration_us(commit_start.elapsed());
        pr_obs::events().emit_timed(
            "store_commit",
            format!(
                "epoch={} components={} written={} reused={}",
                self.sb.epoch,
                comps.len(),
                written,
                reused
            ),
            commit_start.elapsed(),
        );
        Ok(CommitOutcome {
            pages_written: written,
            pages_reused: reused,
            component_ids: self.runs.iter().map(|r| r.run.id).collect(),
        })
    }

    /// Reopens the committed tree. The returned handle reads through a
    /// fresh [`StoreDevice`] (checksum-verified, read-only) and feeds the
    /// normal node cache — `warm_cache`, window and k-NN queries
    /// behave exactly as on the never-persisted tree. Reads take the
    /// default zero-copy path ([`ReadPath::ZeroCopy`]).
    pub fn tree<const D: usize>(&self) -> Result<RTree<D>, StoreError> {
        self.tree_with(ReadPath::ZeroCopy)
    }

    /// [`Store::tree`] with an explicit [`ReadPath`].
    pub fn tree_with<const D: usize>(&self, path: ReadPath) -> Result<RTree<D>, StoreError> {
        if let Some(m) = &self.manifest {
            if m.runs.len() != 1 {
                return Err(StoreError::NotSingleComponent(m.runs.len()));
            }
        }
        if D as u32 != self.sb.dim {
            return Err(StoreError::DimensionMismatch {
                file: self.sb.dim,
                requested: D as u32,
            });
        }
        if !self.sb.has_snapshot() {
            return Err(StoreError::NoCommittedSnapshot);
        }
        self.component_with(0, path)
    }

    /// Reopens **all** committed components. A manifest-bearing snapshot
    /// yields one tree per manifest entry (in manifest order); a legacy
    /// single-tree snapshot yields that one tree; an empty store yields
    /// no trees. Each tree reads through its own run-scoped
    /// checksum-verifying [`StoreDevice`] pinned to this snapshot —
    /// later saves never move pages out from under them.
    pub fn components<const D: usize>(&self) -> Result<Vec<RTree<D>>, StoreError> {
        self.components_with(ReadPath::ZeroCopy)
    }

    /// [`Store::components`] with an explicit [`ReadPath`].
    pub fn components_with<const D: usize>(
        &self,
        path: ReadPath,
    ) -> Result<Vec<RTree<D>>, StoreError> {
        if D as u32 != self.sb.dim {
            return Err(StoreError::DimensionMismatch {
                file: self.sb.dim,
                requested: D as u32,
            });
        }
        (0..self.runs.len())
            .map(|i| self.component_with(i, path))
            .collect()
    }

    /// Reopens the component at `index` (manifest order). `pr-live`'s
    /// incremental merge uses this to open **only** the freshly written
    /// component while keeping its existing handles for reused ones.
    pub fn component_with<const D: usize>(
        &self,
        index: usize,
        path: ReadPath,
    ) -> Result<RTree<D>, StoreError> {
        if D as u32 != self.sb.dim {
            return Err(StoreError::DimensionMismatch {
                file: self.sb.dim,
                requested: D as u32,
            });
        }
        let state = self
            .runs
            .get(index)
            .ok_or(StoreError::NotSingleComponent(self.runs.len()))?;
        let dev: Arc<dyn BlockDevice> = self.run_device(state, path);
        RTree::from_parts(dev, state.run.meta).map_err(StoreError::from)
    }

    /// The application blob committed alongside the components (empty
    /// slice for legacy single-tree snapshots and fresh stores).
    pub fn app(&self) -> &[u8] {
        self.manifest.as_ref().map_or(&[], |m| m.app.as_slice())
    }

    /// The active snapshot's manifest record, when one was committed.
    pub fn manifest(&self) -> Option<&ManifestRecord> {
        self.manifest.as_ref()
    }

    /// The active snapshot's component runs (ids, offsets, page
    /// counts), in manifest order. A legacy single-tree snapshot shows
    /// its one synthetic run; an empty store none.
    pub fn component_runs(&self) -> Vec<ComponentRun> {
        self.runs.iter().map(|r| r.run).collect()
    }

    /// Number of trees in the active snapshot (0 for an empty store).
    pub fn num_components(&self) -> usize {
        self.runs.len()
    }

    /// A fresh device pinned to one component run. Counters are
    /// per-device (each handle's I/O accounting starts at zero), but the
    /// mapping and verify-once bitmap are the shared per-run state.
    fn run_device(&self, state: &RunState, path: ReadPath) -> Arc<StoreDevice> {
        let recheck = matches!(path, ReadPath::Recheck);
        let map = if recheck { None } else { self.map.clone() };
        // The shared mapping must cover this run; a shorter mapping
        // (mmap raced a concurrent truncation) falls back to reads.
        let run_end = state.run.data_offset + state.run.num_pages * self.sb.block_size as u64;
        let map = map.filter(|m| m.len() as u64 >= run_end);
        Arc::new(StoreDevice::new(
            Arc::clone(&self.file),
            map,
            self.block_size(),
            state.run.data_offset,
            Arc::clone(&state.checksums),
            Arc::clone(&state.verified),
            recheck,
            Arc::clone(&self.degraded),
        ))
    }

    /// Eagerly re-hashes every page of every committed run against its
    /// checksum table — the scrub sweep behind `prtree stats`. Unlike
    /// lazy query-path verification this **always** recomputes (its job
    /// is catching bit rot that happened after a page's first
    /// verification), but it routes through the shared verify-once
    /// bitmaps: pages that pass are marked so every later read of this
    /// snapshot skips its CRC, and the report says how many pages the
    /// bitmaps had already covered. A failing page has its bit cleared
    /// before the typed error returns, so it cannot be served from its
    /// stale verification afterwards. All runs are swept even when an
    /// early one fails; the error names the first bad page found.
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        let start = std::time::Instant::now();
        let mut total = ScrubReport {
            pages: 0,
            already_verified: 0,
        };
        let mut first_err: Option<StoreError> = None;
        for state in &self.runs {
            match self.run_device(state, ReadPath::ZeroCopy).scrub() {
                Ok(report) => {
                    total.pages += report.pages;
                    total.already_verified += report.already_verified;
                }
                Err(e) => {
                    total.pages += state.run.num_pages;
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        let m = crate::obs::metrics();
        m.scrubs.inc();
        m.scrub_pages.add(total.pages);
        m.scrub_us.record_duration_us(start.elapsed());
        pr_obs::events().emit_timed(
            "scrub",
            format!(
                "epoch={} pages={} already_verified={}",
                self.sb.epoch, total.pages, total.already_verified
            ),
            start.elapsed(),
        );
        match first_err {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    /// `(verified, total)` pages of the active snapshot per the shared
    /// verify-once bitmaps, summed over all component runs.
    pub fn verified_pages(&self) -> (u64, u64) {
        let verified = self.runs.iter().map(|r| r.verified.verified_pages()).sum();
        let total = self.runs.iter().map(|r| r.run.num_pages).sum();
        (verified, total)
    }

    /// Total pages across all committed component runs.
    pub fn total_pages(&self) -> u64 {
        self.runs.iter().map(|r| r.run.num_pages).sum()
    }

    /// Bytes of the file still referenced by the active snapshot:
    /// superblock slots, every live run's pages and table, the
    /// manifest, and the footer. Everything else — page runs of
    /// replaced components, old tables/manifests/footers, alignment
    /// padding — is garbage awaiting an explicit compaction rewrite.
    pub fn live_bytes(&self) -> u64 {
        let bs = self.sb.block_size as u64;
        let mut live = Superblock::data_region_start();
        for r in &self.runs {
            live += r.run.num_pages * bs + r.run.num_pages * 4;
        }
        if self.sb.has_snapshot() {
            live += self.sb.manifest_len as u64 + Footer::ENCODED_SIZE as u64;
        }
        live
    }

    /// Bytes of the file *not* referenced by the active snapshot (see
    /// [`Store::live_bytes`]). Incremental commits only append, so this
    /// grows with every replaced component until a compaction rewrite
    /// reclaims it.
    pub fn garbage_bytes(&self) -> Result<u64, StoreError> {
        Ok(self.file_len()?.saturating_sub(self.live_bytes()))
    }

    /// True while detected corruption forces every read of this store
    /// through a full CRC re-hash (degraded mode). A clean [`Store::scrub`]
    /// clears it.
    pub fn degraded(&self) -> bool {
        self.degraded.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// True when the active snapshot is served through a memory mapping
    /// (false: no snapshot, non-unix, mapping failed, or denied).
    pub fn is_mmapped(&self) -> bool {
        self.map.is_some()
    }

    /// The active superblock (what `prtree stats` dumps).
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// Which slot (0 or 1) holds the active superblock.
    pub fn active_slot(&self) -> usize {
        self.active_slot
    }

    /// The store's block size in bytes.
    pub fn block_size(&self) -> usize {
        self.sb.block_size as usize
    }

    /// Current length of the backing file in bytes.
    pub fn file_len(&self) -> Result<u64, StoreError> {
        Ok(self.file.len()?)
    }
}

/// Bytes a commit gathers before it issues a positioned write.
const COMMIT_CHUNK_BYTES: usize = 1 << 20;

/// The sequential append side of a commit: bytes accumulate in `buf`
/// and reach the file one positioned write per [`COMMIT_CHUNK_BYTES`],
/// so a commit holds O(1) memory however many pages it writes.
struct ChunkWriter<'f> {
    file: &'f PositionedFile,
    /// File offset of `buf[0]`.
    base: u64,
    buf: Vec<u8>,
}

impl<'f> ChunkWriter<'f> {
    fn new(file: &'f PositionedFile, base: u64) -> Self {
        ChunkWriter {
            file,
            base,
            buf: Vec::with_capacity(COMMIT_CHUNK_BYTES),
        }
    }

    /// File offset the next appended byte will land at.
    fn offset(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    fn flush_if_full(&mut self) -> Result<(), StoreError> {
        if self.buf.len() >= COMMIT_CHUNK_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        if !self.buf.is_empty() {
            self.file.write_all_at(&self.buf, self.base)?;
            self.base += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }
}

/// Best-effort shared mapping of the file prefix covering every run's
/// pages. `None` (no runs, non-unix, or mmap failure) means devices
/// fall back to positioned reads — never an error: the mapping is an
/// optimization, `read_at` is the ground truth.
fn map_runs(file: &PositionedFile, runs: &[RunState], block_size: u64) -> Option<Arc<Mmap>> {
    let end = runs
        .iter()
        .map(|r| r.run.data_offset + r.run.num_pages * block_size)
        .max()
        .filter(|&end| end > 0)?;
    match file.map_readonly(end) {
        // A mapping shorter than the snapshot (file truncated under us)
        // must not be indexed past its end: fall back to reads.
        Ok(Some(map)) if map.len() as u64 >= end => Some(Arc::new(map)),
        _ => None,
    }
}

/// Writes one superblock slot (header + zero padding to the slot size).
fn write_superblock(file: &PositionedFile, slot: usize, sb: &Superblock) -> Result<(), StoreError> {
    let mut buf = vec![0u8; Superblock::SLOT_SIZE as usize];
    sb.encode(&mut buf[..Superblock::ENCODED_SIZE]);
    file.write_all_at(&buf, Superblock::slot_offset(slot))?;
    Ok(())
}

/// A run that passed validation, with its decoded page checksum table.
type ValidatedRun = (ComponentRun, Vec<u32>);

/// Why [`validate_snapshot`] did not accept a superblock's snapshot.
enum Rejected {
    /// Reading it failed. The snapshot may well be intact, so open
    /// surfaces the error instead of falling back to an older epoch —
    /// whose WAL cut may already have been pruned.
    Io(std::io::Error),
    /// It is torn or inconsistent: a human-readable reason.
    Torn(String),
}

impl From<std::io::Error> for Rejected {
    fn from(e: std::io::Error) -> Self {
        Rejected::Io(e)
    }
}

/// Proves a superblock's snapshot is intact; returns every component
/// run with its decoded page checksum table, plus the manifest (if
/// any), on success. For a legacy single-tree snapshot one synthetic
/// run (id 0) is derived from the superblock itself.
fn validate_snapshot(
    file: &PositionedFile,
    sb: &Superblock,
) -> Result<(Vec<ValidatedRun>, Option<ManifestRecord>), Rejected> {
    use Rejected::Torn;
    if !sb.has_snapshot() {
        return Ok((Vec::new(), None));
    }
    // The footer must exist inside the file...
    let file_len = file.len()?;
    if sb.footer_offset + Footer::ENCODED_SIZE as u64 > file_len {
        return Err(Torn(format!(
            "footer at {} extends past end of file ({file_len} bytes)",
            sb.footer_offset
        )));
    }
    let mut fbuf = vec![0u8; Footer::ENCODED_SIZE];
    file.read_exact_or_zero_at(&mut fbuf, sb.footer_offset)?;
    // ...decode, and agree with the superblock on what was committed.
    let footer = Footer::decode(&fbuf).map_err(|e| Torn(e.to_string()))?;
    if footer.epoch != sb.epoch {
        return Err(Torn(format!(
            "footer epoch {} does not match superblock epoch {}",
            footer.epoch, sb.epoch
        )));
    }
    if footer.num_pages != sb.num_pages {
        return Err(Torn(format!(
            "footer page count {} does not match superblock {}",
            footer.num_pages, sb.num_pages
        )));
    }
    if footer.table_crc != sb.table_crc {
        return Err(Torn(
            "footer and superblock disagree on the checksum table CRC".into(),
        ));
    }
    // The newly written region's checksum table must hash to the
    // committed value (this is what the footer proves landed).
    let table_len = (sb.num_pages * 4) as usize;
    let mut table = vec![0u8; table_len];
    file.read_exact_or_zero_at(&mut table, sb.table_offset)?;
    let computed = crc32(&table);
    if computed != sb.table_crc {
        return Err(Torn(format!(
            "checksum table CRC mismatch (committed {:08x}, computed {computed:08x})",
            sb.table_crc
        )));
    }
    // A manifest, when present, must decode (its CRC covers the run
    // list and the app blob) and belong to this epoch; then every run —
    // including ones written by earlier epochs and reused — must fit
    // the file and re-hash to its recorded per-run table CRC.
    let bs = sb.block_size as u64;
    if sb.has_manifest() {
        if sb.manifest_offset + sb.manifest_len as u64 > file_len {
            return Err(Torn(format!(
                "manifest at {} (+{}) extends past end of file ({file_len} bytes)",
                sb.manifest_offset, sb.manifest_len
            )));
        }
        let mut mbuf = vec![0u8; sb.manifest_len as usize];
        file.read_exact_or_zero_at(&mut mbuf, sb.manifest_offset)?;
        let m = ManifestRecord::decode(&mbuf).map_err(|e| Torn(e.to_string()))?;
        if m.epoch != sb.epoch {
            return Err(Torn(format!(
                "manifest epoch {} does not match superblock epoch {}",
                m.epoch, sb.epoch
            )));
        }
        let mut runs = Vec::with_capacity(m.runs.len());
        for run in &m.runs {
            if run.num_pages > 0 && run.data_offset < Superblock::data_region_start() {
                return Err(Torn(format!(
                    "component {} pages at {} overlap the superblocks",
                    run.id, run.data_offset
                )));
            }
            if run.data_offset + run.num_pages * bs > file_len {
                return Err(Torn(format!(
                    "component {} pages extend past end of file ({file_len} bytes)",
                    run.id
                )));
            }
            if run.table_offset + run.num_pages * 4 > file_len {
                return Err(Torn(format!(
                    "component {} table extends past end of file ({file_len} bytes)",
                    run.id
                )));
            }
            let mut rt = vec![0u8; (run.num_pages * 4) as usize];
            file.read_exact_or_zero_at(&mut rt, run.table_offset)?;
            let computed = crc32(&rt);
            if computed != run.table_crc {
                return Err(Torn(format!(
                    "component {} table CRC mismatch (committed {:08x}, computed {computed:08x})",
                    run.id, run.table_crc
                )));
            }
            runs.push((
                *run,
                rt.chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect(),
            ));
        }
        Ok((runs, Some(m)))
    } else {
        // Legacy single-tree snapshot: the superblock itself describes
        // the one (always freshly written) run.
        let run = ComponentRun {
            id: 0,
            meta: sb.meta,
            data_offset: sb.data_offset,
            num_pages: sb.num_pages,
            table_offset: sb.table_offset,
            table_crc: sb.table_crc,
        };
        Ok((
            vec![(
                run,
                table
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect(),
            )],
            None,
        ))
    }
}
