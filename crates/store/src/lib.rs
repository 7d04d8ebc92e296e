//! # pr-store — a durable on-disk index format for PR-trees
//!
//! The paper's PR-tree is an *external-memory* structure, yet a freshly
//! bulk-loaded tree lives and dies with the process: the pages may sit
//! in a file, but the root id, height, parameters, and item count exist
//! only in the `RTree` handle. This crate gives that handle a durable
//! home: `Store::create` → `Store::save(&tree)` → (crash, restart) →
//! `Store::open_tree(path)` returns a tree whose query results *and*
//! leaf-I/O counts are identical to the never-persisted original.
//!
//! ## File layout
//!
//! ```text
//! offset          contents
//! 0               superblock slot A  (fixed 4 KiB slot)
//! 4096            superblock slot B  (fixed 4 KiB slot)
//! 8192↑           snapshot 1: [pages][checksum table][footer]
//! ...             snapshot 2: [pages][checksum table][footer]
//! ```
//!
//! Each **snapshot** is appended at the next block-aligned offset:
//!
//! * **pages** — the tree's reachable nodes, copied breadth-first (root
//!   = page 0, levels contiguous, leaves last) with child pointers
//!   rewritten to the new dense ids. A save is therefore also a
//!   compaction: build-time scratch blocks never reach the file.
//! * **checksum table** — CRC32 of every page, 4 bytes each. Reads
//!   through the reopened tree verify lazily against this table, each
//!   page **once** (a shared verify-once bitmap; see [`ReadPath`]); a
//!   flipped bit in an unverified page surfaces as a typed checksum
//!   error on the read that touches it, never as a wrong answer, and
//!   [`Store::scrub`] re-hashes everything eagerly to catch later rot.
//!   On unix the snapshot region is mmap'd and served zero-copy;
//!   [`store::ReadPath::Recheck`] retains the hash-every-read mode.
//! * **footer** — the commit record: epoch, page count, table CRC, all
//!   under its own CRC. Validating the footer proves the snapshot body
//!   was completely written.
//!
//! ## Crash-safe commit: double superblock, epoch-versioned
//!
//! The two superblock slots alternate (an A/B scheme, as in LFS-style
//! checkpoint regions). A commit:
//!
//! 1. appends pages + checksum table + footer, then `fsync`;
//! 2. writes the **inactive** superblock slot with epoch `e+1` pointing
//!    at the new snapshot, then `fsync` — this flip is the commit point.
//!
//! `open` decodes both slots and tries candidates newest-epoch-first;
//! a candidate is accepted only if its footer and checksum table
//! validate. A write torn *anywhere* before the flip (partial pages,
//! missing footer, half-written superblock — the slot's own CRC catches
//! that) leaves the previous slot pointing at its intact snapshot, so
//! the store reopens at the last committed state. Torn or corrupt past
//! recovery is a typed [`StoreError`], never a panic.
//!
//! Opened trees pin their snapshot's `(offset, checksums)`, so a later
//! `save` into the same store never moves pages out from under a live
//! reader — snapshot isolation for free.
//!
//! ## Quick start
//!
//! ```
//! use pr_em::MemDevice;
//! use pr_geom::{Item, Rect};
//! use pr_store::Store;
//! use pr_tree::bulk::{BulkLoader, pr::PrTreeLoader};
//! use pr_tree::TreeParams;
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir();
//! let path = dir.join(format!("doc-quickstart-{}.prt", std::process::id()));
//! let params = TreeParams::paper_2d();
//! let items: Vec<Item<2>> = (0..1000)
//!     .map(|i| {
//!         let x = (i % 100) as f64;
//!         Item::new(Rect::xyxy(x, 0.0, x + 0.5, 1.0), i)
//!     })
//!     .collect();
//! let tree = PrTreeLoader::default()
//!     .load(Arc::new(MemDevice::new(params.page_size)), params, items)
//!     .unwrap();
//!
//! let mut store = Store::create::<2>(&path, params).unwrap();
//! store.save(&tree).unwrap();
//! drop((store, tree));
//!
//! let reopened = Store::open_tree::<2>(&path).unwrap();
//! assert_eq!(reopened.len(), 1000);
//! let hits = reopened.window(&Rect::xyxy(0.0, 0.0, 10.0, 1.0)).unwrap();
//! assert!(!hits.is_empty());
//! # std::fs::remove_file(&path).ok();
//! ```

#![forbid(unsafe_code)]

pub(crate) mod crc;
pub(crate) mod device;
pub(crate) mod error;
pub(crate) mod format;
pub mod obs;
pub(crate) mod store;

pub use crc::crc32;
pub use device::ScrubReport;
pub use error::StoreError;
pub use format::{ComponentRun, ManifestRecord, Superblock, FORMAT_VERSION};
pub use store::{CommitComponent, CommitOutcome, ReadPath, Store};
