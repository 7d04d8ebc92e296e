//! # pr-live — durable, concurrent LPR-tree ingest
//!
//! The paper's external logarithmic method (`pr_tree::dynamic::LprTree`)
//! makes the PR-tree dynamic; this crate makes it a **service**: writes
//! survive crashes, readers never block, and the geometric merges run in
//! the background.
//!
//! ```text
//!   writer A   writer B   writer C            window/knn
//!      │          │          │                     │
//!      └──────────┼──────────┘                     ▼
//!                 ▼ enqueue (seq + encode)  ┌── LiveSnapshot (pinned) ──┐
//!   ┌──────── commit queue ────────┐        │ memtable copy             │
//!   │ leader: 1 writev + 1 fsync   │        │ sealed batch   (Arc)      │
//!   │ for the whole group; apply;  │        │ components     (Arc, SoA  │
//!   │ followers wake on condvar    │        │   decode-free engine)     │
//!   └──────────────┬───────────────┘        │ tombstones     (Arc)      │
//!                  ▼                        └───────────────────────────┘
//!            memtable ──seal──▶ sealed
//!                  │              │
//!                  │              ▼
//!                  │      geometric merge (background)
//!                  │              │  bulk-load PR-tree
//!                  │              ▼
//!                  │   pr-store commit: pages → manifest{wal_seq,
//!                  │   slots, tombstones, memtable} → superblock flip
//!                  │              │
//!                  └──────────────┴──▶ replay skips WAL records ≤ wal_seq;
//!                                      a full segment or a checkpoint
//!                                      rotates, older segments pruned
//! ```
//!
//! **Durability contract** ([`index::Durability`]): under `Fsync`, when
//! `insert`/`insert_batch`/`delete` returns the operation is fsynced in
//! the WAL (one group fsync shared by every concurrent writer);
//! reopening after a crash at *any* point recovers exactly the
//! acknowledged prefix (manifest checkpoint + WAL replay past its cut).
//! Under `Async { max_inflight_bytes }`, returns happen after the
//! buffered group append — a syncer thread fsyncs behind a bounded
//! window, and crash recovery reaches at least the last *synced* prefix
//! of the acknowledged sequence (and never anything unacknowledged);
//! `flush()`/`sync_wal()` drain the window. **Concurrency contract:**
//! readers take [`LiveSnapshot`]s — point-in-time, immutable views
//! served by the PR 3 decode-free engine — and are never blocked by
//! ingest, merges, or compaction. The contracts are enforced by tests
//! (`tests/live_recovery.rs`, `tests/live_concurrency.rs`,
//! `tests/live_group_commit.rs`).

mod commit;
pub mod error;
pub mod index;
pub mod manifest;
pub mod memtable;
mod merge;
pub mod obs;
pub mod torture;
pub mod wal;

pub use error::LiveError;
pub use index::{
    CrashPoint, Durability, LiveIndex, LiveOptions, LiveSnapshot, LiveStats, StoreRunStat,
};
pub use manifest::LiveManifest;
pub use memtable::Memtable;
pub use torture::{run_torture, run_torture_multi, TortureConfig, TortureReport};
pub use wal::{encode_records, encode_records_into, Wal, WalOp, WalRecord};
