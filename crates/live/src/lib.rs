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
//!   ┌──────── commit queue ────────┐        │ memtable chunks (Arc)     │
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
//!                  └──────────────┴──▶ replay skips WAL records ≤ wal_seq
//!                                      and decides each delete as the
//!                                      live path did; a full segment or
//!                                      a checkpoint rotates, older
//!                                      segments pruned
//! ```
//!
//! Every write, insert or delete, takes one op path: its ops are
//! sequenced and encoded under the writer lock, pushed onto the pending
//! queue and enqueued for the group leader (`write`). A delete is
//! decided by one function, `Core::decide` (`core`), both live and
//! when WAL replay (`Core::replay`, run by `recovery` on open)
//! re-derives it, so a replayed delete lands exactly where the
//! acknowledged one did.
//!
//! **Durability contract** ([`Durability`]): under `Fsync`, when
//! `insert`/`insert_batch`/`delete` returns the operation is fsynced in
//! the WAL (one group fsync shared by every concurrent writer);
//! reopening after a crash at *any* point recovers exactly the
//! acknowledged prefix (manifest checkpoint + WAL replay past its cut).
//! Under `Async { max_inflight_bytes }`, returns happen after the
//! buffered group append — a syncer thread fsyncs behind a bounded
//! window, and crash recovery reaches at least the last *synced* prefix
//! of the acknowledged sequence (and never anything unacknowledged);
//! `flush()`/`sync_wal()` drain the window. **Concurrency contract:**
//! readers take [`LiveSnapshot`]s — point-in-time, immutable views that
//! share the memtable's `Arc`'d chunks and pin the sealed batch, the
//! components and the tombstones, so no item is copied — and are never
//! blocked by ingest, merges, or compaction. The contracts are enforced
//! by tests (`tests/live_recovery.rs`, `tests/live_concurrency.rs`,
//! `tests/live_group_commit.rs`).

#![forbid(unsafe_code)]

mod commit;
mod core;
pub(crate) mod error;
pub(crate) mod index;
mod maintenance;
pub(crate) mod manifest;
mod merge;
pub mod obs;
mod options;
mod recovery;
mod snapshot;
mod stats;
pub(crate) mod torture;
pub mod wal;
mod write;

pub use error::LiveError;
pub use index::LiveIndex;
pub use options::{Durability, LiveOptions};
pub use snapshot::LiveSnapshot;
pub use stats::{LiveStats, StoreRunStat};
pub use torture::{run_torture, TortureConfig, TortureReport};
pub use wal::{Wal, WalRecord};
