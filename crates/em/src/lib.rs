//! External-memory substrate: a miniature TPIE.
//!
//! The PR-tree paper implements and *measures* everything in the
//! external-memory (I/O) model of Aggarwal–Vitter: data lives on disk in
//! blocks of `B` records, main memory holds `M` records, and the unit of
//! cost is one block transfer. Its experimental numbers are 4KB-block read
//! and write counts collected through the TPIE library. This crate plays
//! TPIE's role:
//!
//! * [`BlockDevice`] — block devices with exact I/O accounting: an
//!   in-memory device for experiments (fast, deterministic) and a
//!   file-backed device proving the same code runs against a real disk,
//! * [`IoStats`] — shared read/write counters and snapshots,
//! * [`Stream`] — sequential typed streams of fixed-size records, the
//!   workhorse of every bulk-loading algorithm,
//! * [`external_sort`] — external multiway merge sort under a configurable memory
//!   budget `M`, giving the `O(N/B · log_{M/B} N/B)` sorting bound every
//!   construction algorithm in the paper leans on.
//!
//! All counters are cheap atomics; devices are `Sync` so concurrent
//! readers and a merge can share them.

#![deny(unsafe_code)]

pub(crate) mod device;
pub(crate) mod error;
pub mod fault;
pub mod obs;
pub(crate) mod sort;
pub(crate) mod stats;
pub(crate) mod stream;

pub use device::{fsync_dir, BlockDevice, BlockId, FileDevice, MemDevice, Mmap, PositionedFile};
pub use error::{io_error_is_transient, EmError};
pub use sort::{
    external_sort, external_sort_by, external_sort_multi, merge_runs, MergeReader, SortConfig,
    SortOrder,
};
pub use stats::{IoCounters, IoStats};
pub use stream::{Record, Stream, StreamReader, StreamWriter};

/// Result alias for substrate operations.
pub(crate) type Result<T> = std::result::Result<T, EmError>;
