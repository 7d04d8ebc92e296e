//! # prtree — a reproduction of the Priority R-tree
//!
//! Umbrella crate re-exporting the workspace: a complete, tested
//! implementation of *"The Priority R-Tree: A Practically Efficient and
//! Worst-Case Optimal R-Tree"* (Arge, de Berg, Haverkort, Yi; SIGMOD
//! 2004) plus everything the paper compares against and measures with.
//!
//! * [`geom`] — rectangles, points, the corner mapping (crate `pr-geom`).
//! * [`em`] — external-memory substrate: block devices, I/O accounting,
//!   streams, external sort (crate `pr-em`).
//! * [`hilbert`] — d-dimensional Hilbert curves (crate `pr-hilbert`).
//! * [`tree`] — the PR-tree, pseudo-PR-trees, the H/H4/TGS/STR baselines,
//!   Guttman updates and the LPR-tree (crate `pr-tree`).
//! * [`data`] — the paper's dataset and query generators (crate `pr-data`).
//! * [`store`] — the durable on-disk index format with crash-safe commit
//!   and checksummed pages (crate `pr-store`); the `prtree` binary in
//!   `src/bin/` is its command-line face.
//! * [`live`] — durable, reader-concurrent LPR-tree ingest: WAL +
//!   memtable + background geometric merges over pr-store snapshots
//!   (crate `pr-live`).
//!
//! ## Quick start
//!
//! ```
//! use prtree::prelude::*;
//! use std::sync::Arc;
//!
//! // A million tiny rectangles would work the same; keep the doctest fast.
//! let items: Vec<Item<2>> = (0..10_000)
//!     .map(|i| {
//!         let x = (i % 100) as f64;
//!         let y = (i / 100) as f64;
//!         Item::new(Rect::xyxy(x, y, x + 0.8, y + 0.8), i)
//!     })
//!     .collect();
//!
//! // Bulk-load a PR-tree with the paper's parameters (4KB pages, B=113).
//! let dev = Arc::new(MemDevice::default_size());
//! let tree = PrTreeLoader::default()
//!     .load(dev, TreeParams::paper_2d(), items)
//!     .unwrap();
//!
//! // Worst-case-optimal window queries.
//! let (hits, stats) = tree
//!     .window_with_stats(&Rect::xyxy(10.0, 10.0, 30.0, 30.0))
//!     .unwrap();
//! assert!(!hits.is_empty());
//! assert!(stats.leaves_visited > 0);
//! ```

#![forbid(unsafe_code)]

pub use pr_data as data;
pub use pr_em as em;
pub use pr_geom as geom;
pub use pr_hilbert as hilbert;
pub use pr_live as live;
pub use pr_store as store;
pub use pr_tree as tree;

/// The most commonly used items, one `use` away.
pub mod prelude {
    pub use pr_em::{BlockDevice, FileDevice, IoStats, MemDevice, Stream};
    pub use pr_geom::{Item, Point, Rect};
    pub use pr_store::{Store, StoreError};
    pub use pr_tree::bulk::external::ExternalConfig;
    pub use pr_tree::bulk::hilbert::HilbertLoader;
    pub use pr_tree::bulk::pr::PrTreeLoader;
    pub use pr_tree::bulk::pr_external::PrExternalLoader;
    pub use pr_tree::bulk::str_::StrLoader;
    pub use pr_tree::bulk::tgs::TgsLoader;
    pub use pr_tree::bulk::{BulkLoader, LoaderKind};
    pub use pr_tree::dynamic::LprTree;
    pub use pr_tree::pseudo::PseudoPrTree;
    pub use pr_tree::{QueryScratch, QueryStats, RTree, ReferenceEngine, SoaNode, TreeParams};
}
