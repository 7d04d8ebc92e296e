//! # pr-tree — the Priority R-tree and its competitors
//!
//! This crate implements the primary contribution of *"The Priority
//! R-Tree: A Practically Efficient and Worst-Case Optimal R-Tree"* (Arge,
//! de Berg, Haverkort, Yi; SIGMOD 2004) together with every index it is
//! evaluated against, all sharing one page-level R-tree runtime:
//!
//! * [`tree::RTree`] — the common runtime: 4KB node pages, fanout 113 (in
//!   2-D), window queries with exact I/O accounting, pluggable node cache.
//! * [`soa`] / [`leaf`] / [`scratch`] / [`mod@reference`] — the
//!   decode-free query engine: cached internal nodes are
//!   structure-of-arrays views scanned by vectorized kernels, leaves are
//!   scanned in place and never transcoded, traversal state lives in a
//!   reusable [`scratch::QueryScratch`], and the retained scalar AoS
//!   engine in [`mod@reference`] pins result/stat equivalence.
//! * [`pseudo`] — the **pseudo-PR-tree** of §2.1: a `2D`-dimensional
//!   kd-tree over corner-mapped rectangles with *priority leaves*.
//! * [`bulk::pr`] — the **PR-tree** bulk loader of §2.2/§2.3 (worst-case
//!   optimal queries), with in-memory and external-memory variants.
//! * [`bulk::hilbert`] — packed Hilbert R-tree (H) and four-dimensional
//!   Hilbert R-tree (H4) baselines.
//! * [`bulk::tgs`] — Top-down Greedy Split baseline.
//! * [`bulk::str_`] — Sort-Tile-Recursive packing (extra baseline).
//! * [`dynamic`] — Guttman insert/delete with the quadratic split, and
//!   the logarithmic-method dynamization (LPR-tree) of §1.2/§4.
//!
//! ## Quick start
//!
//! ```
//! use pr_tree::bulk::pr::PrTreeLoader;
//! use pr_tree::bulk::BulkLoader;
//! use pr_tree::params::TreeParams;
//! use pr_em::MemDevice;
//! use pr_geom::{Item, Rect};
//! use std::sync::Arc;
//!
//! let items: Vec<Item<2>> = (0..1000)
//!     .map(|i| {
//!         let x = (i % 100) as f64;
//!         let y = (i / 100) as f64;
//!         Item::new(Rect::xyxy(x, y, x + 0.5, y + 0.5), i)
//!     })
//!     .collect();
//! let dev = Arc::new(MemDevice::default_size());
//! let tree = PrTreeLoader::default()
//!     .load(dev, TreeParams::paper_2d(), items.clone())
//!     .unwrap();
//! let hits = tree.window(&Rect::xyxy(10.0, 2.0, 20.0, 4.0)).unwrap();
//! assert!(!hits.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod bulk;
pub mod cache;
pub mod dynamic;
pub mod entry;
pub mod knn;
pub mod leaf;
pub mod meta;
pub mod obs;
pub mod page;
pub mod params;
pub mod pseudo;
pub mod query;
pub mod reference;
pub mod scratch;
pub mod soa;
pub mod tree;
pub mod validate;
pub mod writer;

pub use entry::Entry;
pub use knn::KnnSearch;
pub use leaf::LeafRecords;
pub use meta::TreeMeta;
pub use params::TreeParams;
pub use query::QueryStats;
pub use scratch::QueryScratch;
pub use soa::SoaNode;
pub use tree::RTree;
