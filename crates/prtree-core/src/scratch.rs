//! Reusable per-query scratch state — the allocation-free traversal.
//!
//! Every buffer a query needs lives here: the DFS stack, the raw-page
//! read buffer, the SoA transcode target for an internal node that
//! misses the cache, the match mask the batch kernels write, the k-NN
//! search's frontier (an arena of opened nodes' admitted children plus
//! a heap of one cursor per opened node), k-best heap, per-tree node
//! cache snapshots and batched-distance buffer, and the tombstone
//! filter's per-key consumption. Leaves never use the transcode target: they are scanned
//! in place over the page bytes the device lends, or over `page_buf`
//! where it must copy ([`crate::leaf::LeafRecords`]). A [`QueryScratch`]
//! is created once and threaded through the `_into` variants
//! ([`crate::tree::RTree::window_into`],
//! [`crate::tree::RTree::window_count_into`],
//! [`crate::tree::RTree::count_exact`],
//! [`crate::tree::RTree::nearest_neighbors_into`]); after the first few
//! queries sized the buffers, the steady-state hot path performs **zero
//! heap allocations per query** — `tests/build_alloc.rs` counts them for
//! windows, counts, exact matches and k-NN, over one tree and over an
//! LPR-tree's forest with tombstones. Concurrent readers of one tree
//! each bring their own scratch. A scratch carries no trace: a sampled
//! traversal records into its thread's trace stack ([`pr_obs::trace`]).
//!
//! The convenience wrappers (`window`, `window_count`, …) construct a
//! fresh scratch per call, so one-shot callers pay only what the old
//! engine already paid.

use crate::cache::FrozenMap;
use crate::dynamic::tombstone::Spent;
use crate::knn::{Frontier, KBest};
use crate::soa::SoaNode;
use pr_em::BlockId;

/// Reusable buffers for window and k-NN queries (see module docs).
///
/// The contents are an implementation detail: a scratch carries no
/// query state between calls other than retained capacity, so one
/// scratch may serve any number of queries against any number of trees
/// of the same dimension `D`, one at a time.
pub struct QueryScratch<const D: usize> {
    /// DFS stack of pages still to visit.
    pub(crate) stack: Vec<BlockId>,
    /// Raw page buffer for device reads on cache misses.
    pub(crate) page_buf: Vec<u8>,
    /// Per-entry match mask written by the batch kernels.
    pub(crate) mask: Vec<u8>,
    /// SoA transcode target for an internal node that misses a cold
    /// cache ([`crate::cache`]). Leaves never use it.
    pub(crate) soa: SoaNode<D>,
    /// Batched `min_dist2` output of an internal node (k-NN).
    pub(crate) dist: Vec<f64>,
    /// Pages still to open, nearest first: each opened node's admitted
    /// children plus one heap cursor per node (k-NN).
    pub(crate) frontier: Frontier,
    /// The k best admitted items so far; its top is the bound (k-NN).
    pub(crate) best: KBest<D>,
    /// Each tree's node-cache snapshot, taken once per search (k-NN);
    /// empty between queries.
    pub(crate) forest: Vec<Option<FrozenMap<D>>>,
    /// Tombstones the query's
    /// [`TombstoneFilter`](crate::dynamic::TombstoneFilter) consumed, per
    /// key.
    pub(crate) spent: Spent<D>,
}

impl<const D: usize> QueryScratch<D> {
    /// Creates an empty scratch; buffers grow to steady-state sizes on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        QueryScratch {
            stack: Vec::new(),
            page_buf: Vec::new(),
            mask: Vec::new(),
            soa: SoaNode::new_empty(),
            dist: Vec::new(),
            frontier: Frontier::default(),
            best: KBest::new(0),
            forest: Vec::new(),
            spent: Spent::new(),
        }
    }
}

impl<const D: usize> Default for QueryScratch<D> {
    fn default() -> Self {
        Self::new()
    }
}
