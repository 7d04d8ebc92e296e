//! The node cache — sharded for concurrent readers.
//!
//! The paper's query experiments keep *all internal nodes* cached ("they
//! never occupied more than 6MB", §3.3), so reported query I/O equals the
//! number of leaves fetched. Footnote 5 also reports a run with the cache
//! disabled. Those are the two [`CachePolicy`] values; leaves always come
//! from the device (for store-backed trees that is the mmap'd,
//! verify-once snapshot, i.e. the OS page cache).
//!
//! # Design
//!
//! The original runtime wrapped one cache in a global
//! `parking_lot::Mutex`, serializing every reader: with all internal
//! nodes cached, *each node visit of each query* took the same lock, so
//! multi-threaded query throughput plateaued at ~1× serial. This module
//! replaces that with a cache that is internally synchronized and safe to
//! share by reference:
//!
//! * **Sharding.** Pinned internal nodes are partitioned over
//!   [`SHARD_COUNT`] shards by the low bits of their [`BlockId`], each
//!   shard behind its own `parking_lot::RwLock`. Readers of different
//!   pages take different locks; readers of the same shard share a read
//!   lock. Only `admit`/`invalidate`/`clear` take a shard's write lock.
//! * **Frozen fast path.** After [`crate::tree::RTree::warm_cache`]
//!   pre-loads every internal node, [`ShardedNodeCache::freeze`] collects
//!   the pinned maps into one immutable [`FrozenMap`]. Each query grabs
//!   one snapshot `Arc` up front ([`ShardedNodeCache::frozen_snapshot`])
//!   and then indexes a plain `HashMap` per node visit — zero shared
//!   lock or refcount traffic in the hot loop, which is the paper's
//!   steady-state query configuration. Any invalidation or policy change
//!   thaws the frozen map; the sharded path (which retains the same
//!   entries) keeps lookups correct, so dynamic updates stay exact.
//! * **No shared statistics.** The cache counts nothing. A query's
//!   [`crate::query::QueryStats`] is its tally: a node visit is a hit
//!   unless it read the device (`device_reads`). Each traversal flushes
//!   that once into the registry's `tree_node_cache_{hits,misses}_total`
//!   ([`crate::obs`]), so the hot loop writes no shared cache line and
//!   totals are exact under any thread interleaving.
//!
//! The policy is stored as an atomic flag so `get`/`admit` can take their
//! early-outs — `CachePolicy::None` lookups and leaf admissions under
//! `InternalNodes` — without touching any lock.

use crate::soa::SoaNode;
use parking_lot::RwLock;
use pr_em::BlockId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Number of independent cache shards (power of two; block ids are
/// allocated sequentially, so low bits spread adjacent pages evenly).
pub const SHARD_COUNT: usize = 16;

/// What a tree keeps in memory between queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// No caching: every node visit is a device read.
    None,
    /// Cache every internal node forever; leaves are always read from the
    /// device. This is the paper's experimental setup.
    InternalNodes,
}

/// Immutable post-warm snapshot of all pinned internal nodes. Queries
/// clone the `Arc` once and index it lock-free per node visit. Since the
/// decode-free engine the cached representation is the SoA
/// [`SoaNode`] — the query path never touches a decoded
/// [`crate::page::NodePage`].
pub type FrozenMap<const D: usize> = Arc<HashMap<BlockId, Arc<SoaNode<D>>>>;

type PinnedShard<const D: usize> = HashMap<BlockId, Arc<SoaNode<D>>>;

/// A concurrently readable node cache implementing one [`CachePolicy`].
///
/// All methods take `&self`; the cache synchronizes internally (see the
/// module docs for the sharding/freezing design).
pub struct ShardedNodeCache<const D: usize> {
    /// True under [`CachePolicy::InternalNodes`].
    pinning: AtomicBool,
    shards: Vec<RwLock<PinnedShard<D>>>,
    frozen: RwLock<Option<FrozenMap<D>>>,
}

impl<const D: usize> ShardedNodeCache<D> {
    /// Creates a cache with the given policy.
    pub fn new(policy: CachePolicy) -> Self {
        ShardedNodeCache {
            pinning: AtomicBool::new(policy == CachePolicy::InternalNodes),
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            frozen: RwLock::new(None),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> CachePolicy {
        if self.pinning.load(Ordering::Acquire) {
            CachePolicy::InternalNodes
        } else {
            CachePolicy::None
        }
    }

    /// Replaces the policy, dropping all cached nodes.
    pub fn set_policy(&self, policy: CachePolicy) {
        *self.frozen.write() = None;
        self.pinning
            .store(policy == CachePolicy::InternalNodes, Ordering::Release);
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    #[inline]
    fn shard(&self, page: BlockId) -> &RwLock<PinnedShard<D>> {
        &self.shards[(page as usize) & (SHARD_COUNT - 1)]
    }

    /// Looks up a node, cloning its `Arc` out of the cache.
    pub fn get(&self, page: BlockId) -> Option<Arc<SoaNode<D>>> {
        self.lookup_with(page, None, Arc::clone)
    }

    /// The current frozen snapshot, if [`ShardedNodeCache::freeze`] ran
    /// and nothing thawed it since. Queries grab this once up front; the
    /// snapshot is immutable, so a query keeps reading a consistent map
    /// even if the cache is thawed mid-traversal (the node `Arc`s it
    /// yields are the same ones the shards hold).
    pub fn frozen_snapshot(&self) -> Option<FrozenMap<D>> {
        self.frozen.read().clone()
    }

    /// Closure-form lookup: runs `f` against the cached node *in place*
    /// and returns its result, or `None` on a miss. The hot query loop
    /// uses this so that a frozen-snapshot hit costs one `HashMap` probe
    /// and nothing else — no lock, no `Arc` refcount traffic, no clone.
    /// (Shard hits run `f` under the shard's read lock; `f` must be
    /// short, which traversal scans are.)
    pub fn lookup_with<R>(
        &self,
        page: BlockId,
        frozen: Option<&FrozenMap<D>>,
        f: impl FnOnce(&Arc<SoaNode<D>>) -> R,
    ) -> Option<R> {
        if !self.pinning.load(Ordering::Acquire) {
            return None;
        }
        // Fast path: the caller's immutable post-warm snapshot — a plain
        // HashMap probe, no locks, no refcount traffic.
        if let Some(map) = frozen {
            // The snapshot is authoritative while it exists:
            // `warm_cache` pins *every* internal node before `freeze`,
            // and every later mutation (`write_node` → `invalidate`,
            // `clear`, `set_policy`) thaws first — so a page absent here
            // is simply not cached. Skip the shard probe; a leaf visit
            // must not pay a RwLock + second HashMap miss.
            return map.get(&page).map(f);
        }
        if let Some(n) = self.frozen.read().as_ref().and_then(|map| map.get(&page)) {
            return Some(f(n));
        }
        self.shard(page).read().get(&page).map(f)
    }

    /// True when the policy would retain a freshly read node at `level`.
    /// The miss path checks this *before* materializing an owned
    /// [`SoaNode`], so leaf reads under [`CachePolicy::InternalNodes`] —
    /// the steady-state hot path — allocate nothing for the cache.
    #[inline]
    pub fn wants(&self, level: u8) -> bool {
        level > 0 && self.pinning.load(Ordering::Acquire)
    }

    /// Offers a freshly read node to the cache; the policy decides whether
    /// to keep it. Policy checks happen before any lock is taken, so leaf
    /// reads under [`CachePolicy::InternalNodes`] stay lock-free here.
    pub fn admit(&self, page: BlockId, node: &Arc<SoaNode<D>>) {
        if self.wants(node.level()) {
            self.shard(page).write().insert(page, Arc::clone(node));
        }
    }

    /// Drops a page (after it is rewritten by a dynamic update). Thaws the
    /// frozen snapshot: the sharded path stays exact, and the next
    /// [`ShardedNodeCache::freeze`] rebuilds the fast path.
    pub fn invalidate(&self, page: BlockId) {
        *self.frozen.write() = None;
        self.shard(page).write().remove(&page);
    }

    /// Empties the cache.
    pub fn clear(&self) {
        *self.frozen.write() = None;
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    /// Snapshots all pinned internal nodes into an immutable map that
    /// queries read without locking (via
    /// [`ShardedNodeCache::frozen_snapshot`]). Called by `warm_cache`
    /// once every internal node is resident; a no-op under
    /// [`CachePolicy::None`] (nothing is pinned).
    pub fn freeze(&self) {
        if !self.pinning.load(Ordering::Acquire) {
            return;
        }
        let mut map = HashMap::new();
        for shard in &self.shards {
            for (k, v) in shard.read().iter() {
                map.insert(*k, Arc::clone(v));
            }
        }
        *self.frozen.write() = Some(Arc::new(map));
    }

    /// True when the post-warm frozen snapshot is active.
    pub fn is_frozen(&self) -> bool {
        self.frozen.read().is_some()
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;
    use crate::page::NodePage;
    use pr_geom::Rect;

    fn node(level: u8) -> Arc<SoaNode<2>> {
        Arc::new(SoaNode::from_page(&NodePage::new(
            level,
            vec![Entry::new(Rect::xyxy(0.0, 0.0, 1.0, 1.0), 0)],
        )))
    }

    #[test]
    fn none_policy_never_caches() {
        let c = ShardedNodeCache::new(CachePolicy::None);
        c.admit(1, &node(2));
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn internal_policy_skips_leaves() {
        let c = ShardedNodeCache::new(CachePolicy::InternalNodes);
        c.admit(1, &node(0)); // leaf: not cached
        c.admit(2, &node(1)); // internal: cached
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let c = ShardedNodeCache::new(CachePolicy::InternalNodes);
        c.admit(2, &node(1));
        c.invalidate(2);
        assert!(c.get(2).is_none());
    }

    #[test]
    fn clear_empties() {
        let c = ShardedNodeCache::new(CachePolicy::InternalNodes);
        c.admit(2, &node(1));
        c.admit(3, &node(3));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn freeze_serves_pinned_nodes_and_thaws_on_invalidate() {
        let c = ShardedNodeCache::new(CachePolicy::InternalNodes);
        c.admit(2, &node(1));
        c.admit(19, &node(2));
        c.freeze();
        assert!(c.is_frozen());
        assert!(c.get(2).is_some());
        assert!(c.get(19).is_some());
        assert!(c.get(500).is_none(), "unknown page misses through frozen");
        // Admissions after freeze are still visible (sharded fallback).
        c.admit(33, &node(1));
        assert!(c.get(33).is_some());
        // Invalidation thaws and the page is really gone.
        c.invalidate(2);
        assert!(!c.is_frozen());
        assert!(c.get(2).is_none());
        assert!(c.get(19).is_some());
    }

    #[test]
    fn snapshot_lookups_bypass_shared_state_and_stay_consistent() {
        let c = ShardedNodeCache::new(CachePolicy::InternalNodes);
        c.admit(2, &node(1));
        c.freeze();
        let snap = c.frozen_snapshot().expect("frozen after freeze");
        assert!(c.lookup_with(2, Some(&snap), |_| ()).is_some());
        // Thaw mid-"query": the held snapshot still answers.
        c.invalidate(99);
        assert!(!c.is_frozen());
        assert!(c.frozen_snapshot().is_none());
        assert!(c.lookup_with(2, Some(&snap), |_| ()).is_some());
    }

    #[test]
    fn freeze_is_noop_for_other_policies() {
        let c = ShardedNodeCache::<2>::new(CachePolicy::None);
        c.freeze();
        assert!(!c.is_frozen());
    }

    #[test]
    fn set_policy_resets_contents_and_stats() {
        let c = ShardedNodeCache::new(CachePolicy::InternalNodes);
        c.admit(2, &node(1));
        c.freeze();
        assert!(c.get(2).is_some());
        c.set_policy(CachePolicy::None);
        assert_eq!(c.policy(), CachePolicy::None);
        assert!(c.is_empty());
        assert!(!c.is_frozen());
        assert!(c.get(2).is_none());
    }

    #[test]
    fn wants_mirrors_admit_policy() {
        let c = ShardedNodeCache::<2>::new(CachePolicy::InternalNodes);
        assert!(!c.wants(0), "leaves are never pinned");
        assert!(c.wants(1));
        c.set_policy(CachePolicy::None);
        assert!(!c.wants(3));
    }

    #[test]
    fn lookup_with_runs_in_place() {
        let c = ShardedNodeCache::new(CachePolicy::InternalNodes);
        c.admit(2, &node(1));
        assert_eq!(c.lookup_with(2, None, |n| n.level()), Some(1));
        assert_eq!(c.lookup_with(9, None, |n| n.level()), None);
        c.freeze();
        let snap = c.frozen_snapshot().unwrap();
        assert_eq!(c.lookup_with(2, Some(&snap), |n| n.len()), Some(1));
    }

    #[test]
    fn concurrent_readers_count_exactly() {
        let c = ShardedNodeCache::<2>::new(CachePolicy::InternalNodes);
        for p in 0..64u64 {
            c.admit(p, &node(1));
        }
        c.freeze();
        // A reader's panic fails the scope, so every outcome is checked.
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        // Even lookups are pinned pages and hit; odd ones miss.
                        let pinned = i % 2 == 0;
                        let page = (i + t) % 64 + if pinned { 0 } else { 1000 };
                        assert_eq!(c.get(page).is_some(), pinned, "page {page}");
                    }
                });
            }
        });
    }
}
