//! Node cache policies — sharded for concurrent readers.
//!
//! The paper's query experiments keep *all internal nodes* cached ("they
//! never occupied more than 6MB", §3.3), so reported query I/O equals the
//! number of leaves fetched. Footnote 5 also reports a run with the cache
//! disabled. Both policies, plus a bounded LRU for ablations, live here.
//!
//! # Sharded-cache design
//!
//! The original runtime wrapped one `NodeCache` in a global
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
//! * **Exact statistics.** Hits/misses accumulate in the shared atomic
//!   [`pr_em::HitCounters`]; every lookup increments exactly one counter,
//!   so totals equal the serial run's regardless of thread interleaving.
//!   Query code batches its counts locally (one [`CacheTally`] per query)
//!   and flushes once via [`ShardedNodeCache::record`], keeping the hot
//!   loop free of shared-cacheline traffic.
//! * **LRU stays global.** [`CachePolicy::Lru`] is the ablation path: it
//!   needs recency updates on every lookup, so it lives behind a single
//!   lock with *exactly* the configured capacity — same semantics as the
//!   pre-sharding cache. It is not meant for the concurrent hot path.
//!
//! Policy is stored as atomics (`tag` + LRU capacity) so `get`/`admit`
//! can take their early-outs — `CachePolicy::None` lookups and leaf
//! admissions under `InternalNodes` — without touching any lock.
//!
//! # The shared leaf cache
//!
//! The per-tree cache above answers the paper's setup (pin every
//! internal node); **leaves** of store-backed trees were still a device
//! read + transcode on every visit of every query. [`LeafCache`] is the
//! LSM-style cure: one bounded, sharded cache of transcoded leaf
//! [`SoaNode`]s **shared across trees** — all components of one pr-live
//! snapshot feed one cache — keyed by `(cache epoch, BlockId)` and
//! sized in **bytes**, not pages. It is an attachment
//! ([`crate::tree::RTree::attach_leaf_cache`]) rather than a
//! [`CachePolicy`] variant because its two defining properties — shared
//! across trees, keyed by an epoch the owner retires — do not fit a
//! per-tree policy enum: a `CachePolicy::LeafLru` would give every
//! component a private budget and no way to drop a replaced snapshot's
//! pages wholesale. Epochs come from [`LeafCache::register_epoch`]
//! (monotonic, never reused — store commit epochs restart after a
//! `compact()` rewrite, so they cannot key a shared cache), and
//! [`LeafCache::retain_epochs`] evicts every dead snapshot's entries
//! after a merge/compaction swap. The live set is exactly that — a
//! **set**, not a floor: incremental merges reuse components in place,
//! so a surviving component's old epoch stays live while *newer*
//! epochs (the merged-away inputs) die. Caching leaves is only sound
//! because committed snapshots are immutable — there is no
//! invalidation path, only whole-epoch retirement.
//!
//! Admission is **scan-resistant**: a leaf enters the LRU only on its
//! second touch. The first miss records the key in a small per-shard
//! ghost ring (keys only, no node bytes) and drops the node; a later
//! miss that finds its key in the ring ([`LeafCache::ghost_hits`])
//! admits for real. A one-pass cold scan over 100% of the index
//! touches every page once, so it fills only the ghost rings and
//! cannot evict the hot set that repeated queries have established.

use crate::soa::SoaNode;
use parking_lot::{Mutex, RwLock};
use pr_em::lru::LruCache;
use pr_em::{BlockId, HitCounters};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
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
    /// Global LRU over all nodes (internal and leaves) with exactly the
    /// given capacity in pages. Single-lock; intended for cache-size
    /// ablations, not the concurrent hot path.
    Lru(usize),
}

const TAG_NONE: u8 = 0;
const TAG_INTERNAL: u8 = 1;
const TAG_LRU: u8 = 2;

/// Per-query local hit/miss accumulator; flushed once per query through
/// [`ShardedNodeCache::record`] so global totals stay exact without
/// per-node atomic traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheTally {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the device.
    pub misses: u64,
    /// Leaf pages served by the shared [`LeafCache`] (no device read).
    pub leaf_hits: u64,
    /// Leaf pages that missed the attached [`LeafCache`] and were read
    /// from the device (then admitted). Zero when no cache is attached.
    pub leaf_misses: u64,
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
/// module docs for the sharding/freezing design). The former name
/// `NodeCache` remains as an alias.
pub struct ShardedNodeCache<const D: usize> {
    policy_tag: AtomicU8,
    lru_capacity: AtomicUsize,
    shards: Vec<RwLock<PinnedShard<D>>>,
    lru: RwLock<Option<LruCache<BlockId, Arc<SoaNode<D>>>>>,
    frozen: RwLock<Option<FrozenMap<D>>>,
    stats: HitCounters,
}

/// Backwards-compatible alias for the pre-sharding type name.
pub type NodeCache<const D: usize> = ShardedNodeCache<D>;

fn new_lru<const D: usize>(policy: CachePolicy) -> Option<LruCache<BlockId, Arc<SoaNode<D>>>> {
    match policy {
        CachePolicy::Lru(cap) => Some(LruCache::new(cap.max(1))),
        _ => None,
    }
}

impl<const D: usize> ShardedNodeCache<D> {
    /// Creates a cache with the given policy.
    pub fn new(policy: CachePolicy) -> Self {
        let cache = ShardedNodeCache {
            policy_tag: AtomicU8::new(TAG_NONE),
            lru_capacity: AtomicUsize::new(0),
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            lru: RwLock::new(new_lru::<D>(policy)),
            frozen: RwLock::new(None),
            stats: HitCounters::new(),
        };
        cache.store_policy(policy);
        cache
    }

    fn store_policy(&self, policy: CachePolicy) {
        let (tag, cap) = match policy {
            CachePolicy::None => (TAG_NONE, 0),
            CachePolicy::InternalNodes => (TAG_INTERNAL, 0),
            CachePolicy::Lru(cap) => (TAG_LRU, cap),
        };
        self.lru_capacity.store(cap, Ordering::Relaxed);
        self.policy_tag.store(tag, Ordering::Release);
    }

    /// The configured policy.
    pub fn policy(&self) -> CachePolicy {
        match self.policy_tag.load(Ordering::Acquire) {
            TAG_NONE => CachePolicy::None,
            TAG_INTERNAL => CachePolicy::InternalNodes,
            _ => CachePolicy::Lru(self.lru_capacity.load(Ordering::Relaxed)),
        }
    }

    /// Replaces the policy, dropping all cached nodes and resetting hit
    /// statistics (matches the old `*cache = NodeCache::new(policy)`).
    pub fn set_policy(&self, policy: CachePolicy) {
        *self.frozen.write() = None;
        self.store_policy(policy);
        for shard in &self.shards {
            shard.write().clear();
        }
        *self.lru.write() = new_lru::<D>(policy);
        self.stats.reset();
    }

    #[inline]
    fn shard(&self, page: BlockId) -> &RwLock<PinnedShard<D>> {
        &self.shards[(page as usize) & (SHARD_COUNT - 1)]
    }

    /// Looks up a node and records the hit/miss in the shared counters.
    pub fn get(&self, page: BlockId) -> Option<Arc<SoaNode<D>>> {
        let found = self.lookup(page, None);
        if found.is_some() {
            self.stats.add_hits(1);
        } else {
            self.stats.add_misses(1);
        }
        found
    }

    /// Folds a per-query tally into the shared counters. Query loops
    /// count each [`ShardedNodeCache::lookup_with`] outcome into their
    /// local [`CacheTally`] and flush it here exactly once.
    pub fn record(&self, tally: CacheTally) {
        self.stats.add_hits(tally.hits);
        self.stats.add_misses(tally.misses);
    }

    /// The current frozen snapshot, if [`ShardedNodeCache::freeze`] ran
    /// and nothing thawed it since. Queries grab this once up front; the
    /// snapshot is immutable, so a query keeps reading a consistent map
    /// even if the cache is thawed mid-traversal (the node `Arc`s it
    /// yields are the same ones the shards hold).
    pub fn frozen_snapshot(&self) -> Option<FrozenMap<D>> {
        self.frozen.read().clone()
    }

    fn lookup(&self, page: BlockId, frozen: Option<&FrozenMap<D>>) -> Option<Arc<SoaNode<D>>> {
        self.lookup_with(page, frozen, Arc::clone)
    }

    /// Closure-form lookup: runs `f` against the cached node *in place*
    /// and returns its result, or `None` on a miss. The hot query loop
    /// uses this so that a frozen-snapshot hit costs one `HashMap` probe
    /// and nothing else — no lock, no `Arc` refcount traffic, no clone.
    /// (Shard/LRU hits run `f` under the shard's read lock / the LRU's
    /// write lock; `f` must be short, which traversal scans are.)
    pub fn lookup_with<R>(
        &self,
        page: BlockId,
        frozen: Option<&FrozenMap<D>>,
        f: impl FnOnce(&Arc<SoaNode<D>>) -> R,
    ) -> Option<R> {
        match self.policy_tag.load(Ordering::Acquire) {
            TAG_NONE => None,
            TAG_INTERNAL => {
                // Fast path: the caller's immutable post-warm snapshot —
                // a plain HashMap probe, no locks, no refcount traffic.
                if let Some(map) = frozen {
                    // The snapshot is authoritative while it exists:
                    // `warm_cache` pins *every* internal node before
                    // `freeze`, and every later mutation (`write_node` →
                    // `invalidate`, `clear`, `set_policy`) thaws first —
                    // so a page absent here is simply not cached. Skip
                    // the shard probe; a leaf visit must not pay a
                    // RwLock + second HashMap miss.
                    return map.get(&page).map(f);
                } else {
                    let guard = self.frozen.read();
                    if let Some(n) = guard.as_ref().and_then(|map| map.get(&page)) {
                        return Some(f(n));
                    }
                }
                self.shard(page).read().get(&page).map(f)
            }
            _ => {
                // LRU updates recency on every lookup → global write lock
                // (ablation path; see module docs).
                let mut lru = self.lru.write();
                lru.as_mut().and_then(|l| l.get(&page)).map(f)
            }
        }
    }

    /// True when the policy would retain a freshly read node at `level`.
    /// The miss path checks this *before* materializing an owned
    /// [`SoaNode`], so leaf reads under [`CachePolicy::InternalNodes`] —
    /// the steady-state hot path — allocate nothing for the cache.
    #[inline]
    pub fn wants(&self, level: u8) -> bool {
        match self.policy_tag.load(Ordering::Acquire) {
            TAG_NONE => false,
            TAG_INTERNAL => level > 0,
            _ => true,
        }
    }

    /// Offers a freshly read node to the cache; the policy decides whether
    /// to keep it. Policy checks happen before any lock is taken, so leaf
    /// reads under [`CachePolicy::InternalNodes`] stay lock-free here.
    pub fn admit(&self, page: BlockId, node: &Arc<SoaNode<D>>) {
        match self.policy_tag.load(Ordering::Acquire) {
            TAG_NONE => {}
            TAG_INTERNAL => {
                if !node.is_leaf() {
                    self.shard(page).write().insert(page, Arc::clone(node));
                }
            }
            _ => {
                let mut lru = self.lru.write();
                if let Some(l) = lru.as_mut() {
                    l.insert(page, Arc::clone(node));
                }
            }
        }
    }

    /// Drops a page (after it is rewritten by a dynamic update). Thaws the
    /// frozen snapshot: the sharded path stays exact, and the next
    /// [`ShardedNodeCache::freeze`] rebuilds the fast path.
    pub fn invalidate(&self, page: BlockId) {
        *self.frozen.write() = None;
        self.shard(page).write().remove(&page);
        if let Some(l) = self.lru.write().as_mut() {
            l.remove(&page);
        }
    }

    /// Empties the cache (does not reset hit statistics).
    pub fn clear(&self) {
        *self.frozen.write() = None;
        for shard in &self.shards {
            shard.write().clear();
        }
        if let Some(l) = self.lru.write().as_mut() {
            l.drain();
        }
    }

    /// Snapshots all pinned internal nodes into an immutable map that
    /// queries read without locking (via
    /// [`ShardedNodeCache::frozen_snapshot`]). Called by `warm_cache`
    /// once every internal node is resident; a no-op under the other
    /// policies (nothing is pinned).
    pub fn freeze(&self) {
        if self.policy_tag.load(Ordering::Acquire) != TAG_INTERNAL {
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
        let pinned: usize = self.shards.iter().map(|s| s.read().len()).sum();
        pinned + self.lru.read().as_ref().map_or(0, |l| l.len())
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` since construction (or the last policy change).
    pub fn hit_stats(&self) -> (u64, u64) {
        self.stats.snapshot()
    }
}

/// One shard of the [`LeafCache`]: an LRU over `(epoch, page)` with
/// byte accounting, plus a fixed ring of **ghost keys** — pages seen
/// exactly once, holding no node bytes. The entry-count cap handed to
/// the inner [`LruCache`] is a generous upper bound (a leaf `SoaNode`
/// is never smaller than [`LEAF_ENTRY_FLOOR`] bytes); the **byte**
/// budget is what actually bounds residency.
struct LeafShard<const D: usize> {
    lru: LruCache<(u64, BlockId), Arc<SoaNode<D>>>,
    bytes: usize,
    /// Second-touch admission filter: keys recently missed (or evicted
    /// under byte pressure) that will be admitted if touched again
    /// while still in the ring. Overwritten FIFO at `ghost_cursor`.
    ghosts: Vec<Option<(u64, BlockId)>>,
    ghost_cursor: usize,
}

impl<const D: usize> LeafShard<D> {
    /// Records a key in the ghost ring, overwriting the oldest slot.
    fn note_ghost(&mut self, key: (u64, BlockId)) {
        let cur = self.ghost_cursor;
        self.ghosts[cur] = Some(key);
        self.ghost_cursor = (cur + 1) % self.ghosts.len();
    }

    /// Consumes a ghost entry for `key`, if present.
    fn take_ghost(&mut self, key: (u64, BlockId)) -> bool {
        match self.ghosts.iter().position(|g| *g == Some(key)) {
            Some(slot) => {
                self.ghosts[slot] = None;
                true
            }
            None => false,
        }
    }
}

/// Conservative lower bound on the resident size of one cached leaf,
/// used only to cap the per-shard entry count.
const LEAF_ENTRY_FLOOR: usize = 128;

/// Ghost-key slots per shard. Keys are 16 bytes, so the whole filter
/// costs ~2 KiB per shard — noise next to the byte budget — while
/// remembering the last ~2 k distinct misses across the cache, enough
/// for a hot set's second touches to land before its keys rotate out.
const GHOST_RING_CAPACITY: usize = 128;

/// A bounded, sharded cache of transcoded leaf nodes shared across the
/// trees of one snapshot lineage (see the module docs). All methods take
/// `&self`; shards are independent mutexes indexed by the low bits of
/// the page id, so concurrent queries of different pages rarely contend
/// and the critical sections are a probe or an insert — never a scan.
pub struct LeafCache<const D: usize> {
    shards: Vec<Mutex<LeafShard<D>>>,
    /// Byte budget per shard (total budget / [`SHARD_COUNT`]).
    shard_budget: usize,
    capacity_bytes: usize,
    next_epoch: AtomicU64,
    /// The set of epochs whose admissions are accepted. Registration
    /// inserts; [`LeafCache::retain_epochs`] replaces the set with the
    /// survivors, so pinned readers of replaced snapshots (which still
    /// hold the cache under their dead epoch) cannot re-admit dead
    /// leaves and evict the live snapshot's hot set — their admits
    /// become no-ops and their lookups miss. A set rather than a
    /// high-water mark because incremental merges keep *old* epochs
    /// live (reused components) while retiring newer ones (merged
    /// inputs).
    live: RwLock<HashSet<u64>>,
    ghost_hits: AtomicU64,
    stats: HitCounters,
}

/// Default byte budget for a shared leaf cache — one constant for the
/// CLI defaults and `pr-live`'s `LiveOptions::default`, so the two
/// front ends cannot drift apart.
pub const DEFAULT_LEAF_CACHE_BYTES: usize = 16 << 20;

impl<const D: usize> LeafCache<D> {
    /// A cache bounded to roughly `capacity_bytes` of resident
    /// transcoded leaves (accounted via [`SoaNode::approx_bytes`],
    /// spread evenly over [`SHARD_COUNT`] shards).
    pub fn new(capacity_bytes: usize) -> Self {
        let shard_budget = (capacity_bytes / SHARD_COUNT).max(LEAF_ENTRY_FLOOR);
        let max_entries = (shard_budget / LEAF_ENTRY_FLOOR).max(1);
        LeafCache {
            shards: (0..SHARD_COUNT)
                .map(|_| {
                    Mutex::new(LeafShard {
                        lru: LruCache::new(max_entries),
                        bytes: 0,
                        ghosts: vec![None; GHOST_RING_CAPACITY],
                        ghost_cursor: 0,
                    })
                })
                .collect(),
            shard_budget,
            capacity_bytes,
            next_epoch: AtomicU64::new(1),
            live: RwLock::new(HashSet::new()),
            ghost_hits: AtomicU64::new(0),
            stats: HitCounters::new(),
        }
    }

    /// Hands out a fresh, never-reused epoch and marks it live. Every
    /// component attaches under its own epoch, so entries of a replaced
    /// component can never alias a new one's page ids — store commit
    /// epochs restart when `compact()` rewrites the file, which is
    /// exactly why the cache numbers its own.
    pub fn register_epoch(&self) -> u64 {
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        self.live.write().insert(epoch);
        epoch
    }

    #[inline]
    fn shard(&self, page: BlockId) -> &Mutex<LeafShard<D>> {
        &self.shards[(page as usize) & (SHARD_COUNT - 1)]
    }

    /// Looks up a cached leaf. Hit/miss accounting is the caller's job
    /// (queries batch into a [`CacheTally`] and flush once; see
    /// [`LeafCache::record`]) so the hot loop touches no shared counter.
    pub fn get(&self, epoch: u64, page: BlockId) -> Option<Arc<SoaNode<D>>> {
        self.shard(page).lock().lru.get(&(epoch, page)).cloned()
    }

    /// Offers a freshly transcoded leaf. Admission is second-touch: the
    /// first offer of a key only records it in the shard's ghost ring
    /// and drops the node; an offer whose key is still in the ring (or
    /// already resident — a replacement) inserts for real, evicting
    /// least-recently-used entries (of any epoch) until the shard is
    /// back under its byte budget. Evicted keys re-enter the ghost
    /// ring, so a hot page squeezed out by pressure returns after one
    /// touch. A node larger than the whole shard budget is admitted
    /// and immediately evicted — harmless, and it keeps the bound
    /// strict. Admissions under a retired epoch (a pinned reader of a
    /// replaced snapshot) are dropped entirely: dead leaves must not
    /// evict the live snapshot's hot set nor squat in its ghost ring.
    pub fn admit(&self, epoch: u64, page: BlockId, node: Arc<SoaNode<D>>) {
        self.admit_with(epoch, page, || node);
    }

    /// Closure form of [`LeafCache::admit`]: `make` materializes the
    /// owned node and runs only when the cache will actually insert, so
    /// the common first touch of a cold scan costs a 16-byte ghost-ring
    /// write and **zero** allocation. (`make` runs under the shard
    /// lock; it must be short — the tree's leaf clone is.)
    pub fn admit_with(&self, epoch: u64, page: BlockId, make: impl FnOnce() -> Arc<SoaNode<D>>) {
        let key = (epoch, page);
        let mut shard = self.shard(page).lock();
        // Checked *under the shard lock*: `retain_epochs` replaces the
        // live set before sweeping the shards, so either this admit
        // sees the shrunk set here and drops out, or it completes
        // before the sweep takes this shard's lock and the sweep
        // removes the entry. A check outside the lock would leave a
        // window where a dead-epoch admission lands just after the
        // sweep and squats in the budget until the next merge.
        if !self.live.read().contains(&epoch) {
            return;
        }
        if shard.lru.peek(&key).is_none() {
            if shard.take_ghost(key) {
                self.ghost_hits.fetch_add(1, Ordering::Relaxed);
                crate::obs::leaf_cache_ghost_hit();
            } else {
                // First touch: remember the key, keep no bytes.
                shard.note_ghost(key);
                return;
            }
        }
        let node = make();
        let add = node.approx_bytes();
        let mut delta = add as i64;
        if let Some((_, old)) = shard.lru.insert(key, node) {
            shard.bytes -= old.approx_bytes();
            delta -= old.approx_bytes() as i64;
        }
        shard.bytes += add;
        while shard.bytes > self.shard_budget {
            match shard.lru.pop_lru() {
                Some((evicted_key, evicted)) => {
                    shard.bytes -= evicted.approx_bytes();
                    delta -= evicted.approx_bytes() as i64;
                    shard.note_ghost(evicted_key);
                }
                None => break,
            }
        }
        crate::obs::leaf_cache_bytes_delta(delta);
    }

    /// Folds a per-query tally's leaf-cache counts into the shared
    /// counters (called once per query via the tree's tally flush).
    pub fn record(&self, tally: CacheTally) {
        self.stats.add_hits(tally.leaf_hits);
        self.stats.add_misses(tally.leaf_misses);
    }

    /// Drops one page (defensive hook for the write path; immutable
    /// store-backed trees never call it in practice).
    pub fn evict(&self, epoch: u64, page: BlockId) {
        let mut shard = self.shard(page).lock();
        if let Some(node) = shard.lru.remove(&(epoch, page)) {
            shard.bytes -= node.approx_bytes();
            crate::obs::leaf_cache_bytes_delta(-(node.approx_bytes() as i64));
        }
    }

    /// Single-survivor form of [`LeafCache::retain_epochs`] — the full
    /// rewrite (`compact()`, legacy merge) replaces every component, so
    /// exactly one epoch survives.
    pub fn retain_epoch(&self, epoch: u64) {
        self.retain_epochs(&[epoch]);
    }

    /// Evicts every entry whose epoch is not in `live` — the
    /// merge/compaction swap calls this with the epochs of the
    /// components that make up the snapshot that just became current
    /// (an incremental merge keeps reused components' *old* epochs
    /// alive alongside the new output's), dropping all dead snapshots'
    /// leaves at once. Every other epoch is retired permanently: pinned
    /// readers of replaced snapshots keep querying (and simply miss),
    /// but their admissions no longer land in the shared budget.
    pub fn retain_epochs(&self, live: &[u64]) {
        let keep: HashSet<u64> = live.iter().copied().collect();
        // Replace the live set *before* sweeping: see the ordering
        // comment in `admit_with`.
        *self.live.write() = keep.clone();
        let mut evicted = 0u64;
        let mut freed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let dead: Vec<(u64, BlockId)> = shard
                .lru
                .iter()
                .filter(|((e, _), _)| !keep.contains(e))
                .map(|(k, _)| *k)
                .collect();
            for key in dead {
                if let Some(node) = shard.lru.remove(&key) {
                    shard.bytes -= node.approx_bytes();
                    evicted += 1;
                    freed += node.approx_bytes() as u64;
                }
            }
            // Dead ghost keys can never be admitted again; free their
            // slots for the live epochs' misses.
            for slot in shard.ghosts.iter_mut() {
                if matches!(slot, Some((e, _)) if !keep.contains(e)) {
                    *slot = None;
                }
            }
        }
        crate::obs::leaf_cache_bytes_delta(-(freed as i64));
        crate::obs::metrics().cache_epochs_retired.inc();
        let mut lives: Vec<u64> = keep.into_iter().collect();
        lives.sort_unstable();
        pr_obs::events().emit(
            "cache_epoch_retire",
            format!("live={lives:?} evicted={evicted} freed_bytes={freed}"),
        );
    }

    /// Drops everything, ghost keys included (keeps hit statistics).
    pub fn clear(&self) {
        let mut freed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.lru.drain();
            freed += shard.bytes as u64;
            shard.bytes = 0;
            shard.ghosts.fill(None);
            shard.ghost_cursor = 0;
        }
        crate::obs::leaf_cache_bytes_delta(-(freed as i64));
    }

    /// Cached leaves across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().lru.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// `(hits, misses)` since construction.
    pub fn hit_stats(&self) -> (u64, u64) {
        self.stats.snapshot()
    }

    /// Misses whose key was found in a ghost ring — i.e. second touches
    /// that turned into real admissions. High ghost hits relative to
    /// misses means the working set cycles faster than the rings
    /// remember; near zero under a pure scan means the filter is doing
    /// its job.
    pub fn ghost_hits(&self) -> u64 {
        self.ghost_hits.load(Ordering::Relaxed)
    }
}

impl<const D: usize> Drop for LeafCache<D> {
    /// The process-wide `tree_leaf_cache_resident_bytes` gauge sums
    /// over all live caches; a cache that goes away takes its bytes
    /// with it.
    fn drop(&mut self) {
        let freed: usize = self.shards.iter_mut().map(|s| s.get_mut().bytes).sum();
        crate::obs::leaf_cache_bytes_delta(-(freed as i64));
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
        let c = NodeCache::new(CachePolicy::None);
        c.admit(1, &node(2));
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
        assert_eq!(c.hit_stats(), (0, 1));
    }

    #[test]
    fn internal_policy_skips_leaves() {
        let c = NodeCache::new(CachePolicy::InternalNodes);
        c.admit(1, &node(0)); // leaf: not cached
        c.admit(2, &node(1)); // internal: cached
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_some());
        assert_eq!(c.len(), 1);
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn lru_policy_is_global_with_exact_capacity() {
        let c = NodeCache::new(CachePolicy::Lru(2));
        // Pages land in different shards, but the LRU is global: the
        // third admission evicts the least recently used page whatever
        // its shard, and total residency never exceeds the configured 2.
        c.admit(1, &node(0));
        c.admit(2, &node(1));
        c.admit(3, &node(0)); // evicts page 1
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidate_removes() {
        let c = NodeCache::new(CachePolicy::InternalNodes);
        c.admit(2, &node(1));
        c.invalidate(2);
        assert!(c.get(2).is_none());
        let c = NodeCache::new(CachePolicy::Lru(64));
        c.admit(2, &node(1));
        c.invalidate(2);
        assert!(c.get(2).is_none());
    }

    #[test]
    fn clear_empties() {
        let c = NodeCache::new(CachePolicy::InternalNodes);
        c.admit(2, &node(1));
        c.admit(3, &node(3));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn freeze_serves_pinned_nodes_and_thaws_on_invalidate() {
        let c = NodeCache::new(CachePolicy::InternalNodes);
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
        let c = NodeCache::new(CachePolicy::InternalNodes);
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
        let c = NodeCache::new(CachePolicy::Lru(8));
        c.admit(1, &node(0));
        c.freeze();
        assert!(!c.is_frozen());
        let c = NodeCache::<2>::new(CachePolicy::None);
        c.freeze();
        assert!(!c.is_frozen());
    }

    #[test]
    fn set_policy_resets_contents_and_stats() {
        let c = NodeCache::new(CachePolicy::InternalNodes);
        c.admit(2, &node(1));
        c.freeze();
        let _ = c.get(2);
        assert_eq!(c.hit_stats(), (1, 0));
        c.set_policy(CachePolicy::None);
        assert_eq!(c.policy(), CachePolicy::None);
        assert!(c.is_empty());
        assert!(!c.is_frozen());
        assert_eq!(c.hit_stats(), (0, 0));
    }

    #[test]
    fn tallied_lookups_flush_exactly() {
        // Query-style accounting: outcomes counted into a local tally
        // (as the traversal's node access does), flushed exactly once.
        let c = NodeCache::new(CachePolicy::InternalNodes);
        c.admit(2, &node(1));
        let mut tally = CacheTally::default();
        for page in [2u64, 7] {
            if c.lookup_with(page, None, |_| ()).is_some() {
                tally.hits += 1;
            } else {
                tally.misses += 1;
            }
        }
        assert_eq!((tally.hits, tally.misses), (1, 1));
        assert_eq!(c.hit_stats(), (0, 0), "nothing flushed yet");
        c.record(tally);
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn wants_mirrors_admit_policy() {
        let c = NodeCache::<2>::new(CachePolicy::InternalNodes);
        assert!(!c.wants(0), "leaves are never pinned");
        assert!(c.wants(1));
        c.set_policy(CachePolicy::None);
        assert!(!c.wants(3));
        c.set_policy(CachePolicy::Lru(4));
        assert!(c.wants(0));
    }

    #[test]
    fn lookup_with_runs_in_place() {
        let c = NodeCache::new(CachePolicy::InternalNodes);
        c.admit(2, &node(1));
        assert_eq!(c.lookup_with(2, None, |n| n.level()), Some(1));
        assert_eq!(c.lookup_with(9, None, |n| n.level()), None);
        c.freeze();
        let snap = c.frozen_snapshot().unwrap();
        assert_eq!(c.lookup_with(2, Some(&snap), |n| n.len()), Some(1));
        // LRU arm too.
        let c = NodeCache::new(CachePolicy::Lru(4));
        c.admit(5, &node(0));
        assert_eq!(c.lookup_with(5, None, |n| n.level()), Some(0));
    }

    fn leaf(entries: usize) -> Arc<SoaNode<2>> {
        let ents: Vec<Entry<2>> = (0..entries)
            .map(|i| Entry::new(Rect::xyxy(i as f64, 0.0, i as f64 + 1.0, 1.0), i as u32))
            .collect();
        Arc::new(SoaNode::from_page(&NodePage::new(0, ents)))
    }

    /// Offers a leaf twice so it passes second-touch admission — the
    /// shorthand for tests that want a page *resident*.
    fn admit2(c: &LeafCache<2>, e: u64, page: BlockId, n: Arc<SoaNode<2>>) {
        c.admit(e, page, Arc::clone(&n));
        c.admit(e, page, n);
    }

    #[test]
    fn leaf_cache_roundtrip_and_epoch_isolation() {
        let c = LeafCache::<2>::new(1 << 20);
        let e1 = c.register_epoch();
        let e2 = c.register_epoch();
        assert_ne!(e1, e2);
        admit2(&c, e1, 7, leaf(5));
        assert!(c.get(e1, 7).is_some());
        // Same page id under another epoch is a distinct entry.
        assert!(c.get(e2, 7).is_none());
        admit2(&c, e2, 7, leaf(9));
        assert_eq!(c.get(e1, 7).unwrap().len(), 5);
        assert_eq!(c.get(e2, 7).unwrap().len(), 9);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn leaf_cache_admits_on_second_touch_only() {
        let c = LeafCache::<2>::new(1 << 20);
        let e = c.register_epoch();
        c.admit(e, 7, leaf(5));
        assert!(c.get(e, 7).is_none(), "first touch only ghosts the key");
        assert_eq!(c.resident_bytes(), 0, "a ghost holds no node bytes");
        assert_eq!(c.ghost_hits(), 0);
        c.admit(e, 7, leaf(5));
        assert!(c.get(e, 7).is_some(), "second touch admits for real");
        assert_eq!(c.ghost_hits(), 1);
        // A resident page re-admitted (replacement) is not a ghost hit.
        c.admit(e, 7, leaf(6));
        assert_eq!(c.get(e, 7).unwrap().len(), 6);
        assert_eq!(c.ghost_hits(), 1);
    }

    #[test]
    fn leaf_cache_admit_with_skips_materialization_on_first_touch() {
        let c = LeafCache::<2>::new(1 << 20);
        let e = c.register_epoch();
        let mut made = 0u32;
        c.admit_with(e, 9, || {
            made += 1;
            leaf(4)
        });
        assert_eq!(made, 0, "first touch must not build the node");
        c.admit_with(e, 9, || {
            made += 1;
            leaf(4)
        });
        assert_eq!(made, 1);
        assert!(c.get(e, 9).is_some());
    }

    #[test]
    fn leaf_cache_scan_survives_one_pass_over_cold_pages() {
        let c = LeafCache::<2>::new(1 << 20);
        let e = c.register_epoch();
        // Establish a hot set with repeated touches.
        for p in 0..8u64 {
            admit2(&c, e, p, leaf(10));
        }
        assert_eq!(c.len(), 8);
        // A full cold scan: thousands of pages, each touched once.
        for p in 100..4100u64 {
            c.admit(e, p, leaf(10));
        }
        // Nothing was admitted, so nothing hot was evicted.
        assert_eq!(c.len(), 8, "one-pass scan must not displace the hot set");
        for p in 0..8u64 {
            assert!(c.get(e, p).is_some(), "hot page {p} was evicted by a scan");
        }
    }

    #[test]
    fn leaf_cache_is_byte_bounded() {
        // Budget of ~4 leaves per shard; hammer one shard (page ids that
        // collide mod SHARD_COUNT) and check residency stays bounded.
        let node = leaf(100);
        let budget = node.approx_bytes() * 4 * SHARD_COUNT;
        let c = LeafCache::<2>::new(budget);
        let e = c.register_epoch();
        for i in 0..64u64 {
            admit2(&c, e, i * SHARD_COUNT as u64, leaf(100));
        }
        assert!(c.len() <= 4, "shard holds {} > 4 leaves", c.len());
        assert!(c.resident_bytes() <= budget / SHARD_COUNT);
        // Eviction is LRU: the most recent page survives.
        assert!(c.get(e, 63 * SHARD_COUNT as u64).is_some());
        assert!(c.get(e, 0).is_none());
        // An evicted key went back into the ghost ring, so a hot page
        // squeezed out by pressure returns after a single re-touch.
        assert!(
            c.get(e, 59 * SHARD_COUNT as u64).is_none(),
            "59 was evicted"
        );
        c.admit(e, 59 * SHARD_COUNT as u64, leaf(100));
        assert!(
            c.get(e, 59 * SHARD_COUNT as u64).is_some(),
            "pressure-evicted page must re-enter on one touch"
        );
    }

    #[test]
    fn leaf_cache_retain_epoch_drops_dead_snapshots() {
        let c = LeafCache::<2>::new(1 << 20);
        let old = c.register_epoch();
        let new = c.register_epoch();
        for p in 0..20u64 {
            admit2(&c, old, p, leaf(3));
        }
        for p in 0..5u64 {
            admit2(&c, new, p, leaf(3));
        }
        c.retain_epoch(new);
        assert_eq!(c.len(), 5);
        assert!(c.get(old, 1).is_none());
        assert!(c.get(new, 1).is_some());
        let bytes = c.resident_bytes();
        assert_eq!(bytes, 5 * leaf(3).approx_bytes());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn leaf_cache_retain_epochs_keeps_a_noncontiguous_live_set() {
        // The incremental-merge shape: the *oldest* epoch (a reused
        // component) survives, a newer one (a merged input) dies, and
        // the newest (the merge output) joins — a floor cannot express
        // this; the live set must.
        let c = LeafCache::<2>::new(1 << 20);
        let reused = c.register_epoch();
        let merged_away = c.register_epoch();
        let output = c.register_epoch();
        admit2(&c, reused, 1, leaf(3));
        admit2(&c, merged_away, 2, leaf(3));
        admit2(&c, output, 3, leaf(3));
        c.retain_epochs(&[reused, output]);
        assert!(c.get(reused, 1).is_some(), "reused component's epoch lives");
        assert!(c.get(merged_away, 2).is_none());
        assert!(c.get(output, 3).is_some());
        assert_eq!(c.len(), 2);
        // The old-but-live epoch still accepts admissions; the newer
        // retired one does not.
        admit2(&c, reused, 10, leaf(3));
        assert!(c.get(reused, 10).is_some());
        admit2(&c, merged_away, 11, leaf(3));
        assert!(c.get(merged_away, 11).is_none());
    }

    #[test]
    fn leaf_cache_refuses_retired_epoch_admissions() {
        let c = LeafCache::<2>::new(1 << 20);
        let old = c.register_epoch();
        let new = c.register_epoch();
        admit2(&c, old, 1, leaf(3));
        c.retain_epoch(new);
        // A pinned reader of the replaced snapshot keeps querying: its
        // lookups miss and its admissions are dropped, so dead leaves
        // can never evict the live snapshot's hot set.
        assert!(c.get(old, 1).is_none());
        admit2(&c, old, 2, leaf(3));
        assert!(c.get(old, 2).is_none());
        assert_eq!(c.resident_bytes(), 0);
        // The live epoch is unaffected.
        admit2(&c, new, 2, leaf(3));
        assert!(c.get(new, 2).is_some());
    }

    #[test]
    fn leaf_cache_evict_and_reinsert_accounting() {
        let c = LeafCache::<2>::new(1 << 20);
        let e = c.register_epoch();
        admit2(&c, e, 3, leaf(10));
        let one = c.resident_bytes();
        // Re-admitting the same page replaces, not double-counts.
        c.admit(e, 3, leaf(10));
        assert_eq!(c.resident_bytes(), one);
        c.evict(e, 3);
        assert_eq!(c.resident_bytes(), 0);
        assert!(c.get(e, 3).is_none());
        // Tally flush: 2 hits + 1 miss recorded once.
        c.record(CacheTally {
            leaf_hits: 2,
            leaf_misses: 1,
            ..Default::default()
        });
        assert_eq!(c.hit_stats(), (2, 1));
    }

    #[test]
    fn leaf_cache_concurrent_mixed_ops_stay_consistent() {
        let c = LeafCache::<2>::new(1 << 18);
        let e = c.register_epoch();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let page = (t * 131 + i) % 97;
                        if i % 3 == 0 {
                            c.admit(e, page, leaf((page % 20) as usize + 1));
                        } else if let Some(n) = c.get(e, page) {
                            assert_eq!(n.len(), (page % 20) as usize + 1);
                        }
                    }
                });
            }
        });
        assert!(c.resident_bytes() <= c.capacity_bytes().max(1));
    }

    #[test]
    fn concurrent_readers_count_exactly() {
        let c = NodeCache::<2>::new(CachePolicy::InternalNodes);
        for p in 0..64u64 {
            c.admit(p, &node(1));
        }
        c.freeze();
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        // Half the lookups hit, half miss.
                        let page = (i + t) % 64 + if i % 2 == 0 { 0 } else { 1000 };
                        let _ = c.get(page);
                    }
                });
            }
        });
        let (h, m) = c.hit_stats();
        assert_eq!(h + m, 8000, "every lookup counted exactly once");
        assert_eq!(h, 4000);
        assert_eq!(m, 4000);
    }
}
