//! The LPR-tree: a dynamized PR-tree via the external logarithmic method.
//!
//! §1.2 of the paper: "the external logarithmic method [4, 20] can be
//! used to develop a structure that supports insertions and deletions in
//! `O(log_B N/M + (1/B)(log_{M/B} N/B)(log₂ N/M))` and `O(log_B N/M)`
//! I/Os amortized, respectively, while maintaining the optimal query
//! performance"; §4 lists experimenting with it as future work — done
//! here.
//!
//! Structure: an in-memory buffer of up to `buffer_cap` items plus
//! components `T_0, T_1, …` where `T_i` is a bulk-loaded PR-tree of at
//! most `buffer_cap · 2^i` items. A buffer overflow rebuilds into the
//! first empty slot `j`, merging the buffer with all of `T_0..T_{j-1}`
//! (whose combined size always fits, since capacities are geometric).
//! All slotting/merge/compaction decisions live in the reusable
//! [`GeometricPolicy`], which the durable `pr-live` index shares.
//! Deletions are [`Tombstones`] — counted `(id, rect)` identities, so
//! delete-then-reinsert of the same id is handled correctly — compacted
//! by a global rebuild once half the stored items are dead. A window
//! query fans out over the buffer and every component through the
//! decode-free engine ([`fanout`]: one shared [`QueryScratch`], zero
//! allocations in steady state) and filters tombstones — each component
//! is a PR-tree, so the per-component cost keeps the `O(√(N/B) + T/B)`
//! guarantee, at the price of an `O(log N)` multiplicative fan-out.

use crate::bulk::pr::PrTreeLoader;
use crate::bulk::BulkLoader;
use crate::dynamic::fanout;
use crate::dynamic::policy::GeometricPolicy;
use crate::dynamic::tombstone::{same_identity, Tombstones};
use crate::knn::KnnSearch;
use crate::params::TreeParams;
use crate::query::QueryStats;
use crate::scratch::QueryScratch;
use crate::tree::RTree;
use pr_em::{BlockDevice, BlockId, EmError};
use pr_geom::{Item, Point, Rect};
use std::sync::Arc;

/// A dynamized PR-tree (logarithmic method).
pub struct LprTree<const D: usize> {
    dev: Arc<dyn BlockDevice>,
    params: TreeParams,
    loader: PrTreeLoader,
    policy: GeometricPolicy,
    buffer: Vec<Item<D>>,
    components: Vec<Option<RTree<D>>>,
    tombstones: Tombstones<D>,
    live: u64,
    rebuilds: u64,
}

impl<const D: usize> LprTree<D> {
    /// Creates an empty LPR-tree. `buffer_cap` is the in-memory buffer
    /// size (the method's `M`-analogue); a multiple of the leaf capacity
    /// keeps component 0 at least one full leaf.
    pub fn new(dev: Arc<dyn BlockDevice>, params: TreeParams, buffer_cap: usize) -> Self {
        LprTree {
            dev,
            params,
            loader: PrTreeLoader::default(),
            policy: GeometricPolicy::new(buffer_cap),
            buffer: Vec::new(),
            components: Vec::new(),
            tombstones: Tombstones::new(),
            live: 0,
            rebuilds: 0,
        }
    }

    /// Live item count (inserted − deleted).
    pub fn len(&self) -> u64 {
        self.live
    }

    /// True when no live items remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of non-empty components (the query fan-out).
    pub fn num_components(&self) -> usize {
        self.components.iter().flatten().count()
    }

    /// The components, lowest slot first (read-only, test harness).
    #[doc(hidden)]
    pub fn components(&self) -> impl Iterator<Item = &RTree<D>> {
        self.components.iter().flatten()
    }

    /// How many component rebuilds have happened (amortization metric).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The backing device (for I/O accounting).
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.dev
    }

    /// The component-management policy in force.
    pub fn policy(&self) -> &GeometricPolicy {
        &self.policy
    }

    /// Total tombstones currently recorded (dead items awaiting merge).
    pub fn num_tombstones(&self) -> u64 {
        self.tombstones.total()
    }

    /// Inserts an item (ids must be unique among live items).
    pub fn insert(&mut self, item: Item<D>) -> Result<(), EmError> {
        self.buffer.push(item);
        self.live += 1;
        if self.buffer.len() >= self.policy.buffer_cap() {
            self.flush()?;
        }
        Ok(())
    }

    /// Deletes by id + rectangle (checked against live items). Returns
    /// `false` if no live item matches.
    pub fn delete(&mut self, item: &Item<D>) -> Result<bool, EmError> {
        if let Some(pos) = self.buffer.iter().position(|b| same_identity(b, item)) {
            self.buffer.swap_remove(pos);
            self.live -= 1;
            return Ok(true);
        }
        let copies = fanout::count_stored_copies(
            None,
            self.components.iter().flatten(),
            item,
            fanout::FilterBuild::Lazy,
            &mut QueryScratch::new(),
            &mut fanout::ProbeTally::default(),
        )?;
        if copies <= self.tombstones.count(item) as u64 {
            return Ok(false);
        }
        self.tombstones.add(item);
        self.live -= 1;
        // Compact once half the stored items are dead.
        let stored: u64 = self
            .components
            .iter()
            .flatten()
            .map(|c| c.len())
            .sum::<u64>();
        if self
            .policy
            .needs_compaction(self.tombstones.total(), stored)
        {
            self.rebuild_all()?;
        }
        Ok(true)
    }

    /// Window query over buffer + all components, filtering tombstones.
    /// The buffer is main-memory resident and costs no I/O.
    pub fn window(&self, query: &Rect<D>) -> Result<(Vec<Item<D>>, QueryStats), EmError> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let stats = self.window_into(query, &mut scratch, &mut out)?;
        Ok((out, stats))
    }

    /// [`LprTree::window`] with caller-owned buffers
    /// ([`fanout::window_into`]: allocation-free when reused).
    pub fn window_into(
        &self,
        query: &Rect<D>,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<Item<D>>,
    ) -> Result<QueryStats, EmError> {
        fanout::window_into(
            &self.buffer,
            None,
            self.components.iter().flatten(),
            &self.tombstones,
            query,
            scratch,
            out,
        )
    }

    /// The `k` live items nearest to `query` (closest first), with
    /// aggregate traversal statistics.
    pub fn nearest_neighbors(
        &self,
        query: &Point<D>,
        k: usize,
    ) -> Result<(Vec<(Item<D>, f64)>, QueryStats), EmError> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let stats = self.nearest_neighbors_into(query, k, &mut scratch, &mut out)?;
        Ok((out, stats))
    }

    /// [`LprTree::nearest_neighbors`] with caller-owned buffers: one
    /// [`KnnSearch`] over the whole structure. The buffer (main-memory
    /// resident, never tombstoned) is offered first, so the k-th-distance
    /// bound is already tight when the forest of components is searched
    /// best-first with the query's multiset
    /// [`crate::dynamic::tombstone::TombstoneFilter`] as `admit`. A dead
    /// copy consumes a tombstone, not a result slot, so heavy tombstones
    /// cost no over-fetch; a component whose nearest page lies beyond
    /// the bound costs its root and nothing else.
    ///
    /// Sharing one filter across components is exact for the same
    /// reason window queries share one: for a key with `m` stored
    /// copies and `c` tombstones, exactly `m − c` copies are admitted
    /// in total, and aliased copies are bit-identical so *which* ones
    /// survive is unobservable (see [`crate::knn`] for why that still
    /// holds when the bound skips some copies).
    pub fn nearest_neighbors_into(
        &self,
        query: &Point<D>,
        k: usize,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<(Item<D>, f64)>,
    ) -> Result<QueryStats, EmError> {
        let mut search = KnnSearch::new(query, k, scratch);
        for item in &self.buffer {
            search.offer(item, |_| true);
        }
        let mut filter = self.tombstones.filter();
        search.run(
            self.components.len(),
            |slot| self.components[slot].as_ref(),
            |item| filter.admit(item),
            out,
        )
    }

    /// All live items (test helper; costs a full scan).
    pub fn items(&self) -> Result<Vec<Item<D>>, EmError> {
        fanout::items(
            &self.buffer,
            None,
            self.components.iter().flatten(),
            &self.tombstones,
        )
    }

    /// Buffer overflow: merge buffer + components `0..j` into slot `j`,
    /// where `j` is the first empty slot (geometric capacities guarantee
    /// the fit).
    fn flush(&mut self) -> Result<(), EmError> {
        let occupied: Vec<bool> = self.components.iter().map(|c| c.is_some()).collect();
        let j = self.policy.flush_slot(&occupied);
        let mut items: Vec<Item<D>> = std::mem::take(&mut self.buffer);
        // A buffered reinsert whose dead twin sits in a component pays
        // the tombstone itself (the twin becomes the live copy), as
        // pr-live's merge does for its sealed batch: aliased copies are
        // bit-identical, and the two frontends keep one layout.
        items.retain(|it| !self.tombstones.consume(it));
        let mut freed_pages: Vec<BlockId> = Vec::new();
        let merged = j.min(self.components.len());
        items.reserve(held(&self.components[..merged]));
        for slot in &mut self.components[..merged] {
            if let Some(c) = slot.take() {
                collect_pages(&c, &mut freed_pages)?;
                // Dead items are dropped during the merge.
                c.for_each_item(|it| {
                    if !self.tombstones.consume(&it) {
                        items.push(it);
                    }
                })?;
            }
        }
        debug_assert!(items.len() as u64 <= self.policy.slot_cap(j));
        if self.components.len() <= j {
            self.components.resize_with(j + 1, || None);
        }
        if !items.is_empty() {
            let tree = self
                .loader
                .load(Arc::clone(&self.dev), self.params, items)?;
            self.components[j] = Some(tree);
        }
        self.dev.discard(&freed_pages);
        self.rebuilds += 1;
        Ok(())
    }

    /// Global compaction: everything into one fresh PR-tree.
    fn rebuild_all(&mut self) -> Result<(), EmError> {
        let mut items: Vec<Item<D>> = std::mem::take(&mut self.buffer);
        let mut freed_pages: Vec<BlockId> = Vec::new();
        items.reserve(held(&self.components));
        for slot in &mut self.components {
            if let Some(c) = slot.take() {
                collect_pages(&c, &mut freed_pages)?;
                c.for_each_item(|it| {
                    if !self.tombstones.consume(&it) {
                        items.push(it);
                    }
                })?;
            }
        }
        // Every tombstone pointed at a component item, and every
        // component was just drained.
        debug_assert!(self.tombstones.is_empty(), "tombstone left after rebuild");
        self.tombstones.clear();
        self.components.clear();
        if !items.is_empty() {
            let j = self.policy.placement_slot(items.len() as u64);
            self.components.resize_with(j + 1, || None);
            let tree = self
                .loader
                .load(Arc::clone(&self.dev), self.params, items)?;
            self.components[j] = Some(tree);
        }
        self.dev.discard(&freed_pages);
        self.rebuilds += 1;
        Ok(())
    }
}

/// Items stored in `components`, dead ones included: what a merge of
/// them can add to its buffer at most.
fn held<const D: usize>(components: &[Option<RTree<D>>]) -> usize {
    components.iter().flatten().map(|c| c.len() as usize).sum()
}

fn collect_pages<const D: usize>(tree: &RTree<D>, out: &mut Vec<BlockId>) -> Result<(), EmError> {
    let mut stack = vec![tree.root()];
    while let Some(p) = stack.pop() {
        out.push(p);
        let (node, _) = tree.read_node(p)?;
        if !node.is_leaf() {
            stack.extend(node.entries.iter().map(|e| e.ptr as BlockId));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::brute_force_window;
    use pr_em::MemDevice;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn make(buffer_cap: usize) -> LprTree<2> {
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        LprTree::new(dev, params, buffer_cap)
    }

    fn item(id: u32, rng: &mut SmallRng) -> Item<2> {
        let x: f64 = rng.gen_range(0.0..100.0);
        let y: f64 = rng.gen_range(0.0..100.0);
        Item::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), id)
    }

    #[test]
    fn inserts_queryable_across_flushes() {
        let mut t = make(16);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut all = Vec::new();
        for id in 0..500 {
            let it = item(id, &mut rng);
            t.insert(it).unwrap();
            all.push(it);
        }
        assert_eq!(t.len(), 500);
        assert!(t.num_components() >= 1);
        for _ in 0..20 {
            let x: f64 = rng.gen_range(0.0..90.0);
            let y: f64 = rng.gen_range(0.0..90.0);
            let q = Rect::xyxy(x, y, x + 10.0, y + 10.0);
            let (mut got, _) = t.window(&q).unwrap();
            let mut want = brute_force_window(&all, &q);
            got.sort_by_key(|i| i.id);
            want.sort_by_key(|i| i.id);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn component_sizes_respect_geometric_caps() {
        let mut t = make(8);
        let mut rng = SmallRng::seed_from_u64(2);
        for id in 0..300 {
            t.insert(item(id, &mut rng)).unwrap();
        }
        for (i, slot) in t.components.iter().enumerate() {
            if let Some(c) = slot {
                assert!(
                    c.len() <= t.policy.slot_cap(i),
                    "component {i} holds {} > cap {}",
                    c.len(),
                    t.policy.slot_cap(i)
                );
                c.validate().unwrap().assert_ok();
            }
        }
    }

    #[test]
    fn delete_from_buffer_and_components() {
        let mut t = make(8);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut all = Vec::new();
        for id in 0..100 {
            let it = item(id, &mut rng);
            t.insert(it).unwrap();
            all.push(it);
        }
        // Delete half (some live in components, some in the buffer).
        for it in all.iter().take(50) {
            assert!(t.delete(it).unwrap(), "missing {it:?}");
        }
        assert_eq!(t.len(), 50);
        let survivors: Vec<Item<2>> = all[50..].to_vec();
        let q = Rect::xyxy(0.0, 0.0, 100.0, 100.0);
        let (mut got, _) = t.window(&q).unwrap();
        got.sort_by_key(|i| i.id);
        let mut want = survivors.clone();
        want.sort_by_key(|i| i.id);
        assert_eq!(got, want);
        // Double delete fails.
        assert!(!t.delete(&all[0]).unwrap());
    }

    #[test]
    fn tombstone_compaction_triggers() {
        let mut t = make(8);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut all = Vec::new();
        for id in 0..128 {
            let it = item(id, &mut rng);
            t.insert(it).unwrap();
            all.push(it);
        }
        // Flush the buffer fully into components, then kill 80%.
        while !t.buffer.is_empty() {
            let pad = item(10_000 + t.live as u32, &mut rng);
            t.insert(pad).unwrap();
            all.push(pad);
        }
        let victims: Vec<Item<2>> = all.iter().take(all.len() * 4 / 5).copied().collect();
        let rebuilds_before = t.rebuilds();
        for v in &victims {
            t.delete(v).unwrap();
        }
        // The invariant: at most half the stored items are dead, enforced
        // by at least one compaction during this delete storm.
        let stored: u64 = t.components.iter().flatten().map(|c| c.len()).sum();
        assert!(
            t.tombstones.total() * 2 <= stored.max(1),
            "{} tombstones vs {stored} stored",
            t.tombstones.total()
        );
        assert!(t.rebuilds() > rebuilds_before, "no compaction happened");
        let (got, _) = t.window(&Rect::xyxy(0.0, 0.0, 100.0, 100.0)).unwrap();
        assert_eq!(got.len() as u64, t.len());
    }

    #[test]
    fn interleaved_ops_match_reference() {
        let mut t = make(12);
        let mut reference: Vec<Item<2>> = Vec::new();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut next = 0u32;
        for step in 0..1500 {
            if reference.is_empty() || rng.gen_bool(0.65) {
                let it = item(next, &mut rng);
                next += 1;
                t.insert(it).unwrap();
                reference.push(it);
            } else {
                let pos = rng.gen_range(0..reference.len());
                let victim = reference.swap_remove(pos);
                assert!(t.delete(&victim).unwrap());
            }
            if step % 250 == 249 {
                let q = Rect::xyxy(20.0, 20.0, 60.0, 60.0);
                let (mut got, _) = t.window(&q).unwrap();
                let mut want = brute_force_window(&reference, &q);
                got.sort_by_key(|i| i.id);
                want.sort_by_key(|i| i.id);
                assert_eq!(got, want, "step {step}");
            }
        }
        assert_eq!(t.len(), reference.len() as u64);
    }

    #[test]
    fn memory_is_reclaimed_on_rebuild() {
        let params = TreeParams::with_cap::<2>(8);
        let dev = Arc::new(MemDevice::new(params.page_size));
        let mut t = LprTree::<2>::new(Arc::clone(&dev) as Arc<dyn BlockDevice>, params, 8);
        let mut rng = SmallRng::seed_from_u64(6);
        for id in 0..2000 {
            t.insert(item(id, &mut rng)).unwrap();
        }
        // Stored pages should be near the live tree sizes, not the sum of
        // every tree ever built.
        let live_pages: u64 = t
            .components
            .iter()
            .flatten()
            .map(|c| c.stats().unwrap().num_nodes())
            .sum();
        let resident = dev.resident_bytes() as u64 / params.page_size as u64;
        assert!(
            resident < live_pages * 3,
            "resident {resident} blocks vs live {live_pages}: rebuilds leak pages"
        );
    }

    /// Insert-only use never pays for a membership filter; the first
    /// delete that reaches the components builds one for each of them.
    #[test]
    fn filters_are_built_by_deletes_only() {
        let mut t = make(8);
        let mut rng = SmallRng::seed_from_u64(7);
        let all: Vec<Item<2>> = (0..200).map(|id| item(id, &mut rng)).collect();
        for it in &all {
            t.insert(*it).unwrap();
        }
        assert!(t.buffer.is_empty() && t.num_components() >= 2);
        let filter_bytes = |t: &LprTree<2>| -> Vec<usize> {
            t.components
                .iter()
                .flatten()
                .map(|c| c.filter_bytes())
                .collect()
        };
        assert!(filter_bytes(&t).iter().all(|&b| b == 0), "insert-only");
        assert!(t.delete(&all[0]).unwrap());
        assert!(filter_bytes(&t).iter().all(|&b| b > 0), "after a delete");
    }

    /// The shared bound is worth leaves: one forest search opens no
    /// more leaves than the components searched one by one (each to its
    /// own k-th distance — the fan-out this replaced), and strictly
    /// fewer on this seed (386 against 584 over the 50 queries).
    #[test]
    fn forest_knn_opens_fewer_leaves_than_per_component_searches() {
        let mut t = make(8);
        let mut rng = SmallRng::seed_from_u64(23);
        // 8 · (1 + 2 + 8 + 32) items: slots 0, 1, 3 and 5 hold 8, 16, 64, 256.
        for id in 0..344 {
            t.insert(item(id, &mut rng)).unwrap();
        }
        assert!(t.buffer.is_empty());
        assert!(t.num_components() >= 4, "{} components", t.num_components());
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let (mut forest, mut one_by_one) = (0, 0);
        for _ in 0..50 {
            let q = Point::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
            let together = t
                .nearest_neighbors_into(&q, 10, &mut scratch, &mut out)
                .unwrap();
            let apart: u64 = t
                .components
                .iter()
                .flatten()
                .map(|c| {
                    c.nearest_neighbors_into(&q, 10, &mut scratch, &mut out)
                        .unwrap()
                        .leaves_visited
                })
                .sum();
            assert!(together.leaves_visited <= apart, "q={q:?}");
            forest += together.leaves_visited;
            one_by_one += apart;
        }
        assert!(forest < one_by_one, "{forest} vs {one_by_one} leaves");
    }
}
