//! The LPR-tree: a dynamized PR-tree via the external logarithmic method.
//!
//! §1.2 of the paper: "the external logarithmic method [4, 20] can be
//! used to develop a structure that supports insertions and deletions in
//! `O(log_B N/M + (1/B)(log_{M/B} N/B)(log₂ N/M))` and `O(log_B N/M)`
//! I/Os amortized, respectively, while maintaining the optimal query
//! performance"; §4 lists experimenting with it as future work — done
//! here.
//!
//! Structure: an in-memory buffer of up to `buffer_cap` items, held as
//! loose chunks ([`LooseItems`], the type `pr-live`'s memtable is), plus
//! components `T_0, T_1, …` where `T_i` is a bulk-loaded PR-tree of at
//! most `buffer_cap · 2^i` items. A buffer overflow merges the buffer
//! with every occupied slot up to the smallest slot that holds them
//! all: the [`ComponentSet`] plan, drain and install `pr-live` runs too
//! ([`components`]). Deletions are [`Tombstones`] — counted `(id, rect)`
//! identities, so delete-then-reinsert of the same id is handled
//! correctly — compacted by a global rebuild once half the stored items
//! are dead. A window query fans out over the buffer's chunks and every
//! component through the decode-free engine ([`fanout`]: one shared
//! [`QueryScratch`], zero allocations in steady state) and filters
//! tombstones — each component is a PR-tree, so the per-component cost
//! keeps the `O(√(N/B) + T/B)` guarantee, at the price of an `O(log N)`
//! multiplicative fan-out.

use crate::bulk::pr::PrTreeLoader;
use crate::bulk::BulkLoader;
use crate::dynamic::components::{self, ComponentSet, MergePlan};
use crate::dynamic::fanout;
use crate::dynamic::loose::LooseItems;
use crate::dynamic::tombstone::Tombstones;
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
    buffer: LooseItems<D>,
    components: ComponentSet<RTree<D>>,
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
            buffer: LooseItems::new(),
            components: ComponentSet::new(buffer_cap),
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
        self.components.len()
    }

    /// The components, lowest slot first (read-only, test harness).
    #[doc(hidden)]
    pub fn components(&self) -> impl Iterator<Item = &RTree<D>> {
        self.components.iter()
    }

    /// `(slot, items)` per component, lowest slot first, dead copies
    /// counted — the shape of `pr-live`'s `LiveStats::components`.
    pub fn layout(&self) -> Vec<(usize, u64)> {
        self.components.layout()
    }

    /// How many component rebuilds have happened (amortization metric).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Total tombstones currently recorded (dead items awaiting merge).
    pub fn num_tombstones(&self) -> u64 {
        self.tombstones.total()
    }

    /// Inserts an item (ids must be unique among live items).
    pub fn insert(&mut self, item: Item<D>) -> Result<(), EmError> {
        self.buffer.push(item);
        self.live += 1;
        if self.buffer.len() >= self.components.buffer_cap() {
            self.merge(self.components.plan(self.buffer.len() as u64))?;
        }
        Ok(())
    }

    /// Deletes by id + rectangle (checked against live items). Returns
    /// `false` if no live item matches.
    pub fn delete(&mut self, item: &Item<D>) -> Result<bool, EmError> {
        if self.buffer.remove(item) {
            self.live -= 1;
            return Ok(true);
        }
        let copies = fanout::count_stored_copies(
            None,
            self.components.iter(),
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
        if self.components.needs_compaction(self.tombstones.total(), 0) {
            self.merge(self.components.plan_full())?;
            // Every tombstone pointed at a stored copy, and every copy
            // was just drained.
            debug_assert!(self.tombstones.is_empty(), "tombstone left after rebuild");
        }
        Ok(true)
    }

    /// Window query over buffer + all components, filtering tombstones.
    /// The buffer's chunks are main-memory resident and cost no I/O.
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
            self.components.iter(),
            &self.tombstones,
            query,
            scratch,
            out,
        )
    }

    /// The `k` live items nearest to `query` (closest first) into
    /// `out`, with aggregate traversal statistics: one [`KnnSearch`]
    /// over the whole structure. The buffer's chunks and
    /// the components' pages are opened best-first in one order. The
    /// buffer is never tombstoned; every stored copy passes the query's
    /// multiset `crate::dynamic::tombstone::TombstoneFilter`. A dead copy
    /// consumes a tombstone, not a result slot, so heavy tombstones cost
    /// no over-fetch; a component whose nearest page lies beyond the
    /// bound costs its root and nothing else, and a chunk beyond it
    /// costs nothing.
    ///
    /// Sharing one filter across components is exact for the same
    /// reason window queries share one: for a key with `m` stored
    /// copies and `c` tombstones, exactly `m − c` copies are admitted
    /// in total, and aliased copies are bit-identical so *which* ones
    /// survive is unobservable (see `crate::knn` for why that still
    /// holds when the bound skips some copies).
    pub fn nearest_neighbors_into(
        &self,
        query: &Point<D>,
        k: usize,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<(Item<D>, f64)>,
    ) -> Result<QueryStats, EmError> {
        KnnSearch::new(query, k, scratch).run(
            self.components.num_slots(),
            |slot| self.components.get(slot),
            &self.buffer,
            None,
            &self.tombstones,
            out,
        )
    }

    /// Runs `plan` ([`components`]): the buffer and the plan's inputs are
    /// drained into one bulk-loaded component in the plan's target slot,
    /// and the inputs' pages go back to the device.
    fn merge(&mut self, plan: MergePlan) -> Result<(), EmError> {
        let mut freed_pages: Vec<BlockId> = Vec::new();
        for (_, c) in self.components.inputs(&plan) {
            collect_pages(c, &mut freed_pages)?;
        }
        let (items, consumed) = components::drain(
            &self.buffer,
            self.components.inputs(&plan),
            &self.tombstones,
        )?;
        let merged = match self.components.target(&plan, items.len()) {
            Some(slot) => {
                let tree = self
                    .loader
                    .load(Arc::clone(&self.dev), self.params, items)?;
                Some((slot, tree))
            }
            None => None,
        };
        self.buffer = LooseItems::new();
        self.tombstones.subtract(&consumed);
        self.components.install(&plan, merged);
        self.dev.discard(&freed_pages);
        self.rebuilds += 1;
        Ok(())
    }
}

/// Appends every page id of `tree` to `out`. Only internal nodes are
/// read: a level-1 node's children are leaves, whose ids it holds, so no
/// leaf is decoded just to be freed (`components::drain` reads them).
fn collect_pages<const D: usize>(tree: &RTree<D>, out: &mut Vec<BlockId>) -> Result<(), EmError> {
    let mut stack = vec![(tree.root(), tree.root_level())];
    while let Some((page, level)) = stack.pop() {
        out.push(page);
        if level > 0 {
            let (node, _) = tree.read_node(page)?;
            stack.extend(node.entries.iter().map(|e| (e.ptr as BlockId, level - 1)));
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
        for (i, c) in t.components.occupied() {
            assert!(
                c.len() <= t.components.slot_cap(i),
                "component {i} holds {} > cap {}",
                c.len(),
                t.components.slot_cap(i)
            );
            c.validate().unwrap().assert_ok();
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
        let stored: u64 = t.components.iter().map(|c| c.len()).sum();
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
            t.components.iter().map(|c| c.filter_bytes()).collect()
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
