//! Guttman-style dynamic updates on the page-level R-tree.
//!
//! §4 of the paper: "The PR-tree can be updated using any known update
//! heuristic for R-trees, but then its performance cannot be guaranteed
//! theoretically anymore and its practical performance might suffer as
//! well." These are exactly those heuristics — Guttman's ChooseLeaf
//! insertion with his quadratic split, and deletion with CondenseTree
//! reinsertion — so the degradation experiment (`dyn`) can measure what
//! happens to a bulk-loaded tree under updates.

use crate::dynamic::same_identity;
use crate::entry::Entry;
use crate::page::NodePage;
use crate::tree::RTree;
use crate::writer::page_ptr;
use pr_em::{BlockId, EmError};
use pr_geom::{Item, Rect};
use std::cmp::Ordering;

/// Result of a recursive insertion into one subtree.
enum InsertOutcome<const D: usize> {
    /// Subtree absorbed the entry; its MBR is now this.
    Fit(Rect<D>),
    /// Subtree split; its MBR is the first field, the new sibling (MBR +
    /// page) the second.
    Split(Rect<D>, Entry<D>),
}

impl<const D: usize> RTree<D> {
    /// Inserts one item (Guttman ChooseLeaf + quadratic split) in
    /// `O(log_B N)` I/Os.
    pub fn insert(&mut self, item: Item<D>) -> Result<(), EmError> {
        self.insert_entry_at(Entry::from_item(item), 0)?;
        self.bump_len(1);
        Ok(())
    }

    /// Inserts `entry` into some node at `target_level` (0 = leaf). Used
    /// for both item insertion and orphan reinsertion during deletion.
    fn insert_entry_at(&mut self, entry: Entry<D>, target_level: u8) -> Result<(), EmError> {
        debug_assert!(target_level <= self.root_level());
        let root = self.root();
        let root_level = self.root_level();
        match self.insert_rec(root, root_level, entry, target_level)? {
            InsertOutcome::Fit(_) => Ok(()),
            InsertOutcome::Split(root_mbr, sibling) => {
                // Grow the tree: a new root over the old root + sibling.
                let new_root = NodePage::new(
                    root_level + 1,
                    vec![Entry::new(root_mbr, page_ptr(root)?), sibling],
                );
                let page = self.append_node(&new_root)?;
                self.set_root(page, root_level + 1);
                Ok(())
            }
        }
    }

    fn insert_rec(
        &mut self,
        page: BlockId,
        level: u8,
        entry: Entry<D>,
        target_level: u8,
    ) -> Result<InsertOutcome<D>, EmError> {
        let (mut node, _) = self.read_node(page)?;
        if level == target_level {
            node.entries.push(entry);
        } else {
            let idx = choose_subtree(&node.entries, &entry.rect);
            let child = node.entries[idx].ptr as BlockId;
            match self.insert_rec(child, level - 1, entry, target_level)? {
                InsertOutcome::Fit(mbr) => {
                    node.entries[idx].rect = mbr;
                }
                InsertOutcome::Split(mbr, sibling) => {
                    node.entries[idx].rect = mbr;
                    node.entries.push(sibling);
                }
            }
        }

        if node.len() <= self.params().leaf_cap {
            let mbr = node.mbr();
            self.write_node(page, &node)?;
            return Ok(InsertOutcome::Fit(mbr));
        }
        // Overflow: split this node.
        let (a, b) = quadratic_split(node.entries, self.params().min_fill());
        let node_a = NodePage::new(level, a);
        let node_b = NodePage::new(level, b);
        let mbr_a = node_a.mbr();
        let mbr_b = node_b.mbr();
        self.write_node(page, &node_a)?;
        let new_page = self.append_node(&node_b)?;
        Ok(InsertOutcome::Split(
            mbr_a,
            Entry::new(mbr_b, page_ptr(new_page)?),
        ))
    }

    /// Deletes the item with matching rectangle *and* id. Returns `false`
    /// if it was not found. Underfull nodes are dissolved and their
    /// contents reinserted (Guttman's CondenseTree).
    pub fn delete(&mut self, item: &Item<D>) -> Result<bool, EmError> {
        let mut orphans: Vec<(u8, Entry<D>)> = Vec::new();
        let root = self.root();
        let root_level = self.root_level();
        let outcome = self.delete_rec(root, root_level, item, &mut orphans)?;
        let found = !matches!(outcome, DeleteOutcome::NotFound);
        if !found {
            return Ok(false);
        }
        self.bump_len(-1);

        // Shrink the root while it is an internal node with one child.
        loop {
            let (root_node, _) = self.read_node(self.root())?;
            if root_node.is_leaf() || root_node.len() != 1 {
                break;
            }
            let child = root_node.entries[0].ptr as BlockId;
            let level = root_node.level - 1;
            self.set_root(child, level);
        }

        // Reinsert orphans (highest level first so targets still exist).
        orphans.sort_by_key(|(lvl, _)| std::cmp::Reverse(*lvl));
        for (lvl, e) in orphans {
            if lvl == 0 {
                self.insert_entry_at(e, 0)?;
            } else if lvl <= self.root_level() {
                self.insert_entry_at(e, lvl)?;
            } else {
                // The tree shrank below the orphan's level: dissolve the
                // orphan subtree into items and reinsert those.
                let items = self.subtree_items(e.ptr as BlockId)?;
                for it in items {
                    self.insert_entry_at(Entry::from_item(it), 0)?;
                }
            }
        }
        Ok(true)
    }

    fn subtree_items(&self, page: BlockId) -> Result<Vec<Item<D>>, EmError> {
        let mut out = Vec::new();
        let mut stack = vec![page];
        while let Some(p) = stack.pop() {
            let (node, _) = self.read_node(p)?;
            if node.is_leaf() {
                out.extend(node.entries.iter().map(|e| e.to_item()));
            } else {
                stack.extend(node.entries.iter().map(|e| e.ptr as BlockId));
            }
        }
        Ok(out)
    }

    fn delete_rec(
        &mut self,
        page: BlockId,
        level: u8,
        item: &Item<D>,
        orphans: &mut Vec<(u8, Entry<D>)>,
    ) -> Result<DeleteOutcome<D>, EmError> {
        let (mut node, _) = self.read_node(page)?;
        let min_fill = self.params().min_fill();
        let is_root = page == self.root();

        if node.is_leaf() {
            let Some(pos) = node
                .entries
                .iter()
                .position(|e| e.ptr == item.id && same_identity(&e.to_item(), item))
            else {
                return Ok(DeleteOutcome::NotFound);
            };
            node.entries.remove(pos);
            if !is_root && node.len() < min_fill {
                // Dissolve: survivors become orphans to reinsert.
                for e in &node.entries {
                    orphans.push((0, *e));
                }
                return Ok(DeleteOutcome::Dissolved);
            }
            let mbr = node.mbr();
            self.write_node(page, &node)?;
            return Ok(DeleteOutcome::Done(mbr));
        }

        let mut found_at: Option<(usize, DeleteOutcome<D>)> = None;
        for idx in 0..node.entries.len() {
            if !node.entries[idx].rect.contains_rect(&item.rect) {
                continue;
            }
            let child = node.entries[idx].ptr as BlockId;
            match self.delete_rec(child, level - 1, item, orphans)? {
                DeleteOutcome::NotFound => continue,
                outcome => {
                    found_at = Some((idx, outcome));
                    break;
                }
            }
        }
        let Some((idx, outcome)) = found_at else {
            return Ok(DeleteOutcome::NotFound);
        };
        match outcome {
            DeleteOutcome::Done(child_mbr) => {
                node.entries[idx].rect = child_mbr;
            }
            DeleteOutcome::Dissolved => {
                node.entries.remove(idx);
            }
            DeleteOutcome::NotFound => unreachable!(),
        }
        if !is_root && node.len() < min_fill {
            for e in &node.entries {
                orphans.push((level, *e));
            }
            return Ok(DeleteOutcome::Dissolved);
        }
        let mbr = node.mbr();
        self.write_node(page, &node)?;
        Ok(DeleteOutcome::Done(mbr))
    }
}

enum DeleteOutcome<const D: usize> {
    NotFound,
    /// Item removed; the subtree's new MBR.
    Done(Rect<D>),
    /// The child node fell below minimum fill and was dissolved; its
    /// surviving entries are now orphans.
    Dissolved,
}

/// Guttman's ChooseSubtree: least enlargement, ties by least area, then
/// by position (determinism).
fn choose_subtree<const D: usize>(entries: &[Entry<D>], rect: &Rect<D>) -> usize {
    let mut best = 0usize;
    let mut best_enlarge = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, e) in entries.iter().enumerate() {
        let enlarge = e.rect.enlargement(rect);
        let area = e.rect.area();
        if enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area) {
            best = i;
            best_enlarge = enlarge;
            best_area = area;
        }
    }
    best
}

/// Guttman's quadratic split of an overflowed node's entries into two
/// groups, each with at least `min_fill` of them: seed with the pair
/// wasting the most area together (QuadraticPickSeeds), then assign the
/// entry with the strongest preference next (PickNext).
fn quadratic_split<const D: usize>(
    entries: Vec<Entry<D>>,
    min_fill: usize,
) -> (Vec<Entry<D>>, Vec<Entry<D>>) {
    debug_assert!(entries.len() >= 2);
    let min_fill = min_fill.max(1).min(entries.len() / 2);
    let mut seed_a = 0;
    let mut seed_b = 1;
    let mut worst = f64::NEG_INFINITY;
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let waste = entries[i].rect.mbr_with(&entries[j].rect).area()
                - entries[i].rect.area()
                - entries[j].rect.area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }

    let total = entries.len();
    let mut rest: Vec<Entry<D>> = Vec::with_capacity(total - 2);
    let mut group_a = Vec::with_capacity(total);
    let mut group_b = Vec::with_capacity(total);
    let mut mbr_a = Rect::EMPTY;
    let mut mbr_b = Rect::EMPTY;
    for (i, e) in entries.into_iter().enumerate() {
        if i == seed_a {
            mbr_a = e.rect;
            group_a.push(e);
        } else if i == seed_b {
            mbr_b = e.rect;
            group_b.push(e);
        } else {
            rest.push(e);
        }
    }

    while !rest.is_empty() {
        // Force-assign when one group must absorb everything left to
        // reach minimum fill.
        let left = rest.len();
        if group_a.len() + left <= min_fill {
            for e in rest.drain(..) {
                mbr_a = mbr_a.mbr_with(&e.rect);
                group_a.push(e);
            }
            break;
        }
        if group_b.len() + left <= min_fill {
            for e in rest.drain(..) {
                mbr_b = mbr_b.mbr_with(&e.rect);
                group_b.push(e);
            }
            break;
        }

        // PickNext: maximal |d_a − d_b|.
        let mut idx = 0;
        let mut best_diff = f64::NEG_INFINITY;
        for (i, e) in rest.iter().enumerate() {
            let diff = (mbr_a.enlargement(&e.rect) - mbr_b.enlargement(&e.rect)).abs();
            if diff > best_diff {
                best_diff = diff;
                idx = i;
            }
        }
        let e = rest.swap_remove(idx);
        let da = mbr_a.enlargement(&e.rect);
        let db = mbr_b.enlargement(&e.rect);
        // Prefer smaller enlargement; ties: smaller area, then fewer
        // entries (Guttman's tie-breaking).
        let to_a = match da.partial_cmp(&db).expect("finite enlargements") {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => match mbr_a.area().partial_cmp(&mbr_b.area()).unwrap() {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => group_a.len() <= group_b.len(),
            },
        };
        if to_a {
            mbr_a = mbr_a.mbr_with(&e.rect);
            group_a.push(e);
        } else {
            mbr_b = mbr_b.mbr_with(&e.rect);
            group_b.push(e);
        }
    }
    (group_a, group_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::pr::PrTreeLoader;
    use crate::bulk::BulkLoader;
    use crate::params::TreeParams;
    use crate::query::brute_force_window;
    use crate::validate::ValidateOptions;
    use pr_em::{BlockDevice, MemDevice};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                Item::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), i)
            })
            .collect()
    }

    fn empty_tree(cap: usize) -> RTree<2> {
        let params = TreeParams::with_cap::<2>(cap);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        RTree::new_empty(dev, params).unwrap()
    }

    /// A delete matches bit identity, as `count_exact`, the LPR-tree and
    /// the live index do: id 7 at `-0.0` is not id 7 at `0.0`.
    #[test]
    fn delete_matches_signed_zero_twins_by_bits() {
        let mut t = empty_tree(4);
        for item in random_items(40, 5) {
            t.insert(item).unwrap();
        }
        let stored = Item::new(Rect::xyxy(0.0, 1.0, 2.0, 3.0), 7);
        t.insert(stored).unwrap();
        let twin = Item::new(Rect::xyxy(-0.0, 1.0, 2.0, 3.0), 7);
        assert!(!t.delete(&twin).unwrap(), "the signed-zero twin is absent");
        assert_eq!(t.len(), 41);
        assert!(t.delete(&stored).unwrap());
        assert_eq!(t.len(), 40);
        assert!(!t.delete(&stored).unwrap());
    }

    #[test]
    fn repeated_insertion_builds_valid_tree() {
        let mut t = empty_tree(4);
        let items = random_items(300, 1);
        for &it in &items {
            t.insert(it).unwrap();
        }
        assert_eq!(t.len(), 300);
        let report = t
            .validate_with(ValidateOptions {
                check_min_fill: true,
            })
            .unwrap();
        report.assert_ok();
        // Queries agree with brute force.
        let q = Rect::xyxy(20.0, 20.0, 40.0, 40.0);
        let mut got = t.window(&q).unwrap();
        let mut want = brute_force_window(&items, &q);
        got.sort_by_key(|i| i.id);
        want.sort_by_key(|i| i.id);
        assert_eq!(got, want);
    }

    #[test]
    fn insert_into_bulk_loaded_tree() {
        let items = random_items(500, 2);
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let mut t = PrTreeLoader::default()
            .load(dev, params, items.clone())
            .unwrap();
        let extra = random_items(200, 3)
            .into_iter()
            .map(|mut i| {
                i.id += 10_000;
                i
            })
            .collect::<Vec<_>>();
        for &it in &extra {
            t.insert(it).unwrap();
        }
        assert_eq!(t.len(), 700);
        t.validate().unwrap().assert_ok();
        let all: Vec<Item<2>> = items.iter().chain(&extra).copied().collect();
        let q = Rect::xyxy(0.0, 0.0, 50.0, 50.0);
        let mut got = t.window(&q).unwrap();
        let mut want = brute_force_window(&all, &q);
        got.sort_by_key(|i| i.id);
        want.sort_by_key(|i| i.id);
        assert_eq!(got, want);
    }

    #[test]
    fn delete_every_item() {
        let items = random_items(250, 5);
        let mut t = empty_tree(4);
        for &it in &items {
            t.insert(it).unwrap();
        }
        for (k, it) in items.iter().enumerate() {
            assert!(t.delete(it).unwrap(), "item {k}");
            t.validate().unwrap().assert_ok();
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1, "tree shrinks back to a single leaf");
    }

    #[test]
    fn delete_missing_item_returns_false() {
        let mut t = empty_tree(4);
        for &it in &random_items(50, 7) {
            t.insert(it).unwrap();
        }
        let ghost = Item::new(Rect::xyxy(1.0, 1.0, 2.0, 2.0), 9999);
        assert!(!t.delete(&ghost).unwrap());
        assert_eq!(t.len(), 50);
        // Same id as an existing item but different rect: also not found.
        let items = random_items(50, 7);
        let wrong_rect = Item::new(Rect::xyxy(-1.0, -1.0, 0.0, 0.0), items[0].id);
        assert!(!t.delete(&wrong_rect).unwrap());
    }

    #[test]
    fn interleaved_inserts_and_deletes_match_reference() {
        let mut t = empty_tree(6);
        let mut reference: Vec<Item<2>> = Vec::new();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut next_id = 0u32;
        for step in 0..800 {
            if reference.is_empty() || rng.gen_bool(0.6) {
                let x: f64 = rng.gen_range(0.0..50.0);
                let y: f64 = rng.gen_range(0.0..50.0);
                let it = Item::new(Rect::xyxy(x, y, x + 0.5, y + 0.5), next_id);
                next_id += 1;
                t.insert(it).unwrap();
                reference.push(it);
            } else {
                let pos = rng.gen_range(0..reference.len());
                let victim = reference.swap_remove(pos);
                assert!(t.delete(&victim).unwrap());
            }
            if step % 100 == 99 {
                t.validate().unwrap().assert_ok();
                let q = Rect::xyxy(10.0, 10.0, 30.0, 30.0);
                let mut got = t.window(&q).unwrap();
                let mut want = brute_force_window(&reference, &q);
                got.sort_by_key(|i| i.id);
                want.sort_by_key(|i| i.id);
                assert_eq!(got, want, "step {step}");
            }
        }
        assert_eq!(t.len(), reference.len() as u64);
    }

    #[test]
    fn duplicate_rectangles_delete_by_id() {
        let mut t = empty_tree(4);
        let rect = Rect::xyxy(5.0, 5.0, 6.0, 6.0);
        for id in 0..20 {
            t.insert(Item::new(rect, id)).unwrap();
        }
        assert!(t.delete(&Item::new(rect, 13)).unwrap());
        assert_eq!(t.len(), 19);
        let hits = t.window(&rect).unwrap();
        assert!(hits.iter().all(|i| i.id != 13));
        assert_eq!(hits.len(), 19);
    }

    #[test]
    fn choose_subtree_prefers_containing_box() {
        let entries = vec![
            Entry::new(Rect::xyxy(0.0, 0.0, 10.0, 10.0), 0),
            Entry::new(Rect::xyxy(20.0, 20.0, 30.0, 30.0), 1),
        ];
        let r = Rect::xyxy(2.0, 2.0, 3.0, 3.0);
        assert_eq!(choose_subtree(&entries, &r), 0);
        let r2 = Rect::xyxy(21.0, 21.0, 22.0, 22.0);
        assert_eq!(choose_subtree(&entries, &r2), 1);
    }

    fn entry(x: f64, y: f64, id: u32) -> Entry<2> {
        Entry::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), id)
    }

    fn check_split(entries: Vec<Entry<2>>, min_fill: usize) {
        let n = entries.len();
        let mut ids: Vec<u32> = entries.iter().map(|e| e.ptr).collect();
        ids.sort_unstable();
        let (a, b) = quadratic_split(entries, min_fill);
        assert!(a.len() >= min_fill.min(n / 2), "left too small");
        assert!(b.len() >= min_fill.min(n / 2), "right too small");
        assert_eq!(a.len() + b.len(), n);
        let mut got: Vec<u32> = a.iter().chain(&b).map(|e| e.ptr).collect();
        got.sort_unstable();
        assert_eq!(got, ids, "entries lost or duplicated");
    }

    #[test]
    fn split_preserves_entries_and_min_fill() {
        // Two obvious clusters.
        let mut entries = Vec::new();
        for i in 0..5 {
            entries.push(entry(i as f64 * 0.1, 0.0, i));
        }
        for i in 5..11 {
            entries.push(entry(100.0 + i as f64 * 0.1, 50.0, i));
        }
        check_split(entries, 4);
    }

    #[test]
    fn split_separates_clusters() {
        let mut entries = Vec::new();
        for i in 0..6 {
            entries.push(entry(i as f64 * 0.01, 0.0, i));
        }
        for i in 6..12 {
            entries.push(entry(1000.0, i as f64 * 0.01, i));
        }
        let (a, b) = quadratic_split(entries, 3);
        let cluster_of = |e: &Entry<2>| u32::from(e.rect.lo_at(0) > 500.0);
        let ca: Vec<u32> = a.iter().map(cluster_of).collect();
        let cb: Vec<u32> = b.iter().map(cluster_of).collect();
        assert!(
            ca.iter().all(|&c| c == ca[0]) && cb.iter().all(|&c| c == cb[0]),
            "mixed two well-separated clusters: {ca:?} | {cb:?}"
        );
        assert_ne!(ca[0], cb[0]);
    }

    #[test]
    fn split_degenerate_identical_rectangles() {
        let entries: Vec<Entry<2>> = (0..8).map(|i| entry(5.0, 5.0, i)).collect();
        check_split(entries, 3);
    }

    #[test]
    fn split_minimal_input_two_entries() {
        let entries = vec![entry(0.0, 0.0, 0), entry(10.0, 10.0, 1)];
        let (a, b) = quadratic_split(entries, 1);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
