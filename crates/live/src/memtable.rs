//! The in-memory write buffer.
//!
//! A memtable is the live index's analogue of the LPR-tree's insertion
//! buffer: a small, bounded vector of items that every acknowledged
//! insert lands in (after its WAL record is durable) and every query
//! scans linearly. At the seal threshold it is frozen whole into an
//! immutable batch and handed to the merge machinery; a fresh memtable
//! keeps absorbing writes while the merge runs.
//!
//! Deletes that target a memtable resident remove it directly (no
//! tombstone needed — the memtable is mutable), which is also why
//! memtable items are exempt from tombstone filtering in queries.

use pr_geom::Item;
use pr_tree::dynamic::same_identity;

/// A bounded, scannable vector of freshly inserted items.
#[derive(Clone, Default, Debug)]
pub struct Memtable<const D: usize> {
    items: Vec<Item<D>>,
}

impl<const D: usize> Memtable<D> {
    /// An empty memtable.
    pub fn new() -> Self {
        Memtable { items: Vec::new() }
    }

    /// A memtable pre-seeded from a manifest checkpoint.
    pub fn from_items(items: Vec<Item<D>>) -> Self {
        Memtable { items }
    }

    /// Number of buffered items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Buffers an item.
    pub fn insert(&mut self, item: Item<D>) {
        self.items.push(item);
    }

    /// Removes the item matching `item`'s full `(id, rect)` identity.
    /// Returns `false` if absent.
    pub fn remove(&mut self, item: &Item<D>) -> bool {
        match self.items.iter().position(|i| same_identity(i, item)) {
            Some(pos) => {
                self.items.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    /// True when an item with this exact identity is buffered.
    pub fn contains(&self, item: &Item<D>) -> bool {
        self.items.iter().any(|i| same_identity(i, item))
    }

    /// The buffered items.
    pub fn items(&self) -> &[Item<D>] {
        &self.items
    }

    /// Takes every buffered item, leaving the memtable empty (the seal
    /// operation).
    pub fn drain(&mut self) -> Vec<Item<D>> {
        std::mem::take(&mut self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_geom::Rect;

    fn item(id: u32, x: f64) -> Item<2> {
        Item::new(Rect::xyxy(x, 0.0, x + 1.0, 1.0), id)
    }

    #[test]
    fn insert_remove_contains() {
        let mut m = Memtable::<2>::new();
        m.insert(item(1, 0.0));
        m.insert(item(2, 5.0));
        assert_eq!(m.len(), 2);
        assert!(m.contains(&item(1, 0.0)));
        // Same id, different rect: not the same identity.
        assert!(!m.contains(&item(1, 3.0)));
        assert!(!m.remove(&item(1, 3.0)));
        assert!(m.remove(&item(1, 0.0)));
        assert!(!m.remove(&item(1, 0.0)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn drain_takes_everything() {
        let mut m = Memtable::<2>::new();
        for i in 0..10 {
            m.insert(item(i, i as f64 * 10.0));
        }
        let drained = m.drain();
        assert_eq!(drained.len(), 10);
        assert!(m.is_empty());
    }
}
