//! The in-memory write buffer.
//!
//! A memtable is the live index's analogue of the LPR-tree's insertion
//! buffer, and the same type: [`LooseItems`], a list of `Arc`'d chunks
//! in leaf-record layout, each with its MBR. Every acknowledged insert
//! lands in it after its WAL record is durable. An insert batch of at
//! least one chunk is tiled into full chunks, and shorter batches append
//! to the tail chunk. A query scans a chunk only when its MBR can
//! matter: when the k-NN bound admits it, or when it meets the window.
//! At the seal threshold the memtable is frozen whole into the sealed
//! batch, which keeps its chunks, and a fresh memtable keeps absorbing
//! writes while the merge runs. A snapshot shares the chunks instead of
//! copying the items.
//!
//! Deletes that target a memtable resident remove it directly, finding
//! it through the chunk MBRs and copying only the chunk they change (no
//! tombstone needed — the memtable is mutable), which is also why
//! memtable items are exempt from tombstone filtering in queries.

use pr_tree::dynamic::LooseItems;

/// The memtable: the live index's loose items (see the module docs).
pub type Memtable<const D: usize> = LooseItems<D>;

#[cfg(test)]
mod tests {
    use super::*;
    use pr_geom::{Item, Rect};

    fn item(id: u32, x: f64) -> Item<2> {
        Item::new(Rect::xyxy(x, 0.0, x + 1.0, 1.0), id)
    }

    #[test]
    fn insert_remove() {
        let mut m = Memtable::<2>::new();
        m.push(item(1, 0.0));
        m.push(item(2, 5.0));
        assert_eq!(m.len(), 2);
        // Same id, different rect: not the same identity.
        assert!(!m.remove(&item(1, 3.0)));
        assert!(m.remove(&item(1, 0.0)));
        assert!(!m.remove(&item(1, 0.0)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn seal_takes_everything() {
        let mut m = Memtable::<2>::new();
        let run: Vec<Item<2>> = (0..100).map(|i| item(i, f64::from(i) * 10.0)).collect();
        m.extend(&run);
        let sealed = std::mem::take(&mut m);
        assert_eq!(sealed.len(), 100);
        assert!(m.is_empty());
    }
}
