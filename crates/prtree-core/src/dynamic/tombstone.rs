//! Multiset tombstones for logically-deleted items in bulk-loaded
//! components.
//!
//! The logarithmic method cannot erase an item from an immutable,
//! bulk-loaded component; a delete instead records a *tombstone* and the
//! dead record is physically dropped the next time its component is
//! merged. The original implementation keyed tombstones by item id
//! alone, which breaks delete-then-reinsert: after `delete(X)` and a
//! fresh `insert` of a new item with the same id, the stale tombstone
//! shadowed the *new* item once it reached a component. Tombstones here
//! are keyed by the full `(id, rect)` identity and carry a **count**,
//! because even the full identity can alias: delete `X`, reinsert an
//! identical `X'`, and a component merge can leave one dead and one live
//! copy of the same `(id, rect)` in different components. Queries
//! therefore filter with *multiset subtraction* ([`TombstoneFilter`]):
//! for a key with `c` tombstones and `m` stored copies, exactly
//! `m - c` copies are reported — and since aliased copies are
//! bit-identical items, it does not matter *which* copies survive.
//!
//! Shared by [`crate::dynamic::logarithmic::LprTree`] and the `pr-live`
//! crate's durable `LiveIndex`, whose manifest persists the map across
//! restarts.

use pr_geom::{Item, Rect};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Hashable identity of a stored item: id plus the exact coordinate bit
/// patterns of its rectangle (f64 has no `Eq`/`Hash`; its bits do, and
/// stored items round-trip bit-exactly).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TombstoneKey<const D: usize> {
    id: u32,
    lo: [u64; D],
    hi: [u64; D],
}

impl<const D: usize> TombstoneKey<D> {
    /// The key of an item.
    pub fn of(item: &Item<D>) -> Self {
        let mut lo = [0u64; D];
        let mut hi = [0u64; D];
        for i in 0..D {
            lo[i] = item.rect.lo_at(i).to_bits();
            hi[i] = item.rect.hi_at(i).to_bits();
        }
        TombstoneKey {
            id: item.id,
            lo,
            hi,
        }
    }

    /// A 64-bit hash of exactly the bits this key compares — seedless,
    /// so it is the same in every process. The membership filters
    /// ([`crate::dynamic::membership`]) index by it.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h = mix64(u64::from(self.id));
        for w in self.lo.iter().chain(&self.hi) {
            h = mix64(h ^ w);
        }
        h
    }

    /// Reconstructs the item this key identifies.
    pub fn to_item(self) -> Item<D> {
        let mut lo = [0f64; D];
        let mut hi = [0f64; D];
        for i in 0..D {
            lo[i] = f64::from_bits(self.lo[i]);
            hi[i] = f64::from_bits(self.hi[i]);
        }
        Item::new(Rect::new(lo, hi), self.id)
    }
}

/// The splitmix64 finalizer: every input bit flips each output bit with
/// probability ≈ ½.
fn mix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bit-exact identity equality: the predicate every delete/tombstone
/// decision must use. `Rect`'s `PartialEq` follows f64 semantics
/// (`0.0 == -0.0`), but tombstones are *keyed* by coordinate bits — a
/// delete matched via `PartialEq` against a signed-zero twin would
/// record a tombstone under a key no stored item has, leaving an
/// orphan tombstone and an undeletable item. Routing every liveness
/// check through this function keeps the decision and the key
/// structurally consistent.
pub fn same_identity<const D: usize>(a: &Item<D>, b: &Item<D>) -> bool {
    TombstoneKey::of(a) == TombstoneKey::of(b)
}

/// A counted set of dead `(id, rect)` identities. See the module docs.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Tombstones<const D: usize> {
    map: HashMap<TombstoneKey<D>, u32>,
    total: u64,
}

impl<const D: usize> Tombstones<D> {
    /// An empty set.
    pub fn new() -> Self {
        Tombstones {
            map: HashMap::new(),
            total: 0,
        }
    }

    /// Total number of tombstones, counting multiplicity (the
    /// compaction-trigger metric).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when no tombstones exist.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Records one more dead copy of `item`.
    pub fn add(&mut self, item: &Item<D>) {
        self.add_count(TombstoneKey::of(item), 1);
    }

    /// Records `count` dead copies under `key` (manifest decode path).
    pub fn add_count(&mut self, key: TombstoneKey<D>, count: u32) {
        if count == 0 {
            return;
        }
        *self.map.entry(key).or_insert(0) += count;
        self.total += count as u64;
    }

    /// How many dead copies of `item` are recorded.
    pub fn count(&self, item: &Item<D>) -> u32 {
        self.map.get(&TombstoneKey::of(item)).copied().unwrap_or(0)
    }

    /// Removes one dead copy of `item` (a merge physically dropped it).
    /// Returns `true` if a tombstone was present and consumed.
    pub fn consume(&mut self, item: &Item<D>) -> bool {
        if self.is_empty() {
            return false; // merges of never-deleted data hash nothing
        }
        match self.map.entry(TombstoneKey::of(item)) {
            Entry::Occupied(mut e) => {
                *e.get_mut() -= 1;
                if *e.get() == 0 {
                    e.remove();
                }
                self.total -= 1;
                true
            }
            Entry::Vacant(_) => false,
        }
    }

    /// Subtracts another (consumed) multiset from this one. Used by a
    /// merge swap: the merge consumed tombstones against its *input
    /// snapshot*; deletes recorded since then stay in the map.
    pub fn subtract(&mut self, consumed: &Tombstones<D>) {
        for (key, &n) in &consumed.map {
            if let Entry::Occupied(mut e) = self.map.entry(*key) {
                let take = n.min(*e.get());
                *e.get_mut() -= take;
                if *e.get() == 0 {
                    e.remove();
                }
                self.total -= take as u64;
            }
        }
    }

    /// Drops every tombstone (global rebuild absorbed them all).
    pub fn clear(&mut self) {
        self.map.clear();
        self.total = 0;
    }

    /// Iterates `(key, count)` entries (manifest encode path). Order is
    /// unspecified.
    pub fn entries(&self) -> impl Iterator<Item = (TombstoneKey<D>, u32)> + '_ {
        self.map.iter().map(|(k, &c)| (*k, c))
    }

    /// A per-query consuming view for multiset filtering.
    pub fn filter(&self) -> TombstoneFilter<'_, D> {
        TombstoneFilter {
            tombstones: self,
            used: HashMap::new(),
        }
    }
}

/// Per-query filtering state: the first `count` stored copies of each
/// tombstoned key are suppressed, later copies pass. One filter must be
/// shared across *all* storage a query fans out over (every component
/// plus any frozen batch), so aliased copies are suppressed exactly
/// `count` times in total.
pub struct TombstoneFilter<'a, const D: usize> {
    tombstones: &'a Tombstones<D>,
    used: HashMap<TombstoneKey<D>, u32>,
}

impl<'a, const D: usize> TombstoneFilter<'a, D> {
    /// In-place multiset filtering of a query's appended result run:
    /// compacts `out[start..]` down to the admitted items. This is the
    /// shared per-component step of every multi-component window query
    /// (LPR-tree and pr-live snapshots).
    pub fn retain_admitted(&mut self, out: &mut Vec<Item<D>>, start: usize) {
        if self.tombstones.is_empty() {
            return;
        }
        let mut keep = start;
        for i in start..out.len() {
            let item = out[i];
            if self.admit(&item) {
                out.swap(keep, i);
                keep += 1;
            }
        }
        out.truncate(keep);
    }

    /// Returns `true` if this stored copy of `item` is live (should be
    /// reported), consuming one tombstone otherwise.
    pub fn admit(&mut self, item: &Item<D>) -> bool {
        if self.tombstones.is_empty() {
            return true;
        }
        let key = TombstoneKey::of(item);
        let Some(&count) = self.tombstones.map.get(&key) else {
            return true;
        };
        let used = self.used.entry(key).or_insert(0);
        if *used < count {
            *used += 1;
            false
        } else {
            true
        }
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
    fn add_count_consume_roundtrip() {
        let mut t = Tombstones::<2>::new();
        assert!(t.is_empty());
        t.add(&item(1, 0.0));
        t.add(&item(1, 0.0));
        t.add(&item(2, 5.0));
        assert_eq!(t.total(), 3);
        assert_eq!(t.count(&item(1, 0.0)), 2);
        // Same id, different rect: distinct key.
        assert_eq!(t.count(&item(1, 9.0)), 0);
        assert!(t.consume(&item(1, 0.0)));
        assert_eq!(t.count(&item(1, 0.0)), 1);
        assert!(t.consume(&item(1, 0.0)));
        assert!(!t.consume(&item(1, 0.0)));
        assert_eq!(t.total(), 1);
    }

    #[test]
    fn filter_is_multiset_subtraction() {
        let mut t = Tombstones::<2>::new();
        t.add(&item(7, 1.0));
        let mut f = t.filter();
        // Two stored copies, one tombstone: exactly one admitted.
        assert!(!f.admit(&item(7, 1.0)));
        assert!(f.admit(&item(7, 1.0)));
        assert!(f.admit(&item(8, 1.0)));
    }

    #[test]
    fn subtract_removes_only_consumed() {
        let mut t = Tombstones::<2>::new();
        t.add(&item(1, 0.0));
        t.add(&item(2, 0.0));
        let mut consumed = Tombstones::<2>::new();
        consumed.add(&item(1, 0.0));
        consumed.add(&item(3, 0.0)); // not present: ignored
        t.subtract(&consumed);
        assert_eq!(t.total(), 1);
        assert_eq!(t.count(&item(2, 0.0)), 1);
    }

    #[test]
    fn key_roundtrips_to_item() {
        let it = item(42, -3.25);
        assert_eq!(TombstoneKey::of(&it).to_item(), it);
    }

    #[test]
    fn identity_is_bitwise_not_numeric() {
        let pos = Item::new(Rect::xyxy(0.0, 0.0, 1.0, 1.0), 7);
        let neg = Item::new(Rect::xyxy(-0.0, 0.0, 1.0, 1.0), 7);
        // f64 PartialEq says the rects are equal; the identity does not.
        assert_eq!(pos.rect, neg.rect);
        assert!(same_identity(&pos, &pos));
        assert!(!same_identity(&pos, &neg));
    }
}
