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
//! A query asks the filter about every stored candidate that beats its
//! bound, and most are live. So beside the map sits a screen over its
//! keys: the blocked Bloom filter that components keep for deletes
//! ([`membership`](crate::dynamic::membership)). Its "absent" is exact
//! and costs one seedless hash and one cache line; only a "maybe" pays
//! the map's SipHash probe. The map stays SipHash, so a key crafted to
//! pass the screen costs what every probe cost before it.
//!
//! Shared by [`crate::dynamic::logarithmic::LprTree`] and the `pr-live`
//! crate's durable `LiveIndex`, whose manifest persists the map across
//! restarts.

use crate::dynamic::membership::MembershipFilter;
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

/// The screen is rebuilt for this many times the keys the map holds
/// when the map outgrows it…
const SCREEN_GROWTH: usize = 2;
/// …and when the map shrinks below `1 / SCREEN_SHRINK` of what the
/// screen was sized for, since a removed key's bits stay set.
const SCREEN_SHRINK: usize = 4;

/// A counted set of dead `(id, rect)` identities. See the module docs.
///
/// Beside the map sits a blocked Bloom filter over its keys
/// ([`membership`](crate::dynamic::membership)), the screen that lets
/// [`TombstoneFilter::admit`] pass most live copies without hashing
/// them into the map. Equality is the map's alone.
#[derive(Clone, Default)]
pub struct Tombstones<const D: usize> {
    map: HashMap<TombstoneKey<D>, u32>,
    total: u64,
    /// Never says "absent" for a key of `map`. `None` while `map` is
    /// empty, and in a set [collected](FromIterator) from a checkpoint
    /// until its first new key: a reopen pays no screen build, and until
    /// then every candidate probes the map.
    screen: Option<MembershipFilter>,
    /// Keys `screen` was sized for.
    screen_keys: usize,
}

/// A checkpoint's `(key, count)` entries (manifest decode path), with no
/// screen yet: the first key added later builds it.
///
/// The map is sized once, for the iterator's lower size bound taken
/// before zero counts are dropped, so a checkpoint's distinct keys fill
/// it with one allocation and no rehash. Grown from empty, a map of
/// 10 240 keys is rehashed 12 times, and that was most of a live
/// index's reopen. The manifest decode checks its buffer's length
/// against the key count before it collects, so the reservation never
/// exceeds the entries present.
impl<const D: usize> FromIterator<(TombstoneKey<D>, u32)> for Tombstones<D> {
    fn from_iter<I: IntoIterator<Item = (TombstoneKey<D>, u32)>>(entries: I) -> Self {
        let entries = entries.into_iter();
        let mut set = Tombstones::new();
        set.map.reserve(entries.size_hint().0);
        for (key, count) in entries.filter(|&(_, count)| count > 0) {
            *set.map.entry(key).or_insert(0) += count;
            set.total += u64::from(count);
        }
        set
    }
}

impl<const D: usize> PartialEq for Tombstones<D> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<const D: usize> Eq for Tombstones<D> {}

impl<const D: usize> std::fmt::Debug for Tombstones<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tombstones")
            .field("map", &self.map)
            .field("total", &self.total)
            .finish_non_exhaustive()
    }
}

impl<const D: usize> Tombstones<D> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the screen for [`SCREEN_GROWTH`] times the keys held and
    /// sets exactly their bits.
    fn rebuild_screen(&mut self) {
        self.screen_keys = self.map.len() * SCREEN_GROWTH;
        self.screen = (!self.map.is_empty()).then(|| {
            let mut screen = MembershipFilter::with_capacity(self.screen_keys as u64);
            self.map.keys().for_each(|key| screen.insert(key));
            screen
        });
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

    /// Records `count` dead copies under `key`.
    pub fn add_count(&mut self, key: TombstoneKey<D>, count: u32) {
        if count == 0 {
            return;
        }
        match self.map.entry(key) {
            Entry::Occupied(mut e) => *e.get_mut() += count,
            Entry::Vacant(e) => {
                e.insert(count);
                match &mut self.screen {
                    Some(screen) if self.map.len() <= self.screen_keys => screen.insert(&key),
                    _ => self.rebuild_screen(),
                }
            }
        }
        self.total += count as u64;
    }

    /// How many dead copies of `item` are recorded.
    pub fn count(&self, item: &Item<D>) -> u32 {
        self.map.get(&TombstoneKey::of(item)).copied().unwrap_or(0)
    }

    /// Subtracts another (consumed) multiset from this one. Used by a
    /// merge's install: the drain consumed tombstones against its
    /// *input snapshot*; deletes recorded since then stay in the map.
    /// A removed key's screen bits stay set until the map shrinks enough
    /// for a rebuild.
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
        if self.map.len() * SCREEN_SHRINK < self.screen_keys {
            self.rebuild_screen();
        }
    }

    /// Iterates `(key, count)` entries (manifest encode path), one per
    /// distinct key. Order is unspecified.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (TombstoneKey<D>, u32)> + '_ {
        self.map.iter().map(|(k, &c)| (*k, c))
    }

    /// A per-query consuming view for multiset filtering. `spent` holds
    /// its per-key consumption; it is cleared here, and its capacity is
    /// kept, so a query that reuses one (the [`QueryScratch`]'s)
    /// allocates nothing once it has grown.
    ///
    /// [`QueryScratch`]: crate::QueryScratch
    pub fn filter<'a>(&'a self, spent: &'a mut Spent<D>) -> TombstoneFilter<'a, D> {
        if !spent.is_empty() {
            spent.clear();
        }
        TombstoneFilter {
            tombstones: self,
            spent,
        }
    }
}

/// How many tombstones of each key one [`TombstoneFilter`] has consumed.
pub type Spent<const D: usize> = HashMap<TombstoneKey<D>, u32>;

/// Per-query filtering state: the first `count` stored copies of each
/// tombstoned key are suppressed, later copies pass. One filter must be
/// shared across *all* storage a query fans out over (every component
/// plus any sealed batch), so aliased copies are suppressed exactly
/// `count` times in total.
pub struct TombstoneFilter<'a, const D: usize> {
    tombstones: &'a Tombstones<D>,
    spent: &'a mut Spent<D>,
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
    /// reported), consuming one tombstone otherwise. The screen answers
    /// first: its "absent" is exact, so only a "maybe" probes the map.
    pub fn admit(&mut self, item: &Item<D>) -> bool {
        let tombstones = self.tombstones;
        if tombstones.is_empty() {
            return true;
        }
        let key = TombstoneKey::of(item);
        if tombstones
            .screen
            .as_ref()
            .is_some_and(|s| !s.may_contain(&key))
        {
            return true;
        }
        let Some(&count) = tombstones.map.get(&key) else {
            return true;
        };
        let spent = self.spent.entry(key).or_insert(0);
        if *spent < count {
            *spent += 1;
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
        // A merge that dropped both dead copies consumed both.
        let mut consumed = Tombstones::<2>::new();
        consumed.add_count(TombstoneKey::of(&item(1, 0.0)), 2);
        t.subtract(&consumed);
        assert_eq!(t.count(&item(1, 0.0)), 0);
        assert_eq!(t.total(), 1);
    }

    #[test]
    fn filter_is_multiset_subtraction() {
        let mut t = Tombstones::<2>::new();
        t.add(&item(7, 1.0));
        let mut spent = Spent::new();
        let mut f = t.filter(&mut spent);
        // Two stored copies, one tombstone: exactly one admitted.
        assert!(!f.admit(&item(7, 1.0)));
        assert!(f.admit(&item(7, 1.0)));
        assert!(f.admit(&item(8, 1.0)));
        // A new filter starts from nothing spent.
        let mut f = t.filter(&mut spent);
        assert!(!f.admit(&item(7, 1.0)));
    }

    /// The screen grows with the keys, shrinks once three quarters are
    /// gone, and never turns a dead copy live; equality ignores it.
    #[test]
    fn screen_follows_the_keys_and_stays_exact() {
        let mut t = Tombstones::<2>::new();
        assert_eq!(t.screen_keys, 0);
        for id in 0..1_000 {
            t.add(&item(id, 0.0));
        }
        assert!(t.screen_keys >= 1_000 && t.screen_keys <= 1_000 * SCREEN_GROWTH);
        let grown = t.screen_keys;
        let mut consumed = Tombstones::new();
        (0..900).for_each(|id| consumed.add(&item(id, 0.0)));
        let mut lean = Tombstones::new();
        (900..1_000).for_each(|id| lean.add(&item(id, 0.0)));
        t.subtract(&consumed);
        assert!(t.screen_keys < grown, "rebuilt smaller");
        assert_eq!(t, lean, "equal maps, different screen histories");
        let mut spent = Spent::new();
        let mut f = t.filter(&mut spent);
        for id in 0..1_000 {
            assert_eq!(f.admit(&item(id, 0.0)), id < 900, "id {id}");
        }
        t.subtract(&lean);
        assert!(t.is_empty() && t.screen_keys == 0);
    }

    /// A set collected from a checkpoint has no screen and is exact
    /// through the map alone; its first new key builds the screen.
    #[test]
    fn a_collected_set_builds_its_screen_on_its_first_new_key() {
        let mut t: Tombstones<2> = (0..100)
            .map(|id| (TombstoneKey::of(&item(id, 0.0)), 1 + id % 2))
            .collect();
        assert_eq!(t.total(), 150);
        assert!(t.screen.is_none());
        let mut spent = Spent::new();
        let mut f = t.filter(&mut spent);
        assert!(!f.admit(&item(2, 0.0)) && f.admit(&item(2, 0.0)));
        assert!(f.admit(&item(100, 0.0)));
        t.add(&item(2, 0.0));
        assert!(t.screen.is_none(), "no new key");
        t.add(&item(100, 0.0));
        assert!(t.screen.is_some() && t.screen_keys >= 101);
        let mut f = t.filter(&mut spent);
        assert!(!f.admit(&item(100, 0.0)) && f.admit(&item(100, 0.0)));
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
