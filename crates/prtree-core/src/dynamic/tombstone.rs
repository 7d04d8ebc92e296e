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
//! therefore filter with *multiset subtraction* (`TombstoneFilter`):
//! for a key with `c` tombstones and `m` stored copies, exactly
//! `m - c` copies are reported — and since aliased copies are
//! bit-identical items, it does not matter *which* copies survive.
//!
//! The counts are kept in key order ([`TombstoneKey`]'s derived order:
//! id, then the `lo` bits, then the `hi` bits), in two parts: a sorted
//! run, and an ordered delta of the keys first added since the run was
//! last rebuilt. A key is in exactly one of them. A merge's install
//! ([`Tombstones::subtract`]) rebuilds the run by one linear merge of
//! run, delta and consumed keys; a checkpoint writes its records in key
//! order, so a reopen parses them straight into the run and checks the
//! order once, with no hashing.
//!
//! A query asks the filter about every stored candidate that beats its
//! bound, and most are live. So beside the counts sits a screen over
//! their keys: the blocked Bloom filter that components keep for deletes
//! (`membership`). Its "absent" is exact and costs one seedless hash and
//! one cache line; only a "maybe" pays a lookup, a binary search of the
//! run and then one of the delta. Both are comparisons on a total
//! order, O(log n) in the worst case whatever the keys are, so a key
//! crafted to pass the screen costs no more than any other: there is no
//! hash for it to collide in.
//!
//! Shared by [`crate::dynamic::logarithmic::LprTree`] and the `pr-live`
//! crate's durable `LiveIndex`, whose manifest persists the counts
//! across restarts.

use crate::dynamic::membership::MembershipFilter;
use pr_geom::{Item, Rect};
use std::collections::{btree_map, BTreeMap, HashMap};
use std::iter::Peekable;

/// Identity of a stored item: id plus the exact coordinate bit patterns
/// of its rectangle (f64 has no `Eq`/`Ord`/`Hash`; its bits do, and
/// stored items round-trip bit-exactly). The derived order compares the
/// id, then the `lo` bits, then the `hi` bits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
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

/// The screen is rebuilt for this many times the keys held when the
/// keys outgrow it…
const SCREEN_GROWTH: usize = 2;
/// …and when the keys shrink below `1 / SCREEN_SHRINK` of what the
/// screen was sized for, since a removed key's bits stay set.
const SCREEN_SHRINK: usize = 4;

/// A counted set of dead `(id, rect)` identities. See the module docs.
///
/// Beside the counts sits a blocked Bloom filter over their keys
/// (`membership`), the screen that lets `TombstoneFilter::admit` pass
/// most live copies without looking them up. Equality is the
/// multiset's alone: how the keys split between run and delta, and the
/// screen, are not compared.
#[derive(Clone, Default)]
pub struct Tombstones<const D: usize> {
    /// `(key, count)` in ascending key order, each key once, every count
    /// above zero.
    run: Vec<(TombstoneKey<D>, u32)>,
    /// Keys first added since `run` was last rebuilt; none of them is in
    /// `run`, and every count is above zero.
    delta: BTreeMap<TombstoneKey<D>, u32>,
    total: u64,
    /// Never says "absent" for a held key. `None` while the set is
    /// empty, and in a set [collected](FromIterator) from a checkpoint
    /// until its first new key: a reopen pays no screen build, and until
    /// then every candidate is looked up.
    screen: Option<MembershipFilter>,
    /// Keys `screen` was sized for.
    screen_keys: usize,
}

/// A checkpoint's `(key, count)` entries (manifest decode path), with no
/// screen yet: the first key added later builds it.
///
/// The entries go into the run as they come: one allocation, sized for
/// the iterator's lower size bound taken before zero counts are dropped,
/// and one pass that checks the keys ascend. A checkpoint written in
/// key order passes it and is done, with no hashing. Entries in any
/// other order (an older writer's checkpoint walked a hash map) are
/// sorted in place once, and a repeated key's counts are summed. The
/// manifest decode checks its buffer's length against the key count
/// before it collects, so the reservation never exceeds the entries
/// present.
impl<const D: usize> FromIterator<(TombstoneKey<D>, u32)> for Tombstones<D> {
    fn from_iter<I: IntoIterator<Item = (TombstoneKey<D>, u32)>>(entries: I) -> Self {
        let entries = entries.into_iter();
        let mut run = Vec::with_capacity(entries.size_hint().0);
        run.extend(entries.filter(|&(_, count)| count > 0));
        if !run.windows(2).all(|w| w[0].0 < w[1].0) {
            run.sort_unstable_by_key(|&(key, _)| key);
            run.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 += later.1;
                }
                same
            });
        }
        let total = run.iter().map(|&(_, count)| u64::from(count)).sum();
        Tombstones {
            run,
            total,
            ..Tombstones::default()
        }
    }
}

impl<const D: usize> PartialEq for Tombstones<D> {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.entries().eq(other.entries())
    }
}

impl<const D: usize> Eq for Tombstones<D> {}

impl<const D: usize> std::fmt::Debug for Tombstones<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tombstones(total {}) ", self.total)?;
        f.debug_map().entries(self.entries()).finish()
    }
}

impl<const D: usize> Tombstones<D> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct keys held, run and delta together.
    fn keys(&self) -> usize {
        self.run.len() + self.delta.len()
    }

    /// Sizes the screen for [`SCREEN_GROWTH`] times the keys held and
    /// sets exactly their bits.
    fn rebuild_screen(&mut self) {
        self.screen_keys = self.keys() * SCREEN_GROWTH;
        self.screen = (self.keys() > 0).then(|| {
            let mut screen = MembershipFilter::with_capacity(self.screen_keys as u64);
            let run = self.run.iter().map(|(key, _)| key);
            run.chain(self.delta.keys())
                .for_each(|key| screen.insert(key));
            screen
        });
    }

    /// Total number of tombstones, counting multiplicity (the
    /// compaction-trigger metric).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when no tombstones exist.
    pub(crate) fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Records one more dead copy of `item`.
    pub fn add(&mut self, item: &Item<D>) {
        self.add_count(TombstoneKey::of(item), 1);
    }

    /// Records `count` dead copies under `key`: a key of the run is
    /// counted in place, any other goes to the delta.
    pub fn add_count(&mut self, key: TombstoneKey<D>, count: u32) {
        if count == 0 {
            return;
        }
        self.total += u64::from(count);
        if let Ok(i) = self.run.binary_search_by(|(k, _)| k.cmp(&key)) {
            self.run[i].1 += count;
            return;
        }
        match self.delta.entry(key) {
            btree_map::Entry::Occupied(mut e) => *e.get_mut() += count,
            btree_map::Entry::Vacant(e) => {
                e.insert(count);
                let keys = self.keys();
                match &mut self.screen {
                    Some(screen) if keys <= self.screen_keys => screen.insert(&key),
                    _ => self.rebuild_screen(),
                }
            }
        }
    }

    /// The count held under `key`, if any: a binary search of the run,
    /// then a lookup in the delta.
    fn get(&self, key: &TombstoneKey<D>) -> Option<u32> {
        match self.run.binary_search_by(|(k, _)| k.cmp(key)) {
            Ok(i) => Some(self.run[i].1),
            Err(_) => self.delta.get(key).copied(),
        }
    }

    /// How many dead copies of `item` are recorded.
    pub fn count(&self, item: &Item<D>) -> u32 {
        self.get(&TombstoneKey::of(item)).unwrap_or(0)
    }

    /// Subtracts another (consumed) multiset from this one and folds the
    /// delta into the run, in place: the run grows by the delta's length
    /// and the two are merged from the back, so each entry moves at most
    /// once, then one walk beside `consumed`'s keys takes their counts.
    /// O(n + m), and no allocation but the run's amortized growth. A key
    /// of `consumed` that is not held takes nothing. Used by a merge's
    /// install: the drain consumed tombstones against its *input
    /// snapshot*; deletes recorded since then stay. A removed key's
    /// screen bits stay set until the keys shrink enough for a rebuild.
    pub fn subtract(&mut self, consumed: &Tombstones<D>) {
        let delta = std::mem::take(&mut self.delta);
        let run = &mut self.run;
        let (mut i, mut k) = (run.len(), run.len() + delta.len());
        if let Some((&key, &count)) = delta.first_key_value() {
            run.resize(k, (key, count));
        }
        for (&key, &count) in delta.iter().rev() {
            while i > 0 && run[i - 1].0 > key {
                (i, k) = (i - 1, k - 1);
                run[k] = run[i];
            }
            k -= 1;
            run[k] = (key, count);
        }
        if !consumed.is_empty() {
            let mut gone = consumed.entries().peekable();
            for (key, count) in run.iter_mut() {
                while gone.next_if(|(k, _)| k < key).is_some() {}
                if let Some((_, n)) = gone.next_if(|(k, _)| k == key) {
                    let take = n.min(*count);
                    *count -= take;
                    self.total -= u64::from(take);
                }
            }
            run.retain(|&(_, count)| count > 0);
        }
        if self.keys() * SCREEN_SHRINK < self.screen_keys {
            self.rebuild_screen();
        }
    }

    /// Iterates `(key, count)` entries (manifest encode path), one per
    /// distinct key, in ascending key order: one ordered walk of run and
    /// delta together.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (TombstoneKey<D>, u32)> + '_ {
        Entries {
            run: self.run.iter().peekable(),
            delta: self.delta.iter().peekable(),
        }
    }

    /// A per-query consuming view for multiset filtering. `spent` holds
    /// its per-key consumption; it is cleared here, and its capacity is
    /// kept, so a query that reuses one (the [`QueryScratch`]'s)
    /// allocates nothing once it has grown.
    ///
    /// [`QueryScratch`]: crate::QueryScratch
    pub(crate) fn filter<'a>(&'a self, spent: &'a mut Spent<D>) -> TombstoneFilter<'a, D> {
        if !spent.is_empty() {
            spent.clear();
        }
        TombstoneFilter {
            tombstones: self,
            spent,
        }
    }
}

/// [`Tombstones::entries`]: the run and the delta merged by key. Their
/// keys are disjoint, so the length is the sum of theirs.
struct Entries<'a, const D: usize> {
    run: Peekable<std::slice::Iter<'a, (TombstoneKey<D>, u32)>>,
    delta: Peekable<btree_map::Iter<'a, TombstoneKey<D>, u32>>,
}

impl<const D: usize> Iterator for Entries<'_, D> {
    type Item = (TombstoneKey<D>, u32);

    fn next(&mut self) -> Option<Self::Item> {
        let from_run = match (self.run.peek(), self.delta.peek()) {
            (Some(&&(run_key, _)), Some(&(delta_key, _))) => run_key < *delta_key,
            (run, _) => run.is_some(),
        };
        if from_run {
            self.run.next().copied()
        } else {
            self.delta.next().map(|(&key, &count)| (key, count))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.run.len() + self.delta.len();
        (len, Some(len))
    }
}

impl<const D: usize> ExactSizeIterator for Entries<'_, D> {}

/// How many tombstones of each key one [`TombstoneFilter`] has consumed.
pub(crate) type Spent<const D: usize> = HashMap<TombstoneKey<D>, u32>;

/// Per-query filtering state: the first `count` stored copies of each
/// tombstoned key are suppressed, later copies pass. One filter must be
/// shared across *all* storage a query fans out over (every component
/// plus any sealed batch), so aliased copies are suppressed exactly
/// `count` times in total.
pub(crate) struct TombstoneFilter<'a, const D: usize> {
    tombstones: &'a Tombstones<D>,
    spent: &'a mut Spent<D>,
}

impl<'a, const D: usize> TombstoneFilter<'a, D> {
    /// In-place multiset filtering of a query's appended result run:
    /// compacts `out[start..]` down to the admitted items. This is the
    /// shared per-component step of every multi-component window query
    /// (LPR-tree and pr-live snapshots).
    pub(crate) fn retain_admitted(&mut self, out: &mut Vec<Item<D>>, start: usize) {
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
    /// first: its "absent" is exact, so only a "maybe" looks the key up.
    pub(crate) fn admit(&mut self, item: &Item<D>) -> bool {
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
        let Some(count) = tombstones.get(&key) else {
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

    /// Encodes `set`'s entries as a checkpoint writes them (record, then
    /// count) and collects them back as its decode does.
    fn codec_roundtrip(set: &Tombstones<2>) -> Tombstones<2> {
        use crate::Entry;
        use pr_em::Record;
        let size = Entry::<2>::SIZE;
        let mut buf = vec![0u8; set.entries().len() * (size + 4)];
        for ((key, count), rec) in set.entries().zip(buf.chunks_exact_mut(size + 4)) {
            Entry::from_item(key.to_item()).encode(&mut rec[..size]);
            rec[size..].copy_from_slice(&count.to_le_bytes());
        }
        buf.chunks_exact(size + 4)
            .map(|rec| {
                let item = Entry::<2>::decode(&rec[..size]).to_item();
                let count = u32::from_le_bytes(rec[size..].try_into().unwrap());
                (TombstoneKey::of(&item), count)
            })
            .collect()
    }

    /// Seeded sequences of `add`, `add_count`, `subtract`, `clone` and a
    /// checkpoint round trip, each checked against a `BTreeMap` model:
    /// counts, total, entry order, the copies a filter admits, and
    /// equality with the same multiset held wholly in a run and wholly
    /// in a delta.
    #[test]
    fn matches_an_ordered_map_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        // 24 ids × 3 rects, signed zeros among them, so keys share ids
        // and differ only in sign bits.
        let universe: Vec<Item<2>> = (0..24)
            .flat_map(|id| [item(id, 0.0), item(id, -0.0), item(id, id as f64 - 9.5)])
            .collect();
        let mut split = false;
        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut set = Tombstones::<2>::new();
            let mut model: BTreeMap<TombstoneKey<2>, u32> = BTreeMap::new();
            for step in 0..300 {
                let pick = |rng: &mut SmallRng| universe[rng.gen_range(0..universe.len())];
                match rng.gen_range(0..10u32) {
                    0..=3 => {
                        let it = pick(&mut rng);
                        set.add(&it);
                        *model.entry(TombstoneKey::of(&it)).or_default() += 1;
                    }
                    4..=5 => {
                        let (key, count) = (TombstoneKey::of(&pick(&mut rng)), rng.gen_range(0..4));
                        set.add_count(key, count);
                        if count > 0 {
                            *model.entry(key).or_default() += count;
                        }
                    }
                    6..=7 => {
                        // Consume part of some held keys, more than held
                        // of others, and keys not held at all.
                        let mut consumed = Tombstones::new();
                        for _ in 0..rng.gen_range(0..12) {
                            let key = TombstoneKey::of(&pick(&mut rng));
                            let n = rng.gen_range(1..4);
                            consumed.add_count(key, n);
                            if let Some(c) = model.get_mut(&key) {
                                *c -= n.min(*c);
                                if *c == 0 {
                                    model.remove(&key);
                                }
                            }
                        }
                        set.subtract(&consumed);
                        assert!(set.delta.is_empty(), "the delta is folded in");
                    }
                    8 => {
                        let copy = set.clone();
                        assert_eq!(copy, set);
                        set = copy;
                    }
                    _ => {
                        set = codec_roundtrip(&set);
                        assert!(set.delta.is_empty() && set.screen.is_none());
                    }
                }
                let ctx = format!("seed {seed} step {step}");
                let want: Vec<(TombstoneKey<2>, u32)> =
                    model.iter().map(|(&k, &c)| (k, c)).collect();
                assert_eq!(set.entries().len(), want.len(), "{ctx}");
                assert_eq!(set.entries().collect::<Vec<_>>(), want, "{ctx}");
                assert_eq!(
                    set.total(),
                    model.values().map(|&c| u64::from(c)).sum(),
                    "{ctx}"
                );
                for it in &universe {
                    let held = model.get(&TombstoneKey::of(it)).copied().unwrap_or(0);
                    assert_eq!(set.count(it), held, "{ctx}");
                }
                // Each key stored 0..4 times: a filter admits m − c.
                let mut spent = Spent::new();
                let mut f = set.filter(&mut spent);
                for it in &universe {
                    let stored = rng.gen_range(0..4u32);
                    let held = model.get(&TombstoneKey::of(it)).copied().unwrap_or(0);
                    let admitted = (0..stored).filter(|_| f.admit(it)).count() as u32;
                    assert_eq!(admitted, stored.saturating_sub(held), "{ctx}");
                }
                // The same multiset wholly in a run, and wholly in a delta.
                let run: Tombstones<2> = want.iter().copied().collect();
                let mut delta = Tombstones::new();
                want.iter().for_each(|&(k, c)| delta.add_count(k, c));
                assert_eq!(set, run, "{ctx}");
                assert_eq!(set, delta, "{ctx}");
                split |= !set.run.is_empty() && !set.delta.is_empty();
            }
        }
        assert!(split, "some step held keys in both the run and the delta");
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
