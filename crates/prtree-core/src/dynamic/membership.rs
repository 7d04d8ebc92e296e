//! Per-component membership filters: which components a delete's
//! liveness count may skip.
//!
//! A delete must prove that its victim is stored before it may tombstone
//! it ([`fanout::count_stored_copies`](crate::dynamic::fanout::count_stored_copies)),
//! and in an LPR-tree of `c` components at most one of them usually
//! holds the victim. A `MembershipFilter` is a blocked Bloom filter
//! over the `(id, rect bits)` identity that [`TombstoneKey`] compares.
//! Its "absent" is exact, so the count skips that component. Its "maybe"
//! costs one exact-match descent ([`RTree::count_exact`]).
//!
//! Lifecycle: the [`RTree`] owns its filter.
//! * It is built lazily by one leaf scan, the first time an exact-match
//!   probe reaches the tree ([`RTree::may_contain`]). Insert-only use
//!   therefore never builds one, and neither does a count taken under
//!   a lock ([`FilterBuild::Never`](crate::dynamic::fanout::FilterBuild)).
//! * It is held in memory beside the tree and dropped with it.
//! * Every page a Guttman update writes (`RTree::write_node`, the one
//!   mutation path) clears it.
//!
//! Nothing is persisted, so no on-disk format changes. A component
//! reopened from a store builds its filter on its first probe, through
//! the same path.

use crate::dynamic::tombstone::TombstoneKey;
use crate::scratch::QueryScratch;
use crate::tree::RTree;
use pr_em::EmError;

/// Filter bits per stored item. At [`HASHES`] = 4 this measures
/// ≈ 0.3 % false positives on TIGER-profile identities (unit test
/// below), against the ≈ 0.24 % of an unblocked Bloom filter.
pub(crate) const BITS_PER_ITEM: usize = 16;
/// Bits set (and tested) per identity, all in one block.
pub(crate) const HASHES: u32 = 4;
/// Words per block: 512 bits, one cache line, so a lookup touches one
/// line whatever [`HASHES`] is.
const BLOCK_WORDS: usize = 8;
const BLOCK_BITS: u64 = (BLOCK_WORDS * 64) as u64;

/// A blocked Bloom filter over stored identities (see the module docs).
/// No false negatives: every identity inserted answers "maybe" forever.
/// [`Tombstones`](crate::dynamic::Tombstones) screens its keys with one
/// too.
#[derive(Debug, Clone)]
pub(crate) struct MembershipFilter {
    blocks: Vec<[u64; BLOCK_WORDS]>,
}

impl MembershipFilter {
    /// An empty filter sized for `items` identities.
    pub(crate) fn with_capacity(items: u64) -> Self {
        let bits = (items.max(1) as usize).saturating_mul(BITS_PER_ITEM);
        MembershipFilter {
            blocks: vec![[0; BLOCK_WORDS]; bits.div_ceil(BLOCK_BITS as usize)],
        }
    }

    /// The filter of every item stored in `tree`: one scan of its leaves
    /// in place.
    pub(crate) fn of_tree<const D: usize>(
        tree: &RTree<D>,
        scratch: &mut QueryScratch<D>,
    ) -> Result<Self, EmError> {
        let mut filter = Self::with_capacity(tree.len());
        tree.for_each_leaf(scratch, |leaf| {
            leaf.for_each_item(|it| filter.insert(&TombstoneKey::of(&it)));
        })?;
        Ok(filter)
    }

    /// Records one identity.
    pub(crate) fn insert<const D: usize>(&mut self, key: &TombstoneKey<D>) {
        let (block, bits) = self.locate(key);
        let block = &mut self.blocks[block];
        for pos in bits {
            block[pos / 64] |= 1 << (pos % 64);
        }
    }

    /// `false` only if `key` was never inserted; `true` otherwise, and
    /// for a small fraction of identities that were not. Tests the
    /// [`HASHES`] bits one by one: a query asks this about every
    /// candidate it keeps, and building eight word masks to compare cost
    /// twice as much.
    pub(crate) fn may_contain<const D: usize>(&self, key: &TombstoneKey<D>) -> bool {
        let (block, bits) = self.locate(key);
        let block = &self.blocks[block];
        bits.iter()
            .all(|&pos| block[pos / 64] >> (pos % 64) & 1 == 1)
    }

    /// Heap bytes the filter holds.
    pub(crate) fn bytes(&self) -> usize {
        self.blocks.len() * BLOCK_WORDS * 8
    }

    /// The block `key` lives in and the positions of its bits there. The
    /// high half of the fingerprint picks the block (multiply-shift
    /// range reduction); a second multiply spreads it into the `HASHES`
    /// 9-bit positions inside the block.
    #[inline]
    fn locate<const D: usize>(&self, key: &TombstoneKey<D>) -> (usize, [usize; HASHES as usize]) {
        let h = key.fingerprint();
        let block = (((h >> 32) * self.blocks.len() as u64) >> 32) as usize;
        let g = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let bits = std::array::from_fn(|k| ((g >> (64 - 9 * (k + 1))) % BLOCK_BITS) as usize);
        (block, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_geom::{Item, Rect};

    #[test]
    fn inserted_identities_always_pass() {
        let items = pr_data::tiger::TigerProfile::eastern().generate(5_000, 5);
        let mut f = MembershipFilter::with_capacity(items.len() as u64);
        for it in &items {
            f.insert(&TombstoneKey::of(it));
        }
        assert!(items.iter().all(|it| f.may_contain(&TombstoneKey::of(it))));
        assert_eq!(f.bytes(), (5_000 * BITS_PER_ITEM).div_ceil(512) * 64);
    }

    /// The false-positive rate on 100 k TIGER-profile identities, each
    /// probed with neighbours that differ in one way only — the id, or
    /// one coordinate by one ulp — is ≤ 2 %. Zero's two signs are two
    /// identities, so they hash apart.
    #[test]
    fn false_positive_rate_on_tiger_identities() {
        let items = pr_data::tiger::TigerProfile::eastern().generate(100_000, 5);
        let mut f = MembershipFilter::with_capacity(items.len() as u64);
        for it in &items {
            f.insert(&TombstoneKey::of(it));
        }
        let absent = items.iter().flat_map(|it| {
            let [lx, ly] = *it.rect.lo();
            let [hx, hy] = *it.rect.hi();
            [
                Item::new(it.rect, it.id + 100_000),
                Item::new(Rect::xyxy(lx.next_down(), ly, hx, hy), it.id),
                Item::new(Rect::xyxy(lx, ly, hx, hy.next_up()), it.id),
            ]
        });
        let (mut probes, mut false_positives) = (0u64, 0u64);
        for it in absent {
            probes += 1;
            false_positives += f.may_contain(&TombstoneKey::of(&it)) as u64;
        }
        let fpr = false_positives as f64 / probes as f64;
        assert!(
            fpr <= 0.02,
            "false-positive rate {fpr:.4} over {probes} probes"
        );
        assert!(fpr <= 0.006, "16 bits, k = 4 measure ≈ 0.3 %: got {fpr:.4}");
        let zero = Item::new(Rect::xyxy(0.0, 0.0, 1.0, 1.0), 7);
        let neg = Item::new(Rect::xyxy(-0.0, 0.0, 1.0, 1.0), 7);
        assert_ne!(
            TombstoneKey::of(&zero).fingerprint(),
            TombstoneKey::of(&neg).fingerprint(),
            "±0.0 are distinct identities"
        );
    }

    #[test]
    fn empty_filter_rejects_and_has_one_block() {
        let f = MembershipFilter::with_capacity(0);
        assert_eq!(f.bytes(), 64);
        let it = Item::new(Rect::xyxy(0.0, 0.0, 1.0, 1.0), 1);
        assert!(!f.may_contain(&TombstoneKey::of(&it)));
    }
}
