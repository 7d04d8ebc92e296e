//! The slot arithmetic of the external logarithmic method, over the
//! buffer capacity and the slot sizes, that
//! [`ComponentSet`](crate::dynamic::ComponentSet) plans every merge by.
//! Slot `i` holds at most `buffer_cap · 2^i` items. Deletions tombstone;
//! once the dead outnumber half the stored items a global rebuild
//! reclaims them, so queries never scan more than 2× the live set and
//! the amortized analysis of §1.2 holds.

/// Capacity of component slot `i` (`buffer_cap · 2^i`, saturating).
pub(crate) fn slot_cap(buffer_cap: usize, i: usize) -> u64 {
    let scale = u32::try_from(i).ok().and_then(|i| 1u64.checked_shl(i));
    scale.map_or(u64::MAX, |scale| (buffer_cap as u64).saturating_mul(scale))
}

/// Merge-target selection for an incoming batch of any size
/// (`sizes[i]` = items in slot `i`, 0 = empty): the smallest slot `t`
/// such that the batch plus **every occupied slot `0..=t`** (they all
/// become merge inputs) fits `t`'s capacity. Batches larger than
/// `buffer_cap` (a late-sealed memtable under write bursts) escalate as
/// many extra levels as the geometry requires.
pub(crate) fn merge_target(buffer_cap: usize, sizes: &[u64], incoming: u64) -> usize {
    let mut t = 0;
    let mut total = incoming;
    loop {
        if t < sizes.len() {
            total += sizes[t];
        }
        // Once t passes the occupied slots, total is fixed while the
        // capacity keeps doubling — the loop always terminates.
        if slot_cap(buffer_cap, t) >= total {
            return t;
        }
        t += 1;
    }
}

/// The smallest slot that can hold `n` items (placement after a global
/// rebuild).
pub(crate) fn placement_slot(buffer_cap: usize, n: u64) -> usize {
    let mut j = 0;
    while slot_cap(buffer_cap, j) < n {
        j += 1;
    }
    j
}

/// True when enough items are dead that a global rebuild is owed:
/// tombstones outnumber half of everything stored.
pub(crate) fn needs_compaction(dead: u64, stored: u64) -> bool {
    stored > 0 && dead * 2 > stored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::components::ComponentSet;
    use crate::tree::RTree;

    #[test]
    fn slot_caps_are_geometric() {
        assert_eq!(slot_cap(8, 0), 8);
        assert_eq!(slot_cap(8, 1), 16);
        assert_eq!(slot_cap(8, 5), 256);
        assert_eq!(slot_cap(8, 70), u64::MAX);
        // Large shifts saturate instead of overflowing.
        assert_eq!(slot_cap(8, 63), u64::MAX);
    }

    #[test]
    fn merge_target_escalates_for_oversized_batches() {
        // Empty structure: slot 0 unless the batch is oversized.
        assert_eq!(merge_target(8, &[], 8), 0);
        // 100 incoming into an empty structure: needs slot 4 (cap 128).
        assert_eq!(merge_target(8, &[], 100), 4);
        // 20 incoming into [8, 0, 32]: first empty is 1 (cap 16), union
        // 8+20=28 > 16 → escalate to 2, absorbing the 32 there: 60 > 32
        // → escalate to 3 (cap 64): fits.
        assert_eq!(merge_target(8, &[8, 0, 32], 20), 3);
    }

    #[test]
    fn placement_is_smallest_fitting_slot() {
        assert_eq!(placement_slot(8, 0), 0);
        assert_eq!(placement_slot(8, 8), 0);
        assert_eq!(placement_slot(8, 9), 1);
        assert_eq!(placement_slot(8, 100), 4); // 8·2^4 = 128
    }

    #[test]
    fn compaction_triggers_past_half_dead() {
        assert!(!needs_compaction(0, 0));
        assert!(!needs_compaction(5, 10));
        assert!(needs_compaction(6, 10));
        // An empty component set never triggers (nothing to rebuild).
        assert!(!needs_compaction(1, 0));
    }

    #[test]
    fn cap_is_clamped_to_one() {
        assert_eq!(ComponentSet::<RTree<2>>::new(0).buffer_cap(), 1);
    }
}
