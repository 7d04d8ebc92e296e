//! Node split policies for dynamic insertion.
//!
//! When an insert overflows a node of capacity `B`, the `B + 1` entries
//! must be divided over two nodes. The paper (§4) notes a PR-tree "can be
//! updated using any known update heuristic"; three classics are provided:
//!
//! * [`SplitPolicy::Linear`] — Guttman's O(B) split: seed with the pair
//!   most separated (normalized) along some dimension, then assign the
//!   rest in input order to the needier side.
//! * [`SplitPolicy::Quadratic`] — Guttman's O(B²) split: seed with the
//!   pair wasting the most area together, then repeatedly assign the
//!   entry with the strongest preference.
//! * [`SplitPolicy::RStar`] — the R*-tree split: choose the split axis by
//!   minimum total margin, then the distribution with minimum overlap
//!   (ties: minimum area).

use crate::entry::Entry;
use pr_geom::Rect;

/// Which algorithm divides an overflowing node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// Guttman's linear-cost split.
    Linear,
    /// Guttman's quadratic-cost split (his recommended default).
    #[default]
    Quadratic,
    /// The R*-tree margin/overlap-driven split.
    RStar,
}

impl SplitPolicy {
    /// Splits `entries` (an overflowed node's contents) into two groups,
    /// each with at least `min_fill` entries.
    pub fn split<const D: usize>(
        &self,
        entries: Vec<Entry<D>>,
        min_fill: usize,
    ) -> (Vec<Entry<D>>, Vec<Entry<D>>) {
        debug_assert!(entries.len() >= 2);
        let min_fill = min_fill.max(1).min(entries.len() / 2);
        match self {
            SplitPolicy::Linear => linear_split(entries, min_fill),
            SplitPolicy::Quadratic => quadratic_split(entries, min_fill),
            SplitPolicy::RStar => rstar_split(entries, min_fill),
        }
    }

    /// All policies, for tests that sweep them.
    pub fn all() -> [SplitPolicy; 3] {
        [
            SplitPolicy::Linear,
            SplitPolicy::Quadratic,
            SplitPolicy::RStar,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SplitPolicy::Linear => "linear",
            SplitPolicy::Quadratic => "quadratic",
            SplitPolicy::RStar => "r*",
        }
    }
}

/// Guttman's LinearPickSeeds + distribute-in-order.
fn linear_split<const D: usize>(
    entries: Vec<Entry<D>>,
    min_fill: usize,
) -> (Vec<Entry<D>>, Vec<Entry<D>>) {
    // Pick seeds: per dimension, find the entry with the highest lo and
    // the one with the lowest hi; normalize their separation by the total
    // extent; take the dimension with the greatest normalized separation.
    let mut best: Option<(f64, usize, usize)> = None;
    for d in 0..D {
        let mut lowest_hi = 0usize;
        let mut highest_lo = 0usize;
        let mut min_lo = f64::INFINITY;
        let mut max_hi = f64::NEG_INFINITY;
        for (i, e) in entries.iter().enumerate() {
            if e.rect.hi_at(d) < entries[lowest_hi].rect.hi_at(d) {
                lowest_hi = i;
            }
            if e.rect.lo_at(d) > entries[highest_lo].rect.lo_at(d) {
                highest_lo = i;
            }
            min_lo = min_lo.min(e.rect.lo_at(d));
            max_hi = max_hi.max(e.rect.hi_at(d));
        }
        let width = (max_hi - min_lo).max(f64::MIN_POSITIVE);
        let sep = (entries[highest_lo].rect.lo_at(d) - entries[lowest_hi].rect.hi_at(d)) / width;
        if highest_lo != lowest_hi && best.as_ref().is_none_or(|b| sep > b.0) {
            best = Some((sep, lowest_hi, highest_lo));
        }
    }
    let (_, seed_a, seed_b) = best.unwrap_or((0.0, 0, 1));
    distribute_remaining(entries, seed_a, seed_b, min_fill, false)
}

/// Guttman's QuadraticPickSeeds + PickNext.
fn quadratic_split<const D: usize>(
    entries: Vec<Entry<D>>,
    min_fill: usize,
) -> (Vec<Entry<D>>, Vec<Entry<D>>) {
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
    distribute_remaining(entries, seed_a, seed_b, min_fill, true)
}

/// Assigns non-seed entries to the two groups. With `pick_next` (the
/// quadratic variant) the entry with the largest preference difference
/// goes first; otherwise input order (the linear variant).
fn distribute_remaining<const D: usize>(
    entries: Vec<Entry<D>>,
    seed_a: usize,
    seed_b: usize,
    min_fill: usize,
    pick_next: bool,
) -> (Vec<Entry<D>>, Vec<Entry<D>>) {
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

        let idx = if pick_next {
            // PickNext: maximal |d_a − d_b|.
            let mut best_idx = 0;
            let mut best_diff = f64::NEG_INFINITY;
            for (i, e) in rest.iter().enumerate() {
                let da = mbr_a.enlargement(&e.rect);
                let db = mbr_b.enlargement(&e.rect);
                let diff = (da - db).abs();
                if diff > best_diff {
                    best_diff = diff;
                    best_idx = i;
                }
            }
            best_idx
        } else {
            0
        };
        let e = rest.swap_remove(idx);
        let da = mbr_a.enlargement(&e.rect);
        let db = mbr_b.enlargement(&e.rect);
        // Prefer smaller enlargement; ties: smaller area, then fewer
        // entries (Guttman's tie-breaking).
        let to_a = match da.partial_cmp(&db).expect("finite enlargements") {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => match mbr_a.area().partial_cmp(&mbr_b.area()).unwrap() {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => group_a.len() <= group_b.len(),
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

/// R*-tree split: axis by minimum margin sum, distribution by minimum
/// overlap (ties: minimum area sum).
fn rstar_split<const D: usize>(
    entries: Vec<Entry<D>>,
    min_fill: usize,
) -> (Vec<Entry<D>>, Vec<Entry<D>>) {
    let n = entries.len();
    let k_max = n - min_fill;

    let mut best_axis = 0usize;
    let mut best_axis_margin = f64::INFINITY;
    let mut best_axis_order: Vec<Entry<D>> = Vec::new();

    for d in 0..D {
        // R* considers sorts by lo and by hi; evaluate both, keep the
        // better margin sum for this axis.
        for by_hi in [false, true] {
            let mut sorted = entries.clone();
            sorted.sort_unstable_by(|a, b| {
                let (ka, kb) = if by_hi {
                    (a.rect.hi_at(d), b.rect.hi_at(d))
                } else {
                    (a.rect.lo_at(d), b.rect.lo_at(d))
                };
                ka.total_cmp(&kb).then_with(|| a.ptr.cmp(&b.ptr))
            });
            let (prefix, suffix) = prefix_suffix_mbrs(&sorted);
            let mut margin_sum = 0.0;
            for k in min_fill..=k_max {
                margin_sum += prefix[k - 1].margin() + suffix[k].margin();
            }
            if margin_sum < best_axis_margin {
                best_axis_margin = margin_sum;
                best_axis = d;
                best_axis_order = sorted;
            }
        }
    }
    let _ = best_axis;

    // Choose the distribution on the winning ordering.
    let sorted = best_axis_order;
    let (prefix, suffix) = prefix_suffix_mbrs(&sorted);
    let mut best_k = min_fill;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for k in min_fill..=k_max {
        let overlap = prefix[k - 1].overlap_area(&suffix[k]);
        let area = prefix[k - 1].area() + suffix[k].area();
        if (overlap, area) < best_key {
            best_key = (overlap, area);
            best_k = k;
        }
    }
    let mut left = sorted;
    let right = left.split_off(best_k);
    (left, right)
}

fn prefix_suffix_mbrs<const D: usize>(sorted: &[Entry<D>]) -> (Vec<Rect<D>>, Vec<Rect<D>>) {
    let n = sorted.len();
    let mut prefix = Vec::with_capacity(n);
    let mut acc = Rect::EMPTY;
    for e in sorted {
        acc = acc.mbr_with(&e.rect);
        prefix.push(acc);
    }
    let mut suffix = vec![Rect::EMPTY; n];
    let mut acc = Rect::EMPTY;
    for (i, e) in sorted.iter().enumerate().rev() {
        acc = acc.mbr_with(&e.rect);
        suffix[i] = acc;
    }
    (prefix, suffix)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(x: f64, y: f64, id: u32) -> Entry<2> {
        Entry::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), id)
    }

    fn check_split(policy: SplitPolicy, entries: Vec<Entry<2>>, min_fill: usize) {
        let n = entries.len();
        let mut ids: Vec<u32> = entries.iter().map(|e| e.ptr).collect();
        ids.sort_unstable();
        let (a, b) = policy.split(entries, min_fill);
        assert!(a.len() >= min_fill.min(n / 2), "{policy:?}: left too small");
        assert!(
            b.len() >= min_fill.min(n / 2),
            "{policy:?}: right too small"
        );
        assert_eq!(a.len() + b.len(), n);
        let mut got: Vec<u32> = a.iter().chain(&b).map(|e| e.ptr).collect();
        got.sort_unstable();
        assert_eq!(got, ids, "{policy:?}: entries lost or duplicated");
    }

    #[test]
    fn all_policies_preserve_entries_and_min_fill() {
        for policy in SplitPolicy::all() {
            // Two obvious clusters.
            let mut entries = Vec::new();
            for i in 0..5 {
                entries.push(entry(i as f64 * 0.1, 0.0, i));
            }
            for i in 5..11 {
                entries.push(entry(100.0 + i as f64 * 0.1, 50.0, i));
            }
            check_split(policy, entries, 4);
        }
    }

    #[test]
    fn clusters_are_separated() {
        for policy in SplitPolicy::all() {
            let mut entries = Vec::new();
            for i in 0..6 {
                entries.push(entry(i as f64 * 0.01, 0.0, i));
            }
            for i in 6..12 {
                entries.push(entry(1000.0, i as f64 * 0.01, i));
            }
            let (a, b) = policy.split(entries, 3);
            let cluster_of = |e: &Entry<2>| u32::from(e.rect.lo_at(0) > 500.0);
            let ca: Vec<u32> = a.iter().map(cluster_of).collect();
            let cb: Vec<u32> = b.iter().map(cluster_of).collect();
            assert!(
                ca.iter().all(|&c| c == ca[0]) && cb.iter().all(|&c| c == cb[0]),
                "{policy:?} mixed two well-separated clusters: {ca:?} | {cb:?}"
            );
            assert_ne!(ca[0], cb[0]);
        }
    }

    #[test]
    fn degenerate_identical_rectangles() {
        for policy in SplitPolicy::all() {
            let entries: Vec<Entry<2>> = (0..8).map(|i| entry(5.0, 5.0, i)).collect();
            check_split(policy, entries, 3);
        }
    }

    #[test]
    fn minimal_input_two_entries() {
        for policy in SplitPolicy::all() {
            let entries = vec![entry(0.0, 0.0, 0), entry(10.0, 10.0, 1)];
            let (a, b) = policy.split(entries, 1);
            assert_eq!(a.len(), 1);
            assert_eq!(b.len(), 1);
        }
    }

    #[test]
    fn rstar_minimizes_overlap_on_grid() {
        // 4×4 grid of unit squares: the R* split along a grid line has
        // zero overlap.
        let mut entries = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                entries.push(Entry::new(
                    Rect::xyxy(
                        i as f64 * 2.0,
                        j as f64 * 2.0,
                        i as f64 * 2.0 + 1.0,
                        j as f64 * 2.0 + 1.0,
                    ),
                    (i * 4 + j) as u32,
                ));
            }
        }
        let (a, b) = SplitPolicy::RStar.split(entries, 4);
        let mbr_a = Entry::mbr(&a);
        let mbr_b = Entry::mbr(&b);
        assert_eq!(mbr_a.overlap_area(&mbr_b), 0.0);
    }

    #[test]
    fn policy_names() {
        assert_eq!(SplitPolicy::Linear.name(), "linear");
        assert_eq!(SplitPolicy::Quadratic.name(), "quadratic");
        assert_eq!(SplitPolicy::RStar.name(), "r*");
        assert_eq!(SplitPolicy::default(), SplitPolicy::Quadratic);
    }
}
