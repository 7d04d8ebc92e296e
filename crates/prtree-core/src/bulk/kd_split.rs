//! The in-place pseudo-PR-tree grouping kernel.
//!
//! Every PR-tree stage (the in-memory loader's and the external
//! loader's in-memory base case) and the standalone
//! [`crate::pseudo::PseudoPrTree`] group entries with the two steps of
//! §2.1, and all of them run this module's code:
//!
//! 1. **priority leaves** — the `k` most extreme entries along each of
//!    the `2D` mapped axes in turn (leftmost left edges, bottommost
//!    bottom edges, rightmost right edges, topmost top edges),
//! 2. **median split** — the remainder divided at the median of the
//!    round-robin kd axis, snapped to a multiple of the node capacity so
//!    almost every leaf comes out full (the ">99% space utilization"
//!    trick at the end of §2.1; see `split_point`).
//!
//! # The in-place contract
//!
//! The kernel owns no entries: it permutes **one buffer**,
//! `&mut [Entry<D>]`, and a kd node is a *range* of it. A
//! `select_nth_unstable_by(k − 1, extreme)` over the node's range makes
//! the next priority leaf the range's prefix; the start moves past it
//! and the next axis repeats. A `select_nth_unstable_by(mid, kd order)`
//! over what is left makes the children `[start, start + mid)` and
//! `[start + mid, end)`. Nothing outside a node's range is touched, so a
//! finished leaf keeps its place and entry order. Leaves are reported
//! as `Range<usize>` into the buffer — the structure is a permutation
//! of its input, as in De & Nandy's in-place priority search tree.
//!
//! **Emission order** (`leaf_ranges`): a node's priority leaves in axis
//! order, then its *right* subtree, then its left. Pages are written in
//! that order and page ids break coordinate ties one stage up, so the
//! order is part of the output.
//!
//! **Forks** (`subtree_leaves`). A node's two kd children are disjoint
//! ranges, so a node of at least `FORK_MIN` entries hands its left
//! subtree to a scoped thread and groups its right one itself, at most
//! ⌈log₂ cores⌉ levels deep. The parent splices the leaf lists in
//! emission order — its priority leaves, the right subtree's, the
//! left's — and every selection sees exactly the slice the serial loop
//! gives it, so the output bytes do not depend on the core count
//! (`fork_depth_moves_nothing_*` below runs depths 0, 1 and 3 on any
//! host). If the OS refuses the thread, the node's children go back on
//! the serial loop's stack. `FORK_MIN` is where a thread starts to pay.
//! On a 2-core Xeon, grouping uniform boxes at capacity 113 with one
//! fork ran, as the median of each run's paired serial / forked times
//! over six runs, 1.03 × the serial loop at 4 096 entries (0.90–1.13
//! across runs), 1.27 × at 8 192, 1.45 × at 16 384 and 1.61 × at
//! 65 536. The serial loop took ≈ 0.86 ms at 8 192; with the per-call
//! comparators it replaced (below) it took ≈ 1.41 ms and the fork ran
//! 1.14 ×, 1.39 ×, 1.52 × and 1.66 ×. A cheaper serial kernel leaves a
//! thread less to win, but not less than its cost at 8 192, so
//! `FORK_MIN` stays there. `static_hot`'s 500 k-rectangle build ran
//! 1.44 × with the fork (median of 10 interleaved prbench pairs).
//!
//! **Why the output bytes cannot change.** The recursion this replaced
//! selected on a `Vec` per node and cut it at `k`. A selection sees only
//! the slice it is given, so selecting over the sub-range and taking the
//! prefix is the same permutation: leaves, entry order and leaf order
//! are what they were (`tests/build_golden.rs` pins hashes from the old
//! code). What changed is memory: the cut left each 113-entry priority
//! leaf holding its whole node's allocation until the level was written,
//! and copied the node's set `2D + 1` times — over the kd-tree
//! ≈ `2D · N · depth` entries of 40 B, 33 × the input for 200 000
//! rectangles (`tests/build_alloc.rs`). The kernel allocates one `Range`
//! per leaf and, per thread, a stack of at most `depth + 1` ranges.
//!
//! The comparators follow the same argument. Each selection binds one
//! closure (`with_cmp!`) for the order of
//! [`pr_geom::mapped::cmp_extreme_on_axis`] (priority leaves) or
//! [`pr_geom::mapped::cmp_items_on_axis`] (kd splits): `f64::total_cmp`
//! on one mapped coordinate, then the id, with `b` compared against `a`
//! on a max side's extreme order. These are the same total orders, so
//! every comparison answers as the reference would, and
//! `select_nth_unstable_by`, whose swaps depend only on those answers,
//! makes the same swaps (`comparators_match_the_reference_*` below
//! checks every axis and both orders, on signed zeros, NaNs of either
//! sign, infinities, subnormals and tied ids). What changed is the cost
//! of the ≈ 10⁸ comparisons of a 500 k build: the reference functions
//! decide the axis's side, chain `then_with` and perhaps reverse on
//! every call; here the side is decided once per selection and a
//! comparison is one `u128` compare of packed keys. On a 2-core host
//! that ran prbench `static_hot`'s `build_items_per_s` 1.46 × the
//! per-call comparators (10 interleaved 30 s pairs; 1.49 × in 6 pairs
//! of 10 s runs). Two variants, in the same 10 s runs, show where the
//! gain is. The same per-selection closures comparing
//! `total_cmp(..).then_with(id)` measured within a few % of it. Packed
//! keys inside the reference functions, with the side still decided per
//! call, were no faster than before. The gain is the hoist, not the key.

use crate::entry::Entry;
use pr_em::SortOrder;
use pr_geom::Axis;
use std::cmp::Ordering;
use std::ops::Range;
use std::thread;

/// The node sizes of one stage's pseudo-PR-tree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeShape {
    /// Most entries in a node: a set this small is one kd leaf.
    pub cap: usize,
    /// Entries per priority leaf (`1 ..= cap`).
    pub prio: usize,
    /// Snap kd splits to multiples of this (the node capacity); `None`
    /// splits at the exact median of the paper's structural definition.
    pub snap: Option<usize>,
}

/// How many of `n ≥ 2` entries a kd split sends left.
///
/// With `snap_to = Some(cap)` the median `n / 2` is moved to the nearest
/// multiple of `cap` so that fully-packed leaves fall out of the
/// recursion. Both sides are always non-empty, and each receives at most
/// `half + cap` entries, preserving the kd-tree analysis of Lemma 2.
pub(crate) fn split_point(n: usize, snap_to: Option<usize>) -> usize {
    debug_assert!(n >= 2, "cannot split fewer than two entries");
    let mut mid = n / 2;
    if let Some(cap) = snap_to {
        if cap > 0 && n > cap {
            // Nearest multiple of cap; never 0 and never ≥ n (mid + cap/2
            // < n because cap < n), so both sides stay non-empty.
            let mut snapped = ((mid + cap / 2) / cap) * cap;
            if snapped == 0 {
                snapped = cap;
            }
            mid = snapped.min(n - 1);
        }
    }
    mid.clamp(1, n - 1)
}

/// The two orders a selection runs along a mapped axis.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Order {
    /// Most extreme first ([`pr_geom::mapped::cmp_extreme_on_axis`]):
    /// priority leaves.
    Extreme,
    /// Ascending mapped coordinate ([`pr_geom::mapped::cmp_items_on_axis`]):
    /// kd splits.
    Kd,
}

/// `c`'s rank under `f64::total_cmp`, above `id`: comparing two keys is
/// `c.total_cmp(..).then_with(|| id.cmp(..))` in one integer compare.
/// A negative `c` has every bit flipped (larger magnitudes rank lower),
/// a positive one only its sign bit (it ranks above every negative).
#[inline]
fn key(c: f64, id: u32) -> u128 {
    let bits = c.to_bits();
    let rank = bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63);
    (rank as u128) << 32 | id as u128
}

/// Every corner of `e`'s rectangle as [`key`] ranks, low corner first:
/// the tie-break of the external loaders' orders, under which only
/// identical entries compare equal.
pub(crate) fn corner_ranks<const D: usize>(e: &Entry<D>) -> [[u128; D]; 2] {
    [e.rect.lo(), e.rect.hi()].map(|c| c.map(|c| key(c, 0)))
}

/// Evaluates `$body` with `$cmp` bound to the comparator of `$order`
/// along `$axis` for `Entry<$d>`, the order [`Order`] names. The axis's
/// side is matched once, here, not in every comparison: each arm binds
/// its own closure, which reads one coordinate column at a fixed
/// dimension and compares one [`key`], so `$body` is compiled once per
/// arm around an inlined compare. A max-side extreme order compares `b`
/// against `a`; a kd order is always ascending.
macro_rules! with_cmp {
    ($d:ident, $axis:expr, $order:expr, |$cmp:ident| $body:expr) => {{
        let (axis, order): (Axis, Order) = ($axis, $order);
        let dim = axis.dim::<$d>();
        let lo = move |e: &Entry<$d>| key(e.rect.lo_at(dim), e.ptr);
        let hi = move |e: &Entry<$d>| key(e.rect.hi_at(dim), e.ptr);
        match (axis.is_min_side::<$d>(), order) {
            (true, _) => {
                let $cmp = |a: &Entry<$d>, b: &Entry<$d>| lo(a).cmp(&lo(b));
                $body
            }
            (false, Order::Kd) => {
                let $cmp = |a: &Entry<$d>, b: &Entry<$d>| hi(a).cmp(&hi(b));
                $body
            }
            (false, Order::Extreme) => {
                let $cmp = |a: &Entry<$d>, b: &Entry<$d>| hi(b).cmp(&hi(a));
                $body
            }
        }
    }};
}

/// [`Order`] along a mapped axis as an external sort's order: the
/// external loaders' sorted lists. A memory load is sorted in place,
/// unstably, with the closure `with_cmp!` binds for the axis's side, so
/// run formation needs no scratch and decides the side once per load.
///
/// The order is the reference's `(total_cmp rank, id)`, and where that
/// ties (equal coordinate and equal id, so only with repeated ids) the
/// corners' ranks, reversed with the rest on a max side's extreme
/// order. Only identical entries tie, so identical entries are adjacent
/// in every sorted list, and for distinct ids the runs are the ones a
/// stable sort under the reference forms.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AxisOrder(pub Axis, pub Order);

impl AxisOrder {
    /// Orders entries the reference order ties: by every corner's rank.
    fn tie<const D: usize>(self, a: &Entry<D>, b: &Entry<D>) -> Ordering {
        match (self.0.is_min_side::<D>(), self.1) {
            (false, Order::Extreme) => corner_ranks(b).cmp(&corner_ranks(a)),
            _ => corner_ranks(a).cmp(&corner_ranks(b)),
        }
    }
}

impl<const D: usize> SortOrder<Entry<D>> for AxisOrder {
    fn cmp(&mut self, a: &Entry<D>, b: &Entry<D>) -> Ordering {
        with_cmp!(D, self.0, self.1, |cmp| cmp(a, b)).then_with(|| self.tie(a, b))
    }

    fn sort(&mut self, load: &mut [Entry<D>]) {
        let order = *self;
        with_cmp!(D, self.0, self.1, |cmp| {
            load.sort_unstable_by(cmp);
            // What the reference order ties is adjacent now; only with
            // repeated ids is a run longer than one.
            for run in load.chunk_by_mut(|a, b| cmp(a, b) == Ordering::Equal) {
                if run.len() > 1 {
                    run.sort_unstable_by(|a, b| order.tie(a, b));
                }
            }
        })
    }
}

/// One pseudo-PR-tree node over `s[range]`, kd axis `axis`.
///
/// Permutes `s[range]` so that the node's leaves — up to `2D` priority
/// leaves in the paper's xmin, ymin, …, xmax, ymax order, then the kd
/// leaf if at most `shape.cap` entries remain — are consecutive
/// sub-ranges, which are appended to `leaves`. Returns the ranges of the
/// left and right kd children if more than `shape.cap` entries remain
/// (they split on `axis.next()`), else `None`.
pub(crate) fn split_node<const D: usize>(
    s: &mut [Entry<D>],
    range: Range<usize>,
    axis: Axis,
    shape: NodeShape,
    leaves: &mut Vec<Range<usize>>,
) -> Option<[Range<usize>; 2]> {
    let Range { mut start, end } = range;
    if end - start > shape.cap {
        for extreme in Axis::all::<D>() {
            let k = shape.prio.min(end - start);
            if k == 0 {
                break;
            }
            if k < end - start {
                with_cmp!(D, extreme, Order::Extreme, |cmp| {
                    s[start..end].select_nth_unstable_by(k - 1, cmp);
                });
            }
            leaves.push(start..start + k);
            start += k;
        }
    }
    let n = end - start;
    if n <= shape.cap {
        if n > 0 {
            leaves.push(start..end);
        }
        return None;
    }
    let mid = start + split_point(n, shape.snap);
    with_cmp!(D, axis, Order::Kd, |cmp| {
        s[start..end].select_nth_unstable_by(mid - start, cmp);
    });
    Some([start..mid, mid..end])
}

/// Nodes with fewer entries than this are grouped by the thread that
/// reached them (see the module docs for the measurement).
const FORK_MIN: usize = 8_192;

/// The leaves of the pseudo-PR-tree over `s` whose root splits on
/// `start_axis`, as ranges of the permuted `s` in emission order (see the
/// module docs). The external construction resumes in memory at an
/// arbitrary recursion depth, hence the axis.
pub(crate) fn leaf_ranges<const D: usize>(
    s: &mut [Entry<D>],
    start_axis: Axis,
    shape: NodeShape,
) -> Vec<Range<usize>> {
    // ⌈log₂ cores⌉ fork levels, about one thread per core; 0 on one core.
    // Below `FORK_MIN` nothing can fork, so the core count is not asked
    // for: on Linux that reads procfs and cgroup files (≈ 20 µs), and the
    // logarithmic method's many small merges would pay it on every stage.
    let forks = if s.len() < FORK_MIN {
        0
    } else {
        thread::available_parallelism()
            .map_or(0, |cores| cores.get().next_power_of_two().trailing_zeros())
    };
    let mut leaves = Vec::with_capacity(s.len() / shape.cap.max(1) + 1);
    subtree_leaves(s, 0, start_axis, shape, forks, &mut leaves);
    leaves
}

/// Appends the leaves of the kd subtree over `s`, which starts at buffer
/// offset `base`, to `leaves` in emission order. A node of at least
/// [`FORK_MIN`] entries with `forks` left hands its left subtree to a
/// scoped thread and groups its right one itself; the left's leaves are
/// spliced in after the right's.
fn subtree_leaves<const D: usize>(
    s: &mut [Entry<D>],
    base: usize,
    axis: Axis,
    shape: NodeShape,
    forks: u32,
    leaves: &mut Vec<Range<usize>>,
) {
    let mut stack = vec![(0..s.len(), axis)];
    while let Some((range, axis)) = stack.pop() {
        let (first, len) = (leaves.len(), range.len());
        let kids = split_node(s, range, axis, shape, leaves);
        for leaf in &mut leaves[first..] {
            *leaf = base + leaf.start..base + leaf.end;
        }
        let Some([left, right]) = kids else { continue };
        let next = axis.next::<D>();
        let forked = forks > 0 && len >= FORK_MIN && {
            let (ls, rs) = s[left.start..right.end].split_at_mut(left.len());
            let (left_base, right_base) = (base + left.start, base + right.start);
            thread::scope(|scope| {
                // The OS may refuse a thread (a process or cgroup limit);
                // the serial loop below then groups both children.
                let Ok(left_leaves) = thread::Builder::new().spawn_scoped(scope, move || {
                    let mut own = Vec::with_capacity(ls.len() / shape.cap.max(1) + 1);
                    subtree_leaves(ls, left_base, next, shape, forks - 1, &mut own);
                    own
                }) else {
                    return false;
                };
                subtree_leaves(rs, right_base, next, shape, forks - 1, leaves);
                let mut left_leaves = left_leaves
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                leaves.append(&mut left_leaves);
                true
            })
        };
        if !forked {
            stack.extend([(left, next), (right, next)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_geom::Rect;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn entry(xmin: f64, ymin: f64, xmax: f64, ymax: f64, id: u32) -> Entry<2> {
        Entry::new(Rect::xyxy(xmin, ymin, xmax, ymax), id)
    }

    fn row(n: usize) -> Vec<Entry<2>> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                entry(f, 0.0, f + 0.5, 1.0, i as u32)
            })
            .collect()
    }

    fn shape(cap: usize, prio: usize) -> NodeShape {
        NodeShape {
            cap,
            prio,
            snap: Some(cap),
        }
    }

    fn sorted_ids(s: &[Entry<2>]) -> Vec<u32> {
        let mut ids: Vec<_> = s.iter().map(|e| e.ptr).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn split_point_exact_and_snapped() {
        assert_eq!(split_point(10, None), 5);
        // 10 entries, cap 4: exact mid = 5, snapped to 4.
        assert_eq!(split_point(10, Some(4)), 4);
        // 9 entries: mid = 4 is already a multiple.
        assert_eq!(split_point(9, Some(4)), 4);
        // 6 entries: mid = 3 → snapped to 4, right side non-empty.
        assert_eq!(split_point(6, Some(4)), 4);
        // n ≤ cap: nothing to snap to.
        assert_eq!(split_point(4, Some(4)), 2);
        assert_eq!(split_point(3, Some(7)), 1);
    }

    #[test]
    fn split_point_both_sides_nonempty() {
        for n in 2..40 {
            for snap in [None, Some(1usize), Some(2), Some(3), Some(4), Some(7)] {
                let mid = split_point(n, snap);
                assert!(mid >= 1 && mid < n, "n={n} snap={snap:?}");
            }
        }
    }

    #[test]
    fn priority_leaves_are_prefixes_in_axis_order() {
        let mut s = row(40);
        let mut leaves = Vec::new();
        let kids = split_node(&mut s, 0..40, Axis(0), shape(4, 3), &mut leaves);
        assert_eq!(leaves, [0..3, 3..6, 6..9, 9..12]);
        // xmin: smallest lo. ymin ties everywhere → smallest remaining ids.
        assert_eq!(sorted_ids(&s[0..3]), [0, 1, 2]);
        assert_eq!(sorted_ids(&s[3..6]), [3, 4, 5]);
        // xmax: largest hi. ymax ties → exact reverse, largest ids left.
        assert_eq!(sorted_ids(&s[6..9]), [37, 38, 39]);
        assert_eq!(sorted_ids(&s[9..12]), [34, 35, 36]);
        // 28 remain, cap 4: mid = 14 snaps to 16; all left xmin < all right.
        let [left, right] = kids.unwrap();
        assert_eq!((left.clone(), right.clone()), (12..28, 28..40));
        let lmax = s[left].iter().map(|e| e.ptr).max().unwrap();
        let rmin = s[right].iter().map(|e| e.ptr).min().unwrap();
        assert!(lmax < rmin);
    }

    #[test]
    fn node_touches_only_its_range() {
        let mut s = row(30);
        s.reverse();
        let before = s.clone();
        let mut leaves = Vec::new();
        split_node(&mut s, 5..25, Axis(1), shape(4, 4), &mut leaves);
        assert_eq!(s[..5], before[..5]);
        assert_eq!(s[25..], before[25..]);
        assert_eq!(sorted_ids(&s[5..25]), sorted_ids(&before[5..25]));
        assert_eq!(leaves, [5..9, 9..13, 13..17, 17..21, 21..25]);
    }

    #[test]
    fn small_sets_are_single_leaves() {
        let mut s = row(6);
        let mut leaves = Vec::new();
        assert!(split_node(&mut s, 0..6, Axis(0), shape(8, 8), &mut leaves).is_none());
        assert!(split_node(&mut s, 2..2, Axis(0), shape(8, 8), &mut leaves).is_none());
        assert_eq!(leaves, vec![Range { start: 0, end: 6 }]);
        // 4 + 2: the second priority leaf is partial, then nothing is left.
        leaves.clear();
        assert!(split_node(&mut s, 0..6, Axis(0), shape(4, 4), &mut leaves).is_none());
        assert_eq!(leaves, [0..4, 4..6]);
    }

    #[test]
    fn ties_broken_by_id_deterministically() {
        // All rectangles identical: extraction must still be deterministic
        // (by id) so external and in-memory builds agree.
        let mut s: Vec<Entry<2>> = (0..20).map(|i| entry(0.0, 0.0, 1.0, 1.0, i)).collect();
        let mut leaves = Vec::new();
        split_node(&mut s, 0..20, Axis(0), shape(3, 3), &mut leaves);
        assert_eq!(sorted_ids(&s[0..3]), [0, 1, 2]);
        assert_eq!(sorted_ids(&s[3..6]), [3, 4, 5]);
        // Max sides: ties resolve to the largest id (exact reverse of the
        // ascending order).
        assert_eq!(sorted_ids(&s[6..9]), [17, 18, 19]);
        assert_eq!(sorted_ids(&s[9..12]), [14, 15, 16]);
    }

    #[test]
    fn leaf_ranges_tile_the_buffer_right_subtree_first() {
        let mut s = row(200);
        let before = sorted_ids(&s);
        let leaves = leaf_ranges(&mut s, Axis(0), shape(8, 8));
        assert_eq!(sorted_ids(&s), before);
        assert!(leaves.iter().all(|r| !r.is_empty() && r.len() <= 8));
        let mut by_start = leaves.clone();
        by_start.sort_by_key(|r| r.start);
        assert_eq!(by_start[0].start, 0);
        assert_eq!(by_start.last().unwrap().end, 200);
        assert!(by_start.windows(2).all(|w| w[0].end == w[1].start));
        // Root: four priority leaves, 168 remain → 88 left, 80 right; the
        // right child's leaves come next.
        assert_eq!(leaves[..4], [0..8, 8..16, 16..24, 24..32]);
        assert_eq!(leaves[4], 120..128);
    }

    /// Seeded boxes on a 64-step lattice: every axis ties heavily, so
    /// the id tie-break orders much of each selection.
    fn lattice<const D: usize>(n: usize) -> Vec<Entry<D>> {
        let mut rng = SmallRng::seed_from_u64(D as u64);
        (0..n as u32)
            .map(|id| {
                let lo: [f64; D] = std::array::from_fn(|_| rng.gen_range(0..64) as f64);
                let hi = lo.map(|c| c + rng.gen_range(0..4) as f64);
                Entry::new(Rect::new(lo, hi), id)
            })
            .collect()
    }

    /// Fork depths 0, 1 and 3 — one thread, two, eight — give the same
    /// permutation and the same leaf list, whatever the host's cores.
    fn fork_depth_moves_nothing<const D: usize>() {
        let input = lattice::<D>(9 * FORK_MIN);
        let run = |forks| {
            let (mut s, mut leaves) = (input.clone(), Vec::new());
            subtree_leaves(&mut s, 0, Axis(0), shape(16, 16), forks, &mut leaves);
            (s, leaves)
        };
        let (serial, serial_leaves) = run(0);
        for forks in [1, 3] {
            let (s, leaves) = run(forks);
            assert!(
                leaves == serial_leaves,
                "D = {D}, forks {forks}: leaf ranges moved"
            );
            assert!(s == serial, "D = {D}, forks {forks}: entries moved");
        }
    }

    #[test]
    fn fork_depth_moves_nothing_2d() {
        fork_depth_moves_nothing::<2>();
    }

    #[test]
    fn fork_depth_moves_nothing_3d() {
        fork_depth_moves_nothing::<3>();
    }

    /// Finite coordinates a careless compare or key gets wrong: both
    /// zeros, subnormals of either sign, the finite extremes.
    const FINITE: [f64; 9] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 4.0,
        f64::MIN_POSITIVE,
        1.0,
        -1.0,
        f64::MAX,
        f64::MIN,
    ];

    /// Non-finite ones: both infinities, quiet and signalling NaNs with
    /// either sign bit, one with a payload.
    const NON_FINITE: [f64; 6] = [
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff8_0000_dead_beef),
    ];

    /// Every selection comparator `with_cmp!` binds — every axis, both
    /// orders — answers exactly what the reference orders answer, on
    /// every ordered pair of a set with ties in coordinates and in ids.
    fn comparators_match_the_reference<const D: usize>() {
        use pr_geom::mapped::{cmp_extreme_on_axis, cmp_items_on_axis};
        use pr_geom::{Item, Point};
        use std::cmp::Ordering;

        let mut rng = SmallRng::seed_from_u64(40 + D as u64);
        let all: Vec<f64> = FINITE.iter().chain(&NON_FINITE).copied().collect();
        let mut s = Vec::new();
        // `Rect::new` takes finite, ordered corners only: non-finite
        // values go in as points, whose `lo` is their `hi`. Ids 0..3 make
        // equal coordinates meet both equal and different ids.
        for _ in 0..120 {
            let c = std::array::from_fn(|_| all[rng.gen_range(0..all.len())]);
            s.push(Entry::new(Rect::from_point(Point(c)), rng.gen_range(0..3)));
        }
        for _ in 0..80 {
            let (mut lo, mut hi) = ([0.0; D], [0.0; D]);
            for d in 0..D {
                let a = FINITE[rng.gen_range(0..FINITE.len())];
                let b = FINITE[rng.gen_range(0..FINITE.len())];
                (lo[d], hi[d]) = if b < a { (b, a) } else { (a, b) };
            }
            s.push(Entry::new(Rect::new(lo, hi), rng.gen_range(0..3)));
        }
        for _ in 0..100 {
            let lo: [f64; D] = std::array::from_fn(|_| rng.gen_range(-1.0..1.0));
            let hi = lo.map(|c| c + rng.gen_range(0.0..1.0));
            s.push(Entry::new(Rect::new(lo, hi), rng.gen()));
        }
        // The same entries with distinct ids, dealt out of order so the
        // id tie-break disagrees with every corner: what the external
        // lists' `AxisOrder` must sort exactly as the reference does.
        let mut distinct = s.clone();
        let mut ids: Vec<u32> = (0..distinct.len() as u32).collect();
        ids.sort_by_key(|&id| id.wrapping_mul(0x9e37_79b9));
        for (e, id) in distinct.iter_mut().zip(ids) {
            e.ptr = id;
        }
        type Reference<const D: usize> = fn(Axis, &Item<D>, &Item<D>) -> Ordering;
        for axis in Axis::all::<D>() {
            let orders: [(Order, Reference<D>); 2] = [
                (Order::Extreme, cmp_extreme_on_axis::<D>),
                (Order::Kd, cmp_items_on_axis::<D>),
            ];
            for (order, reference) in orders {
                with_cmp!(D, axis, order, |cmp| {
                    for a in &s {
                        for b in &s {
                            let want = reference(axis, &a.to_item(), &b.to_item());
                            assert!(
                                cmp(a, b) == want,
                                "D = {D}, {axis:?} {order:?}: {a:?} vs {b:?}, want {want:?}"
                            );
                        }
                    }
                });
                let mut want = distinct.clone();
                want.sort_by(|a, b| reference(axis, &a.to_item(), &b.to_item()));
                let mut got = distinct.clone();
                AxisOrder(axis, order).sort(&mut got);
                let ids = |v: &[Entry<D>]| v.iter().map(|e| e.ptr).collect::<Vec<_>>();
                assert!(
                    ids(&got) == ids(&want),
                    "D = {D}, {axis:?} {order:?}: AxisOrder sorts unlike the reference"
                );
                for a in &distinct {
                    for b in &distinct {
                        let want = reference(axis, &a.to_item(), &b.to_item());
                        assert!(
                            AxisOrder(axis, order).cmp(a, b) == want,
                            "D = {D}, {axis:?} {order:?}: AxisOrder {a:?} vs {b:?}, want {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn comparators_match_the_reference_2d() {
        comparators_match_the_reference::<2>();
    }

    #[test]
    fn comparators_match_the_reference_3d() {
        comparators_match_the_reference::<3>();
    }
}
