//! The corner mapping `R ↦ R*` and its axis orderings.
//!
//! The pseudo-PR-tree treats a `D`-dimensional rectangle
//! `((lo₁..lo_D),(hi₁..hi_D))` as the `2D`-dimensional point
//! `(lo₁,…,lo_D,hi₁,…,hi_D)` — in the plane, `(xmin, ymin, xmax, ymax)`.
//! kd-style splits cycle round-robin through these `2D` axes, and each
//! internal node owns `2D` *priority leaves* holding the `B` most extreme
//! rectangles per axis: minimal `lo` coordinates on the first `D` axes,
//! maximal `hi` coordinates on the last `D`.
//!
//! All comparisons break ties by item id so that orderings are total even
//! when coordinates coincide (the paper assumes they never do).

use crate::item::Item;
use crate::rect::Rect;
use std::cmp::Ordering;

/// One of the `2D` axes of the corner mapping.
///
/// `Axis(k)` with `k < D` refers to `lo[k]` (a "min side"); `k ≥ D` refers
/// to `hi[k - D]` (a "max side"). For `D = 2` the axes are, in order:
/// `xmin, ymin, xmax, ymax` — the round-robin order of §2.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Axis(pub usize);

impl Axis {
    /// All `2D` axes in the paper's round-robin order.
    pub fn all<const D: usize>() -> impl Iterator<Item = Axis> {
        (0..2 * D).map(Axis)
    }

    /// The axis following `self` in round-robin order.
    #[inline]
    pub fn next<const D: usize>(self) -> Axis {
        Axis((self.0 + 1) % (2 * D))
    }

    /// True if this axis reads a `lo` coordinate.
    #[inline]
    pub fn is_min_side<const D: usize>(self) -> bool {
        self.0 < D
    }

    /// The underlying spatial dimension (`0..D`).
    #[inline]
    pub fn dim<const D: usize>(self) -> usize {
        if self.0 < D {
            self.0
        } else {
            self.0 - D
        }
    }

    /// The mapped coordinate of `rect` along this axis.
    #[inline]
    pub fn coord<const D: usize>(self, rect: &Rect<D>) -> f64 {
        if self.0 < D {
            rect.lo_at(self.0)
        } else {
            rect.hi_at(self.0 - D)
        }
    }
}

/// Compares two items by mapped coordinate along `axis`, ties by id.
///
/// This is the ordering used for kd-splits and for the four sorted lists of
/// the external construction algorithm.
#[inline]
pub fn cmp_items_on_axis<const D: usize>(axis: Axis, a: &Item<D>, b: &Item<D>) -> Ordering {
    axis.coord(&a.rect)
        .total_cmp(&axis.coord(&b.rect))
        .then_with(|| a.id.cmp(&b.id))
}

/// Compares two items by *extremeness* along `axis`: `Less` means "more
/// extreme", i.e. belongs in the priority leaf first.
///
/// On min-side axes the most extreme rectangle has the smallest `lo`
/// ("leftmost left edge"); on max-side axes it has the largest `hi`
/// ("rightmost right edge").
///
/// Invariant relied on by the external construction algorithms: this
/// order is *exactly* [`cmp_items_on_axis`] on min-side axes and exactly
/// its reverse (tie-breaks included) on max-side axes, so a stream sorted
/// by extremeness doubles as a (possibly reversed) coordinate-sorted
/// list.
#[inline]
pub fn cmp_extreme_on_axis<const D: usize>(axis: Axis, a: &Item<D>, b: &Item<D>) -> Ordering {
    let ord = cmp_items_on_axis(axis, a, b);
    if axis.is_min_side::<D>() {
        ord
    } else {
        ord.reverse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect;

    fn it(xmin: f64, ymin: f64, xmax: f64, ymax: f64, id: u32) -> Item<2> {
        Item::new(Rect::xyxy(xmin, ymin, xmax, ymax), id)
    }

    #[test]
    fn axis_roundrobin_order_matches_paper() {
        // §2.1: divide on xmin, then ymin, then xmax, then ymax, repeat.
        let r = Rect::xyxy(1.0, 2.0, 3.0, 4.0); // xmin, ymin, xmax, ymax
        let order: Vec<_> = Axis::all::<2>().map(|a| a.coord(&r)).collect();
        assert_eq!(order, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(Axis(3).next::<2>(), Axis(0));
        assert_eq!(Axis(0).next::<2>(), Axis(1));
    }

    #[test]
    fn axis_coord_reads_correct_corner() {
        let r = Rect::xyxy(1.0, 2.0, 3.0, 4.0);
        assert_eq!(Axis(0).coord(&r), 1.0);
        assert_eq!(Axis(1).coord(&r), 2.0);
        assert_eq!(Axis(2).coord(&r), 3.0);
        assert_eq!(Axis(3).coord(&r), 4.0);
        assert!(Axis(0).is_min_side::<2>());
        assert!(!Axis(2).is_min_side::<2>());
        assert_eq!(Axis(3).dim::<2>(), 1);
    }

    #[test]
    fn extreme_ordering_min_and_max_sides() {
        let a = it(0.0, 0.0, 1.0, 1.0, 1);
        let b = it(2.0, 0.0, 5.0, 1.0, 2);
        // xmin: a more extreme (smaller lo).
        assert_eq!(cmp_extreme_on_axis(Axis(0), &a, &b), Ordering::Less);
        // xmax: b more extreme (bigger hi).
        assert_eq!(cmp_extreme_on_axis(Axis(2), &a, &b), Ordering::Greater);
    }

    #[test]
    fn ties_break_by_id() {
        let a = it(1.0, 0.0, 2.0, 1.0, 7);
        let b = it(1.0, 9.0, 3.0, 10.0, 9);
        assert_eq!(cmp_items_on_axis(Axis(0), &a, &b), Ordering::Less);
        assert_eq!(cmp_items_on_axis(Axis(0), &b, &a), Ordering::Greater);
        assert_eq!(cmp_items_on_axis(Axis(0), &a, &a), Ordering::Equal);
        assert_eq!(cmp_extreme_on_axis(Axis(0), &a, &b), Ordering::Less);
    }

    #[test]
    fn extreme_order_is_exact_reverse_on_max_sides() {
        // Same ymax: the extremeness order on a max-side axis must be the
        // exact reverse of the ascending order, tie-breaks included.
        let a = it(0.0, 0.0, 1.0, 5.0, 1);
        let b = it(9.0, 0.0, 10.0, 5.0, 2);
        assert_eq!(
            cmp_extreme_on_axis(Axis(3), &a, &b),
            cmp_items_on_axis(Axis(3), &a, &b).reverse()
        );
        // So among equal coordinates the *larger* id is "more extreme".
        assert_eq!(cmp_extreme_on_axis(Axis(3), &a, &b), Ordering::Greater);
    }
}
