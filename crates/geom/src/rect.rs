//! `D`-dimensional axis-parallel rectangles (hyper-rectangles).

use crate::point::Point;
use std::fmt;

/// An axis-parallel `D`-dimensional rectangle `[lo, hi]`.
///
/// Rectangles are closed: a rectangle contains its boundary, and two
/// rectangles that merely touch *do* intersect. This matches the window
/// query semantics of the paper ("retrieve all rectangles that intersect
/// Q") and of Guttman's original R-tree.
///
/// Degenerate rectangles (points, segments) are allowed — the paper's
/// CLUSTER and worst-case datasets are point sets, and its TIGER inputs
/// contain bounding boxes of axis-parallel segments.
#[derive(Clone, Copy, PartialEq)]
pub struct Rect<const D: usize> {
    lo: [f64; D],
    hi: [f64; D],
}

impl<const D: usize> Rect<D> {
    /// Creates a rectangle from its lower and upper corners.
    ///
    /// # Panics
    /// Panics (debug builds only) if any `lo[i] > hi[i]` or a coordinate is
    /// non-finite.
    #[inline]
    pub fn new(lo: [f64; D], hi: [f64; D]) -> Self {
        let r = Rect { lo, hi };
        debug_assert!(r.is_valid(), "invalid rect: {r:?}");
        r
    }

    /// The degenerate rectangle covering exactly one point.
    #[inline]
    pub fn from_point(p: Point<D>) -> Self {
        Rect { lo: p.0, hi: p.0 }
    }

    /// The "empty" rectangle: the identity of [`Rect::mbr_with`]. Its `lo`
    /// is `+inf` and `hi` is `-inf`, so it intersects and contains nothing.
    pub const EMPTY: Self = Rect {
        lo: [f64::INFINITY; D],
        hi: [f64::NEG_INFINITY; D],
    };

    /// True if this is the [`Rect::EMPTY`] sentinel (or any inverted box).
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..D).any(|i| self.lo[i] > self.hi[i])
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64; D] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64; D] {
        &self.hi
    }

    /// Lower coordinate in dimension `dim`.
    #[inline]
    pub fn lo_at(&self, dim: usize) -> f64 {
        self.lo[dim]
    }

    /// Upper coordinate in dimension `dim`.
    #[inline]
    pub fn hi_at(&self, dim: usize) -> f64 {
        self.hi[dim]
    }

    /// Extent (side length) in dimension `dim`.
    #[inline]
    pub fn extent(&self, dim: usize) -> f64 {
        self.hi[dim] - self.lo[dim]
    }

    /// Center point.
    pub fn center(&self) -> Point<D> {
        let mut c = [0.0; D];
        for (ci, (l, h)) in c.iter_mut().zip(self.lo.iter().zip(&self.hi)) {
            *ci = (l + h) / 2.0;
        }
        Point(c)
    }

    /// True when corners are ordered and all coordinates finite.
    pub fn is_valid(&self) -> bool {
        (0..D).all(|i| self.lo[i] <= self.hi[i] && self.lo[i].is_finite() && self.hi[i].is_finite())
    }

    /// Closed-rectangle intersection test (touching counts).
    #[inline]
    pub fn intersects(&self, other: &Self) -> bool {
        for i in 0..D {
            if self.lo[i] > other.hi[i] || other.lo[i] > self.hi[i] {
                return false;
            }
        }
        true
    }

    /// True if `other` lies entirely inside `self` (boundary included).
    #[inline]
    pub fn contains_rect(&self, other: &Self) -> bool {
        for i in 0..D {
            if other.lo[i] < self.lo[i] || other.hi[i] > self.hi[i] {
                return false;
            }
        }
        true
    }

    /// True if the point lies inside `self` (boundary included).
    #[inline]
    pub fn contains_point(&self, p: &Point<D>) -> bool {
        for i in 0..D {
            if p.0[i] < self.lo[i] || p.0[i] > self.hi[i] {
                return false;
            }
        }
        true
    }

    /// Minimal bounding rectangle of `self` and `other`.
    ///
    /// [`Rect::EMPTY`] is the identity element, which lets callers fold a
    /// sequence of rectangles without a special first-element case.
    #[inline]
    pub fn mbr_with(&self, other: &Self) -> Self {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            lo[i] = self.lo[i].min(other.lo[i]);
            hi[i] = self.hi[i].max(other.hi[i]);
        }
        Rect { lo, hi }
    }

    /// Minimal bounding rectangle of an iterator of rectangles
    /// ([`Rect::EMPTY`] for an empty iterator).
    pub fn mbr_of<'a>(rects: impl IntoIterator<Item = &'a Rect<D>>) -> Self {
        rects
            .into_iter()
            .fold(Rect::EMPTY, |acc, r| acc.mbr_with(r))
    }

    /// `D`-dimensional volume ("area" in the paper's 2-D setting).
    /// The empty sentinel has area 0.
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..D).map(|i| self.hi[i] - self.lo[i]).product()
    }

    /// The sum of extents: the half-perimeter in 2-D.
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..D).map(|i| self.hi[i] - self.lo[i]).sum()
    }

    /// How much `self`'s area grows if enlarged to also cover `other`.
    /// This is Guttman's insertion cost.
    pub fn enlargement(&self, other: &Self) -> f64 {
        self.mbr_with(other).area() - self.area()
    }

    /// Translates the rectangle by `delta`.
    pub fn translated(&self, delta: [f64; D]) -> Self {
        let mut lo = self.lo;
        let mut hi = self.hi;
        for i in 0..D {
            lo[i] += delta[i];
            hi[i] += delta[i];
        }
        Rect::new(lo, hi)
    }

    /// Squared Euclidean distance from `p` to the closest point of the
    /// rectangle (0 if `p` is inside). The branch-and-bound pruning
    /// measure of best-first nearest-neighbor search.
    pub fn min_dist2(&self, p: &Point<D>) -> f64 {
        let mut d2 = 0.0;
        for i in 0..D {
            let c = p.0[i];
            let delta = if c < self.lo[i] {
                self.lo[i] - c
            } else if c > self.hi[i] {
                c - self.hi[i]
            } else {
                0.0
            };
            d2 += delta * delta;
        }
        d2
    }

    /// Euclidean distance from `p` to the rectangle (0 if inside).
    pub fn min_dist(&self, p: &Point<D>) -> f64 {
        self.min_dist2(p).sqrt()
    }

    /// The longest extent over all dimensions divided by the shortest;
    /// `inf` for degenerate rectangles. (The ASPECT datasets fix this.)
    pub fn aspect_ratio(&self) -> f64 {
        let mut longest = f64::NEG_INFINITY;
        let mut shortest = f64::INFINITY;
        for i in 0..D {
            let e = self.extent(i);
            longest = longest.max(e);
            shortest = shortest.min(e);
        }
        if shortest == 0.0 {
            f64::INFINITY
        } else {
            longest / shortest
        }
    }
}

impl<const D: usize> fmt::Debug for Rect<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rect[{:?} .. {:?}]", self.lo, self.hi)
    }
}

/// Convenience 2-D constructor matching the paper's
/// `((xmin, ymin), (xmax, ymax))` notation.
impl Rect<2> {
    /// Builds a 2-D rectangle from `xmin, ymin, xmax, ymax`.
    pub fn xyxy(xmin: f64, ymin: f64, xmax: f64, ymax: f64) -> Self {
        Rect::new([xmin, ymin], [xmax, ymax])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(xmin: f64, ymin: f64, xmax: f64, ymax: f64) -> Rect<2> {
        Rect::xyxy(xmin, ymin, xmax, ymax)
    }

    #[test]
    fn point_rect_is_valid_and_degenerate() {
        let p = Rect::from_point(Point::new([3.0, 4.0]));
        assert!(p.is_valid());
        assert_eq!(p.area(), 0.0);
        assert_eq!(p.center().coords(), &[3.0, 4.0]);
        assert!(p.contains_point(&Point::new([3.0, 4.0])));
    }

    #[test]
    fn intersection_basic() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn touching_rectangles_intersect() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0); // shares an edge
        assert!(a.intersects(&b));
        let c = r(1.0, 1.0, 2.0, 2.0); // shares a corner
        assert!(a.intersects(&c));
    }

    #[test]
    fn disjoint_rectangles() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.5, 0.0, 2.0, 1.0);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer), "containment is reflexive");
        assert!(outer.contains_point(&Point::new([0.0, 10.0])), "boundary");
        assert!(!outer.contains_point(&Point::new([-0.1, 5.0])));
    }

    #[test]
    fn mbr_and_empty_identity() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let e = Rect::<2>::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.mbr_with(&a), a);
        assert_eq!(a.mbr_with(&e), a);
        let b = r(2.0, -1.0, 3.0, 0.5);
        assert_eq!(a.mbr_with(&b), r(0.0, -1.0, 3.0, 1.0));
        assert_eq!(Rect::mbr_of([&a, &b]), r(0.0, -1.0, 3.0, 1.0));
        assert!(Rect::<2>::mbr_of([]).is_empty());
    }

    #[test]
    fn area_margin_enlargement() {
        let a = r(0.0, 0.0, 2.0, 3.0);
        assert_eq!(a.area(), 6.0);
        assert_eq!(a.margin(), 5.0);
        assert_eq!(Rect::<2>::EMPTY.area(), 0.0);
        assert_eq!(Rect::<2>::EMPTY.margin(), 0.0);
        let b = r(4.0, 0.0, 5.0, 1.0);
        // mbr = (0,0)-(5,3), area 15; enlargement = 15 - 6 = 9
        assert_eq!(a.enlargement(&b), 9.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn translation() {
        let a = r(0.0, 0.0, 1.0, 1.0).translated([5.0, -1.0]);
        assert_eq!(a, r(5.0, -1.0, 6.0, 0.0));
    }

    #[test]
    fn aspect_ratio_degenerate() {
        let seg = r(0.0, 0.0, 1.0, 0.0);
        assert_eq!(seg.aspect_ratio(), f64::INFINITY);
    }

    #[test]
    fn min_dist_cases() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        // Inside → 0.
        assert_eq!(a.min_dist2(&Point::new([1.0, 1.0])), 0.0);
        // On the boundary → 0.
        assert_eq!(a.min_dist2(&Point::new([2.0, 1.0])), 0.0);
        // Left of the box: pure x distance.
        assert_eq!(a.min_dist(&Point::new([-3.0, 1.0])), 3.0);
        // Diagonal corner: 3-4-5.
        assert_eq!(a.min_dist(&Point::new([5.0, 6.0])), 5.0);
    }

    #[test]
    fn three_dimensional_volume() {
        let c: Rect<3> = Rect::new([0.0, 0.0, 0.0], [2.0, 3.0, 4.0]);
        assert_eq!(c.area(), 24.0);
        assert_eq!(c.margin(), 9.0);
        assert_eq!(c.extent(2), 4.0);
    }
}
