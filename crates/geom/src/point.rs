//! `D`-dimensional points.

use std::fmt;

/// A point in `D`-dimensional space.
///
/// Points are thin wrappers around `[f64; D]`; they exist mostly as inputs
/// to [`crate::Rect`] constructors and for dataset generation.
#[derive(Clone, Copy, PartialEq)]
pub struct Point<const D: usize>(pub [f64; D]);

impl<const D: usize> Point<D> {
    /// Creates a point from its coordinate array.
    pub const fn new(coords: [f64; D]) -> Self {
        Point(coords)
    }

    /// Coordinate along dimension `dim` (panics if `dim >= D`).
    #[inline]
    pub fn coord(&self, dim: usize) -> f64 {
        self.0[dim]
    }

    /// All coordinates.
    #[inline]
    pub fn coords(&self) -> &[f64; D] {
        &self.0
    }
}

impl<const D: usize> fmt::Debug for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.0)
    }
}

impl<const D: usize> From<[f64; D]> for Point<D> {
    fn from(coords: [f64; D]) -> Self {
        Point(coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_access() {
        let p = Point::new([1.0, 2.0, 3.0]);
        assert_eq!(p.coord(0), 1.0);
        assert_eq!(p.coord(2), 3.0);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_array() {
        let p: Point<1> = [7.5].into();
        assert_eq!(p.coord(0), 7.5);
    }
}
