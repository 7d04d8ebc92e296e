//! SoA batch predicate kernels for the decode-free query engine.
//!
//! A node of `n` rectangles is handed to these kernels as `2·D`
//! structure-of-arrays coordinate columns — `lo[d][..n]` and `hi[d][..n]`
//! — instead of `n` [`Rect`] structs. Each kernel is a dimension-major,
//! branch-free loop: one pass per dimension over a contiguous `f64`
//! column, combining into a byte mask (or distance accumulator) with
//! `&`/`max` instead of `if`/early-`return`. That shape is what lets the
//! compiler auto-vectorize the per-node scan, which dominates query CPU
//! once the paper's fanout (113 entries per 4KB node) is fixed and all
//! internal nodes are cached.
//!
//! Every kernel has a scalar reference twin (`*_scalar`, in
//! `tests/batch_props.rs`) that calls the corresponding [`Rect`]
//! predicate per element. The property tests there prove the vector
//! forms **bit-identical** to the scalar geometry — same booleans, same
//! `f64` bits for distances — which is what allows the query engine to
//! swap them in without perturbing results, tie-breaks, or I/O
//! accounting.

use crate::point::Point;
use crate::rect::Rect;

/// Gathers element `i` of the coordinate columns back into a [`Rect`]
/// (the scalar twins and [`crate::Rect`]-consuming callers use this).
#[inline]
pub fn gather_rect<const D: usize>(lo: &[&[f64]; D], hi: &[&[f64]; D], i: usize) -> Rect<D> {
    Rect::new(
        std::array::from_fn(|d| lo[d][i]),
        std::array::from_fn(|d| hi[d][i]),
    )
}

#[inline]
fn check_columns<const D: usize>(lo: &[&[f64]; D], hi: &[&[f64]; D], n: usize) {
    for d in 0..D {
        debug_assert_eq!(lo[d].len(), n, "lo column {d} length");
        debug_assert_eq!(hi[d].len(), n, "hi column {d} length");
    }
}

/// Writes `mask[i] = 1` iff rectangle `i` intersects `query` (closed
/// semantics: touching counts, exactly [`Rect::intersects`]), else `0`.
///
/// `mask.len()` is the element count `n`; every column must hold at
/// least `n` coordinates (checked in debug builds).
pub fn intersects_mask<const D: usize>(
    lo: &[&[f64]; D],
    hi: &[&[f64]; D],
    query: &Rect<D>,
    mask: &mut [u8],
) {
    let n = mask.len();
    check_columns(lo, hi, n);
    // One fused pass: `D` is a compile-time constant, so the inner loop
    // unrolls and each element does 2·D compares and one mask store —
    // less memory traffic than a pass per dimension.
    let lo_cols: [&[f64]; D] = std::array::from_fn(|d| &lo[d][..n]);
    let hi_cols: [&[f64]; D] = std::array::from_fn(|d| &hi[d][..n]);
    for (i, m) in mask.iter_mut().enumerate() {
        let mut keep = 1u8;
        for d in 0..D {
            keep &= ((lo_cols[d][i] <= query.hi_at(d)) & (query.lo_at(d) <= hi_cols[d][i])) as u8;
        }
        *m = keep;
    }
}

/// Writes `mask[i] = 1` iff rectangle `i` covers `query` (boundary
/// included, exactly `rect_i.contains_rect(query)`), else `0`. An
/// exact-match descent opens only the children whose box covers the
/// sought rectangle.
pub fn covers_mask<const D: usize>(
    lo: &[&[f64]; D],
    hi: &[&[f64]; D],
    query: &Rect<D>,
    mask: &mut [u8],
) {
    let n = mask.len();
    check_columns(lo, hi, n);
    let lo_cols: [&[f64]; D] = std::array::from_fn(|d| &lo[d][..n]);
    let hi_cols: [&[f64]; D] = std::array::from_fn(|d| &hi[d][..n]);
    for (i, m) in mask.iter_mut().enumerate() {
        let mut keep = 1u8;
        for d in 0..D {
            keep &= ((lo_cols[d][i] <= query.lo_at(d)) & (query.hi_at(d) <= hi_cols[d][i])) as u8;
        }
        *m = keep;
    }
}

/// Writes `out[i]` = squared Euclidean distance from `p` to rectangle
/// `i` (0 inside), bit-identical to [`Rect::min_dist2`].
///
/// The per-dimension clamp `if c < lo {lo-c} else if c > hi {c-hi} else
/// {0}` becomes the branch-free `max(lo-c, c-hi, 0)`: for a valid
/// rectangle (`lo <= hi`) at most one of the two differences is
/// positive, so the maximum selects the same value — including the
/// `±0.0` cases — and the squares accumulate in the same dimension
/// order, keeping every bit of the result identical.
pub fn min_dist2_batch<const D: usize>(
    lo: &[&[f64]; D],
    hi: &[&[f64]; D],
    p: &Point<D>,
    out: &mut [f64],
) {
    let n = out.len();
    check_columns(lo, hi, n);
    let lo_cols: [&[f64]; D] = std::array::from_fn(|d| &lo[d][..n]);
    let hi_cols: [&[f64]; D] = std::array::from_fn(|d| &hi[d][..n]);
    for (i, o) in out.iter_mut().enumerate() {
        // Dimensions accumulate in index order, matching the scalar sum.
        let mut d2 = 0.0;
        for d in 0..D {
            let c = p.coord(d);
            let delta = (lo_cols[d][i] - c).max(c - hi_cols[d][i]).max(0.0);
            d2 += delta * delta;
        }
        *o = d2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Columns for a tiny fixed node: 4 rectangles in 2-D.
    fn fixture() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        // rects: [0,1]x[0,1], [2,3]x[2,3], [-1,5]x[-1,5], point at (10,10)
        let lo = vec![vec![0.0, 2.0, -1.0, 10.0], vec![0.0, 2.0, -1.0, 10.0]];
        let hi = vec![vec![1.0, 3.0, 5.0, 10.0], vec![1.0, 3.0, 5.0, 10.0]];
        (lo, hi)
    }

    fn cols(v: &[Vec<f64>]) -> [&[f64]; 2] {
        [&v[0], &v[1]]
    }

    /// The fixture's rectangles, one [`Rect`] each: the scalar side of
    /// every comparison below.
    fn rects(lo: &[Vec<f64>], hi: &[Vec<f64>]) -> Vec<Rect<2>> {
        (0..lo[0].len())
            .map(|i| gather_rect(&cols(lo), &cols(hi), i))
            .collect()
    }

    #[test]
    fn intersects_matches_scalar_on_fixture() {
        let (lo, hi) = fixture();
        let q = Rect::xyxy(0.5, 0.5, 2.0, 2.0);
        let mut fast = [0u8; 4];
        intersects_mask(&cols(&lo), &cols(&hi), &q, &mut fast);
        let slow: Vec<u8> = rects(&lo, &hi)
            .iter()
            .map(|r| r.intersects(&q) as u8)
            .collect();
        assert_eq!(fast[..], slow[..]);
        assert_eq!(fast, [1, 1, 1, 0], "touching at 2.0 counts");
    }

    #[test]
    fn covers_matches_scalar_on_fixture() {
        let (lo, hi) = fixture();
        let q = Rect::xyxy(2.0, 2.0, 3.0, 3.0);
        let mut fast = [0u8; 4];
        covers_mask(&cols(&lo), &cols(&hi), &q, &mut fast);
        let slow: Vec<u8> = rects(&lo, &hi)
            .iter()
            .map(|r| r.contains_rect(&q) as u8)
            .collect();
        assert_eq!(fast[..], slow[..]);
        assert_eq!(fast, [0, 1, 1, 0], "a rect covers its own boundary");
    }

    #[test]
    fn min_dist2_matches_scalar_bitwise_on_fixture() {
        let (lo, hi) = fixture();
        for p in [
            Point::new([0.5, 0.5]),
            Point::new([1.0, 0.0]),
            Point::new([-3.0, 1.0]),
            Point::new([6.0, 7.0]),
        ] {
            let mut fast = [0.0f64; 4];
            min_dist2_batch(&cols(&lo), &cols(&hi), &p, &mut fast);
            for (f, r) in fast.iter().zip(rects(&lo, &hi)) {
                assert_eq!(f.to_bits(), r.min_dist2(&p).to_bits(), "p={p:?}");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let lo: [&[f64]; 2] = [&[], &[]];
        let hi: [&[f64]; 2] = [&[], &[]];
        let q = Rect::xyxy(0.0, 0.0, 1.0, 1.0);
        intersects_mask(&lo, &hi, &q, &mut []);
        covers_mask(&lo, &hi, &q, &mut []);
        min_dist2_batch(&lo, &hi, &Point::new([0.0, 0.0]), &mut []);
    }

    #[test]
    fn three_dimensional_kernels() {
        let lo = [vec![0.0, 4.0], vec![0.0, 4.0], vec![0.0, 4.0]];
        let hi = [vec![1.0, 5.0], vec![1.0, 5.0], vec![1.0, 5.0]];
        let cols_lo: [&[f64]; 3] = [&lo[0], &lo[1], &lo[2]];
        let cols_hi: [&[f64]; 3] = [&hi[0], &hi[1], &hi[2]];
        let q: Rect<3> = Rect::new([0.5, 0.5, 0.5], [4.5, 4.5, 4.5]);
        let mut mask = [0u8; 2];
        intersects_mask(&cols_lo, &cols_hi, &q, &mut mask);
        assert_eq!(mask, [1, 1]);
        let mut d2 = [0.0f64; 2];
        let p = Point::new([2.0, 2.0, 2.0]);
        min_dist2_batch(&cols_lo, &cols_hi, &p, &mut d2);
        for (i, d) in d2.iter().enumerate() {
            let want = gather_rect(&cols_lo, &cols_hi, i).min_dist2(&p);
            assert_eq!(d.to_bits(), want.to_bits());
        }
        assert_eq!(d2, [3.0, 12.0]); // (2-1)² × 3 and (4-2)² × 3
    }
}
