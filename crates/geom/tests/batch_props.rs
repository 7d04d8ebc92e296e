//! Property tests proving the SoA batch kernels bit-identical to the
//! scalar `Rect` predicates on arbitrary rectangle columns.

use pr_geom::batch::{covers_mask, gather_rect, intersects_mask, min_dist2_batch};
use pr_geom::{Point, Rect};
use proptest::prelude::*;

/// Scalar reference for `intersects_mask`: per-element
/// [`Rect::intersects`].
fn intersects_mask_scalar<const D: usize>(
    lo: &[&[f64]; D],
    hi: &[&[f64]; D],
    query: &Rect<D>,
    mask: &mut [u8],
) {
    for (i, m) in mask.iter_mut().enumerate() {
        *m = gather_rect(lo, hi, i).intersects(query) as u8;
    }
}

/// Scalar reference for `covers_mask`: per-element
/// [`Rect::contains_rect`] with rectangle `i` as the container.
fn covers_mask_scalar<const D: usize>(
    lo: &[&[f64]; D],
    hi: &[&[f64]; D],
    query: &Rect<D>,
    mask: &mut [u8],
) {
    for (i, m) in mask.iter_mut().enumerate() {
        *m = gather_rect(lo, hi, i).contains_rect(query) as u8;
    }
}

/// Scalar reference for `min_dist2_batch`: per-element
/// [`Rect::min_dist2`].
fn min_dist2_batch_scalar<const D: usize>(
    lo: &[&[f64]; D],
    hi: &[&[f64]; D],
    p: &Point<D>,
    out: &mut [f64],
) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = gather_rect(lo, hi, i).min_dist2(p);
    }
}

/// Raw per-rectangle tuples: lo corner plus non-negative extents, so
/// every generated rectangle is valid (possibly degenerate).
type RawRects = Vec<([f64; 2], [f64; 2])>;

fn arb_columns(max: usize) -> impl Strategy<Value = RawRects> {
    prop::collection::vec(
        (
            -100.0..100.0f64,
            -100.0..100.0f64,
            0.0..30.0f64,
            0.0..30.0f64,
        ),
        0..max,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(x, y, w, h)| ([x, y], [x + w, y + h]))
            .collect()
    })
}

fn to_columns(raw: &RawRects) -> ([Vec<f64>; 2], [Vec<f64>; 2]) {
    let mut lo = [Vec::new(), Vec::new()];
    let mut hi = [Vec::new(), Vec::new()];
    for (l, h) in raw {
        for d in 0..2 {
            lo[d].push(l[d]);
            hi[d].push(h[d]);
        }
    }
    (lo, hi)
}

fn arb_query() -> impl Strategy<Value = Rect<2>> {
    (
        -120.0..120.0f64,
        -120.0..120.0f64,
        0.0..80.0f64,
        0.0..80.0f64,
    )
        .prop_map(|(x, y, w, h)| Rect::xyxy(x, y, x + w, y + h))
}

proptest! {
    #[test]
    fn intersects_mask_is_bit_identical(raw in arb_columns(200), q in arb_query()) {
        let (lo, hi) = to_columns(&raw);
        let (lo, hi): ([&[f64]; 2], [&[f64]; 2]) = ([&lo[0], &lo[1]], [&hi[0], &hi[1]]);
        let mut fast = vec![0u8; raw.len()];
        let mut slow = vec![7u8; raw.len()];
        intersects_mask(&lo, &hi, &q, &mut fast);
        intersects_mask_scalar(&lo, &hi, &q, &mut slow);
        prop_assert_eq!(&fast, &slow);
        // And the scalar twin really is the Rect predicate.
        for (i, m) in slow.iter().enumerate() {
            prop_assert_eq!(*m == 1, gather_rect(&lo, &hi, i).intersects(&q));
        }
    }

    /// Queries are drawn both at random and from the columns themselves,
    /// so the "covers its own rectangle" boundary case is hit densely.
    #[test]
    fn covers_mask_is_bit_identical(
        raw in arb_columns(200),
        q in arb_query(),
        pick in 0usize..400,
    ) {
        let (lo, hi) = to_columns(&raw);
        let (lo, hi): ([&[f64]; 2], [&[f64]; 2]) = ([&lo[0], &lo[1]], [&hi[0], &hi[1]]);
        let own = (!raw.is_empty()).then(|| gather_rect(&lo, &hi, pick % raw.len()));
        for q in std::iter::once(q).chain(own) {
            let mut fast = vec![0u8; raw.len()];
            let mut slow = vec![7u8; raw.len()];
            covers_mask(&lo, &hi, &q, &mut fast);
            covers_mask_scalar(&lo, &hi, &q, &mut slow);
            prop_assert_eq!(&fast, &slow);
            for (i, m) in slow.iter().enumerate() {
                prop_assert_eq!(*m == 1, gather_rect(&lo, &hi, i).contains_rect(&q));
            }
        }
        if let Some(own) = own {
            let mut mask = vec![0u8; raw.len()];
            covers_mask(&lo, &hi, &own, &mut mask);
            prop_assert_eq!(mask[pick % raw.len()], 1, "a rectangle covers itself");
        }
    }

    #[test]
    fn min_dist2_batch_is_bit_identical(
        raw in arb_columns(200),
        px in -150.0..150.0f64,
        py in -150.0..150.0f64,
    ) {
        let (lo, hi) = to_columns(&raw);
        let (lo, hi): ([&[f64]; 2], [&[f64]; 2]) = ([&lo[0], &lo[1]], [&hi[0], &hi[1]]);
        let p = Point::new([px, py]);
        let mut fast = vec![0.0f64; raw.len()];
        let mut slow = vec![1.0f64; raw.len()];
        min_dist2_batch(&lo, &hi, &p, &mut fast);
        min_dist2_batch_scalar(&lo, &hi, &p, &mut slow);
        for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
            prop_assert_eq!(f.to_bits(), s.to_bits(), "element {}", i);
            prop_assert_eq!(s.to_bits(), gather_rect(&lo, &hi, i).min_dist2(&p).to_bits());
        }
    }

    /// Degenerate rectangles (points and segments) hit the boundary
    /// cases of the branch-free clamp; exercise them densely.
    #[test]
    fn kernels_agree_on_point_sets(
        pts in prop::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 0..150),
        q in arb_query(),
    ) {
        let n = pts.len();
        let (xs, ys): (Vec<f64>, Vec<f64>) = pts.into_iter().unzip();
        let lo: [&[f64]; 2] = [&xs, &ys];
        let hi: [&[f64]; 2] = [&xs, &ys];
        let mut fast = vec![0u8; n];
        let mut slow = vec![7u8; n];
        intersects_mask(&lo, &hi, &q, &mut fast);
        intersects_mask_scalar(&lo, &hi, &q, &mut slow);
        prop_assert_eq!(&fast, &slow);
        let p = Point::new([q.lo_at(0), q.lo_at(1)]);
        let mut dfast = vec![0.0f64; n];
        let mut dslow = vec![1.0f64; n];
        min_dist2_batch(&lo, &hi, &p, &mut dfast);
        min_dist2_batch_scalar(&lo, &hi, &p, &mut dslow);
        for (f, s) in dfast.iter().zip(&dslow) {
            prop_assert_eq!(f.to_bits(), s.to_bits());
        }
    }
}
