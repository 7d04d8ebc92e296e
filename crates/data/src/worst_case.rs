//! The Theorem-3 worst-case dataset (§2.4, Figure 3).
//!
//! A grid of `N/B` columns and `B` rows where column `i` is shifted up by
//! `h(i)/N`, with `h(i)` the bit-reversal of `i` (each row is a
//! Halton–Hammersley point set):
//!
//! ```text
//! p_ij = ( i + 1/2 ,  j/B + h(i)/N )     i < N/B,  j < B
//! ```
//!
//! On this set a packed Hilbert R-tree, a 4-D Hilbert R-tree and a TGS
//! R-tree all put each *column* in its own leaf, so a horizontal line
//! query that threads between the points visits all `Θ(N/B)` leaves
//! while reporting nothing. The PR-tree visits `O(√(N/B))`.

use pr_geom::{Item, Rect};

/// Builds the shifted grid with `2^k` columns of `b` rows (`N = 2^k·b`).
///
/// # Panics
/// Panics if `k > 31` or the point count overflows `u32` ids.
pub fn worst_case_grid(k: u32, b: u32) -> Vec<Item<2>> {
    assert!((1..=31).contains(&k), "k must be in 1..=31");
    let columns: u64 = 1 << k;
    let n: u64 = columns * b as u64;
    assert!(n <= u32::MAX as u64, "too many points for u32 ids");
    let mut out = Vec::with_capacity(n as usize);
    let mut id = 0u32;
    for i in 0..columns {
        let x = i as f64 + 0.5;
        let h = bit_reverse(i as u32, k) as f64;
        for j in 0..b {
            let y = j as f64 / b as f64 + h / n as f64;
            out.push(Item::new(Rect::xyxy(x, y, x, y), id));
            id += 1;
        }
    }
    out
}

/// Reverses the low `k` bits of `i`.
pub(crate) fn bit_reverse(i: u32, k: u32) -> u32 {
    debug_assert!((1..=32).contains(&k));
    debug_assert!(k == 32 || i < (1 << k));
    i.reverse_bits() >> (32 - k)
}

/// A horizontal line query (degenerate rectangle) through the grid that
/// touches no point: it runs at `y = 1/2 + 1/(2N)`, strictly between any
/// two point ordinates, spanning every column.
pub fn worst_case_line_query(k: u32, b: u32) -> Rect<2> {
    let columns: u64 = 1 << k;
    let n = (columns * b as u64) as f64;
    // Row j = b/2 starts at y = 1/2; shifts are multiples of 1/N, so the
    // half-step 1/(2N) lands strictly between consecutive shift values.
    let y = 0.5 + 0.5 / n;
    Rect::xyxy(0.0, y, columns as f64, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_reversal_basics() {
        assert_eq!(bit_reverse(0b000, 3), 0b000);
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b011, 3), 0b110);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        // Involution.
        for i in 0..64u32 {
            assert_eq!(bit_reverse(bit_reverse(i, 6), 6), i);
        }
    }

    #[test]
    fn grid_dimensions_and_coordinates() {
        let k = 4;
        let b = 4;
        let items = worst_case_grid(k, b);
        assert_eq!(items.len(), (1 << k) * b as usize);
        let n = items.len() as f64;
        for (idx, it) in items.iter().enumerate() {
            let i = idx / b as usize;
            let j = idx % b as usize;
            assert_eq!(it.rect.lo_at(0), i as f64 + 0.5);
            let y = it.rect.lo_at(1);
            let base = j as f64 / b as f64;
            assert!(y >= base && y < base + 1.0 / b as f64, "row band");
            let shift = y - base;
            let steps = shift * n;
            assert!((steps - steps.round()).abs() < 1e-9, "shift is k·(1/N)");
        }
    }

    #[test]
    fn columns_have_distinct_shifts() {
        let items = worst_case_grid(5, 4);
        let b = 4usize;
        let mut shifts: Vec<f64> = (0..32)
            .map(|i| items[i * b].rect.lo_at(1)) // row 0 of each column
            .collect();
        shifts.sort_by(f64::total_cmp);
        for w in shifts.windows(2) {
            assert!(w[1] > w[0], "all column shifts distinct");
        }
    }

    #[test]
    fn line_query_reports_nothing_but_crosses_all_columns() {
        let (k, b) = (6, 8);
        let items = worst_case_grid(k, b);
        let q = worst_case_line_query(k, b);
        // No point on the line.
        assert!(
            items.iter().all(|i| !i.rect.intersects(&q)),
            "query must have empty output"
        );
        // But every column's bounding box crosses it.
        let cols = 1usize << k;
        for c in 0..cols {
            let col_mbr = pr_geom::Rect::mbr_of(
                items[c * b as usize..(c + 1) * b as usize]
                    .iter()
                    .map(|i| &i.rect),
            );
            assert!(col_mbr.intersects(&q), "column {c} must straddle the line");
        }
    }
}
