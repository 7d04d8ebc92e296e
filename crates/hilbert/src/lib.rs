//! d-dimensional Hilbert space-filling curve.
//!
//! The paper's two strongest packing baselines both sort by positions on a
//! Hilbert curve:
//!
//! * the **packed Hilbert R-tree** (H) sorts input rectangles by the 2-D
//!   Hilbert value of their *centers* (Kamel & Faloutsos),
//! * the **four-dimensional Hilbert R-tree** (H4) maps each rectangle
//!   `((xmin,ymin),(xmax,ymax))` to the 4-D point
//!   `(xmin, ymin, xmax, ymax)` and sorts by the 4-D Hilbert value.
//!
//! This crate implements the curve for any dimension `n ≥ 1` using John
//! Skilling's transpose algorithm ("Programming the Hilbert curve", AIP
//! 2004): coordinates are `order`-bit integers; [`hilbert_index`] produces
//! the position along the curve as a `u128` (so `n · order ≤ 128`), and
//! [`hilbert_point`] inverts it. [`HilbertMapper`] handles the
//! quantization of floating-point coordinates into the integer grid.

#![forbid(unsafe_code)]

/// Maximum total bits (`dimensions × order`) representable in the `u128`
/// index.
pub const MAX_TOTAL_BITS: u32 = 128;

/// Converts a point given as transposed Hilbert coordinates back to axes.
///
/// `x` holds one `order`-bit value per dimension, in "transpose" format
/// (see Skilling); after the call it holds ordinary axis coordinates.
fn transpose_to_axes(x: &mut [u32], order: u32) {
    let n = x.len();
    // Gray decode by H ^ (H/2).
    let mut t = x[n - 1] >> 1;
    for i in (1..n).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work. q ranges over 2, 4, …, 2^(order−1); written with a
    // bit-position loop so order = 32 cannot overflow `1 << order`.
    for s in 1..order {
        let q = 1u32 << s;
        let p = q - 1;
        for i in (0..n).rev() {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of x[0]
            } else {
                t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
    }
}

/// Converts axis coordinates to transposed Hilbert format in place.
fn axes_to_transpose(x: &mut [u32], order: u32) {
    let n = x.len();
    let m = 1u32 << (order - 1);
    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    let mut q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// Packs transposed coordinates into a single `u128` index by bit
/// interleaving (most significant bit plane first).
fn transpose_to_index(x: &[u32], order: u32) -> u128 {
    let n = x.len() as u32;
    debug_assert!(n * order <= MAX_TOTAL_BITS);
    let mut index: u128 = 0;
    for bit in (0..order).rev() {
        for &xi in x {
            index = (index << 1) | (((xi >> bit) & 1) as u128);
        }
    }
    index
}

/// Unpacks a `u128` index into transposed coordinates.
fn index_to_transpose(index: u128, dims: usize, order: u32) -> Vec<u32> {
    let mut x = vec![0u32; dims];
    let total = dims as u32 * order;
    for b in 0..total {
        let bit = (index >> (total - 1 - b)) & 1;
        let dim = (b as usize) % dims;
        let level = order - 1 - (b / dims as u32);
        x[dim] |= (bit as u32) << level;
    }
    x
}

/// Distance along the Hilbert curve of the integer point `coords`, where
/// each coordinate has `order` bits (`0 ≤ c < 2^order`).
///
/// # Panics
/// Panics if `coords` is empty, `order` is 0 or exceeds 32, a coordinate
/// is out of range, or `coords.len() * order > 128`.
pub fn hilbert_index(coords: &[u32], order: u32) -> u128 {
    assert!(!coords.is_empty(), "need at least one dimension");
    assert!((1..=32).contains(&order), "order must be in 1..=32");
    assert!(
        coords.len() as u32 * order <= MAX_TOTAL_BITS,
        "dims * order must be <= 128"
    );
    if order < 32 {
        for &c in coords {
            assert!(
                c < (1u32 << order),
                "coordinate {c} out of range for order {order}"
            );
        }
    }
    let mut x = coords.to_vec();
    axes_to_transpose(&mut x, order);
    transpose_to_index(&x, order)
}

/// Inverse of [`hilbert_index`]: the integer point at curve position
/// `index`.
pub fn hilbert_point(index: u128, dims: usize, order: u32) -> Vec<u32> {
    assert!(dims >= 1, "need at least one dimension");
    assert!((1..=32).contains(&order), "order must be in 1..=32");
    assert!(dims as u32 * order <= MAX_TOTAL_BITS);
    let mut x = index_to_transpose(index, dims, order);
    transpose_to_axes(&mut x, order);
    x
}

/// Quantizes floating-point coordinates into the `2^order` grid over a
/// bounding domain and computes Hilbert indices.
///
/// Both Hilbert R-tree variants need this: dataset coordinates are `f64`
/// in an arbitrary bounding box, the curve lives on an integer grid.
#[derive(Debug, Clone)]
pub struct HilbertMapper {
    lo: Vec<f64>,
    scale: Vec<f64>,
    order: u32,
}

impl HilbertMapper {
    /// Creates a mapper for points in the box `[lo, hi]` (per dimension),
    /// quantized to `order` bits per dimension. Each dimension is scaled
    /// independently to fill the grid ("stretch to square").
    ///
    /// Degenerate dimensions (`lo == hi`) map everything to grid cell 0.
    ///
    /// # Panics
    /// Panics if dimensions mismatch, the domain is inverted, or
    /// `dims * order > 128`.
    pub fn new(lo: &[f64], hi: &[f64], order: u32) -> Self {
        assert_eq!(lo.len(), hi.len(), "domain corners must match");
        assert!(!lo.is_empty());
        assert!((1..=32).contains(&order));
        assert!(lo.len() as u32 * order <= MAX_TOTAL_BITS);
        let max_cell = ((1u64 << order) - 1) as f64;
        let scale = lo
            .iter()
            .zip(hi)
            .map(|(&l, &h)| {
                assert!(l <= h, "inverted domain");
                if h > l {
                    max_cell / (h - l)
                } else {
                    0.0
                }
            })
            .collect();
        HilbertMapper {
            lo: lo.to_vec(),
            scale,
            order,
        }
    }

    /// Creates a mapper with one *uniform* scale across all dimensions:
    /// the grid covers the smallest hypercube anchored at `lo` that
    /// contains `[lo, hi]`. This is how classic Hilbert R-tree
    /// implementations (Kamel–Faloutsos) quantize — geometry is not
    /// distorted, so a flat data slab stays flat on the curve. The
    /// paper's Theorem-3 construction relies on this behaviour.
    pub fn new_uniform(lo: &[f64], hi: &[f64], order: u32) -> Self {
        assert_eq!(lo.len(), hi.len(), "domain corners must match");
        assert!(!lo.is_empty());
        assert!((1..=32).contains(&order));
        assert!(lo.len() as u32 * order <= MAX_TOTAL_BITS);
        let max_cell = ((1u64 << order) - 1) as f64;
        let max_extent = lo
            .iter()
            .zip(hi)
            .map(|(&l, &h)| {
                assert!(l <= h, "inverted domain");
                h - l
            })
            .fold(0.0f64, f64::max);
        let s = if max_extent > 0.0 {
            max_cell / max_extent
        } else {
            0.0
        };
        HilbertMapper {
            lo: lo.to_vec(),
            scale: vec![s; lo.len()],
            order,
        }
    }

    /// Quantizes one point (clamping to the domain) to grid coordinates.
    pub fn quantize(&self, point: &[f64]) -> Vec<u32> {
        assert_eq!(point.len(), self.lo.len());
        let max_cell = (1u64 << self.order) - 1;
        point
            .iter()
            .zip(self.lo.iter().zip(&self.scale))
            .map(|(&p, (&l, &s))| {
                let cell = ((p - l) * s).round();
                if cell <= 0.0 {
                    0
                } else if cell >= max_cell as f64 {
                    max_cell as u32
                } else {
                    cell as u32
                }
            })
            .collect()
    }

    /// Hilbert index of a floating-point point.
    pub fn index_of(&self, point: &[f64]) -> u128 {
        hilbert_index(&self.quantize(point), self.order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values for the order-2 2-D Hilbert curve (the classic
    /// 4×4 picture): curve order visiting (x, y) cells.
    #[test]
    fn known_2d_order2_curve() {
        // The canonical order-2 curve (Skilling orientation) starts at
        // (0,0). Verify the curve visits 16 distinct cells, consecutive
        // cells are grid neighbors, and the inverse matches.
        let mut seen = std::collections::HashSet::new();
        let mut prev: Option<Vec<u32>> = None;
        for h in 0u128..16 {
            let p = hilbert_point(h, 2, 2);
            assert!(seen.insert(p.clone()), "cell visited twice: {p:?}");
            assert_eq!(hilbert_index(&p, 2), h, "roundtrip at h={h}");
            if let Some(q) = prev {
                let dist = q[0].abs_diff(p[0]) + q[1].abs_diff(p[1]);
                assert_eq!(dist, 1, "curve must move to an adjacent cell");
            }
            prev = Some(p);
        }
    }

    #[test]
    fn known_2d_order1_values() {
        // Order-1, 2-D: the four cells in curve order.
        let pts: Vec<Vec<u32>> = (0u128..4).map(|h| hilbert_point(h, 2, 1)).collect();
        // Must be a permutation of the 4 cells, adjacent steps, and start
        // at the origin cell.
        assert_eq!(pts[0], vec![0, 0]);
        for w in pts.windows(2) {
            let d = w[0][0].abs_diff(w[1][0]) + w[0][1].abs_diff(w[1][1]);
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn one_dimensional_curve_is_identity() {
        for v in [0u32, 1, 5, 255] {
            assert_eq!(hilbert_index(&[v], 8), v as u128);
            assert_eq!(hilbert_point(v as u128, 1, 8), vec![v]);
        }
    }

    #[test]
    fn curve_is_bijective_3d_order2() {
        let mut seen = std::collections::HashSet::new();
        for h in 0u128..512 {
            let p = hilbert_point(h, 3, 3);
            assert!(p.iter().all(|&c| c < 8));
            assert!(seen.insert(p.clone()));
            assert_eq!(hilbert_index(&p, 3), h);
        }
    }

    #[test]
    fn consecutive_indices_are_adjacent_4d() {
        // Hilbert continuity in the H4 configuration (4 dims).
        let order = 3;
        for h in 0u128..(1 << (4 * order)) - 1 {
            let a = hilbert_point(h, 4, order as u32);
            let b = hilbert_point(h + 1, 4, order as u32);
            let dist: u32 = a.iter().zip(&b).map(|(x, y)| x.abs_diff(*y)).sum();
            assert_eq!(dist, 1, "discontinuity between h={h} and h+1");
        }
    }

    #[test]
    fn full_order_32_roundtrip() {
        // 4 dims × 32 bits = 128 bits: the H4 production configuration.
        let coords = [u32::MAX, 0, 0xDEAD_BEEF, 0x1234_5678];
        let h = hilbert_index(&coords, 32);
        assert_eq!(hilbert_point(h, 4, 32), coords.to_vec());
    }

    #[test]
    #[should_panic(expected = "dims * order")]
    fn too_many_bits_panics() {
        hilbert_index(&[0; 5], 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_coordinate_panics() {
        hilbert_index(&[4, 0], 2);
    }

    #[test]
    fn mapper_quantizes_and_clamps() {
        let m = HilbertMapper::new(&[0.0, 0.0], &[1.0, 1.0], 8);
        assert_eq!(m.quantize(&[0.0, 0.0]), vec![0, 0]);
        assert_eq!(m.quantize(&[1.0, 1.0]), vec![255, 255]);
        assert_eq!(m.quantize(&[-5.0, 2.0]), vec![0, 255], "clamped");
    }

    #[test]
    fn mapper_degenerate_dimension() {
        let m = HilbertMapper::new(&[0.0, 3.0], &[1.0, 3.0], 8);
        assert_eq!(m.quantize(&[0.5, 3.0])[1], 0);
    }

    #[test]
    fn mapper_orders_nearby_points_together() {
        // Locality smoke test: points in the same quadrant compare closer
        // on the curve than points in opposite corners, on average.
        let m = HilbertMapper::new(&[0.0, 0.0], &[1.0, 1.0], 16);
        let a = m.index_of(&[0.1, 0.1]);
        let b = m.index_of(&[0.12, 0.11]);
        let c = m.index_of(&[0.9, 0.95]);
        let near = a.abs_diff(b);
        let far = a.abs_diff(c);
        assert!(near < far);
    }
}
