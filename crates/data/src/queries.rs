//! Query workload generators (§3.3).
//!
//! The paper evaluates with batches of 100 random queries and reports
//! the average; each generator here returns such a batch,
//! deterministically from a seed.

use pr_geom::Rect;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Square windows covering `area_fraction` of `domain`'s area, centers
/// uniform, squares clipped to stay inside the domain (the paper's
/// queries of 0.25%–2% of the bounding-box area, Figs. 12–14).
pub fn square_queries(
    domain: &Rect<2>,
    area_fraction: f64,
    count: usize,
    seed: u64,
) -> Vec<Rect<2>> {
    assert!(area_fraction > 0.0 && area_fraction <= 1.0);
    let side = (domain.area() * area_fraction).sqrt();
    let side_x = side.min(domain.extent(0));
    let side_y = side.min(domain.extent(1));
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let x0 = if domain.extent(0) > side_x {
                rng.gen_range(domain.lo_at(0)..domain.hi_at(0) - side_x)
            } else {
                domain.lo_at(0)
            };
            let y0 = if domain.extent(1) > side_y {
                rng.gen_range(domain.lo_at(1)..domain.hi_at(1) - side_y)
            } else {
                domain.lo_at(1)
            };
            Rect::xyxy(x0, y0, x0 + side_x, y0 + side_y)
        })
        .collect()
}

/// SKEWED(c) queries: squares of `area_fraction` of the unit square,
/// skewed like the data — each corner `(x, y)` maps to `(x, y^c)` — so
/// output sizes stay comparable across `c` (Fig. 15 right).
pub fn skewed_queries(c: u32, area_fraction: f64, count: usize, seed: u64) -> Vec<Rect<2>> {
    assert!(c >= 1);
    let side = area_fraction.sqrt();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let x0 = rng.gen_range(0.0..1.0 - side);
            let y0 = rng.gen_range(0.0..1.0 - side);
            let y1 = y0 + side;
            Rect::xyxy(x0, y0.powi(c as i32), x0 + side, y1.powi(c as i32))
        })
        .collect()
}

/// CLUSTER strip queries (Table 1): long skinny horizontal rectangles of
/// area `1 × 10⁻⁷` spanning the full cluster line, the bottom-left
/// y-coordinate random such that the strip passes through all clusters.
///
/// `cluster_side` is the side of the cluster squares (`10⁻⁵` in the
/// paper), matching [`crate::synthetic::cluster_dataset`]'s geometry
/// (clusters centered on `y = 0.5`).
pub fn cluster_strip_queries(cluster_side: f64, count: usize, seed: u64) -> Vec<Rect<2>> {
    let height = 1e-7; // width 1 × height 1e-7 = the paper's area
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let y0 = rng.gen_range(0.5 - cluster_side / 2.0..0.5 + cluster_side / 2.0 - height);
            Rect::xyxy(0.0, y0, 1.0, y0 + height)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{cluster_dataset, skewed_dataset, uniform_points};
    use pr_geom::Item;

    /// How many items a batch of queries hits, summed over the batch.
    fn total_hits(items: &[Item<2>], queries: &[Rect<2>]) -> u64 {
        queries
            .iter()
            .map(|q| items.iter().filter(|i| i.rect.intersects(q)).count() as u64)
            .sum()
    }

    #[test]
    fn square_queries_have_requested_area_and_fit() {
        let domain = Rect::xyxy(0.0, 0.0, 2.0, 2.0);
        let qs = square_queries(&domain, 0.01, 50, 1);
        assert_eq!(qs.len(), 50);
        for q in &qs {
            assert!((q.area() - 0.04).abs() < 1e-9, "1% of area 4");
            assert!(domain.contains_rect(q));
        }
        // Deterministic.
        assert_eq!(square_queries(&domain, 0.01, 50, 1), qs);
    }

    #[test]
    fn square_queries_hit_expected_fraction_of_uniform_points() {
        let items = uniform_points(20_000, 3);
        let domain = Rect::xyxy(0.0, 0.0, 1.0, 1.0);
        let qs = square_queries(&domain, 0.01, 40, 2);
        let hits = total_hits(&items, &qs) as f64 / qs.len() as f64;
        // Expect ≈ 200 per query (1% of 20k); allow wide tolerance.
        assert!(hits > 100.0 && hits < 400.0, "avg hits {hits}");
    }

    #[test]
    fn skewed_queries_keep_output_size_stable() {
        let per_c: Vec<f64> = [1u32, 5, 9]
            .iter()
            .map(|&c| {
                let items = skewed_dataset(20_000, c, 4);
                let qs = skewed_queries(c, 0.01, 30, 5);
                total_hits(&items, &qs) as f64 / qs.len() as f64
            })
            .collect();
        // The paper skews queries precisely so T stays comparable.
        for &h in &per_c {
            assert!(h > 50.0, "avg hits {h} too small");
        }
        let max = per_c.iter().cloned().fold(f64::MIN, f64::max);
        let min = per_c.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 4.0, "output sizes diverge: {per_c:?}");
    }

    #[test]
    fn cluster_strips_cross_all_clusters() {
        let items = cluster_dataset(50, 40, 1e-5, 6);
        let qs = cluster_strip_queries(1e-5, 20, 7);
        for q in &qs {
            assert!((q.area() - 1e-7).abs() < 1e-12);
            // The strip must geometrically cross every cluster's x-range:
            // it spans x ∈ [0,1] and sits inside the cluster y-band.
            assert!(q.lo_at(1) > 0.5 - 1e-5 && q.hi_at(1) < 0.5 + 1e-5);
        }
        // On average a strip hits some but far from all points.
        let hits = total_hits(&items, &qs) as f64 / qs.len() as f64;
        assert!(hits < items.len() as f64 * 0.2, "strips are thin: {hits}");
    }
}
