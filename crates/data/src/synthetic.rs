//! The paper's synthetic dataset families (§3.2).

use pr_geom::{Item, Rect};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Uniformly distributed points in the unit square (as degenerate
/// rectangles). The baseline "nice" dataset.
pub fn uniform_points(n: u32, seed: u64) -> Vec<Item<2>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|id| {
            let x: f64 = rng.gen_range(0.0..1.0);
            let y: f64 = rng.gen_range(0.0..1.0);
            Item::new(Rect::xyxy(x, y, x, y), id)
        })
        .collect()
}

/// SIZE(max_side): rectangle centers uniform in the unit square, side
/// lengths uniform and independent in `(0, max_side)`; rectangles not
/// completely inside the unit square are rejected and regenerated (the
/// paper "discarded rectangles that were not completely inside the unit
/// square (but made sure each dataset had 10 million rectangles)").
pub fn size_dataset(n: u32, max_side: f64, seed: u64) -> Vec<Item<2>> {
    assert!(
        max_side > 0.0 && max_side < 1.0,
        "max_side must be in (0,1)"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n as usize);
    let mut id = 0u32;
    while out.len() < n as usize {
        let cx: f64 = rng.gen_range(0.0..1.0);
        let cy: f64 = rng.gen_range(0.0..1.0);
        let w: f64 = rng.gen_range(0.0..max_side);
        let h: f64 = rng.gen_range(0.0..max_side);
        let r = Rect::xyxy(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0);
        if r.lo_at(0) >= 0.0 && r.lo_at(1) >= 0.0 && r.hi_at(0) <= 1.0 && r.hi_at(1) <= 1.0 {
            out.push(Item::new(r, id));
            id += 1;
        }
    }
    out
}

/// ASPECT(a): rectangles of fixed area `10⁻⁶` and aspect ratio `a`, the
/// long side horizontal or vertical with equal probability, centers
/// uniform, all inside the unit square.
pub fn aspect_dataset(n: u32, aspect: f64, seed: u64) -> Vec<Item<2>> {
    aspect_dataset_with_area(n, aspect, 1e-6, seed)
}

/// ASPECT with an explicit area (the paper fixes `10⁻⁶`).
pub(crate) fn aspect_dataset_with_area(n: u32, aspect: f64, area: f64, seed: u64) -> Vec<Item<2>> {
    assert!(aspect >= 1.0, "aspect ratio must be ≥ 1");
    assert!(area > 0.0);
    let long = (area * aspect).sqrt();
    let short = (area / aspect).sqrt();
    assert!(long < 1.0, "rectangles must fit in the unit square");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n as usize);
    let mut id = 0u32;
    while out.len() < n as usize {
        let horizontal: bool = rng.gen();
        let (w, h) = if horizontal {
            (long, short)
        } else {
            (short, long)
        };
        let cx: f64 = rng.gen_range(w / 2.0..1.0 - w / 2.0);
        let cy: f64 = rng.gen_range(h / 2.0..1.0 - h / 2.0);
        out.push(Item::new(
            Rect::xyxy(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0),
            id,
        ));
        id += 1;
    }
    out
}

/// SKEWED(c): uniform points squeezed in y — each `(x, y)` becomes
/// `(x, y^c)`. `c = 1` is uniform; larger `c` piles mass near `y = 0`.
pub fn skewed_dataset(n: u32, c: u32, seed: u64) -> Vec<Item<2>> {
    assert!(c >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|id| {
            let x: f64 = rng.gen_range(0.0..1.0);
            let y: f64 = rng.gen_range(0.0..1.0);
            let yc = y.powi(c as i32);
            Item::new(Rect::xyxy(x, yc, x, yc), id)
        })
        .collect()
}

/// CLUSTER: `clusters` point clusters with centers equally spaced on a
/// horizontal line through the middle of the unit square, each holding
/// `per_cluster` points uniform in a `side × side` box (the paper: 10,000
/// clusters × 1,000 points in 0.00001 × 0.00001 squares).
pub fn cluster_dataset(clusters: u32, per_cluster: u32, side: f64, seed: u64) -> Vec<Item<2>> {
    assert!(clusters >= 1 && per_cluster >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity((clusters * per_cluster) as usize);
    let mut id = 0u32;
    for ci in 0..clusters {
        // Centers at (ci + 0.5) / clusters, vertically centered.
        let cx = (ci as f64 + 0.5) / clusters as f64;
        let cy = 0.5;
        for _ in 0..per_cluster {
            let x = cx + rng.gen_range(-side / 2.0..side / 2.0);
            let y = cy + rng.gen_range(-side / 2.0..side / 2.0);
            out.push(Item::new(Rect::xyxy(x, y, x, y), id));
            id += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_points_are_degenerate_and_inside() {
        let items = uniform_points(1000, 1);
        assert_eq!(items.len(), 1000);
        for i in &items {
            assert_eq!(i.rect.area(), 0.0);
            assert!(i.rect.lo_at(0) >= 0.0 && i.rect.hi_at(0) <= 1.0);
        }
        // Determinism.
        assert_eq!(uniform_points(1000, 1), items);
        assert_ne!(uniform_points(1000, 2), items);
    }

    #[test]
    fn size_dataset_respects_bounds() {
        let items = size_dataset(2000, 0.05, 3);
        assert_eq!(items.len(), 2000);
        for i in &items {
            assert!(i.rect.extent(0) <= 0.05 && i.rect.extent(1) <= 0.05);
            assert!(i.rect.lo_at(0) >= 0.0 && i.rect.hi_at(0) <= 1.0);
            assert!(i.rect.lo_at(1) >= 0.0 && i.rect.hi_at(1) <= 1.0);
        }
        // ids are dense 0..n.
        let mut ids: Vec<u32> = items.iter().map(|i| i.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..2000).collect::<Vec<_>>());
    }

    #[test]
    fn size_dataset_large_rectangles_still_complete() {
        // High rejection rate (max_side 0.5) must still deliver n items.
        let items = size_dataset(500, 0.5, 9);
        assert_eq!(items.len(), 500);
    }

    #[test]
    fn aspect_dataset_fixes_area_and_ratio() {
        for a in [1.0, 10.0, 100.0, 1000.0] {
            let items = aspect_dataset(300, a, 4);
            let mut horizontals = 0;
            for i in &items {
                assert!((i.rect.area() - 1e-6).abs() < 1e-12, "area fixed");
                let ratio = i.rect.aspect_ratio();
                assert!((ratio - a).abs() / a < 1e-9, "ratio {ratio} ≠ {a}");
                if i.rect.extent(0) >= i.rect.extent(1) {
                    horizontals += 1;
                }
            }
            if a > 1.0 {
                // Orientation is a fair coin.
                assert!(horizontals > 75 && horizontals < 225);
            }
        }
    }

    #[test]
    fn skewed_dataset_squeezes_downward() {
        let uni = skewed_dataset(5000, 1, 5);
        let ske = skewed_dataset(5000, 5, 5);
        let median_y = |v: &[Item<2>]| {
            let mut ys: Vec<f64> = v.iter().map(|i| i.rect.lo_at(1)).collect();
            ys.sort_by(f64::total_cmp);
            ys[ys.len() / 2]
        };
        assert!((median_y(&uni) - 0.5).abs() < 0.05);
        // y^5 median should be near 0.5^5 ≈ 0.031.
        assert!(median_y(&ske) < 0.06);
        // x stays uniform.
        let mean_x: f64 = ske.iter().map(|i| i.rect.lo_at(0)).sum::<f64>() / ske.len() as f64;
        assert!((mean_x - 0.5).abs() < 0.02);
    }

    #[test]
    fn cluster_dataset_shape() {
        let items = cluster_dataset(100, 50, 1e-5, 6);
        assert_eq!(items.len(), 5000);
        // All points hug the horizontal center line.
        for i in &items {
            assert!((i.rect.lo_at(1) - 0.5).abs() < 1e-5);
        }
        // Points in cluster 0 are tightly packed horizontally.
        let xs: Vec<f64> = items[..50].iter().map(|i| i.rect.lo_at(0)).collect();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min <= 1e-5);
    }
}
