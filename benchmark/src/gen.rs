//! Seeded inputs. The program under test only ever sees what these
//! produce; the same `--seed` gives the same items, queries and orders.

use prtree::data::queries::square_queries;
use prtree::data::TigerProfile;
use prtree::geom::{Item, Point, Rect};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The random stream for `(seed, purpose)`; distinct purposes never
/// share draws, so adding a consumer does not shift the others' inputs.
pub fn rng(seed: u64, purpose: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// The unit square all TIGER-profile data lives in.
pub fn unit_square() -> Rect<2> {
    Rect::xyxy(0.0, 0.0, 1.0, 1.0)
}

/// `n` TIGER-east-profile road-segment boxes (ids `0..n`). Like the
/// census data it stands in for, the data set is one fixed map — the
/// profile's own seed — and `--seed` draws what is done with it:
/// queries, k-NN points, insert order, the churn pool's order. (A
/// seed-dependent map moved `window_leaf_io` by 7 % between seeds on
/// 1 %-area windows, which would have forced its bound to 20 %.)
pub fn tiger(n: usize) -> Vec<Item<2>> {
    TigerProfile::eastern().generate(n as u32, 5)
}

/// `count` square windows covering `area_fraction` of the unit square.
pub fn windows(area_fraction: f64, count: usize, seed: u64) -> Vec<Rect<2>> {
    square_queries(&unit_square(), area_fraction, count, rng(seed, 2).gen())
}

/// The first window asked after each restart: `count` windows of the
/// workload's query size, the same on every seed. A cold window's cost
/// depends on how many leaves it touches; with seeded probes the median
/// of twenty moved between 0.70 and 1.25 ms from seed to seed on
/// `store_static`, which says nothing about restarts.
pub fn restart_probes(area_fraction: f64, count: usize) -> Vec<Rect<2>> {
    windows(area_fraction, count, 0)
}

/// `count` k-NN query points: the centre of a seeded item, jittered —
/// locations where data is, as a "nearest roads to here" client asks.
pub fn knn_points(items: &[Item<2>], count: usize, seed: u64) -> Vec<Point<2>> {
    let mut rng = rng(seed, 3);
    (0..count)
        .map(|_| {
            let c = items[rng.gen_range(0..items.len())].rect.center();
            Point([
                c.coord(0) + rng.gen_range(-1e-3..1e-3),
                c.coord(1) + rng.gen_range(-1e-3..1e-3),
            ])
        })
        .collect()
}

/// `items` in a seeded order (ingest order).
pub fn shuffled(mut items: Vec<Item<2>>, seed: u64) -> Vec<Item<2>> {
    items.shuffle(&mut rng(seed, 4));
    items
}

/// Empty horizontal line queries through the Theorem-3 grid of `2^k`
/// columns × `b` rows: `y = j/b + (m + ½)/N` for seeded `(j, m)` threads
/// strictly between the shifted point ordinates `j/b + h/N`.
pub fn grid_lines(k: u32, b: u32, count: usize, seed: u64) -> Vec<Rect<2>> {
    let columns = 1u64 << k;
    let n = (columns * b as u64) as f64;
    let mut rng = rng(seed, 5);
    (0..count)
        .map(|_| {
            let j = rng.gen_range(0..b) as f64;
            let m = rng.gen_range(0..columns - 1) as f64;
            let y = j / b as f64 + (m + 0.5) / n;
            Rect::xyxy(0.0, y, columns as f64, y)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        assert_eq!(windows(1e-4, 10, 7), windows(1e-4, 10, 7));
        assert_ne!(windows(1e-4, 10, 7), windows(1e-4, 10, 8));
        let items = tiger(500);
        assert_eq!(shuffled(items.clone(), 3), shuffled(items.clone(), 3));
        assert_ne!(shuffled(items.clone(), 3), items);
    }

    #[test]
    fn grid_lines_touch_no_grid_point() {
        let (k, b) = (6, 8);
        let grid = prtree::data::worst_case_grid(k, b);
        for q in grid_lines(k, b, 200, 11) {
            assert!(grid.iter().all(|i| !i.rect.intersects(&q)), "{q:?}");
        }
    }
}
