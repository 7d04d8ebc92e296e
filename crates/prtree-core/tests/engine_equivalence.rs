//! The SoA decode-free query engine must be observationally identical
//! to the retained scalar AoS engine ([`pr_tree::reference`]) — same
//! results in the same order, same `f64` bits, and the same
//! [`QueryStats`] (leaves visited, internal visits, device reads) — for
//! **every** bulk loader on uniform, varied-size, worst-case and
//! half-integer grid data.
//!
//! Trees are warmed (`warm_cache`) before comparison: that is the
//! paper's steady state, where both engines see internal-hit/leaf-miss
//! accounting, so `device_reads` comparisons are exact.

use pr_data::{size_dataset, uniform_points, worst_case_grid};
use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_tree::bulk::LoaderKind;
use pr_tree::dynamic::same_identity;
use pr_tree::reference::ReferenceEngine;
use pr_tree::{QueryScratch, RTree, TreeParams};
use proptest::prelude::*;
use std::sync::Arc;

const CAP: usize = 8; // small fanout → several levels at test sizes

fn build(kind: LoaderKind, items: &[Item<2>]) -> RTree<2> {
    let params = TreeParams::with_cap::<2>(CAP);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = kind
        .loader::<2>()
        .load(dev, params, items.to_vec())
        .expect("bulk load");
    tree.warm_cache().expect("warm");
    tree
}

/// Each dataset with the grid its windows snap to (0: no snapping).
fn datasets() -> Vec<(&'static str, Vec<Item<2>>, f64)> {
    vec![
        ("uniform", uniform_points(1_500, 0xE0), 0.0),
        ("size", size_dataset(1_500, 0.08, 0xE1), 0.0),
        // Theorem-3 shifted grid: 2⁶ columns × 8 rows of points.
        ("worst-case", worst_case_grid(6, 8), 0.0),
        // Boxes 0 to 1.5 wide with corners on the half-integers, queried
        // by windows on the same grid: window edges land exactly on box
        // edges, where only the closed `<=` tests keep a touching box.
        ("half-grid", half_grid(40), 0.5),
    ]
}

/// `n × n` boxes whose corners all lie on multiples of 0.5; some are
/// points or segments.
fn half_grid(n: u32) -> Vec<Item<2>> {
    (0..n * n)
        .map(|id| {
            let (i, j) = (id % n, id / n);
            let (x, y) = (i as f64 * 0.5, j as f64 * 0.5);
            let w = ((i * 7 + j * 3) % 4) as f64 * 0.5;
            let h = ((i * 5 + j) % 3) as f64 * 0.5;
            Item::new(Rect::xyxy(x, y, x + w, y + h), id)
        })
        .collect()
}

/// Window queries spanning the dataset's domain at several sizes, their
/// corners snapped to multiples of `snap` when it is not 0.
fn windows(domain: &Rect<2>, seeds: u64, count: usize, snap: f64) -> Vec<Rect<2>> {
    let mut state = 0x9E3779B97F4A7C15u64.wrapping_add(seeds);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let span = |d: usize| domain.hi_at(d) - domain.lo_at(d);
    (0..count)
        .map(|i| {
            let frac = [0.001, 0.01, 0.1, 0.5][i % 4];
            let w = span(0) * frac;
            let h = span(1) * frac;
            let x = domain.lo_at(0) + next() * (span(0) - w).max(0.0);
            let y = domain.lo_at(1) + next() * (span(1) - h).max(0.0);
            let on_grid = |v: f64| {
                if snap > 0.0 {
                    (v / snap).round() * snap
                } else {
                    v
                }
            };
            Rect::xyxy(on_grid(x), on_grid(y), on_grid(x + w), on_grid(y + h))
        })
        .collect()
}

#[test]
fn every_loader_and_dataset_matches_the_scalar_reference() {
    for (data_name, items, snap) in datasets() {
        let domain = Rect::mbr_of(items.iter().map(|i| &i.rect));
        for (ki, kind) in LoaderKind::all().into_iter().enumerate() {
            let tree = build(kind, &items);
            let oracle = ReferenceEngine::new(&tree).expect("oracle");
            let mut scratch = QueryScratch::new();
            let mut out = Vec::new();
            let label = format!("{}/{data_name}", kind.name());

            for (qi, q) in windows(&domain, ki as u64, 24, snap).iter().enumerate() {
                let (want, want_stats) = oracle.window_with_stats(q).expect("oracle window");
                // Fresh-scratch path.
                let (got, got_stats) = tree.window_with_stats(q).expect("window");
                assert_eq!(got, want, "{label} q{qi}: results (order included)");
                assert_eq!(got_stats, want_stats, "{label} q{qi}: QueryStats");
                // Reused-scratch path.
                let into_stats = tree.window_into(q, &mut scratch, &mut out).expect("into");
                assert_eq!(out, want, "{label} q{qi}: scratch results");
                assert_eq!(into_stats, want_stats, "{label} q{qi}: scratch stats");
                // Counting path.
                let (n, count_stats) = tree.window_count_into(q, &mut scratch).expect("count");
                assert_eq!(n, want.len() as u64, "{label} q{qi}: count");
                assert_eq!(count_stats, want_stats, "{label} q{qi}: count stats");
            }

            // k-NN: identical items, identical distance bits, identical
            // traversal statistics.
            for (pi, p) in [
                Point::new([domain.lo_at(0), domain.lo_at(1)]),
                domain.center(),
                Point::new([domain.hi_at(0), domain.lo_at(1)]),
            ]
            .iter()
            .enumerate()
            {
                for k in [1usize, 7, 40] {
                    let (want, want_stats) =
                        oracle.nearest_neighbors_with_stats(p, k).expect("oracle");
                    let (got, got_stats) = tree.nearest_neighbors_with_stats(p, k).expect("knn");
                    assert_eq!(got.len(), want.len(), "{label} p{pi} k{k}");
                    for ((gi, gd), (wi, wd)) in got.iter().zip(&want) {
                        assert_eq!(gi, wi, "{label} p{pi} k{k}: item");
                        assert_eq!(gd.to_bits(), wd.to_bits(), "{label} p{pi} k{k}: dist bits");
                    }
                    assert_eq!(got_stats, want_stats, "{label} p{pi} k{k}: stats");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Random rectangles, random loader, random windows: the engines
    /// stay bit-identical on arbitrary inputs, not just the curated
    /// datasets above.
    #[test]
    fn engines_agree_on_arbitrary_inputs(
        raw in prop::collection::vec(
            (-50.0..50.0f64, -50.0..50.0f64, 0.0..10.0f64, 0.0..10.0f64),
            1..400,
        ),
        loader_idx in 0usize..5,
        qx in -60.0..60.0f64,
        qy in -60.0..60.0f64,
        qw in 0.0..40.0f64,
        qh in 0.0..40.0f64,
    ) {
        let items: Vec<Item<2>> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, w, h))| Item::new(Rect::xyxy(x, y, x + w, y + h), i as u32))
            .collect();
        let kind = LoaderKind::all()[loader_idx];
        let tree = build(kind, &items);
        let oracle = ReferenceEngine::new(&tree).expect("oracle");
        let q = Rect::xyxy(qx, qy, qx + qw, qy + qh);
        let (want, want_stats) = oracle.window_with_stats(&q).expect("oracle");
        let (got, got_stats) = tree.window_with_stats(&q).expect("window");
        prop_assert_eq!(got, want);
        prop_assert_eq!(got_stats, want_stats);
        let p = Point::new([qx, qy]);
        let (want_nn, want_nn_stats) = oracle.nearest_neighbors_with_stats(&p, 9).expect("oracle");
        let (got_nn, got_nn_stats) = tree.nearest_neighbors_with_stats(&p, 9).expect("knn");
        prop_assert_eq!(got_nn, want_nn);
        prop_assert_eq!(got_nn_stats, want_nn_stats);
    }
}

/// D = 3: 52-byte leaf records instead of 36. Random boxes (some
/// stored twice, so exact matches count copies) and points, every
/// loader; windows, counts, exact matches and k-NN against the scalar
/// reference.
#[test]
fn every_loader_matches_the_scalar_reference_in_three_dimensions() {
    let mut state = 0xD3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut boxes: Vec<Item<3>> = (0..1_200u32)
        .map(|i| {
            let lo: [f64; 3] = std::array::from_fn(|_| next() * 100.0);
            let hi: [f64; 3] = std::array::from_fn(|d| lo[d] + next() * 6.0);
            Item::new(Rect::new(lo, hi), i)
        })
        .collect();
    let twins: Vec<Item<3>> = boxes.iter().copied().step_by(9).collect();
    boxes.extend(twins);
    let points: Vec<Item<3>> = (0..900u32)
        .map(|i| {
            let p: [f64; 3] = std::array::from_fn(|_| (next() * 50.0).floor());
            Item::new(Rect::new(p, p), i)
        })
        .collect();
    let queries: Vec<Rect<3>> = (0..24)
        .map(|i| {
            let side = [1.0, 8.0, 30.0, 70.0][i % 4];
            let lo: [f64; 3] = std::array::from_fn(|_| next() * (100.0 - side));
            Rect::new(lo, lo.map(|c| c + side))
        })
        .collect();

    for (data_name, items) in [("boxes", boxes), ("points", points)] {
        let domain = Rect::mbr_of(items.iter().map(|i| &i.rect));
        for kind in LoaderKind::all() {
            let params = TreeParams::with_cap::<3>(CAP);
            let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
            let tree = kind
                .loader::<3>()
                .load(dev, params, items.clone())
                .expect("bulk load");
            tree.warm_cache().expect("warm");
            let oracle = ReferenceEngine::new(&tree).expect("oracle");
            let mut scratch = QueryScratch::new();
            let mut out = Vec::new();
            let label = format!("{}/{data_name}/3d", kind.name());

            for (qi, q) in queries.iter().enumerate() {
                let (want, want_stats) = oracle.window_with_stats(q).expect("oracle window");
                let into_stats = tree.window_into(q, &mut scratch, &mut out).expect("into");
                assert_eq!(out, want, "{label} q{qi}: results (order included)");
                assert_eq!(into_stats, want_stats, "{label} q{qi}: QueryStats");
                let (n, count_stats) = tree.window_count_into(q, &mut scratch).expect("count");
                assert_eq!(n, want.len() as u64, "{label} q{qi}: count");
                assert_eq!(count_stats, want_stats, "{label} q{qi}: count stats");
            }

            // Exact match: the reference window on the victim's own box,
            // filtered by identity, counts the stored copies.
            for (vi, victim) in items.iter().step_by(37).enumerate() {
                let copies = oracle
                    .window_with_stats(&victim.rect)
                    .expect("oracle probe")
                    .0
                    .iter()
                    .filter(|it| same_identity(it, victim))
                    .count() as u64;
                let got = tree.count_exact(victim, &mut scratch).expect("exact");
                assert_eq!(got.results, copies, "{label} v{vi}: copies");
                assert!(copies >= 1, "{label} v{vi}: stored");
            }

            for (pi, p) in [
                Point::new(*domain.lo()),
                domain.center(),
                Point::new([domain.hi_at(0), domain.lo_at(1), domain.hi_at(2)]),
            ]
            .iter()
            .enumerate()
            {
                for k in [1usize, 7, 40] {
                    let (want, want_stats) =
                        oracle.nearest_neighbors_with_stats(p, k).expect("oracle");
                    let (got, got_stats) = tree.nearest_neighbors_with_stats(p, k).expect("knn");
                    assert_eq!(got.len(), want.len(), "{label} p{pi} k{k}");
                    for ((gi, gd), (wi, wd)) in got.iter().zip(&want) {
                        assert_eq!(gi, wi, "{label} p{pi} k{k}: item");
                        assert_eq!(gd.to_bits(), wd.to_bits(), "{label} p{pi} k{k}: dist bits");
                    }
                    assert_eq!(got_stats, want_stats, "{label} p{pi} k{k}: stats");
                }
            }
        }
    }
}
