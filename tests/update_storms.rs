//! Integration: dynamic maintenance on bulk-loaded trees and the
//! LPR-tree, cross-checked against a naive reference index.

use pr_data::uniform_points;
use prtree::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn brute(items: &[Item<2>], q: &Rect<2>) -> Vec<u32> {
    let mut ids: Vec<u32> = items
        .iter()
        .filter(|i| i.rect.intersects(q))
        .map(|i| i.id)
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn every_bulk_loaded_variant_survives_update_storms() {
    let params = TreeParams::with_cap::<2>(8);
    let items = uniform_points(800, 1);
    for kind in LoaderKind::all() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let mut tree = kind.loader::<2>().load(dev, params, items.clone()).unwrap();
        let mut reference = items.clone();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut next_id = 100_000u32;
        for _ in 0..400 {
            if rng.gen_bool(0.5) && !reference.is_empty() {
                let idx = rng.gen_range(0..reference.len());
                let victim = reference.swap_remove(idx);
                assert!(
                    tree.delete(&victim).unwrap(),
                    "{}: delete failed",
                    kind.name()
                );
            } else {
                let x: f64 = rng.gen_range(0.0..1.0);
                let y: f64 = rng.gen_range(0.0..1.0);
                let it = Item::new(Rect::xyxy(x, y, x, y), next_id);
                next_id += 1;
                tree.insert(it).unwrap();
                reference.push(it);
            }
        }
        tree.validate().unwrap().assert_ok();
        let q = Rect::xyxy(0.2, 0.2, 0.7, 0.7);
        let mut got: Vec<u32> = tree.window(&q).unwrap().iter().map(|i| i.id).collect();
        got.sort_unstable();
        assert_eq!(got, brute(&reference, &q), "{}", kind.name());
    }
}

#[test]
fn lpr_tree_matches_rtree_under_identical_op_stream() {
    let params = TreeParams::with_cap::<2>(8);
    let dev1: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let mut guttman = RTree::<2>::new_empty(dev1, params).unwrap();
    let dev2: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let mut lpr = LprTree::<2>::new(dev2, params, 32);
    let mut reference: Vec<Item<2>> = Vec::new();
    let mut rng = SmallRng::seed_from_u64(99);
    let mut next_id = 0u32;

    for step in 0..1200 {
        if reference.is_empty() || rng.gen_bool(0.6) {
            let x: f64 = rng.gen_range(0.0..1.0);
            let y: f64 = rng.gen_range(0.0..1.0);
            let it = Item::new(Rect::xyxy(x, y, x, y), next_id);
            next_id += 1;
            guttman.insert(it).unwrap();
            lpr.insert(it).unwrap();
            reference.push(it);
        } else {
            let idx = rng.gen_range(0..reference.len());
            let victim = reference.swap_remove(idx);
            assert!(guttman.delete(&victim).unwrap());
            assert!(lpr.delete(&victim).unwrap());
        }
        if step % 200 == 199 {
            let q = Rect::xyxy(0.1, 0.3, 0.6, 0.9);
            let want = brute(&reference, &q);
            let mut a: Vec<u32> = guttman.window(&q).unwrap().iter().map(|i| i.id).collect();
            a.sort_unstable();
            assert_eq!(a, want, "guttman at step {step}");
            let (hits, _) = lpr.window(&q).unwrap();
            let mut b: Vec<u32> = hits.iter().map(|i| i.id).collect();
            b.sort_unstable();
            assert_eq!(b, want, "lpr at step {step}");
        }
    }
    assert_eq!(guttman.len(), reference.len() as u64);
    assert_eq!(lpr.len(), reference.len() as u64);
}

#[test]
fn updates_preserve_query_correctness_on_rectangles_not_just_points() {
    let params = TreeParams::with_cap::<2>(6);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let mut tree = RTree::<2>::new_empty(dev, params).unwrap();
    let mut rng = SmallRng::seed_from_u64(3);
    let mut reference = Vec::new();
    for id in 0..500u32 {
        let x: f64 = rng.gen_range(0.0..10.0);
        let y: f64 = rng.gen_range(0.0..10.0);
        let w: f64 = rng.gen_range(0.0..3.0); // overlapping rects
        let h: f64 = rng.gen_range(0.0..3.0);
        let it = Item::new(Rect::xyxy(x, y, x + w, y + h), id);
        tree.insert(it).unwrap();
        reference.push(it);
    }
    // Delete every third.
    for it in reference.iter().step_by(3) {
        assert!(tree.delete(it).unwrap());
    }
    let survivors: Vec<Item<2>> = reference
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, &it)| it)
        .collect();
    tree.validate().unwrap().assert_ok();
    for q in [
        Rect::xyxy(0.0, 0.0, 5.0, 5.0),
        Rect::xyxy(7.0, 7.0, 13.0, 13.0),
        Rect::xyxy(4.9, 0.0, 5.1, 10.0),
    ] {
        let mut got: Vec<u32> = tree.window(&q).unwrap().iter().map(|i| i.id).collect();
        got.sort_unstable();
        assert_eq!(got, brute(&survivors, &q));
    }
}
