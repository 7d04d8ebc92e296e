//! Edge cases every loader and the query engine must survive.

use pr_em::{BlockDevice, EmError, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_tree::bulk::LoaderKind;
use pr_tree::page::NodePage;
use pr_tree::{RTree, TreeParams};
use std::sync::Arc;

fn build(kind: LoaderKind, items: Vec<Item<2>>, cap: usize) -> RTree<2> {
    let params = TreeParams::with_cap::<2>(cap);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    kind.loader::<2>().load(dev, params, items).unwrap()
}

#[test]
fn single_item_trees() {
    let item = Item::new(Rect::xyxy(1.0, 2.0, 3.0, 4.0), 42);
    for kind in LoaderKind::all() {
        let t = build(kind, vec![item], 4);
        assert_eq!(t.height(), 1);
        assert_eq!(
            t.window(&Rect::xyxy(0.0, 0.0, 5.0, 5.0)).unwrap(),
            vec![item]
        );
        assert!(t
            .window(&Rect::xyxy(10.0, 10.0, 11.0, 11.0))
            .unwrap()
            .is_empty());
        t.validate().unwrap().assert_ok();
    }
}

#[test]
fn all_points_on_one_spot() {
    // Every coordinate identical: only id tie-breaks order anything.
    let items: Vec<Item<2>> = (0..300)
        .map(|i| Item::new(Rect::from_point(Point::new([7.0, 7.0])), i))
        .collect();
    for kind in LoaderKind::all() {
        let t = build(kind, items.clone(), 8);
        t.validate().unwrap().assert_ok();
        assert_eq!(
            t.window(&Rect::xyxy(7.0, 7.0, 7.0, 7.0)).unwrap().len(),
            300,
            "{}",
            kind.name()
        );
        // High utilization even in the fully degenerate case.
        assert!(t.stats().unwrap().leaf_utilization() > 0.9);
    }
}

#[test]
fn collinear_points() {
    // All on a horizontal line: one spatial dimension is degenerate.
    let items: Vec<Item<2>> = (0..500)
        .map(|i| Item::new(Rect::from_point(Point::new([i as f64, 5.0])), i))
        .collect();
    for kind in LoaderKind::all() {
        let t = build(kind, items.clone(), 8);
        t.validate().unwrap().assert_ok();
        let hits = t.window(&Rect::xyxy(100.0, 0.0, 200.0, 10.0)).unwrap();
        assert_eq!(hits.len(), 101, "{}", kind.name());
    }
}

#[test]
fn huge_coordinate_magnitudes() {
    let items: Vec<Item<2>> = (0..200)
        .map(|i| {
            let x = 1e15 + i as f64 * 1e9;
            Item::new(Rect::xyxy(x, -1e15, x + 1e8, -1e15 + 1e8), i)
        })
        .collect();
    for kind in LoaderKind::all() {
        let t = build(kind, items.clone(), 8);
        t.validate().unwrap().assert_ok();
        let q = Rect::xyxy(1e15, -2e15, 1e15 + 50.5e9, 0.0);
        let want = items.iter().filter(|i| i.rect.intersects(&q)).count();
        assert_eq!(t.window(&q).unwrap().len(), want, "{}", kind.name());
    }
}

#[test]
fn query_window_is_a_point_or_line() {
    let items: Vec<Item<2>> = (0..400)
        .map(|i| {
            let x = (i % 20) as f64;
            let y = (i / 20) as f64;
            Item::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), i)
        })
        .collect();
    let t = build(LoaderKind::Pr, items.clone(), 8);
    // Point query in the interior: overlapping unit squares.
    let p = Rect::from_point(Point::new([5.5, 5.5]));
    let want = items.iter().filter(|i| i.rect.intersects(&p)).count();
    assert_eq!(t.window(&p).unwrap().len(), want);
    // Degenerate vertical line.
    let l = Rect::xyxy(5.0, 0.0, 5.0, 100.0);
    let want = items.iter().filter(|i| i.rect.intersects(&l)).count();
    assert_eq!(t.window(&l).unwrap().len(), want);
}

#[test]
fn tree_shared_across_threads_for_queries() {
    // RTree queries take &self; concurrent readers must be safe.
    let items: Vec<Item<2>> = (0..5_000)
        .map(|i| {
            let x = (i % 100) as f64;
            let y = (i / 100) as f64;
            Item::new(Rect::xyxy(x, y, x + 0.5, y + 0.5), i)
        })
        .collect();
    let t = Arc::new(build(LoaderKind::Pr, items, 16));
    t.warm_cache().unwrap();
    std::thread::scope(|s| {
        for tid in 0..4 {
            let t = Arc::clone(&t);
            s.spawn(move || {
                for k in 0..50 {
                    let x = ((tid * 50 + k) % 90) as f64;
                    let hits = t.window(&Rect::xyxy(x, 0.0, x + 5.0, 50.0)).unwrap();
                    assert!(!hits.is_empty());
                }
            });
        }
    });
}

#[test]
fn corrupt_page_surfaces_as_error_through_queries() {
    let items: Vec<Item<2>> = (0..100)
        .map(|i| Item::new(Rect::from_point(Point::new([i as f64, 0.0])), i))
        .collect();
    let params = TreeParams::with_cap::<2>(8);
    let dev = Arc::new(MemDevice::new(params.page_size));
    let t = LoaderKind::Pr
        .loader::<2>()
        .load(Arc::clone(&dev) as Arc<dyn BlockDevice>, params, items)
        .unwrap();
    // Smash the root page on the device.
    let garbage = vec![0xFFu8; params.page_size];
    dev.write_block(t.root(), &garbage).unwrap();
    // A fresh handle on the device is cold, so the query reads the root.
    let t = RTree::<2>::from_parts(dev, t.meta()).unwrap();
    let err = t.window(&Rect::xyxy(0.0, 0.0, 10.0, 10.0)).unwrap_err();
    assert!(matches!(err, EmError::Corrupt(_)), "got {err:?}");
}

#[test]
fn max_fanout_pages_encode_at_paper_size() {
    // A full 113-entry node round-trips through a real 4KB page.
    let params = TreeParams::paper_2d();
    let entries: Vec<pr_tree::Entry<2>> = (0..params.leaf_cap as u32)
        .map(|i| pr_tree::Entry::new(Rect::xyxy(i as f64, 0.0, i as f64 + 1.0, 1.0), i))
        .collect();
    let dev = MemDevice::new(params.page_size);
    let page = NodePage::new(0, entries.clone()).append(&dev).unwrap();
    let back = NodePage::<2>::read(&dev, page).unwrap();
    assert_eq!(back.entries, entries);
}
