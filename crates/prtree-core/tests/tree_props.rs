//! Property-based tests for the tree crate: every loader must be a
//! *correct index* (complete and sound) on arbitrary inputs, and dynamic
//! updates must preserve that.

use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Rect};
use pr_tree::bulk::LoaderKind;
use pr_tree::pseudo::PseudoPrTree;
use pr_tree::{RTree, TreeParams};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_items(max: usize) -> impl Strategy<Value = Vec<Item<2>>> {
    prop::collection::vec(
        (
            -100.0..100.0f64,
            -100.0..100.0f64,
            0.0..20.0f64,
            0.0..20.0f64,
        ),
        0..max,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (x, y, w, h))| Item::new(Rect::xyxy(x, y, x + w, y + h), i as u32))
            .collect()
    })
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

fn build(kind: LoaderKind, items: &[Item<2>], cap: usize) -> RTree<2> {
    let params = TreeParams::with_cap::<2>(cap);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    kind.loader::<2>()
        .load(dev, params, items.to_vec())
        .expect("bulk load")
}

fn brute(items: &[Item<2>], q: &Rect<2>) -> Vec<u32> {
    let mut ids: Vec<u32> = items
        .iter()
        .filter(|i| i.rect.intersects(q))
        .map(|i| i.id)
        .collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness + completeness of every loader on arbitrary rectangles.
    #[test]
    fn all_loaders_are_correct_indexes(
        items in arb_items(300),
        q in arb_query(),
        cap in 2usize..12,
    ) {
        let want = brute(&items, &q);
        for kind in LoaderKind::all() {
            let tree = build(kind, &items, cap);
            let report = tree.validate().unwrap();
            prop_assert!(report.is_ok(), "{}: {:?}", kind.name(), report.errors);
            let mut got: Vec<u32> = tree.window(&q).unwrap().iter().map(|i| i.id).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "{} wrong on {:?}", kind.name(), q);
        }
    }

    /// The pseudo-PR-tree is also a correct index.
    #[test]
    fn pseudo_pr_tree_is_correct(
        items in arb_items(300),
        q in arb_query(),
        cap in 1usize..12,
    ) {
        let pseudo = PseudoPrTree::build(items.clone(), cap);
        prop_assert!(pseudo.max_leaf_len() <= cap.max(1));
        let mut got: Vec<u32> = pseudo.window(&q).iter().map(|i| i.id).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute(&items, &q));
    }

    /// Insert-then-delete round-trips to an equivalent index.
    #[test]
    fn insert_delete_roundtrip(
        items in arb_items(120),
        q in arb_query(),
    ) {
        let params = TreeParams::with_cap::<2>(4);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let mut tree = RTree::<2>::new_empty(dev, params).unwrap();
        for &it in &items {
            tree.insert(it).unwrap();
        }
        prop_assert_eq!(tree.len(), items.len() as u64);
        let mut got: Vec<u32> = tree.window(&q).unwrap().iter().map(|i| i.id).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute(&items, &q));
        // Delete the first half; the rest must remain queryable.
        let half = items.len() / 2;
        for it in &items[..half] {
            prop_assert!(tree.delete(it).unwrap());
        }
        let report = tree.validate().unwrap();
        prop_assert!(report.is_ok(), "{:?}", report.errors);
        let mut got: Vec<u32> = tree.window(&q).unwrap().iter().map(|i| i.id).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute(&items[half..], &q));
    }

    /// Bulk-loaded trees preserve the exact item multiset.
    #[test]
    fn loaders_preserve_items(items in arb_items(250), cap in 2usize..10) {
        let mut want: Vec<u32> = items.iter().map(|i| i.id).collect();
        want.sort_unstable();
        for kind in LoaderKind::all() {
            let tree = build(kind, &items, cap);
            let mut got: Vec<u32> =
                tree.items().unwrap().iter().map(|i| i.id).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "{}", kind.name());
        }
    }
}
