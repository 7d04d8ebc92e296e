//! Property-based tests for the geometry kernel.

use pr_em::Record;
use pr_geom::{mapped, Axis, Item, Point, Rect};
use pr_tree::Entry;
use proptest::prelude::*;

fn arb_rect2() -> impl Strategy<Value = Rect<2>> {
    (
        -1000.0..1000.0f64,
        -1000.0..1000.0f64,
        0.0..100.0f64,
        0.0..100.0f64,
    )
        .prop_map(|(x, y, w, h)| Rect::xyxy(x, y, x + w, y + h))
}

fn arb_item2() -> impl Strategy<Value = Item<2>> {
    (arb_rect2(), any::<u32>()).prop_map(|(r, id)| Item::new(r, id))
}

proptest! {
    #[test]
    fn intersection_symmetric(a in arb_rect2(), b in arb_rect2()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn mbr_contains_both(a in arb_rect2(), b in arb_rect2()) {
        let m = a.mbr_with(&b);
        prop_assert!(m.contains_rect(&a));
        prop_assert!(m.contains_rect(&b));
        // MBR is minimal: every corner coordinate comes from a or b.
        for d in 0..2 {
            prop_assert!(m.lo_at(d) == a.lo_at(d) || m.lo_at(d) == b.lo_at(d));
            prop_assert!(m.hi_at(d) == a.hi_at(d) || m.hi_at(d) == b.hi_at(d));
        }
    }

    #[test]
    fn mbr_idempotent_and_commutative(a in arb_rect2(), b in arb_rect2()) {
        prop_assert_eq!(a.mbr_with(&a), a);
        prop_assert_eq!(a.mbr_with(&b), b.mbr_with(&a));
    }

    #[test]
    fn containment_implies_intersection(a in arb_rect2(), b in arb_rect2()) {
        if a.contains_rect(&b) {
            prop_assert!(a.intersects(&b));
            prop_assert!(a.area() >= b.area());
        }
    }

    #[test]
    fn enlargement_nonnegative(a in arb_rect2(), b in arb_rect2()) {
        prop_assert!(a.enlargement(&b) >= 0.0);
        prop_assert!(b.enlargement(&a) >= 0.0);
    }

    #[test]
    fn center_inside(a in arb_rect2()) {
        prop_assert!(a.contains_point(&a.center()));
    }

    /// Every item survives the 36-byte record codec bit for bit.
    #[test]
    fn encode_decode_roundtrip(item in arb_item2()) {
        let mut buf = [0u8; Entry::<2>::SIZE];
        Entry::from_item(item).encode(&mut buf);
        prop_assert_eq!(Entry::<2>::decode(&buf).to_item(), item);
    }

    #[test]
    fn axis_orderings_are_total_and_antisymmetric(
        a in arb_item2(), b in arb_item2(), axis in 0usize..4
    ) {
        use std::cmp::Ordering;
        let axis = Axis(axis);
        let ab = mapped::cmp_items_on_axis(axis, &a, &b);
        let ba = mapped::cmp_items_on_axis(axis, &b, &a);
        prop_assert_eq!(ab, ba.reverse());
        if a.id != b.id {
            prop_assert_ne!(ab, Ordering::Equal);
        }
        let eab = mapped::cmp_extreme_on_axis(axis, &a, &b);
        let eba = mapped::cmp_extreme_on_axis(axis, &b, &a);
        prop_assert_eq!(eab, eba.reverse());
    }

    #[test]
    fn extreme_ordering_agrees_with_coordinate(
        a in arb_item2(), b in arb_item2(), axis in 0usize..4
    ) {
        use std::cmp::Ordering;
        let axis = Axis(axis);
        let (ca, cb) = (axis.coord(&a.rect), axis.coord(&b.rect));
        if ca != cb {
            let expect = if axis.is_min_side::<2>() {
                ca.total_cmp(&cb)
            } else {
                cb.total_cmp(&ca)
            };
            prop_assert_eq!(mapped::cmp_extreme_on_axis(axis, &a, &b), expect);
            prop_assert_ne!(expect, Ordering::Equal);
        }
    }

    #[test]
    fn translated_preserves_measures(a in arb_rect2(), dx in -50.0..50.0f64, dy in -50.0..50.0f64) {
        let t = a.translated([dx, dy]);
        prop_assert!((t.area() - a.area()).abs() < 1e-6);
        prop_assert!((t.margin() - a.margin()).abs() < 1e-9);
    }

    #[test]
    fn point_queries_match_degenerate_rect_queries(a in arb_rect2(), x in -1100.0..1100.0f64, y in -1100.0..1100.0f64) {
        let p = Point::new([x, y]);
        prop_assert_eq!(a.contains_point(&p), a.intersects(&Rect::from_point(p)));
    }
}
