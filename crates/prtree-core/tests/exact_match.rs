//! The delete probe — `RTree::count_exact` behind `RTree::may_contain`'s
//! membership filter — must count exactly what the window probe it
//! replaced counted: a window query on the victim's own rectangle,
//! filtered by `same_identity`. That window probe is kept here only as
//! the oracle, beside a brute-force scan. All five loaders, D = 2 and 3:
//! identities stored one to four times (aliased copies), coordinates of
//! both zero signs, and absent victims. The descent opens no more leaves
//! than the window did, and a filter never says "absent" for a stored
//! identity, not even after a Guttman update cleared it.

use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Rect};
use pr_tree::bulk::LoaderKind;
use pr_tree::dynamic::same_identity;
use pr_tree::{QueryScratch, RTree, TreeParams};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A coordinate on a coarse grid, so boxes touch and nest often; zero
/// comes with either sign.
fn coord(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..8) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-20i32..20) as f64 * 0.5,
    }
}

fn rect<const D: usize>(rng: &mut SmallRng) -> Rect<D> {
    let lo: [f64; D] = std::array::from_fn(|_| coord(rng));
    let hi: [f64; D] = std::array::from_fn(|d| lo[d] + [0.0, 0.5, 2.0][rng.gen_range(0..3)]);
    Rect::new(lo, hi)
}

/// The same identity with one zero's sign flipped, if it has a zero.
fn flip_zero<const D: usize>(it: &Item<D>) -> Option<Item<D>> {
    let (mut lo, hi) = (*it.rect.lo(), *it.rect.hi());
    let d = (0..D).find(|&d| lo[d] == 0.0)?;
    lo[d] = -lo[d];
    Some(Item::new(Rect::new(lo, hi), it.id))
}

/// Stored items (each identity 1–4 times; some ids reused with a
/// sign-flipped twin rectangle) and the victims to probe: every stored
/// identity plus absent ones.
fn dataset<const D: usize>(seed: u64, n: usize) -> (Vec<Item<D>>, Vec<Item<D>>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut stored = Vec::new();
    let mut victims = Vec::new();
    for id in 0..n as u32 {
        let it = Item::new(rect::<D>(&mut rng), id);
        let copies = rng.gen_range(1..5);
        stored.extend(std::iter::repeat_n(it, copies));
        victims.push(it);
        if let Some(twin) = flip_zero(&it) {
            if rng.gen_bool(0.3) {
                stored.push(twin); // same id, distinct identity
            }
            victims.push(twin);
        }
        // Absent: an unused id on a stored rectangle, and a stored id
        // on a rectangle nobody stored.
        victims.push(Item::new(it.rect, id + 1_000_000));
        victims.push(Item::new(rect::<D>(&mut rng), id));
    }
    (stored, victims)
}

fn build<const D: usize>(kind: LoaderKind, items: &[Item<D>], cap: usize) -> RTree<D> {
    let params = TreeParams::with_cap::<D>(cap);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = kind
        .loader::<D>()
        .load(dev, params, items.to_vec())
        .expect("bulk load");
    tree.warm_cache().expect("warm");
    tree
}

/// Checks every victim against the window oracle and brute force;
/// returns the leaves (exact descent, window probe) summed over victims.
fn check<const D: usize>(seed: u64, n: usize, cap: usize) -> (u64, u64) {
    let (stored, victims) = dataset::<D>(seed, n);
    let (mut exact_leaves, mut window_leaves) = (0, 0);
    for kind in LoaderKind::all() {
        let tree = build(kind, &stored, cap);
        let mut scratch = QueryScratch::new();
        let mut hits = Vec::new();
        for v in &victims {
            let brute = stored.iter().filter(|s| same_identity(s, v)).count() as u64;
            // The window probe this replaced, kept as the oracle.
            let window = tree.window_into(&v.rect, &mut scratch, &mut hits).unwrap();
            let oracle = hits.iter().filter(|h| same_identity(h, v)).count() as u64;
            let stats = tree.count_exact(v, &mut scratch).unwrap();
            let label = format!("{} D={D} seed={seed} victim {v:?}", kind.name());
            assert_eq!(oracle, brute, "{label}: window oracle");
            assert_eq!(stats.results, brute, "{label}: count_exact");
            assert!(
                stats.leaves_visited <= window.leaves_visited,
                "{label}: {} leaves against the window's {}",
                stats.leaves_visited,
                window.leaves_visited
            );
            if brute > 0 {
                assert!(
                    tree.may_contain(v, &mut scratch).unwrap(),
                    "{label}: filter"
                );
            }
            exact_leaves += stats.leaves_visited;
            window_leaves += window.leaves_visited;
        }
        assert_eq!(
            tree.filter_bytes() > 0,
            !stored.is_empty(),
            "built by a probe"
        );
    }
    (exact_leaves, window_leaves)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn count_exact_matches_the_window_probe_2d(
        seed in 0u64..1 << 40,
        n in 0usize..160,
        cap in 2usize..10,
    ) {
        check::<2>(seed, n, cap);
    }

    #[test]
    fn count_exact_matches_the_window_probe_3d(
        seed in 0u64..1 << 40,
        n in 0usize..120,
        cap in 2usize..10,
    ) {
        check::<3>(seed, n, cap);
    }
}

/// The descent is not only no worse: on touching grid data it opens
/// clearly fewer leaves than the window probe did.
#[test]
fn count_exact_opens_fewer_leaves_than_the_window_probe() {
    let (exact, window) = check::<2>(0x5EED, 400, 6);
    assert!(exact * 2 < window, "{exact} exact-match leaves vs {window}");
}

/// A filter is cleared by the node write of a Guttman update and
/// rebuilt on the next probe, so an item inserted after a probe is
/// still found (and one deleted after it is no longer counted).
#[test]
fn a_guttman_update_after_a_probe_is_seen() {
    let (stored, _) = dataset::<2>(41, 200);
    let mut tree = build(LoaderKind::Pr, &stored, 6);
    let mut scratch = QueryScratch::new();
    let late = Item::new(Rect::xyxy(3.25, 3.25, 3.75, 4.0), 7_777);
    assert!(!tree.may_contain(&late, &mut scratch).unwrap());
    assert!(tree.filter_bytes() > 0);

    tree.insert(late).unwrap();
    assert_eq!(tree.filter_bytes(), 0, "the node write dropped the filter");
    assert!(tree.may_contain(&late, &mut scratch).unwrap());
    assert_eq!(tree.count_exact(&late, &mut scratch).unwrap().results, 1);
    for it in &stored {
        assert!(tree.may_contain(it, &mut scratch).unwrap(), "{it:?}");
    }

    assert!(tree.delete(&late).unwrap());
    assert_eq!(tree.count_exact(&late, &mut scratch).unwrap().results, 0);
}
