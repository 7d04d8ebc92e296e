//! Behavioral regression tests for the dynamized (LPR) tree, focused on
//! the tombstone-accounting corner cases the id-keyed implementation got
//! wrong: delete-then-reinsert of the same item id must not let a stale
//! tombstone shadow the new item, reject its deletion, or skew the
//! compaction trigger — and for the merge plan and drain its
//! `ComponentSet` shares with `pr-live`.

use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::BulkLoader;
use pr_tree::dynamic::components::drain;
use pr_tree::dynamic::{Component, ComponentSet, LooseItems, LprTree, MergePlan, Tombstones};
use pr_tree::query::brute_force_window;
use pr_tree::{QueryScratch, TreeParams};
use std::sync::Arc;

fn everything() -> Rect<2> {
    Rect::xyxy(-1000.0, -1000.0, 1000.0, 1000.0)
}

fn make(buffer_cap: usize) -> LprTree<2> {
    let params = TreeParams::with_cap::<2>(8);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    LprTree::new(dev, params, buffer_cap)
}

fn item(id: u32, x: f64) -> Item<2> {
    Item::new(Rect::xyxy(x, 0.0, x + 1.0, 1.0), id)
}

/// Pushes enough disposable items to force the buffer into components.
fn drain_buffer(t: &mut LprTree<2>, pad_base: u32) {
    let mut pad = pad_base;
    while {
        let (got, _) = t.window(&everything()).unwrap();
        got.len() as u64 != t.len() || t.num_components() == 0
    } {
        t.insert(item(pad, 500.0)).unwrap();
        pad += 1;
        if pad - pad_base > 64 {
            break;
        }
    }
}

/// The original bug: delete an item stored in a component, then reinsert
/// the same id with a *different* rectangle. The stale id-keyed
/// tombstone used to shadow the reinserted item once it was flushed into
/// a component.
#[test]
fn delete_then_reinsert_same_id_different_rect() {
    let mut t = make(4);
    for id in 0..8 {
        t.insert(item(id, id as f64 * 10.0)).unwrap();
    }
    // id 0 now lives in a component (cap 4 ⇒ at least one flush).
    assert!(t.num_components() >= 1);
    assert!(t.delete(&item(0, 0.0)).unwrap());
    // Reinsert id 0 elsewhere, then force it into a component too.
    let reborn = item(0, 77.0);
    t.insert(reborn).unwrap();
    for id in 100..108 {
        t.insert(item(id, id as f64)).unwrap();
    }
    let (got, _) = t.window(&Rect::xyxy(76.0, 0.0, 79.0, 1.0)).unwrap();
    assert_eq!(got, vec![reborn], "reinserted id 0 shadowed by tombstone");
    // The old rectangle really is gone.
    let (gone, _) = t.window(&Rect::xyxy(0.0, 0.0, 1.5, 1.0)).unwrap();
    assert!(gone.iter().all(|i| i.id != 0), "dead copy resurrected");
    // And the reborn item is deletable (the id-keyed set said "already
    // dead" here).
    assert!(t.delete(&reborn).unwrap(), "reinserted item not deletable");
    assert!(!t.delete(&reborn).unwrap());
}

/// The aliased case: delete and reinsert a bit-identical item. One dead
/// and one live copy of the same (id, rect) can coexist in different
/// components; queries must report exactly one.
#[test]
fn delete_then_reinsert_identical_item() {
    let mut t = make(4);
    let x = item(3, 30.0);
    for id in 0..8 {
        t.insert(item(id, id as f64 * 10.0)).unwrap();
    }
    assert!(t.delete(&x).unwrap());
    t.insert(x).unwrap();
    // Flush the reborn copy into a component; the dead copy may sit in a
    // different (larger) component.
    for id in 200..216 {
        t.insert(item(id, 300.0 + id as f64)).unwrap();
    }
    let (got, _) = t.window(&Rect::xyxy(29.0, 0.0, 32.0, 1.0)).unwrap();
    assert_eq!(got, vec![x], "want exactly one copy, got {got:?}");
    assert_eq!(t.len(), 8 + 16);
    // Deleting it again succeeds exactly once.
    assert!(t.delete(&x).unwrap());
    assert!(!t.delete(&x).unwrap());
    let (got, _) = t.window(&Rect::xyxy(29.0, 0.0, 32.0, 1.0)).unwrap();
    assert!(got.is_empty(), "both copies should now be dead: {got:?}");
}

/// Compaction accounting under delete/reinsert churn: `len()`, the
/// window results, and the brute-force oracle must agree at every step.
#[test]
fn churn_on_one_id_matches_oracle() {
    let mut t = make(4);
    let mut oracle: Vec<Item<2>> = Vec::new();
    for id in 0..12 {
        let it = item(id, id as f64 * 5.0);
        t.insert(it).unwrap();
        oracle.push(it);
    }
    // Hammer a single id through delete/reinsert cycles at shifting
    // positions while other ids pad the components.
    for round in 0..40u32 {
        let victim = oracle
            .iter()
            .position(|i| i.id == 5)
            .map(|p| oracle.swap_remove(p));
        if let Some(v) = victim {
            assert!(t.delete(&v).unwrap(), "round {round}: delete failed");
        }
        let reborn = item(5, (round % 7) as f64 * 11.0);
        t.insert(reborn).unwrap();
        oracle.push(reborn);
        let pad = item(1000 + round, 900.0);
        t.insert(pad).unwrap();
        oracle.push(pad);

        assert_eq!(t.len(), oracle.len() as u64, "round {round}: len drifted");
        let (mut got, _) = t.window(&everything()).unwrap();
        let mut want = brute_force_window(&oracle, &everything());
        got.sort_by(|a, b| {
            (a.id, a.rect.lo_at(0).to_bits()).cmp(&(b.id, b.rect.lo_at(0).to_bits()))
        });
        want.sort_by(|a, b| {
            (a.id, a.rect.lo_at(0).to_bits()).cmp(&(b.id, b.rect.lo_at(0).to_bits()))
        });
        assert_eq!(got, want, "round {round}");
    }
}

/// The decode-free fan-out path: a shared scratch threaded through every
/// component gives results identical to the allocating convenience
/// wrapper, and k-NN agrees with a brute-force oracle after deletes.
#[test]
fn scratch_reuse_and_knn_match_oracle() {
    let mut t = make(8);
    let mut oracle = Vec::new();
    for id in 0..120 {
        let it = item(id, (id as f64 * 7.3) % 100.0);
        t.insert(it).unwrap();
        oracle.push(it);
    }
    for it in oracle.clone().iter().step_by(3) {
        assert!(t.delete(it).unwrap());
    }
    oracle = oracle
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, it)| *it)
        .collect();

    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    for q in [
        Rect::xyxy(0.0, 0.0, 25.0, 1.0),
        Rect::xyxy(30.0, 0.0, 60.0, 1.0),
        everything(),
    ] {
        t.window_into(&q, &mut scratch, &mut out).unwrap();
        let mut got = out.clone();
        let (mut plain, _) = t.window(&q).unwrap();
        let mut want = brute_force_window(&oracle, &q);
        got.sort_by_key(|i| i.id);
        plain.sort_by_key(|i| i.id);
        want.sort_by_key(|i| i.id);
        assert_eq!(got, want);
        assert_eq!(plain, want);
    }

    // k-NN: distances must match a scan over the live oracle.
    let q = Point::new([50.0, 0.5]);
    let mut nn = Vec::new();
    t.nearest_neighbors_into(&q, 10, &mut scratch, &mut nn)
        .unwrap();
    assert_eq!(nn.len(), 10);
    let mut want: Vec<(u32, f64)> = oracle
        .iter()
        .map(|i| (i.id, i.rect.min_dist2(&q).sqrt()))
        .collect();
    want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let got: Vec<(u32, f64)> = nn.iter().map(|(i, d)| (i.id, *d)).collect();
    assert_eq!(got, want[..10].to_vec());
    // Distances are non-decreasing.
    assert!(nn.windows(2).all(|w| w[0].1 <= w[1].1));
}

/// Tombstone-aware k-NN: with heavy tombstones the best-first loop
/// filters dead heads in place instead of over-fetching every component
/// by the outstanding tombstone count. Pins both the answer (oracle
/// over survivors) and the leaf-visit count — the over-fetch
/// implementation had to materialize `k + tombstones` items per
/// component, a hard lower bound on its leaf reads that the filtered
/// traversal must beat decisively.
#[test]
fn tombstone_aware_knn_visits_few_leaves() {
    let cap = 16;
    let mut t = make(cap);
    let mut all = Vec::new();
    // 512 items on a deterministic pseudo-grid; multiples of the buffer
    // cap, so every item ends up inside a component (empty buffer).
    for id in 0..512u32 {
        let it = item(id, (id as f64 * 13.37) % 400.0);
        t.insert(it).unwrap();
        all.push(it);
    }
    // Kill just under half — heavy, but below the 50% compaction
    // trigger, so the tombstones stay outstanding.
    let mut survivors = Vec::new();
    let mut dead = 0u64;
    for (i, it) in all.iter().enumerate() {
        if i % 2 == 0 && dead * 2 + 2 <= 512 - 32 {
            assert!(t.delete(it).unwrap(), "missing {it:?}");
            dead += 1;
        } else {
            survivors.push(*it);
        }
    }
    assert!(
        t.num_tombstones() >= 200,
        "setup: wanted heavy tombstones, got {}",
        t.num_tombstones()
    );

    let k = 10usize;
    let q = Point::new([200.0, 0.5]);
    let mut scratch = QueryScratch::new();
    let mut nn = Vec::new();
    let stats = t
        .nearest_neighbors_into(&q, k, &mut scratch, &mut nn)
        .unwrap();

    // Exact answer: distances and (dist, id) order match the oracle.
    let mut want: Vec<(u32, f64)> = survivors
        .iter()
        .map(|i| (i.id, i.rect.min_dist2(&q).sqrt()))
        .collect();
    want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let got: Vec<(u32, f64)> = nn.iter().map(|(i, d)| (i.id, *d)).collect();
    assert_eq!(got, want[..k].to_vec());

    // The pin: the old over-fetch had to pull k + tombstones items out
    // of every non-empty component, i.e. at least
    // ceil((k + tombstones) / leaf_cap) leaves per component (more in
    // practice). The filtered traversal must come in well under that
    // floor — and under a flat fraction of all leaves.
    let leaf_cap = 8u64; // `make` builds with TreeParams::with_cap::<2>(8)
    let overfetch_floor =
        (k as u64 + t.num_tombstones()).div_ceil(leaf_cap) * t.num_components() as u64;
    assert!(
        stats.leaves_visited * 2 < overfetch_floor,
        "visited {} leaves; over-fetch floor was {overfetch_floor}",
        stats.leaves_visited
    );
}

/// Ensures `drain_buffer` (and thus the other tests' setup) really does
/// place items into components rather than silently looping forever.
#[test]
fn drain_buffer_helper_flushes() {
    let mut t = make(4);
    for id in 0..4 {
        t.insert(item(id, id as f64)).unwrap();
    }
    drain_buffer(&mut t, 9000);
    assert!(t.num_components() >= 1);
}

/// A slot's size without a tree behind it.
struct Held(u64);

impl Component for Held {
    fn stored(&self) -> u64 {
        self.0
    }
}

fn slots(sizes: &[u64]) -> ComponentSet<Held> {
    let mut set = ComponentSet::new(8);
    for (slot, &n) in sizes.iter().enumerate().filter(|(_, &n)| n > 0) {
        set.place(slot, Held(n));
    }
    set
}

fn after(set: &ComponentSet<Held>, plan: &MergePlan, target: usize) -> Vec<(usize, Option<u64>)> {
    let after = set.after_merge(plan, Some(target)).into_iter();
    after.map(|(slot, c)| (slot, c.map(|c| c.0))).collect()
}

/// A full batch over full slots lands in the first empty slot; over an
/// underfull slot it lands where that slot stands: `[1, 2]` + 8 → slot
/// 1, an occupied slot that is both an input and the target.
#[test]
fn a_merge_can_target_one_of_its_inputs() {
    let full = slots(&[8, 16]);
    let plan = full.plan(8);
    assert_eq!(full.target(&plan, 32), Some(2));
    assert_eq!(after(&full, &plan, 2), [(2, None)]);

    let mut underfull = slots(&[1, 2, 0, 0, 128]);
    let plan = underfull.plan(8);
    assert_eq!(underfull.target(&plan, 4), Some(1));
    assert_eq!(underfull.target(&plan, 0), None, "an all-dead drain");
    assert_eq!(after(&underfull, &plan, 1), [(1, None), (4, Some(128))]);
    underfull.install(&plan, Some((1, Held(4))));
    assert_eq!(underfull.layout(), [(1, 4), (4, 128)]);

    // A global rebuild drains every slot and places by drained size.
    let plan = underfull.plan_full();
    assert_eq!(underfull.target(&plan, 100), Some(4));
    assert!(underfull.after_merge(&plan, None).is_empty());
    assert!(!underfull.needs_compaction(66, 0) && underfull.needs_compaction(67, 0));
    assert!(
        !underfull.needs_compaction(67, 2),
        "a sealed batch counts as stored"
    );
}

/// The drain reads the loose batch first, so a reinsert whose dead twin
/// is stored consumes the tombstone and the stored copy survives.
#[test]
fn a_drained_reinsert_consumes_its_tombstone() {
    let (dead, fresh, other) = (item(1, 0.0), item(2, 5.0), item(3, 9.0));
    let params = TreeParams::with_cap::<2>(8);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = PrTreeLoader::default()
        .load(dev, params, vec![dead, other])
        .unwrap();
    let mut tombstones = Tombstones::new();
    tombstones.add(&dead);
    let inputs = [(3, &tree)].into_iter();
    let mut loose = LooseItems::new();
    loose.extend(&[dead, fresh]);
    let (items, consumed) = drain(&loose, inputs, &tombstones).unwrap();
    assert_eq!(items[0], fresh, "the reinsert was dropped");
    let mut stored = items[1..].to_vec();
    stored.sort_by_key(|i| i.id);
    assert_eq!(stored, [dead, other], "its stored twin survives");
    assert_eq!((consumed.total(), consumed.count(&dead)), (1, 1));
}
