//! k-NN over a whole snapshot — memtable, sealed batch and every
//! component under one k-th-distance bound and one tombstone filter.
//!
//! Two pins: a snapshot taken with a merge in flight (sealed batch
//! present, tombstones against it, an aliased reinsert in the memtable)
//! answers exactly like a brute-force scan of the live set; and the same
//! op trace through `pr_tree::dynamic::LprTree` and an inline-merge
//! `LiveIndex` gives identical `(id, dist bits)` lists and, for window
//! queries, identical result sets and leaf visits — the two frontends
//! of the logarithmic method share one search and one fan-out.

use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_live::{CrashPoint, LiveError, LiveIndex, LiveOptions};
use pr_tree::dynamic::LprTree;
use pr_tree::query::brute_force_window;
use pr_tree::{QueryScratch, TreeParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("pr-live-knn-{}", std::process::id()))
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn params() -> TreeParams {
    TreeParams::with_cap::<2>(8)
}

fn opts(buffer_cap: usize) -> LiveOptions {
    LiveOptions {
        buffer_cap,
        background_merge: false, // deterministic merge points
        ..LiveOptions::default()
    }
}

fn random_item(id: u32, rng: &mut SmallRng) -> Item<2> {
    let x: f64 = rng.gen_range(0.0..1000.0);
    let y: f64 = rng.gen_range(0.0..1000.0);
    let w: f64 = rng.gen_range(0.0..4.0);
    Item::new(Rect::xyxy(x, y, x + w, y + w), id)
}

fn random_point(rng: &mut SmallRng) -> Point<2> {
    Point::new([rng.gen_range(-50.0..1050.0), rng.gen_range(-50.0..1050.0)])
}

fn id_and_bits(nn: &[(Item<2>, f64)]) -> Vec<(u32, u64)> {
    nn.iter().map(|(i, d)| (i.id, d.to_bits())).collect()
}

fn sorted_ids(items: &[Item<2>]) -> Vec<u32> {
    let mut ids: Vec<u32> = items.iter().map(|i| i.id).collect();
    ids.sort_unstable();
    ids
}

fn brute_knn(live: &[Item<2>], q: &Point<2>, k: usize) -> Vec<(u32, u64)> {
    let mut all: Vec<(u32, f64)> = live
        .iter()
        .map(|i| (i.id, i.rect.min_dist2(q).sqrt()))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
}

/// A merge that seals its batch and then dies before the store commit
/// leaves exactly the in-memory state of a merge in flight: a fresh
/// memtable, the sealed batch, the old components. Deletes then land on
/// sealed and component copies, and one deleted component item is
/// reinserted bit-identically (an aliased copy: dead in its component,
/// live in the memtable).
#[test]
fn knn_with_a_merge_in_flight_matches_oracle() {
    let dir = tmpdir("sealed");
    let ix = LiveIndex::<2>::create(&dir, params(), opts(32)).unwrap();
    let mut rng = SmallRng::seed_from_u64(31);
    let mut live: Vec<Item<2>> = (0..220).map(|id| random_item(id, &mut rng)).collect();
    ix.insert_batch(&live[..200]).unwrap();
    ix.flush().unwrap();
    ix.insert_batch(&live[200..]).unwrap();
    ix.inject_crash(CrashPoint::BeforeCommit);
    match ix.flush() {
        Err(LiveError::Injected(_)) => {}
        other => panic!("expected the injected abort, got {other:?}"),
    }

    let reborn = live[3];
    for victim in [3usize, 50, 120, 205, 210] {
        assert!(ix.delete(&live[victim]).unwrap());
    }
    live.retain(|i| ![3, 50, 120, 205, 210].contains(&i.id));
    ix.insert(reborn).unwrap();
    live.push(reborn);
    for id in 220..230 {
        let item = random_item(id, &mut rng);
        ix.insert(item).unwrap();
        live.push(item);
    }

    let stats = ix.stats().unwrap();
    assert_eq!(
        stats.sealed, 20,
        "the aborted merge's batch is still sealed"
    );
    assert_eq!(stats.memtable, 11);
    assert!(!stats.components.is_empty() && stats.tombstones == 5);
    let snap = ix.snapshot();
    assert_eq!(snap.len(), live.len() as u64);

    let mut points: Vec<Point<2>> = (0..20).map(|_| random_point(&mut rng)).collect();
    // On top of the aliased pair, a sealed item and a memtable item.
    points.extend([reborn, live[200], live[live.len() - 1]].map(|i| i.rect.center()));
    let mut scratch = QueryScratch::new();
    let mut nn = Vec::new();
    for q in &points {
        for k in [0, 1, 10, 40, live.len(), usize::MAX] {
            snap.nearest_neighbors_into(q, k, &mut scratch, &mut nn)
                .unwrap();
            assert_eq!(id_and_bits(&nn), brute_knn(&live, q, k), "k={k} q={q:?}");
        }
    }
}

/// ROADMAP item 2's pin: one insert / delete / reinsert trace through
/// both frontends of the logarithmic method, identical k-NN and window
/// answers at every checkpoint (and equal to the brute-force oracle, so
/// they cannot be wrong together), at identical leaf I/O.
#[test]
fn lpr_tree_and_live_index_give_identical_knn() {
    const CAP: usize = 16;
    let dir = tmpdir("differential");
    let live_ix = LiveIndex::<2>::create(&dir, params(), opts(CAP)).unwrap();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params().page_size));
    let mut lpr = LprTree::<2>::new(dev, params(), CAP);
    let mut rng = SmallRng::seed_from_u64(37);
    let mut live: Vec<Item<2>> = Vec::new();
    let mut graveyard: Vec<Item<2>> = Vec::new();
    let mut scratch = QueryScratch::new();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let (mut wa, mut wb) = (Vec::new(), Vec::new());
    for step in 0..1_200u32 {
        match rng.gen_range(0..10) {
            // Delete a random live item…
            0..=2 if !live.is_empty() => {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(lpr.delete(&victim).unwrap());
                assert!(live_ix.delete(&victim).unwrap());
                graveyard.push(victim);
            }
            // …bring a dead one back bit-identically (aliased copies)…
            3 if !graveyard.is_empty() => {
                let reborn = graveyard.swap_remove(rng.gen_range(0..graveyard.len()));
                lpr.insert(reborn).unwrap();
                live_ix.insert(reborn).unwrap();
                live.push(reborn);
            }
            // …or insert a fresh one.
            _ => {
                let item = random_item(step, &mut rng);
                lpr.insert(item).unwrap();
                live_ix.insert(item).unwrap();
                live.push(item);
            }
        }
        if step % 60 != 59 {
            continue;
        }
        assert_eq!(lpr.len(), live.len() as u64);
        let snap = live_ix.snapshot();
        assert_eq!(snap.len(), live.len() as u64);
        for _ in 0..6 {
            let q = random_point(&mut rng);
            for k in [1, 10, 50] {
                lpr.nearest_neighbors_into(&q, k, &mut scratch, &mut a)
                    .unwrap();
                snap.nearest_neighbors_into(&q, k, &mut scratch, &mut b)
                    .unwrap();
                assert_eq!(id_and_bits(&a), id_and_bits(&b), "step {step} k={k}");
                assert_eq!(
                    id_and_bits(&a),
                    brute_knn(&live, &q, k),
                    "step {step} k={k}"
                );
            }
            let [x, y] = q.0;
            for half in [5.0, 60.0, 400.0] {
                let w = Rect::xyxy(x - half, y - half, x + half, y + half);
                let sa = lpr.window_into(&w, &mut scratch, &mut wa).unwrap();
                let sb = snap.window_into(&w, &mut scratch, &mut wb).unwrap();
                let want = sorted_ids(&brute_force_window(&live, &w));
                assert_eq!(sorted_ids(&wa), want, "step {step} window {w:?}");
                assert_eq!(sorted_ids(&wb), want, "step {step} window {w:?}");
                assert_eq!(
                    (sa.leaves_visited, sa.results),
                    (sb.leaves_visited, sb.results),
                    "step {step} window {w:?}"
                );
            }
        }
    }
}

/// The membership filters never say "absent" for a stored copy. The
/// differential test's trace is replayed op for op (same seed, same
/// draws), and at each of its checkpoints every item stored in a
/// component — dead copies included — must pass that component's
/// filter, in both frontends. The filters checked were built by the
/// trace's own deletes.
#[test]
fn membership_filters_admit_every_stored_copy() {
    const CAP: usize = 16;
    let dir = tmpdir("filters");
    let live_ix = LiveIndex::<2>::create(&dir, params(), opts(CAP)).unwrap();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params().page_size));
    let mut lpr = LprTree::<2>::new(dev, params(), CAP);
    let mut rng = SmallRng::seed_from_u64(37);
    let mut live: Vec<Item<2>> = Vec::new();
    let mut graveyard: Vec<Item<2>> = Vec::new();
    let mut scratch = QueryScratch::new();
    let (mut checked, mut built_by_deletes) = (0u64, 0usize);
    for step in 0..1_200u32 {
        match rng.gen_range(0..10) {
            0..=2 if !live.is_empty() => {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(lpr.delete(&victim).unwrap());
                assert!(live_ix.delete(&victim).unwrap());
                graveyard.push(victim);
            }
            3 if !graveyard.is_empty() => {
                let reborn = graveyard.swap_remove(rng.gen_range(0..graveyard.len()));
                lpr.insert(reborn).unwrap();
                live_ix.insert(reborn).unwrap();
                live.push(reborn);
            }
            _ => {
                let item = random_item(step, &mut rng);
                lpr.insert(item).unwrap();
                live_ix.insert(item).unwrap();
                live.push(item);
            }
        }
        if step % 60 != 59 {
            continue;
        }
        // The differential test draws its query points here; draw them
        // too, so every later op matches its trace.
        for _ in 0..6 {
            random_point(&mut rng);
        }
        let snap = live_ix.snapshot();
        for (name, components) in [
            ("lpr", lpr.components().collect::<Vec<_>>()),
            ("live", snap.components().collect()),
        ] {
            built_by_deletes += components.iter().filter(|c| c.filter_bytes() > 0).count();
            for c in components {
                for it in c.items().unwrap() {
                    assert!(
                        c.may_contain(&it, &mut scratch).unwrap(),
                        "{name} step {step}: stored {it:?} rejected"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 10_000, "{checked} stored copies checked");
    assert!(built_by_deletes > 0, "no delete built a filter");
}
