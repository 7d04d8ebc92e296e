//! k-NN over a whole snapshot — memtable, sealed batch and every
//! component under one k-th-distance bound and one tombstone filter.
//!
//! Two pins: a snapshot taken with a merge in flight (sealed batch
//! present, tombstones against it, an aliased reinsert in the memtable)
//! answers exactly like a brute-force scan of the live set; and the same
//! op trace through `pr_tree::dynamic::LprTree` and an inline-merge
//! `LiveIndex` gives identical slot layouts after every op and, at each
//! check, identical `(id, dist bits)` lists, window result sets and leaf
//! visits — the two frontends of the logarithmic method share one merge
//! plan, one drain, one search and one fan-out.
//!
//! The first pin kills a merge through `pr_em::fault`'s process-wide
//! hook, which a parallel test's merge would also hit at the same mark,
//! so every test here takes `fault::exclusive()` first.

use pr_em::fault::{self, FaultSchedule};
use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_live::{LiveError, LiveIndex, LiveOptions};
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
    let _hook = fault::exclusive();
    let dir = tmpdir("sealed");
    let ix = LiveIndex::<2>::create(&dir, params(), opts(32)).unwrap();
    let mut rng = SmallRng::seed_from_u64(31);
    let mut live: Vec<Item<2>> = (0..220).map(|id| random_item(id, &mut rng)).collect();
    ix.insert_batch(&live[..200]).unwrap();
    ix.flush().unwrap();
    ix.insert_batch(&live[200..]).unwrap();
    let cut = fault::install(FaultSchedule::die_at("merge.commit", 0));
    match ix.flush() {
        Err(LiveError::Io(e)) if e.raw_os_error() == Some(5) && fault::injected_count() > 0 => {}
        other => panic!("expected the injected power cut, got {other:?}"),
    }
    drop(cut);

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

/// One op of a differential trace.
enum Op {
    Insert(Item<2>),
    /// A run the live side applies as one `insert_batch` (STR-tiled
    /// chunks once it holds a chunk) and `LprTree` one item at a time
    /// (chunks in arrival order).
    InsertRun(Vec<Item<2>>),
    Delete(Item<2>),
    /// Compare both frontends' k-NN and window answers around each point.
    Check(Vec<Point<2>>),
}

/// Inserts, deletes of random live items and bit-identical reinserts of
/// dead ones (aliased copies), with a check every 60 ops: 1 200 ops
/// drawn from seed 37. Its slots stay full, so every merge lands in the
/// first empty slot.
fn random_trace() -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(37);
    let (mut live, mut graveyard) = (Vec::new(), Vec::new());
    let mut trace = Vec::new();
    for step in 0..1_200u32 {
        match rng.gen_range(0..10) {
            // Delete a random live item…
            0..=2 if !live.is_empty() => {
                let victim: Item<2> = live.swap_remove(rng.gen_range(0..live.len()));
                graveyard.push(victim);
                trace.push(Op::Delete(victim));
            }
            // …bring a dead one back bit-identically (aliased copies)…
            3 if !graveyard.is_empty() => {
                let reborn = graveyard.swap_remove(rng.gen_range(0..graveyard.len()));
                live.push(reborn);
                trace.push(Op::Insert(reborn));
            }
            // …or insert a fresh one.
            _ => {
                let item = random_item(step, &mut rng);
                live.push(item);
                trace.push(Op::Insert(item));
            }
        }
        if step % 60 == 59 {
            trace.push(Op::Check((0..6).map(|_| random_point(&mut rng)).collect()));
        }
    }
    trace
}

/// Underfull slots: 128 inserts fill slot 4 (buffer cap 8). Each of four
/// rounds then deletes 7 stored items, reinserts them and inserts one
/// new item. The reinserts consume their tombstones in the merge, so
/// each round's batch drains to one item. The layouts go `[0:1]`,
/// `[1:2]`, `[0:1, 1:2]` — and in round 3 the batch meets `[1, 2]`: it
/// lands in slot 1, both an input and the target (4 items), not in the
/// first empty slot 2.
fn underfull_trace() -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(41);
    let stored: Vec<Item<2>> = (0..128).map(|id| random_item(id, &mut rng)).collect();
    let mut trace: Vec<Op> = stored.iter().map(|&item| Op::Insert(item)).collect();
    for (round, victims) in stored.chunks(7).take(4).enumerate() {
        trace.extend(victims.iter().map(|&item| Op::Delete(item)));
        trace.extend(victims.iter().map(|&item| Op::Insert(item)));
        trace.push(Op::Insert(random_item(128 + round as u32, &mut rng)));
        trace.push(Op::Check((0..4).map(|_| random_point(&mut rng)).collect()));
    }
    trace
}

/// Insert runs of at least one chunk beside deletes. Each of eight
/// rounds inserts a run of 48 fresh items, deletes six random live ones
/// (memtable residents and stored copies), checks, then inserts a run
/// that fills the buffer to exactly its cap of 64. The live side merges
/// once per `insert_batch` that reaches the cap and `LprTree` at the
/// insert that does, so the fill run makes them merge at the same op.
fn tiled_trace() -> Vec<Op> {
    const CAP: usize = 64;
    let mut rng = SmallRng::seed_from_u64(43);
    let (mut live, mut buffered): (Vec<Item<2>>, Vec<Item<2>>) = (Vec::new(), Vec::new());
    let mut trace = Vec::new();
    let mut next_id = 0u32;
    for _ in 0..8 {
        for len in [48, 0] {
            let len = if len > 0 { len } else { CAP - buffered.len() };
            let run: Vec<Item<2>> = (next_id..next_id + len as u32)
                .map(|id| random_item(id, &mut rng))
                .collect();
            next_id += len as u32;
            live.extend(&run);
            buffered.extend(&run);
            trace.push(Op::InsertRun(run));
            if buffered.len() == CAP {
                buffered.clear();
                break;
            }
            for _ in 0..6 {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                buffered.retain(|i| *i != victim);
                trace.push(Op::Delete(victim));
            }
            trace.push(Op::Check((0..4).map(|_| random_point(&mut rng)).collect()));
        }
    }
    trace
}

/// ROADMAP item 1's pin: one op trace through both frontends of the
/// logarithmic method. After every op their slot layouts are equal —
/// the same merge plan, the same drain. At every check their k-NN and
/// window answers are identical (and equal to the brute-force oracle,
/// so they cannot be wrong together), at identical leaf I/O. Returns the
/// final layout.
fn run_differential(name: &str, cap: usize, trace: &[Op]) -> Vec<(usize, u64)> {
    let dir = tmpdir(name);
    let live_ix = LiveIndex::<2>::create(&dir, params(), opts(cap)).unwrap();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params().page_size));
    let mut lpr = LprTree::<2>::new(dev, params(), cap);
    let mut live: Vec<Item<2>> = Vec::new();
    let mut scratch = QueryScratch::new();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let (mut wa, mut wb) = (Vec::new(), Vec::new());
    for (step, op) in trace.iter().enumerate() {
        match op {
            Op::Insert(item) => {
                lpr.insert(*item).unwrap();
                live_ix.insert(*item).unwrap();
                live.push(*item);
            }
            Op::InsertRun(run) => {
                run.iter().for_each(|item| lpr.insert(*item).unwrap());
                live_ix.insert_batch(run).unwrap();
                live.extend(run);
            }
            Op::Delete(victim) => {
                assert!(lpr.delete(victim).unwrap());
                assert!(live_ix.delete(victim).unwrap());
                let pos = live.iter().position(|i| i == victim).unwrap();
                live.swap_remove(pos);
            }
            Op::Check(points) => {
                assert_eq!(lpr.len(), live.len() as u64);
                let snap = live_ix.snapshot();
                assert_eq!(snap.len(), live.len() as u64);
                for q in points {
                    for k in [1, 10, 50] {
                        lpr.nearest_neighbors_into(q, k, &mut scratch, &mut a)
                            .unwrap();
                        snap.nearest_neighbors_into(q, k, &mut scratch, &mut b)
                            .unwrap();
                        assert_eq!(id_and_bits(&a), id_and_bits(&b), "{name} op {step} k={k}");
                        assert_eq!(
                            id_and_bits(&a),
                            brute_knn(&live, q, k),
                            "{name} op {step} k={k}"
                        );
                    }
                    let [x, y] = q.0;
                    for half in [5.0, 60.0, 400.0] {
                        let w = Rect::xyxy(x - half, y - half, x + half, y + half);
                        let sa = lpr.window_into(&w, &mut scratch, &mut wa).unwrap();
                        let sb = snap.window_into(&w, &mut scratch, &mut wb).unwrap();
                        let want = sorted_ids(&brute_force_window(&live, &w));
                        assert_eq!(sorted_ids(&wa), want, "{name} op {step} window {w:?}");
                        assert_eq!(sorted_ids(&wb), want, "{name} op {step} window {w:?}");
                        assert_eq!(
                            (sa.leaves_visited, sa.results),
                            (sb.leaves_visited, sb.results),
                            "{name} op {step} window {w:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(
            lpr.layout(),
            live_ix.stats().unwrap().components,
            "{name} op {step}: slot layouts"
        );
    }
    lpr.layout()
}

#[test]
fn lpr_tree_and_live_index_give_identical_knn() {
    let _hook = fault::exclusive();
    run_differential("differential", 16, &random_trace());
    let underfull = run_differential("underfull", 8, &underfull_trace());
    assert_eq!(underfull, [(1, 4), (4, 128)]);
    run_differential("tiled", 64, &tiled_trace());
}

/// The membership filters never say "absent" for a stored copy. The
/// differential test's random trace is replayed op for op, and at each
/// of its checkpoints every item stored in a component — dead copies
/// included — must pass that component's filter, in both frontends. The
/// filters checked were built by the trace's own deletes.
#[test]
fn membership_filters_admit_every_stored_copy() {
    let _hook = fault::exclusive();
    const CAP: usize = 16;
    let dir = tmpdir("filters");
    let live_ix = LiveIndex::<2>::create(&dir, params(), opts(CAP)).unwrap();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params().page_size));
    let mut lpr = LprTree::<2>::new(dev, params(), CAP);
    let mut scratch = QueryScratch::new();
    let (mut checked, mut built_by_deletes) = (0u64, 0usize);
    for (step, op) in random_trace().iter().enumerate() {
        match op {
            Op::Insert(item) => {
                lpr.insert(*item).unwrap();
                live_ix.insert(*item).unwrap();
            }
            Op::InsertRun(_) => unreachable!("the random trace inserts one by one"),
            Op::Delete(victim) => {
                assert!(lpr.delete(victim).unwrap());
                assert!(live_ix.delete(victim).unwrap());
            }
            Op::Check(_) => {
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
                                "{name} op {step}: stored {it:?} rejected"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 10_000, "{checked} stored copies checked");
    assert!(built_by_deletes > 0, "no delete built a filter");
}
