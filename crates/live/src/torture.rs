//! Fail-any-I/O torture sweeps: the executable form of the failure
//! model.
//!
//! The harness runs a deterministic trace against a real [`LiveIndex`]
//! on a real directory, with the process-wide fault hook
//! ([`pr_em::fault`]) armed. With one writer the trace is a scripted
//! sequence of insert batches with interleaved deletes; with several,
//! each writer thread inserts its own disjoint id range. Merges run
//! inline at every overflow either way.
//!
//! 1. **Count.** One clean pass under [`FaultSchedule::count_only`]
//!    numbers every file I/O op the trace performs — reads, writes,
//!    fsyncs, truncates, from WAL appends through store superblock
//!    flips — and counts every hit of every fault mark (the merge's
//!    `merge.commit` and `merge.swap`).
//! 2. **Sweep.** For every op index `K` (stride-able), rerun the trace
//!    with "fail exactly op K" programmed — cycling through EIO,
//!    ENOSPC, torn-write-then-EIO, torn-write-then-ENOSPC, and EINTR.
//!    Then, whatever the stride, one more run per mark hit dies there
//!    ([`FaultSchedule::die_at`]). After each run: disarm, close,
//!    reopen, and check the recovered contents against the trace's own
//!    ack log.
//!
//! The invariant checked after every run depends on the trace. One
//! writer (the **acked-prefix invariant**): the reopened index holds
//! exactly the acknowledged operations applied in order — optionally
//! plus the one in-flight batch whose call returned an error *after* its
//! group had already committed (a fatal merge failure retro-fails the
//! call but not the already-durable write; the harness accepts either
//! boundary, and nothing in between or beyond). Several writers: acked ⊆
//! recovered ⊆ issued — concurrent group commit may ack batches the
//! fail-stop observer never logged, but must never lose an acked one or
//! invent an id. Either way: no duplicate, no panic.
//!
//! Silent bit flips ([`pr_em::fault::FaultKind::BitFlip`]) are
//! deliberately **not** part of the sweep: a flip inside an
//! already-fsynced WAL frame is indistinguishable from media rot and
//! can void acknowledged writes — no log protocol survives it. That
//! failure class belongs to the store's CRC battery
//! (`crates/store/tests/zero_copy.rs`), which proves detection, not
//! transparency.
//!
//! Callers must NOT hold [`pr_em::fault::exclusive`] — the harness
//! takes it itself (the hook is process-global).

use crate::error::LiveError;
use crate::index::{Durability, LiveIndex, LiveOptions};
use pr_em::fault::{self, Errno, FaultKind, FaultSchedule};
use pr_geom::{Item, Rect};
use pr_tree::TreeParams;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Knobs for one torture sweep.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Seed for item geometry and the schedules' torn-length derivation.
    pub seed: u64,
    /// Insert batches the scripted trace performs (per writer).
    pub batches: usize,
    /// Items per insert batch.
    pub batch: usize,
    /// Concurrent writer threads (1 = the deterministic scripted trace;
    /// >1 switches to the insert-only multi-writer trace).
    pub writers: usize,
    /// Durability mode under test.
    pub durability: Durability,
    /// Sweep every `stride`-th op index (1 = exhaustive). Mark hits are
    /// all visited whatever the stride.
    pub stride: u64,
    /// Directory the harness works in (each run reuses a subdirectory).
    pub dir: PathBuf,
    /// WAL segment rotation size for the swept index; `None` keeps
    /// [`crate::wal::SEGMENT_ROTATE_BYTES`], which a trace this short
    /// never reaches — so no overflow merge rotates and every segment
    /// holds records on both sides of a cut. A couple of KiB puts
    /// rotations (segment create, prune) inside the sweep as well.
    pub wal_rotate_bytes: Option<u64>,
}

impl TortureConfig {
    /// A small, CI-sized sweep in `dir`.
    pub fn small(dir: &Path, durability: Durability) -> Self {
        TortureConfig {
            seed: 0x5eed_7041,
            batches: 6,
            batch: 10,
            writers: 1,
            durability,
            stride: 1,
            dir: dir.to_path_buf(),
            wal_rotate_bytes: None,
        }
    }
}

/// What a sweep did and found. Every invariant violation panics with
/// context instead of being reported here — a report means the sweep
/// **passed**.
#[derive(Debug, Clone, Default)]
pub struct TortureReport {
    /// File I/O ops the clean trace performs (the op sweep's range).
    pub total_ops: u64,
    /// Fault-mark hits of the clean trace; the sweep dies at each.
    pub marks: u64,
    /// Sweep runs executed.
    pub runs: u64,
    /// Runs whose programmed fault actually fired.
    pub injected: u64,
    /// Runs whose fault never fired (possible under `Async` or with
    /// several writers, where thread scheduling shifts op indices and
    /// merge points run to run; such runs still verify the full no-fault
    /// invariant).
    pub silent: u64,
    /// Runs where the trace saw a transient ([`LiveError::is_transient`])
    /// failure.
    pub transient_failures: u64,
    /// Runs where the trace saw a fatal failure.
    pub fatal_failures: u64,
}

/// The fault kinds an op sweep cycles through, one per op index.
const KINDS: [FaultKind; 5] = [
    FaultKind::Errno(Errno::Eio),
    FaultKind::Errno(Errno::Enospc),
    FaultKind::TornWrite(Errno::Eio),
    FaultKind::TornWrite(Errno::Enospc),
    FaultKind::Errno(Errno::Eintr),
];

/// Deterministic item `n` of writer `w`: unique id, seed-derived rect.
pub fn torture_item(seed: u64, w: u32, n: u32) -> Item<2> {
    let id = w * 1_000_000 + n;
    let h = splitmix(seed ^ (id as u64));
    let x = (h % 10_000) as f64 / 10.0;
    let y = ((h >> 16) % 10_000) as f64 / 10.0;
    Item::new(Rect::new([x, y], [x + 1.0, y + 1.0]), id)
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn params() -> TreeParams {
    TreeParams::with_cap::<2>(8)
}

fn opts(durability: Durability) -> LiveOptions {
    LiveOptions {
        buffer_cap: 16,
        background_merge: false, // inline: merge I/O lands in the sweep
        durability,
        ..LiveOptions::default()
    }
}

/// One scripted step: the ids it adds and the ids it removes.
struct Step {
    insert: Vec<Item<2>>,
    delete: Vec<Item<2>>,
}

/// The deterministic single-writer script: `batches` insert batches,
/// with every second batch (from the third on) first deleting two items
/// of the batch-before-last — exercising tombstones, the compaction
/// trigger, and delete WAL records alongside the insert path.
fn script(cfg: &TortureConfig) -> Vec<Step> {
    let mut steps = Vec::new();
    for b in 0..cfg.batches {
        let mut delete = Vec::new();
        if b >= 2 && b % 2 == 0 {
            let base = ((b - 2) * cfg.batch) as u32;
            delete.push(torture_item(cfg.seed, 0, base));
            delete.push(torture_item(cfg.seed, 0, base + 1));
        }
        let insert = (0..cfg.batch)
            .map(|i| torture_item(cfg.seed, 0, (b * cfg.batch + i) as u32))
            .collect();
        steps.push(Step { insert, delete });
    }
    steps
}

/// The trace a sweep replays, with what its recovery check needs.
enum Trace {
    /// One writer running the script.
    Script(Vec<Step>),
    /// `cfg.writers` threads inserting disjoint id ranges (no deletes —
    /// interleaving makes a delete oracle ambiguous); holds every id
    /// they issue.
    Writers(BTreeSet<u32>),
}

/// Outcome of driving a trace against one index: the ack log plus the
/// first failure (clients are fail-stop: each quits at its first error,
/// which keeps the single-writer recovery oracle two-valued).
struct TraceOutcome {
    /// Ids live according to acknowledged ops only.
    acked: BTreeSet<u32>,
    /// Ids live if the in-flight (errored) call's ops also landed —
    /// `None` when the trace completed, failed with nothing in flight,
    /// or ran several writers.
    with_inflight: Option<BTreeSet<u32>>,
    /// The first error, if any.
    error: Option<LiveError>,
}

impl Trace {
    fn new(cfg: &TortureConfig) -> Self {
        if cfg.writers <= 1 {
            return Trace::Script(script(cfg));
        }
        Trace::Writers(
            (0..cfg.writers as u32)
                .flat_map(|w| {
                    (0..(cfg.batches * cfg.batch) as u32)
                        .map(move |n| torture_item(cfg.seed, w, n).id)
                })
                .collect(),
        )
    }

    fn drive(&self, ix: &LiveIndex<2>, cfg: &TortureConfig) -> TraceOutcome {
        match self {
            Trace::Script(steps) => drive_script(ix, steps),
            Trace::Writers(_) => drive_writers(ix, cfg),
        }
    }

    /// Reopens `dir` with no faults armed and checks this trace's
    /// invariant. Panics (with `ctx`) on any violation.
    fn verify(&self, dir: &Path, out: &TraceOutcome, ctx: &str) {
        let ix = LiveIndex::<2>::open(dir, opts(Durability::Fsync))
            .unwrap_or_else(|e| panic!("{ctx}: reopen after fault failed: {e}"));
        let items = ix
            .snapshot()
            .items()
            .unwrap_or_else(|e| panic!("{ctx}: post-recovery scan failed: {e}"));
        let mut got = BTreeSet::new();
        for it in &items {
            assert!(
                got.insert(it.id),
                "{ctx}: id {} recovered twice (duplicate ack or double replay)",
                it.id
            );
        }
        match self {
            Trace::Script(_) => {
                // The in-flight call's group may have committed before
                // the call failed (e.g. a fatal merge error after the
                // WAL ack): durable-but-errored is an allowed boundary.
                if got == out.acked || out.with_inflight.as_ref() == Some(&got) {
                    return;
                }
                let missing: Vec<u32> = out.acked.difference(&got).copied().collect();
                let extra: Vec<u32> = got.difference(&out.acked).copied().collect();
                panic!(
                    "{ctx}: acked-prefix invariant violated — {} acked ids lost {:?}, \
                     {} unexpected ids present {:?}",
                    missing.len(),
                    missing,
                    extra.len(),
                    extra
                );
            }
            Trace::Writers(issued) => {
                let lost: Vec<u32> = out.acked.difference(&got).copied().collect();
                assert!(
                    lost.is_empty(),
                    "{ctx}: {} acked ids lost: {lost:?}",
                    lost.len()
                );
                let invented: Vec<u32> = got.difference(issued).copied().collect();
                assert!(
                    invented.is_empty(),
                    "{ctx}: {} ids recovered that were never issued: {invented:?}",
                    invented.len()
                );
            }
        }
    }
}

fn drive_script(ix: &LiveIndex<2>, steps: &[Step]) -> TraceOutcome {
    let mut acked = BTreeSet::new();
    for step in steps {
        if !step.delete.is_empty() {
            let mut e1 = acked.clone();
            for it in &step.delete {
                e1.remove(&it.id);
            }
            match ix.delete_batch(&step.delete) {
                Ok(_) => acked = e1,
                Err(e) => {
                    return TraceOutcome {
                        acked,
                        with_inflight: Some(e1),
                        error: Some(e),
                    }
                }
            }
        }
        let mut e1 = acked.clone();
        e1.extend(step.insert.iter().map(|it| it.id));
        match ix.insert_batch(&step.insert) {
            Ok(()) => acked = e1,
            Err(e) => {
                return TraceOutcome {
                    acked,
                    with_inflight: Some(e1),
                    error: Some(e),
                }
            }
        }
    }
    TraceOutcome {
        acked,
        with_inflight: None,
        error: None,
    }
}

/// Spawns the writers, collects the union of their ack logs and the
/// first error any of them hit.
fn drive_writers(ix: &LiveIndex<2>, cfg: &TortureConfig) -> TraceOutcome {
    let log = Mutex::new((BTreeSet::new(), None));
    std::thread::scope(|s| {
        for w in 0..cfg.writers as u32 {
            let log = &log;
            s.spawn(move || {
                for b in 0..cfg.batches {
                    let items: Vec<Item<2>> = (0..cfg.batch)
                        .map(|i| torture_item(cfg.seed, w, (b * cfg.batch + i) as u32))
                        .collect();
                    let res = ix.insert_batch(&items);
                    let (acked, error) = &mut *log.lock().expect("ack log");
                    match res {
                        Ok(()) => acked.extend(items.iter().map(|it| it.id)),
                        Err(e) => {
                            error.get_or_insert(e);
                            return;
                        }
                    }
                }
            });
        }
    });
    let (acked, error) = log.into_inner().expect("ack log");
    TraceOutcome {
        acked,
        with_inflight: None,
        error,
    }
}

/// A fresh index for one run of `cfg`, created before any fault is
/// armed.
fn create_index(cfg: &TortureConfig, dir: &Path) -> Result<LiveIndex<2>, LiveError> {
    let ix = LiveIndex::<2>::create(dir, params(), opts(cfg.durability))?;
    if let Some(bytes) = cfg.wal_rotate_bytes {
        ix.set_wal_rotate_bytes(bytes);
    }
    Ok(ix)
}

fn fresh_subdir(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs the full sweep for `cfg` — the scripted trace for one writer,
/// the multi-writer trace for several — and returns the report. Panics
/// on any invariant violation. See the module docs for the protocol.
pub fn run_torture(cfg: &TortureConfig) -> Result<TortureReport, LiveError> {
    let _hook = fault::exclusive();
    let trace = Trace::new(cfg);
    let mut report = TortureReport::default();

    // Counting pass: one clean, armed-but-faultless run measures the
    // sweep range and sanity-checks the harness itself. (With several
    // writers the totals vary with thread interleaving; they still bound
    // the sweep usefully.)
    let marks = {
        let dir = fresh_subdir(&cfg.dir, "count");
        let ix = create_index(cfg, &dir)?;
        let guard = fault::install(FaultSchedule::count_only(cfg.seed));
        let out = trace.drive(&ix, cfg);
        report.total_ops = fault::op_count();
        let marks = fault::mark_hits();
        drop(guard);
        drop(ix);
        if let Some(e) = &out.error {
            panic!("count pass failed with no fault armed: {e}");
        }
        trace.verify(&dir, &out, "count pass");
        marks
    };
    report.marks = marks.iter().map(|&(_, hits)| hits).sum();

    // The sweep: fail exactly op K, for every strided K; then die at
    // every mark hit.
    let mut schedules = Vec::new();
    let mut k = 0;
    while k < report.total_ops {
        let kind = KINDS[schedules.len() % KINDS.len()];
        schedules.push((
            format!("k={k}/{} kind={kind:?}", report.total_ops),
            FaultSchedule::fail_op(cfg.seed, k, None, kind),
        ));
        k = k.saturating_add(cfg.stride.max(1));
    }
    for &(name, hits) in &marks {
        for nth in 0..hits {
            schedules.push((
                format!("die at {name}#{nth}"),
                FaultSchedule::die_at(name, nth),
            ));
        }
    }
    for (what, sched) in schedules {
        let ctx = format!(
            "sweep {what} writers={} durability={:?}",
            cfg.writers, cfg.durability
        );
        let dir = fresh_subdir(&cfg.dir, "run");
        let ix =
            create_index(cfg, &dir).unwrap_or_else(|e| panic!("{ctx}: clean create failed: {e}"));
        let guard = fault::install(sched);
        let out = trace.drive(&ix, cfg);
        let fired = fault::injected_count() > 0;
        drop(guard); // disarm before close: the final drain is clean
        drop(ix);
        report.runs += 1;
        if fired {
            report.injected += 1;
        } else {
            report.silent += 1;
        }
        match &out.error {
            Some(e) if e.is_transient() => report.transient_failures += 1,
            Some(_) => report.fatal_failures += 1,
            None => {}
        }
        trace.verify(&dir, &out, &ctx);
    }
    Ok(report)
}
