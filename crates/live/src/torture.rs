//! Fail-any-I/O torture sweeps: the executable form of the failure
//! model.
//!
//! The harness runs a deterministic scripted trace (insert batches with
//! interleaved deletes, inline merges at every overflow) against a real
//! [`LiveIndex`] on a real directory, with the process-wide fault hook
//! ([`pr_em::fault`]) armed:
//!
//! 1. **Count.** One clean pass under [`FaultSchedule::count_only`]
//!    numbers every file-realm I/O op the trace performs — reads,
//!    writes, fsyncs, truncates, from WAL appends through store
//!    superblock flips.
//! 2. **Sweep.** For every op index `K` (stride-able), rerun the trace
//!    with "fail exactly op K" programmed — cycling through EIO,
//!    ENOSPC, torn-write-then-EIO, torn-write-then-ENOSPC, and EINTR —
//!    then disarm, close, reopen, and check the recovered contents
//!    against the trace's own ack log.
//!
//! The invariant checked after every run (the **acked-prefix
//! invariant**): the reopened index holds exactly the acknowledged
//! operations applied in order — optionally plus the one in-flight
//! batch whose call returned an error *after* its group had already
//! committed (a fatal merge failure retro-fails the call but not the
//! already-durable write; the harness accepts either boundary, and
//! nothing in between or beyond). No lost ack, no resurrected failure,
//! no wrong answer, no panic.
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
    /// >1 switches to the insert-only multi-writer variant).
    pub writers: usize,
    /// Durability mode under test.
    pub durability: Durability,
    /// Sweep every `stride`-th op index (1 = exhaustive).
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
    /// File-realm I/O ops the clean trace performs (the sweep range).
    pub total_ops: u64,
    /// Sweep runs executed.
    pub runs: u64,
    /// Runs whose programmed fault actually fired.
    pub injected: u64,
    /// Runs whose fault never fired (possible under `Async`, where
    /// syncer-thread scheduling shifts op indices run to run; such runs
    /// still verify the full no-fault invariant).
    pub silent: u64,
    /// Runs where the trace saw a transient ([`LiveError::is_transient`])
    /// failure.
    pub transient_failures: u64,
    /// Runs where the trace saw a fatal failure.
    pub fatal_failures: u64,
}

/// The fault kinds a sweep cycles through, one per op index.
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

/// Outcome of driving the script against one index: the ack log plus
/// the first failure (the client is fail-stop: it quits at the first
/// error, which keeps the recovery oracle two-valued).
struct TraceOutcome {
    /// Ids live according to acknowledged ops only.
    acked: BTreeSet<u32>,
    /// Ids live if the in-flight (errored) call's ops also landed —
    /// `None` when the trace completed or failed with nothing in
    /// flight.
    with_inflight: Option<BTreeSet<u32>>,
    /// The first error, if any.
    error: Option<LiveError>,
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

/// Reopens `dir` with no faults armed and checks the acked-prefix
/// invariant. Panics (with `ctx`) on any violation.
fn verify_recovery(dir: &Path, out: &TraceOutcome, ctx: &str) {
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
    if got == out.acked {
        return;
    }
    if let Some(e1) = &out.with_inflight {
        if &got == e1 {
            // The in-flight call's group had already committed when the
            // call failed (e.g. a fatal merge error after the WAL ack):
            // durable-but-errored is an allowed boundary.
            return;
        }
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

/// Runs the full sweep for `cfg` (single-writer scripted trace) and
/// returns the report. Panics on any invariant violation. See the
/// module docs for the protocol.
pub fn run_torture(cfg: &TortureConfig) -> Result<TortureReport, LiveError> {
    assert_eq!(cfg.writers, 1, "use run_torture_multi for writers > 1");
    let _hook = fault::exclusive();
    let steps = script(cfg);
    let mut report = TortureReport::default();

    // Counting pass: one clean, armed-but-faultless run measures the
    // sweep range and sanity-checks the harness itself.
    {
        let dir = fresh_subdir(&cfg.dir, "count");
        let ix = create_index(cfg, &dir)?;
        let guard = fault::install(FaultSchedule::count_only(cfg.seed));
        let out = drive_script(&ix, &steps);
        report.total_ops = fault::op_count();
        drop(guard);
        drop(ix);
        if let Some(e) = &out.error {
            panic!("count pass failed with no fault armed: {e}");
        }
        verify_recovery(&dir, &out, "count pass");
    }

    // The sweep: fail exactly op K, for every K.
    let stride = cfg.stride.max(1);
    let mut k = 0;
    while k < report.total_ops {
        let kind = KINDS[(report.runs as usize) % KINDS.len()];
        let ctx = format!(
            "sweep k={k}/{} kind={kind:?} durability={:?}",
            report.total_ops, cfg.durability
        );
        let dir = fresh_subdir(&cfg.dir, "run");
        let ix =
            create_index(cfg, &dir).unwrap_or_else(|e| panic!("{ctx}: clean create failed: {e}"));
        let guard = fault::install(FaultSchedule::fail_op(cfg.seed, k, None, kind));
        let out = drive_script(&ix, &steps);
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
        verify_recovery(&dir, &out, &ctx);
        k += stride;
    }
    Ok(report)
}

/// The multi-writer variant: `cfg.writers` threads insert disjoint id
/// ranges concurrently (no deletes — interleaving makes a delete oracle
/// ambiguous), the sweep fails one op per run, and recovery must
/// satisfy acked ⊆ recovered ⊆ issued with no duplicates — concurrent
/// group commit may ack batches the fail-stop observer never logged,
/// but must never lose an acked one or invent an id.
pub fn run_torture_multi(cfg: &TortureConfig) -> Result<TortureReport, LiveError> {
    assert!(cfg.writers > 1, "use run_torture for a single writer");
    let _hook = fault::exclusive();
    let mut report = TortureReport::default();

    let issued: BTreeSet<u32> = (0..cfg.writers as u32)
        .flat_map(|w| {
            (0..(cfg.batches * cfg.batch) as u32).map(move |n| torture_item(cfg.seed, w, n).id)
        })
        .collect();

    // Counting pass (op totals vary run-to-run with thread interleaving;
    // this still bounds the sweep range usefully).
    {
        let dir = fresh_subdir(&cfg.dir, "count");
        let ix = create_index(cfg, &dir)?;
        let guard = fault::install(FaultSchedule::count_only(cfg.seed));
        let acked = drive_writers(&ix, cfg);
        report.total_ops = fault::op_count();
        drop(guard);
        drop(ix);
        assert_eq!(acked, issued, "count pass: clean run must ack everything");
        verify_multi(&dir, &acked, &issued, "multi count pass");
    }

    let stride = cfg.stride.max(1);
    let mut k = 0;
    while k < report.total_ops {
        let kind = KINDS[(report.runs as usize) % KINDS.len()];
        let ctx = format!("multi sweep k={k}/{} kind={kind:?}", report.total_ops);
        let dir = fresh_subdir(&cfg.dir, "run");
        let ix =
            create_index(cfg, &dir).unwrap_or_else(|e| panic!("{ctx}: clean create failed: {e}"));
        let guard = fault::install(FaultSchedule::fail_op(cfg.seed, k, None, kind));
        let acked = drive_writers(&ix, cfg);
        let fired = fault::injected_count() > 0;
        drop(guard);
        drop(ix);
        report.runs += 1;
        if fired {
            report.injected += 1;
        } else {
            report.silent += 1;
        }
        verify_multi(&dir, &acked, &issued, &ctx);
        k += stride;
    }
    Ok(report)
}

/// Spawns the writers, collects the union of their ack logs. Writers
/// are fail-stop: each quits at its first error.
fn drive_writers(ix: &LiveIndex<2>, cfg: &TortureConfig) -> BTreeSet<u32> {
    let acked = std::sync::Mutex::new(BTreeSet::new());
    std::thread::scope(|s| {
        for w in 0..cfg.writers as u32 {
            let acked = &acked;
            s.spawn(move || {
                for b in 0..cfg.batches {
                    let items: Vec<Item<2>> = (0..cfg.batch)
                        .map(|i| torture_item(cfg.seed, w, (b * cfg.batch + i) as u32))
                        .collect();
                    if ix.insert_batch(&items).is_err() {
                        return;
                    }
                    let mut a = acked.lock().expect("ack log");
                    a.extend(items.iter().map(|it| it.id));
                }
            });
        }
    });
    acked.into_inner().expect("ack log")
}

fn verify_multi(dir: &Path, acked: &BTreeSet<u32>, issued: &BTreeSet<u32>, ctx: &str) {
    let ix = LiveIndex::<2>::open(dir, opts(Durability::Fsync))
        .unwrap_or_else(|e| panic!("{ctx}: reopen after fault failed: {e}"));
    let items = ix
        .snapshot()
        .items()
        .unwrap_or_else(|e| panic!("{ctx}: post-recovery scan failed: {e}"));
    let mut got = BTreeSet::new();
    for it in &items {
        assert!(got.insert(it.id), "{ctx}: id {} recovered twice", it.id);
    }
    let lost: Vec<u32> = acked.difference(&got).copied().collect();
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
