//! Deterministic, seed-driven I/O fault injection.
//!
//! Every file-backed I/O primitive in this crate ([`crate::PositionedFile`]
//! reads/writes/fsyncs/truncates, [`crate::fsync_dir`], and the store's
//! mapped reads via [`mapped_read`]) carries a **probe**: one relaxed
//! atomic load when no schedule is installed and a cold slow path when one
//! is. A [`FaultSchedule`] is installed process-wide (test-only by
//! convention: [`install`] returns a guard that disarms on drop, and
//! [`exclusive`] serializes hook-using tests), numbers the probed ops
//! `0, 1, 2, …` in execution order, and fires programmed faults at exact
//! indices:
//!
//! * **errno** — the op fails with a chosen OS error (EIO, ENOSPC,
//!   EINTR) without touching the file,
//! * **torn write** — a seed-derived strict prefix of the buffer reaches
//!   the file, then the op fails (a short write followed by the error,
//!   the classic crash/full-disk corruption shape),
//! * **bit flip** — the op "succeeds" but one seed-derived bit is
//!   silently wrong (bit rot / misdirected-write simulation).
//!
//! Determinism is the point: the same `(schedule, workload)` pair always
//! fires at the same op, so a torture sweep can count a trace's total I/O
//! ops with [`FaultSchedule::count_only`] and then replay "fail exactly
//! op K" for every K.
//!
//! **Marks** name a phase instead of an op: higher layers call
//! [`mark`]`("merge.swap")` where a phase is about to start. A mark costs
//! the same one relaxed load as a probe when disarmed, never advances the
//! op counter, and is counted per name ([`mark_hits`]), so a sweep can
//! also visit every mark hit. [`FaultSchedule::die_at`] latches on the
//! `nth` hit of a name: that `mark` call fails with EIO, and so does every
//! op and mark after it — a simulated power cut at a named point.
//!
//! The schedule can also deny mmap ([`FaultSchedule::deny_mmap`]):
//! [`crate::PositionedFile::map_readonly`] then reports `None`, forcing
//! every consumer through the positioned-read fallback path — that is how
//! the zero-copy corruption battery re-runs bit-identically without a
//! mapping. In-memory devices carry no probe; wrap one in a
//! [`FaultDevice`] to fault it.

use crate::device::{BlockDevice, BlockId};
use crate::error::EmError;
use crate::stats::IoCounters;
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Which kind of I/O primitive an op is (the schedule can filter on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A positioned / block read (including mapped reads probed through
    /// [`mapped_read`]).
    Read,
    /// A positioned / block write.
    Write,
    /// `fsync` / `fdatasync`, including directory fsyncs.
    Fsync,
    /// `ftruncate` ([`crate::PositionedFile::set_len`]) — separated from
    /// [`OpClass::Write`] so a sticky full-disk (`ENOSPC` on every
    /// write) schedule does not fail shrinking truncates, which succeed
    /// on a full disk in reality and which error-recovery paths (WAL
    /// rollback) rely on.
    Trunc,
}

/// The OS error an injected failure surfaces as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Errno {
    /// `EIO` — the generic hard I/O error; classified fatal upstream.
    Eio,
    /// `ENOSPC` — disk full; classified transient (space can be freed).
    Enospc,
    /// `EINTR` — interrupted syscall; retried at this layer.
    Eintr,
}

impl Errno {
    /// The corresponding [`std::io::Error`] (real OS errno codes, so
    /// `ErrorKind` classification upstream sees exactly what a real
    /// failing syscall would produce).
    pub(crate) fn to_io_error(self) -> std::io::Error {
        std::io::Error::from_raw_os_error(match self {
            Errno::Eio => 5,
            Errno::Enospc => 28,
            Errno::Eintr => 4,
        })
    }
}

/// What a firing fault does to its op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail outright with the errno; the file is untouched.
    Errno(Errno),
    /// Write a seed-derived strict prefix of the buffer, then fail with
    /// the errno. On non-write ops (and at a mark) this degrades to
    /// [`FaultKind::Errno`].
    TornWrite(Errno),
    /// Let the op proceed but silently flip one seed-derived bit of the
    /// payload. On length-less ops (fsync, marks) this degrades to a
    /// no-op.
    BitFlip,
}

/// Where a [`FaultSpec`] arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum At {
    /// The first matching op at or after this op index.
    Op(u64),
    /// The `nth` (0-based) call of [`mark`] with this name: that call
    /// fails; a sticky spec then also fails every later op and mark.
    Mark(&'static str, u64),
}

/// One programmed fault: fire where `at` says, on ops matching `class`
/// (once, or on every such op from then on when `sticky`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultSpec {
    /// The op index or mark hit to arm at.
    pub at: At,
    /// Restrict to one op class; `None` matches any.
    pub class: Option<OpClass>,
    /// What to do when firing.
    pub kind: FaultKind,
    /// `false`: one-shot (fires exactly once). `true`: fires on every
    /// matching op from `at` on — e.g. a full disk that stays full.
    pub sticky: bool,
}

/// A complete injection schedule, installed process-wide via [`install`].
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    /// Seed for the torn-write lengths and bit-flip positions (mixed
    /// with the op index, so reruns are exact replays).
    pub seed: u64,
    /// The programmed faults.
    pub(crate) faults: Vec<FaultSpec>,
    /// Make [`crate::PositionedFile::map_readonly`] report `None`,
    /// forcing the positioned-read fallback everywhere.
    pub deny_mmap: bool,
}

impl FaultSchedule {
    /// No faults: just count ops and mark hits (a sweep's measuring
    /// pass, or the probe's armed-but-inert case).
    pub fn count_only(seed: u64) -> Self {
        FaultSchedule {
            seed,
            faults: Vec::new(),
            deny_mmap: false,
        }
    }

    fn one(seed: u64, at: At, class: Option<OpClass>, kind: FaultKind, sticky: bool) -> Self {
        let spec = FaultSpec {
            at,
            class,
            kind,
            sticky,
        };
        FaultSchedule {
            faults: vec![spec],
            ..FaultSchedule::count_only(seed)
        }
    }

    /// One one-shot fault at op `at_op`.
    pub fn fail_op(seed: u64, at_op: u64, class: Option<OpClass>, kind: FaultKind) -> Self {
        FaultSchedule::one(seed, At::Op(at_op), class, kind, false)
    }

    /// A sticky fault from op `at_op` on (a disk that stays broken/full
    /// until the schedule is cleared).
    pub fn sticky(seed: u64, at_op: u64, class: Option<OpClass>, kind: FaultKind) -> Self {
        FaultSchedule::one(seed, At::Op(at_op), class, kind, true)
    }

    /// A power cut at the `nth` (0-based) hit of mark `name`: that
    /// [`mark`] call returns EIO, and every op and mark after it fails
    /// with EIO until the schedule is cleared.
    pub fn die_at(name: &'static str, nth: u64) -> Self {
        let eio = FaultKind::Errno(Errno::Eio);
        FaultSchedule::one(0, At::Mark(name, nth), None, eio, true)
    }

    /// Builder: deny mmap so every read takes the positioned fallback.
    pub fn with_deny_mmap(mut self) -> Self {
        self.deny_mmap = true;
        self
    }
}

/// The probe's verdict for one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// No fault: perform the op normally.
    Proceed,
    /// Fail with this errno without performing the op.
    Fail(Errno),
    /// Write only the first `keep` bytes (strictly fewer than asked),
    /// then fail with the errno.
    Torn { keep: usize, errno: Errno },
    /// Perform the op but flip payload bit `bit` (caller reduces it
    /// modulo the payload size).
    FlipBit { bit: u64 },
}

/// The schedule machinery itself: a spec list plus op/fired counters.
/// One instance backs the process-wide hook ([`install`]); standalone
/// instances back the explicit [`FaultDevice`] wrapper.
pub struct Injector {
    sched: FaultSchedule,
    /// One latch per spec: set when a one-shot op spec fires, or when a
    /// mark spec's hit is reached.
    fired: Vec<AtomicBool>,
    /// Ops counted so far.
    ops: AtomicU64,
    /// Faults actually fired.
    injected: AtomicU64,
    /// Hits per mark name, in first-hit order.
    marks: Mutex<Vec<(&'static str, u64)>>,
}

impl Injector {
    /// A fresh injector for `sched`.
    pub(crate) fn new(sched: FaultSchedule) -> Self {
        Injector {
            fired: (0..sched.faults.len())
                .map(|_| AtomicBool::new(false))
                .collect(),
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            marks: Mutex::new(Vec::new()),
            sched,
        }
    }

    /// Counts the op and returns its verdict.
    pub(crate) fn decide(&self, class: OpClass, len: usize) -> Decision {
        let idx = self.ops.fetch_add(1, Ordering::Relaxed);
        for (i, spec) in self.sched.faults.iter().enumerate() {
            if spec.class.is_some_and(|c| c != class) {
                continue;
            }
            let armed = match spec.at {
                At::Op(at) => {
                    idx >= at && (spec.sticky || !self.fired[i].swap(true, Ordering::Relaxed))
                }
                // Latched by its mark; only a sticky spec outlives it.
                At::Mark(..) => spec.sticky && self.fired[i].load(Ordering::Relaxed),
            };
            if !armed {
                continue;
            }
            let decision = decide(spec, self.sched.seed, idx, class, len);
            if decision != Decision::Proceed {
                self.note_injected(format!("op={idx} class={class:?} kind={:?}", spec.kind));
            }
            return decision;
        }
        Decision::Proceed
    }

    /// Counts a hit of mark `name` and fails it if a mark spec latches
    /// here or a sticky one latched earlier. Never counts an op.
    fn hit(&self, name: &'static str) -> std::io::Result<()> {
        let nth = {
            let mut marks = self.marks.lock();
            let i = marks.iter().position(|&(n, _)| n == name);
            let i = i.unwrap_or_else(|| {
                marks.push((name, 0));
                marks.len() - 1
            });
            marks[i].1 += 1;
            marks[i].1 - 1
        };
        for (i, spec) in self.sched.faults.iter().enumerate() {
            let At::Mark(at, k) = spec.at else { continue };
            let fires = if (at, k) == (name, nth) {
                self.fired[i].store(true, Ordering::Relaxed);
                true
            } else {
                spec.sticky && self.fired[i].load(Ordering::Relaxed)
            };
            if let (true, FaultKind::Errno(e) | FaultKind::TornWrite(e)) = (fires, spec.kind) {
                self.note_injected(format!("mark={name}#{nth} kind={:?}", spec.kind));
                return Err(e.to_io_error());
            }
        }
        Ok(())
    }

    fn note_injected(&self, detail: String) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        crate::obs::metrics().faults_injected.inc();
        pr_obs::events().emit("fault_injected", detail);
    }

    /// Ops counted so far.
    pub(crate) fn op_count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Faults fired so far.
    pub fn injected_count(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static DENY_MMAP: AtomicBool = AtomicBool::new(false);

fn active() -> &'static RwLock<Option<Arc<Injector>>> {
    static A: OnceLock<RwLock<Option<Arc<Injector>>>> = OnceLock::new();
    A.get_or_init(|| RwLock::new(None))
}

/// Disarms on drop, so a panicking test cannot leak an armed schedule
/// into the rest of the process.
#[must_use = "the schedule is cleared when the guard drops"]
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// Installs `sched` process-wide, replacing any current schedule. Hold
/// [`exclusive`] around install/clear in tests that share a binary.
pub fn install(sched: FaultSchedule) -> FaultGuard {
    let deny = sched.deny_mmap;
    *active().write() = Some(Arc::new(Injector::new(sched)));
    DENY_MMAP.store(deny, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    FaultGuard(())
}

/// Disarms and removes the schedule (also what [`FaultGuard`] does).
pub(crate) fn clear() {
    ARMED.store(false, Ordering::SeqCst);
    DENY_MMAP.store(false, Ordering::SeqCst);
    *active().write() = None;
}

/// Ops counted under the current schedule (0 when none).
pub fn op_count() -> u64 {
    active().read().as_ref().map_or(0, |a| a.op_count())
}

/// Faults fired under the current schedule (0 when none).
pub fn injected_count() -> u64 {
    active().read().as_ref().map_or(0, |a| a.injected_count())
}

/// Hits per mark name under the current schedule, in first-hit order
/// (empty when none).
pub fn mark_hits() -> Vec<(&'static str, u64)> {
    active()
        .read()
        .as_ref()
        .map_or_else(Vec::new, |a| a.marks.lock().clone())
}

/// True while the installed schedule denies mmap.
#[inline]
pub(crate) fn mmap_denied() -> bool {
    DENY_MMAP.load(Ordering::Relaxed)
}

/// Process-wide serialization for tests that install schedules: the
/// hooks are global, so concurrent hook-using tests in one binary must
/// take this first.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

/// The probe every hooked primitive calls: a single relaxed load when
/// disarmed (the release-mode cost), the cold path otherwise.
#[inline]
pub(crate) fn on_op(class: OpClass, len: usize) -> Decision {
    if !ARMED.load(Ordering::Relaxed) {
        return Decision::Proceed;
    }
    on_op_slow(class, len)
}

#[cold]
fn on_op_slow(class: OpClass, len: usize) -> Decision {
    match active().read().as_ref() {
        Some(a) => a.decide(class, len),
        None => Decision::Proceed,
    }
}

/// Names the phase about to start. Disarmed, a single relaxed load that
/// returns `Ok`; armed, it counts a hit of `name` (not an op) and returns
/// the EIO of a [`FaultSchedule::die_at`] that latches here or latched
/// earlier. Call it as `fault::mark("merge.swap")?`.
#[inline]
pub fn mark(name: &'static str) -> std::io::Result<()> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    mark_slow(name)
}

#[cold]
fn mark_slow(name: &'static str) -> std::io::Result<()> {
    match active().read().as_ref() {
        Some(a) => a.hit(name),
        None => Ok(()),
    }
}

fn decide(spec: &FaultSpec, seed: u64, idx: u64, class: OpClass, len: usize) -> Decision {
    match spec.kind {
        FaultKind::Errno(e) => Decision::Fail(e),
        FaultKind::TornWrite(e) => {
            if class == OpClass::Write && len > 0 {
                Decision::Torn {
                    keep: (mix(seed, idx) % len as u64) as usize,
                    errno: e,
                }
            } else {
                Decision::Fail(e)
            }
        }
        FaultKind::BitFlip => {
            if len > 0 {
                Decision::FlipBit {
                    bit: mix(seed, idx) % (len as u64 * 8),
                }
            } else {
                Decision::Proceed
            }
        }
    }
}

/// splitmix64 finalizer over `(seed, idx)`: cheap, well-mixed, and a
/// pure function of its inputs — the source of torn lengths and flip
/// positions, so replays are exact.
fn mix(seed: u64, idx: u64) -> u64 {
    let mut x = seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Probe for reads served straight from a shared mmap (there is no
/// syscall to intercept). Returns the bytes to serve: `bytes` itself
/// normally, a bit-flipped copy staged in `scratch` under a flip fault,
/// or the injected error — exactly what a positioned read would surface.
pub fn mapped_read<'a>(bytes: &'a [u8], scratch: &'a mut Vec<u8>) -> std::io::Result<&'a [u8]> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(bytes);
    }
    match on_op_slow(OpClass::Read, bytes.len()) {
        Decision::Proceed => Ok(bytes),
        Decision::Fail(e) | Decision::Torn { errno: e, .. } => Err(e.to_io_error()),
        Decision::FlipBit { bit } => {
            scratch.clear();
            scratch.extend_from_slice(bytes);
            scratch[(bit / 8) as usize] ^= 1 << (bit % 8);
            Ok(&scratch[..])
        }
    }
}

/// Flips `bit` (reduced modulo the buffer) in place — shared by the
/// hooked write/read paths implementing [`Decision::FlipBit`].
pub(crate) fn flip_bit(buf: &mut [u8], bit: u64) {
    if buf.is_empty() {
        return;
    }
    let bit = bit % (buf.len() as u64 * 8);
    buf[(bit / 8) as usize] ^= 1 << (bit % 8);
}

/// A [`BlockDevice`] wrapper carrying its own injector: every block op
/// consults the instance schedule before delegating. Works over any
/// backend, and is the one way to fault an in-memory device. Marks go to
/// the process-wide hook only, so a mark spec ([`FaultSchedule::die_at`])
/// never latches here.
pub struct FaultDevice<D: BlockDevice> {
    inner: D,
    inj: Injector,
}

impl<D: BlockDevice> FaultDevice<D> {
    /// Wraps `inner` with a private copy of `sched`.
    pub fn new(inner: D, sched: FaultSchedule) -> Self {
        FaultDevice {
            inner,
            inj: Injector::new(sched),
        }
    }

    /// This device's injector (op / injected counts).
    pub fn injector(&self) -> &Injector {
        &self.inj
    }
}

impl<D: BlockDevice> BlockDevice for FaultDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn allocate(&self, n: u64) -> BlockId {
        self.inner.allocate(n)
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> crate::Result<()> {
        match self.inj.decide(OpClass::Read, buf.len()) {
            Decision::Proceed => self.inner.read_block(block, buf),
            Decision::Fail(e) | Decision::Torn { errno: e, .. } => {
                Err(EmError::Io(e.to_io_error()))
            }
            Decision::FlipBit { bit } => {
                self.inner.read_block(block, buf)?;
                flip_bit(buf, bit);
                Ok(())
            }
        }
    }

    fn with_block(
        &self,
        block: BlockId,
        scratch: &mut Vec<u8>,
        f: &mut dyn FnMut(&[u8]),
    ) -> crate::Result<()> {
        match self.inj.decide(OpClass::Read, self.inner.block_size()) {
            Decision::Proceed => self.inner.with_block(block, scratch, f),
            Decision::Fail(e) | Decision::Torn { errno: e, .. } => {
                Err(EmError::Io(e.to_io_error()))
            }
            Decision::FlipBit { bit } => {
                scratch.resize(self.inner.block_size(), 0);
                self.inner.read_block(block, scratch)?;
                flip_bit(scratch, bit);
                f(scratch);
                Ok(())
            }
        }
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> crate::Result<()> {
        match self.inj.decide(OpClass::Write, buf.len()) {
            Decision::Proceed => self.inner.write_block(block, buf),
            Decision::Fail(e) => Err(EmError::Io(e.to_io_error())),
            Decision::Torn { keep, errno } => {
                // Land a strict prefix over the old contents, then fail.
                let mut old = vec![0u8; self.inner.block_size()];
                let _ = self.inner.read_block(block, &mut old);
                old[..keep].copy_from_slice(&buf[..keep]);
                self.inner.write_block(block, &old)?;
                Err(EmError::Io(errno.to_io_error()))
            }
            Decision::FlipBit { bit } => {
                let mut copy = buf.to_vec();
                flip_bit(&mut copy, bit);
                self.inner.write_block(block, &copy)
            }
        }
    }

    fn counters(&self) -> &Arc<IoCounters> {
        self.inner.counters()
    }

    fn discard(&self, blocks: &[BlockId]) {
        self.inner.discard(blocks)
    }

    fn sync(&self) -> crate::Result<()> {
        match self.inj.decide(OpClass::Fsync, 0) {
            Decision::Fail(e) | Decision::Torn { errno: e, .. } => {
                Err(EmError::Io(e.to_io_error()))
            }
            _ => self.inner.sync(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_probe_proceeds_and_counts_nothing() {
        let _x = exclusive();
        clear();
        assert_eq!(on_op(OpClass::Read, 64), Decision::Proceed);
        assert_eq!(op_count(), 0);
    }

    #[test]
    fn count_only_counts_every_op() {
        let _x = exclusive();
        let _g = install(FaultSchedule::count_only(1));
        for _ in 0..5 {
            assert_eq!(on_op(OpClass::Write, 8), Decision::Proceed);
        }
        assert_eq!(op_count(), 5);
        assert_eq!(injected_count(), 0);
    }

    #[test]
    fn disarmed_mark_passes_and_counts_nothing() {
        let _x = exclusive();
        clear();
        mark("phase").unwrap();
        assert_eq!((op_count(), injected_count()), (0, 0));
        assert!(mark_hits().is_empty());
    }

    #[test]
    fn die_at_fires_on_the_nth_hit_then_fails_every_op() {
        let _x = exclusive();
        let _g = install(FaultSchedule::die_at("phase", 1));
        assert_eq!(on_op(OpClass::Write, 8), Decision::Proceed);
        mark("phase").unwrap(); // hit 0 passes
        mark("other").unwrap();
        assert_eq!(op_count(), 1, "marks are not ops");
        let err = mark("phase").unwrap_err(); // hit 1: the power cut
        assert_eq!(err.raw_os_error(), Some(5));
        assert_eq!(mark_hits(), [("phase", 2), ("other", 1)]);
        for class in [
            OpClass::Read,
            OpClass::Write,
            OpClass::Fsync,
            OpClass::Trunc,
        ] {
            assert_eq!(on_op(class, 8), Decision::Fail(Errno::Eio), "{class:?}");
        }
        assert_eq!(mark("other").unwrap_err().raw_os_error(), Some(5));
        assert_eq!(op_count(), 5);
        assert_eq!(injected_count(), 6);
    }

    #[test]
    fn one_shot_fires_exactly_once_at_its_index() {
        let _x = exclusive();
        let _g = install(FaultSchedule::fail_op(
            7,
            2,
            None,
            FaultKind::Errno(Errno::Eio),
        ));
        assert_eq!(on_op(OpClass::Read, 8), Decision::Proceed);
        assert_eq!(on_op(OpClass::Write, 8), Decision::Proceed);
        assert_eq!(on_op(OpClass::Fsync, 0), Decision::Fail(Errno::Eio));
        assert_eq!(on_op(OpClass::Read, 8), Decision::Proceed);
        assert_eq!(injected_count(), 1);
    }

    #[test]
    fn class_filter_defers_to_first_matching_op() {
        let _x = exclusive();
        let _g = install(FaultSchedule::fail_op(
            7,
            0,
            Some(OpClass::Fsync),
            FaultKind::Errno(Errno::Eintr),
        ));
        assert_eq!(on_op(OpClass::Write, 8), Decision::Proceed);
        assert_eq!(on_op(OpClass::Fsync, 0), Decision::Fail(Errno::Eintr));
        assert_eq!(on_op(OpClass::Fsync, 0), Decision::Proceed);
    }

    #[test]
    fn sticky_fires_on_every_matching_op_until_cleared() {
        let _x = exclusive();
        let g = install(FaultSchedule::sticky(
            7,
            1,
            Some(OpClass::Write),
            FaultKind::Errno(Errno::Enospc),
        ));
        assert_eq!(on_op(OpClass::Write, 8), Decision::Proceed);
        for _ in 0..3 {
            assert_eq!(on_op(OpClass::Write, 8), Decision::Fail(Errno::Enospc));
            // A shrinking truncate (rollback) is NOT a Write.
            assert_eq!(on_op(OpClass::Trunc, 0), Decision::Proceed);
        }
        drop(g); // space freed
        assert_eq!(on_op(OpClass::Write, 8), Decision::Proceed);
    }

    #[test]
    fn torn_write_keeps_a_deterministic_strict_prefix() {
        let _x = exclusive();
        let keep1 = {
            let _g = install(FaultSchedule::fail_op(
                42,
                0,
                None,
                FaultKind::TornWrite(Errno::Eio),
            ));
            match on_op(OpClass::Write, 100) {
                Decision::Torn { keep, errno } => {
                    assert!(keep < 100);
                    assert_eq!(errno, Errno::Eio);
                    keep
                }
                d => panic!("expected torn, got {d:?}"),
            }
        };
        // Same seed, same index → same torn length.
        let _g = install(FaultSchedule::fail_op(
            42,
            0,
            None,
            FaultKind::TornWrite(Errno::Eio),
        ));
        assert_eq!(
            on_op(OpClass::Write, 100),
            Decision::Torn {
                keep: keep1,
                errno: Errno::Eio
            }
        );
        // On a read it degrades to a plain failure.
        let _g = install(FaultSchedule::fail_op(
            42,
            0,
            None,
            FaultKind::TornWrite(Errno::Enospc),
        ));
        assert_eq!(on_op(OpClass::Read, 100), Decision::Fail(Errno::Enospc));
    }

    #[test]
    fn bit_flip_is_deterministic_and_in_range() {
        let _x = exclusive();
        let bit = {
            let _g = install(FaultSchedule::fail_op(9, 0, None, FaultKind::BitFlip));
            match on_op(OpClass::Read, 32) {
                Decision::FlipBit { bit } => {
                    assert!(bit < 32 * 8);
                    bit
                }
                d => panic!("expected flip, got {d:?}"),
            }
        };
        let _g = install(FaultSchedule::fail_op(9, 0, None, FaultKind::BitFlip));
        assert_eq!(on_op(OpClass::Read, 32), Decision::FlipBit { bit });
    }

    #[test]
    fn errnos_map_to_the_expected_error_kinds() {
        assert_eq!(
            Errno::Eintr.to_io_error().kind(),
            std::io::ErrorKind::Interrupted
        );
        assert_eq!(
            Errno::Enospc.to_io_error().kind(),
            std::io::ErrorKind::StorageFull
        );
        assert_eq!(Errno::Eio.to_io_error().raw_os_error(), Some(5));
    }

    #[test]
    fn mapped_read_serves_flipped_copy_or_error() {
        let _x = exclusive();
        let bytes = [0u8; 16];
        let mut scratch = Vec::new();
        {
            let _g = install(FaultSchedule::fail_op(3, 0, None, FaultKind::BitFlip));
            let served = mapped_read(&bytes, &mut scratch).unwrap();
            assert_eq!(served.len(), 16);
            let diff: u32 = served
                .iter()
                .zip(bytes.iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(diff, 1, "exactly one bit differs");
        }
        let _g = install(FaultSchedule::fail_op(
            3,
            0,
            None,
            FaultKind::Errno(Errno::Eio),
        ));
        let err = mapped_read(&bytes, &mut scratch).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
    }

    #[test]
    fn fault_device_fires_its_own_schedule_independently() {
        let _x = exclusive();
        clear(); // global hook disarmed: only the instance schedule acts
        let dev = FaultDevice::new(
            crate::MemDevice::new(64),
            FaultSchedule::fail_op(5, 1, None, FaultKind::TornWrite(Errno::Enospc)),
        );
        dev.allocate(2);
        let block = vec![0xAA; 64];
        dev.write_block(0, &block).unwrap(); // op 0: clean
                                             // Op 1: torn — a strict prefix lands, then ENOSPC.
        let err = dev.write_block(1, &block).unwrap_err();
        assert!(matches!(err, EmError::Io(ref e) if e.raw_os_error() == Some(28)));
        let mut out = vec![0u8; 64];
        dev.read_block(1, &mut out).unwrap();
        let landed = out.iter().filter(|&&b| b == 0xAA).count();
        assert!(landed < 64, "torn write must be a strict prefix");
        assert!(out[landed..].iter().all(|&b| b == 0));
        assert_eq!(dev.injector().injected_count(), 1);
    }

    #[test]
    fn deny_mmap_flag_follows_the_schedule() {
        let _x = exclusive();
        assert!(!mmap_denied());
        {
            let _g = install(FaultSchedule::count_only(0).with_deny_mmap());
            assert!(mmap_denied());
        }
        assert!(!mmap_denied());
    }
}
