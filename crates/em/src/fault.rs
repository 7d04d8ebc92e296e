//! Deterministic, seed-driven I/O fault injection.
//!
//! Every file-backed I/O primitive in this crate ([`crate::PositionedFile`]
//! reads/writes/fsyncs/truncates, [`crate::fsync_dir`], the
//! [`crate::MemDevice`] block ops, and the store's mapped reads via
//! [`mapped_read`]) carries a **probe**: one relaxed atomic load when no
//! schedule is installed and a cold slow path when one is. A [`FaultSchedule`] is
//! installed process-wide (test-only by convention: [`install`] returns a
//! guard that disarms on drop, and [`exclusive`] serializes hook-using
//! tests), numbers the matching ops `0, 1, 2, …` in execution order, and
//! fires programmed faults at exact indices:
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
//! op K" for every K. The op counter only advances for ops the schedule's
//! realm filter admits (`include_mem`), applied *before* the count, so
//! in-memory device traffic never perturbs a file-op sweep's indices.
//!
//! The schedule can also deny mmap ([`FaultSchedule::deny_mmap`]):
//! [`crate::PositionedFile::map_readonly`] then reports `None`, forcing
//! every consumer through the positioned-read fallback path — that is how
//! the zero-copy corruption battery re-runs bit-identically without a
//! mapping.

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
    /// A positioned / vectored / block write.
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

/// Which backend an op runs against. The realm filter is applied before
/// the op counter advances, so excluded realms are invisible to indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Realm {
    /// Real-file I/O ([`crate::PositionedFile`], [`crate::FileDevice`],
    /// mapped reads, directory fsyncs).
    File,
    /// [`crate::MemDevice`] block ops (excluded by default).
    Mem,
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
    pub fn to_io_error(self) -> std::io::Error {
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
    /// the errno. On non-write ops this degrades to [`FaultKind::Errno`].
    TornWrite(Errno),
    /// Let the op proceed but silently flip one seed-derived bit of the
    /// payload. On length-less ops (fsync) this degrades to a no-op.
    BitFlip,
}

/// One programmed fault: fire on the first op at-or-after `at_op` that
/// matches `class` (once, or on every such op when `sticky`).
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// The op index (within the schedule's counted realm) to arm at.
    pub at_op: u64,
    /// Restrict to one op class; `None` matches any.
    pub class: Option<OpClass>,
    /// What to do when firing.
    pub kind: FaultKind,
    /// `false`: one-shot (fires exactly once). `true`: fires on every
    /// matching op from `at_op` on — e.g. a full disk that stays full.
    pub sticky: bool,
}

/// A complete injection schedule, installed process-wide via [`install`].
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    /// Seed for the torn-write lengths and bit-flip positions (mixed
    /// with the op index, so reruns are exact replays).
    pub seed: u64,
    /// The programmed faults.
    pub faults: Vec<FaultSpec>,
    /// Count (and allow faulting) [`Realm::Mem`] ops too.
    pub include_mem: bool,
    /// Make [`crate::PositionedFile::map_readonly`] report `None`,
    /// forcing the positioned-read fallback everywhere.
    pub deny_mmap: bool,
}

impl FaultSchedule {
    /// No faults: just count file-realm ops (a sweep's measuring pass).
    pub fn count_only(seed: u64) -> Self {
        FaultSchedule {
            seed,
            faults: Vec::new(),
            include_mem: false,
            deny_mmap: false,
        }
    }

    /// Armed but inert — the probe's worst honest case: every op
    /// takes the slow path (counter bump + spec scan) and none fires.
    pub fn never(include_mem: bool) -> Self {
        FaultSchedule {
            seed: 0,
            faults: Vec::new(),
            include_mem,
            deny_mmap: false,
        }
    }

    /// One one-shot fault at op `at_op`.
    pub fn fail_op(seed: u64, at_op: u64, class: Option<OpClass>, kind: FaultKind) -> Self {
        FaultSchedule {
            seed,
            faults: vec![FaultSpec {
                at_op,
                class,
                kind,
                sticky: false,
            }],
            include_mem: false,
            deny_mmap: false,
        }
    }

    /// A sticky fault from op `at_op` on (a disk that stays broken/full
    /// until the schedule is cleared).
    pub fn sticky(seed: u64, at_op: u64, class: Option<OpClass>, kind: FaultKind) -> Self {
        FaultSchedule {
            seed,
            faults: vec![FaultSpec {
                at_op,
                class,
                kind,
                sticky: true,
            }],
            include_mem: false,
            deny_mmap: false,
        }
    }

    /// Builder: deny mmap so every read takes the positioned fallback.
    pub fn with_deny_mmap(mut self) -> Self {
        self.deny_mmap = true;
        self
    }
}

/// The probe's verdict for one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
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
    /// One latch per spec: one-shot specs set it on fire.
    fired: Vec<AtomicBool>,
    /// Ops counted so far (realm-filtered).
    ops: AtomicU64,
    /// Faults actually fired.
    injected: AtomicU64,
}

impl Injector {
    /// A fresh injector for `sched`.
    pub fn new(sched: FaultSchedule) -> Self {
        Injector {
            fired: (0..sched.faults.len())
                .map(|_| AtomicBool::new(false))
                .collect(),
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            sched,
        }
    }

    /// Counts the op (realm permitting) and returns its verdict.
    pub fn decide(&self, realm: Realm, class: OpClass, len: usize) -> Decision {
        // Realm filter BEFORE the counter: excluded-realm ops must not
        // consume indices, or mem-device traffic would shift a file
        // sweep.
        if realm == Realm::Mem && !self.sched.include_mem {
            return Decision::Proceed;
        }
        let idx = self.ops.fetch_add(1, Ordering::Relaxed);
        for (i, spec) in self.sched.faults.iter().enumerate() {
            if let Some(c) = spec.class {
                if c != class {
                    continue;
                }
            }
            if idx < spec.at_op {
                continue;
            }
            if !spec.sticky && self.fired[i].swap(true, Ordering::Relaxed) {
                continue; // one-shot already consumed
            }
            let decision = decide(spec, self.sched.seed, idx, class, len);
            if decision != Decision::Proceed {
                self.injected.fetch_add(1, Ordering::Relaxed);
                crate::obs::metrics().faults_injected.inc();
                pr_obs::events().emit(
                    "fault_injected",
                    format!("op={idx} class={class:?} kind={:?}", spec.kind),
                );
            }
            return decision;
        }
        Decision::Proceed
    }

    /// Ops counted so far.
    pub fn op_count(&self) -> u64 {
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
pub fn clear() {
    ARMED.store(false, Ordering::SeqCst);
    DENY_MMAP.store(false, Ordering::SeqCst);
    *active().write() = None;
}

/// Ops counted under the current schedule (0 when none).
pub fn op_count() -> u64 {
    active()
        .read()
        .as_ref()
        .map_or(0, |a| a.ops.load(Ordering::Relaxed))
}

/// Faults fired under the current schedule (0 when none).
pub fn injected_count() -> u64 {
    active()
        .read()
        .as_ref()
        .map_or(0, |a| a.injected.load(Ordering::Relaxed))
}

/// True while the installed schedule denies mmap.
#[inline]
pub fn mmap_denied() -> bool {
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
pub fn on_op(realm: Realm, class: OpClass, len: usize) -> Decision {
    if !ARMED.load(Ordering::Relaxed) {
        return Decision::Proceed;
    }
    on_op_slow(realm, class, len)
}

#[cold]
fn on_op_slow(realm: Realm, class: OpClass, len: usize) -> Decision {
    let guard = active().read();
    match guard.as_ref() {
        Some(a) => a.decide(realm, class, len),
        None => Decision::Proceed,
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
    match on_op_slow(Realm::File, OpClass::Read, bytes.len()) {
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
/// backend (the realm is always [`Realm::File`] from the schedule's
/// point of view — the wrapper *is* the explicitly faulted device).
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

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
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
        match self.inj.decide(Realm::File, OpClass::Read, buf.len()) {
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
        match self
            .inj
            .decide(Realm::File, OpClass::Read, self.inner.block_size())
        {
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
        match self.inj.decide(Realm::File, OpClass::Write, buf.len()) {
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
        match self.inj.decide(Realm::File, OpClass::Fsync, 0) {
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
        assert_eq!(on_op(Realm::File, OpClass::Read, 64), Decision::Proceed);
        assert_eq!(op_count(), 0);
    }

    #[test]
    fn count_only_counts_file_ops_and_filters_mem() {
        let _x = exclusive();
        let _g = install(FaultSchedule::count_only(1));
        for _ in 0..5 {
            assert_eq!(on_op(Realm::File, OpClass::Write, 8), Decision::Proceed);
        }
        // Mem ops are invisible: no count, no index consumed.
        for _ in 0..7 {
            assert_eq!(on_op(Realm::Mem, OpClass::Read, 8), Decision::Proceed);
        }
        assert_eq!(op_count(), 5);
        assert_eq!(injected_count(), 0);
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
        assert_eq!(on_op(Realm::File, OpClass::Read, 8), Decision::Proceed);
        assert_eq!(on_op(Realm::File, OpClass::Write, 8), Decision::Proceed);
        assert_eq!(
            on_op(Realm::File, OpClass::Fsync, 0),
            Decision::Fail(Errno::Eio)
        );
        assert_eq!(on_op(Realm::File, OpClass::Read, 8), Decision::Proceed);
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
        assert_eq!(on_op(Realm::File, OpClass::Write, 8), Decision::Proceed);
        assert_eq!(
            on_op(Realm::File, OpClass::Fsync, 0),
            Decision::Fail(Errno::Eintr)
        );
        assert_eq!(on_op(Realm::File, OpClass::Fsync, 0), Decision::Proceed);
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
        assert_eq!(on_op(Realm::File, OpClass::Write, 8), Decision::Proceed);
        for _ in 0..3 {
            assert_eq!(
                on_op(Realm::File, OpClass::Write, 8),
                Decision::Fail(Errno::Enospc)
            );
            // A shrinking truncate (rollback) is NOT a Write.
            assert_eq!(on_op(Realm::File, OpClass::Trunc, 0), Decision::Proceed);
        }
        drop(g); // space freed
        assert_eq!(on_op(Realm::File, OpClass::Write, 8), Decision::Proceed);
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
            match on_op(Realm::File, OpClass::Write, 100) {
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
            on_op(Realm::File, OpClass::Write, 100),
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
        assert_eq!(
            on_op(Realm::File, OpClass::Read, 100),
            Decision::Fail(Errno::Enospc)
        );
    }

    #[test]
    fn bit_flip_is_deterministic_and_in_range() {
        let _x = exclusive();
        let bit = {
            let _g = install(FaultSchedule::fail_op(9, 0, None, FaultKind::BitFlip));
            match on_op(Realm::File, OpClass::Read, 32) {
                Decision::FlipBit { bit } => {
                    assert!(bit < 32 * 8);
                    bit
                }
                d => panic!("expected flip, got {d:?}"),
            }
        };
        let _g = install(FaultSchedule::fail_op(9, 0, None, FaultKind::BitFlip));
        assert_eq!(
            on_op(Realm::File, OpClass::Read, 32),
            Decision::FlipBit { bit }
        );
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
