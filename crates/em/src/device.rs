//! Block devices with I/O accounting.
//!
//! A device is a flat array of fixed-size blocks. Reads and writes are
//! whole-block and each one bumps the shared [`IoCounters`]. The in-memory
//! device is what experiments use (the paper's metric is the *count* of
//! transfers, not their latency); the file-backed device demonstrates that
//! the same algorithms run unchanged against a real file.

use crate::error::EmError;
use crate::fault::{self, Decision, OpClass};
use crate::stats::{IoCounters, IoStats};
use crate::Result;
#[cfg(not(unix))]
use parking_lot::Mutex;
use parking_lot::RwLock;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a block on a device (its index).
pub type BlockId = u64;

/// The paper's disk block size: 4KB (§3.1).
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// How many times a syscall interrupted by a signal (`EINTR`) is
/// transparently retried before the error surfaces. Bounded: a signal
/// storm (or a sticky injected `EINTR`) must eventually fail loudly
/// instead of hanging the caller.
const MAX_EINTR_RETRIES: u32 = 8;

/// Runs `op`, retrying `EINTR` with bounded exponential backoff. Any
/// error that finally surfaces — retries exhausted or a different kind —
/// is counted in `em_io_errors_total` and emitted as an `io_error`
/// event, so operators see every failure callers have to handle.
fn retry_io<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut attempts = 0u32;
    loop {
        match op() {
            Err(e)
                if e.kind() == std::io::ErrorKind::Interrupted && attempts < MAX_EINTR_RETRIES =>
            {
                attempts += 1;
                crate::obs::metrics().io_retries.inc();
                std::thread::sleep(std::time::Duration::from_micros(20u64 << attempts.min(6)));
            }
            Err(e) => {
                crate::obs::metrics().io_errors.inc();
                pr_obs::events().emit("io_error", format!("{e}"));
                return Err(e);
            }
            ok => return ok,
        }
    }
}

/// A device of fixed-size blocks with exact transfer accounting.
///
/// All methods take `&self`; implementations synchronize internally so
/// devices can be shared across threads (concurrent queries, merges).
pub trait BlockDevice: Send + Sync {
    /// Size of one block in bytes.
    fn block_size(&self) -> usize;

    /// Number of allocated blocks.
    fn num_blocks(&self) -> u64;

    /// Appends `n` zeroed blocks, returning the id of the first new block.
    /// Allocation itself is free (it models reserving address space, not a
    /// transfer).
    fn allocate(&self, n: u64) -> BlockId;

    /// Reads block `block` into `buf` (`buf.len()` must equal
    /// [`BlockDevice::block_size`]). Counts one read.
    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<()>;

    /// Runs `f` over the block's bytes, skipping the copy when the
    /// backend can expose its storage directly. The default resizes
    /// `scratch` to one block, delegates to
    /// [`BlockDevice::read_block`], and calls `f` on the result;
    /// [`MemDevice`] overrides it to borrow the stored block in place —
    /// `f` runs under its storage *read* lock, which any number of
    /// concurrent readers share, so parallel leaf visits don't
    /// serialize. Either way this counts exactly one read, so I/O
    /// accounting is unchanged.
    ///
    /// This is the query engine's uncached-node path: one page-sized
    /// `memcpy` per visit is pure overhead when the caller reads the
    /// bytes once (a leaf is scanned in place) or transcodes them.
    fn with_block(
        &self,
        block: BlockId,
        scratch: &mut Vec<u8>,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<()> {
        scratch.resize(self.block_size(), 0);
        self.read_block(block, scratch)?;
        f(scratch);
        Ok(())
    }

    /// Writes `buf` to block `block`. Counts one write.
    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<()>;

    /// The shared counters for this device.
    fn counters(&self) -> &Arc<IoCounters>;

    /// Convenience: a snapshot of the counters.
    fn io_stats(&self) -> IoStats {
        self.counters().snapshot()
    }

    /// Releases the storage of `blocks` (temporary-file deletion in the
    /// TPIE model). Freed ids are *not* reused; reading a discarded block
    /// is an error. Discarding is free of I/O cost. The default
    /// implementation is a no-op (file-backed devices may keep the bytes).
    fn discard(&self, blocks: &[BlockId]) {
        let _ = blocks;
    }

    /// Flushes every written block to stable storage (an `fsync` for
    /// file-backed devices). Persistence layers call this before a commit
    /// record becomes reachable. In-memory devices are trivially
    /// "durable", so the default is a free no-op.
    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// A file addressed by absolute byte offset rather than a shared cursor.
///
/// On unix this is `pread`/`pwrite` via [`std::os::unix::fs::FileExt`]:
/// no seek, no lock, so any number of threads read concurrently without
/// serializing on one file cursor. On other platforms it falls back to a
/// mutex-guarded `seek` + `read`/`write` — the mutex exists only where
/// the platform requires it.
///
/// Public because `pr-store` layers its snapshot reader on the same
/// primitive.
#[derive(Debug)]
pub struct PositionedFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: Mutex<File>,
}

impl PositionedFile {
    /// Wraps an open file.
    pub fn new(file: File) -> Self {
        #[cfg(unix)]
        {
            PositionedFile { file }
        }
        #[cfg(not(unix))]
        {
            PositionedFile {
                file: Mutex::new(file),
            }
        }
    }

    /// Fills `buf` from byte `offset`, zero-filling anything past the
    /// materialized end of the file (sparse-file semantics: unwritten
    /// regions read as zeros, mirroring zero-initialized allocation).
    /// `EINTR` is retried with bounded backoff.
    pub fn read_exact_or_zero_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        retry_io(|| match fault::on_op(OpClass::Read, buf.len()) {
            Decision::Proceed => self.read_exact_or_zero_at_impl(buf, offset),
            Decision::Fail(e) | Decision::Torn { errno: e, .. } => Err(e.to_io_error()),
            Decision::FlipBit { bit } => {
                self.read_exact_or_zero_at_impl(buf, offset)?;
                fault::flip_bit(buf, bit);
                Ok(())
            }
        })
    }

    fn read_exact_or_zero_at_impl(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            let mut done = 0;
            while done < buf.len() {
                let n = self.file.read_at(&mut buf[done..], offset + done as u64)?;
                if n == 0 {
                    buf[done..].fill(0);
                    break;
                }
                done += n;
            }
            Ok(())
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start(offset))?;
            let mut done = 0;
            while done < buf.len() {
                let n = file.read(&mut buf[done..])?;
                if n == 0 {
                    buf[done..].fill(0);
                    break;
                }
                done += n;
            }
            Ok(())
        }
    }

    /// Writes all of `buf` at byte `offset`. `EINTR` is retried with
    /// bounded backoff.
    pub fn write_all_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        retry_io(|| match fault::on_op(OpClass::Write, buf.len()) {
            Decision::Proceed => self.write_all_at_impl(buf, offset),
            Decision::Fail(e) => Err(e.to_io_error()),
            Decision::Torn { keep, errno } => {
                // The short-write-then-fail shape: a strict prefix
                // reaches the file before the error surfaces.
                let _ = self.write_all_at_impl(&buf[..keep], offset);
                Err(errno.to_io_error())
            }
            Decision::FlipBit { bit } => {
                let mut copy = buf.to_vec();
                fault::flip_bit(&mut copy, bit);
                self.write_all_at_impl(&copy, offset)
            }
        })
    }

    fn write_all_at_impl(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(buf)
        }
    }

    /// Writes every buffer in `bufs` back to back, starting at byte
    /// `offset` — the positioned analogue of `write_vectored`. On 64-bit
    /// unix the buffers go down in `pwritev` calls (one kernel crossing
    /// gathers the whole group in the common case); elsewhere this
    /// degrades to one `write_all_at` per buffer. The WAL's group-commit
    /// leader uses it to land a queue of independently encoded batches
    /// in a single syscall ahead of the one shared fsync. The whole
    /// gather counts as **one** op for fault injection (it is one
    /// logical append); a torn fault keeps a prefix of the logical
    /// concatenation.
    pub fn write_all_vectored_at(&self, bufs: &[&[u8]], offset: u64) -> std::io::Result<()> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        retry_io(|| match fault::on_op(OpClass::Write, total) {
            Decision::Proceed => self.write_all_vectored_at_impl(bufs, offset),
            Decision::Fail(e) => Err(e.to_io_error()),
            Decision::Torn { keep, errno } => {
                let mut remaining = keep;
                let mut off = offset;
                for b in bufs {
                    if remaining == 0 {
                        break;
                    }
                    let n = b.len().min(remaining);
                    let _ = self.write_all_at_impl(&b[..n], off);
                    off += n as u64;
                    remaining -= n;
                }
                Err(errno.to_io_error())
            }
            Decision::FlipBit { bit } => {
                let mut flat: Vec<u8> = Vec::with_capacity(total);
                for b in bufs {
                    flat.extend_from_slice(b);
                }
                fault::flip_bit(&mut flat, bit);
                self.write_all_at_impl(&flat, offset)
            }
        })
    }

    fn write_all_vectored_at_impl(&self, bufs: &[&[u8]], offset: u64) -> std::io::Result<()> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            use std::os::unix::io::AsRawFd;
            // Stay under IOV_MAX (1024 on every supported unix); larger
            // groups simply take another lap.
            const IOV_CHUNK: usize = 1024;
            let mut off = offset;
            for chunk in bufs.chunks(IOV_CHUNK) {
                let mut iov: Vec<sys::IoVec> = chunk
                    .iter()
                    .filter(|b| !b.is_empty())
                    .map(|b| sys::IoVec {
                        base: b.as_ptr() as *mut _,
                        len: b.len(),
                    })
                    .collect();
                let mut total: usize = iov.iter().map(|v| v.len).sum();
                let mut start = 0usize;
                while total > 0 {
                    let rc = unsafe {
                        sys::pwritev(
                            self.file.as_raw_fd(),
                            iov[start..].as_ptr(),
                            (iov.len() - start) as std::ffi::c_int,
                            off as i64,
                        )
                    };
                    if rc < 0 {
                        let err = std::io::Error::last_os_error();
                        if err.kind() == std::io::ErrorKind::Interrupted {
                            continue;
                        }
                        return Err(err);
                    }
                    let mut n = rc as usize;
                    if n == 0 {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WriteZero,
                            "pwritev wrote 0 bytes",
                        ));
                    }
                    off += n as u64;
                    total -= n;
                    // Skip fully written iovecs; trim a partial one.
                    while n > 0 {
                        if n >= iov[start].len {
                            n -= iov[start].len;
                            start += 1;
                        } else {
                            iov[start].base = unsafe { iov[start].base.cast::<u8>().add(n).cast() };
                            iov[start].len -= n;
                            n = 0;
                        }
                    }
                }
            }
            Ok(())
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            let mut off = offset;
            for buf in bufs {
                self.write_all_at(buf, off)?;
                off += buf.len() as u64;
            }
            Ok(())
        }
    }

    /// Forces written data (and metadata needed to read it back) to disk.
    pub fn sync_data(&self) -> std::io::Result<()> {
        crate::obs::metrics().device_fsyncs.inc();
        retry_io(|| match fault::on_op(OpClass::Fsync, 0) {
            Decision::Fail(e) | Decision::Torn { errno: e, .. } => Err(e.to_io_error()),
            _ => self.sync_data_impl(),
        })
    }

    fn sync_data_impl(&self) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            self.file.sync_data()
        }
        #[cfg(not(unix))]
        {
            self.file.lock().sync_data()
        }
    }

    /// Forces data *and all metadata* (including the length) to disk.
    /// Write-ahead-log segments use this when the commit point is the
    /// record reaching the file, not a later superblock flip.
    pub fn sync_all(&self) -> std::io::Result<()> {
        crate::obs::metrics().device_fsyncs.inc();
        retry_io(|| match fault::on_op(OpClass::Fsync, 0) {
            Decision::Fail(e) | Decision::Torn { errno: e, .. } => Err(e.to_io_error()),
            _ => self.sync_all_impl(),
        })
    }

    fn sync_all_impl(&self) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            self.file.sync_all()
        }
        #[cfg(not(unix))]
        {
            self.file.lock().sync_all()
        }
    }

    /// Truncates (or extends, zero-filled) the file to `len` bytes.
    /// WAL recovery uses this to chop a torn tail off a log segment so
    /// later appends land on a clean boundary. Faultable as its own
    /// [`OpClass::Trunc`] class (a full disk fails writes, not shrinks).
    pub fn set_len(&self, len: u64) -> std::io::Result<()> {
        retry_io(|| match fault::on_op(OpClass::Trunc, 0) {
            Decision::Fail(e) | Decision::Torn { errno: e, .. } => Err(e.to_io_error()),
            _ => self.set_len_impl(len),
        })
    }

    fn set_len_impl(&self, len: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            self.file.set_len(len)
        }
        #[cfg(not(unix))]
        {
            self.file.lock().set_len(len)
        }
    }

    /// Maps the first `len` bytes of the file read-only, or `None` when
    /// the platform has no mmap (non-unix) or the mapping fails for any
    /// reason — callers must treat `None` as "use the positioned-read
    /// path", never as an error. `len` is clamped to the current file
    /// length, and an empty range maps to `None`.
    ///
    /// The mapping is `MAP_SHARED`, so bytes written through the file
    /// descriptor later (appended snapshots) are visible through any
    /// overlapping mapping — callers mapping an immutable committed
    /// region are unaffected. The mapping also pins the inode exactly
    /// like an open descriptor: unlinking or renaming over the file
    /// leaves existing [`Mmap`]s (and their readers) intact.
    pub fn map_readonly(&self, len: u64) -> std::io::Result<Option<Mmap>> {
        if fault::mmap_denied() {
            // An installed schedule is forcing the positioned-read
            // fallback path; `None` is the documented "no mapping" case.
            return Ok(None);
        }
        let len = len.min(self.len()?);
        if len == 0 {
            return Ok(None);
        }
        #[cfg(unix)]
        {
            Ok(Mmap::new(&self.file, len as usize))
        }
        #[cfg(not(unix))]
        {
            Ok(None)
        }
    }

    /// Current file length in bytes.
    pub fn len(&self) -> std::io::Result<u64> {
        #[cfg(unix)]
        {
            Ok(self.file.metadata()?.len())
        }
        #[cfg(not(unix))]
        {
            Ok(self.file.lock().metadata()?.len())
        }
    }

    /// True when the file is empty.
    pub fn is_empty(&self) -> std::io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// A read-only shared memory mapping of a file prefix.
///
/// Produced by [`PositionedFile::map_readonly`]; the public surface is
/// just [`Mmap::as_slice`]. The build environment vendors no crates, so
/// on unix the mapping goes through a two-symbol raw FFI declaration of
/// `mmap`/`munmap` against the platform libc that `std` already links;
/// everywhere else `map_readonly` simply returns `None` and callers use
/// positioned reads. The constants used (`PROT_READ = 1`,
/// `MAP_SHARED = 1`) are identical across the unix targets this builds
/// on (Linux, macOS, the BSDs).
///
/// Safety contract: the mapped range must stay within the file (mapping
/// past EOF faults on access), which callers ensure by clamping to the
/// file length at map time and only mapping committed, fsynced regions
/// that never shrink.
#[cfg(unix)]
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_long, c_void};
    extern "C" {
        // `offset` is declared `c_long` because that is what `off_t`
        // defaults to on every unix ABI (64-bit on LP64, 32-bit on
        // ILP32 — the plain `mmap` symbol, not `mmap64`). We only ever
        // pass 0, so the narrower ILP32 type costs no range.
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
    pub const PROT_READ: c_int = 1;
    pub const MAP_SHARED: c_int = 1;

    /// `struct iovec` — identical layout on every unix ABI.
    #[cfg(target_pointer_width = "64")]
    #[repr(C)]
    pub struct IoVec {
        pub base: *mut c_void,
        pub len: usize,
    }

    #[cfg(target_pointer_width = "64")]
    extern "C" {
        // `off_t` is 64-bit on every LP64 unix; the pointer-width gate
        // keeps us off ILP32, where the plain `pwritev` symbol takes a
        // 32-bit offset and this declaration would corrupt the call.
        pub fn pwritev(fd: c_int, iov: *const IoVec, iovcnt: c_int, offset: i64) -> isize;
    }
}

#[cfg(unix)]
impl Mmap {
    fn new(file: &File, len: usize) -> Option<Mmap> {
        use std::os::unix::io::AsRawFd;
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX || ptr.is_null() {
            return None; // MAP_FAILED: fall back to positioned reads.
        }
        Some(Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
        // bytes (established in `new`, released only in `drop`).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is mapped (never constructed; for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

// SAFETY: the mapping is immutable (PROT_READ) and not tied to any
// thread; concurrent `&`-reads of plain bytes are race-free.
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        unsafe {
            sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
        }
    }
}

/// Non-unix stub so downstream types can name the type; never
/// constructed ([`PositionedFile::map_readonly`] returns `None` there).
#[cfg(not(unix))]
pub struct Mmap {
    never: std::convert::Infallible,
}

#[cfg(not(unix))]
impl Mmap {
    /// Unreachable on this platform.
    pub fn as_slice(&self) -> &[u8] {
        match self.never {}
    }

    /// Unreachable on this platform.
    pub fn len(&self) -> usize {
        match self.never {}
    }

    /// Unreachable on this platform.
    pub fn is_empty(&self) -> bool {
        match self.never {}
    }
}

/// Fsyncs a **directory**, making recent entry operations in it (file
/// creation, deletion, rename) durable. POSIX only promises that a
/// rename or a freshly created file survives a crash once its parent
/// directory is synced; WAL segment rotation and the atomic-rename
/// store compaction in `pr-live` call this after every such step. On
/// non-unix platforms this is a best-effort no-op (the rename itself is
/// still atomic; only its crash-durability ordering is weaker).
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    retry_io(|| match fault::on_op(OpClass::Fsync, 0) {
        Decision::Fail(e) | Decision::Torn { errno: e, .. } => Err(e.to_io_error()),
        _ => fsync_dir_impl(dir),
    })
}

fn fsync_dir_impl(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// In-memory block device: blocks live in a `Vec`, transfers are memcpys.
///
/// Deterministic and fast; the default substrate for all experiments.
pub struct MemDevice {
    block_size: usize,
    blocks: RwLock<Vec<Option<Box<[u8]>>>>,
    counters: Arc<IoCounters>,
}

impl MemDevice {
    /// Creates an empty device with the given block size.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        MemDevice {
            block_size,
            blocks: RwLock::new(Vec::new()),
            counters: IoCounters::new(),
        }
    }

    /// Creates an empty device with the paper's 4KB blocks.
    pub fn default_size() -> Self {
        MemDevice::new(DEFAULT_BLOCK_SIZE)
    }

    /// Bytes currently held, excluding discarded blocks (for capacity
    /// assertions in tests).
    pub fn resident_bytes(&self) -> usize {
        self.blocks.read().iter().filter(|b| b.is_some()).count() * self.block_size
    }
}

impl BlockDevice for MemDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.blocks.read().len() as u64
    }

    fn allocate(&self, n: u64) -> BlockId {
        let mut blocks = self.blocks.write();
        let first = blocks.len() as u64;
        for _ in 0..n {
            blocks.push(Some(vec![0u8; self.block_size].into_boxed_slice()));
        }
        first
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.block_size {
            return Err(EmError::BadBufferSize {
                got: buf.len(),
                want: self.block_size,
            });
        }
        let blocks = self.blocks.read();
        let slot = blocks.get(block as usize).ok_or(EmError::BlockOutOfRange {
            block,
            len: blocks.len() as u64,
        })?;
        let src = slot
            .as_ref()
            .ok_or_else(|| EmError::Corrupt(format!("read of discarded block {block}")))?;
        buf.copy_from_slice(src);
        drop(blocks);
        self.counters.add_reads(1);
        Ok(())
    }

    fn with_block(
        &self,
        block: BlockId,
        _scratch: &mut Vec<u8>,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<()> {
        // Zero-copy: hand out the stored block under a *read* lock (any
        // number of concurrent readers) instead of memcpy-ing a page the
        // caller will only read once.
        let blocks = self.blocks.read();
        let slot = blocks.get(block as usize).ok_or(EmError::BlockOutOfRange {
            block,
            len: blocks.len() as u64,
        })?;
        let src = slot
            .as_ref()
            .ok_or_else(|| EmError::Corrupt(format!("read of discarded block {block}")))?;
        f(src);
        drop(blocks);
        self.counters.add_reads(1);
        Ok(())
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<()> {
        if buf.len() != self.block_size {
            return Err(EmError::BadBufferSize {
                got: buf.len(),
                want: self.block_size,
            });
        }
        let mut blocks = self.blocks.write();
        let len = blocks.len() as u64;
        let slot = blocks
            .get_mut(block as usize)
            .ok_or(EmError::BlockOutOfRange { block, len })?;
        match slot {
            Some(dst) => dst.copy_from_slice(buf),
            None => *slot = Some(buf.to_vec().into_boxed_slice()),
        }
        drop(blocks);
        self.counters.add_writes(1);
        Ok(())
    }

    fn counters(&self) -> &Arc<IoCounters> {
        &self.counters
    }

    fn discard(&self, ids: &[BlockId]) {
        let mut blocks = self.blocks.write();
        for &id in ids {
            if let Some(slot) = blocks.get_mut(id as usize) {
                *slot = None;
            }
        }
    }
}

/// File-backed block device. Blocks are stored contiguously in one file.
///
/// I/O is positioned ([`PositionedFile`]): concurrent readers issue
/// `pread`s in parallel instead of serializing on one seek cursor.
pub struct FileDevice {
    block_size: usize,
    file: PositionedFile,
    num_blocks: AtomicU64,
    counters: Arc<IoCounters>,
}

impl FileDevice {
    /// Creates (truncating) a device backed by the file at `path`.
    pub fn create(path: &Path, block_size: usize) -> Result<Self> {
        assert!(block_size > 0, "block size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileDevice {
            block_size,
            file: PositionedFile::new(file),
            num_blocks: AtomicU64::new(0),
            counters: IoCounters::new(),
        })
    }

    /// Opens an existing file as a device. The block count is the file
    /// length divided by `block_size`, rounding a ragged tail up (the
    /// tail reads zero-padded).
    pub fn open(path: &Path, block_size: usize) -> Result<Self> {
        assert!(block_size > 0, "block size must be positive");
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(FileDevice {
            block_size,
            file: PositionedFile::new(file),
            num_blocks: AtomicU64::new(len.div_ceil(block_size as u64)),
            counters: IoCounters::new(),
        })
    }
}

impl BlockDevice for FileDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks.load(Ordering::Acquire)
    }

    fn allocate(&self, n: u64) -> BlockId {
        // The file is grown lazily on write; sparse files make allocation
        // cheap, matching the in-memory device's free allocation.
        self.num_blocks.fetch_add(n, Ordering::AcqRel)
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.block_size {
            return Err(EmError::BadBufferSize {
                got: buf.len(),
                want: self.block_size,
            });
        }
        let len = self.num_blocks();
        if block >= len {
            return Err(EmError::BlockOutOfRange { block, len });
        }
        self.file
            .read_exact_or_zero_at(buf, block * self.block_size as u64)?;
        self.counters.add_reads(1);
        Ok(())
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> Result<()> {
        if buf.len() != self.block_size {
            return Err(EmError::BadBufferSize {
                got: buf.len(),
                want: self.block_size,
            });
        }
        let len = self.num_blocks();
        if block >= len {
            return Err(EmError::BlockOutOfRange { block, len });
        }
        self.file
            .write_all_at(buf, block * self.block_size as u64)?;
        self.counters.add_writes(1);
        Ok(())
    }

    fn counters(&self) -> &Arc<IoCounters> {
        &self.counters
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(dev: &dyn BlockDevice) {
        let bs = dev.block_size();
        let first = dev.allocate(3);
        assert_eq!(dev.num_blocks(), 3);
        let mut buf = vec![0xABu8; bs];
        buf[0] = 1;
        dev.write_block(first + 1, &buf).unwrap();
        let mut out = vec![0u8; bs];
        dev.read_block(first + 1, &mut out).unwrap();
        assert_eq!(out, buf);
        // Unwritten blocks read as zeros.
        dev.read_block(first, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        // Accounting: 1 write, 2 reads.
        let s = dev.io_stats();
        assert_eq!((s.reads, s.writes), (2, 1));
    }

    #[test]
    fn mem_device_roundtrip_and_accounting() {
        roundtrip(&MemDevice::new(512));
    }

    #[test]
    fn file_device_roundtrip_and_accounting() {
        let dir = std::env::temp_dir().join(format!("pr-em-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.bin");
        roundtrip(&FileDevice::create(&path, 512).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_is_an_error() {
        let dev = MemDevice::new(64);
        dev.allocate(1);
        let mut buf = vec![0u8; 64];
        assert!(matches!(
            dev.read_block(5, &mut buf),
            Err(EmError::BlockOutOfRange { block: 5, len: 1 })
        ));
        assert!(matches!(
            dev.write_block(1, &buf),
            Err(EmError::BlockOutOfRange { .. })
        ));
    }

    #[test]
    fn wrong_buffer_size_is_an_error() {
        let dev = MemDevice::new(64);
        dev.allocate(1);
        let mut small = vec![0u8; 32];
        assert!(matches!(
            dev.read_block(0, &mut small),
            Err(EmError::BadBufferSize { got: 32, want: 64 })
        ));
    }

    #[test]
    fn allocation_is_free_of_io() {
        let dev = MemDevice::new(64);
        dev.allocate(100);
        assert_eq!(dev.io_stats().total(), 0);
        assert_eq!(dev.resident_bytes(), 6400);
    }

    #[test]
    fn discard_reclaims_memory_and_poisons_reads() {
        let dev = MemDevice::new(64);
        dev.allocate(4);
        let buf = vec![1u8; 64];
        dev.write_block(0, &buf).unwrap();
        dev.write_block(1, &buf).unwrap();
        dev.discard(&[0, 1]);
        assert_eq!(dev.resident_bytes(), 2 * 64);
        let mut out = vec![0u8; 64];
        assert!(matches!(
            dev.read_block(0, &mut out),
            Err(EmError::Corrupt(_))
        ));
        // Rewriting a discarded block revives it.
        dev.write_block(0, &buf).unwrap();
        dev.read_block(0, &mut out).unwrap();
        assert_eq!(out, buf);
        // Discard is free of I/O cost: 3 writes + 1 read so far.
        let s = dev.io_stats();
        assert_eq!((s.reads, s.writes), (1, 3));
    }

    #[test]
    fn default_block_size_matches_paper() {
        assert_eq!(MemDevice::default_size().block_size(), 4096);
    }

    #[test]
    fn file_device_reopen_preserves_contents() {
        let dir = std::env::temp_dir().join(format!("pr-em-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.bin");
        let mut block = vec![7u8; 256];
        block[0] = 42;
        {
            let dev = FileDevice::create(&path, 256).unwrap();
            dev.allocate(2);
            dev.write_block(1, &block).unwrap();
            dev.sync().unwrap();
        }
        let dev = FileDevice::open(&path, 256).unwrap();
        assert_eq!(dev.num_blocks(), 2);
        let mut out = vec![0u8; 256];
        dev.read_block(1, &mut out).unwrap();
        assert_eq!(out, block);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_device_concurrent_positioned_reads() {
        let dir = std::env::temp_dir().join(format!("pr-em-conc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("conc.bin");
        let dev = FileDevice::create(&path, 128).unwrap();
        let blocks = 64u64;
        dev.allocate(blocks);
        for b in 0..blocks {
            dev.write_block(b, &[b as u8; 128]).unwrap();
        }
        // Readers hammer disjoint and overlapping blocks; positioned I/O
        // must return each block's own bytes regardless of interleaving.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let dev = &dev;
                s.spawn(move || {
                    let mut buf = vec![0u8; 128];
                    for round in 0..50u64 {
                        let b = (t * 17 + round) % blocks;
                        dev.read_block(b, &mut buf).unwrap();
                        assert!(buf.iter().all(|&x| x == b as u8), "block {b} torn");
                    }
                });
            }
        });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_is_a_noop_for_memory_and_counted_free_for_files() {
        let mem = MemDevice::new(64);
        mem.sync().unwrap();
        assert_eq!(mem.io_stats().total(), 0);
    }

    #[test]
    fn map_readonly_sees_written_bytes_and_clamps() {
        let dir = std::env::temp_dir().join(format!("pr-em-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map.bin");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        let pf = PositionedFile::new(file);
        let payload: Vec<u8> = (0..=255u8).cycle().take(8192).collect();
        pf.write_all_at(&payload, 0).unwrap();
        pf.sync_data().unwrap();

        // An empty request (or an empty file) maps to None, not an error.
        assert!(pf.map_readonly(0).unwrap().is_none());

        if let Some(map) = pf.map_readonly(u64::MAX).unwrap() {
            // Clamped to the real file length.
            assert_eq!(map.len(), 8192);
            assert!(!map.is_empty());
            assert_eq!(map.as_slice(), &payload[..]);
            // MAP_SHARED: a later positioned write is visible through
            // the existing mapping (the store only maps immutable
            // regions, but the primitive must not cache stale bytes).
            pf.write_all_at(&[0xEE; 16], 100).unwrap();
            assert_eq!(&map.as_slice()[100..116], &[0xEE; 16]);
            // The mapping pins the inode across unlink.
            std::fs::remove_file(&path).unwrap();
            assert_eq!(&map.as_slice()[0..4], &payload[0..4]);
        } else {
            // Non-unix (or exotic) platform: the fallback contract is
            // simply "None", which callers translate to positioned reads.
            std::fs::remove_file(&path).ok();
        }
    }
}
