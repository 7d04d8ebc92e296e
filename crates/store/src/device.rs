//! The read-only block device an opened snapshot is served through.
//!
//! A [`StoreDevice`] maps block id `i` to file byte range
//! `data_offset + i·block_size ..`, so the reopened tree's page ids are
//! snapshot-relative and start at 0 (the root). Since the zero-copy
//! read-path rework the device has three cooperating layers:
//!
//! * **mmap first** ([`pr_em::Mmap`]): on unix the committed snapshot
//!   region is memory-mapped once per open/commit and shared (`Arc`) by
//!   every device pinned to that snapshot, so
//!   [`pr_em::BlockDevice::with_block`] hands the query engine a *true
//!   borrowed slice* of the file — no page-sized copy, no syscall per
//!   leaf visit. Where mmap is unavailable (non-unix, or the mapping
//!   failed) every read transparently falls back to positioned
//!   `read_at`, bit-identical results guaranteed.
//! * **verify-once CRC** ([`VerifiedBitmap`]): the committed snapshot is
//!   immutable, so a page that passed its CRC32 once cannot honestly
//!   fail it later — re-hashing 4 KiB per leaf per query is pure
//!   overhead. Each page's first touch verifies it against the committed
//!   checksum table and sets one atomic bit; later touches are free. The
//!   bitmap is shared (`Arc`) across all devices of one snapshot, so a
//!   page verified by `warm_cache` is free for every subsequent query,
//!   and an eager [`StoreDevice::scrub`] marks everything at once. A
//!   flipped bit in a page that was **already verified** is therefore
//!   *not* seen by later queries — that is the documented trade; the
//!   scrub (which always re-hashes, and *clears* the bit of any page
//!   that fails) exists to catch exactly that bit rot.
//! * **recheck mode** (`verify_every_read`): the pre-rework behavior —
//!   positioned read + full CRC on every access — retained behind
//!   [`crate::store::ReadPath::Recheck`] as the paranoid mode and as the
//!   honest baseline for prbench's `store.recheck_ns_per_leaf`.
//!
//! The device is **read-only**: writes return [`EmError::ReadOnly`], and
//! `allocate` hands out ids past the committed end whose reads fail with
//! `BlockOutOfRange` (a committed snapshot never grows in place — new
//! data means a new snapshot appended by `Store::save`). Because each
//! device pins its own `(data_offset, checksums, map)`, trees opened
//! before a later `save` keep reading their original snapshot — and the
//! mapping pins the inode, so even `compact()`'s atomic-rename rewrite
//! never moves pages out from under a live reader.

use crate::crc::crc32;
use crate::error::StoreError;
use pr_em::{BlockDevice, BlockId, EmError, IoCounters, Mmap, PositionedFile};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One atomic bit per page: set once the page's CRC32 has been checked
/// against the committed table. Shared by every [`StoreDevice`] pinned
/// to one snapshot, so verification work is never repeated across
/// handles (components of one snapshot share it too).
#[derive(Debug)]
pub(crate) struct VerifiedBitmap {
    words: Vec<AtomicU64>,
    pages: u64,
    verified: AtomicU64,
}

impl VerifiedBitmap {
    /// A fresh all-unverified bitmap for `pages` pages.
    pub(crate) fn new(pages: u64) -> Self {
        VerifiedBitmap {
            words: (0..pages.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            pages,
            verified: AtomicU64::new(0),
        }
    }

    /// True when `page` has already passed its checksum.
    #[inline]
    pub(crate) fn is_verified(&self, page: u64) -> bool {
        self.words[(page / 64) as usize].load(Ordering::Acquire) & (1 << (page % 64)) != 0
    }

    /// Marks `page` verified; returns `true` when this call flipped it.
    #[inline]
    fn set(&self, page: u64) -> bool {
        let prev = self.words[(page / 64) as usize].fetch_or(1 << (page % 64), Ordering::AcqRel);
        let newly = prev & (1 << (page % 64)) == 0;
        if newly {
            self.verified.fetch_add(1, Ordering::Relaxed);
        }
        newly
    }

    /// Clears `page` (a scrub caught post-verification rot: later reads
    /// must fail loudly instead of serving the bad bytes).
    fn clear(&self, page: u64) {
        let prev =
            self.words[(page / 64) as usize].fetch_and(!(1 << (page % 64)), Ordering::AcqRel);
        if prev & (1 << (page % 64)) != 0 {
            self.verified.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Number of pages verified so far.
    pub(crate) fn verified_pages(&self) -> u64 {
        self.verified.load(Ordering::Relaxed)
    }

    /// Total pages tracked.
    pub(crate) fn total_pages(&self) -> u64 {
        self.pages
    }
}

/// Outcome of an eager checksum sweep ([`Store::scrub`](crate::Store::scrub)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// Pages in the snapshot (all of them were re-hashed).
    pub pages: u64,
    /// Pages the verify-once bitmap had already marked before the scrub
    /// (lazily verified by earlier reads, or by a previous scrub).
    pub already_verified: u64,
}

/// Sets/clears the shared degraded flag, mirroring it into the registry
/// gauge and emitting the transition event exactly once per flip.
fn set_degraded(flag: &AtomicBool, degraded: bool, why: &str) {
    let was = flag.swap(degraded, Ordering::SeqCst);
    if was != degraded {
        crate::obs::metrics().degraded.set(u64::from(degraded));
        pr_obs::events().emit(
            if degraded {
                "degraded_enter"
            } else {
                "degraded_exit"
            },
            format!("store read path: {why}"),
        );
    }
}

/// Read-only, checksum-verifying view of one committed snapshot.
pub(crate) struct StoreDevice {
    file: Arc<PositionedFile>,
    /// Shared mapping of the file prefix covering the snapshot region
    /// (`None`: non-unix, mapping failed, or recheck mode).
    map: Option<Arc<Mmap>>,
    block_size: usize,
    num_pages: u64,
    data_offset: u64,
    checksums: Arc<Vec<u32>>,
    verified: Arc<VerifiedBitmap>,
    /// Recheck mode: ignore the bitmap and re-hash on every read.
    verify_every_read: bool,
    /// Shared degraded flag: set (by any handle, or a scrub) when
    /// corruption is detected, making **every** handle of this store
    /// re-hash every read — [`crate::store::ReadPath::Recheck`]
    /// semantics forced on the whole snapshot until a clean scrub
    /// clears it. Possibly-rotten pages are never served off a stale
    /// verified bit.
    degraded: Arc<AtomicBool>,
    /// Ids handed out by `allocate` (they are unusable, but the contract
    /// says ids are unique and monotone).
    allocated_past_end: AtomicU64,
    counters: Arc<IoCounters>,
}

impl StoreDevice {
    /// Wraps a committed snapshot region. `checksums[i]` must be the
    /// CRC32 of page `i`; `map`, when present, must cover at least
    /// `data_offset + checksums.len() · block_size` bytes of the file.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        file: Arc<PositionedFile>,
        map: Option<Arc<Mmap>>,
        block_size: usize,
        data_offset: u64,
        checksums: Arc<Vec<u32>>,
        verified: Arc<VerifiedBitmap>,
        verify_every_read: bool,
        degraded: Arc<AtomicBool>,
    ) -> Self {
        debug_assert_eq!(verified.total_pages(), checksums.len() as u64);
        if let Some(m) = &map {
            debug_assert!(
                m.len() as u64 >= data_offset + checksums.len() as u64 * block_size as u64
            );
        }
        StoreDevice {
            file,
            map,
            block_size,
            num_pages: checksums.len() as u64,
            data_offset,
            checksums,
            verified,
            verify_every_read,
            degraded,
            allocated_past_end: AtomicU64::new(0),
            counters: IoCounters::new(),
        }
    }

    #[inline]
    fn range_check(&self, block: BlockId) -> Result<(), EmError> {
        if block >= self.num_pages {
            return Err(EmError::BlockOutOfRange {
                block,
                len: self.num_pages,
            });
        }
        Ok(())
    }

    /// The page's bytes inside the shared mapping, when mapped.
    #[inline]
    fn mapped_page(&self, block: BlockId) -> Option<&[u8]> {
        self.map.as_ref().map(|m| {
            let start = (self.data_offset + block * self.block_size as u64) as usize;
            &m.as_slice()[start..start + self.block_size]
        })
    }

    /// Verify-once: a no-op when the bitmap already covers `block`
    /// (unless in recheck mode), else one CRC32 pass that marks the bit
    /// on success.
    #[inline]
    fn verify(&self, block: BlockId, bytes: &[u8]) -> Result<(), EmError> {
        if !self.verify_every_read
            && !self.degraded.load(Ordering::Relaxed)
            && self.verified.is_verified(block)
        {
            return Ok(());
        }
        let computed = crc32(bytes);
        let stored = self.checksums[block as usize];
        if computed != stored {
            // Proof of rot is proof for every handle of this snapshot:
            // clear the shared bit (a Recheck handle may be re-hashing
            // a page some ZeroCopy sibling verified earlier) so no
            // handle keeps serving the page off its stale verification —
            // and flip the shared degraded flag so every handle re-hashes
            // everything until a clean scrub proves health.
            self.verified.clear(block);
            crate::obs::metrics().corrupt_pages.inc();
            pr_obs::events().emit("corruption", format!("page={block} (query-path verify)"));
            set_degraded(&self.degraded, true, "page failed CRC during read");
            return Err(EmError::Corrupt(format!(
                "page {block} failed its CRC32 checksum (stored {stored:08x}, computed {computed:08x})"
            )));
        }
        self.verified.set(block);
        Ok(())
    }

    /// Eagerly re-hashes **every** page against the checksum table —
    /// unconditionally, bitmap or not, because the scrub's job is to
    /// catch bit rot that happened *after* a page was first verified.
    /// The sweep always runs to the end, even past failures: pages that
    /// pass are marked in the shared bitmap (so subsequent query reads
    /// are free), and **every** page that fails has its bit cleared —
    /// later reads of any rotted page surface `Corrupt` instead of
    /// trusting its stale verification, not just reads of the first
    /// one. The typed error names the lowest-numbered bad page.
    pub(crate) fn scrub(&self) -> Result<ScrubReport, StoreError> {
        let already = self.verified.verified_pages();
        let mut buf = vec![0u8; self.block_size];
        let mut scratch = Vec::new();
        let mut first_bad: Option<u64> = None;
        let mut bad: u64 = 0;
        for page in 0..self.num_pages {
            let bytes: &[u8] = match self.mapped_page(page) {
                Some(slice) => pr_em::fault::mapped_read(slice, &mut scratch)?,
                None => {
                    self.file.read_exact_or_zero_at(
                        &mut buf,
                        self.data_offset + page * self.block_size as u64,
                    )?;
                    &buf
                }
            };
            if crc32(bytes) != self.checksums[page as usize] {
                self.verified.clear(page);
                crate::obs::metrics().corrupt_pages.inc();
                pr_obs::events().emit("corruption", format!("page={page} (scrub)"));
                bad += 1;
                first_bad.get_or_insert(page);
            } else {
                self.verified.set(page);
            }
        }
        // The scrub's verdict drives the shared degraded flag: any rot
        // forces every handle into recheck-everything mode; a fully
        // clean sweep is the documented way back out.
        if bad > 0 {
            set_degraded(
                &self.degraded,
                true,
                &format!("scrub found {bad} corrupt pages"),
            );
        } else {
            set_degraded(&self.degraded, false, "scrub found every page intact");
        }
        if let Some(page) = first_bad {
            return Err(StoreError::ChecksumMismatch { page });
        }
        Ok(ScrubReport {
            pages: self.num_pages,
            already_verified: already,
        })
    }
}

impl BlockDevice for StoreDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.num_pages
    }

    fn allocate(&self, n: u64) -> BlockId {
        // Read-only device: allocation yields ids past the committed end.
        // Reading them fails with BlockOutOfRange and writing anything
        // fails with ReadOnly, so a dynamic update on an opened tree
        // surfaces as a typed error instead of corrupting the snapshot.
        self.num_pages + self.allocated_past_end.fetch_add(n, Ordering::AcqRel)
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> Result<(), EmError> {
        if buf.len() != self.block_size {
            return Err(EmError::BadBufferSize {
                got: buf.len(),
                want: self.block_size,
            });
        }
        self.range_check(block)?;
        if let Some(slice) = self.mapped_page(block) {
            // Mapped reads have no syscall; the probe gives the fault
            // layer the same interception point `read_at` gets (it can
            // fail the read or serve a bit-flipped copy — which the CRC
            // verify below then catches).
            let mut scratch = Vec::new();
            let bytes = pr_em::fault::mapped_read(slice, &mut scratch).map_err(EmError::Io)?;
            self.verify(block, bytes)?;
            buf.copy_from_slice(bytes);
        } else {
            self.file
                .read_exact_or_zero_at(buf, self.data_offset + block * self.block_size as u64)?;
            self.verify(block, buf)?;
        }
        self.counters.add_reads(1);
        Ok(())
    }

    fn with_block(
        &self,
        block: BlockId,
        scratch: &mut Vec<u8>,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), EmError> {
        self.range_check(block)?;
        // Zero-copy: hand the caller the mapped snapshot bytes in place.
        // Verification (when still needed for this page) runs on the
        // same slice, so the page is hashed at most once ever and copied
        // never. Falls back to the buffered read where no mapping exists.
        // The fault probe sits in front (one relaxed load when disarmed)
        // so even syscall-free mapped visits are interceptable.
        if let Some(slice) = self.mapped_page(block) {
            let bytes = pr_em::fault::mapped_read(slice, scratch).map_err(EmError::Io)?;
            self.verify(block, bytes)?;
            f(bytes);
            self.counters.add_reads(1);
            return Ok(());
        }
        scratch.resize(self.block_size, 0);
        self.read_block(block, scratch)?;
        f(scratch);
        Ok(())
    }

    fn write_block(&self, _block: BlockId, buf: &[u8]) -> Result<(), EmError> {
        if buf.len() != self.block_size {
            return Err(EmError::BadBufferSize {
                got: buf.len(),
                want: self.block_size,
            });
        }
        Err(EmError::ReadOnly)
    }

    fn counters(&self) -> &Arc<IoCounters> {
        &self.counters
    }

    fn sync(&self) -> Result<(), EmError> {
        // Nothing buffered: the snapshot was fsynced when committed.
        Ok(())
    }
}
