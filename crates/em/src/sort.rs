//! External multiway merge sort.
//!
//! The classic `O(N/B · log_{M/B}(N/B))` sort every bulk-loading algorithm
//! in the paper charges to "the number of I/Os needed to sort N elements":
//!
//! 1. **Run formation** — read the input sequentially, fill main memory
//!    (`M` bytes), sort in place, write a sorted run; repeat.
//! 2. **Merge passes** — repeatedly merge up to `k = M/B − 1` runs into
//!    one, buffering one block per input run plus one output block, until
//!    a single run remains.
//!
//! With the paper's parameters (64MB of memory for TPIE, 4KB blocks) a
//! dataset of 10–17M records sorts in one run-formation pass plus a single
//! merge pass, which is why its measured constants are small.
//!
//! A sorted order does not have to be written out to be read: a few
//! sorted runs and a [`MergeReader`] over them *are* the order, for one
//! buffered block per run. [`external_sort_multi`] stops there and
//! returns the runs; [`external_sort_by`] is that plus the final merge
//! written out ([`merge_runs`]), for callers that read the order more
//! than once or hand it on as a [`Stream`].

use crate::device::BlockDevice;
use crate::error::EmError;
use crate::stream::{Record, Stream, StreamReader, StreamWriter};
use crate::Result;
use std::cmp::Ordering;

/// Memory configuration for the external sort.
#[derive(Debug, Clone, Copy)]
pub struct SortConfig {
    /// Main-memory budget in bytes (the model's `M`). Run formation sorts
    /// `memory_bytes / R::SIZE` records at a time; merges use
    /// `memory_bytes / block_size − 1` input buffers.
    pub memory_bytes: usize,
}

impl SortConfig {
    /// Budget of `memory_bytes` bytes.
    pub fn with_memory(memory_bytes: usize) -> Self {
        SortConfig { memory_bytes }
    }

    /// Records that fit in memory during run formation.
    pub fn run_capacity<R: Record>(&self) -> usize {
        (self.memory_bytes / R::SIZE).max(1)
    }

    /// Merge fan-in on a device with the given block size.
    pub(crate) fn fan_in(&self, block_size: usize) -> usize {
        (self.memory_bytes / block_size).saturating_sub(1).max(2)
    }

    fn validate(&self, block_size: usize, record_size: usize) -> Result<()> {
        if self.memory_bytes < 3 * block_size {
            return Err(EmError::BudgetTooSmall(format!(
                "external sort needs at least 3 blocks of memory ({} bytes), got {}",
                3 * block_size,
                self.memory_bytes
            )));
        }
        if record_size > block_size {
            return Err(EmError::BudgetTooSmall(format!(
                "record size {record_size} exceeds block size {block_size}"
            )));
        }
        Ok(())
    }
}

/// An order an external sort runs under: how two records compare, and
/// how one memory load is sorted.
///
/// Every `FnMut(&R, &R) -> Ordering` is one, sorting a load with the
/// stable `sort_by`. A named order may override [`SortOrder::sort`], say
/// with an unstable in-place sort that needs no scratch buffer.
pub trait SortOrder<R> {
    /// Compares two records: the order runs are sorted in and merged by.
    fn cmp(&mut self, a: &R, b: &R) -> Ordering;

    /// Sorts one memory load under [`SortOrder::cmp`]. The default is a
    /// stable `sort_by`. An override may sort any other way, an unstable
    /// one included: records that compare `Equal` then come out of the
    /// load, and so of the sort, in an order nothing pins. An order that
    /// is total on the records sorted (ties broken by a unique id, say)
    /// gives the same runs however its loads are sorted.
    fn sort(&mut self, load: &mut [R]) {
        load.sort_by(|a, b| self.cmp(a, b));
    }
}

impl<R, F: FnMut(&R, &R) -> Ordering> SortOrder<R> for F {
    fn cmp(&mut self, a: &R, b: &R) -> Ordering {
        self(a, b)
    }
}

/// Sorts `input` by `R`'s natural order. See [`external_sort_by`].
pub fn external_sort<R: Record + Ord>(
    dev: &dyn BlockDevice,
    input: &Stream,
    config: SortConfig,
) -> Result<Stream> {
    external_sort_by(dev, input, config, |a: &R, b: &R| a.cmp(b))
}

/// Sorts `input` with a caller-supplied comparator, returning a new sorted
/// stream on the same device. The input stream is left untouched (its
/// blocks are not reclaimed; the simulated disk is append-only).
///
/// This is [`external_sort_multi`] for one order with the final merge
/// written out ([`merge_runs`]).
pub fn external_sort_by<R, F>(
    dev: &dyn BlockDevice,
    input: &Stream,
    config: SortConfig,
    mut cmp: F,
) -> Result<Stream>
where
    R: Record,
    F: FnMut(&R, &R) -> Ordering,
{
    let runs = external_sort_multi(dev, input, config, std::slice::from_mut(&mut cmp))?.pop();
    merge_runs(dev, runs.expect("one order in, one set of runs out"), cmp)
}

/// Sorts `input` under every order of `orders` at once and returns,
/// per order (same positions), the sorted order as a short list of
/// sorted **runs**: at most `max(fan_in / 4, 1)` of them, none for an
/// empty input. A [`MergeReader`] over the runs yields the order record
/// by record for one buffered block per run; [`merge_runs`] writes it
/// out as one stream. A caller that only scans the order front to back
/// — possibly stopping early — never pays the final merge pass' write
/// and re-read.
///
/// Run formation reads the input **once**: each memory-load is sorted
/// and written out under every order before the next load is read, so
/// `k` orders cost `N/B` reads + `k·N/B` writes there instead of `k·N/B`
/// of each. Merge passes (per order, `fan_in` runs at a time) happen
/// only while an order has more runs than the bound above, and the
/// memory in use never exceeds that of a single sort. With the paper's
/// 64 MB against 600 MB of input that is nine runs and no merge pass.
///
/// A load is sorted in place by each order's [`SortOrder::sort`] in
/// turn, so records an order ties come out in the sequence its `sort`
/// leaves them: under a closure's stable sort, the input's for the first
/// order and the previous order's for later ones; under an unstable
/// override, a sequence nothing pins. An order that is total on the
/// input forms the same runs either way.
pub fn external_sort_multi<R, O>(
    dev: &dyn BlockDevice,
    input: &Stream,
    config: SortConfig,
    orders: &mut [O],
) -> Result<Vec<Vec<Stream>>>
where
    R: Record,
    O: SortOrder<R>,
{
    config.validate(dev.block_size(), R::SIZE)?;

    // Phase 1: run formation, one run per load and order.
    let cap = config.run_capacity::<R>();
    let mut runs: Vec<Vec<Stream>> = orders.iter().map(|_| Vec::new()).collect();
    let mut reader = StreamReader::<R>::new(dev, input);
    let mut buf: Vec<R> = Vec::with_capacity(cap.min(input.len() as usize));
    while reader.remaining() > 0 {
        while buf.len() < cap {
            match reader.next_record()? {
                Some(r) => buf.push(r),
                None => break,
            }
        }
        for (order, runs) in orders.iter_mut().zip(&mut runs) {
            order.sort(&mut buf);
            let mut w = StreamWriter::<R>::new(dev);
            for r in &buf {
                w.push(r)?;
            }
            runs.push(w.finish()?);
        }
        buf.clear();
    }
    drop(buf);

    // Phase 2: merge passes, while a reader over the runs would hold
    // more than a quarter of the budget in blocks.
    let fan_in = config.fan_in(dev.block_size());
    let max_runs = (fan_in / 4).max(1);
    for (order, runs) in orders.iter_mut().zip(&mut runs) {
        while runs.len() > max_runs {
            let mut next: Vec<Stream> = Vec::with_capacity(runs.len().div_ceil(fan_in));
            for group in runs.chunks(fan_in) {
                next.push(write_merged(dev, group, |a: &R, b: &R| order.cmp(a, b))?);
            }
            // Consumed runs are temporary files: released as soon as the
            // merged runs replace them.
            for run in std::mem::replace(runs, next) {
                run.discard(dev);
            }
        }
    }
    Ok(runs)
}

/// Writes the merge of `runs` (each sorted under `order`) out as one
/// stream and releases the runs' blocks: one read and one write of the
/// data. A single run is returned as it is, at no I/O.
pub fn merge_runs<R, O>(dev: &dyn BlockDevice, mut runs: Vec<Stream>, order: O) -> Result<Stream>
where
    R: Record,
    O: SortOrder<R>,
{
    if runs.len() == 1 {
        return Ok(runs.pop().expect("one run"));
    }
    let merged = write_merged(dev, &runs, order)?;
    for run in runs {
        run.discard(dev);
    }
    Ok(merged)
}

fn write_merged<R, O>(dev: &dyn BlockDevice, runs: &[Stream], order: O) -> Result<Stream>
where
    R: Record,
    O: SortOrder<R>,
{
    let mut writer = StreamWriter::<R>::new(dev);
    let mut merged = MergeReader::new(dev, runs, order);
    while let Some(r) = merged.next_record()? {
        writer.push(&r)?;
    }
    writer.finish()
}

/// Reads the merge of sorted runs sequentially, one buffered block per
/// run: the sorted order without writing it out. Equal records come out
/// in run order, so merging the runs of a stable run formation is
/// stable. Nothing is read before the first [`MergeReader::next_record`]
/// and a record's successor only when the next one is asked for, so
/// over a single run this is a plain [`StreamReader`], and a scan that
/// stops after `r` records has read at most `⌈r / per_block⌉ + k` blocks
/// of `k` runs.
pub struct MergeReader<'d, R: Record, O> {
    sources: Vec<StreamReader<'d, R>>,
    /// The next record of every source; `None` once it is exhausted,
    /// before the first read, and for the source at the top of the heap
    /// after its head was handed out.
    heads: Vec<Option<R>>,
    /// Binary min-heap of the live sources, by head (ties: lower index).
    heap: Vec<usize>,
    primed: bool,
    order: O,
}

impl<'d, R, O> MergeReader<'d, R, O>
where
    R: Record,
    O: SortOrder<R>,
{
    /// Opens `runs`, each sorted under `order`, for reading in merged
    /// order on `dev`.
    pub fn new(dev: &'d dyn BlockDevice, runs: &[Stream], order: O) -> Self {
        MergeReader {
            sources: runs.iter().map(|r| StreamReader::new(dev, r)).collect(),
            heads: runs.iter().map(|_| None).collect(),
            heap: Vec::with_capacity(runs.len()),
            primed: false,
            order,
        }
    }

    /// Returns the next record of the merged order, or `None` at its end.
    /// An error ends the scan: the reader must not be read further.
    pub fn next_record(&mut self) -> Result<Option<R>> {
        if !self.primed {
            for (i, source) in self.sources.iter_mut().enumerate() {
                self.heads[i] = source.next_record()?;
            }
            self.heap = (0..self.sources.len())
                .filter(|&i| self.heads[i].is_some())
                .collect();
            self.primed = true;
            for at in (0..self.heap.len() / 2).rev() {
                self.sift_down(at);
            }
        } else if let Some(&top) = self.heap.first() {
            // Replace the record handed out last time by its successor
            // (or drop the source) and restore the heap in one descent.
            self.heads[top] = self.sources[top].next_record()?;
            if self.heads[top].is_none() {
                self.heap.swap_remove(0);
            }
            self.sift_down(0);
        }
        Ok(self.heap.first().and_then(|&top| self.heads[top].take()))
    }

    fn less(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (
            self.heads[a].as_ref().expect("heap source has a head"),
            self.heads[b].as_ref().expect("heap source has a head"),
        );
        self.order.cmp(ra, rb).then(a.cmp(&b)) == Ordering::Less
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let mut least = at;
            for kid in [2 * at + 1, 2 * at + 2] {
                if kid < self.heap.len() && self.less(self.heap[kid], self.heap[least]) {
                    least = kid;
                }
            }
            if least == at {
                return;
            }
            self.heap.swap(at, least);
            at = least;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn sort_vec(input: Vec<u32>, block: usize, mem: usize) -> (Vec<u32>, crate::IoStats) {
        let dev = MemDevice::new(block);
        let s = Stream::from_iter(&dev, input.iter().copied()).unwrap();
        let before = dev.io_stats();
        let sorted = external_sort::<u32>(&dev, &s, SortConfig::with_memory(mem)).unwrap();
        let stats = dev.io_stats().since(before);
        (sorted.read_all::<u32>(&dev).unwrap(), stats)
    }

    #[test]
    fn sorts_small_input_single_run() {
        let (out, _) = sort_vec(vec![5, 3, 9, 1, 1, 8], 32, 1024);
        assert_eq!(out, vec![1, 1, 3, 5, 8, 9]);
    }

    #[test]
    fn sorts_multi_run_multi_pass() {
        // 32-byte blocks (8 u32), 96-byte memory = 24 records per run,
        // fan-in = 2: forces several merge passes.
        let input: Vec<u32> = (0..500).rev().collect();
        let (out, stats) = sort_vec(input, 32, 96);
        assert_eq!(out, (0..500).collect::<Vec<_>>());
        assert!(stats.total() > 0);
    }

    #[test]
    fn empty_input() {
        let (out, stats) = sort_vec(vec![], 32, 1024);
        assert!(out.is_empty());
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn already_sorted_and_all_equal() {
        let (out, _) = sort_vec(vec![7; 100], 32, 96);
        assert_eq!(out, vec![7; 100]);
        let (out, _) = sort_vec((0..200).collect(), 32, 96);
        assert_eq!(out, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn custom_comparator_descending() {
        let dev = MemDevice::new(32);
        let s = Stream::from_iter(&dev, [3u32, 1, 4, 1, 5]).unwrap();
        let sorted =
            external_sort_by::<u32, _>(&dev, &s, SortConfig::with_memory(1024), |a, b| b.cmp(a))
                .unwrap();
        assert_eq!(sorted.read_all::<u32>(&dev).unwrap(), vec![5, 4, 3, 1, 1]);
    }

    #[test]
    fn budget_too_small_is_error() {
        let dev = MemDevice::new(1024);
        let s = Stream::from_iter(&dev, 0..10u32).unwrap();
        let err = external_sort::<u32>(&dev, &s, SortConfig::with_memory(100));
        assert!(matches!(err, Err(EmError::BudgetTooSmall(_))));
    }

    #[test]
    fn io_cost_matches_pass_structure() {
        // N = 4096 u32 records, 64-byte blocks -> 16 rec/block -> 256 blocks.
        // Memory 1024 bytes -> runs of 256 records (16 runs of 16 blocks),
        // fan-in = 1024/64 - 1 = 15 -> 2 merge passes (16 -> 2 -> 1).
        let n_blocks = 256u64;
        let input: Vec<u32> = (0..4096).rev().collect();
        let (out, stats) = sort_vec(input, 64, 1024);
        assert_eq!(out, (0..4096).collect::<Vec<_>>());
        // run formation: read 256 + write 256; each merge pass: read 256 +
        // write 256. Total = 3 * 512 = 1536.
        assert_eq!(stats.reads, 3 * n_blocks);
        assert_eq!(stats.writes, 3 * n_blocks);
    }

    #[test]
    fn single_pass_when_memory_is_large() {
        let input: Vec<u32> = (0..4096).rev().collect();
        let (_, stats) = sort_vec(input, 64, 1 << 20);
        // One run: read input once, write once; no merge needed.
        assert_eq!(stats.reads, 256);
        assert_eq!(stats.writes, 256);
    }

    #[test]
    fn multi_order_sort_reads_the_input_once_for_run_formation() {
        // Same shape as `io_cost_matches_pass_structure`: 256 blocks, 16
        // runs, fan-in 15. Three orders: run formation reads 256 and
        // writes 3 × 256; 16 runs are more than fan_in / 4 = 3, so one
        // merge pass per order (16 → 2 runs) reads and writes 3 × 256,
        // and the second pass of a full sort is left to the reader.
        let dev = MemDevice::new(64);
        let input: Vec<u32> = (0..4096u32)
            .map(|i| i.wrapping_mul(2654435761) >> 7)
            .collect();
        let s = Stream::from_iter(&dev, input.iter().copied()).unwrap();
        let mut orders = [
            |a: &u32, b: &u32| a.cmp(b),
            |a: &u32, b: &u32| b.cmp(a),
            |a: &u32, b: &u32| (a % 1000, a).cmp(&(b % 1000, b)),
        ];
        let before = dev.io_stats();
        let sorted =
            external_sort_multi::<u32, _>(&dev, &s, SortConfig::with_memory(1024), &mut orders)
                .unwrap();
        let stats = dev.io_stats().since(before);
        assert_eq!(stats.reads, 256 + 3 * 256);
        assert_eq!(stats.writes, 3 * 256 + 3 * 256);
        for (runs, cmp) in sorted.iter().zip(orders) {
            assert_eq!(runs.len(), 2);
            let mut want = input.clone();
            want.sort_by(cmp);
            let mut merged = MergeReader::new(&dev, runs, cmp);
            let mut got = Vec::with_capacity(want.len());
            while let Some(r) = merged.next_record().unwrap() {
                got.push(r);
            }
            assert_eq!(got, want);
        }
    }

    /// Ascending by `(a % 1000, a)`, each load sorted unstably.
    struct Unstable {
        loads: usize,
    }

    impl SortOrder<u32> for Unstable {
        fn cmp(&mut self, a: &u32, b: &u32) -> Ordering {
            (a % 1000, a).cmp(&(b % 1000, b))
        }

        fn sort(&mut self, load: &mut [u32]) {
            self.loads += 1;
            load.sort_unstable_by(|a, b| self.cmp(a, b));
        }
    }

    /// What sorting `s` under `order` with a 1 KiB budget gives: the
    /// runs' contents, their merged view, the written sort, and the
    /// reads and writes of forming the runs and of writing the sort.
    type Sorted = (Vec<Vec<u32>>, Vec<u32>, Vec<u32>, [u64; 4]);

    fn sort_through<O: SortOrder<u32>>(dev: &MemDevice, s: &Stream, mut order: O) -> (O, Sorted) {
        let config = SortConfig::with_memory(1024);
        let before = dev.io_stats();
        let mut runs =
            external_sort_multi(dev, s, config, std::slice::from_mut(&mut order)).unwrap();
        let runs = runs.pop().unwrap();
        let formed = dev.io_stats().since(before);
        let contents = runs.iter().map(|r| r.read_all(dev).unwrap()).collect();
        let mut view = Vec::new();
        let mut merged = MergeReader::new(dev, &runs, |a: &u32, b: &u32| order.cmp(a, b));
        while let Some(r) = merged.next_record().unwrap() {
            view.push(r);
        }
        let before = dev.io_stats();
        let written = merge_runs(dev, runs, |a: &u32, b: &u32| order.cmp(a, b)).unwrap();
        let wrote = dev.io_stats().since(before);
        let io = [formed.reads, formed.writes, wrote.reads, wrote.writes];
        let written = written.read_all(dev).unwrap();
        (order, (contents, view, written, io))
    }

    #[test]
    fn an_overridden_load_sort_forms_the_closures_runs() {
        // The shape of `io_cost_matches_pass_structure`: 16 loads of 256
        // records, fan-in 15, so the runs take one merge pass (16 → 2)
        // and `merge_runs` a second. A total order gives the same runs,
        // merged view, written sort and I/O whichever way loads sort.
        let dev = MemDevice::new(64);
        let input: Vec<u32> = (0..4096u32)
            .map(|i| i.wrapping_mul(2654435761) >> 7)
            .collect();
        let s = Stream::from_iter(&dev, input.iter().copied()).unwrap();
        let closure = |a: &u32, b: &u32| (a % 1000, a).cmp(&(b % 1000, b));
        let mut want = input.clone();
        want.sort_by(closure);

        let (named, by_override) = sort_through(&dev, &s, Unstable { loads: 0 });
        let (_, by_closure) = sort_through(&dev, &s, closure);
        assert_eq!(named.loads, 16, "run formation sorts through the override");
        assert_eq!(by_override, by_closure);
        let (contents, view, written, io) = by_closure;
        assert_eq!(contents.len(), 2);
        assert_eq!((view, written), (want.clone(), want));
        assert_eq!(io, [2 * 256, 2 * 256, 256, 256]);
    }

    #[test]
    fn merge_is_stable_for_equal_keys() {
        // Sort pairs by the low 16 bits only; high bits record input order.
        let dev = MemDevice::new(64);
        let items: Vec<u32> = (0..1000u32).map(|i| (i << 16) | (i % 7)).collect();
        let s = Stream::from_iter(&dev, items.iter().copied()).unwrap();
        let sorted = external_sort_by::<u32, _>(
            &dev,
            &s,
            SortConfig::with_memory(256), // tiny: many runs, deep merges
            |a, b| (a & 0xFFFF).cmp(&(b & 0xFFFF)),
        )
        .unwrap();
        let out = sorted.read_all::<u32>(&dev).unwrap();
        for w in out.windows(2) {
            let (ka, kb) = (w[0] & 0xFFFF, w[1] & 0xFFFF);
            assert!(ka <= kb);
            if ka == kb {
                assert!(w[0] >> 16 < w[1] >> 16, "equal keys keep input order");
            }
        }
    }
}
