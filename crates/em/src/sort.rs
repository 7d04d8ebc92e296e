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
    pub fn fan_in(&self, block_size: usize) -> usize {
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
pub fn external_sort_by<R, F>(
    dev: &dyn BlockDevice,
    input: &Stream,
    config: SortConfig,
    cmp: F,
) -> Result<Stream>
where
    R: Record,
    F: FnMut(&R, &R) -> Ordering,
{
    let sorted = external_sort_multi(dev, input, config, &mut [cmp])?.pop();
    Ok(sorted.expect("one order in, one stream out"))
}

/// Sorts `input` under every comparator of `orders` at once, returning
/// one sorted stream per comparator (same positions). Run formation
/// reads the input **once**: each memory-load is sorted and written out
/// under every order before the next load is read, so `k` orders cost
/// `N/B` reads + `k·N/B` writes there instead of `k·N/B` of each; the
/// merge passes are per order, as in [`external_sort_by`], and the
/// memory in use never exceeds that of a single sort.
///
/// A load is re-sorted in place, so only the first order is stable with
/// respect to the input; later orders keep ties in the sequence the
/// previous order left them. Total orders are unaffected.
pub fn external_sort_multi<R, F>(
    dev: &dyn BlockDevice,
    input: &Stream,
    config: SortConfig,
    orders: &mut [F],
) -> Result<Vec<Stream>>
where
    R: Record,
    F: FnMut(&R, &R) -> Ordering,
{
    config.validate(dev.block_size(), R::SIZE)?;
    if input.is_empty() {
        return orders
            .iter()
            .map(|_| StreamWriter::<R>::new(dev).finish())
            .collect();
    }

    // Phase 1: run formation, one run per load and order.
    let cap = config.run_capacity::<R>();
    let mut runs: Vec<Vec<Stream>> = orders.iter().map(|_| Vec::new()).collect();
    {
        let mut reader = StreamReader::<R>::new(dev, input);
        let mut buf: Vec<R> = Vec::with_capacity(cap.min(input.len() as usize));
        loop {
            let rec = reader.next_record()?;
            if let Some(r) = rec {
                buf.push(r);
            }
            if buf.len() == cap || (!buf.is_empty() && reader.remaining() == 0) {
                for (cmp, runs) in orders.iter_mut().zip(&mut runs) {
                    buf.sort_by(&mut *cmp);
                    let mut w = StreamWriter::<R>::new(dev);
                    for r in &buf {
                        w.push(r)?;
                    }
                    runs.push(w.finish()?);
                }
                buf.clear();
            }
            if reader.remaining() == 0 {
                break;
            }
        }
    }

    // Phase 2: merge passes. Consumed runs are temporary files: their
    // blocks are released as soon as the merged run replaces them.
    let fan_in = config.fan_in(dev.block_size());
    let mut sorted = Vec::with_capacity(orders.len());
    for (cmp, mut runs) in orders.iter_mut().zip(runs) {
        while runs.len() > 1 {
            let mut next: Vec<Stream> = Vec::with_capacity(runs.len().div_ceil(fan_in));
            for group in runs.chunks(fan_in) {
                next.push(merge_runs(dev, group, cmp)?);
            }
            for run in runs {
                run.discard(dev);
            }
            runs = next;
        }
        sorted.push(runs.pop().expect("at least one run for non-empty input"));
    }
    Ok(sorted)
}

/// Entry in the merge heap; reversed so `BinaryHeap` pops the minimum.
struct HeapEntry<R> {
    record: R,
    source: usize,
    seq: u64, // stabilizer: preserves input order among equal keys
}

fn merge_runs<R, F>(dev: &dyn BlockDevice, runs: &[Stream], cmp: &mut F) -> Result<Stream>
where
    R: Record,
    F: FnMut(&R, &R) -> Ordering,
{
    let mut readers: Vec<StreamReader<R>> =
        runs.iter().map(|r| StreamReader::new(dev, r)).collect();
    let mut writer = StreamWriter::<R>::new(dev);

    // BinaryHeap needs Ord; we wrap entries with an index into a scratch
    // table so the comparator closure can be consulted. Simplest correct
    // approach without requiring R: Ord — keep the heap of keys ordered by
    // a total order derived from cmp via explicit comparisons at push time
    // is impossible; instead run a simple loser-selection over the heads
    // when fan-in is small, and a heap keyed by an order-preserving
    // encoded key is impossible for general R. We therefore implement the
    // heap manually below.
    let mut heads: Vec<Option<HeapEntry<R>>> = Vec::with_capacity(readers.len());
    let mut seq = 0u64;
    for (i, r) in readers.iter_mut().enumerate() {
        let head = r.next_record()?;
        heads.push(head.map(|record| {
            seq += 1;
            HeapEntry {
                record,
                source: i,
                seq,
            }
        }));
    }

    // A manual binary heap of indices into `heads`, ordered by cmp.
    let mut heap = ManualHeap::new(heads.len());
    for i in 0..heads.len() {
        if heads[i].is_some() {
            heap.push(i, &heads, cmp);
        }
    }
    while let Some(i) = heap.pop(&heads, cmp) {
        let entry = heads[i].take().expect("popped index has a head");
        writer.push(&entry.record)?;
        if let Some(record) = readers[i].next_record()? {
            seq += 1;
            heads[i] = Some(HeapEntry {
                record,
                source: i,
                seq,
            });
            heap.push(i, &heads, cmp);
        }
    }
    writer.finish()
}

/// Minimal binary min-heap of source indices, ordered by the caller's
/// comparator applied to the per-source head records (ties broken by
/// arrival sequence, making the merge stable).
struct ManualHeap {
    data: Vec<usize>,
}

impl ManualHeap {
    fn new(cap: usize) -> Self {
        ManualHeap {
            data: Vec::with_capacity(cap),
        }
    }

    fn less<R, F>(a: &HeapEntry<R>, b: &HeapEntry<R>, cmp: &mut F) -> bool
    where
        F: FnMut(&R, &R) -> Ordering,
    {
        match cmp(&a.record, &b.record) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => (a.source, a.seq) < (b.source, b.seq),
        }
    }

    fn push<R, F>(&mut self, idx: usize, heads: &[Option<HeapEntry<R>>], cmp: &mut F)
    where
        F: FnMut(&R, &R) -> Ordering,
    {
        self.data.push(idx);
        let mut i = self.data.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            let (a, b) = (
                heads[self.data[i]].as_ref().expect("heap index live"),
                heads[self.data[parent]].as_ref().expect("heap index live"),
            );
            if Self::less(a, b, cmp) {
                self.data.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn pop<R, F>(&mut self, heads: &[Option<HeapEntry<R>>], cmp: &mut F) -> Option<usize>
    where
        F: FnMut(&R, &R) -> Ordering,
    {
        if self.data.is_empty() {
            return None;
        }
        let top = self.data[0];
        let last = self.data.pop().expect("nonempty");
        if !self.data.is_empty() {
            self.data[0] = last;
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut smallest = i;
                for c in [l, r] {
                    if c < self.data.len() {
                        let a = heads[self.data[c]].as_ref().expect("heap index live");
                        let b = heads[self.data[smallest]]
                            .as_ref()
                            .expect("heap index live");
                        if Self::less(a, b, cmp) {
                            smallest = c;
                        }
                    }
                }
                if smallest == i {
                    break;
                }
                self.data.swap(i, smallest);
                i = smallest;
            }
        }
        Some(top)
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
        // runs, 2 merge passes. Three orders: run formation reads 256 and
        // writes 3 × 256; the merges read and write 3 × 2 × 256.
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
        assert_eq!(stats.reads, 256 + 3 * 2 * 256);
        assert_eq!(stats.writes, 3 * 256 + 3 * 2 * 256);
        for (stream, cmp) in sorted.iter().zip(orders) {
            let mut want = input.clone();
            want.sort_by(cmp);
            assert_eq!(stream.read_all::<u32>(&dev).unwrap(), want);
        }
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
