//! Property-based tests for the external-memory substrate.

use pr_em::{
    external_sort, external_sort_by, external_sort_multi, BlockDevice, MemDevice, MergeReader,
    SortConfig, Stream, StreamReader, StreamWriter,
};
use proptest::prelude::*;

/// Everything a [`MergeReader`] over `runs` yields, in order.
fn merged_view(
    dev: &MemDevice,
    runs: &[Stream],
    cmp: impl FnMut(&u32, &u32) -> std::cmp::Ordering,
) -> Vec<u32> {
    let mut reader = MergeReader::new(dev, runs, cmp);
    let mut out = Vec::new();
    while let Some(r) = reader.next_record().unwrap() {
        out.push(r);
    }
    out
}

proptest! {
    /// External sort agrees with std sort for any input and any legal
    /// (block size, memory budget) combination.
    #[test]
    fn external_sort_matches_std_sort(
        mut input in prop::collection::vec(any::<u32>(), 0..2000),
        block_pow in 5u32..9,          // 32..256-byte blocks
        mem_blocks in 3usize..40,
    ) {
        let block = 1usize << block_pow;
        let dev = MemDevice::new(block);
        let stream = Stream::from_iter(&dev, input.iter().copied()).unwrap();
        let sorted = external_sort::<u32>(
            &dev,
            &stream,
            SortConfig::with_memory(mem_blocks * block),
        )
        .unwrap();
        let got = sorted.read_all::<u32>(&dev).unwrap();
        input.sort_unstable();
        prop_assert_eq!(got, input);
    }

    /// Sorting is stable under a comparator that ignores part of the key.
    #[test]
    fn external_sort_by_is_stable(
        keys in prop::collection::vec(0u32..16, 1..800),
    ) {
        // Tag each key with its input position in the high bits.
        let tagged: Vec<u32> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| ((i as u32) << 8) | k)
            .collect();
        let dev = MemDevice::new(64);
        let stream = Stream::from_iter(&dev, tagged.iter().copied()).unwrap();
        let sorted = external_sort_by::<u32, _>(
            &dev,
            &stream,
            SortConfig::with_memory(4 * 64),
            |a, b| (a & 0xFF).cmp(&(b & 0xFF)),
        )
        .unwrap();
        let got = sorted.read_all::<u32>(&dev).unwrap();
        for w in got.windows(2) {
            let (ka, kb) = (w[0] & 0xFF, w[1] & 0xFF);
            prop_assert!(ka <= kb);
            if ka == kb {
                prop_assert!(w[0] >> 8 < w[1] >> 8, "stability violated");
            }
        }
    }

    /// A sorted order read off its runs is the order `external_sort_by`
    /// writes out, record for record — ties included, so the merged view
    /// is as stable as the written one — with all-equal, tie-heavy and
    /// random keys, at 1, 2, `fan_in` and more than `fan_in` runs.
    #[test]
    fn merged_view_equals_the_written_sort(
        raw in prop::collection::vec(any::<u32>(), 792..793),
        key_bits in 0u32..3,
        shape in 0usize..4,
    ) {
        // 32-byte blocks, 9 of them: 72 records per run, fan-in 8, and
        // `external_sort_multi` leaves at most 8 / 4 = 2 runs.
        const RUN: usize = 72;
        let config = SortConfig::with_memory(9 * 32);
        let runs_formed = [1, 2, 8, 11][shape];
        let n = (runs_formed - 1) * RUN + 1 + raw[0] as usize % RUN;
        let key_mask = [0u32, 0x3, 0xFF][key_bits as usize];
        // The key in the low byte, the input position above it.
        let input: Vec<u32> = raw[..n]
            .iter()
            .enumerate()
            .map(|(i, r)| ((i as u32) << 8) | (r & key_mask))
            .collect();
        let by_key = |a: &u32, b: &u32| (a & 0xFF).cmp(&(b & 0xFF));

        let dev = MemDevice::new(32);
        let stream = Stream::from_iter(&dev, input.iter().copied()).unwrap();
        let written = external_sort_by::<u32, _>(&dev, &stream, config, by_key)
            .unwrap()
            .read_all::<u32>(&dev)
            .unwrap();
        let mut want = input.clone();
        want.sort_by(by_key);
        prop_assert_eq!(&written, &want);

        // The runs the multi-order sort returns.
        let runs = external_sort_multi::<u32, _>(&dev, &stream, config, &mut [by_key])
            .unwrap()
            .pop()
            .unwrap();
        // More than two runs take a merge pass, eight at a time.
        prop_assert_eq!(runs.len(), [1, 2, 1, 2][shape]);
        prop_assert_eq!(merged_view(&dev, &runs, by_key), want.clone());

        // The runs as formed, never merged: a heap of up to 11 sources.
        let formed: Vec<Stream> = input
            .chunks(RUN)
            .map(|load| {
                let mut load = load.to_vec();
                load.sort_by(by_key);
                Stream::from_iter(&dev, load).unwrap()
            })
            .collect();
        prop_assert_eq!(formed.len(), runs_formed);
        prop_assert_eq!(merged_view(&dev, &formed, by_key), want);
    }

    /// Stream write/read round-trips arbitrary record sequences and
    /// charges exactly ⌈n/per_block⌉ blocks each way.
    #[test]
    fn stream_roundtrip_and_cost(
        input in prop::collection::vec(any::<u64>(), 0..1500),
        block_pow in 5u32..10,
    ) {
        let block = 1usize << block_pow;
        let per_block = block / 8;
        let dev = MemDevice::new(block);
        let mut w = StreamWriter::<u64>::new(&dev);
        for v in &input {
            w.push(v).unwrap();
        }
        let s = w.finish().unwrap();
        let expected_blocks = input.len().div_ceil(per_block) as u64;
        prop_assert_eq!(dev.io_stats().writes, expected_blocks);
        prop_assert_eq!(s.read_all::<u64>(&dev).unwrap(), input);
        prop_assert_eq!(dev.io_stats().reads, expected_blocks);
    }

    /// Readers see exactly the stream they were given even when many
    /// streams interleave on one device.
    #[test]
    fn interleaved_streams_do_not_cross_talk(
        a in prop::collection::vec(any::<u32>(), 1..500),
        b in prop::collection::vec(any::<u32>(), 1..500),
    ) {
        let dev = MemDevice::new(64);
        let mut wa = StreamWriter::<u32>::new(&dev);
        let mut wb = StreamWriter::<u32>::new(&dev);
        let (mut ia, mut ib) = (a.iter(), b.iter());
        loop {
            match (ia.next(), ib.next()) {
                (None, None) => break,
                (x, y) => {
                    if let Some(v) = x { wa.push(v).unwrap(); }
                    if let Some(v) = y { wb.push(v).unwrap(); }
                }
            }
        }
        let sa = wa.finish().unwrap();
        let sb = wb.finish().unwrap();
        prop_assert_eq!(StreamReader::<u32>::new(&dev, &sa).collect::<Vec<_>>(), a);
        prop_assert_eq!(StreamReader::<u32>::new(&dev, &sb).collect::<Vec<_>>(), b);
    }
}

/// Run formation of `k` orders whose runs stay within the reader's bound
/// is the whole sort: `N/B` reads, `k · N/B` writes, no merge I/O. And a
/// scan that stops early has read what it returned plus a block per run.
#[test]
fn multi_order_runs_cost_one_read_and_a_scan_reads_only_its_prefix() {
    // 64-byte blocks of 16 records, 32 blocks of memory: 512 records per
    // run, fan-in 31, so up to 7 runs are left unmerged. 3 584 records
    // are 224 blocks and exactly 7 runs of 32 blocks.
    let (per_block, blocks, k) = (16u64, 224u64, 7u64);
    let dev = MemDevice::new(64);
    let input: Vec<u32> = (0..3584u32).map(|i| i.wrapping_mul(2654435761)).collect();
    let stream = Stream::from_iter(&dev, input.iter().copied()).unwrap();
    let mut orders = [
        |a: &u32, b: &u32| a.cmp(b),
        |a: &u32, b: &u32| b.cmp(a),
        |a: &u32, b: &u32| (a % 1000, a).cmp(&(b % 1000, b)),
    ];
    let before = dev.io_stats();
    let sorted =
        external_sort_multi::<u32, _>(&dev, &stream, SortConfig::with_memory(2048), &mut orders)
            .unwrap();
    let cost = dev.io_stats().since(before);
    assert_eq!((cost.reads, cost.writes), (blocks, 3 * blocks));
    assert!(sorted.iter().all(|runs| runs.len() == k as usize));

    // Opening a reader costs nothing; r records cost ≤ ⌈r/B⌉ + k reads.
    let mut want = input.clone();
    want.sort_unstable();
    for r in [0u64, 1, 100, 1000] {
        let before = dev.io_stats();
        let mut reader = MergeReader::new(&dev, &sorted[0], orders[0]);
        for i in 0..r {
            assert_eq!(reader.next_record().unwrap(), Some(want[i as usize]));
        }
        drop(reader);
        let reads = dev.io_stats().since(before).reads;
        let bound = if r == 0 { 0 } else { r.div_ceil(per_block) + k };
        assert!(reads <= bound, "{reads} reads for {r} records");
    }

    // The whole order costs one read of the data and writes nothing.
    let before = dev.io_stats();
    assert_eq!(merged_view(&dev, &sorted[0], orders[0]), want);
    let cost = dev.io_stats().since(before);
    assert_eq!((cost.reads, cost.writes), (blocks, 0));
}
