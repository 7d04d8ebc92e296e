//! Property-based tests for the external-memory substrate.

use pr_em::{
    external_sort, external_sort_by, BlockDevice, MemDevice, SortConfig, Stream, StreamReader,
    StreamWriter,
};
use proptest::prelude::*;

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
