//! Failure injection: the substrate must fail loudly and precisely, not
//! corrupt silently.

use pr_em::fault::{Errno, FaultDevice, FaultKind, FaultSchedule, OpClass};
use pr_em::{
    external_sort, BlockDevice, EmError, MemDevice, MergeReader, SortConfig, Stream, StreamReader,
    StreamWriter,
};

#[test]
fn reading_a_discarded_stream_is_an_error_not_garbage() {
    let dev = MemDevice::new(64);
    let s = Stream::from_iter(&dev, 0..100u32).unwrap();
    let s2 = s.clone();
    s.discard(&dev);
    let mut reader = StreamReader::<u32>::new(&dev, &s2);
    let err = reader.next_record().unwrap_err();
    assert!(matches!(err, EmError::Corrupt(_)), "got {err:?}");
}

#[test]
fn sort_surfaces_read_errors() {
    let dev = MemDevice::new(64);
    let s = Stream::from_iter(&dev, 0..500u32).unwrap();
    let s2 = s.clone();
    s.discard(&dev);
    let res = external_sort::<u32>(&dev, &s2, SortConfig::with_memory(1024));
    assert!(res.is_err());
}

#[test]
fn a_read_error_mid_merge_is_an_error_not_a_short_list() {
    // Three runs of 10 blocks (16 records each); the 11th block read of
    // the merged scan fails, well after the three that fill the heads.
    let mem = MemDevice::new(64);
    let runs: Vec<Stream> = (0..3u32)
        .map(|run| Stream::from_iter(&mem, (0..160u32).map(|i| 3 * i + run)).unwrap())
        .collect();
    let fail = FaultSchedule::fail_op(1, 10, Some(OpClass::Read), FaultKind::Errno(Errno::Eio));
    let dev = FaultDevice::new(mem, fail);
    let mut merged = MergeReader::new(&dev, &runs, |a: &u32, b: &u32| a.cmp(b));
    let mut got = 0u32;
    let err = loop {
        match merged.next_record() {
            Ok(Some(r)) => {
                assert_eq!(r, got, "the prefix before the failure is the merged order");
                got += 1;
            }
            Ok(None) => panic!("the scan ended after {got} of 480 records as if complete"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, EmError::Io(_)), "got {err:?}");
    assert!(got > 16 && got < 480, "failed after {got} records");
    assert_eq!(dev.injector().injected_count(), 1);
}

#[test]
fn block_bounds_are_enforced_everywhere() {
    let dev = MemDevice::new(64);
    dev.allocate(2);
    let mut buf = vec![0u8; 64];
    for bad in [2u64, 100, u64::MAX] {
        assert!(matches!(
            dev.read_block(bad, &mut buf),
            Err(EmError::BlockOutOfRange { .. })
        ));
        assert!(matches!(
            dev.write_block(bad, &buf),
            Err(EmError::BlockOutOfRange { .. })
        ));
    }
}

#[test]
fn discard_of_unknown_blocks_is_harmless() {
    let dev = MemDevice::new(64);
    dev.allocate(1);
    dev.discard(&[5, 99, u64::MAX]); // out of range: ignored
    let mut buf = vec![0u8; 64];
    dev.read_block(0, &mut buf).unwrap();
}

#[test]
fn writer_state_survives_partial_use() {
    // A writer dropped without finish() must not corrupt other streams
    // on the same device (its buffered tail simply never lands).
    let dev = MemDevice::new(64);
    {
        let mut w = StreamWriter::<u32>::new(&dev);
        for i in 0..10 {
            w.push(&i).unwrap();
        }
        // dropped without finish()
    }
    let s = Stream::from_iter(&dev, 100..200u32).unwrap();
    assert_eq!(
        s.read_all::<u32>(&dev).unwrap(),
        (100..200).collect::<Vec<_>>()
    );
}

#[test]
fn io_error_messages_carry_context() {
    let dev = MemDevice::new(64);
    dev.allocate(1);
    let mut buf = vec![0u8; 32];
    let err = dev.read_block(0, &mut buf).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("32") && msg.contains("64"), "{msg}");
}

#[test]
fn sort_budget_validation_is_exact() {
    let dev = MemDevice::new(1024);
    let s = Stream::from_iter(&dev, 0..10u32).unwrap();
    // 3 blocks is the documented minimum.
    assert!(external_sort::<u32>(&dev, &s, SortConfig::with_memory(3 * 1024)).is_ok());
    assert!(matches!(
        external_sort::<u32>(&dev, &s, SortConfig::with_memory(3 * 1024 - 1)),
        Err(EmError::BudgetTooSmall(_))
    ));
}
