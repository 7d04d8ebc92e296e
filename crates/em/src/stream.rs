//! Sequential typed streams of fixed-size records.
//!
//! TPIE's central abstraction is the *stream*: a sequence of records read
//! and written strictly sequentially, one block at a time. Every
//! bulk-loading algorithm in the paper is expressed over streams (sorted
//! lists, distribution passes, run formation). A [`Stream`] here is a list
//! of block ids on some device plus a record count; readers and writers
//! buffer exactly one block, so their memory footprint is one block each —
//! which is what the external sort's memory budget assumes.

use crate::device::{BlockDevice, BlockId};
use crate::error::EmError;
use crate::Result;

/// A fixed-size binary-encodable record.
///
/// Records must encode to exactly [`Record::SIZE`] bytes. The substrate
/// never interprets record bytes; ordering is supplied by callers.
pub trait Record: Clone {
    /// Encoded size in bytes. Must be positive and at most the block size
    /// of any device the record is stored on.
    const SIZE: usize;

    /// Serializes into `buf` (`buf.len() == Self::SIZE`).
    fn encode(&self, buf: &mut [u8]);

    /// Deserializes from `buf` (`buf.len() == Self::SIZE`).
    fn decode(buf: &[u8]) -> Self;
}

macro_rules! int_record {
    ($($t:ty),*) => {$(
        impl Record for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            fn encode(&self, buf: &mut [u8]) {
                buf.copy_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &[u8]) -> Self {
                <$t>::from_le_bytes(buf.try_into().expect("record size"))
            }
        }
    )*};
}
int_record!(u32, u64, i32, i64, u128);

/// A sequence of records stored across whole blocks of a device.
///
/// The stream does not own the device; pass the device back in to read it.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    pages: Vec<BlockId>,
    len: u64,
}

impl Stream {
    /// Number of records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the stream holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks backing the stream.
    pub fn num_blocks(&self) -> usize {
        self.pages.len()
    }

    /// Records per block for record type `R` on a device with `block_size`.
    pub(crate) fn records_per_block<R: Record>(block_size: usize) -> usize {
        assert!(
            R::SIZE > 0 && R::SIZE <= block_size,
            "record/block size mismatch"
        );
        block_size / R::SIZE
    }

    /// Writes all `items` to a new stream on `dev`.
    pub fn from_iter<R: Record>(
        dev: &dyn BlockDevice,
        items: impl IntoIterator<Item = R>,
    ) -> Result<Stream> {
        let mut w = StreamWriter::new(dev);
        for item in items {
            w.push(&item)?;
        }
        w.finish()
    }

    /// Reads the whole stream into a `Vec` (convenience for tests and for
    /// the in-memory base case of recursive algorithms).
    pub fn read_all<R: Record>(&self, dev: &dyn BlockDevice) -> Result<Vec<R>> {
        let mut reader = StreamReader::new(dev, self);
        let mut out = Vec::with_capacity(self.len as usize);
        while let Some(r) = reader.next_record()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Releases the stream's blocks back to the device (temporary-file
    /// deletion). The stream must not be read afterwards.
    pub fn discard(self, dev: &dyn BlockDevice) {
        dev.discard(&self.pages);
    }
}

/// Appends records to a fresh stream, one buffered block at a time.
pub struct StreamWriter<'d, R: Record> {
    dev: &'d dyn BlockDevice,
    buf: Vec<u8>,
    in_block: usize,
    per_block: usize,
    pages: Vec<BlockId>,
    len: u64,
    _marker: std::marker::PhantomData<R>,
}

impl<'d, R: Record> StreamWriter<'d, R> {
    /// Starts a new stream on `dev`.
    pub fn new(dev: &'d dyn BlockDevice) -> Self {
        let bs = dev.block_size();
        StreamWriter {
            dev,
            buf: vec![0u8; bs],
            in_block: 0,
            per_block: Stream::records_per_block::<R>(bs),
            pages: Vec::new(),
            len: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Appends one record.
    pub fn push(&mut self, r: &R) -> Result<()> {
        if self.in_block == self.per_block {
            self.spill()?;
        }
        let off = self.in_block * R::SIZE;
        r.encode(&mut self.buf[off..off + R::SIZE]);
        self.in_block += 1;
        self.len += 1;
        Ok(())
    }

    fn spill(&mut self) -> Result<()> {
        let page = self.dev.allocate(1);
        self.dev.write_block(page, &self.buf)?;
        self.pages.push(page);
        self.in_block = 0;
        Ok(())
    }

    /// Flushes the trailing partial block and returns the finished stream.
    pub fn finish(mut self) -> Result<Stream> {
        if self.in_block > 0 {
            // Zero the tail so partial blocks are deterministic.
            let used = self.in_block * R::SIZE;
            for b in &mut self.buf[used..] {
                *b = 0;
            }
            self.spill()?;
        }
        Ok(Stream {
            pages: self.pages,
            len: self.len,
        })
    }
}

/// Reads a stream sequentially, buffering one block.
pub struct StreamReader<'d, R: Record> {
    dev: &'d dyn BlockDevice,
    pages: Vec<BlockId>,
    remaining: u64,
    buf: Vec<u8>,
    in_block: usize,
    per_block: usize,
    next_page: usize,
    _marker: std::marker::PhantomData<R>,
}

impl<'d, R: Record> StreamReader<'d, R> {
    /// Opens `stream` for sequential reading on `dev`.
    pub fn new(dev: &'d dyn BlockDevice, stream: &Stream) -> Self {
        let bs = dev.block_size();
        StreamReader {
            dev,
            pages: stream.pages.clone(),
            remaining: stream.len,
            buf: vec![0u8; bs],
            in_block: 0,
            per_block: Stream::records_per_block::<R>(bs),
            next_page: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Records not yet returned.
    pub(crate) fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Returns the next record, or `None` at end of stream.
    pub fn next_record(&mut self) -> Result<Option<R>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if self.in_block == 0 {
            let page = *self
                .pages
                .get(self.next_page)
                .ok_or_else(|| EmError::Corrupt("stream shorter than its length".into()))?;
            self.dev.read_block(page, &mut self.buf)?;
            self.next_page += 1;
        }
        let off = self.in_block * R::SIZE;
        let r = R::decode(&self.buf[off..off + R::SIZE]);
        self.in_block += 1;
        if self.in_block == self.per_block {
            self.in_block = 0;
        }
        self.remaining -= 1;
        Ok(Some(r))
    }
}

impl<'d, R: Record> Iterator for StreamReader<'d, R> {
    type Item = R;

    /// Iterator convenience that panics on device errors; algorithms that
    /// must surface errors use [`StreamReader::next_record`].
    fn next(&mut self) -> Option<R> {
        self.next_record().expect("stream read failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    #[test]
    fn roundtrip_exact_block_multiple() {
        let dev = MemDevice::new(32); // 8 u32 per block
        let items: Vec<u32> = (0..16).collect();
        let s = Stream::from_iter(&dev, items.iter().copied()).unwrap();
        assert_eq!(s.len(), 16);
        assert_eq!(s.num_blocks(), 2);
        assert_eq!(s.read_all::<u32>(&dev).unwrap(), items);
    }

    #[test]
    fn roundtrip_partial_tail_block() {
        let dev = MemDevice::new(32);
        let items: Vec<u32> = (0..13).collect();
        let s = Stream::from_iter(&dev, items.iter().copied()).unwrap();
        assert_eq!(s.num_blocks(), 2);
        assert_eq!(s.read_all::<u32>(&dev).unwrap(), items);
    }

    #[test]
    fn empty_stream() {
        let dev = MemDevice::new(32);
        let s = Stream::from_iter::<u32>(&dev, []).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.num_blocks(), 0);
        assert!(s.read_all::<u32>(&dev).unwrap().is_empty());
        assert_eq!(dev.io_stats().total(), 0);
    }

    #[test]
    fn io_counts_are_block_granular() {
        let dev = MemDevice::new(32); // 8 u32/block
        let s = Stream::from_iter(&dev, 0..24u32).unwrap();
        assert_eq!(dev.io_stats().writes, 3);
        let _ = s.read_all::<u32>(&dev).unwrap();
        assert_eq!(dev.io_stats().reads, 3);
    }

    #[test]
    fn interleaved_streams_on_one_device() {
        let dev = MemDevice::new(32);
        let mut w1 = StreamWriter::<u32>::new(&dev);
        let mut w2 = StreamWriter::<u32>::new(&dev);
        for i in 0..20 {
            w1.push(&i).unwrap();
            w2.push(&(100 + i)).unwrap();
        }
        let s1 = w1.finish().unwrap();
        let s2 = w2.finish().unwrap();
        assert_eq!(
            s1.read_all::<u32>(&dev).unwrap(),
            (0..20).collect::<Vec<_>>()
        );
        assert_eq!(
            s2.read_all::<u32>(&dev).unwrap(),
            (100..120).collect::<Vec<_>>()
        );
    }

    #[test]
    fn u128_records() {
        let dev = MemDevice::new(64);
        let items: Vec<u128> = vec![0, 1, u128::MAX, 42 << 90];
        let s = Stream::from_iter(&dev, items.iter().copied()).unwrap();
        assert_eq!(s.read_all::<u128>(&dev).unwrap(), items);
    }

    #[test]
    fn reader_is_an_iterator() {
        let dev = MemDevice::new(32);
        let s = Stream::from_iter(&dev, 0..10u32).unwrap();
        let sum: u32 = StreamReader::<u32>::new(&dev, &s).sum();
        assert_eq!(sum, 45);
    }

    #[test]
    fn remaining_tracks_progress() {
        let dev = MemDevice::new(32);
        let s = Stream::from_iter(&dev, 0..5u32).unwrap();
        let mut r = StreamReader::<u32>::new(&dev, &s);
        assert_eq!(r.remaining(), 5);
        r.next_record().unwrap();
        assert_eq!(r.remaining(), 4);
    }
}
