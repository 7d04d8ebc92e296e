//! Bounded lifecycle event ring: timestamped, ordered records of the
//! stack's state transitions — WAL rotations, group-commit flushes,
//! memtable seals, merge start/commit, compactions, store commits,
//! scrubs.
//!
//! # Design
//!
//! Metrics answer *how much*; the event ring answers *when* and *in
//! what order*. It is a fixed-capacity `VecDeque` behind a mutex:
//! lifecycle events are rare (per flush/seal/merge, never per record),
//! so a short critical section costs nothing next to the fsync or merge
//! the event describes, while keeping one totally-ordered sequence —
//! `seq` is assigned under the lock, so ring order, `seq` order and
//! real commit order agree (the concurrent-metrics test relies on
//! this). When the ring is full the oldest entry is overwritten and a
//! `dropped` counter remembers how much history was lost; readers
//! ([`EventRing::snapshot`]) copy the buffer without stopping writers.
//!
//! Event `kind`s are `&'static str` tags (`"merge_commit"`,
//! `"wal_rotate"`, …); `detail` is a short free-form payload
//! (`"cut_seq=1024 pages=77"`), and `duration_us` is attached for
//! events that describe a span (merge, scrub, flush) rather than an
//! instant.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::registry::recording;

/// Default capacity of the process-wide ring.
const DEFAULT_CAPACITY: usize = 4096;

/// One lifecycle event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Ring-assigned sequence number (monotone, starts at 0).
    pub seq: u64,
    /// Wall-clock time (ms since the unix epoch).
    pub unix_ms: u64,
    /// Event tag (`"merge_commit"`, `"wal_rotate"`, …).
    pub kind: &'static str,
    /// Short free-form payload (`"cut_seq=1024 pages=77"`).
    pub detail: String,
    /// Span length for events describing a duration, in microseconds.
    pub duration_us: Option<u64>,
}

struct Inner {
    buf: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded, overwrite-oldest ring of [`Event`]s.
pub struct EventRing {
    cap: usize,
    inner: Mutex<Inner>,
}

/// A point-in-time copy of the ring.
#[derive(Clone)]
pub struct EventLog {
    /// Events in ring (= seq = commit) order, oldest first.
    pub events: Vec<Event>,
    /// How many older events were overwritten before this snapshot.
    pub dropped: u64,
}

impl EventRing {
    /// An empty ring holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        EventRing {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                buf: VecDeque::with_capacity(cap.clamp(1, 1024)),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// Records an instantaneous event (no-op while recording is
    /// disabled).
    pub fn emit(&self, kind: &'static str, detail: impl Into<String>) {
        self.push(kind, detail.into(), None);
    }

    /// Records an event describing a span of `dur`.
    pub fn emit_timed(&self, kind: &'static str, detail: impl Into<String>, dur: Duration) {
        self.push(kind, detail.into(), Some(dur.as_micros() as u64));
    }

    fn push(&self, kind: &'static str, detail: String, duration_us: Option<u64>) {
        if !recording() {
            return;
        }
        let unix_ms = crate::now_unix_ms();
        let mut inner = self.inner.lock().unwrap();
        if inner.buf.len() == self.cap {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.buf.push_back(Event {
            seq,
            unix_ms,
            kind,
            detail,
            duration_us,
        });
    }

    /// Copies the ring without stopping writers.
    pub fn snapshot(&self) -> EventLog {
        let inner = self.inner.lock().unwrap();
        EventLog {
            events: inner.buf.iter().cloned().collect(),
            dropped: inner.dropped,
        }
    }

    /// Copies only the events with `seq > since` — the incremental
    /// polling form (`prtree events --since SEQ`): feed the largest
    /// seq you have seen and get strictly newer events. `dropped`
    /// counts the events in `(since, oldest retained)` that the ring
    /// overwrote before this call, i.e. the gap an incremental reader
    /// actually missed (0 when the tail is still buffered).
    pub fn snapshot_since(&self, since: u64) -> EventLog {
        let inner = self.inner.lock().unwrap();
        let events: Vec<Event> = inner
            .buf
            .iter()
            .filter(|e| e.seq > since)
            .cloned()
            .collect();
        // First seq the caller wanted vs first seq still retained.
        let oldest_wanted = since + 1;
        let oldest_retained = match inner.buf.front() {
            Some(front) => front.seq,
            None => inner.next_seq,
        };
        EventLog {
            events,
            dropped: oldest_retained.saturating_sub(oldest_wanted),
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().buf.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide event ring (capacity 4096).
pub fn global() -> &'static EventRing {
    static GLOBAL: OnceLock<EventRing> = OnceLock::new();
    GLOBAL.get_or_init(|| EventRing::new(DEFAULT_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_keep_order_and_seq() {
        let ring = EventRing::new(16);
        ring.emit("a", "first");
        ring.emit_timed("b", "second", Duration::from_micros(42));
        let log = ring.snapshot();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.dropped, 0);
        assert_eq!(log.events[0].kind, "a");
        assert_eq!(log.events[0].seq, 0);
        assert_eq!(log.events[1].seq, 1);
        assert_eq!(log.events[1].duration_us, Some(42));
    }

    #[test]
    fn overwrites_oldest_and_counts_drops() {
        let ring = EventRing::new(4);
        for i in 0..10 {
            ring.emit("tick", format!("i={i}"));
        }
        let log = ring.snapshot();
        assert_eq!(log.events.len(), 4);
        assert_eq!(log.dropped, 6);
        assert_eq!(log.events[0].detail, "i=6");
        assert_eq!(log.events[3].detail, "i=9");
        // Seq keeps counting through drops.
        assert_eq!(log.events[3].seq, 9);
    }

    #[test]
    fn snapshot_since_returns_strictly_newer_events() {
        let ring = EventRing::new(16);
        for i in 0..6 {
            ring.emit("tick", format!("i={i}"));
        }
        let log = ring.snapshot_since(2);
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.events[0].seq, 3);
        assert_eq!(log.events[2].seq, 5);
        assert_eq!(log.dropped, 0, "nothing missed while fully buffered");
        // Caught-up poller sees nothing new and nothing missed.
        let log = ring.snapshot_since(5);
        assert!(log.events.is_empty());
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn snapshot_since_counts_overwritten_gap() {
        let ring = EventRing::new(4);
        for i in 0..10 {
            ring.emit("tick", format!("i={i}"));
        }
        // Ring holds seqs 6..=9; a poller last saw seq 1, so 2..=5
        // (4 events) were overwritten out from under it.
        let log = ring.snapshot_since(1);
        assert_eq!(log.events.len(), 4);
        assert_eq!(log.events[0].seq, 6);
        assert_eq!(log.dropped, 4);
        // A poller already past the gap misses nothing.
        assert_eq!(ring.snapshot_since(7).dropped, 0);
        assert_eq!(ring.snapshot_since(7).events.len(), 2);
    }

    #[test]
    fn snapshot_since_on_empty_ring() {
        let ring = EventRing::new(4);
        let log = ring.snapshot_since(0);
        assert!(log.events.is_empty());
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn wraparound_seqs_stay_gap_free_under_concurrent_writers() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        // Capacity far below the write volume: the ring wraps hundreds
        // of times while 4 writers race. Every snapshot must still be
        // a gap-free, strictly increasing seq window, and drops +
        // retained must account for every seq ever assigned.
        let ring = Arc::new(EventRing::new(32));
        let stop = Arc::new(AtomicBool::new(false));
        // Snapshots checked so far. A writer emits its 2 000 and then
        // keeps going until the first check is through, so the race the
        // test is about happens however the threads are scheduled.
        let checked = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                let checked = Arc::clone(&checked);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while i < 2_000 || checked.load(Ordering::Acquire) == 0 {
                        ring.emit("w", format!("t={t} i={i}"));
                        i += 1;
                    }
                    i
                })
            })
            .collect();
        let snapshotter = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            let checked = Arc::clone(&checked);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let log = ring.snapshot();
                    for pair in log.events.windows(2) {
                        assert_eq!(
                            pair[1].seq,
                            pair[0].seq + 1,
                            "snapshot must be a gap-free seq window even mid-wrap"
                        );
                    }
                    if let Some(front) = log.events.first() {
                        assert_eq!(
                            log.dropped, front.seq,
                            "dropped count must equal the seqs no longer retained"
                        );
                    }
                    checked.fetch_add(1, Ordering::Release);
                }
            })
        };
        let emitted: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        stop.store(true, Ordering::Relaxed);
        snapshotter.join().unwrap();
        assert!(emitted >= 8_000);
        let log = ring.snapshot();
        assert_eq!(log.events.len(), 32);
        assert_eq!(log.dropped, emitted - 32);
        assert_eq!(log.events.last().unwrap().seq, emitted - 1);
    }

    #[test]
    fn wraparound_snapshot_since_stays_consistent_under_writers() {
        use std::sync::Arc;
        // An incremental poller (`--since`-style) racing wrapping
        // writers: events returned are strictly newer than the cursor,
        // gap-free among themselves, and `dropped` exactly covers the
        // seqs between the cursor and the first returned event.
        let ring = Arc::new(EventRing::new(16));
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..1_500 {
                        ring.emit("w", format!("t={t} i={i}"));
                    }
                })
            })
            .collect();
        let mut cursor = 0u64;
        let mut polls = 0u64;
        loop {
            let log = ring.snapshot_since(cursor);
            for pair in log.events.windows(2) {
                assert_eq!(pair[1].seq, pair[0].seq + 1);
            }
            if let Some(first) = log.events.first() {
                assert!(first.seq > cursor);
                assert_eq!(
                    log.dropped,
                    first.seq - cursor - 1,
                    "dropped must be exactly the overwritten gap"
                );
                cursor = log.events.last().unwrap().seq;
            }
            polls += 1;
            if polls > 16 && ring.snapshot().events.last().map(|e| e.seq) == Some(2_999) {
                break;
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        // Drain the tail: a final incremental poll reaches the end.
        let log = ring.snapshot_since(cursor);
        if let Some(last) = log.events.last() {
            cursor = last.seq;
        }
        assert_eq!(cursor, 2_999);
    }

    #[test]
    fn concurrent_emitters_get_unique_ordered_seqs() {
        use std::sync::Arc;
        let ring = Arc::new(EventRing::new(10_000));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        ring.emit("w", format!("t={t} i={i}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let log = ring.snapshot();
        assert_eq!(log.events.len(), 4_000);
        for (i, e) in log.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "ring order must equal seq order");
        }
    }
}
