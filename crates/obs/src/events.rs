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
    pub(crate) fn new(cap: usize) -> Self {
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
}

/// The process-wide event ring (capacity 4096).
pub(crate) fn global() -> &'static EventRing {
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
