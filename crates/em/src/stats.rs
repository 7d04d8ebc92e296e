//! I/O accounting.
//!
//! Every block transfer through a [`crate::BlockDevice`] bumps a shared
//! atomic counter. Experiments snapshot the counters before and after an
//! operation and report the difference — exactly how the paper reports
//! "number of 4KB blocks read or written" for bulk loading and "number of
//! leaves visited" for queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe I/O counters owned by a device.
#[derive(Debug, Default)]
pub struct IoCounters {
    reads: AtomicU64,
    writes: AtomicU64,
}

impl IoCounters {
    /// Fresh zeroed counters behind an [`Arc`].
    pub fn new() -> Arc<Self> {
        Arc::new(IoCounters::default())
    }

    /// Records `n` block reads (here and in the process-wide registry).
    #[inline]
    pub fn add_reads(&self, n: u64) {
        self.reads.fetch_add(n, Ordering::Relaxed);
        crate::obs::metrics().device_reads.add(n);
    }

    /// Records `n` block writes (here and in the process-wide registry).
    #[inline]
    pub(crate) fn add_writes(&self, n: u64) {
        self.writes.fetch_add(n, Ordering::Relaxed);
        crate::obs::metrics().device_writes.add(n);
    }

    /// Current totals.
    pub(crate) fn snapshot(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Blocks read.
    pub reads: u64,
    /// Blocks written.
    pub writes: u64,
}

impl IoStats {
    /// Total transfers (the paper's headline construction metric).
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Counter delta since `earlier` (saturating, so a reset in between
    /// yields zeros rather than nonsense).
    pub fn since(&self, earlier: IoStats) -> IoStats {
        IoStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
        }
    }
}

impl std::ops::Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
        }
    }
}

impl std::fmt::Display for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} reads + {} writes = {} I/Os",
            self.reads,
            self.writes,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = IoCounters::new();
        c.add_reads(3);
        c.add_writes(2);
        c.add_reads(1);
        let s = c.snapshot();
        assert_eq!(
            s,
            IoStats {
                reads: 4,
                writes: 2
            }
        );
        assert_eq!(s.total(), 6);
    }

    #[test]
    fn since_computes_delta() {
        let c = IoCounters::new();
        c.add_reads(10);
        let before = c.snapshot();
        c.add_reads(5);
        c.add_writes(7);
        let delta = c.snapshot().since(before);
        assert_eq!(
            delta,
            IoStats {
                reads: 5,
                writes: 7
            }
        );
    }

    #[test]
    fn since_saturates() {
        let c = IoCounters::new();
        c.add_reads(10);
        let later = c.snapshot();
        let earlier = IoStats::default();
        assert_eq!(earlier.since(later).reads, 0);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = IoCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add_reads(1);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().reads, 4000);
    }

    #[test]
    fn display_format() {
        let s = IoStats {
            reads: 2,
            writes: 3,
        };
        assert_eq!(s.to_string(), "2 reads + 3 writes = 5 I/Os");
        assert_eq!(
            (s + IoStats {
                reads: 1,
                writes: 1
            })
            .total(),
            7
        );
    }
}
