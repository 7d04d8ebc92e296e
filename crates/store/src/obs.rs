//! pr-store's catalog of process-wide metrics.
//!
//! Commits and scrubs are rare, heavyweight operations, so each one
//! records a counter bump, a latency sample, and a lifecycle event —
//! the full treatment, since the cost of recording vanishes next to
//! the fsyncs the operation itself performs.

use std::sync::OnceLock;

/// Handles to pr-store's registry metrics.
pub struct Metrics {
    /// `store_commits_total` — successful snapshot commits (superblock
    /// flips).
    pub commits: pr_obs::Counter,
    /// `store_pages_written_total` — pages freshly appended by commits
    /// (new components). With `store_pages_reused_total` this is the
    /// write-amplification ledger: written / (written + reused) is the
    /// fraction of each commit that actually hit the disk.
    pub pages_written: pr_obs::Counter,
    /// `store_pages_reused_total` — pages referenced in place by
    /// commits (unchanged components' runs).
    pub pages_reused: pr_obs::Counter,
    /// `store_commit_us` — commit latency (BFS copy through superblock
    /// flip).
    pub commit_us: pr_obs::Histogram,
    /// `store_scrubs_total` — completed full-snapshot scrubs.
    pub scrubs: pr_obs::Counter,
    /// `store_scrub_pages_total` — pages re-hashed by scrubs.
    pub scrub_pages: pr_obs::Counter,
    /// `store_scrub_us` — scrub latency.
    pub scrub_us: pr_obs::Histogram,
    /// `store_corrupt_pages_total` — pages caught failing their CRC
    /// (scrub sweeps and query-path verification alike).
    pub corrupt_pages: pr_obs::Counter,
    /// `store_degraded` — 1 while a store serves reads in forced-recheck
    /// degraded mode after detected corruption, 0 when healthy.
    pub degraded: pr_obs::Gauge,
}

/// The lazily registered catalog.
pub fn metrics() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = pr_obs::global();
        Metrics {
            commits: r.counter(
                "store_commits_total",
                "successful snapshot commits (superblock flips)",
            ),
            pages_written: r.counter(
                "store_pages_written_total",
                "pages freshly appended by commits (new components)",
            ),
            pages_reused: r.counter(
                "store_pages_reused_total",
                "pages referenced in place by commits (unchanged components)",
            ),
            commit_us: r.histogram(
                "store_commit_us",
                "commit latency in microseconds (copy, fsync, flip)",
            ),
            scrubs: r.counter("store_scrubs_total", "completed full-snapshot scrubs"),
            scrub_pages: r.counter("store_scrub_pages_total", "pages re-hashed by scrubs"),
            scrub_us: r.histogram("store_scrub_us", "scrub latency in microseconds"),
            corrupt_pages: r.counter(
                "store_corrupt_pages_total",
                "pages caught failing their CRC32 checksum",
            ),
            degraded: r.gauge(
                "store_degraded",
                "1 while reads run in forced-recheck degraded mode after corruption",
            ),
        }
    })
}
