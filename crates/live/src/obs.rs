//! pr-live's catalog of process-wide metrics.
//!
//! The live index keeps its exact per-instance counters on
//! `crate::commit::GroupCommit` (several `LiveIndex`es can coexist in
//! one process, and [`crate::LiveStats`] must describe *its* index, not
//! the union) — this catalog is the process-wide mirror, bumped at the
//! same sites, that the registry exporters read. Gauges
//! (`live_inflight_wal_bytes`, `live_memtable_items`) track the most
//! recently updated index; counters and histograms aggregate across all
//! of them.

use std::sync::OnceLock;

/// Handles to pr-live's registry metrics.
pub struct Metrics {
    /// `live_inserts_acked_total` — inserts acknowledged to callers.
    pub inserts_acked: pr_obs::Counter,
    /// `live_deletes_acked_total` — deletes acknowledged (matched a
    /// live item and were logged).
    pub deletes_acked: pr_obs::Counter,
    /// `live_wal_groups_total` — commit groups written (one positioned
    /// append each).
    pub wal_groups: pr_obs::Counter,
    /// `live_wal_records_total` — WAL records landed through groups.
    pub wal_records: pr_obs::Counter,
    /// `live_wal_fsyncs_total` — commit-path fsyncs (group syncs,
    /// async-syncer passes and merge-cut drains that had bytes to
    /// force; a new segment's creation syncs are not counted, matching
    /// [`crate::LiveStats::wal_fsyncs`]).
    pub wal_fsyncs: pr_obs::Counter,
    /// `live_wal_bytes_total` — frame bytes appended to the WAL.
    pub wal_bytes: pr_obs::Counter,
    /// `live_wal_rotations_total` — WAL segment rotations (the cuts of
    /// checkpoints, and of overflow merges that found the segment full).
    pub wal_rotations: pr_obs::Counter,
    /// `live_inflight_wal_bytes` — written-but-unsynced window under
    /// async durability (0 in fsync mode).
    pub inflight_wal_bytes: pr_obs::Gauge,
    /// `live_memtable_items` — items currently buffered in the
    /// unsealed memtable.
    pub memtable_items: pr_obs::Gauge,
    /// `live_memtable_seals_total` — memtable → sealed-batch seals.
    pub memtable_seals: pr_obs::Counter,
    /// `live_merges_total` — committed background merges.
    pub merges: pr_obs::Counter,
    /// `live_compactions_total` — merges that rewrote the store file to
    /// reclaim dead snapshot space.
    pub compactions: pr_obs::Counter,
    /// `live_write_amp` — cumulative write amplification, fixed-point
    /// ×100: store bytes written by merge commits per byte sealed out
    /// of the memtable. Incremental commits keep this O(levels) under
    /// sustained ingest; 100 would mean write-once.
    pub write_amp: pr_obs::Gauge,
    /// `live_wal_io_errors_total` — group writes / fsyncs that failed
    /// with an I/O error (transient and fatal alike).
    pub wal_io_errors: pr_obs::Counter,
    /// `live_wal_unpoisons_total` — times the write path recovered from
    /// a transient group failure: the next group landed cleanly and
    /// degraded mode lifted (e.g. ENOSPC, then space was freed).
    pub wal_unpoisons: pr_obs::Counter,
    /// `live_merge_retries_total` — merges that failed transiently and
    /// were re-queued for a backoff retry instead of poisoning writes.
    pub merge_retries: pr_obs::Counter,
    /// `live_merges_paused` — 1 while background merges are backing off
    /// after a transient failure (writers still ingest, bounded by
    /// memtable backpressure), 0 when merging normally.
    pub merges_paused: pr_obs::Gauge,
    /// `live_probe_components_total{result="searched"}` — components a
    /// delete's liveness count descended into (their membership filter
    /// admitted the victim): the off-lock probe, its re-probe after a
    /// seal or merge swap, and WAL replay alike.
    pub probe_searched: pr_obs::Counter,
    /// `live_probe_components_total{result="skipped"}` — components a
    /// liveness count skipped because their filter rejected the victim.
    pub probe_skipped: pr_obs::Counter,
    /// `live_insert_batch_us` — `insert_batch` latency, enqueue through
    /// group ack.
    pub insert_batch_us: pr_obs::Histogram,
    /// `live_delete_batch_us` — `delete_batch` latency.
    pub delete_batch_us: pr_obs::Histogram,
    /// `live_wal_fsync_us` — WAL fsync latency (every `Wal::sync` that
    /// had bytes to force).
    pub wal_fsync_us: pr_obs::Histogram,
    /// `live_merge_us` — background merge latency, seal through swap.
    pub merge_us: pr_obs::Histogram,
    /// `live_window_query_us` — snapshot window-query latency.
    pub window_query_us: pr_obs::Histogram,
    /// `live_knn_query_us` — snapshot k-NN query latency.
    pub knn_query_us: pr_obs::Histogram,
}

/// Help text of `live_probe_components_total`.
const PROBE_HELP: &str = "components a delete's liveness count searched, or skipped \
     because their membership filter rejected the victim";

/// Adds one liveness count's (or batch's) component tally to the
/// registry.
pub(crate) fn record_probe(tally: &pr_tree::dynamic::fanout::ProbeTally) {
    let m = metrics();
    m.probe_searched.add(tally.searched);
    m.probe_skipped.add(tally.skipped);
}

/// The lazily registered catalog.
pub fn metrics() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = pr_obs::global();
        Metrics {
            inserts_acked: r.counter(
                "live_inserts_acked_total",
                "inserts acknowledged to callers",
            ),
            deletes_acked: r.counter(
                "live_deletes_acked_total",
                "deletes acknowledged (matched a live item)",
            ),
            wal_groups: r.counter("live_wal_groups_total", "commit groups written"),
            wal_records: r.counter(
                "live_wal_records_total",
                "WAL records landed through groups",
            ),
            wal_fsyncs: r.counter(
                "live_wal_fsyncs_total",
                "commit-path fsyncs (group syncs + async-syncer passes)",
            ),
            wal_bytes: r.counter("live_wal_bytes_total", "frame bytes appended to the WAL"),
            wal_rotations: r.counter("live_wal_rotations_total", "WAL segment rotations"),
            inflight_wal_bytes: r.gauge(
                "live_inflight_wal_bytes",
                "written-but-unsynced WAL window (async durability)",
            ),
            memtable_items: r.gauge("live_memtable_items", "items in the unsealed memtable"),
            memtable_seals: r.counter("live_memtable_seals_total", "memtable seals"),
            merges: r.counter("live_merges_total", "committed background merges"),
            compactions: r.counter(
                "live_compactions_total",
                "merges that rewrote the store file to reclaim space",
            ),
            write_amp: r.gauge(
                "live_write_amp",
                "store bytes written by merges per byte ingested, fixed-point x100",
            ),
            wal_io_errors: r.counter(
                "live_wal_io_errors_total",
                "group writes or fsyncs that failed with an I/O error",
            ),
            wal_unpoisons: r.counter(
                "live_wal_unpoisons_total",
                "write-path recoveries from a transient group failure",
            ),
            merge_retries: r.counter(
                "live_merge_retries_total",
                "merges re-queued after a transient failure",
            ),
            merges_paused: r.gauge(
                "live_merges_paused",
                "1 while background merges back off after a transient failure",
            ),
            probe_searched: r.counter_with(
                "live_probe_components_total",
                &[("result", "searched")],
                PROBE_HELP,
            ),
            probe_skipped: r.counter_with(
                "live_probe_components_total",
                &[("result", "skipped")],
                PROBE_HELP,
            ),
            insert_batch_us: r.histogram(
                "live_insert_batch_us",
                "insert_batch latency in microseconds (enqueue through group ack)",
            ),
            delete_batch_us: r.histogram(
                "live_delete_batch_us",
                "delete_batch latency in microseconds",
            ),
            wal_fsync_us: r.histogram("live_wal_fsync_us", "WAL fsync latency in microseconds"),
            merge_us: r.histogram(
                "live_merge_us",
                "background merge latency in microseconds (seal through swap)",
            ),
            window_query_us: r.histogram(
                "live_window_query_us",
                "snapshot window-query latency in microseconds",
            ),
            knn_query_us: r.histogram(
                "live_knn_query_us",
                "snapshot k-NN query latency in microseconds",
            ),
        }
    })
}
