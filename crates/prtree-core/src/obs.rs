//! pr-tree's catalog of process-wide metrics.
//!
//! Per-query numbers stay in [`crate::query::QueryStats`] (the exact
//! per-call view); these registry counters hold the process-wide
//! running totals, flushed once per traversal — the same batching the
//! node cache uses ([`crate::cache::CacheTally`]) so the hot loop never
//! touches a shared counter mid-traversal.

use std::sync::OnceLock;

use crate::cache::CacheTally;
use crate::query::QueryStats;

/// Which traversal a `record_query` flush describes.
#[derive(Clone, Copy)]
pub enum QueryKind {
    /// Window (range) query, including the counting variants.
    Window,
    /// k-nearest-neighbor query.
    Knn,
    /// Exact-match descent (`RTree::count_exact`, the delete probe).
    Exact,
}

/// Handles to pr-tree's registry metrics.
pub struct Metrics {
    /// `tree_queries_total{kind="window"}`.
    pub window_queries: pr_obs::Counter,
    /// `tree_queries_total{kind="knn"}`.
    pub knn_queries: pr_obs::Counter,
    /// `tree_queries_total{kind="exact"}`.
    pub exact_queries: pr_obs::Counter,
    /// `tree_nodes_visited_total` — nodes touched by traversals.
    pub nodes_visited: pr_obs::Counter,
    /// `tree_leaves_visited_total` — leaves touched by traversals.
    pub leaves_visited: pr_obs::Counter,
    /// `tree_query_results_total` — items emitted/counted.
    pub query_results: pr_obs::Counter,
    /// `tree_node_cache_hits_total` / `_misses_total`.
    pub node_cache_hits: pr_obs::Counter,
    /// See [`Metrics::node_cache_hits`].
    pub node_cache_misses: pr_obs::Counter,
}

/// Help text of `tree_queries_total`: it counts traversals, not calls.
const QUERIES_HELP: &str = "completed traversals by kind (a window over c components counts c, \
     a k-NN counts 1, an exact-match probe counts each component its filter admits)";

/// The lazily registered catalog.
pub fn metrics() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = pr_obs::global();
        Metrics {
            window_queries: r.counter_with(
                "tree_queries_total",
                &[("kind", "window")],
                QUERIES_HELP,
            ),
            knn_queries: r.counter_with("tree_queries_total", &[("kind", "knn")], QUERIES_HELP),
            exact_queries: r.counter_with("tree_queries_total", &[("kind", "exact")], QUERIES_HELP),
            nodes_visited: r.counter(
                "tree_nodes_visited_total",
                "tree nodes visited by traversals",
            ),
            leaves_visited: r.counter(
                "tree_leaves_visited_total",
                "leaf nodes visited by traversals",
            ),
            query_results: r.counter(
                "tree_query_results_total",
                "items emitted or counted by traversals",
            ),
            node_cache_hits: r.counter(
                "tree_node_cache_hits_total",
                "node-cache lookups served from cache",
            ),
            node_cache_misses: r.counter(
                "tree_node_cache_misses_total",
                "node-cache lookups that fell through to the device",
            ),
        }
    })
}

/// Flushes one completed traversal's stats into the registry.
pub(crate) fn record_query(kind: QueryKind, stats: &QueryStats) {
    let m = metrics();
    match kind {
        QueryKind::Window => m.window_queries.inc(),
        QueryKind::Knn => m.knn_queries.inc(),
        QueryKind::Exact => m.exact_queries.inc(),
    }
    m.nodes_visited.add(stats.nodes_visited);
    m.leaves_visited.add(stats.leaves_visited);
    m.query_results.add(stats.results);
}

/// Flushes one query's cache tally into the registry (zero adds are
/// skipped, mirroring [`pr_em::HitCounters`]).
pub(crate) fn record_cache(tally: &CacheTally) {
    let m = metrics();
    if tally.hits > 0 {
        m.node_cache_hits.add(tally.hits);
    }
    if tally.misses > 0 {
        m.node_cache_misses.add(tally.misses);
    }
}
