//! pr-tree's catalog of process-wide metrics.
//!
//! Per-query numbers stay in [`crate::query::QueryStats`] (the exact
//! per-call view, and the only thing a traversal's hot loop writes);
//! these registry counters hold the process-wide running totals, derived
//! from it and flushed once per traversal, so the hot loop never touches
//! a shared counter mid-traversal.

use std::sync::OnceLock;

use crate::query::QueryStats;

/// Which query a traversal answers (`record_walk` flushes it).
#[derive(Clone, Copy)]
pub(crate) enum QueryKind {
    /// Window (range) query, including the counting variants.
    Window,
    /// k-nearest-neighbor query.
    Knn,
    /// Exact-match descent (`RTree::count_exact`, the delete probe).
    Exact,
}

impl QueryKind {
    /// The trace kind and traversal span a query of this kind arms by
    /// sampling; an exact-match probe traces nothing.
    pub(crate) fn trace(self) -> Option<(&'static str, &'static str)> {
        match self {
            QueryKind::Window => Some(("window", "traverse")),
            QueryKind::Knn => Some(("knn", "best_first")),
            QueryKind::Exact => None,
        }
    }
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

/// Flushes one traversal's stats into the registry. A node visit is a
/// cache hit unless it read the device, so hits are `nodes_visited −
/// device_reads` and misses are `device_reads`, plus one if the
/// traversal failed (its error is a failed page read). A query `kind`
/// also adds its node, leaf and result totals, and counts as a query
/// only if it completed (`ok`); a leaf scan (`None`) adds the cache pair
/// alone.
pub(crate) fn record_walk(kind: Option<QueryKind>, stats: &QueryStats, ok: bool) {
    let m = metrics();
    let hits = stats.nodes_visited - stats.device_reads;
    let misses = stats.device_reads + !ok as u64;
    if hits > 0 {
        m.node_cache_hits.add(hits);
    }
    if misses > 0 {
        m.node_cache_misses.add(misses);
    }
    let Some(kind) = kind else { return };
    if ok {
        match kind {
            QueryKind::Window => m.window_queries.inc(),
            QueryKind::Knn => m.knn_queries.inc(),
            QueryKind::Exact => m.exact_queries.inc(),
        }
    }
    m.nodes_visited.add(stats.nodes_visited);
    m.leaves_visited.add(stats.leaves_visited);
    m.query_results.add(stats.results);
}
