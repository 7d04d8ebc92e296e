//! Pins the `--explain` contract: a traced query's per-level counters
//! sum **exactly** to the same query's `QueryStats`, and tracing
//! changes neither results nor statistics.

use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Point, Rect};
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::BulkLoader;
use pr_tree::dynamic::LprTree;
use pr_tree::{QueryScratch, RTree, TreeParams};
use std::sync::Arc;

fn build(n: u32) -> RTree<2> {
    let params = TreeParams::with_cap::<2>(8);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let items: Vec<Item<2>> = (0..n)
        .map(|i| {
            let f = i as f64;
            let x = f % 64.0;
            let y = (f / 64.0).floor();
            Item::new(Rect::xyxy(x, y, x + 0.6, y + 0.6), i)
        })
        .collect();
    let tree = PrTreeLoader::default().load(dev, params, items).unwrap();
    tree.warm_cache().unwrap();
    tree
}

fn level_sums(t: &pr_obs::Trace) -> (u64, u64, u64, u64) {
    t.levels.iter().fold((0, 0, 0, 0), |acc, l| {
        (
            acc.0 + l.nodes,
            acc.1 + l.leaves,
            acc.2 + l.internal,
            acc.3 + l.device_reads,
        )
    })
}

fn assert_trace_matches_stats(t: &pr_obs::Trace, stats: &pr_tree::QueryStats) {
    let (nodes, leaves, internal, reads) = level_sums(t);
    assert_eq!(nodes, stats.nodes_visited, "per-level nodes sum");
    assert_eq!(leaves, stats.leaves_visited, "per-level leaves sum");
    assert_eq!(internal, stats.internal_visited, "per-level internal sum");
    assert_eq!(reads, stats.device_reads, "per-level device reads sum");
    // Every em `page_read` span is one device read.
    let io_spans = t
        .spans
        .iter()
        .filter(|s| s.layer == "em" && s.name == "page_read")
        .count() as u64;
    assert_eq!(io_spans, stats.device_reads, "one em span per device read");
}

/// One test (not several) because the collector and sampling switch are
/// process-global; sequential phases keep them race-free.
#[test]
fn explain_levels_sum_exactly_to_query_stats() {
    let tree = build(2_048);
    let q = Rect::xyxy(3.0, 3.0, 30.0, 20.0);
    let p = Point::new([17.0, 11.0]);

    // Baseline: the same queries, untraced.
    let mut plain = QueryScratch::new();
    let mut want = Vec::new();
    let want_stats = tree.window_into(&q, &mut plain, &mut want).unwrap();
    let mut want_nn = Vec::new();
    let want_nn_stats = tree
        .nearest_neighbors_into(&p, 12, &mut plain, &mut want_nn)
        .unwrap();

    // Every query traced (1-in-1, a collector installed — what
    // `--explain` does) on a fresh scratch: identical results and
    // stats, plus a published trace whose level sums match exactly — on
    // the first pass and on the repeat (leaves come from the device
    // every time; only internal nodes are cached).
    for _pass in 0..2 {
        let mut scratch = QueryScratch::new();
        pr_obs::trace::install_collector(16);
        pr_obs::trace::set_sampling(1);
        let mut out = Vec::new();
        let stats = tree.window_into(&q, &mut scratch, &mut out).unwrap();
        assert_eq!(out, want, "tracing must not change results");
        assert_eq!(stats, want_stats, "tracing must not change statistics");

        let mut nn = Vec::new();
        let nn_stats = tree
            .nearest_neighbors_into(&p, 12, &mut scratch, &mut nn)
            .unwrap();
        assert_eq!(nn, want_nn, "tracing must not change k-NN results");
        assert_eq!(nn_stats, want_nn_stats);

        pr_obs::trace::set_sampling(0);
        let traces = pr_obs::trace::drain_collector();
        assert_eq!(traces.len(), 2, "window + knn traces collected");
        let window = traces.iter().find(|t| t.kind == "window").unwrap();
        assert_trace_matches_stats(window, &stats);
        assert_eq!(window.detail, format!("results={}", stats.results));
        assert!(
            window.spans.iter().any(|s| s.name == "traverse"),
            "tree-layer traversal span present"
        );
        let knn = traces.iter().find(|t| t.kind == "knn").unwrap();
        assert_trace_matches_stats(knn, &nn_stats);
        assert!(stats.leaves_visited > 0);
        assert_eq!(stats.device_reads, stats.leaves_visited);
        assert_eq!(nn_stats.device_reads, nn_stats.leaves_visited);
    }

    // A k-NN over an LPR-tree's forest is still one traversal: one
    // `knn` trace per call, not one per component, with the same exact
    // sums — cold (internal nodes read from the device) and warm.
    let params = TreeParams::with_cap::<2>(8);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let mut lpr = LprTree::<2>::new(dev, params, 16);
    for i in 0..1_000u32 {
        let (x, y) = ((i * 37 % 64) as f64, (i * 61 % 64) as f64);
        lpr.insert(Item::new(Rect::xyxy(x, y, x + 0.6, y + 0.6), i))
            .unwrap();
    }
    assert!(lpr.num_components() >= 3);
    for _pass in 0..2 {
        let mut scratch = QueryScratch::new();
        pr_obs::trace::install_collector(16);
        pr_obs::trace::set_sampling(1);
        let mut nn = Vec::new();
        let nn_stats = lpr
            .nearest_neighbors_into(&p, 12, &mut scratch, &mut nn)
            .unwrap();
        pr_obs::trace::set_sampling(0);
        let traces = pr_obs::trace::drain_collector();
        assert_eq!(traces.len(), 1, "one trace for the whole forest");
        assert_eq!(traces[0].kind, "knn");
        assert_trace_matches_stats(&traces[0], &nn_stats);
        assert_eq!(traces[0].detail, format!("results={}", nn.len()));
        assert!(nn_stats.leaves_visited > 0);
    }

    // Without a collector the sampled trace still reaches the flight
    // recorder.
    pr_obs::recorder().clear();
    pr_obs::trace::set_sampling(1);
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let stats = tree.window_into(&q, &mut scratch, &mut out).unwrap();
    pr_obs::trace::set_sampling(0);
    let slow = pr_obs::recorder().snapshot();
    let window = &slow.iter().find(|(k, _)| *k == "window").unwrap().1;
    assert!(!window.is_empty(), "sampled trace reached the recorder");
    assert_trace_matches_stats(&window[0], &stats);
    pr_obs::recorder().clear();
}
