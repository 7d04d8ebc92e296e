//! Pins the background/write trace shapes: with 1-in-1 sampling, the
//! ingest pipeline publishes `write`, `merge`, `compaction`, and
//! `wal_replay` traces whose spans cover all four layers (live, em,
//! tree, store) — the contract `prtree ingest --trace-file` and the CI
//! roundtrip validation build on — and each span lands in the trace of
//! the operation that recorded it on its own thread.

use pr_geom::{Item, Rect};
use pr_live::{LiveIndex, LiveOptions};
use pr_tree::TreeParams;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("pr-live-trace-{}", std::process::id()))
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn item(i: u32) -> Item<2> {
    let x = (i as f64 * 37.0) % 1000.0;
    let y = (i as f64 * 61.0) % 1000.0;
    Item::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), i)
}

fn span_names(t: &pr_obs::Trace) -> BTreeSet<&'static str> {
    t.spans.iter().map(|s| s.name).collect()
}

fn layers(t: &pr_obs::Trace) -> BTreeSet<&'static str> {
    t.spans.iter().map(|s| s.layer).collect()
}

fn store_spans(t: &pr_obs::Trace) -> BTreeSet<&'static str> {
    let store = t.spans.iter().filter(|s| s.layer == "store");
    store.map(|s| s.name).collect()
}

/// Every trace of `kind` holds the store's commit spans; no write does.
fn assert_store_spans_in(traces: &[pr_obs::Trace], kind: &str) {
    assert!(traces.iter().any(|t| t.kind == kind), "no {kind} trace");
    for t in traces {
        let store = store_spans(t);
        let want = ["commit", "fsync_body", "fsync_flip"];
        if t.kind == kind {
            assert!(want.iter().all(|w| store.contains(w)), "{kind}: {store:?}");
        }
        assert!(t.kind != "write" || store.is_empty(), "write: {store:?}");
    }
}

/// One test (sampling and the collector are process-global).
#[test]
fn pipeline_traces_cover_all_layers() {
    let dir = tmpdir("pipeline");
    let opts = LiveOptions {
        buffer_cap: 1024,
        background_merge: false, // deterministic merge points
        ..LiveOptions::default()
    };
    pr_obs::trace::set_sampling(1); // every op traced
    pr_obs::trace::install_collector(256);
    {
        let idx = LiveIndex::<2>::create(&dir, TreeParams::with_cap::<2>(8), opts).unwrap();
        let batch: Vec<Item<2>> = (0..200).map(item).collect();
        idx.insert_batch(&batch).unwrap();
        idx.flush().unwrap(); // merge #1: memtable -> component
        let batch2: Vec<Item<2>> = (200..400).map(item).collect();
        idx.insert_batch(&batch2).unwrap();
        idx.compact().unwrap(); // reads component(s) back + rewrites the store
        let victims: Vec<Item<2>> = (0..8).map(item).collect();
        assert_eq!(idx.delete_batch(&victims).unwrap(), 8);
        // Leave unmerged acknowledged writes behind so reopen replays.
        idx.insert_batch(&(400..420).map(item).collect::<Vec<_>>())
            .unwrap();
    }
    {
        let _idx = LiveIndex::<2>::open(&dir, opts).unwrap();
    }
    pr_obs::trace::set_sampling(0);
    let traces = pr_obs::trace::drain_collector();

    // Write path: the sole writer always leads its own group, so its
    // trace shows the full attribution chain, not an opaque wait.
    let write = traces.iter().find(|t| t.kind == "write").unwrap();
    let names = span_names(write);
    for want in [
        "encode",
        "enqueue",
        "lead",
        "wal_append",
        "wal_fsync",
        "apply",
    ] {
        assert!(
            names.contains(want),
            "write trace missing {want}: {names:?}"
        );
    }

    // Delete path adds the off-lock probe and the decision phase. Its
    // exact-match probes and filter builds are traversals of their own
    // that never trace: no tree span, no page read leaks into it.
    let delete = traces.iter().find(|t| t.kind == "delete").unwrap();
    let names = span_names(delete);
    for want in ["probe", "decide", "enqueue", "lead"] {
        assert!(
            names.contains(want),
            "delete trace missing {want}: {names:?}"
        );
    }
    let leaked = |s: &&pr_obs::Span| s.layer == "tree" || s.name == "page_read";
    assert!(delete.levels.is_empty() && !delete.spans.iter().any(|s| leaked(&s)));

    // Merge #1: seal -> bulk_load -> cut -> commit -> swap, with the
    // store layer's commit spans recorded in the merge's own trace.
    let merge = traces.iter().find(|t| t.kind == "merge").unwrap();
    let names = span_names(merge);
    for want in [
        "seal",
        "bulk_load",
        "cut",
        "commit_snapshot",
        "swap",
        "wal_prune",
    ] {
        assert!(
            names.contains(want),
            "merge trace missing {want}: {names:?}"
        );
    }

    // Compaction reads every component back (em layer) and reopens the
    // rewritten store: all four layers appear in one trace.
    let compaction = traces.iter().find(|t| t.kind == "compaction").unwrap();
    let names = span_names(compaction);
    for want in ["component_read", "bulk_load", "store_open"] {
        assert!(
            names.contains(want),
            "compaction trace missing {want}: {names:?}"
        );
    }
    let l = layers(compaction);
    for want in ["live", "em", "tree", "store"] {
        assert!(
            l.contains(want),
            "compaction trace missing layer {want}: {l:?}"
        );
    }

    assert_store_spans_in(&traces, "merge");
    assert_store_spans_in(&traces, "compaction");

    // Reopen replayed the post-compaction writes, and its trace began
    // before the store opened.
    let replay = traces.iter().find(|t| t.kind == "wal_replay").unwrap();
    let replay_span = replay.spans.iter().find(|s| s.name == "replay").unwrap();
    assert_eq!(replay_span.layer, "live");
    assert!(replay_span.detail.starts_with("records="));
    let store = store_spans(replay);
    assert!(store.contains("store_open"), "replay trace: {store:?}");
    // The checkpoint decode (the compaction's: no tombstone, no
    // memtable item) is a span of its own beside the two.
    let manifest = replay.spans.iter().find(|s| s.name == "manifest").unwrap();
    assert_eq!(manifest.layer, "live");
    assert_eq!(manifest.detail, "tombstones=0 memtable=0");

    // Background merges run on the worker thread: their store spans
    // land in the worker's `merge` trace, none in the writer's traces.
    pr_obs::trace::set_sampling(1);
    pr_obs::trace::install_collector(256);
    {
        let bg = LiveOptions {
            background_merge: true,
            ..opts
        };
        let params = TreeParams::with_cap::<2>(8);
        let idx = LiveIndex::<2>::create(&tmpdir("background"), params, bg).unwrap();
        for start in (0..3_000).step_by(250) {
            let batch: Vec<Item<2>> = (start..start + 250).map(item).collect();
            idx.insert_batch(&batch).unwrap();
        }
        idx.wait_idle().unwrap();
    }
    pr_obs::trace::set_sampling(0);
    assert_store_spans_in(&pr_obs::trace::drain_collector(), "merge");
    pr_obs::recorder().clear();
}
