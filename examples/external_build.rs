//! External-memory bulk loading with exact I/O accounting.
//!
//! Reproduces the flavor of the paper's Figure 9 in miniature: build the
//! same dataset with the external H, H4, PR and TGS algorithms under a
//! TPIE-style memory budget and report how many 4KB blocks each one
//! moved. PR comes out at about 2.0 × H (the paper: ≈ 2.5 ×): its
//! loader forms the runs of four sorted lists from one read of the
//! input, builds several kd levels per round from read-only scans over
//! the merge of those runs — the lists themselves are never written —
//! and distributes the data once (see `pr_tree::bulk::pr_external`). H
//! likewise packs its leaves straight off its sorted runs. Also
//! demonstrates that the same code runs against a real file on disk via
//! `FileDevice`.
//!
//! ```text
//! cargo run --release --example external_build
//! ```

use prtree::prelude::*;
use prtree::tree::bulk::external::load_hilbert_external;
use prtree::tree::bulk::tgs_external::TgsExternalLoader;
use prtree::tree::Entry;
use std::sync::Arc;

fn main() {
    let n: u32 = 200_000;
    let items = pr_data::TigerProfile::eastern().generate(n, 5);
    let params = TreeParams::paper_2d();
    // The paper's N/M ≈ 9: memory holds a ninth of the input.
    let memory = (n as usize / 9) * 36;
    let config = ExternalConfig::with_memory(memory);
    println!(
        "bulk-loading {n} rectangles externally (memory budget {} records)\n",
        memory / 36
    );

    println!(
        "{:<6} {:>12} {:>12} {:>10}",
        "tree", "blocks read", "blocks written", "seconds"
    );
    for kind in [
        LoaderKind::Hilbert,
        LoaderKind::Hilbert4,
        LoaderKind::Pr,
        LoaderKind::Tgs,
    ] {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = Stream::from_iter(
            dev.as_ref(),
            items.iter().map(|&i| Entry::<2>::from_item(i)),
        )
        .expect("input stream");
        let before = dev.io_stats();
        let start = std::time::Instant::now();
        let tree = match kind {
            LoaderKind::Pr => PrExternalLoader::new(config)
                .load::<2>(Arc::clone(&dev), params, &input)
                .expect("build"),
            LoaderKind::Tgs => TgsExternalLoader::new(config)
                .load::<2>(Arc::clone(&dev), params, &input)
                .expect("build"),
            LoaderKind::Hilbert => {
                load_hilbert_external::<2>(Arc::clone(&dev), params, &input, config, false)
                    .expect("build")
            }
            LoaderKind::Hilbert4 => {
                load_hilbert_external::<2>(Arc::clone(&dev), params, &input, config, true)
                    .expect("build")
            }
            LoaderKind::Str => unreachable!(),
        };
        let secs = start.elapsed().as_secs_f64();
        let io = dev.io_stats().since(before);
        assert_eq!(tree.len(), n as u64);
        println!(
            "{:<6} {:>12} {:>12} {:>10.2}",
            kind.name(),
            io.reads,
            io.writes,
            secs
        );
    }

    // The same PR build against a real file on disk.
    let path = std::env::temp_dir().join("prtree-external-build.bin");
    let dev: Arc<dyn BlockDevice> =
        Arc::new(FileDevice::create(&path, params.page_size).expect("create file device"));
    let input = Stream::from_iter(
        dev.as_ref(),
        items.iter().map(|&i| Entry::<2>::from_item(i)),
    )
    .expect("input stream");
    let tree = PrExternalLoader::new(config)
        .load::<2>(Arc::clone(&dev), params, &input)
        .expect("file-backed build");
    let q = Rect::xyxy(0.3, 0.3, 0.35, 0.35);
    let hits = tree.window(&q).expect("query").len();
    println!(
        "\nfile-backed PR-tree at {}: {} items, {hits} hits for a sample window",
        path.display(),
        tree.len()
    );
    std::fs::remove_file(&path).ok();
}
