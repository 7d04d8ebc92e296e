//! The paper's core claim, live: on extreme data the PR-tree stays near
//! the optimal query cost while the classic packings fall apart.
//!
//! Builds all five bulk loaders (PR, H, H4, TGS, STR) over three of the
//! paper's stress datasets and prints the relative query cost
//! (leaf I/Os ÷ ⌈T/B⌉; 100% = optimal).
//!
//! ```text
//! cargo run --release --example extreme_data
//! ```

use pr_data::queries::square_queries;
use pr_data::{aspect_dataset, size_dataset, skewed_dataset};
use prtree::prelude::*;
use std::sync::Arc;

fn main() {
    let n = 400_000;
    let datasets = vec![
        ("SIZE(0.2): big rectangles", size_dataset(n, 0.2, 1)),
        ("ASPECT(10000): needles", aspect_dataset(n, 10_000.0, 2)),
        ("SKEWED(9): squeezed points", skewed_dataset(n, 9, 3)),
    ];
    let params = TreeParams::paper_2d();
    let unit = Rect::xyxy(0.0, 0.0, 1.0, 1.0);
    let kinds = [
        LoaderKind::Pr,
        LoaderKind::Hilbert,
        LoaderKind::Hilbert4,
        LoaderKind::Tgs,
        LoaderKind::Str,
    ];

    println!("relative query cost: leaf I/Os ÷ ⌈T/B⌉ over 50 1%-area windows (100% = optimal)\n");
    println!(
        "{:<30} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "dataset", "PR", "H", "H4", "TGS", "STR"
    );
    let mut worst = vec![0.0f64; kinds.len()];
    for (name, items) in datasets {
        // SKEWED queries follow the data's transform so output stays put.
        let queries = if name.starts_with("SKEWED") {
            pr_data::queries::skewed_queries(9, 0.01, 50, 42)
        } else {
            square_queries(&unit, 0.01, 50, 42)
        };
        print!("{name:<30}");
        for (ki, kind) in kinds.iter().enumerate() {
            let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
            let tree = kind
                .loader::<2>()
                .load(dev, params, items.clone())
                .expect("build");
            tree.warm_cache().unwrap();
            let mut rel_sum = 0.0;
            let mut rel_n = 0u32;
            for q in &queries {
                let (_, stats) = tree.window_count(q).expect("query");
                if let Some(r) = stats.relative_cost(params.leaf_cap) {
                    rel_sum += r;
                    rel_n += 1;
                }
            }
            let rel = rel_sum / rel_n as f64;
            worst[ki] = worst[ki].max(rel);
            print!(" {:>6.0}%", rel * 100.0);
        }
        println!();
    }
    let best = worst
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty");
    println!(
        "\nmost robust across the three stress tests: {} (worst case {:.0}%).\n\
         The gaps widen with N — at the paper's 10M the PR-tree is near-optimal\n\
         everywhere while H/TGS degrade severely.",
        kinds[best.0].name(),
        best.1 * 100.0
    );
}
