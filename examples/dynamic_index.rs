//! Dynamic maintenance: Guttman updates vs the LPR-tree.
//!
//! The paper (§4) warns that heuristic updates void the PR-tree's query
//! guarantee and proposes the logarithmic method as the alternative.
//! This example runs both on the same update stream and compares query
//! cost at the end.
//!
//! ```text
//! cargo run --release --example dynamic_index
//! ```

use pr_data::queries::square_queries;
use pr_data::uniform_points;
use prtree::prelude::*;
use std::sync::Arc;

fn main() {
    let n = 50_000u32;
    let n_updates = 15_000usize;
    let params = TreeParams::paper_2d();
    let base = uniform_points(n, 7);
    let unit = Rect::xyxy(0.0, 0.0, 1.0, 1.0);
    let queries = square_queries(&unit, 0.01, 100, 9);

    // Road A: bulk-load a PR-tree, then hammer it with Guttman updates.
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let mut guttman = PrTreeLoader::default()
        .load(dev, params, base.clone())
        .expect("bulk load");

    // Road B: an LPR-tree built incrementally from scratch.
    let dev2: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let mut lpr = LprTree::<2>::new(dev2, params, 4096);
    for &it in &base {
        lpr.insert(it).expect("lpr insert");
    }

    // Same churn on both: delete a random live item, insert a fresh one.
    let mut live = base;
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut next_id = n;
    #[allow(clippy::explicit_counter_loop)] // next_id doubles as item id
    for _ in 0..n_updates {
        let idx = (rnd() % live.len() as u64) as usize;
        let victim = live.swap_remove(idx);
        guttman.delete(&victim).expect("delete");
        lpr.delete(&victim).expect("lpr delete");
        let x = (rnd() % 1_000_000) as f64 / 1_000_000.0;
        let y = (rnd() % 1_000_000) as f64 / 1_000_000.0;
        let fresh = Item::new(Rect::xyxy(x, y, x, y), next_id);
        next_id += 1;
        guttman.insert(fresh).expect("insert");
        lpr.insert(fresh).expect("lpr insert");
        live.push(fresh);
    }
    println!("applied {n_updates} delete+insert pairs to both structures\n");

    // Compare query cost (leaf I/Os per query).
    guttman.warm_cache().unwrap();
    let mut g_leaves = 0u64;
    for q in &queries {
        let (_, s) = guttman.window_count(q).expect("query");
        g_leaves += s.leaves_visited;
    }
    let mut l_leaves = 0u64;
    for q in &queries {
        let (_, s) = lpr.window(q).expect("query");
        l_leaves += s.leaves_visited;
    }
    // Reference: a freshly bulk-loaded PR-tree over the live set.
    let dev3: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let fresh_tree = PrTreeLoader::default()
        .load(dev3, params, live)
        .expect("rebuild");
    fresh_tree.warm_cache().unwrap();
    let mut f_leaves = 0u64;
    for q in &queries {
        let (_, s) = fresh_tree.window_count(q).expect("query");
        f_leaves += s.leaves_visited;
    }

    let per = queries.len() as f64;
    println!("avg leaf I/Os per 1%-area query after the churn:");
    println!("  Guttman-updated PR-tree : {:>7.1}", g_leaves as f64 / per);
    println!(
        "  LPR-tree ({} components) : {:>7.1}",
        lpr.num_components(),
        l_leaves as f64 / per
    );
    println!("  freshly rebuilt PR-tree : {:>7.1}", f_leaves as f64 / per);
    println!(
        "\nLPR-tree consistency check: {} live items (expected {})",
        lpr.len(),
        fresh_tree.len()
    );
}
