//! Integration: external construction — correctness against the
//! in-memory loaders and the paper's construction-cost ordering.

use pr_data::uniform_points;
use prtree::em::Record;
use prtree::prelude::*;
use prtree::tree::bulk::external::load_hilbert_external;
use prtree::tree::bulk::tgs_external::TgsExternalLoader;
use prtree::tree::Entry;
use std::sync::Arc;

fn leaf_groups(t: &RTree<2>) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut stack = vec![t.root()];
    while let Some(p) = stack.pop() {
        let (node, _) = t.read_node(p).unwrap();
        if node.is_leaf() {
            let mut ids: Vec<u32> = node.entries.iter().map(|e| e.ptr).collect();
            ids.sort_unstable();
            out.push(ids);
        } else {
            for e in &node.entries {
                stack.push(e.ptr as u64);
            }
        }
    }
    out.sort();
    out
}

fn build_stream(dev: &dyn BlockDevice, items: &[Item<2>]) -> Stream {
    Stream::from_iter(dev, items.iter().map(|&i| Entry::<2>::from_item(i))).unwrap()
}

#[test]
fn external_loaders_build_the_same_trees_as_in_memory() {
    let items = uniform_points(4_000, 21);
    let params = TreeParams::with_cap::<2>(16);
    let config = ExternalConfig::with_memory(50 * params.page_size);

    // PR.
    let dev_a: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let mem_pr = PrTreeLoader::default()
        .load(Arc::clone(&dev_a), params, items.clone())
        .unwrap();
    let dev_b: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let input = build_stream(dev_b.as_ref(), &items);
    let ext_pr = PrExternalLoader::new(config)
        .load::<2>(Arc::clone(&dev_b), params, &input)
        .unwrap();
    assert_eq!(leaf_groups(&mem_pr), leaf_groups(&ext_pr), "PR");

    // TGS.
    let dev_c: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let mem_tgs = TgsLoader
        .load(Arc::clone(&dev_c), params, items.clone())
        .unwrap();
    let dev_d: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let input = build_stream(dev_d.as_ref(), &items);
    let ext_tgs = TgsExternalLoader::new(config)
        .load::<2>(Arc::clone(&dev_d), params, &input)
        .unwrap();
    assert_eq!(leaf_groups(&mem_tgs), leaf_groups(&ext_tgs), "TGS");

    // H and H4.
    for corners in [false, true] {
        let loader = if corners {
            HilbertLoader::corners()
        } else {
            HilbertLoader::centers()
        };
        let dev_e: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let mem_h = loader
            .load(Arc::clone(&dev_e), params, items.clone())
            .unwrap();
        let dev_f: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = build_stream(dev_f.as_ref(), &items);
        let ext_h = load_hilbert_external::<2>(Arc::clone(&dev_f), params, &input, config, corners)
            .unwrap();
        assert_eq!(
            leaf_groups(&mem_h),
            leaf_groups(&ext_h),
            "corners={corners}"
        );
    }
}

#[test]
fn construction_io_ordering_matches_figure_9() {
    // The paper's Figure 9: H < PR < TGS in block transfers, with PR at
    // about 2.5 × H, under a paper-like N/M ≈ 9 budget. Measured here:
    // H 3 691, PR 6 339 (1.72 × H; 2.26 × while PR wrote its sorted
    // lists out), TGS 44 133 (6.96 × PR). H's keyed records make 12 runs
    // against a bound of 9, so its sort still merges them.
    let n = 20_000u32;
    let items = uniform_points(n, 33);
    let params = TreeParams::with_cap::<2>(64);
    let memory = (n as usize / 9) * 40;
    let config = ExternalConfig::with_memory(memory);

    let cost = |which: u8| -> u64 {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = build_stream(dev.as_ref(), &items);
        let before = dev.io_stats();
        match which {
            0 => {
                load_hilbert_external::<2>(Arc::clone(&dev), params, &input, config, false)
                    .unwrap();
            }
            1 => {
                PrExternalLoader::new(config)
                    .load::<2>(Arc::clone(&dev), params, &input)
                    .unwrap();
            }
            _ => {
                TgsExternalLoader::new(config)
                    .load::<2>(Arc::clone(&dev), params, &input)
                    .unwrap();
            }
        }
        dev.io_stats().since(before).total()
    };
    let (h, pr, tgs) = (cost(0), cost(1), cost(2));
    assert!(h < pr, "H ({h}) should be cheaper than PR ({pr})");
    assert!(pr < tgs, "PR ({pr}) should be cheaper than TGS ({tgs})");
    assert!(
        2 * pr <= 7 * h,
        "PR ({pr}) should stay within 3.5 × H ({h}) — paper: ≈2.5×"
    );
    assert!(
        tgs > 2 * pr,
        "TGS ({tgs}) should be several times PR ({pr}) — paper: ≈4.5×"
    );
}

#[test]
fn pr_external_io_is_a_constant_number_of_passes() {
    // N/M ≈ 9, as in the paper's runs, and M/B = 270 blocks, so that
    // one round holds the 15 kd nodes above the 16 memory-sized
    // children: the sorts are 5 passes over the input (one read, four
    // sets of nine runs written, never merged), the round's read scans
    // off those runs, its single distribution and the leaf writes 12
    // more: 17.29 measured. (With the lists merged and written out it
    // was 25.24; distributing once per kd level cost 52 passes here.)
    let n = 40_000u32;
    let items = uniform_points(n, 77);
    let params = TreeParams::with_cap::<2>(16);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let input = build_stream(dev.as_ref(), &items);
    let config = ExternalConfig::with_memory(n as usize / 9 * Entry::<2>::SIZE);
    let before = dev.io_stats();
    let tree = PrExternalLoader::new(config)
        .load::<2>(Arc::clone(&dev), params, &input)
        .unwrap();
    let total = dev.io_stats().since(before).total();
    let blocks = input.num_blocks() as u64;
    assert_eq!(tree.len(), n as u64);
    assert!(
        total <= 18 * blocks,
        "{total} I/Os for a {blocks}-block input is {} passes",
        total / blocks
    );
}

#[test]
fn file_backed_device_runs_the_full_pipeline() {
    let items = uniform_points(2_000, 44);
    let params = TreeParams::with_cap::<2>(16);
    let path = std::env::temp_dir().join(format!("prtree-it-{}.bin", std::process::id()));
    let dev: Arc<dyn BlockDevice> = Arc::new(FileDevice::create(&path, params.page_size).unwrap());
    let input = build_stream(dev.as_ref(), &items);
    let tree = PrExternalLoader::new(ExternalConfig::with_memory(20 * params.page_size))
        .load::<2>(Arc::clone(&dev), params, &input)
        .unwrap();
    tree.validate().unwrap().assert_ok();
    let hits = tree.window(&Rect::xyxy(0.1, 0.1, 0.4, 0.4)).unwrap();
    let want = items
        .iter()
        .filter(|i| i.rect.intersects(&Rect::xyxy(0.1, 0.1, 0.4, 0.4)))
        .count();
    assert_eq!(hits.len(), want);
    std::fs::remove_file(&path).ok();
}

#[test]
fn memory_budget_changes_pass_structure_not_results() {
    let items = uniform_points(3_000, 55);
    let params = TreeParams::with_cap::<2>(16);
    let mut costs = Vec::new();
    let mut groups = Vec::new();
    for mem_pages in [12usize, 60, 6000] {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = build_stream(dev.as_ref(), &items);
        let config = ExternalConfig::with_memory(mem_pages * params.page_size);
        let before = dev.io_stats();
        let tree = PrExternalLoader::new(config)
            .load::<2>(Arc::clone(&dev), params, &input)
            .unwrap();
        costs.push(dev.io_stats().since(before).total());
        groups.push(leaf_groups(&tree));
    }
    assert_eq!(groups[0], groups[1]);
    assert_eq!(groups[1], groups[2]);
    assert!(
        costs[0] > costs[2],
        "smaller memory must cost more I/O: {costs:?}"
    );
}

/// FNV-1a (64-bit) of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 20 000 seeded rectangles on a 1/64 lattice: coordinates tie heavily
/// on every axis, so the hash below also pins every id tie-break — at
/// the upper stages those ids are page ids, i.e. the page write order.
fn lattice_items(n: u32, seed: u64) -> Vec<Item<2>> {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cell = |hi: u32| rng.gen_range(0..hi) as f64 / 64.0;
    (0..n)
        .map(|i| {
            let (x, y, w, h) = (cell(640), cell(640), cell(24), cell(24));
            Item::new(Rect::xyxy(x, y, x + w, y + h), i)
        })
        .collect()
}

#[test]
fn saved_store_bytes_are_pinned_across_budgets() {
    // Hashes computed with the one-kd-level-per-pass loader this
    // repository had before the round-based one: whatever the pass
    // structure, the saved file must not change by a byte.
    let items = lattice_items(20_000, 2004);
    let params = TreeParams::with_cap::<2>(16);
    let golden = [
        (12usize, 0x8597_6a05_4bc9_2bcbu64), // fan-out 2: every round is one kd node
        (60, 0x9355_04e1_c328_5e97),         // rounds stop at the fan-out bound, children recurse
        (400, 0x896e_c04a_d624_8b7d),        // one round resolves the whole stage
    ];
    for (pages, want) in golden {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = build_stream(dev.as_ref(), &items);
        let tree = PrExternalLoader::new(ExternalConfig::with_memory(pages * params.page_size))
            .load::<2>(Arc::clone(&dev), params, &input)
            .unwrap();
        let path =
            std::env::temp_dir().join(format!("prtree-golden-{}-{pages}.prt", std::process::id()));
        let mut store = Store::create::<2>(&path, params).unwrap();
        store.save(&tree).unwrap();
        drop(store);
        let got = fnv1a(&std::fs::read(&path).unwrap());
        std::fs::remove_file(&path).ok();
        assert_eq!(got, want, "{pages}-page budget: {got:#018x}");
    }
}
