//! Golden hashes of the pages the bulk loaders write.
//!
//! Each in-memory hash is FNV-1a over every block of the `MemDevice` in
//! block order — so it pins which entries share a page, their order
//! inside it, and the order the pages were written in (page ids break
//! coordinate ties one stage up). Of the PR-tree's, the first six were
//! computed with the `Vec`-per-node recursion this crate had before the
//! in-place kernel of `bulk::kd_split`; the seventh, 100 k rectangles
//! that fork the grouping across threads twice on a 4-core host, with
//! the serial in-place kernel before the fork. A kernel change that
//! moves any of those must fail here, not be re-baselined.
//!
//! The other loaders' hashes (H, H4, STR and TGS in memory; H, H4 and
//! TGS external) were computed before their level loops, root rule,
//! node writes and TGS cut/split rule moved into shared code. An
//! external build leaves discarded temporary blocks on its device, so
//! its hash covers the tree's pages only: the root's id, then every
//! reachable page in page-id order (child pointers pin the rest).

use pr_em::Stream;
use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Rect};
use pr_tree::bulk::external::{load_hilbert_external, ExternalConfig};
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::tgs_external::TgsExternalLoader;
use pr_tree::bulk::{BulkLoader, LoaderKind};
use pr_tree::{Entry, RTree, TreeParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// FNV-1a over all blocks of `dev`, in block order.
fn device_hash(dev: &dyn BlockDevice) -> u64 {
    let mut buf = vec![0u8; dev.block_size()];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for block in 0..dev.num_blocks() {
        dev.read_block(block, &mut buf).unwrap();
        for &b in &buf {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn built_hash<const D: usize>(
    loader: PrTreeLoader,
    params: TreeParams,
    items: Vec<Item<D>>,
) -> u64 {
    let n = items.len() as u64;
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = loader.load(Arc::clone(&dev), params, items).unwrap();
    tree.validate().unwrap().assert_ok();
    assert_eq!(tree.len(), n);
    device_hash(dev.as_ref())
}

/// Seeded rectangles on a 1/64 lattice: coordinates tie heavily on every
/// axis, so the hashes also pin every id tie-break.
fn lattice_items(n: u32, seed: u64) -> Vec<Item<2>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cell = |hi: u32| rng.gen_range(0..hi) as f64 / 64.0;
    (0..n)
        .map(|i| {
            let (x, y, w, h) = (cell(640), cell(640), cell(24), cell(24));
            Item::new(Rect::xyxy(x, y, x + w, y + h), i)
        })
        .collect()
}

fn boxes_3d(n: u32, seed: u64) -> Vec<Item<3>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let p: [f64; 3] = std::array::from_fn(|_| rng.gen_range(0..320) as f64 / 32.0);
            let hi = p.map(|c| c + rng.gen_range(0..16) as f64 / 32.0);
            Item::new(Rect::new(p, hi), i)
        })
        .collect()
}

#[test]
fn in_memory_build_bytes_are_pinned() {
    let lattice = lattice_items(20_000, 2004);
    let cap16 = TreeParams::with_cap::<2>(16);
    let default = PrTreeLoader::default();

    let cases: [(&str, u64, u64); 7] = [
        (
            "20k lattice, cap 16",
            built_hash(default, cap16, lattice.clone()),
            0xe2a0_fa8e_6153_a007,
        ),
        (
            "20k lattice, paper_2d (cap 113)",
            built_hash(default, TreeParams::paper_2d(), lattice.clone()),
            0xece4_93d1_ee43_7fd4,
        ),
        (
            "5k boxes, D = 3, cap 8",
            built_hash(default, TreeParams::with_cap::<3>(8), boxes_3d(5_000, 3)),
            0x72e0_1909_69a8_4dca,
        ),
        (
            // Only the id tie-break orders anything.
            "3k equal rectangles, cap 8",
            built_hash(
                default,
                TreeParams::with_cap::<2>(8),
                (0..3_000)
                    .map(|i| Item::new(Rect::xyxy(1.0, 2.0, 3.0, 4.0), i))
                    .collect(),
            ),
            0x7e00_f93b_7c6f_6955,
        ),
        (
            "20k lattice, cap 16, snap_splits: false",
            built_hash(
                PrTreeLoader {
                    snap_splits: false,
                    ..default
                },
                cap16,
                lattice.clone(),
            ),
            0x6686_4c67_7ccb_9f74,
        ),
        (
            "20k lattice, cap 16, priority_size: Some(1)",
            built_hash(
                PrTreeLoader {
                    priority_size: Some(1),
                    ..default
                },
                cap16,
                lattice,
            ),
            0xa3bd_a438_d6e9_07d1,
        ),
        (
            "100k lattice, paper_2d (cap 113)",
            built_hash(default, TreeParams::paper_2d(), lattice_items(100_000, 7)),
            0x4955_bfeb_7d21_99a2,
        ),
    ];
    let moved: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("{what}: got {got:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(moved.is_empty(), "pages moved:\n{}", moved.join("\n"));
}

fn loader_hash<const D: usize>(kind: LoaderKind, params: TreeParams, items: Vec<Item<D>>) -> u64 {
    let n = items.len() as u64;
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = kind
        .loader::<D>()
        .load(Arc::clone(&dev), params, items)
        .unwrap();
    tree.validate().unwrap().assert_ok();
    assert_eq!(tree.len(), n);
    device_hash(dev.as_ref())
}

#[test]
fn other_in_memory_loaders_bytes_are_pinned() {
    let lattice = lattice_items(20_000, 2004);
    let cap16 = TreeParams::with_cap::<2>(16);
    let cap8_3d = TreeParams::with_cap::<3>(8);
    let pinned: [(LoaderKind, [u64; 3]); 4] = [
        (
            LoaderKind::Hilbert,
            [
                0xd7fb_edeb_91a4_c8cf,
                0xac17_9aa3_3e6e_4dcf,
                0x43f5_4e05_338a_c3dc,
            ],
        ),
        (
            LoaderKind::Hilbert4,
            [
                0x6c00_3260_a03c_c41e,
                0xba2d_f485_a93e_4d97,
                0x8f8d_a4dd_d458_d844,
            ],
        ),
        (
            LoaderKind::Str,
            [
                0xce2a_3d21_06a0_ff01,
                0xe2ae_8f97_63c3_3b37,
                0x5f06_9f65_28ea_b20e,
            ],
        ),
        (
            LoaderKind::Tgs,
            [
                0x27ec_9fea_e758_ecca,
                0x5045_0756_1217_1867,
                0x93c0_f91e_89f4_fe64,
            ],
        ),
    ];
    let mut moved = Vec::new();
    for (kind, [lattice_want, tiny_want, d3_want]) in pinned {
        let cases = [
            (
                "20k lattice, cap 16",
                loader_hash(kind, cap16, lattice.clone()),
                lattice_want,
            ),
            (
                // Fewer items than a leaf holds: the root is the one leaf.
                "12 lattice items, cap 16",
                loader_hash(kind, cap16, lattice_items(12, 5)),
                tiny_want,
            ),
            (
                "5k boxes, D = 3, cap 8",
                loader_hash(kind, cap8_3d, boxes_3d(5_000, 3)),
                d3_want,
            ),
        ];
        for (what, got, want) in cases {
            if got != want {
                moved.push(format!(
                    "{} {what}: got {got:#018x}, pinned {want:#018x}",
                    kind.name()
                ));
            }
        }
    }
    assert!(moved.is_empty(), "pages moved:\n{}", moved.join("\n"));
}

/// FNV-1a over the root's id, then over every page reachable from it in
/// page-id order.
fn tree_hash<const D: usize>(dev: &dyn BlockDevice, tree: &RTree<D>) -> u64 {
    let mut pages = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(p) = stack.pop() {
        pages.push(p);
        let (node, _) = tree.read_node(p).unwrap();
        if !node.is_leaf() {
            stack.extend(node.entries.iter().map(|e| e.ptr as u64));
        }
    }
    pages.sort_unstable();
    let mut bytes = tree.root().to_le_bytes().to_vec();
    let mut buf = vec![0u8; dev.block_size()];
    for p in pages {
        dev.read_block(p, &mut buf).unwrap();
        bytes.extend_from_slice(&buf);
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn external_loaders_bytes_are_pinned_across_budgets() {
    // The budgets of `tests/external_io.rs`'s store hashes: temporary
    // streams share the device with the tree, so a budget's sort runs
    // move page ids, and each budget has its own hash.
    let items = lattice_items(20_000, 2004);
    let params = TreeParams::with_cap::<2>(16);
    let pinned: [(&str, [u64; 3]); 3] = [
        (
            "H",
            [
                0xcfb1_2ba4_582f_5e8e,
                0x2ceb_cbc3_ea8e_966e,
                0x5f56_1a09_9159_309e,
            ],
        ),
        (
            "H4",
            [
                0x3be7_df03_0be7_6813,
                0x81d9_55e0_17aa_6643,
                0xc2ee_e8d0_e599_61cf,
            ],
        ),
        (
            "TGS",
            [
                0x09a8_764d_add0_c5b2,
                0xdcc5_f85e_cf0a_6aa9,
                0x882e_2308_b797_30b5,
            ],
        ),
    ];
    let mut moved = Vec::new();
    for (name, wants) in pinned {
        for (pages, want) in [12usize, 60, 400].into_iter().zip(wants) {
            let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
            let input = Stream::from_iter(dev.as_ref(), items.iter().map(|&i| Entry::from_item(i)))
                .unwrap();
            let config = ExternalConfig::with_memory(pages * params.page_size);
            let tree: RTree<2> = match name {
                "TGS" => TgsExternalLoader::new(config).load(Arc::clone(&dev), params, &input),
                h => load_hilbert_external(Arc::clone(&dev), params, &input, config, h == "H4"),
            }
            .unwrap();
            tree.validate().unwrap().assert_ok();
            assert_eq!(tree.len(), items.len() as u64);
            let got = tree_hash(dev.as_ref(), &tree);
            if got != want {
                moved.push(format!(
                    "{name}, {pages}-page budget: got {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(moved.is_empty(), "pages moved:\n{}", moved.join("\n"));
}
