//! Golden hashes of the pages `PrTreeLoader::load` writes.
//!
//! Each hash is FNV-1a over every block of the `MemDevice` in block
//! order — so it pins which entries share a page, their order inside it,
//! and the order the pages were written in (page ids break coordinate
//! ties one stage up). The first six were computed with the `Vec`-per-node
//! recursion this crate had before the in-place kernel of
//! `bulk::kd_split`; the seventh, 100 k rectangles that fork the grouping
//! across threads twice on a 4-core host, with the serial in-place kernel
//! before the fork. A kernel change that moves any of those must fail
//! here, not be re-baselined.

use pr_em::{BlockDevice, MemDevice};
use pr_geom::{Item, Rect};
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::BulkLoader;
use pr_tree::TreeParams;
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
