//! `recheck_reads` (the CLI's `--paranoid`) means what it says: every
//! read of a store page re-hashes it, however often the page has been
//! read before. Nothing may sit between a leaf visit and the device
//! that could serve a page rotted after its first touches.

use pr_em::EmError;
use pr_geom::{Item, Rect};
use pr_live::{LiveError, LiveIndex, LiveOptions};
use pr_tree::TreeParams;
use std::os::unix::fs::FileExt;

#[test]
fn paranoid_reads_rehash_a_leaf_on_every_touch() {
    let dir = std::env::temp_dir().join(format!("pr-live-paranoid-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = LiveOptions {
        buffer_cap: 256,
        background_merge: false,
        recheck_reads: true,
        ..LiveOptions::default()
    };
    let ix = LiveIndex::<2>::create(&dir, TreeParams::with_cap::<2>(8), opts).unwrap();
    let items: Vec<Item<2>> = (0..2_000u32)
        .map(|i| {
            let x = (i as f64 * 37.0) % 1000.0;
            let y = (i as f64 * 61.0) % 1000.0;
            Item::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), i)
        })
        .collect();
    ix.insert_batch(&items).unwrap();
    ix.flush().unwrap();

    // Everything is in committed components, and this window visits
    // every leaf of each of them.
    let everything = Rect::xyxy(-10.0, -10.0, 2000.0, 2000.0);
    for pass in 0..3 {
        let (hits, stats) = ix.window(&everything).unwrap();
        assert_eq!(hits.len(), items.len(), "pass {pass}");
        assert_eq!(stats.device_reads, stats.leaves_visited, "pass {pass}");
    }

    // Rot one leaf: a run is laid out root first, so its last page is
    // a leaf. XOR, so the byte changes whatever it held.
    let run = *ix.stats().unwrap().store_runs.last().expect("a component");
    let off = run.data_offset + (run.num_pages - 1) * ix.params().page_size as u64 + 16;
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join("index.prt"))
        .unwrap();
    let mut byte = [0u8; 1];
    file.read_exact_at(&mut byte, off).unwrap();
    file.write_all_at(&[byte[0] ^ 0xFF], off).unwrap();
    file.sync_data().unwrap();

    let fourth = ix.window(&everything).map(|(hits, _)| hits.len());
    assert!(
        matches!(&fourth, Err(LiveError::Em(EmError::Corrupt(msg))) if msg.contains("CRC32")),
        "the fourth touch must re-hash the rotted leaf, got {fourth:?}"
    );
    drop(ix);
    std::fs::remove_dir_all(&dir).ok();
}
