//! External-memory bulk loading: shared plumbing + the Hilbert loaders.
//!
//! These are the algorithms whose I/O counts reproduce the paper's
//! construction-cost experiments (Figures 9–11). Input is a
//! [`Stream`] of [`Entry`] records on a shared device; every pass the
//! algorithms make — sorts, key-tagging scans, distribution passes,
//! page writes — goes through the `pr-em` substrate and is counted.
//!
//! The Hilbert loaders here are the cheap end of the spectrum: one
//! key-tagging scan, one external sort whose final merge feeds the leaf
//! packing directly, then a single packing scan per upper level (the
//! paper: "H is simple to bulk-load").
//!
//! What the external loaders share with the in-memory ones lives in
//! [`crate::writer`]: the node writer, the root rule, and the streaming
//! level loop (`writer::stack_stream_levels`) that both this
//! module's Hilbert loaders and [`crate::bulk::pr_external`] stack their
//! levels with. The Hilbert loaders pack each level with
//! `writer::pack_stream`, the leaves straight off the merge of
//! the keyed runs. TGS's rules are [`crate::bulk::tgs`]'s.

use crate::bulk::hilbert::HilbertLoader;
use crate::bulk::kd_split::corner_ranks;
use crate::entry::{Entry, KeyedEntry};
use crate::params::TreeParams;
use crate::tree::RTree;
use crate::writer::{pack_stream, stack_stream_levels};
use pr_em::{
    external_sort_multi, BlockDevice, EmError, MergeReader, SortOrder, Stream, StreamReader,
    StreamWriter,
};
use pr_geom::Rect;
use std::cmp::Ordering;
use std::sync::Arc;

/// Memory budget for external construction (the model's `M`):
/// [`pr_em::SortConfig`], under the name the loaders take it by.
///
/// It is what the loaders size their state by: a sort's run formation
/// holds `memory_bytes` of records, its merges and a
/// [`pr_em::MergeReader`] over its runs one block per run (at most
/// `memory_bytes / 4` for a reader), and a round of
/// [`crate::bulk::pr_external`] its partial kd-tree, writer blocks and
/// reader blocks within `memory_bytes` together. The process heap peaks
/// higher, at 1.42 × `memory_bytes` for `PrExternalLoader`
/// (`tests/build_alloc.rs` prints it): a load of decoded records is
/// larger in memory than on disk (1.11 × in 2-D). It was 2.50 × while
/// run formation sorted each load with a stable sort beside its scratch;
/// every external loader's order (PR, TGS and Hilbert) sorts a load in
/// place.
pub use pr_em::SortConfig as ExternalConfig;

/// One sequential pass: the bounding box of every rectangle in `input`.
pub(crate) fn scan_domain<const D: usize>(
    dev: &dyn BlockDevice,
    input: &Stream,
) -> Result<Rect<D>, EmError> {
    let mut reader = StreamReader::<Entry<D>>::new(dev, input);
    let mut domain = Rect::EMPTY;
    while let Some(e) = reader.next_record()? {
        domain = domain.mbr_with(&e.rect);
    }
    Ok(domain)
}

/// The Hilbert loaders' sorted order: `(key, id)`, and where that ties
/// (equal key and equal id, so only with repeated ids) the corners'
/// ranks, as [`crate::bulk::kd_split`]'s external orders break theirs.
/// Only identical entries tie. A memory load is sorted in place,
/// unstably, so run formation needs no scratch; for distinct ids the
/// runs are the ones a stable sort under `(key, id)` forms.
struct ByKey<const D: usize>;

impl<const D: usize> SortOrder<KeyedEntry<D>> for ByKey<D> {
    fn cmp(&mut self, a: &KeyedEntry<D>, b: &KeyedEntry<D>) -> Ordering {
        (a.key, a.entry.ptr)
            .cmp(&(b.key, b.entry.ptr))
            .then_with(|| corner_ranks(&a.entry).cmp(&corner_ranks(&b.entry)))
    }

    fn sort(&mut self, load: &mut [KeyedEntry<D>]) {
        load.sort_unstable_by(|a, b| self.cmp(a, b));
    }
}

/// External packed Hilbert bulk loading ("H" with `corners = false`,
/// "H4" with `corners = true`).
///
/// Passes: domain scan → key-tagging scan → run formation over the
/// keyed records (and merge passes only past `fan_in / 4` runs) → leaf
/// packing scan over the merge of the runs → one packing scan per upper
/// level. The sorted keyed file is never written.
pub fn load_hilbert_external<const D: usize>(
    dev: Arc<dyn BlockDevice>,
    params: TreeParams,
    input: &Stream,
    config: ExternalConfig,
    corners: bool,
) -> Result<RTree<D>, EmError> {
    if input.is_empty() {
        return RTree::new_empty(dev, params);
    }
    let len = input.len();
    let loader = if corners {
        HilbertLoader::corners()
    } else {
        HilbertLoader::centers()
    };
    let domain = scan_domain::<D>(dev.as_ref(), input)?;
    let mapper = loader.mapper::<D>(&domain);

    // Tag every entry with its Hilbert key (1 read + 1 write pass).
    let keyed = {
        let mut reader = StreamReader::<Entry<D>>::new(dev.as_ref(), input);
        let mut writer = StreamWriter::<KeyedEntry<D>>::new(dev.as_ref());
        while let Some(e) = reader.next_record()? {
            writer.push(&KeyedEntry {
                key: loader.key_of::<D>(&mapper, &e.rect),
                entry: e,
            })?;
        }
        writer.finish()?
    };

    // Sort by (key, id) — the I/O-dominant step — down to a few runs.
    let runs = external_sort_multi(dev.as_ref(), &keyed, config, &mut [ByKey::<D>])?
        .pop()
        .expect("one order in, one set of runs out");
    keyed.discard(dev.as_ref());

    // Strip keys while packing leaves, straight off the merge of the
    // runs; each level above is one packing scan.
    let parents = {
        let mut merged = MergeReader::new(dev.as_ref(), &runs, ByKey::<D>);
        pack_stream(dev.as_ref(), 0, params.leaf_cap, || {
            Ok(merged.next_record()?.map(|k| k.entry))
        })?
    };
    for run in runs {
        run.discard(dev.as_ref());
    }
    let tree = stack_stream_levels(
        Arc::clone(&dev),
        params,
        &parents,
        1,
        len,
        |dev, s, level, cap| {
            let mut reader = StreamReader::<Entry<D>>::new(dev, s);
            pack_stream(dev, level, cap, || reader.next_record())
        },
    );
    parents.discard(dev.as_ref());
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::BulkLoader;
    use pr_em::MemDevice;
    use pr_geom::Item;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                Item::new(Rect::xyxy(x, y, x + 1.0, y + 1.0), i)
            })
            .collect()
    }

    fn item_stream(dev: &dyn BlockDevice, items: &[Item<2>]) -> Stream {
        Stream::from_iter(dev, items.iter().map(|&i| Entry::from_item(i))).unwrap()
    }

    #[test]
    fn domain_scan_matches_in_memory_mbr() {
        let items = random_items(500, 1);
        let dev = MemDevice::new(512);
        let s = item_stream(&dev, &items);
        let domain = scan_domain::<2>(&dev, &s).unwrap();
        let want = Rect::mbr_of(items.iter().map(|i| &i.rect));
        assert_eq!(domain, want);
    }

    #[test]
    fn external_hilbert_equals_in_memory_hilbert() {
        // Same items, same parameters: the external path must produce a
        // tree with identical leaf contents (same order, same packing).
        let items = random_items(2000, 7);
        let params = TreeParams::with_cap::<2>(16);

        let dev_mem: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let t_mem = HilbertLoader::centers()
            .load(Arc::clone(&dev_mem), params, items.clone())
            .unwrap();

        let dev_ext: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = item_stream(dev_ext.as_ref(), &items);
        let t_ext = load_hilbert_external::<2>(
            Arc::clone(&dev_ext),
            params,
            &input,
            ExternalConfig::with_memory(8 * params.page_size),
            false,
        )
        .unwrap();

        t_ext.validate().unwrap().assert_ok();
        assert_eq!(t_mem.height(), t_ext.height());
        // Leaf sequences must match exactly.
        let leaves = |t: &RTree<2>| -> Vec<Vec<u32>> {
            let mut out: Vec<Vec<u32>> = crate::bulk::testing::leaves(t)
                .iter()
                .map(|n| n.entries.iter().map(|e| e.ptr).collect())
                .collect();
            out.sort();
            out
        };
        assert_eq!(leaves(&t_mem), leaves(&t_ext));
    }

    #[test]
    fn external_h4_builds_valid_tree() {
        let items = random_items(1500, 3);
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = item_stream(dev.as_ref(), &items);
        let t = load_hilbert_external::<2>(
            Arc::clone(&dev),
            params,
            &input,
            ExternalConfig::with_memory(8 * params.page_size),
            true,
        )
        .unwrap();
        t.validate().unwrap().assert_ok();
        assert_eq!(t.len(), 1500);
    }

    #[test]
    fn empty_input() {
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = Stream::from_iter::<Entry<2>>(dev.as_ref(), []).unwrap();
        let t = load_hilbert_external::<2>(
            Arc::clone(&dev),
            params,
            &input,
            ExternalConfig::with_memory(8 * params.page_size),
            false,
        )
        .unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn io_cost_is_linear_in_passes() {
        // The whole build should cost a small constant number of passes
        // over the data — not O(N) random I/Os.
        let items = random_items(4000, 9);
        let params = TreeParams::with_cap::<2>(16);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = item_stream(dev.as_ref(), &items);
        let input_blocks = input.num_blocks() as u64;
        let before = dev.io_stats();
        let _t = load_hilbert_external::<2>(
            Arc::clone(&dev),
            params,
            &input,
            ExternalConfig::with_memory(64 * params.page_size),
            false,
        )
        .unwrap();
        let cost = dev.io_stats().since(before);
        // Generous bound: ≤ 16 passes (domain, tag, sort ≤ 3 passes of a
        // ~1.5× larger keyed file, pack, upper levels).
        assert!(
            cost.total() < 16 * input_blocks + 50,
            "build cost {} I/Os for {input_blocks}-block input",
            cost.total()
        );
    }

    #[test]
    fn repeated_ids_pack_the_same_leaves_under_every_budget() {
        // Nested boxes share a center, so under H they share a key too;
        // ids repeat mod 3. Equal (key, id) with other corners is what
        // the corner tie-break orders: without it an unstable load sort
        // moves those records, and with them the leaves, per budget.
        use crate::bulk::testing::{assert_holds_exactly, duplicate_ids, leaves};
        let mut items = duplicate_ids(3000, 14);
        items.extend((0..600).map(|i| {
            let r = 1.0 + (i % 7) as f64;
            Item::new(Rect::xyxy(50.0 - r, 50.0 - r, 50.0 + r, 50.0 + r), i % 3)
        }));
        let params = TreeParams::with_cap::<2>(8);
        for corners in [false, true] {
            let mut first = None;
            for pages in [12, 40, 100] {
                let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
                let input = item_stream(dev.as_ref(), &items);
                let t = load_hilbert_external::<2>(
                    Arc::clone(&dev),
                    params,
                    &input,
                    ExternalConfig::with_memory(pages * params.page_size),
                    corners,
                )
                .unwrap();
                assert_holds_exactly(&t, &items);
                let got: Vec<Vec<Entry<2>>> = leaves(&t).into_iter().map(|n| n.entries).collect();
                match &first {
                    None => first = Some(got),
                    Some(want) => assert!(*want == got, "corners {corners}: {pages} pages"),
                }
            }
        }
    }
}
