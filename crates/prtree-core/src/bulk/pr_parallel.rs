//! Multi-threaded PR-tree bulk loading.
//!
//! An extension beyond the paper (which predates multicore ubiquity):
//! the pseudo-PR-tree stage is a divide-and-conquer over disjoint ranges
//! of one entry buffer ([`crate::bulk::kd_split`]), so after the first
//! few sequential kd splits the recursion parallelizes embarrassingly:
//! each worker gets one `split_at_mut` piece of the buffer and permutes
//! only that. Both loaders run the same `kd_split::split_node`, and the
//! leaves are put back in the sequential emission order, so the pages
//! are *byte-identical* to [`PrTreeLoader`]'s — only the schedule
//! differs; a test pins that down.
//!
//! Page writing stays sequential: allocation on the shared device is a
//! synchronization point anyway, and writing is a small fraction of the
//! stage cost.

use crate::bulk::kd_split::{leaf_ranges, split_node, NodeShape};
use crate::bulk::pr::PrTreeLoader;
use crate::bulk::BulkLoader;
use crate::entry::Entry;
use crate::params::TreeParams;
use crate::tree::RTree;
use pr_em::{BlockDevice, EmError};
use pr_geom::{Axis, Item};
use std::ops::Range;
use std::sync::Arc;

/// PR-tree loader that fans the kd recursion out over threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelPrLoader {
    /// Structural knobs, shared with [`PrTreeLoader`].
    pub inner: PrTreeLoader,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
}

/// A stretch of a stage's emission sequence: a finished leaf, or (with
/// its root's kd axis) a subtree still to be grouped.
type Piece = (Range<usize>, Option<Axis>);

/// The subtrees among `pieces`, with their positions.
fn subtrees(pieces: &[Piece]) -> Vec<(usize, Range<usize>, Axis)> {
    let subtree = |(i, (range, axis)): (usize, &Piece)| axis.map(|axis| (i, range.clone(), axis));
    pieces.iter().enumerate().filter_map(subtree).collect()
}

impl ParallelPrLoader {
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// One stage's grouping, computed in parallel: the same ranges, in
    /// the same order, as `leaf_ranges(s, Axis(0), shape)`.
    fn leaf_ranges_parallel<const D: usize>(
        &self,
        s: &mut [Entry<D>],
        shape: NodeShape,
    ) -> Vec<Range<usize>> {
        let threads = self.effective_threads();
        if threads <= 1 || s.len() < 4 * shape.cap * threads {
            return leaf_ranges(s, Axis(0), shape);
        }

        // Peel the top of the recursion sequentially until there are
        // enough independent sub-problems to saturate the workers. A
        // node's piece is replaced by what it emits: its own leaves, its
        // right subtree, its left subtree.
        let mut pieces: Vec<Piece> = vec![(0..s.len(), Some(Axis(0)))];
        loop {
            let pending = subtrees(&pieces);
            // Expand the largest pending subtree.
            let Some((i, range, axis)) = pending.iter().max_by_key(|(_, r, _)| r.len()).cloned()
            else {
                break;
            };
            if pending.len() >= 2 * threads || range.len() <= 4 * shape.cap {
                break; // enough pieces, or all too small to be worth splitting
            }
            let mut leaves = Vec::new();
            let kids = split_node(s, range, axis, shape, &mut leaves);
            let next = Some(axis.next::<D>());
            let right_then_left = kids.into_iter().flatten().rev();
            pieces.splice(
                i..=i,
                (leaves.into_iter().map(|leaf| (leaf, None)))
                    .chain(right_then_left.map(|kid| (kid, next))),
            );
        }

        // Fan the subtrees out; each worker runs the sequential grouping
        // on its own part of the buffer.
        let mut tasks = subtrees(&pieces);
        tasks.sort_by_key(|(_, range, _)| range.start);
        let mut grouped = vec![Vec::new(); pieces.len()];
        std::thread::scope(|scope| {
            let (mut rest, mut rest_start) = (s, 0);
            let workers: Vec<_> = tasks
                .into_iter()
                .map(|(i, range, axis)| {
                    let (_, tail) =
                        std::mem::take(&mut rest).split_at_mut(range.start - rest_start);
                    let (mine, tail) = tail.split_at_mut(range.len());
                    (rest, rest_start) = (tail, range.end);
                    (i, scope.spawn(move || leaf_ranges(mine, axis, shape)))
                })
                .collect();
            for (i, worker) in workers {
                grouped[i] = worker.join().expect("worker panicked");
            }
        });
        let mut out = Vec::new();
        for ((range, axis), leaves) in pieces.into_iter().zip(grouped) {
            match axis {
                None => out.push(range),
                // A worker's ranges are relative to its part.
                Some(_) => out.extend(
                    leaves
                        .iter()
                        .map(|l| l.start + range.start..l.end + range.start),
                ),
            }
        }
        out
    }
}

impl<const D: usize> BulkLoader<D> for ParallelPrLoader {
    fn name(&self) -> &'static str {
        "PR(par)"
    }

    fn load(
        &self,
        dev: Arc<dyn BlockDevice>,
        params: TreeParams,
        items: Vec<Item<D>>,
    ) -> Result<RTree<D>, EmError> {
        let entries: Vec<Entry<D>> = items.into_iter().map(Entry::from_item).collect();
        self.inner.build_stages(dev, params, entries, |s, shape| {
            self.leaf_ranges_parallel(s, shape)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_em::MemDevice;
    use pr_geom::Rect;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                Item::new(Rect::xyxy(x, y, x + 0.5, y + 0.5), i)
            })
            .collect()
    }

    /// Every block of `dev`, in block order.
    fn pages(dev: &dyn BlockDevice) -> Vec<Vec<u8>> {
        (0..dev.num_blocks())
            .map(|block| {
                let mut page = vec![0u8; dev.block_size()];
                dev.read_block(block, &mut page).unwrap();
                page
            })
            .collect()
    }

    /// The parallel loader must write the sequential loader's pages —
    /// same leaf groups, same entry order, same page order — whatever the
    /// thread count.
    fn assert_equals_sequential_build<const D: usize>(items: Vec<Item<D>>, params: TreeParams) {
        let dev_a: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let seq = PrTreeLoader::default()
            .load(Arc::clone(&dev_a), params, items.clone())
            .unwrap();

        for threads in [1usize, 2, 4, 8] {
            let dev_b: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
            let par = ParallelPrLoader {
                inner: PrTreeLoader::default(),
                threads,
            }
            .load(Arc::clone(&dev_b), params, items.clone())
            .unwrap();
            par.validate().unwrap().assert_ok();
            assert_eq!(seq.height(), par.height(), "threads={threads}");
            assert_eq!(seq.root(), par.root(), "threads={threads}");
            assert!(
                pages(dev_a.as_ref()) == pages(dev_b.as_ref()),
                "D={D} threads={threads}: parallel grouping diverged"
            );
        }
    }

    #[test]
    fn parallel_build_equals_sequential_build() {
        assert_equals_sequential_build(random_items(20_000, 3), TreeParams::with_cap::<2>(16));
    }

    #[test]
    fn parallel_build_equals_sequential_build_3d() {
        let mut rng = SmallRng::seed_from_u64(6);
        let boxes: Vec<Item<3>> = (0..12_000)
            .map(|i| {
                let p: [f64; 3] = std::array::from_fn(|_| rng.gen_range(0.0..10.0));
                Item::new(Rect::new(p, p.map(|c| c + rng.gen_range(0.0..0.3))), i)
            })
            .collect();
        assert_equals_sequential_build(boxes, TreeParams::with_cap::<3>(8));
    }

    #[test]
    fn small_inputs_fall_back_to_sequential() {
        let items = random_items(100, 4);
        let params = TreeParams::with_cap::<2>(16);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let t = ParallelPrLoader::default()
            .load(dev, params, items)
            .unwrap();
        t.validate().unwrap().assert_ok();
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn queries_correct_after_parallel_build() {
        let items = random_items(8_000, 9);
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let t = ParallelPrLoader {
            inner: PrTreeLoader::default(),
            threads: 4,
        }
        .load(dev, params, items.clone())
        .unwrap();
        let q = Rect::xyxy(20.0, 20.0, 60.0, 40.0);
        let mut got: Vec<u32> = t.window(&q).unwrap().iter().map(|i| i.id).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = items
            .iter()
            .filter(|i| i.rect.intersects(&q))
            .map(|i| i.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
