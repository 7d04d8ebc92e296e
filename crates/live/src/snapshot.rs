//! [`LiveSnapshot`]: the point-in-time read path.

use crate::error::LiveError;
use crate::index::LiveIndex;
use pr_geom::{Item, Point, Rect};
use pr_tree::dynamic::fanout;
use pr_tree::dynamic::{LooseItems, Tombstones};
use pr_tree::{KnnSearch, QueryScratch, QueryStats, RTree};
use std::sync::Arc;

impl<const D: usize> LiveIndex<D> {
    /// An epoch-pinned, point-in-time view for querying. Cheap: `Arc`
    /// bumps only, one per memtable chunk and component; no item is
    /// copied. The snapshot stays valid and immutable across any amount
    /// of concurrent ingest, merging, and compaction: a later append or
    /// delete copies the one memtable chunk it changes.
    pub fn snapshot(&self) -> LiveSnapshot<D> {
        let core = self.inner.core.read();
        LiveSnapshot {
            memtable: core.memtable.clone(),
            sealed: core.sealed.clone(),
            components: core.components.iter().map(|(t, _)| Arc::clone(t)).collect(),
            tombstones: Arc::clone(&core.tombstones),
            live: core.live,
            seq: core.durable_seq,
        }
    }

    /// One-shot window query (takes a fresh snapshot; hot loops should
    /// hold a [`LiveSnapshot`] and a [`QueryScratch`] instead).
    pub fn window(&self, query: &Rect<D>) -> Result<(Vec<Item<D>>, QueryStats), LiveError> {
        let snap = self.snapshot();
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let stats = snap.window_into(query, &mut scratch, &mut out)?;
        Ok((out, stats))
    }

    /// One-shot k-nearest-neighbors query.
    pub fn nearest_neighbors(
        &self,
        query: &Point<D>,
        k: usize,
    ) -> Result<(Vec<(Item<D>, f64)>, QueryStats), LiveError> {
        let snap = self.snapshot();
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let stats = snap.nearest_neighbors_into(query, k, &mut scratch, &mut out)?;
        Ok((out, stats))
    }
}

/// An immutable, point-in-time view of a [`LiveIndex`].
///
/// Queries fan out over the memtable's chunks, the sealed batch's (if a
/// merge is in flight), and every component through the decode-free
/// engine — one shared [`QueryScratch`] across all of them — with
/// tombstones filtered by multiset subtraction. Holding a snapshot pins
/// its memtable chunks and its components' store pages; results are
/// bit-stable no matter what the live index does meanwhile.
pub struct LiveSnapshot<const D: usize> {
    memtable: LooseItems<D>,
    sealed: Option<Arc<LooseItems<D>>>,
    components: Vec<Arc<RTree<D>>>,
    tombstones: Arc<Tombstones<D>>,
    live: u64,
    seq: u64,
}

impl<const D: usize> LiveSnapshot<D> {
    /// Live item count at snapshot time.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// True when the snapshot holds no live items.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Highest acknowledged WAL sequence reflected in this snapshot.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of components in view.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// The components in view (read-only, test harness).
    #[doc(hidden)]
    pub fn components(&self) -> impl Iterator<Item = &RTree<D>> {
        self.components.iter().map(|c| c.as_ref())
    }

    /// Loose chunks in view: the memtable's and the sealed batch's.
    pub fn loose_chunks(&self) -> usize {
        self.memtable.chunks().len() + self.sealed.as_ref().map_or(0, |s| s.chunks().len())
    }

    /// Window query with caller-owned buffers (allocation-free when
    /// reused).
    pub fn window_into(
        &self,
        query: &Rect<D>,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<Item<D>>,
    ) -> Result<QueryStats, LiveError> {
        let t0 = std::time::Instant::now();
        let stats = fanout::window_into(
            &self.memtable,
            self.sealed.as_deref(),
            self.components.iter().map(|c| c.as_ref()),
            &self.tombstones,
            query,
            scratch,
            out,
        )?;
        crate::obs::metrics()
            .window_query_us
            .record_duration_us(t0.elapsed());
        Ok(stats)
    }

    /// Convenience window query.
    pub fn window(&self, query: &Rect<D>) -> Result<Vec<Item<D>>, LiveError> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.window_into(query, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// k-nearest-neighbors with caller-owned buffers: one
    /// [`KnnSearch`] over the whole snapshot. The memtable's and the
    /// sealed batch's chunks enter the frontier beside the components'
    /// roots, each keyed by its MBR's distance, so a chunk is scanned
    /// only when the k-th-distance bound admits it, like a leaf. The
    /// memtable is never tombstoned. One
    /// `TombstoneFilter` spans the
    /// sealed batch and every component and is asked only about items that
    /// would otherwise be kept, which keeps the multiset subtraction
    /// exact (see `pr_tree::knn` for the argument) and costs no
    /// over-fetch as tombstones approach the compaction trigger.
    pub fn nearest_neighbors_into(
        &self,
        query: &Point<D>,
        k: usize,
        scratch: &mut QueryScratch<D>,
        out: &mut Vec<(Item<D>, f64)>,
    ) -> Result<QueryStats, LiveError> {
        let t0 = std::time::Instant::now();
        let stats = KnnSearch::new(query, k, scratch).run(
            self.components.len(),
            |c| Some(&*self.components[c]),
            &self.memtable,
            self.sealed.as_deref(),
            &self.tombstones,
            out,
        )?;
        crate::obs::metrics()
            .knn_query_us
            .record_duration_us(t0.elapsed());
        Ok(stats)
    }

    /// All live items (test helper; full scan).
    pub fn items(&self) -> Result<Vec<Item<D>>, LiveError> {
        Ok(fanout::items(
            &self.memtable,
            self.sealed.as_deref(),
            self.components.iter().map(|c| c.as_ref()),
            &self.tombstones,
        )?)
    }
}
