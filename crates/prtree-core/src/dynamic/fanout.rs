//! The LPR-tree's read fan-out, written once.
//!
//! An LPR-tree in either frontend — the in-memory
//! [`LprTree`](crate::dynamic::LprTree) or `pr-live`'s durable index —
//! is read the same way: the loose items (buffer / memtable: resident,
//! never tombstoned), then the sealed batch if a merge has one in
//! flight, then every component, with one multiset
//! [`TombstoneFilter`](crate::dynamic::TombstoneFilter) spanning the
//! sealed batch and all components. These functions are that walk; the
//! frontends own the state and pass it in (`LprTree` has no sealed
//! batch and passes `None`). The k-NN counterpart is
//! [`KnnSearch`](crate::knn::KnnSearch).

use crate::dynamic::tombstone::{same_identity, Tombstones};
use crate::query::QueryStats;
use crate::scratch::QueryScratch;
use crate::tree::RTree;
use pr_em::EmError;
use pr_geom::{Item, Rect};

/// Window query over the whole structure into `out` (cleared first).
/// One reused [`QueryScratch`] is threaded through **every**
/// component's decode-free traversal ([`RTree::window_append_into`]), so
/// a hot loop allocates nothing in steady state despite the logarithmic
/// fan-out. The loose items and the sealed batch are main-memory
/// resident and cost no I/O.
pub fn window_into<'a, const D: usize>(
    loose: &[Item<D>],
    sealed: Option<&[Item<D>]>,
    components: impl Iterator<Item = &'a RTree<D>>,
    tombstones: &Tombstones<D>,
    query: &Rect<D>,
    scratch: &mut QueryScratch<D>,
    out: &mut Vec<Item<D>>,
) -> Result<QueryStats, EmError> {
    out.clear();
    out.extend(loose.iter().filter(|i| i.rect.intersects(query)));
    let mut stats = QueryStats::default();
    let mut filter = tombstones.filter();
    if let Some(sealed) = sealed {
        out.extend(
            sealed
                .iter()
                .filter(|i| i.rect.intersects(query) && filter.admit(i)),
        );
    }
    for c in components {
        let start = out.len();
        let s = c.window_append_into(query, scratch, out)?;
        stats.absorb_traversal(&s);
        filter.retain_admitted(out, start);
    }
    stats.results = out.len() as u64;
    Ok(stats)
}

/// All live items (test helper; costs a full scan).
pub fn items<'a, const D: usize>(
    loose: &[Item<D>],
    sealed: Option<&[Item<D>]>,
    components: impl Iterator<Item = &'a RTree<D>>,
    tombstones: &Tombstones<D>,
) -> Result<Vec<Item<D>>, EmError> {
    let mut out = loose.to_vec();
    let mut filter = tombstones.filter();
    if let Some(sealed) = sealed {
        out.extend(sealed.iter().filter(|i| filter.admit(i)));
    }
    for c in components {
        for it in c.items()? {
            if filter.admit(&it) {
                out.push(it);
            }
        }
    }
    Ok(out)
}

/// The **one** implementation of the stored-copies count behind every
/// copies-vs-tombstones liveness decision: sealed-batch scan plus a
/// window probe of each component for `item`'s exact bit identity. The
/// item is live iff more copies are stored than tombstoned. (An id-only
/// check would wrongly reject deleting a *reinserted* item whose
/// earlier incarnation was tombstoned.) Parameterized over the
/// structure so `pr-live`'s delete path can run it against a *pinned*
/// (off-lock) structure while its WAL replay runs it against the
/// current one.
pub fn count_stored_copies<'a, const D: usize>(
    sealed: Option<&[Item<D>]>,
    components: impl Iterator<Item = &'a RTree<D>>,
    item: &Item<D>,
    scratch: &mut QueryScratch<D>,
    hits: &mut Vec<Item<D>>,
) -> Result<u64, EmError> {
    let mut copies = 0u64;
    if let Some(sealed) = sealed {
        copies += sealed.iter().filter(|i| same_identity(i, item)).count() as u64;
    }
    for c in components {
        c.window_into(&item.rect, scratch, hits)?;
        copies += hits.iter().filter(|h| same_identity(h, item)).count() as u64;
    }
    Ok(copies)
}
