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
//! [`KnnSearch`](crate::knn::KnnSearch); the write side — slots, merge
//! plan, drain and install — is
//! [`components`](crate::dynamic::components).

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

/// Whether a liveness count may build a component's missing membership
/// filter ([`RTree::may_contain`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterBuild {
    /// Build it, by one leaf scan, on the component's first probe.
    Lazy,
    /// Search a component that has none instead. For counts taken under
    /// a lock that writers wait on: the scan is left to a later probe
    /// that runs off the lock.
    Never,
}

/// Components a liveness count searched (the filter admitted the victim)
/// and skipped (the filter proved that no copy is stored there).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeTally {
    /// Components whose exact-match descent ran.
    pub searched: u64,
    /// Components whose membership filter rejected the victim.
    pub skipped: u64,
}

/// The **one** implementation of the stored-copies count behind every
/// copies-vs-tombstones liveness decision. The item is live iff more
/// copies are stored than tombstoned. (An id-only check would wrongly
/// reject deleting a *reinserted* item whose earlier incarnation was
/// tombstoned.) The count is the sealed batch's copies plus, for each
/// component:
/// * nothing, if its membership filter ([`RTree::may_contain`]) rejects
///   `item`. A filter has no false negatives, so such a component holds
///   no copy. Under [`FilterBuild::Lazy`] a missing filter is built by
///   one leaf scan; under [`FilterBuild::Never`] the component is
///   searched without one.
/// * one exact-match descent ([`RTree::count_exact`]) otherwise, which
///   opens only the children whose boxes cover `item.rect`.
///
/// A victim therefore costs about one root-to-leaf descent of the
/// component that holds it, plus a hash per component that does not.
/// `tally` gains the components searched and skipped. The function is
/// parameterized over the structure, so `pr-live`'s delete path runs
/// it against a *pinned* (off-lock) structure while its WAL replay runs
/// it against the current one, and [`LprTree`](crate::dynamic::LprTree)
/// against its own.
pub fn count_stored_copies<'a, const D: usize>(
    sealed: Option<&[Item<D>]>,
    components: impl Iterator<Item = &'a RTree<D>>,
    item: &Item<D>,
    build: FilterBuild,
    scratch: &mut QueryScratch<D>,
    tally: &mut ProbeTally,
) -> Result<u64, EmError> {
    let mut copies = 0u64;
    if let Some(sealed) = sealed {
        copies += sealed.iter().filter(|i| same_identity(i, item)).count() as u64;
    }
    for c in components {
        let admitted = match build {
            FilterBuild::Lazy => c.may_contain(item, scratch)?,
            FilterBuild::Never => c.filter_admits(item) != Some(false),
        };
        if !admitted {
            tally.skipped += 1;
            continue;
        }
        tally.searched += 1;
        copies += c.count_exact(item, scratch)?.results;
    }
    Ok(copies)
}
