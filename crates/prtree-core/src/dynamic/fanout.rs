//! The LPR-tree's read fan-out, written once.
//!
//! An LPR-tree in either frontend — the in-memory
//! [`LprTree`](crate::dynamic::LprTree) or `pr-live`'s durable index —
//! is read the same way. Its in-memory level is [`LooseItems`] whose
//! chunks are scanned only where their MBRs can matter: the fresh list
//! (`LprTree`'s buffer, `pr-live`'s memtable: resident, never
//! tombstoned), then the sealed batch if a merge has one in flight. Then
//! come the components, with one multiset
//! `TombstoneFilter` spanning the
//! sealed batch and all components. These functions are that walk; the
//! frontends own the state and pass it in (`LprTree` has no sealed batch
//! and passes `None`). The k-NN counterpart is
//! [`KnnSearch`](crate::knn::KnnSearch); the write side — slots, merge
//! plan, drain and install — is
//! [`components`](crate::dynamic::components).

use crate::dynamic::loose::LooseItems;
use crate::dynamic::tombstone::{Spent, Tombstones};
use crate::query::QueryStats;
use crate::scratch::QueryScratch;
use crate::tree::RTree;
use pr_em::EmError;
use pr_geom::{Item, Rect};

/// Window query over the whole structure into `out` (cleared first).
/// One reused [`QueryScratch`] is threaded through **every**
/// component's decode-free traversal (`RTree::window_append_into`), so
/// a hot loop allocates nothing in steady state despite the logarithmic
/// fan-out. Loose chunks are main-memory resident and cost no I/O; only
/// those whose MBR meets `query` are scanned
/// ([`QueryStats::loose_chunks`]).
pub fn window_into<'a, const D: usize>(
    fresh: &LooseItems<D>,
    sealed: Option<&LooseItems<D>>,
    components: impl Iterator<Item = &'a RTree<D>>,
    tombstones: &Tombstones<D>,
    query: &Rect<D>,
    scratch: &mut QueryScratch<D>,
    out: &mut Vec<Item<D>>,
) -> Result<QueryStats, EmError> {
    out.clear();
    let mut stats = QueryStats::default();
    stats.loose_chunks += fresh.collect_intersecting(query, out);
    // The filter borrows the scratch's consumption map while each
    // traversal borrows the rest of it, so the map is lent out and
    // returned.
    let mut spent = std::mem::take(&mut scratch.spent);
    let mut filter = tombstones.filter(&mut spent);
    if let Some(sealed) = sealed {
        let start = out.len();
        stats.loose_chunks += sealed.collect_intersecting(query, out);
        filter.retain_admitted(out, start);
    }
    let walk = components.into_iter().try_for_each(|c| {
        let start = out.len();
        let s = c.window_append_into(query, scratch, out)?;
        stats.add_traversal(&s);
        filter.retain_admitted(out, start);
        Ok::<(), EmError>(())
    });
    scratch.spent = spent;
    walk?;
    stats.results = out.len() as u64;
    Ok(stats)
}

/// All live items (test helper; costs a full scan).
pub fn items<'a, const D: usize>(
    fresh: &LooseItems<D>,
    sealed: Option<&LooseItems<D>>,
    components: impl Iterator<Item = &'a RTree<D>>,
    tombstones: &Tombstones<D>,
) -> Result<Vec<Item<D>>, EmError> {
    let mut stored = sealed.map_or_else(Vec::new, LooseItems::to_vec);
    for c in components {
        stored.extend(c.items()?);
    }
    let mut spent = Spent::new();
    let mut filter = tombstones.filter(&mut spent);
    stored.retain(|it| filter.admit(it));
    let mut out = fresh.to_vec();
    out.append(&mut stored);
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
/// tombstoned.) The count is the sealed batch's copies (only chunks
/// whose MBR contains `item.rect` are scanned) plus, for each
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
    sealed: Option<&LooseItems<D>>,
    components: impl Iterator<Item = &'a RTree<D>>,
    item: &Item<D>,
    build: FilterBuild,
    scratch: &mut QueryScratch<D>,
    tally: &mut ProbeTally,
) -> Result<u64, EmError> {
    let mut copies = sealed.map_or(0, |s| s.count_identical(item));
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
