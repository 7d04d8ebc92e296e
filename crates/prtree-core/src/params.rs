//! Tree parameters: page size and the one node capacity.

use crate::entry::Entry;
use crate::page::PAGE_HEADER_SIZE;
use pr_em::Record;

/// Guttman's minimum fill for dynamically maintained nodes, as a
/// percentage of the capacity (his `m`; 40 % is the classic choice).
/// Bulk loaders ignore it.
pub(crate) const MIN_FILL_PERCENT: usize = 40;

/// Static configuration of an R-tree.
///
/// A tree has one capacity, `leaf_cap`: the paper stores data
/// rectangles and bounding boxes in the same 36-byte record (§3.1), so a
/// page holds as many entries at every level — 113 with its 4KB pages.
/// It is the paper's `B` and the internal fanout alike. Tests use tiny
/// capacities to force deep trees on small inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeParams {
    /// Page (disk block) size in bytes.
    pub page_size: usize,
    /// Maximum entries in a node at any level (`B`).
    pub leaf_cap: usize,
}

impl TreeParams {
    /// Parameters derived from a page size: capacity is however many
    /// entries fit after the header.
    ///
    /// # Panics
    /// Panics if fewer than 2 entries fit in a page.
    pub(crate) fn for_page_size<const D: usize>(page_size: usize) -> Self {
        let cap = (page_size - PAGE_HEADER_SIZE) / Entry::<D>::SIZE;
        assert!(cap >= 2, "page size {page_size} too small for D={D}");
        TreeParams {
            page_size,
            leaf_cap: cap,
        }
    }

    /// The paper's exact experimental setup for 2-D data: 4KB pages,
    /// 36-byte entries, fanout 113.
    pub fn paper_2d() -> Self {
        let p = Self::for_page_size::<2>(4096);
        debug_assert_eq!(p.leaf_cap, 113, "paper reports fanout 113");
        p
    }

    /// Small explicit capacities for tests; computes the page size needed
    /// to hold `cap` entries.
    pub fn with_cap<const D: usize>(cap: usize) -> Self {
        assert!(cap >= 2, "capacity must be at least 2");
        TreeParams {
            page_size: PAGE_HEADER_SIZE + cap * Entry::<D>::SIZE,
            leaf_cap: cap,
        }
    }

    /// Guttman's minimum entries for a non-root node: 40 % of the
    /// capacity, at least 1.
    pub(crate) fn min_fill(&self) -> usize {
        (self.leaf_cap * MIN_FILL_PERCENT / 100).max(1)
    }
}

impl Default for TreeParams {
    /// Defaults to the paper's 2-D setup.
    fn default() -> Self {
        TreeParams::paper_2d()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters() {
        let p = TreeParams::paper_2d();
        assert_eq!(p.page_size, 4096);
        // §3.1: "The disk block size was chosen to be 4KB, resulting in a
        // maximum fanout of 113."
        assert_eq!(p.leaf_cap, 113);
    }

    #[test]
    fn with_cap_roundtrips_through_page_size() {
        let p = TreeParams::with_cap::<2>(8);
        assert_eq!(p.leaf_cap, 8);
        let q = TreeParams::for_page_size::<2>(p.page_size);
        assert_eq!(q.leaf_cap, 8);
    }

    #[test]
    fn min_fill_is_40_percent() {
        let p = TreeParams::with_cap::<2>(10);
        assert_eq!(p.min_fill(), 4);
        // Never zero, even for tiny capacities.
        let tiny = TreeParams::with_cap::<2>(2);
        assert_eq!(tiny.min_fill(), 1);
    }

    #[test]
    fn three_d_fanout() {
        let p = TreeParams::for_page_size::<3>(4096);
        // 52-byte entries -> (4096-16)/52 = 78.
        assert_eq!(p.leaf_cap, 78);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn absurdly_small_page_panics() {
        TreeParams::for_page_size::<2>(64);
    }
}
