//! Tree parameters: page size, fanout, fill factors.

use crate::entry::Entry;
use crate::page::PAGE_HEADER_SIZE;
use pr_em::Record;

/// Static configuration of an R-tree.
///
/// `leaf_cap` is the paper's `B` (rectangles per leaf); `node_cap` is the
/// internal fanout. With the paper's 4KB pages and 36-byte entries both
/// are 113 (§3.1). Tests use tiny capacities to force deep trees on small
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeParams {
    /// Page (disk block) size in bytes.
    pub page_size: usize,
    /// Maximum entries in a leaf (`B`).
    pub leaf_cap: usize,
    /// Maximum children of an internal node.
    pub node_cap: usize,
    /// Minimum fill for dynamically maintained nodes, as a percentage of
    /// capacity (Guttman's `m`; 40% is the classic choice). Bulk loaders
    /// ignore it.
    pub min_fill_percent: u32,
}

impl TreeParams {
    /// Parameters derived from a page size: capacity is however many
    /// entries fit after the header.
    ///
    /// # Panics
    /// Panics if fewer than 2 entries fit in a page.
    pub fn for_page_size<const D: usize>(page_size: usize) -> Self {
        let cap = (page_size - PAGE_HEADER_SIZE) / Entry::<D>::SIZE;
        assert!(cap >= 2, "page size {page_size} too small for D={D}");
        TreeParams {
            page_size,
            leaf_cap: cap,
            node_cap: cap,
            min_fill_percent: 40,
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
            node_cap: cap,
            min_fill_percent: 40,
        }
    }

    /// Capacity at a given level (level 0 = leaves).
    pub fn cap_at_level(&self, level: u8) -> usize {
        if level == 0 {
            self.leaf_cap
        } else {
            self.node_cap
        }
    }

    /// Guttman's minimum entries for a non-root node at `level`.
    pub fn min_fill(&self, level: u8) -> usize {
        (self.cap_at_level(level) * self.min_fill_percent as usize / 100).max(1)
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
        assert_eq!(p.node_cap, 113);
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
        assert_eq!(p.min_fill(0), 4);
        assert_eq!(p.min_fill(1), 4);
        // Never zero, even for tiny capacities.
        let tiny = TreeParams::with_cap::<2>(2);
        assert_eq!(tiny.min_fill(0), 1);
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
