//! Level-by-level tree writing utilities shared by all bulk loaders.
//!
//! Loaders differ in how they *group* rectangles into nodes; once groups
//! exist, writing pages and deriving parent entries is identical. The
//! sort-based loaders (Hilbert, 4-D Hilbert, STR) additionally share
//! "chunk a sorted sequence into full nodes and repeat upward", which is
//! the "packed" construction of Kamel–Faloutsos and Roussopoulos–Leifker.

use crate::entry::Entry;
use crate::page::{encode_node, NodePage};
use crate::params::TreeParams;
use crate::tree::RTree;
use pr_em::{BlockDevice, BlockId, EmError};
use std::sync::Arc;

/// Converts a device page id into the 32-bit pointer an [`Entry`] can
/// hold. A device past 2^32 pages (16TB at 4KB blocks) surfaces as
/// [`EmError::PageIdOverflow`] instead of a truncated pointer or a
/// process abort; every loader and dynamic update funnels through this.
pub fn page_ptr(page: BlockId) -> Result<u32, EmError> {
    u32::try_from(page).map_err(|_| EmError::PageIdOverflow { page })
}

/// Appends the node pages of one tree level, cut out of the caller's
/// entry buffer and encoded through a single page-sized buffer.
pub(crate) struct LevelWriter<'d> {
    dev: &'d dyn BlockDevice,
    level: u8,
    page: Vec<u8>,
}

impl<'d> LevelWriter<'d> {
    /// A writer of `level` nodes on `dev`.
    pub(crate) fn new(dev: &'d dyn BlockDevice, level: u8) -> Self {
        LevelWriter {
            dev,
            level,
            page: vec![0u8; dev.block_size()],
        }
    }

    /// Writes `group` as one node on a fresh page and returns its parent
    /// entry (group MBR + page id).
    pub(crate) fn append<const D: usize>(
        &mut self,
        group: &[Entry<D>],
    ) -> Result<Entry<D>, EmError> {
        debug_assert!(!group.is_empty(), "empty node group");
        encode_node(self.level, group, &mut self.page);
        let page = self.dev.allocate(1);
        self.dev.write_block(page, &self.page)?;
        Ok(Entry::new(Entry::mbr(group), page_ptr(page)?))
    }
}

/// Writes one tree level: each group becomes a node page at `level`.
/// Returns the parent entries in group order.
pub fn write_level<'a, const D: usize>(
    dev: &dyn BlockDevice,
    level: u8,
    groups: impl IntoIterator<Item = &'a [Entry<D>]>,
) -> Result<Vec<Entry<D>>, EmError> {
    let groups = groups.into_iter();
    let mut parents = Vec::with_capacity(groups.size_hint().0);
    let mut writer = LevelWriter::new(dev, level);
    for group in groups {
        parents.push(writer.append(group)?);
    }
    Ok(parents)
}

/// Chunks `entries` (already in the desired order) into nodes of at most
/// `cap`, writing them at `level`; returns parent entries.
pub fn pack_level<const D: usize>(
    dev: &dyn BlockDevice,
    level: u8,
    entries: &[Entry<D>],
    cap: usize,
) -> Result<Vec<Entry<D>>, EmError> {
    write_level(dev, level, entries.chunks(cap))
}

/// Builds all remaining levels above `child_level` by repeated sequential
/// chunking and returns the finished tree handle.
///
/// `parents` are the entries pointing at the already-written nodes of
/// `child_level`; `len` is the total number of items in the tree.
pub fn pack_upper_levels<const D: usize>(
    dev: Arc<dyn BlockDevice>,
    params: TreeParams,
    mut parents: Vec<Entry<D>>,
    child_level: u8,
    len: u64,
) -> Result<RTree<D>, EmError> {
    assert!(!parents.is_empty(), "cannot build a tree with no leaves");
    let mut level: u8 = child_level + 1;
    while parents.len() > params.node_cap {
        parents = pack_level(dev.as_ref(), level, &parents, params.node_cap)?;
        level = level
            .checked_add(1)
            .expect("tree height exceeds 255 levels");
    }
    if parents.len() == 1 {
        // A single child: it is the root itself; no extra node needed.
        let root = parents[0].ptr as u64;
        return Ok(RTree::attach(dev, params, root, level - 1, len));
    }
    let root = NodePage::new(level, parents).append(dev.as_ref())?;
    Ok(RTree::attach(dev, params, root, level, len))
}

/// Convenience used by every sort-based loader: write `entries` (leaf
/// entries in final on-curve order) as packed leaves, then pack upward.
pub fn build_packed<const D: usize>(
    dev: Arc<dyn BlockDevice>,
    params: TreeParams,
    leaf_entries: &[Entry<D>],
) -> Result<RTree<D>, EmError> {
    if leaf_entries.is_empty() {
        return RTree::new_empty(dev, params);
    }
    let len = leaf_entries.len() as u64;
    let parents = pack_level(dev.as_ref(), 0, leaf_entries, params.leaf_cap)?;
    pack_upper_levels(dev, params, parents, 0, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::brute_force_window;
    use pr_em::MemDevice;
    use pr_geom::{Item, Rect};

    fn items(n: u32) -> Vec<Item<2>> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                Item::new(Rect::xyxy(f, 0.0, f + 0.5, 1.0), i)
            })
            .collect()
    }

    fn entries(n: u32) -> Vec<Entry<2>> {
        items(n).into_iter().map(Entry::from_item).collect()
    }

    #[test]
    fn single_leaf_tree_has_height_one() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let t = build_packed(dev, TreeParams::with_cap::<2>(8), &entries(5)).unwrap();
        assert_eq!(t.height(), 1);
        assert_eq!(t.len(), 5);
        assert_eq!(t.items().unwrap().len(), 5);
    }

    #[test]
    fn empty_input_builds_empty_tree() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let t = build_packed::<2>(dev, TreeParams::with_cap::<2>(8), &[]).unwrap();
        assert!(t.is_empty());
        assert!(t
            .window(&Rect::xyxy(0.0, 0.0, 1.0, 1.0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn multi_level_packing() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let params = TreeParams::with_cap::<2>(4);
        // 100 items, cap 4: 25 leaves, 7 L1 nodes, 2 L2 nodes, root.
        let t = build_packed(dev, params, &entries(100)).unwrap();
        assert_eq!(t.len(), 100);
        assert_eq!(t.height(), 4);
        let s = t.stats().unwrap();
        assert_eq!(s.nodes_per_level, vec![25, 7, 2, 1]);
        assert_eq!(s.entries_per_level[0], 100);
    }

    #[test]
    fn exact_capacity_boundary() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let params = TreeParams::with_cap::<2>(4);
        // Exactly cap items: single leaf root.
        let t = build_packed(dev, params, &entries(4)).unwrap();
        assert_eq!(t.height(), 1);
        // cap + 1: two leaves + root.
        let dev2: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let t2 = build_packed(dev2, params, &entries(5)).unwrap();
        assert_eq!(t2.height(), 2);
        let s = t2.stats().unwrap();
        assert_eq!(s.nodes_per_level, vec![2, 1]);
    }

    #[test]
    fn packed_tree_answers_queries_correctly() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let all = items(100);
        let t = build_packed(
            dev,
            TreeParams::with_cap::<2>(4),
            &all.iter().map(|&i| Entry::from_item(i)).collect::<Vec<_>>(),
        )
        .unwrap();
        for q in [
            Rect::xyxy(10.0, 0.0, 20.0, 1.0),
            Rect::xyxy(-3.0, 0.0, 0.1, 0.5),
            Rect::xyxy(99.9, 0.9, 120.0, 2.0),
            Rect::xyxy(200.0, 0.0, 300.0, 1.0),
        ] {
            let mut got = t.window(&q).unwrap();
            let mut want = brute_force_window(&all, &q);
            got.sort_by_key(|i| i.id);
            want.sort_by_key(|i| i.id);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn parent_mbrs_cover_children() {
        let dev = MemDevice::new(4096);
        let parents = pack_level(&dev, 0, &entries(10), 3).unwrap();
        assert_eq!(parents.len(), 4); // 3+3+3+1
        assert_eq!(parents[0].rect, Rect::xyxy(0.0, 0.0, 2.5, 1.0));
        assert_eq!(parents[3].rect, Rect::xyxy(9.0, 0.0, 9.5, 1.0));
    }
}
