//! The tree-writing rules every bulk loader shares.
//!
//! Loaders differ in how they *group* rectangles into nodes; once groups
//! exist, the rest is the same, and each rule lives here once:
//!
//! * **Node write** (`LevelWriter::append`): encode a group as one
//!   node page and return its parent entry (group MBR + page id). Every
//!   page a loader writes goes through it: the level loops below, the
//!   external PR-tree's stages and both TGS loaders' nodes.
//! * **Root rule** (`attach_root`): once a level's entries fit one
//!   node, a single entry above the leaves is the root itself; else the
//!   entries are written as the root node.
//! * **Level loop**, in memory (`stack_levels`): group level 0, then
//!   each level above, until the entries fit one node. The PR-tree
//!   groups a level with the kd kernel, STR by tiling, the packed
//!   Hilbert loaders by cutting their sorted order into full nodes (the
//!   "packed" construction of Kamel–Faloutsos and
//!   Roussopoulos–Leifker, `build_packed`).
//! * **Level loop** on streams (`stack_stream_levels`): the same loop
//!   over entry streams, except that it tests a level before it stages
//!   it, so it can start at any level. The external PR-tree hands it its
//!   input at level 0; the external Hilbert loaders pack their leaves
//!   off their sort and hand it the parents at level 1, packing each
//!   level above with the streaming packer, `pack_stream`.
//!
//! TGS builds top-down instead, so it uses only the node writer; its own
//! shared rules are in [`crate::bulk::tgs`].

use crate::entry::Entry;
use crate::page::encode_node;
use crate::params::TreeParams;
use crate::tree::RTree;
use pr_em::{BlockDevice, BlockId, EmError, Stream, StreamWriter};
use std::ops::Range;
use std::sync::Arc;

/// Converts a device page id into the 32-bit pointer an [`Entry`] can
/// hold. A device past 2^32 pages (16TB at 4KB blocks) surfaces as
/// [`EmError::PageIdOverflow`] instead of a truncated pointer or a
/// process abort; every loader and dynamic update funnels through this.
pub fn page_ptr(page: BlockId) -> Result<u32, EmError> {
    u32::try_from(page).map_err(|_| EmError::PageIdOverflow { page })
}

/// Appends the node pages of one tree level, encoded through a single
/// page-sized buffer.
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

/// The root rule: `entries` fit one node at `level`. A single entry
/// above the leaves points at the root itself; otherwise the entries
/// are written as the root node. `len` is the number of items.
pub(crate) fn attach_root<const D: usize>(
    dev: Arc<dyn BlockDevice>,
    params: TreeParams,
    entries: &[Entry<D>],
    level: u8,
    len: u64,
) -> Result<RTree<D>, EmError> {
    debug_assert!(entries.len() <= params.leaf_cap);
    if entries.len() == 1 && level > 0 {
        let root = entries[0].ptr as u64;
        return Ok(RTree::attach(dev, params, root, level - 1, len));
    }
    let root = LevelWriter::new(dev.as_ref(), level).append(entries)?.ptr as u64;
    Ok(RTree::attach(dev, params, root, level, len))
}

/// The in-memory level loop. `group(entries, cap)` orders one level's
/// entries in place and returns its nodes of at most `cap` entries as
/// ranges of them; each becomes a page, and the parent entries are the
/// next level's. Level 0 is always grouped, the levels above only while
/// they hold more than a node; then the root rule finishes the tree.
pub(crate) fn stack_levels<const D: usize>(
    dev: Arc<dyn BlockDevice>,
    params: TreeParams,
    mut entries: Vec<Entry<D>>,
    mut group: impl FnMut(&mut [Entry<D>], usize) -> Vec<Range<usize>>,
) -> Result<RTree<D>, EmError> {
    if entries.is_empty() {
        return RTree::new_empty(dev, params);
    }
    let len = entries.len() as u64;
    let mut level = 0u8;
    loop {
        let groups = group(&mut entries, params.leaf_cap);
        let mut pages = LevelWriter::new(dev.as_ref(), level);
        let mut parents = Vec::with_capacity(groups.len());
        for g in groups {
            parents.push(pages.append(&entries[g])?);
        }
        entries = parents;
        level = level
            .checked_add(1)
            .expect("tree height exceeds 255 levels");
        if entries.len() <= params.leaf_cap {
            return attach_root(dev, params, &entries, level, len);
        }
    }
}

/// Consecutive nodes of at most `cap` over `n` entries in their order.
pub(crate) fn chunks(n: usize, cap: usize) -> Vec<Range<usize>> {
    (0..n).step_by(cap).map(|i| i..n.min(i + cap)).collect()
}

/// The packed construction: `leaf_entries`, in their final order, cut
/// into full nodes at every level.
pub(crate) fn build_packed<const D: usize>(
    dev: Arc<dyn BlockDevice>,
    params: TreeParams,
    leaf_entries: Vec<Entry<D>>,
) -> Result<RTree<D>, EmError> {
    stack_levels(dev, params, leaf_entries, |e, cap| chunks(e.len(), cap))
}

/// The streaming level loop: `entries` holds the entries of `level`.
/// While a level holds more than a node, `stage(dev, entries, level,
/// cap)` writes its pages and returns the stream of their parent
/// entries, the next level's; then the root rule finishes the tree.
/// Streams the loop made are discarded as it goes; `entries` is the
/// caller's.
pub(crate) fn stack_stream_levels<const D: usize>(
    dev: Arc<dyn BlockDevice>,
    params: TreeParams,
    entries: &Stream,
    mut level: u8,
    len: u64,
    mut stage: impl FnMut(&dyn BlockDevice, &Stream, u8, usize) -> Result<Stream, EmError>,
) -> Result<RTree<D>, EmError> {
    let cap = params.leaf_cap;
    let mut made: Option<Stream> = None;
    loop {
        let current = made.as_ref().unwrap_or(entries);
        if current.len() <= cap as u64 {
            let root = current.read_all::<Entry<D>>(dev.as_ref())?;
            let tree = attach_root(Arc::clone(&dev), params, &root, level, len);
            if let Some(s) = made {
                s.discard(dev.as_ref());
            }
            return tree;
        }
        let next = stage(dev.as_ref(), current, level, cap)?;
        if let Some(s) = made.replace(next) {
            s.discard(dev.as_ref());
        }
        level = level.checked_add(1).expect("tree height exceeds 255");
    }
}

/// The streaming packer: cuts the entries `next` yields into nodes of
/// `cap` at `level` and returns the stream of their parent entries.
pub(crate) fn pack_stream<const D: usize>(
    dev: &dyn BlockDevice,
    level: u8,
    cap: usize,
    mut next: impl FnMut() -> Result<Option<Entry<D>>, EmError>,
) -> Result<Stream, EmError> {
    let mut pages = LevelWriter::new(dev, level);
    let mut parents = StreamWriter::<Entry<D>>::new(dev);
    let mut group = Vec::with_capacity(cap);
    while let Some(e) = next()? {
        group.push(e);
        if group.len() == cap {
            parents.push(&pages.append(&group)?)?;
            group.clear();
        }
    }
    if !group.is_empty() {
        parents.push(&pages.append(&group)?)?;
    }
    parents.finish()
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
        let t = build_packed(dev, TreeParams::with_cap::<2>(8), entries(5)).unwrap();
        assert_eq!(t.height(), 1);
        assert_eq!(t.len(), 5);
        assert_eq!(t.items().unwrap().len(), 5);
    }

    #[test]
    fn empty_input_builds_empty_tree() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let t = build_packed::<2>(dev, TreeParams::with_cap::<2>(8), vec![]).unwrap();
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
        let t = build_packed(dev, params, entries(100)).unwrap();
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
        let t = build_packed(dev, params, entries(4)).unwrap();
        assert_eq!(t.height(), 1);
        // cap + 1: two leaves + root.
        let dev2: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let t2 = build_packed(dev2, params, entries(5)).unwrap();
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
            all.iter().map(|&i| Entry::from_item(i)).collect(),
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
        let mut pages = LevelWriter::new(&dev, 0);
        let all = entries(10);
        let parents: Vec<_> = chunks(all.len(), 3)
            .into_iter()
            .map(|g| pages.append(&all[g]).unwrap())
            .collect();
        assert_eq!(parents.len(), 4); // 3+3+3+1
        assert_eq!(parents[0].rect, Rect::xyxy(0.0, 0.0, 2.5, 1.0));
        assert_eq!(parents[3].rect, Rect::xyxy(9.0, 0.0, 9.5, 1.0));
    }
}
