//! Deep structural validation.
//!
//! Every loader and every dynamic operation is checked in tests against
//! the R-tree invariants (§1.1 of the paper, Guttman's original
//! definition):
//!
//! 1. all leaves are on the same level (the tree is height-balanced),
//! 2. each internal entry's rectangle is *exactly* the minimal bounding
//!    box of its child's contents,
//! 3. node sizes respect capacity (and, for dynamic trees, minimum fill),
//! 4. the indexed item multiset is preserved.

use crate::tree::{RTree, TreeStructure};
use pr_em::{BlockId, EmError};
use pr_geom::Rect;

/// Outcome of a validation pass.
#[derive(Debug)]
pub struct ValidationReport {
    /// Structural statistics gathered during the walk.
    pub structure: TreeStructure,
    /// Human-readable invariant violations (empty = valid).
    pub errors: Vec<String>,
}

impl ValidationReport {
    /// True when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// Panics with all violations (test helper).
    pub fn assert_ok(&self) {
        assert!(
            self.is_ok(),
            "tree invariants violated:\n{}",
            self.errors.join("\n")
        );
    }
}

/// Options controlling which invariants are enforced.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ValidateOptions {
    /// Enforce Guttman's minimum fill on non-root nodes (only meaningful
    /// for dynamically maintained trees; bulk loaders may legitimately
    /// produce one underfull node per level).
    pub check_min_fill: bool,
}

impl<const D: usize> RTree<D> {
    /// Validates all invariants; see [`ValidationReport`].
    pub fn validate(&self) -> Result<ValidationReport, EmError> {
        self.validate_with(ValidateOptions::default())
    }

    /// Validates with explicit options.
    pub(crate) fn validate_with(&self, opts: ValidateOptions) -> Result<ValidationReport, EmError> {
        let mut errors = Vec::new();
        let levels = self.root_level() as usize + 1;
        let mut nodes = vec![0u64; levels];
        let mut entries = vec![0u64; levels];
        let mut item_count = 0u64;

        // (page, expected_level, expected_mbr (None for root), is_root)
        let mut stack: Vec<(BlockId, u8, Option<Rect<D>>)> =
            vec![(self.root(), self.root_level(), None)];
        while let Some((page, expect_level, expect_mbr)) = stack.pop() {
            let (node, _) = self.read_node(page)?;
            if node.level != expect_level {
                errors.push(format!(
                    "page {page}: level {} but expected {expect_level} (leaves not balanced)",
                    node.level
                ));
                continue;
            }
            let l = node.level as usize;
            nodes[l] += 1;
            entries[l] += node.len() as u64;

            let cap = self.params().leaf_cap;
            if node.len() > cap {
                errors.push(format!(
                    "page {page}: {} entries exceed capacity {cap}",
                    node.len()
                ));
            }
            let is_root = page == self.root();
            if node.is_empty() && !(is_root && self.is_empty()) {
                errors.push(format!("page {page}: empty node"));
            }
            if opts.check_min_fill && !is_root {
                let min = self.params().min_fill();
                if node.len() < min {
                    errors.push(format!(
                        "page {page}: {} entries below minimum fill {min}",
                        node.len()
                    ));
                }
            }
            if let Some(expect) = expect_mbr {
                let actual = node.mbr();
                if actual != expect {
                    errors.push(format!(
                        "page {page}: parent stores {expect:?} but child MBR is {actual:?}"
                    ));
                }
            }
            if node.is_leaf() {
                item_count += node.len() as u64;
                for e in &node.entries {
                    if !e.rect.is_valid() {
                        errors.push(format!("page {page}: invalid item rect {:?}", e.rect));
                    }
                }
            } else {
                for e in &node.entries {
                    stack.push((e.ptr as BlockId, node.level - 1, Some(e.rect)));
                }
            }
        }

        if item_count != self.len() {
            errors.push(format!(
                "tree says len = {} but leaves hold {item_count} items",
                self.len()
            ));
        }

        Ok(ValidationReport {
            structure: TreeStructure {
                nodes_per_level: nodes,
                entries_per_level: entries,
                leaf_cap: self.params().leaf_cap,
            },
            errors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;
    use crate::page::NodePage;
    use crate::params::TreeParams;
    use crate::writer::build_packed;
    use pr_em::{BlockDevice, MemDevice};
    use pr_geom::Item;
    use std::sync::Arc;

    fn entries(n: u32) -> Vec<Entry<2>> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                Entry::from_item(Item::new(Rect::xyxy(f, 0.0, f + 0.5, 1.0), i))
            })
            .collect()
    }

    #[test]
    fn packed_tree_is_valid() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let t = build_packed(dev, TreeParams::with_cap::<2>(4), entries(50)).unwrap();
        let report = t.validate().unwrap();
        report.assert_ok();
        assert_eq!(report.structure.entries_per_level[0], 50);
    }

    #[test]
    fn detects_wrong_parent_mbr() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let leaf = NodePage::new(0, entries(2)).append(dev.as_ref()).unwrap();
        // Parent stores a deliberately wrong (too large) bounding box.
        let root = NodePage::new(
            1,
            vec![Entry::new(
                Rect::xyxy(-10.0, -10.0, 10.0, 10.0),
                leaf as u32,
            )],
        )
        .append(dev.as_ref())
        .unwrap();
        let t = RTree::<2>::attach(dev, TreeParams::with_cap::<2>(4), root, 1, 2);
        let report = t.validate().unwrap();
        assert!(!report.is_ok());
        assert!(report.errors[0].contains("MBR"));
    }

    #[test]
    fn detects_wrong_len() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let leaf = NodePage::new(0, entries(3)).append(dev.as_ref()).unwrap();
        let t = RTree::<2>::attach(dev, TreeParams::with_cap::<2>(4), leaf, 0, 99);
        let report = t.validate().unwrap();
        assert!(report.errors.iter().any(|e| e.contains("len")));
    }

    #[test]
    fn detects_unbalanced_leaves() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let deep_leaf = NodePage::new(0, entries(1)).append(dev.as_ref()).unwrap();
        let mid = NodePage::new(
            1,
            vec![Entry::new(Rect::xyxy(0.0, 0.0, 0.5, 1.0), deep_leaf as u32)],
        )
        .append(dev.as_ref())
        .unwrap();
        let shallow_leaf = NodePage::new(0, entries(1)).append(dev.as_ref()).unwrap();
        // Root at level 2 pointing at a level-1 node and (wrongly) a leaf.
        let root = NodePage::new(
            2,
            vec![
                Entry::new(Rect::xyxy(0.0, 0.0, 0.5, 1.0), mid as u32),
                Entry::new(Rect::xyxy(0.0, 0.0, 0.5, 1.0), shallow_leaf as u32),
            ],
        )
        .append(dev.as_ref())
        .unwrap();
        let t = RTree::<2>::attach(dev, TreeParams::with_cap::<2>(4), root, 2, 2);
        let report = t.validate().unwrap();
        assert!(report.errors.iter().any(|e| e.contains("balanced")));
    }

    #[test]
    fn min_fill_only_checked_when_asked() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let params = TreeParams::with_cap::<2>(10); // min fill 4
        let l0 = NodePage::new(0, entries(1)).append(dev.as_ref()).unwrap();
        let l1 = NodePage::new(0, entries(10)).append(dev.as_ref()).unwrap();
        let parents = vec![
            Entry::new(Rect::xyxy(0.0, 0.0, 0.5, 1.0), l0 as u32),
            Entry::new(Rect::xyxy(0.0, 0.0, 9.5, 1.0), l1 as u32),
        ];
        let root = NodePage::new(1, parents).append(dev.as_ref()).unwrap();
        let t = RTree::<2>::attach(dev, params, root, 1, 11);
        assert!(t.validate().unwrap().is_ok());
        let strict = t
            .validate_with(ValidateOptions {
                check_min_fill: true,
            })
            .unwrap();
        assert!(strict.errors.iter().any(|e| e.contains("minimum fill")));
    }

    #[test]
    fn empty_tree_is_valid() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(4096));
        let t = RTree::<2>::new_empty(dev, TreeParams::with_cap::<2>(4)).unwrap();
        t.validate().unwrap().assert_ok();
    }
}
