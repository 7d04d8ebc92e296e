//! Bulk-loading algorithms.
//!
//! Five ways to build the same page-level [`crate::tree::RTree`]:
//!
//! | module | paper name | strategy |
//! |--------|-----------|----------|
//! | [`pr`] | PR-tree (the contribution) | bottom-up stages of pseudo-PR-trees |
//! | [`hilbert`] (centers) | packed Hilbert R-tree, "H" | sort by D-dim Hilbert value of centers, pack |
//! | [`hilbert`] (corners) | 4-D Hilbert R-tree, "H4" | sort by 2D-dim Hilbert value of corner mapping, pack |
//! | [`tgs`] | Top-down Greedy Split, "TGS" | recursive greedy binary partitions |
//! | [`str_`] | STR (extra baseline, reference 18 in the paper) | sort-tile-recursive |
//!
//! Each loader has an **in-memory** form (this module's [`BulkLoader`]
//! trait, fast, used for query experiments) and an **external-memory**
//! form in [`external`] that runs against `pr-em` streams under a memory
//! budget and whose I/O counts reproduce the paper's construction-cost
//! figures.

pub mod external;
pub mod hilbert;
pub(crate) mod kd_split;
pub mod pr;
pub mod pr_external;
pub mod str_;
pub mod tgs;
pub mod tgs_external;

use crate::params::TreeParams;
use crate::tree::RTree;
use pr_em::{BlockDevice, EmError};
use pr_geom::Item;
use std::sync::Arc;

/// A bulk-loading strategy producing a page-level R-tree.
pub trait BulkLoader<const D: usize> {
    /// Short name used in experiment tables ("PR", "H", "H4", "TGS", "STR").
    fn name(&self) -> &'static str;

    /// Builds a tree over `items` on `dev`.
    fn load(
        &self,
        dev: Arc<dyn BlockDevice>,
        params: TreeParams,
        items: Vec<Item<D>>,
    ) -> Result<RTree<D>, EmError>;
}

/// The four R-tree variants compared throughout the paper, plus STR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoaderKind {
    /// Priority R-tree (§2).
    Pr,
    /// Packed Hilbert R-tree on centers (Kamel–Faloutsos).
    Hilbert,
    /// Four-dimensional Hilbert R-tree on the corner mapping.
    Hilbert4,
    /// Top-down Greedy Split (García–López–Leutenegger).
    Tgs,
    /// Sort-Tile-Recursive (Leutenegger–López–Edgington).
    Str,
}

impl LoaderKind {
    /// All variants in the paper's presentation order (PR first, then the
    /// competitors, then the extra STR baseline).
    pub fn all() -> [LoaderKind; 5] {
        [
            LoaderKind::Pr,
            LoaderKind::Hilbert,
            LoaderKind::Hilbert4,
            LoaderKind::Tgs,
            LoaderKind::Str,
        ]
    }

    /// The four variants measured in the paper's figures.
    pub fn paper_four() -> [LoaderKind; 4] {
        [
            LoaderKind::Pr,
            LoaderKind::Hilbert,
            LoaderKind::Hilbert4,
            LoaderKind::Tgs,
        ]
    }

    /// Display name matching the paper's abbreviations.
    pub fn name(&self) -> &'static str {
        match self {
            LoaderKind::Pr => "PR",
            LoaderKind::Hilbert => "H",
            LoaderKind::Hilbert4 => "H4",
            LoaderKind::Tgs => "TGS",
            LoaderKind::Str => "STR",
        }
    }

    /// Instantiates the default in-memory loader for this kind.
    pub fn loader<const D: usize>(&self) -> Box<dyn BulkLoader<D>> {
        match self {
            LoaderKind::Pr => Box::new(pr::PrTreeLoader::default()),
            LoaderKind::Hilbert => Box::new(hilbert::HilbertLoader::centers()),
            LoaderKind::Hilbert4 => Box::new(hilbert::HilbertLoader::corners()),
            LoaderKind::Tgs => Box::new(tgs::TgsLoader),
            LoaderKind::Str => Box::new(str_::StrLoader),
        }
    }
}

/// Inputs, checks and a leaf walk the loaders' tests share.
#[cfg(test)]
pub(crate) mod testing {
    use crate::page::NodePage;
    use crate::tree::RTree;
    use pr_geom::{Item, Rect};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `n` boxes whose ids repeat mod 500. From item 500 on, every fifth
    /// one also takes the rectangle of the item 500 before it, so some
    /// records are equal in full, id and all.
    pub(crate) fn duplicate_ids(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut items: Vec<Item<2>> = (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                Item::new(Rect::xyxy(x, y, x + 1.5, y + 0.5), i % 500)
            })
            .collect();
        for i in (500..items.len()).step_by(5) {
            items[i].rect = items[i - 500].rect;
        }
        items
    }

    /// Every leaf page of `t`, depth first.
    pub(crate) fn leaves<const D: usize>(t: &RTree<D>) -> Vec<NodePage<D>> {
        let mut out = Vec::new();
        let mut stack = vec![t.root()];
        while let Some(p) = stack.pop() {
            let (node, _) = t.read_node(p).unwrap();
            if node.is_leaf() {
                out.push(node);
            } else {
                stack.extend(node.entries.iter().map(|e| e.ptr as u64));
            }
        }
        out
    }

    /// Items in a canonical order: by id, then by corner bits.
    fn canonical(mut items: Vec<Item<2>>) -> Vec<Item<2>> {
        let bits = |i: &Item<2>| {
            let r = &i.rect;
            [r.lo_at(0), r.lo_at(1), r.hi_at(0), r.hi_at(1)].map(f64::to_bits)
        };
        items.sort_by(|a, b| a.id.cmp(&b.id).then_with(|| bits(a).cmp(&bits(b))));
        items
    }

    /// `t` is valid, holds `items` as a multiset of `(rect, id)`, and
    /// answers windows as a scan of `items` does.
    pub(crate) fn assert_holds_exactly(t: &RTree<2>, items: &[Item<2>]) {
        t.validate().unwrap().assert_ok();
        let everything = Rect::xyxy(-1e9, -1e9, 1e9, 1e9);
        assert_eq!(
            canonical(t.window(&everything).unwrap()),
            canonical(items.to_vec())
        );
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..30 {
            let x: f64 = rng.gen_range(0.0..92.0);
            let y: f64 = rng.gen_range(0.0..92.0);
            let q = Rect::xyxy(x, y, x + 8.0, y + 4.0);
            assert_eq!(
                canonical(t.window(&q).unwrap()),
                canonical(crate::query::brute_force_window(items, &q))
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_abbreviations() {
        let names: Vec<_> = LoaderKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, ["PR", "H", "H4", "TGS", "STR"]);
        assert_eq!(LoaderKind::paper_four().len(), 4);
    }
}
