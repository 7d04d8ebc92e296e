//! Dynamic maintenance of R-trees.
//!
//! Two roads to a dynamic PR-tree, both discussed in the paper:
//!
//! * `update` — classic Guttman heuristics (insert via ChooseLeaf and
//!   the quadratic split, delete via CondenseTree). Work on any tree
//!   produced by any loader, but void the PR-tree's worst-case query
//!   guarantee (§4).
//! * `logarithmic` — the **LPR-tree**: the external logarithmic method
//!   over bulk-loaded PR-tree components, which keeps the query bound at
//!   the price of a logarithmic component fan-out (§1.2).

pub mod components;
pub mod fanout;
pub(crate) mod logarithmic;
pub(crate) mod loose;
pub(crate) mod membership;
mod policy;
pub mod tombstone;
pub(crate) mod update;

pub use components::{Component, ComponentSet, MergePlan};
pub use logarithmic::LprTree;
pub use loose::{Chunk, LooseItems};
pub use tombstone::{same_identity, TombstoneKey, Tombstones};
