//! Geometry kernel for the PR-tree reproduction.
//!
//! Everything in the paper operates on axis-parallel `d`-dimensional
//! (hyper-)rectangles. This crate provides:
//!
//! * [`Point<D>`] and [`Rect<D>`] with the predicates and measures every
//!   R-tree variant needs (intersection, containment, area, margin,
//!   enlargement, minimal bounding boxes),
//! * the *corner mapping* `R ↦ R*` of a `D`-dimensional rectangle to a
//!   `2D`-dimensional point (`(xmin, ymin, xmax, ymax)` in the plane), which
//!   is the heart of both the pseudo-PR-tree and the four-dimensional
//!   Hilbert R-tree — see [`mapped`],
//! * [`Item<D>`]: a rectangle tagged with a `u32` payload id, the
//!   paper's input record (its bytes are `pr_tree::Entry`'s to encode),
//! * [`batch`]: structure-of-arrays predicate kernels
//!   (intersection and cover masks, batched point-to-rectangle
//!   distances) over per-dimension coordinate columns — the vectorized
//!   heart of the decode-free query engine, proven bit-identical to the
//!   scalar [`Rect`] predicates by property tests.
//!
//! Coordinates are `f64`. The paper assumes all defining coordinates are
//! distinct; real datasets are not that polite, so all orderings exposed
//! here break ties by item id (see [`mapped::cmp_items_on_axis`]), making
//! every ordering total and deterministic.

#![forbid(unsafe_code)]

pub mod batch;
pub(crate) mod item;
pub mod mapped;
pub(crate) mod point;
pub(crate) mod rect;

pub use item::Item;
pub use mapped::Axis;
pub use point::Point;
pub use rect::Rect;
