//! Workload generators for the PR-tree experiments (§3.2 of the paper).
//!
//! Every generator is deterministic in its seed, so experiments are
//! reproducible bit-for-bit. The datasets:
//!
//! * [`synthetic::uniform_points`] — uniform point rectangles.
//! * [`synthetic::size_dataset`] — SIZE(max_side): uniform centers,
//!   independently uniform side lengths; probes sensitivity to rectangle
//!   *size*.
//! * [`synthetic::aspect_dataset`] — ASPECT(a): fixed-area rectangles of
//!   aspect ratio `a`; probes sensitivity to *elongation*.
//! * [`synthetic::skewed_dataset`] — SKEWED(c): uniform points squeezed
//!   by `y ↦ y^c`; probes sensitivity to coordinate distribution.
//! * [`synthetic::cluster_dataset`] — CLUSTER: thousands of tight point
//!   clusters on a horizontal line; the paper's worst-case-style stress
//!   test (Table 1).
//! * [`worst_case::worst_case_grid`] — the Theorem-3 shifted grid
//!   (Halton–Hammersley columns) on which H, H4 and TGS all visit
//!   `Θ(N/B)` leaves for an empty query.
//! * [`tiger::TigerProfile`] — TIGER/Line-like road networks: the
//!   census CDs are not available here, and the paper's analysis rests
//!   only on their distribution (small, mildly clustered rectangles),
//!   which the generator reproduces.
//! * [`queries`] — the matching query workloads (squares by area
//!   fraction, skew-transformed squares, CLUSTER strips, Theorem-3
//!   lines).

#![forbid(unsafe_code)]

pub mod queries;
pub mod synthetic;
pub mod tiger;
pub mod worst_case;

pub use synthetic::{
    aspect_dataset, cluster_dataset, size_dataset, skewed_dataset, uniform_points,
};
pub use tiger::TigerProfile;
pub use worst_case::worst_case_grid;
