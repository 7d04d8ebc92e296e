//! Experiment harness for the PR-tree reproduction.
//!
//! One function per table/figure of the paper (module [`experiments`]),
//! each returning a [`table::Table`] whose rows mirror the paper's
//! presentation. The `experiments` binary runs them from the command
//! line:
//!
//! ```text
//! cargo run -p pr-bench --release --bin experiments -- all --scale small
//! cargo run -p pr-bench --release --bin experiments -- fig12 table1 thm3
//! ```
//!
//! Scales (see [`scale::Scale`]) shrink the paper's 10–17M-rectangle
//! datasets to laptop sizes while keeping every *shape* the paper
//! reports: the metric is an I/O count, not wall time, so who wins and
//! by roughly what factor is preserved (README, "Paper fidelity").

#![forbid(unsafe_code)]

pub mod experiments;
pub(crate) mod measure;
pub(crate) mod scale;
pub mod table;

pub use scale::Scale;
pub use table::Table;
