//! Experiment scales.
//!
//! The paper runs on a 2004 workstation with N up to 16.7M rectangles
//! and 64MB of TPIE memory (so `N/M ≈ 9` records). Scales here shrink
//! `N` but keep the `N/M` ratio, so the external algorithms perform the
//! same *number of passes* as in the paper and construction-cost ratios
//! carry over.

/// How big the experiment inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-quick: every experiment in a few minutes.
    Small,
    /// ~4× Small; closer statistics, minutes-to-tens-of-minutes.
    Medium,
    /// The paper's sizes (10M+ rectangles). Hours. A build peaks at
    /// about twice its input bytes — ≈ 1.4 GB at 16.7M entries.
    Full,
}

impl Scale {
    /// Parses `small` / `medium` / `full`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Eastern TIGER-like dataset size (paper: 16.7M; Small = paper/10).
    ///
    /// Sizes below ~1M make the relative-cost metric of Figs. 12–15
    /// meaningless: with only tens of output blocks per query, boundary
    /// leaves dominate and every variant looks "slow". One tenth of the
    /// paper's N keeps output sizes in the hundreds of blocks.
    pub(crate) fn n_eastern(&self) -> u32 {
        match self {
            Scale::Small => 1_670_000,
            Scale::Medium => 4_175_000,
            Scale::Full => 16_700_000,
        }
    }

    /// Western TIGER-like dataset size (paper: 12M).
    pub(crate) fn n_western(&self) -> u32 {
        match self {
            Scale::Small => 1_200_000,
            Scale::Medium => 3_000_000,
            Scale::Full => 12_000_000,
        }
    }

    /// Synthetic dataset size (paper: 10M for SIZE/ASPECT/SKEWED).
    pub(crate) fn n_synthetic(&self) -> u32 {
        match self {
            Scale::Small => 1_000_000,
            Scale::Medium => 2_500_000,
            Scale::Full => 10_000_000,
        }
    }

    /// CLUSTER dataset: (clusters, points per cluster); paper: (10000,
    /// 1000). Points-per-cluster stays at the paper's 1000 (≈ 8.8 leaves
    /// per cluster — the intra-cluster leaf structure drives Table 1);
    /// only the cluster count shrinks.
    pub(crate) fn cluster(&self) -> (u32, u32) {
        match self {
            Scale::Small => (200, 1_000),
            Scale::Medium => (1_000, 1_000),
            Scale::Full => (10_000, 1_000),
        }
    }

    /// Theorem-3 grid: `2^k` columns of `B = 113` rows.
    pub(crate) fn worst_case_k(&self) -> u32 {
        match self {
            Scale::Small => 10, // 1024 columns ≈ 116k points
            Scale::Medium => 12,
            Scale::Full => 15,
        }
    }

    /// External-memory budget for `n` 36-byte records, preserving the
    /// paper's `N/M ≈ 9`.
    pub(crate) fn memory_bytes(&self, n: u32) -> usize {
        let m_records = (n as usize / 9).max(4096);
        m_records * 36
    }

    /// Queries per batch (the paper uses 100).
    pub(crate) fn queries_per_batch(&self) -> usize {
        100
    }

    /// Input size for the `cold_open` persistence experiment (kept below
    /// the query-experiment sizes: the point is the *ratio* of open cost
    /// to rebuild cost, which is already stark at these N).
    pub(crate) fn n_cold_open(&self) -> u32 {
        match self {
            Scale::Small => 500_000,
            Scale::Medium => 2_000_000,
            Scale::Full => 10_000_000,
        }
    }

    /// Updates used by the `dyn` experiment.
    pub(crate) fn n_updates(&self) -> u32 {
        match self {
            Scale::Small => 20_000,
            Scale::Medium => 80_000,
            Scale::Full => 1_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("paper"), None);
    }

    #[test]
    fn full_scale_matches_paper_sizes() {
        assert_eq!(Scale::Full.n_eastern(), 16_700_000);
        assert_eq!(Scale::Full.n_western(), 12_000_000);
        assert_eq!(Scale::Full.cluster(), (10_000, 1_000));
    }

    #[test]
    fn memory_ratio_is_paperlike() {
        let n = Scale::Small.n_synthetic();
        let m = Scale::Small.memory_bytes(n);
        let records = m / 36;
        let ratio = n as f64 / records as f64;
        assert!(ratio > 8.0 && ratio < 10.0, "N/M = {ratio}");
    }
}
