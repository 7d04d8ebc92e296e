//! TIGER/Line-like road network generator.
//!
//! The paper benchmarks on bounding boxes of road segments from the US
//! Census TIGER/Line 1997 CD-ROMs — 16.7M segments for sixteen eastern
//! states ("Eastern"), 12M for five western states ("Western"). We do not
//! have the CDs, so a generator stands in for them. What the
//! paper's analysis actually relies on is distributional (§3.2): the
//! input consists of *relatively small rectangles* (long roads are cut
//! into short segments) that are *somewhat but not too badly clustered*
//! around urban areas.
//!
//! This generator reproduces those properties mechanically: a region
//! holds a set of urban centers with population weights; roads are
//! polylines grown by random walks with heading momentum — dense short
//! segments near centers, sparser longer segments in rural grid patterns
//! between them. Each emitted item is the bounding box of one segment.
//! Region boundaries tile the domain horizontally, so "the first r of 5
//! regions" reproduces the paper's nested Eastern subsets (Figs. 10/14).

use pr_geom::{Item, Rect};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A TIGER-like region profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TigerProfile {
    /// Number of regions ("states") tiling the domain horizontally.
    pub regions: u32,
    /// Urban centers per region.
    pub centers_per_region: u32,
    /// Fraction of segments that are urban (vs rural grid roads), in
    /// percent.
    pub urban_percent: u32,
    /// Base RNG seed; region `r` derives its own stream from it.
    pub seed: u64,
}

impl TigerProfile {
    /// The Eastern profile: more states, denser urban clustering.
    pub fn eastern() -> Self {
        TigerProfile {
            regions: 5, // the paper splits Eastern into 5 nested subsets
            centers_per_region: 12,
            urban_percent: 70,
            seed: 0xEA57,
        }
    }

    /// The Western profile: fewer, sparser population centers.
    pub fn western() -> Self {
        TigerProfile {
            regions: 5,
            centers_per_region: 5,
            urban_percent: 55,
            seed: 0x3357,
        }
    }

    /// Generates `n` road-segment bounding boxes spread over the first
    /// `use_regions` regions (ids are dense `0..n`).
    pub fn generate(&self, n: u32, use_regions: u32) -> Vec<Item<2>> {
        let use_regions = use_regions.clamp(1, self.regions);
        let per_region = n / use_regions;
        let mut out = Vec::with_capacity(n as usize);
        for r in 0..use_regions {
            let count = if r == use_regions - 1 {
                n - per_region * (use_regions - 1)
            } else {
                per_region
            };
            self.generate_region(r, count, &mut out);
        }
        // Re-id densely after concatenation.
        for (id, item) in out.iter_mut().enumerate() {
            item.id = id as u32;
        }
        out
    }

    /// The horizontal strip `[r/regions, (r+1)/regions] × [0, 1]`.
    fn region_domain(&self, r: u32) -> Rect<2> {
        let w = 1.0 / self.regions as f64;
        Rect::xyxy(r as f64 * w, 0.0, (r as f64 + 1.0) * w, 1.0)
    }

    fn generate_region(&self, r: u32, count: u32, out: &mut Vec<Item<2>>) {
        let domain = self.region_domain(r);
        let mut rng = SmallRng::seed_from_u64(
            self.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(r as u64 + 1)),
        );
        // Urban centers with Zipf-ish weights.
        let centers: Vec<(f64, f64, f64)> = (0..self.centers_per_region)
            .map(|i| {
                let cx = rng.gen_range(domain.lo_at(0)..domain.hi_at(0));
                let cy = rng.gen_range(0.05..0.95);
                let weight = 1.0 / (i as f64 + 1.0);
                (cx, cy, weight)
            })
            .collect();
        let total_weight: f64 = centers.iter().map(|c| c.2).sum();

        let mut emitted = 0u32;
        while emitted < count {
            let urban = rng.gen_range(0..100) < self.urban_percent;
            let (sx, sy, seg_len, spread) = if urban {
                // Pick a center by weight; start near it.
                let mut pick = rng.gen_range(0.0..total_weight);
                let mut chosen = centers[0];
                for c in &centers {
                    if pick < c.2 {
                        chosen = *c;
                        break;
                    }
                    pick -= c.2;
                }
                let spread = 0.02 / self.regions as f64 * 3.0;
                let sx = chosen.0 + gaussianish(&mut rng) * spread;
                let sy = chosen.1 + gaussianish(&mut rng) * spread;
                (sx, sy, 0.0004, spread)
            } else {
                // Rural: anywhere in the region, longer segments.
                let sx = rng.gen_range(domain.lo_at(0)..domain.hi_at(0));
                let sy = rng.gen_range(0.0..1.0);
                (sx, sy, 0.0015, 0.05)
            };
            let _ = spread;

            // Grow one road: a random walk with heading momentum. Urban
            // roads twist; rural roads run straight (often axis-aligned).
            let mut heading: f64 = if urban || rng.gen_bool(0.3) {
                rng.gen_range(0.0..std::f64::consts::TAU)
            } else {
                // Grid-aligned rural road.
                f64::from(rng.gen_range(0u8..4)) * std::f64::consts::FRAC_PI_2
            };
            let road_segments = rng.gen_range(5..40).min(count - emitted);
            // Roads stay inside their state: clamp the walk to the region
            // strip so nested region prefixes cover prefix strips.
            let (x_lo, x_hi) = (domain.lo_at(0), domain.hi_at(0));
            let (mut x, mut y) = (sx.clamp(x_lo, x_hi), sy.clamp(0.0, 1.0));
            for _ in 0..road_segments {
                let len = seg_len * rng.gen_range(0.4..1.6);
                heading += gaussianish(&mut rng) * if urban { 0.5 } else { 0.08 };
                let nx = (x + heading.cos() * len).clamp(x_lo, x_hi);
                let ny = (y + heading.sin() * len).clamp(0.0, 1.0);
                let rect = Rect::xyxy(x.min(nx), y.min(ny), x.max(nx), y.max(ny));
                out.push(Item::new(rect, 0)); // re-id'ed by the caller
                emitted += 1;
                x = nx;
                y = ny;
                if emitted == count {
                    break;
                }
            }
        }
    }
}

/// Cheap approximately-normal variate (Irwin–Hall with 4 uniforms),
/// mean 0, spread ≈ 1.
fn gaussianish(rng: &mut SmallRng) -> f64 {
    let s: f64 = (0..4).map(|_| rng.gen_range(-1.0..1.0f64)).sum();
    s * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_exact_count_with_dense_ids() {
        for profile in [TigerProfile::eastern(), TigerProfile::western()] {
            let items = profile.generate(10_000, profile.regions);
            assert_eq!(items.len(), 10_000);
            for (i, it) in items.iter().enumerate() {
                assert_eq!(it.id, i as u32);
                assert!(it.rect.is_valid());
            }
        }
    }

    #[test]
    fn segments_are_small() {
        // The paper: "relatively small rectangles (long roads are divided
        // into short segments)".
        let items = TigerProfile::eastern().generate(20_000, 5);
        let avg_diag: f64 = items
            .iter()
            .map(|i| (i.rect.extent(0).powi(2) + i.rect.extent(1).powi(2)).sqrt())
            .sum::<f64>()
            / items.len() as f64;
        assert!(avg_diag < 0.01, "avg segment diagonal {avg_diag} too large");
        assert!(items.iter().all(|i| i.rect.extent(0) < 0.05));
    }

    #[test]
    fn data_is_clustered_but_not_degenerate() {
        // Urban clustering: the densest 4% of a 25×25 grid holds well
        // over its uniform share of segment centers, but not everything.
        let items = TigerProfile::eastern().generate(30_000, 5);
        let mut grid = vec![0u32; 25 * 25];
        for i in &items {
            let c = i.rect.center();
            let gx = ((c.coord(0) * 25.0) as usize).min(24);
            let gy = ((c.coord(1) * 25.0) as usize).min(24);
            grid[gy * 25 + gx] += 1;
        }
        let mut counts = grid.clone();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top25: u32 = counts[..25].iter().sum();
        let share = top25 as f64 / items.len() as f64;
        assert!(share > 0.15, "too uniform: top cells hold {share:.3}");
        assert!(share < 0.95, "too degenerate: top cells hold {share:.3}");
    }

    #[test]
    fn nested_subsets_grow() {
        let p = TigerProfile::eastern();
        // Region prefixes reproduce the paper's nested Eastern subsets:
        // the first r regions cover a prefix strip of the domain.
        let sub2 = p.generate(4_000, 2);
        let max_x = sub2
            .iter()
            .map(|i| i.rect.hi_at(0))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max_x <= 2.0 / 5.0 + 1e-9, "2 regions stay in 2/5 strip");
        let full = p.generate(4_000, 5);
        let max_x_full = full
            .iter()
            .map(|i| i.rect.hi_at(0))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max_x_full > 0.75, "5 regions span the domain");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TigerProfile::western().generate(5_000, 5);
        let b = TigerProfile::western().generate(5_000, 5);
        assert_eq!(a, b);
        let mut other = TigerProfile::western();
        other.seed ^= 1;
        assert_ne!(other.generate(5_000, 5), a);
    }
}
