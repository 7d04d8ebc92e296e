//! Ablation benchmarks for the PR-tree's design choices: priority-leaf
//! size, kd-split snapping, node-cache policy, and the dynamic split
//! policy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pr_data::queries::square_queries;
use pr_data::uniform_points;
use pr_em::{BlockDevice, MemDevice};
use pr_geom::Rect;
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::BulkLoader;
use pr_tree::dynamic::SplitPolicy;
use pr_tree::{CachePolicy, RTree, TreeParams};
use std::sync::Arc;

fn build_pr(loader: PrTreeLoader, n: u32) -> RTree<2> {
    let params = TreeParams::paper_2d();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    loader
        .load(dev, params, uniform_points(n, 5))
        .expect("build")
}

/// Priority-leaf size: the paper's B vs fractions of B vs Agarwal et
/// al.'s 1. Query time degrades sharply below B (see also `dbg`:
/// utilization collapses).
fn bench_priority_size(c: &mut Criterion) {
    let queries = square_queries(&Rect::xyxy(0.0, 0.0, 1.0, 1.0), 0.01, 30, 9);
    let mut group = c.benchmark_group("ablation_priority_size");
    group.sample_size(10);
    for (label, prio) in [("B", None), ("B/4", Some(28)), ("1", Some(1))] {
        let tree = build_pr(
            PrTreeLoader {
                priority_size: prio,
                snap_splits: true,
            },
            30_000,
        );
        tree.warm_cache().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(label), &tree, |b, t| {
            b.iter(|| {
                let mut total = 0u64;
                for q in &queries {
                    total += t.window_count(q).unwrap().0;
                }
                total
            });
        });
    }
    group.finish();
}

/// kd-split snapping: the paper's ~100%-utilization trick vs the exact
/// structural definition.
fn bench_snap_splits(c: &mut Criterion) {
    let queries = square_queries(&Rect::xyxy(0.0, 0.0, 1.0, 1.0), 0.01, 30, 10);
    let mut group = c.benchmark_group("ablation_snap_splits");
    group.sample_size(10);
    for (label, snap) in [("snapped", true), ("exact_median", false)] {
        let tree = build_pr(
            PrTreeLoader {
                priority_size: None,
                snap_splits: snap,
            },
            30_000,
        );
        tree.warm_cache().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(label), &tree, |b, t| {
            b.iter(|| {
                let mut total = 0u64;
                for q in &queries {
                    total += t.window_count(q).unwrap().0;
                }
                total
            });
        });
    }
    group.finish();
}

/// Cache policy: the paper's all-internal cache vs none (its footnote 5).
fn bench_cache_policy(c: &mut Criterion) {
    let queries = square_queries(&Rect::xyxy(0.0, 0.0, 1.0, 1.0), 0.01, 30, 11);
    let tree = build_pr(PrTreeLoader::default(), 30_000);
    let mut group = c.benchmark_group("ablation_cache_policy");
    group.sample_size(10);
    for (label, policy) in [
        ("all_internal", CachePolicy::InternalNodes),
        ("none", CachePolicy::None),
    ] {
        tree.set_cache_policy(policy);
        tree.warm_cache().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(label), &tree, |b, t| {
            b.iter(|| {
                let mut total = 0u64;
                for q in &queries {
                    total += t.window_count(q).unwrap().0;
                }
                total
            });
        });
    }
    group.finish();
}

/// Dynamic split policies: insert throughput for Guttman linear,
/// quadratic and R*.
fn bench_split_policy(c: &mut Criterion) {
    let items = uniform_points(3_000, 12);
    let params = TreeParams::with_cap::<2>(32);
    let mut group = c.benchmark_group("ablation_split_policy");
    group.sample_size(10);
    for policy in SplitPolicy::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy.name()),
            &policy,
            |b, &p| {
                b.iter(|| {
                    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
                    let mut tree = RTree::<2>::new_empty(dev, params).unwrap();
                    for &it in &items {
                        tree.insert(it, p).unwrap();
                    }
                    tree.len()
                });
            },
        );
    }
    group.finish();
}

/// Parallel vs sequential PR-tree construction (the crossbeam extension).
fn bench_parallel_build(c: &mut Criterion) {
    use pr_tree::bulk::pr_parallel::ParallelPrLoader;
    let items = uniform_points(100_000, 13);
    let params = TreeParams::paper_2d();
    let mut group = c.benchmark_group("ablation_parallel_build");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("threads_{threads}")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
                    ParallelPrLoader {
                        inner: PrTreeLoader::default(),
                        threads,
                    }
                    .load(dev, params, items.clone())
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_priority_size,
    bench_snap_splits,
    bench_cache_policy,
    bench_split_policy,
    bench_parallel_build
);
criterion_main!(benches);
