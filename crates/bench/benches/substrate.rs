//! Substrate benchmarks: the external sort, streams, and the Hilbert
//! curve — the building blocks whose constants set every loader's
//! wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pr_em::{external_sort, MemDevice, SortConfig, Stream, StreamReader, StreamWriter};
use pr_hilbert::hilbert_index;

fn bench_external_sort(c: &mut Criterion) {
    let n: u64 = 200_000;
    let mut group = c.benchmark_group("external_sort_u64");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n));
    for (label, mem) in [("tight_memory", 16 << 10), ("ample_memory", 16 << 20)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &mem, |b, &mem| {
            b.iter(|| {
                let dev = MemDevice::new(4096);
                let input =
                    Stream::from_iter(&dev, (0..n).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)))
                        .unwrap();
                external_sort::<u64>(&dev, &input, SortConfig::with_memory(mem)).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_stream_roundtrip(c: &mut Criterion) {
    let n: u64 = 500_000;
    let mut group = c.benchmark_group("stream_roundtrip_u64");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n));
    group.bench_function("write_then_read", |b| {
        b.iter(|| {
            let dev = MemDevice::new(4096);
            let mut w = StreamWriter::<u64>::new(&dev);
            for i in 0..n {
                w.push(&i).unwrap();
            }
            let s = w.finish().unwrap();
            let mut sum = 0u64;
            let mut r = StreamReader::<u64>::new(&dev, &s);
            while let Some(v) = r.next_record().unwrap() {
                sum = sum.wrapping_add(v);
            }
            sum
        });
    });
    group.finish();
}

fn bench_hilbert(c: &mut Criterion) {
    let mut group = c.benchmark_group("hilbert_index");
    group.sample_size(20);
    group.throughput(Throughput::Elements(10_000));
    for (label, dims) in [("2d_order32", 2usize), ("4d_order32", 4)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &dims, |b, &dims| {
            b.iter(|| {
                let mut acc = 0u128;
                let mut x = 0xCAFEBABEu32;
                let mut coords = vec![0u32; dims];
                for _ in 0..10_000 {
                    for c in coords.iter_mut() {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        *c = x;
                    }
                    acc ^= hilbert_index(&coords, 32);
                }
                acc
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_external_sort,
    bench_stream_roundtrip,
    bench_hilbert
);
criterion_main!(benches);
