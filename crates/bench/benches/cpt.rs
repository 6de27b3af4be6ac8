//! Criterion bench for E4: compressed path tree construction (Theorem 3.2)
//! and 2-mark path-max queries on a large random tree, plus the fold trees
//! that carry non-max monoids on the same tree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bimst_core::{compressed_path_tree, fold_path_tree, path_max};
use bimst_graphgen::random_tree;
use bimst_primitives::hash::hash2;
use bimst_primitives::monoid::{Hops, MinW};
use bimst_rctree::RcForest;

/// `l` pseudo-random marks over `0..n`, seeded by `l` (the same marks in
/// every group).
fn marks(n: usize, l: usize) -> Vec<u32> {
    (0..l as u64)
        .map(|i| (hash2(l as u64, i) % n as u64) as u32)
        .collect()
}

fn bench_cpt(c: &mut Criterion) {
    let n = 200_000usize;
    let mut forest = RcForest::new(n, 3);
    forest.batch_update(&[], &random_tree(n as u32, 9));

    let mut g = c.benchmark_group("cpt");
    g.sample_size(10);
    for l in [2usize, 64, 4096, 65_536] {
        g.throughput(Throughput::Elements(l as u64));
        g.bench_with_input(BenchmarkId::from_parameter(l), &marks(n, l), |b, marks| {
            b.iter(|| std::hint::black_box(compressed_path_tree(&forest, marks).edges.len()));
        });
    }
    g.finish();

    // Fold trees: the same expansion, each surviving edge folded from its
    // leaf edges. Compare against `cpt` at the same mark counts.
    let mut g = c.benchmark_group("cpt_fold");
    g.sample_size(10);
    for l in [2usize, 64, 4096] {
        let marks = marks(n, l);
        g.throughput(Throughput::Elements(l as u64));
        g.bench_with_input(BenchmarkId::new("hops", l), &marks, |b, marks| {
            b.iter(|| std::hint::black_box(fold_path_tree::<Hops>(&forest, marks).edges.len()));
        });
        g.bench_with_input(BenchmarkId::new("min", l), &marks, |b, marks| {
            b.iter(|| std::hint::black_box(fold_path_tree::<MinW>(&forest, marks).edges.len()));
        });
    }
    g.finish();

    let mut g = c.benchmark_group("path_max_query");
    g.sample_size(20);
    g.bench_function("random_pairs", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let u = (hash2(1, i) % n as u64) as u32;
            let v = (hash2(2, i) % n as u64) as u32;
            std::hint::black_box(path_max(&forest, u, v))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_cpt);
criterion_main!(benches);
