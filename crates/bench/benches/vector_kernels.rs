//! Micro-benchmarks for the vector kernels (DESIGN.md §6d): the
//! dot-product ladder — dense scalar, sparse·dense, sparse·sparse,
//! certified i8 window — at the paper's dim = 3072 / nnz ≈ 350
//! embedding shape, and the two bitwise-equivalent K-Means assignment
//! kernels end to end.
//!
//! `BENCH_PR6.json` records the headline numbers of the one-shot
//! comparison; this group tracks the individual kernels, at a shape
//! perfbench's workloads never run.

use cluster::matrix::{dense_dot, sparse_dot_dense, sparse_dot_sparse};
use cluster::{kmeans_points, KMeansConfig, Kernel, Points};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 3072;
const NNZ: usize = 350;

/// Random L2-normalized sparse rows with the embedder's occupancy
/// (~350 of 3072 buckets touched).
fn sparse_unit_rows(n: usize, seed: u64) -> Vec<(Vec<u32>, Vec<f32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mask = vec![false; DIM];
    (0..n)
        .map(|_| {
            mask.iter_mut().for_each(|m| *m = false);
            let mut placed = 0;
            while placed < NNZ {
                let i = rng.gen_range(0..DIM);
                if !mask[i] {
                    mask[i] = true;
                    placed += 1;
                }
            }
            let indices: Vec<u32> = (0..DIM as u32).filter(|&i| mask[i as usize]).collect();
            let mut values: Vec<f32> = (0..NNZ).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let norm = values.iter().map(|v| v * v).sum::<f32>().sqrt();
            values.iter_mut().for_each(|v| *v /= norm);
            (indices, values)
        })
        .collect()
}

fn points_from(rows: &[(Vec<u32>, Vec<f32>)]) -> Points {
    let refs: Vec<(&[u32], &[f32])> = rows
        .iter()
        .map(|(i, v)| (i.as_slice(), v.as_slice()))
        .collect();
    Points::from_sparse_rows(DIM, &refs)
}

/// The dot ladder over 256 fixed pairs of dim-3072 vectors: what one
/// candidate evaluation costs under each representation.
fn bench_dot_kernels(c: &mut Criterion) {
    let rows = sparse_unit_rows(128, 1);
    let points = points_from(&rows);
    let (matrix, sparse, quant) = (points.matrix(), points.sparse(), points.quant());
    let pairs: Vec<(usize, usize)> = (0..256).map(|p| (p % 128, (p * 37 + 1) % 128)).collect();
    let mut group = c.benchmark_group("dot_3072_nnz350");
    group.bench_function("dense_scalar", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(i, j)| dense_dot(matrix.row(i), matrix.row(j)))
                .sum::<f32>()
        })
    });
    group.bench_function("sparse_dense", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(i, j)| {
                    let (si, sv) = sparse.row(i);
                    sparse_dot_dense(si, sv, matrix.row(j))
                })
                .sum::<f32>()
        })
    });
    group.bench_function("sparse_sparse", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(i, j)| {
                    let (ai, av) = sparse.row(i);
                    let (bi, bv) = sparse.row(j);
                    sparse_dot_sparse(ai, av, bi, bv)
                })
                .sum::<f32>()
        })
    });
    group.bench_function("quant_window", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(i, j)| quant.dot_window(i, quant, j).0)
                .sum::<f64>()
        })
    });
    group.finish();
}

/// Full Lloyd runs under each assignment kernel — same data, same seed,
/// bitwise-identical output, different wall time.
fn bench_assignment_kernels(c: &mut Criterion) {
    let rows = sparse_unit_rows(512, 2);
    let points = points_from(&rows);
    let config = KMeansConfig {
        max_iters: 6,
        tolerance: 1e-3,
        threads: 1,
        ..KMeansConfig::default()
    };
    let mut group = c.benchmark_group("assign_512x3072_k16");
    group.sample_size(10);
    for kernel in [Kernel::DenseScalar, Kernel::TiledQuantized] {
        let config = KMeansConfig {
            kernel,
            ..config.clone()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kernel:?}")),
            &config,
            |b, config| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(3);
                    kmeans_points(&points, 16, config, &mut rng)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dot_kernels, bench_assignment_kernels);
criterion_main!(benches);
