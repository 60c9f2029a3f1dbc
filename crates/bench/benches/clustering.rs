//! Similarity-pipeline benchmarks: embedding and K-Means — the costly
//! stages behind the SG construction (paper §III-A).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cluster::{kmeans, kmeans_warm, KMeansConfig};
use embed::Embedder;
use minilang::gen::{generate, Behavior};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn code_corpus(n: usize, seed: u64) -> Vec<minilang::Module> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| generate(Behavior::ALL[i % Behavior::ALL.len()], &mut rng))
        .collect()
}

fn bench_embedding(c: &mut Criterion) {
    let corpus = code_corpus(64, 1);
    let mut group = c.benchmark_group("embed_64_modules");
    for &dim in &[256usize, 1024, 3072] {
        let embedder = Embedder::new(dim);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            b.iter(|| {
                corpus
                    .iter()
                    .map(|m| embedder.embed(m))
                    .collect::<Vec<_>>()
            })
        });
    }
    group.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let embedder = Embedder::new(256);
    let corpus = code_corpus(200, 2);
    let data: Vec<Vec<f32>> = corpus
        .iter()
        .map(|m| embedder.embed(m).as_slice().to_vec())
        .collect();
    let mut group = c.benchmark_group("kmeans_200x256");
    group.sample_size(10);
    for &k in &[4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| kmeans(&data, k, &KMeansConfig::default(), &mut rng));
        });
    }
    group.finish();
}

/// Synthetic blob data: `n` points around `centers` overlapping centers
/// in `dim` dimensions — far cheaper to produce than embedding `n`
/// generated modules. The noise is deliberately comparable to the center
/// spread so Lloyd needs several iterations, as it does on real
/// embedding corpora (trivially-separated blobs converge in two).
fn blob_data(n: usize, dim: usize, centers: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centroids: Vec<Vec<f32>> = (0..centers)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    (0..n)
        .map(|i| {
            let c = &centroids[i % centers];
            c.iter().map(|v| v + rng.gen_range(-0.6f32..0.6)).collect()
        })
        .collect()
}

/// Engine ablation (DESIGN.md §6): the parallel engine vs. a
/// warm-started schedule step, on the same data and the same iteration
/// budget.
fn bench_engines(c: &mut Criterion) {
    let data = blob_data(1000, 256, 24, 4);
    let config = KMeansConfig {
        max_iters: 25,
        tolerance: 1e-3,
        ..KMeansConfig::default()
    };
    let k = 32usize;
    let mut group = c.benchmark_group("kmeans_engine_1000x256_k32");
    group.sample_size(10);
    group.bench_function("parallel", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| kmeans(&data, k, &config, &mut rng));
    });
    // The grow-k schedule step: reach k warm-started from the previous
    // step's centroids (k − 8) instead of restarting from scratch.
    let mut rng = StdRng::seed_from_u64(5);
    let prev = kmeans(&data, k - 8, &config, &mut rng);
    group.bench_function("parallel_warm_step", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| kmeans_warm(&data, &prev.centroids, 8, &config, &mut rng));
    });
    group.finish();
}

/// The engine at n = 5000, dim = 1024, k = 64: the workload recorded in
/// `BENCH_PR1.json` (same data, seeds and config).
fn bench_engines_5k(c: &mut Criterion) {
    let data = blob_data(5000, 1024, 48, 5000);
    let config = KMeansConfig {
        max_iters: 25,
        tolerance: 1e-3,
        ..KMeansConfig::default()
    };
    let k = 64usize;
    let mut group = c.benchmark_group("kmeans_engine_5000x1024_k64");
    group.sample_size(3);
    group.bench_function("parallel", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            kmeans(&data, k, &config, &mut rng)
        });
    });
    let mut rng = StdRng::seed_from_u64(1);
    let prev = kmeans(&data, k - 16, &config, &mut rng);
    group.bench_function("parallel_warm_step", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            kmeans_warm(&data, &prev.centroids, 16, &config, &mut rng)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_embedding, bench_kmeans, bench_engines, bench_engines_5k);
criterion_main!(benches);
