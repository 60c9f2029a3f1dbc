//! End-to-end pipeline benchmarks: world generation, collection, and
//! MALGRAPH construction — the stages behind every table and figure.

use crawler::collect;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use malgraph_core::{build, BuildOptions};
use registry_sim::{World, WorldConfig};

fn bench_world_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("world_generate");
    group.sample_size(10);
    for scale in [0.02f64, 0.05] {
        group.bench_with_input(BenchmarkId::from_parameter(scale), &scale, |b, &scale| {
            b.iter(|| {
                World::generate(
                    WorldConfig {
                        seed: 1,
                        ..WorldConfig::default()
                    }
                    .with_scale(scale),
                )
            });
        });
    }
    group.finish();
}

fn bench_collection(c: &mut Criterion) {
    let world = World::generate(WorldConfig::small(2));
    let mut group = c.benchmark_group("collect");
    group.sample_size(10);
    group.bench_function("small_world", |b| b.iter(|| collect(&world)));
    group.finish();
}

fn bench_graph_build(c: &mut Criterion) {
    let world = World::generate(WorldConfig::small(3));
    let dataset = collect(&world);
    let mut group = c.benchmark_group("malgraph_build");
    group.sample_size(10);
    group.bench_function("small_corpus", |b| {
        b.iter(|| build(&dataset, &BuildOptions::default()))
    });
    group.finish();
}

/// Overhead of the `obs` instrumentation on collect→build: the no-op
/// path (disabled, one branch per site) against the enabled registry.
/// The ISSUE-4 budget is <2% — `obs_overhead` measures it one-shot,
/// this group tracks it over time.
fn bench_obs_overhead(c: &mut Criterion) {
    let world = World::generate(WorldConfig::small(4));
    let mut group = c.benchmark_group("pipeline_obs");
    group.sample_size(10);
    group.bench_function("disabled", |b| {
        obs::disable();
        b.iter(|| {
            let dataset = collect(&world);
            build(&dataset, &BuildOptions::default())
        });
    });
    group.bench_function("enabled", |b| {
        obs::enable();
        b.iter(|| {
            obs::reset();
            let dataset = collect(&world);
            build(&dataset, &BuildOptions::default())
        });
        obs::disable();
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_world_generation,
    bench_collection,
    bench_graph_build,
    bench_obs_overhead
);
criterion_main!(benches);
