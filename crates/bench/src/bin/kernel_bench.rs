//! One-shot wall-time comparison of the similarity-pipeline vector
//! kernels, written to `BENCH_PR6.json` — the perf-trajectory record for
//! the cache-tiled sparse kernels and the certified i8 screen (ISSUE 6),
//! next to the PR-1 engine numbers in `BENCH_PR1.json`.
//!
//! Measures, at the paper's dim = 3072 / nnz ≈ 350 embedding shape with
//! k = 64, for n ∈ {1000, 5000, 20000}, the two hot phases of
//! `similar_pairs` — K-Means assignment and within-cluster cosine
//! refinement — under each [`cluster::Kernel`]:
//!
//! * `dense_scalar` — the pre-PR-6 path: dense row-major matrix, straight
//!   scalar dots in assignment, dense dots over 12 KB rows in refinement;
//! * `tiled` — cache-tiled assignment over the sparse CSR rows,
//!   gather-based sparse·dense dots in refinement;
//! * `tiled_quant` — `tiled` plus the certified i8 screen: provably-losing
//!   candidates skipped, survivors rescored in exact f32.
//!
//! All three modes are asserted to produce **identical** assignments and
//! pair sets before any number is reported — the speedups are for the
//! same answer, not an approximation of it.
//!
//! ```text
//! cargo run -p malgraph-bench --bin kernel_bench --release [-- --quick]
//! ```
//!
//! `--quick` runs only n = 1000 with a reduced iteration budget (the CI
//! smoke configuration, well under a minute) and writes
//! `target/perf_gate/BENCH_PR6_quick.json` instead.

use cluster::matrix::{dense_dot, sparse_dot_dense};
use cluster::{kmeans_points, KMeansConfig, KMeansResult, Kernel, Points};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const DIM: usize = 3072;
const NNZ: usize = 350;
const K: usize = 64;
const THRESHOLD: f32 = 0.92;
/// Members per synthetic code family (mutated variants of one base).
const FAMILY: usize = 8;
/// Indices re-pointed per family member — keeps intra-family cosine
/// above [`THRESHOLD`] while making every vector distinct.
const MUTATED: usize = 18;

/// Family-structured sparse unit vectors: each family shares a base
/// support with per-member index swaps and value jitter, mimicking the
/// embedder's output over mutated malware variants. Intra-family pairs
/// land above the refinement threshold, cross-family pairs near zero —
/// the regime the i8 screen is built for.
fn family_rows(n: usize, seed: u64) -> Vec<(Vec<u32>, Vec<f32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mask = vec![false; DIM];
    let mut out: Vec<(Vec<u32>, Vec<f32>)> = Vec::with_capacity(n);
    while out.len() < n {
        // Base support + values for this family.
        mask.iter_mut().for_each(|m| *m = false);
        let mut placed = 0;
        while placed < NNZ {
            let i = rng.gen_range(0..DIM);
            if !mask[i] {
                mask[i] = true;
                placed += 1;
            }
        }
        let base_idx: Vec<u32> = (0..DIM as u32).filter(|&i| mask[i as usize]).collect();
        let base_val: Vec<f32> = (0..NNZ).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        for _ in 0..FAMILY.min(n - out.len()) {
            let mut pairs: Vec<(u32, f32)> = base_idx
                .iter()
                .zip(&base_val)
                .map(|(&i, &v)| (i, v * (1.0 + rng.gen_range(-0.2f32..0.2))))
                .collect();
            for _ in 0..MUTATED {
                let slot = rng.gen_range(0..pairs.len());
                loop {
                    let candidate = rng.gen_range(0..DIM) as u32;
                    if !mask[candidate as usize] {
                        mask[pairs[slot].0 as usize] = false;
                        mask[candidate as usize] = true;
                        pairs[slot].0 = candidate;
                        break;
                    }
                }
            }
            pairs.sort_unstable_by_key(|&(i, _)| i);
            let norm = pairs.iter().map(|&(_, v)| v * v).sum::<f32>().sqrt();
            let indices: Vec<u32> = pairs.iter().map(|&(i, _)| i).collect();
            let values: Vec<f32> = pairs.iter().map(|&(_, v)| v / norm).collect();
            // Restore the family mask for the next member's swaps.
            for &(i, _) in &pairs {
                mask[i as usize] = false;
            }
            for &i in &base_idx {
                mask[i as usize] = true;
            }
            out.push((indices, values));
        }
    }
    out
}

/// Best-of-`reps` wall time; the result of the last repetition rides
/// along (the usual guard against scheduler noise).
fn millis<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        out = Some(f());
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    (best, out.expect("reps >= 1"))
}

fn assignment(points: &Points, kernel: Kernel, max_iters: usize) -> KMeansResult {
    let config = KMeansConfig {
        max_iters,
        tolerance: 1e-3,
        threads: 1,
        kernel,
        ..KMeansConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(7);
    kmeans_points(points, K, &config, &mut rng)
}

/// The within-cluster cosine refinement of `similar_pairs`, phase 3,
/// under the given kernel. Returns the (sorted) accepted pair list plus
/// screen tallies.
fn refinement(
    points: &Points,
    assignments: &[usize],
    kernel: Kernel,
) -> (Vec<(usize, usize)>, u64, u64) {
    let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &a) in assignments.iter().enumerate() {
        clusters[a].push(i);
    }
    let quant = (kernel == Kernel::TiledQuantized).then(|| points.quant());
    let (matrix, sparse) = (points.matrix(), points.sparse());
    let mut pairs = Vec::new();
    let (mut pruned, mut rescored) = (0u64, 0u64);
    for members in &clusters {
        for (x, &a) in members.iter().enumerate() {
            for &b in &members[x + 1..] {
                if let Some(q) = quant {
                    if q.pair_upper_bound(a, q, b) < f64::from(THRESHOLD) {
                        pruned += 1;
                        continue;
                    }
                }
                rescored += 1;
                let dot = match kernel {
                    Kernel::DenseScalar => dense_dot(matrix.row(a), matrix.row(b)),
                    _ => {
                        let (ai, av) = sparse.row(a);
                        sparse_dot_dense(ai, av, matrix.row(b))
                    }
                };
                if dot.clamp(-1.0, 1.0) >= THRESHOLD {
                    pairs.push((a, b));
                }
            }
        }
    }
    pairs.sort_unstable();
    (pairs, pruned, rescored)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sizes: &[(usize, usize, usize)] = if quick {
        &[(1000, 4, 1)]
    } else {
        &[(1000, 8, 2), (5000, 6, 2), (20000, 5, 1)]
    };
    let kernels = [
        ("dense_scalar", Kernel::DenseScalar),
        ("tiled", Kernel::Tiled),
        ("tiled_quant", Kernel::TiledQuantized),
    ];

    let mut rows = Vec::new();
    for &(n, max_iters, reps) in sizes {
        eprintln!("n = {n} (dim {DIM}, nnz ~{NNZ}, k {K}, max_iters {max_iters})…");
        let data = family_rows(n, n as u64);
        let refs: Vec<(&[u32], &[f32])> = data
            .iter()
            .map(|(i, v)| (i.as_slice(), v.as_slice()))
            .collect();
        let points = Points::from_sparse_rows(DIM, &refs);

        // Per mode: (assign_ms, refine_ms, iterations, pruned, rescored).
        let mut stats = [(0.0f64, 0.0f64, 0usize, 0u64, 0u64); 3];
        type Baseline = (Vec<usize>, Vec<(usize, usize)>);
        let mut baseline: Option<Baseline> = None;
        let mut pairs_found = 0usize;
        for (m, &(name, kernel)) in kernels.iter().enumerate() {
            let (assign_ms, res) = millis(reps, || assignment(&points, kernel, max_iters));
            let (refine_ms, (pairs, pruned, rescored)) =
                millis(reps, || refinement(&points, &res.assignments, kernel));
            // Bitwise-equivalence gate: every mode must answer the
            // identical question before its time is worth reporting.
            match &baseline {
                None => baseline = Some((res.assignments.clone(), pairs.clone())),
                Some((assignments, ref_pairs)) => {
                    assert_eq!(
                        assignments, &res.assignments,
                        "{name}: assignments diverged"
                    );
                    assert_eq!(ref_pairs, &pairs, "{name}: pair set diverged");
                }
            }
            eprintln!(
                "  {name:>12}: assign {assign_ms:7.0} ms ({} iters) · refine {refine_ms:6.0} ms \
                 ({} pairs, {pruned} screened, {rescored} rescored)",
                res.iterations,
                pairs.len()
            );
            stats[m] = (assign_ms, refine_ms, res.iterations, pruned, rescored);
            pairs_found = pairs.len();
        }
        let total = |m: usize| stats[m].0 + stats[m].1;
        rows.push(jsonio::object! {
            "n": n,
            "max_iters": max_iters,
            "iterations": stats[0].2,
            "pairs_found": pairs_found,
            "assign_dense_scalar_ms": stats[0].0,
            "refine_dense_scalar_ms": stats[0].1,
            "total_dense_scalar_ms": total(0),
            "assign_tiled_ms": stats[1].0,
            "refine_tiled_ms": stats[1].1,
            "total_tiled_ms": total(1),
            "assign_tiled_quant_ms": stats[2].0,
            "refine_tiled_quant_ms": stats[2].1,
            "total_tiled_quant_ms": total(2),
            "pairs_screened": stats[2].3,
            "pairs_rescored": stats[2].4,
            "speedup_tiled": total(0) / total(1),
            "speedup_tiled_quant": total(0) / total(2),
        });
    }

    let report = jsonio::object! {
        "bench": "vector_kernels",
        "issue": "PR6: cache-tiled sparse kernels and certified i8 screen",
        "dim": DIM,
        "nnz": NNZ,
        "k": K,
        "threshold": f64::from(THRESHOLD),
        "quick": quick,
        "host_threads": host_threads,
        "note": "assign = Lloyd at fixed k per kernel; refine = within-cluster \
                   cosine pass; all modes asserted bitwise-identical before timing \
                   is reported",
        "results": jsonio::Value::Array(rows),
    };
    let path = malgraph_bench::report_path("BENCH_PR6", quick);
    std::fs::write(&path, report.to_pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}
