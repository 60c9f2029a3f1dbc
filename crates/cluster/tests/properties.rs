//! Property-based tests for K-Means: the converged solution must satisfy
//! the Lloyd invariants regardless of input shape, and the parallel
//! engine must be bitwise insensitive to its thread count and to points
//! sharing rows.

use cluster::matrix::{dense_dot, sparse_dot_sparse};
use cluster::{
    kmeans, kmeans_points, kmeans_warm, kmeans_warm_points, KMeansConfig, KMeansResult, Kernel,
    Points,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_points() -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(-100.0f32..100.0, 2), 1..40)
}

/// Mostly-zero rows in a higher dimension: the shape the sparse kernels
/// and the i8 screen are built for, riddled with exact zeros and
/// near-ties.
fn arb_sparse_points() -> impl Strategy<Value = Vec<Vec<f32>>> {
    arb_rows(24, 3)
}

/// Rows wide and dense enough (dim ≥ 32, density ≥ 0.35; here about
/// 0.8) that the engine's default kernel runs its i8 assignment screen.
fn arb_screened_points() -> impl Strategy<Value = Vec<Vec<f32>>> {
    arb_rows(40, 1)
}

/// 2 to 39 rows of `dim` components, each zero with probability
/// `zeros / 5`.
fn arb_rows(dim: usize, zeros: u8) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(arb_row(dim, zeros), 2..40)
}

/// One row of `dim` components, each zero with probability `zeros / 5`.
fn arb_row(dim: usize, zeros: u8) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        (0u8..5, -1.0f32..1.0).prop_map(move |(g, v)| if g < zeros { 0.0 } else { v }),
        dim,
    )
}

/// A pool of 1 to 5 rows of `dim` components, and 2 to 59 points that
/// each draw their row from it.
fn arb_pooled_points(dim: usize, zeros: u8) -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<u32>)> {
    (
        proptest::collection::vec(arb_row(dim, zeros), 1..6),
        proptest::collection::vec(0u32..1000, 2..60),
    )
        .prop_map(|(pool, picks)| {
            let rows = pool.len() as u32;
            let row_of = picks.iter().map(|pick| pick % rows).collect();
            (pool, row_of)
        })
}

/// A row's nonzeros as sorted (indices, values).
fn nonzeros(row: &[f32]) -> (Vec<u32>, Vec<f32>) {
    row.iter()
        .enumerate()
        .filter(|(_, &v)| v != 0.0)
        .map(|(j, &v)| (j as u32, v))
        .unzip()
}

/// Two results agree bit for bit: centroids, assignments, inertia and
/// iteration count.
fn same_bits(a: &KMeansResult, b: &KMeansResult, label: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.assignments, &b.assignments, "{}", label);
    prop_assert_eq!(a.inertia.to_bits(), b.inertia.to_bits(), "{}", label);
    prop_assert_eq!(a.iterations, b.iterations, "{}", label);
    prop_assert_eq!(a.centroids.len(), b.centroids.len(), "{}", label);
    for (x, y) in a.centroids.iter().zip(&b.centroids) {
        let xb: Vec<u32> = x.iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(xb, yb, "{}", label);
    }
    Ok(())
}

fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_point_is_assigned_to_its_nearest_centroid(
        data in arb_points(),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let res = kmeans(&data, k, &KMeansConfig::default(), &mut rng);
        for (i, point) in data.iter().enumerate() {
            let own = dist_sq(point, &res.centroids[res.assignments[i]]);
            for centroid in &res.centroids {
                prop_assert!(
                    own <= dist_sq(point, centroid) + 1e-3,
                    "point {} not assigned to nearest centroid",
                    i
                );
            }
        }
    }

    #[test]
    fn inertia_equals_sum_of_squared_distances(
        data in arb_points(),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let res = kmeans(&data, k, &KMeansConfig::default(), &mut rng);
        let recomputed: f32 = data
            .iter()
            .enumerate()
            .map(|(i, p)| dist_sq(p, &res.centroids[res.assignments[i]]))
            .sum();
        let scale = recomputed.abs().max(1.0);
        prop_assert!(
            (res.inertia - recomputed).abs() / scale < 1e-3,
            "inertia {} vs recomputed {}",
            res.inertia,
            recomputed
        );
    }

    #[test]
    fn assignments_form_a_partition(
        data in arb_points(),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let res = kmeans(&data, k, &KMeansConfig::default(), &mut rng);
        prop_assert_eq!(res.assignments.len(), data.len());
        prop_assert!(res.assignments.iter().all(|&a| a < res.k()));
        let sizes = res.cluster_sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), data.len());
        let flattened: usize = res.clusters().iter().map(Vec::len).sum();
        prop_assert_eq!(flattened, data.len());
    }

    #[test]
    fn kmeans_is_deterministic_per_seed(
        data in arb_points(),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let run = || {
            let mut rng = StdRng::seed_from_u64(seed);
            kmeans(&data, k, &KMeansConfig::default(), &mut rng)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.assignments, b.assignments);
        prop_assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn more_clusters_never_increase_inertia_much(
        data in arb_points(),
        seed in 0u64..1000,
    ) {
        prop_assume!(data.len() >= 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let k1 = kmeans(&data, 1, &KMeansConfig::default(), &mut rng);
        let kn = kmeans(&data, data.len(), &KMeansConfig::default(), &mut rng);
        // k = n is always (near) zero inertia; k = 1 is the upper bound.
        prop_assert!(kn.inertia <= k1.inertia + 1e-3);
        prop_assert!(kn.inertia < 1e-3);
    }

    /// The determinism contract: serial (1 thread) and parallel (N
    /// threads) runs of the same configuration are bitwise identical —
    /// assignments, inertia *and* centroids. A small chunk size forces
    /// multi-chunk merging even on these small inputs.
    #[test]
    fn parallel_equals_serial_bitwise(
        data in arb_points(),
        k in 1usize..6,
        seed in 0u64..1000,
        threads in 2usize..6,
    ) {
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = KMeansConfig { threads, chunk: 4, ..KMeansConfig::default() };
            kmeans(&data, k, &config, &mut rng)
        };
        let serial = run(1);
        let parallel = run(threads);
        prop_assert_eq!(&serial.assignments, &parallel.assignments);
        prop_assert_eq!(serial.inertia.to_bits(), parallel.inertia.to_bits());
        prop_assert_eq!(serial.iterations, parallel.iterations);
        for (a, b) in serial.centroids.iter().zip(&parallel.centroids) {
            let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(ab, bb);
        }
    }

    /// The tentpole equivalence property: every kernel × thread-count
    /// combination is bitwise identical to the dense-scalar single-thread
    /// reference — assignments, inertia, centroids, iteration count. In
    /// particular this proves the quantized screen lossless for K-Means:
    /// whatever it prunes, not one output bit moves.
    #[test]
    fn kernels_and_threads_are_bitwise_equivalent(
        data in prop_oneof![arb_sparse_points(), arb_screened_points()],
        k in 1usize..8,
        seed in 0u64..1000,
    ) {
        let run = |kernel: Kernel, threads: usize| {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = KMeansConfig { kernel, threads, chunk: 8, ..KMeansConfig::default() };
            kmeans(&data, k, &config, &mut rng)
        };
        let reference = run(Kernel::DenseScalar, 1);
        for kernel in [Kernel::DenseScalar, Kernel::TiledQuantized] {
            for threads in [1usize, 7] {
                let other = run(kernel, threads);
                prop_assert_eq!(
                    &reference.assignments, &other.assignments,
                    "{:?} threads={}", kernel, threads
                );
                prop_assert_eq!(
                    reference.inertia.to_bits(), other.inertia.to_bits(),
                    "{:?} threads={}", kernel, threads
                );
                prop_assert_eq!(reference.iterations, other.iterations);
                for (a, b) in reference.centroids.iter().zip(&other.centroids) {
                    let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
                    let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(ab, bb, "{:?} threads={}", kernel, threads);
                }
            }
        }
    }

    /// Points that share a row cluster exactly as if each held its own
    /// copy: cold and warm K-Means over a pool of rows plus the row of
    /// every point equal the same calls over the expanded rows (every
    /// point its own row) bit for bit, under both kernels at 1 and 7
    /// threads, on each side of the i8 screen's gate. k runs past the
    /// pool's size, so clusters go empty and are reseeded.
    #[test]
    fn shared_rows_cluster_like_expanded_rows(
        (pool, row_of) in prop_oneof![arb_pooled_points(24, 3), arb_pooled_points(40, 1)],
        k in 1usize..12,
        extra in 1usize..4,
        seed in 0u64..1000,
    ) {
        let dim = pool[0].len();
        let sparse: Vec<(Vec<u32>, Vec<f32>)> = pool.iter().map(|r| nonzeros(r)).collect();
        let rows: Vec<(&[u32], &[f32])> =
            sparse.iter().map(|(i, v)| (i.as_slice(), v.as_slice())).collect();
        let expanded_rows: Vec<(&[u32], &[f32])> =
            row_of.iter().map(|&r| rows[r as usize]).collect();
        let collapsed = Points::from_sparse_row_map(dim, &rows, row_of.clone());
        let expanded = Points::from_sparse_rows(dim, &expanded_rows);
        prop_assert_eq!(collapsed.n(), expanded.n());
        prop_assert_eq!(collapsed.density().to_bits(), expanded.density().to_bits());
        for kernel in [Kernel::DenseScalar, Kernel::TiledQuantized] {
            for threads in [1usize, 7] {
                let config = KMeansConfig { kernel, threads, chunk: 8, ..KMeansConfig::default() };
                let run = |points: &Points| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let cold = kmeans_points(points, k, &config, &mut rng);
                    let warm = kmeans_warm_points(points, &cold.centroids, extra, &config, &mut rng);
                    (cold, warm)
                };
                let (cold, warm) = run(&expanded);
                let (shared_cold, shared_warm) = run(&collapsed);
                let label = format!("{kernel:?} threads={threads}");
                same_bits(&cold, &shared_cold, &format!("cold {label}"))?;
                same_bits(&warm, &shared_warm, &format!("warm {label}"))?;
            }
        }
    }

    /// The refinement screen's certificate, stressed directly: for every
    /// pair the i8 window must contain the exact f32 dot, and the
    /// pruned+rescored pair set at any threshold must equal brute force.
    #[test]
    fn quantized_pair_screen_is_lossless(
        data in arb_sparse_points(),
        threshold in -0.5f32..1.0,
    ) {
        // L2-normalize (zero rows stay zero), like embedder output.
        let rows: Vec<Vec<f32>> = data
            .iter()
            .map(|r| {
                let n = r.iter().map(|v| v * v).sum::<f32>().sqrt();
                if n == 0.0 { r.clone() } else { r.iter().map(|v| v / n).collect() }
            })
            .collect();
        let points = Points::from_dense_rows(&rows);
        let quant = points.quant();
        for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                let exact = dense_dot(&rows[i], &rows[j]);
                let (ai, av) = points.sparse().row(i);
                let (bi, bv) = points.sparse().row(j);
                // Sparse and dense exact kernels agree (zero-sign aside).
                prop_assert_eq!(
                    (exact + 0.0).to_bits(),
                    (sparse_dot_sparse(ai, av, bi, bv) + 0.0).to_bits()
                );
                // The certified window contains the exact kernel value.
                let (approx, err) = quant.dot_window(i, quant, j);
                prop_assert!(
                    (f64::from(exact) - approx).abs() <= err,
                    "window missed: exact {} vs {} ± {}", exact, approx, err
                );
                // Screen + rescore decides exactly like brute force.
                let brute = exact.clamp(-1.0, 1.0) >= threshold;
                let screened = if quant.pair_upper_bound(i, quant, j) < f64::from(threshold) {
                    false
                } else {
                    exact.clamp(-1.0, 1.0) >= threshold
                };
                prop_assert_eq!(brute, screened, "pair ({}, {})", i, j);
            }
        }
    }

    /// Warm starts obey the same invariants as cold starts: a valid
    /// partition, and never a worse objective than the run they extend.
    #[test]
    fn warm_start_extends_without_regressing(
        data in arb_points(),
        k in 1usize..4,
        extra in 1usize..4,
        seed in 0u64..1000,
    ) {
        prop_assume!(data.len() >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let coarse = kmeans(&data, k, &KMeansConfig::default(), &mut rng);
        let fine = kmeans_warm(&data, &coarse.centroids, extra, &KMeansConfig::default(), &mut rng);
        prop_assert_eq!(fine.k(), (coarse.k() + extra).min(data.len()));
        prop_assert_eq!(fine.assignments.len(), data.len());
        prop_assert!(fine.assignments.iter().all(|&a| a < fine.k()));
        prop_assert!(
            fine.inertia <= coarse.inertia * 1.001 + 1e-3,
            "warm start regressed: {} vs {}",
            fine.inertia,
            coarse.inertia
        );
    }
}
