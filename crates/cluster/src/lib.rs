//! K-Means clustering, from scratch.
//!
//! The paper clusters package embeddings with scikit-learn's K-Means:
//! "The initial number of clusters is set to 3, and we increase the number
//! of clusters until the centroids of newly formed clusters do not change"
//! (§III-A). This crate reimplements that pipeline around a parallel,
//! deterministic, warm-startable Lloyd engine:
//!
//! * [`kmeans`] — k-means++ seeding + parallel Lloyd iterations;
//! * [`kmeans_warm`] — keeps a previous run's centroids and
//!   k-means++-seeds only the new ones, which is what makes the grow-k
//!   schedule cheap (each step refines instead of restarting);
//! * [`auto_kmeans`] — the paper's grow-k-until-stable schedule;
//! * [`metrics`] — silhouette score, adjusted Rand index and inertia, used
//!   by the validation tests and the ablation benchmarks.
//!
//! Points are plain `&[f32]` slices so the crate has no dependency on the
//! embedding layer.
//!
//! # Determinism contract
//!
//! [`kmeans`] and [`kmeans_warm`] produce **bitwise identical** results
//! at any [`KMeansConfig::threads`] setting: the engine processes points
//! in fixed-size chunks (boundaries independent of the thread count) and
//! merges per-chunk partial sums in chunk-index order, so the
//! floating-point summation tree — and therefore every centroid,
//! assignment and the inertia — does not depend on scheduling. See
//! `engine.rs` for the full contract; keep it when touching parallelism.
//!
//! # Examples
//!
//! ```
//! use cluster::{kmeans, KMeansConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let data = vec![
//!     vec![0.0, 0.0], vec![0.1, 0.0], vec![10.0, 10.0], vec![10.1, 10.0],
//! ];
//! let mut rng = StdRng::seed_from_u64(1);
//! let result = kmeans(&data, 2, &KMeansConfig::default(), &mut rng);
//! assert_eq!(result.assignments[0], result.assignments[1]);
//! assert_ne!(result.assignments[0], result.assignments[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod matrix;
pub mod metrics;

pub use matrix::{PointMatrix, Points, QuantMatrix, SparsePoints};

use rand::Rng;

/// Which assignment kernel the Lloyd engine runs.
///
/// Both produce **bitwise identical** results — they share one
/// summation order and one candidate-scan order, and the quantized
/// screen only skips candidates provably unable to win (see
/// `engine.rs`). The enum exists so benchmarks and the equivalence
/// suites can pit the default against its reference; production
/// callers keep the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// The seed engine's straight loop over dense rows — baseline and
    /// bitwise reference.
    DenseScalar,
    /// Cache-tiled point×centroid loop over sparse exact dots, with the
    /// certified i8 screen in front of every exact distance when the
    /// data is wide and dense enough for the screen to pay (the engine
    /// decides from the points, never from an option).
    #[default]
    TiledQuantized,
}

/// Tuning knobs for Lloyd's algorithm.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Maximum Lloyd iterations per run.
    pub max_iters: usize,
    /// Convergence threshold on total centroid movement (squared).
    pub tolerance: f32,
    /// Worker threads for the assignment/accumulation passes; `0` means
    /// `available_parallelism`. Any value yields bitwise identical
    /// results (see the crate-level determinism contract).
    pub threads: usize,
    /// Points per work chunk of the parallel passes. Changing it changes
    /// the floating-point summation grouping (legitimately different
    /// rounding); changing [`KMeansConfig::threads`] never does, because
    /// chunk boundaries are independent of the thread count.
    pub chunk: usize,
    /// Assignment kernel. Every variant is bitwise-equivalent; see
    /// [`Kernel`].
    pub kernel: Kernel,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            max_iters: 100,
            tolerance: 1e-6,
            threads: 0,
            chunk: engine::DEFAULT_CHUNK,
            kernel: Kernel::default(),
        }
    }
}

/// Result of one K-Means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Final centroids, `k` of them.
    pub centroids: Vec<Vec<f32>>,
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f32,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeansResult {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Sizes of each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// Groups point indices by cluster.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.k()];
        for (i, &a) in self.assignments.iter().enumerate() {
            groups[a].push(i);
        }
        groups
    }
}

/// Runs K-Means with k-means++ initialization on the parallel engine.
///
/// If `k >= data.len()`, every point becomes its own cluster.
///
/// # Panics
///
/// Panics if `data` is empty, `k == 0`, or points have inconsistent
/// dimensions.
pub fn kmeans<P: AsRef<[f32]>>(
    data: &[P],
    k: usize,
    config: &KMeansConfig,
    rng: &mut impl Rng,
) -> KMeansResult {
    kmeans_points(&Points::from_dense_rows(data), k, config, rng)
}

/// [`kmeans`] over a pre-built [`Points`] structure — the layout is
/// built once and shared across the grow-k schedule instead of being
/// re-derived per run.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn kmeans_points(
    points: &Points,
    k: usize,
    config: &KMeansConfig,
    rng: &mut impl Rng,
) -> KMeansResult {
    assert!(k > 0, "k must be positive");
    let k = k.min(points.n());
    let centroids = seed_plus_plus(points.matrix(), Vec::new(), k, rng);
    engine::lloyd(points, centroids, config)
}

/// Runs K-Means warm-started from a previous run's centroids, adding
/// `extra_k` freshly k-means++-seeded clusters.
///
/// The kept centroids are already near their basins, so Lloyd typically
/// converges in a handful of iterations — this is what turns the grow-k
/// schedule from "restart from scratch at every k" into incremental
/// refinement. The total `prev_centroids.len() + extra_k` is clamped to
/// `data.len()`.
///
/// # Panics
///
/// Panics if `data` is empty, `prev_centroids.len() + extra_k == 0`, or
/// any point/centroid dimension is inconsistent.
pub fn kmeans_warm<P: AsRef<[f32]>>(
    data: &[P],
    prev_centroids: &[Vec<f32>],
    extra_k: usize,
    config: &KMeansConfig,
    rng: &mut impl Rng,
) -> KMeansResult {
    kmeans_warm_points(
        &Points::from_dense_rows(data),
        prev_centroids,
        extra_k,
        config,
        rng,
    )
}

/// [`kmeans_warm`] over a pre-built [`Points`] structure.
///
/// # Panics
///
/// Panics if `prev_centroids.len() + extra_k == 0` or any centroid
/// dimension is inconsistent with the points.
pub fn kmeans_warm_points(
    points: &Points,
    prev_centroids: &[Vec<f32>],
    extra_k: usize,
    config: &KMeansConfig,
    rng: &mut impl Rng,
) -> KMeansResult {
    assert!(
        !prev_centroids.is_empty() || extra_k > 0,
        "k must be positive"
    );
    assert!(
        prev_centroids.iter().all(|c| c.len() == points.dim()),
        "inconsistent point dimensions"
    );
    let k = (prev_centroids.len() + extra_k).min(points.n());
    let mut centroids: Vec<Vec<f32>> = prev_centroids.iter().take(k).cloned().collect();
    obs::counter_add("kmeans.warm_starts", 1);
    obs::counter_add("kmeans.warm_kept_centroids", centroids.len() as u64);
    if centroids.len() < k {
        centroids = seed_plus_plus(points.matrix(), centroids, k, rng);
    }
    engine::lloyd(points, centroids, config)
}

/// k-means++ seeding, continuing from `existing` centroids (empty for a
/// cold start): the first missing centroid is uniform (cold) or sampled
/// against the existing ones (warm), then each next centroid is sampled
/// proportionally to squared distance from the nearest chosen one.
fn seed_plus_plus(
    points: &PointMatrix,
    existing: Vec<Vec<f32>>,
    k: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<f32>> {
    let n = points.n();
    let mut centroids = existing;
    let mut dists: Vec<f32>;
    if centroids.is_empty() {
        let first = rng.gen_range(0..n);
        centroids.push(points.row(first).to_vec());
        dists = (0..n)
            .map(|i| engine::distance_sq(points.row(i), &centroids[0]))
            .collect();
    } else {
        dists = (0..n)
            .map(|i| {
                centroids
                    .iter()
                    .map(|c| engine::distance_sq(points.row(i), c))
                    .fold(f32::INFINITY, f32::min)
            })
            .collect();
    }
    while centroids.len() < k {
        let total: f32 = dists.iter().sum();
        let chosen = if total <= f32::EPSILON {
            // All points coincide with chosen centroids; pick uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut idx = 0;
            for (i, &d) in dists.iter().enumerate() {
                if target < d {
                    idx = i;
                    break;
                }
                target -= d;
                idx = i;
            }
            idx
        };
        centroids.push(points.row(chosen).to_vec());
        let last = centroids.last().expect("just pushed");
        for (i, d) in dists.iter_mut().enumerate() {
            *d = d.min(engine::distance_sq(points.row(i), last));
        }
    }
    centroids
}

/// Outcome of the paper's grow-k schedule.
#[derive(Debug, Clone)]
pub struct AutoKResult {
    /// The selected clustering.
    pub result: KMeansResult,
    /// Every `k` that was tried, with its inertia, for the ablation bench.
    pub trace: Vec<(usize, f32)>,
}

/// The paper's cluster-count schedule: start at `k = 3` and grow `k`
/// until the *newly formed* clusters stop changing the solution — here
/// measured as the relative inertia improvement dropping below
/// `min_improvement` (default 5%), the standard elbow reading of
/// "centroids of newly formed clusters do not change".
///
/// # Panics
///
/// Panics if `data` is empty (see [`kmeans`]).
pub fn auto_kmeans<P: AsRef<[f32]>>(
    data: &[P],
    config: &KMeansConfig,
    min_improvement: f32,
    max_k: usize,
    rng: &mut impl Rng,
) -> AutoKResult {
    let mut k = 3.min(data.len());
    let mut best = kmeans(data, k, config, rng);
    let mut trace = vec![(k, best.inertia)];
    while k < max_k.min(data.len()) {
        let next = kmeans(data, k + 1, config, rng);
        trace.push((k + 1, next.inertia));
        let improvement = if best.inertia <= f32::EPSILON {
            0.0
        } else {
            (best.inertia - next.inertia) / best.inertia
        };
        if improvement < min_improvement {
            break;
        }
        best = next;
        k += 1;
    }
    AutoKResult {
        result: best,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs(centers: &[(f32, f32)], per: usize, spread: f32, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per {
                data.push(vec![
                    cx + rng.gen_range(-spread..spread),
                    cy + rng.gen_range(-spread..spread),
                ]);
            }
        }
        data
    }

    fn with_threads(threads: usize) -> KMeansConfig {
        KMeansConfig {
            threads,
            ..KMeansConfig::default()
        }
    }

    #[test]
    fn separates_well_separated_blobs() {
        let data = blobs(&[(0.0, 0.0), (10.0, 10.0), (20.0, 0.0)], 30, 0.5, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let res = kmeans(&data, 3, &KMeansConfig::default(), &mut rng);
        let sizes = res.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 90);
        assert!(sizes.iter().all(|&s| s == 30), "sizes {sizes:?}");
    }

    #[test]
    fn inertia_decreases_with_k() {
        let data = blobs(&[(0.0, 0.0), (8.0, 8.0)], 25, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let one = kmeans(&data, 1, &KMeansConfig::default(), &mut rng);
        let two = kmeans(&data, 2, &KMeansConfig::default(), &mut rng);
        assert!(two.inertia < one.inertia);
    }

    #[test]
    fn k_equal_n_gives_zero_inertia() {
        let data = blobs(&[(0.0, 0.0)], 5, 1.0, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let res = kmeans(&data, 5, &KMeansConfig::default(), &mut rng);
        assert!(res.inertia < 1e-6);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let data = blobs(&[(0.0, 0.0)], 4, 0.5, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let res = kmeans(&data, 10, &KMeansConfig::default(), &mut rng);
        assert_eq!(res.k(), 4);
    }

    #[test]
    fn identical_points_dont_crash() {
        let data = vec![vec![1.0, 1.0]; 10];
        let mut rng = StdRng::seed_from_u64(9);
        let res = kmeans(&data, 3, &KMeansConfig::default(), &mut rng);
        assert!(res.inertia < 1e-9);
    }

    #[test]
    fn single_point() {
        let data = vec![vec![2.0, 3.0]];
        let mut rng = StdRng::seed_from_u64(10);
        let res = kmeans(&data, 1, &KMeansConfig::default(), &mut rng);
        assert_eq!(res.assignments, vec![0]);
        assert_eq!(res.centroids[0], vec![2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_data_panics() {
        let data: Vec<Vec<f32>> = vec![];
        let mut rng = StdRng::seed_from_u64(11);
        kmeans(&data, 2, &KMeansConfig::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let data = vec![vec![0.0]];
        let mut rng = StdRng::seed_from_u64(12);
        kmeans(&data, 0, &KMeansConfig::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn mismatched_dims_panic() {
        let data = vec![vec![0.0], vec![0.0, 1.0]];
        let mut rng = StdRng::seed_from_u64(13);
        kmeans(&data, 1, &KMeansConfig::default(), &mut rng);
    }

    #[test]
    fn auto_k_finds_roughly_the_right_count() {
        let data = blobs(
            &[
                (0.0, 0.0),
                (15.0, 0.0),
                (0.0, 15.0),
                (15.0, 15.0),
                (30.0, 30.0),
            ],
            25,
            0.8,
            14,
        );
        let mut rng = StdRng::seed_from_u64(15);
        // 25% threshold: splitting a true blob only buys ~10% inertia,
        // while recovering a merged blob buys far more.
        let auto = auto_kmeans(&data, &KMeansConfig::default(), 0.25, 20, &mut rng);
        assert!(
            (4..=7).contains(&auto.result.k()),
            "expected ~5 clusters, got {}",
            auto.result.k()
        );
        assert!(auto.trace.len() >= 2);
    }

    #[test]
    fn auto_k_starts_at_three() {
        let data = blobs(&[(0.0, 0.0)], 30, 0.5, 16);
        let mut rng = StdRng::seed_from_u64(17);
        let auto = auto_kmeans(&data, &KMeansConfig::default(), 0.05, 20, &mut rng);
        assert_eq!(auto.trace[0].0, 3, "paper starts the schedule at k=3");
    }

    #[test]
    fn clusters_partition_the_input() {
        let data = blobs(&[(0.0, 0.0), (9.0, 9.0)], 20, 1.0, 18);
        let mut rng = StdRng::seed_from_u64(19);
        let res = kmeans(&data, 2, &KMeansConfig::default(), &mut rng);
        let mut seen: Vec<usize> = res.clusters().into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
    }

    /// Random unclustered data: the hardest case for bitwise equality,
    /// because near-ties abound. The determinism contract demands exact
    /// bit equality of assignments, centroids and inertia across thread
    /// counts.
    #[test]
    fn thread_count_does_not_change_bits() {
        let mut rng = StdRng::seed_from_u64(20);
        let data: Vec<Vec<f32>> = (0..2500)
            .map(|_| (0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(21);
            kmeans(&data, 7, &with_threads(threads), &mut rng)
        };
        let one = run(1);
        for threads in [2, 3, 5, 8] {
            let many = run(threads);
            assert_eq!(one.assignments, many.assignments, "threads={threads}");
            assert_eq!(
                one.inertia.to_bits(),
                many.inertia.to_bits(),
                "threads={threads}"
            );
            for (a, b) in one.centroids.iter().zip(&many.centroids) {
                let (ab, bb): (Vec<u32>, Vec<u32>) = (
                    a.iter().map(|v| v.to_bits()).collect(),
                    b.iter().map(|v| v.to_bits()).collect(),
                );
                assert_eq!(ab, bb, "threads={threads}");
            }
            assert_eq!(one.iterations, many.iterations, "threads={threads}");
        }
    }

    /// Both assignment kernels on near-tie-riddled sparse data, on each
    /// side of the i8 screen's gate — so the default runs its unscreened
    /// and its screened kernel: the kernel choice must never leak into a
    /// single output bit.
    #[test]
    fn kernels_agree_bitwise() {
        for (density, screened) in [(0.3, false), (0.5, true)] {
            let mut rng = StdRng::seed_from_u64(33);
            let data: Vec<Vec<f32>> = (0..600)
                .map(|_| {
                    (0..48)
                        .map(|_| {
                            if rng.gen_bool(density) {
                                rng.gen_range(-1.0f32..1.0)
                            } else {
                                0.0
                            }
                        })
                        .collect()
                })
                .collect();
            let points = Points::from_dense_rows(&data);
            assert_eq!(
                points.dim() >= engine::MIN_SCREEN_DIM
                    && points.density() >= engine::MIN_SCREEN_DENSITY,
                screened,
                "density {density}: wrong side of the screen's gate"
            );
            let run = |kernel: Kernel| {
                let mut rng = StdRng::seed_from_u64(34);
                let config = KMeansConfig {
                    kernel,
                    ..KMeansConfig::default()
                };
                kmeans(&data, 9, &config, &mut rng)
            };
            let reference = run(Kernel::DenseScalar);
            let other = run(Kernel::TiledQuantized);
            assert_eq!(reference.assignments, other.assignments, "{density}");
            assert_eq!(
                reference.inertia.to_bits(),
                other.inertia.to_bits(),
                "{density}"
            );
            assert_eq!(reference.iterations, other.iterations, "{density}");
            for (a, b) in reference.centroids.iter().zip(&other.centroids) {
                let (ab, bb): (Vec<u32>, Vec<u32>) = (
                    a.iter().map(|v| v.to_bits()).collect(),
                    b.iter().map(|v| v.to_bits()).collect(),
                );
                assert_eq!(ab, bb, "{density}");
            }
        }
    }

    /// Warm-starting with a hopeless extra centroid exercises the
    /// empty-cluster re-seed: the far centroid captures nothing on the
    /// first pass and must be re-seeded onto a real point.
    #[test]
    fn empty_cluster_is_reseeded() {
        let data = blobs(&[(0.0, 0.0), (5.0, 5.0)], 20, 0.5, 22);
        let prev = vec![vec![0.0, 0.0], vec![5.0, 5.0], vec![1.0e6, 1.0e6]];
        let mut rng = StdRng::seed_from_u64(23);
        let res = kmeans_warm(&data, &prev, 0, &KMeansConfig::default(), &mut rng);
        assert_eq!(res.k(), 3);
        assert!(res.inertia.is_finite());
        assert!(
            res.cluster_sizes().iter().all(|&s| s > 0),
            "re-seed must put every cluster to work: {:?}",
            res.cluster_sizes()
        );
    }

    #[test]
    fn warm_start_keeps_and_extends_centroids() {
        let data = blobs(
            &[(0.0, 0.0), (12.0, 0.0), (0.0, 12.0), (12.0, 12.0)],
            25,
            0.5,
            24,
        );
        let mut rng = StdRng::seed_from_u64(25);
        let coarse = kmeans(&data, 2, &KMeansConfig::default(), &mut rng);
        let fine = kmeans_warm(
            &data,
            &coarse.centroids,
            2,
            &KMeansConfig::default(),
            &mut rng,
        );
        assert_eq!(fine.k(), 4);
        assert!(
            fine.inertia < coarse.inertia / 2.0,
            "extra centroids must recover merged blobs: {} vs {}",
            fine.inertia,
            coarse.inertia
        );
        let sizes = fine.cluster_sizes();
        assert!(sizes.iter().all(|&s| s == 25), "sizes {sizes:?}");
    }

    #[test]
    fn warm_start_with_k_beyond_n_is_clamped() {
        let data = blobs(&[(0.0, 0.0)], 4, 0.5, 26);
        let prev = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let mut rng = StdRng::seed_from_u64(27);
        let res = kmeans_warm(&data, &prev, 10, &KMeansConfig::default(), &mut rng);
        assert_eq!(res.k(), 4);
    }

    #[test]
    fn warm_start_on_identical_points() {
        let data = vec![vec![3.0, 3.0]; 8];
        let prev = vec![vec![3.0, 3.0]];
        let mut rng = StdRng::seed_from_u64(28);
        let res = kmeans_warm(&data, &prev, 2, &KMeansConfig::default(), &mut rng);
        assert!(res.inertia < 1e-9);
        assert_eq!(res.assignments.len(), 8);
    }
}
