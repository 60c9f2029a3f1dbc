//! Data layout and vector kernels for the clustering hot paths.
//!
//! The seed engine streamed `Vec<&[f32]>` — one pointer chase per point,
//! rows scattered across the heap — and paid a full `dim`-wide scalar
//! f32 dot per (point, centroid) candidate. This module owns the layout
//! instead:
//!
//! * [`PointMatrix`] — an owned row-major SoA matrix with rows padded to
//!   a 64-byte stride, built once per clustering call, so passes stream
//!   contiguous memory;
//! * [`SparsePoints`] — a CSR view of the same points (feature-hashed
//!   embeddings touch a few hundred of 3072 buckets), powering exact
//!   sparse·dense dots at O(nnz) instead of O(dim);
//! * [`QuantMatrix`] — per-row-scaled i8 quantization with a
//!   *conservative* error bound: the coarse integer pass can only skip
//!   candidates **provably** outside the threshold / current best, and
//!   every survivor is rescored in exact f32, so pruned results are
//!   guaranteed identical to the brute-force path, not just close;
//! * [`Points`] — the three over a point set's *distinct* rows, plus the
//!   row of every point, so repeated vectors are stored and scored once.
//!
//! # Determinism and bitwise equivalence
//!
//! The exact f32 kernels ([`dense_dot`], [`sparse_dot_dense`],
//! [`sparse_dot_sparse`]) all accumulate in **ascending index order** —
//! the seed engine's summation tree. The sparse kernels merely skip
//! terms in which one factor is zero; a skipped `±0.0` term can only
//! flip the sign of an all-zero partial sum, which no downstream
//! comparison or arithmetic distinguishes. The quantized kernel is pure
//! integer arithmetic (associative, exact), so its 8-lane unrolled loop
//! is reorderable for free; its f32-facing *bound* is computed in f64
//! with explicit slack for every rounding step between the real dot and
//! the f32 kernel value. Together: any mix of these kernels produces
//! bitwise-identical clustering output to the dense-scalar engine.

use std::sync::OnceLock;

/// Row stride granularity in f32 lanes: 16 lanes = 64 bytes, one cache
/// line, so row starts are cache-line aligned relative to the buffer
/// base and the 8-lane unrolled kernels never straddle a row boundary.
pub const ROW_ALIGN: usize = 16;

/// Unit roundoff slack per accumulated element of the exact f32 kernels
/// (`γ_n ≈ n·ε` with ε = 2⁻²⁴, inflated ×2 for safety).
const FP_DOT_SLACK_PER_ELEM: f64 = 1.2e-7;

/// Fp-safe half-step of the integer quantization grid (0.5 plus the
/// worst-case rounding of the f32 divide feeding `round()`).
const QUANT_HALF_STEP: f64 = 0.5004;

fn round_up(v: usize, to: usize) -> usize {
    v.div_ceil(to) * to
}

/// An owned, row-major matrix of `n` points × `dim` components, rows
/// padded with zeros to a [`ROW_ALIGN`]-lane stride.
#[derive(Debug, Clone)]
pub struct PointMatrix {
    data: Vec<f32>,
    n: usize,
    dim: usize,
    stride: usize,
}

impl PointMatrix {
    /// Copies `rows` (all of equal length) into matrix form.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows<P: AsRef<[f32]>>(rows: &[P]) -> Self {
        let dim = rows.first().map_or(0, |r| r.as_ref().len());
        let stride = round_up(dim.max(1), ROW_ALIGN);
        let mut data = vec![0.0f32; rows.len() * stride];
        for (i, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            assert_eq!(row.len(), dim, "inconsistent point dimensions");
            data[i * stride..i * stride + dim].copy_from_slice(row);
        }
        PointMatrix {
            data,
            n: rows.len(),
            dim,
            stride,
        }
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Components per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a `dim`-long slice (padding excluded).
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.stride..i * self.stride + self.dim]
    }
}

/// CSR view of the nonzero structure of a point set.
#[derive(Debug, Clone, Default)]
pub struct SparsePoints {
    indices: Vec<u32>,
    values: Vec<f32>,
    offsets: Vec<usize>,
}

impl SparsePoints {
    /// Extracts the nonzero structure of `matrix`.
    pub fn from_matrix(matrix: &PointMatrix) -> Self {
        let mut sp = SparsePoints {
            indices: Vec::new(),
            values: Vec::new(),
            offsets: Vec::with_capacity(matrix.n + 1),
        };
        sp.offsets.push(0);
        for i in 0..matrix.n {
            for (j, &v) in matrix.row(i).iter().enumerate() {
                if v != 0.0 {
                    sp.indices.push(j as u32);
                    sp.values.push(v);
                }
            }
            sp.offsets.push(sp.indices.len());
        }
        sp
    }

    /// Row `i` as parallel (sorted indices, values) slices.
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Total stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }
}

/// A clustering input: its distinct rows — the dense matrix, their
/// sparse view and a lazily built quantized companion — plus the row of
/// every point, built **once** per clustering / `similar_pairs` call and
/// shared by every pass that needs it.
///
/// Points that repeat a vector share its row, so every per-row quantity
/// (norms, quantization, nearest centroid) is computed once per distinct
/// row; [`Points::matrix`], [`Points::sparse`] and [`Points::quant`] are
/// indexed by row, and [`Points::row_of`] maps a point to its row.
/// [`Points::from_dense_rows`] and [`Points::from_sparse_rows`] give every
/// point its own row.
#[derive(Debug)]
pub struct Points {
    matrix: PointMatrix,
    sparse: SparsePoints,
    quant: OnceLock<QuantMatrix>,
    row_of: Vec<u32>,
    /// Nonzeros summed over the points, a shared row counted per point.
    point_nnz: usize,
}

impl Points {
    /// Builds from dense rows, one point per row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty ("cannot cluster an empty dataset") or
    /// rows have inconsistent dimensions.
    pub fn from_dense_rows<P: AsRef<[f32]>>(rows: &[P]) -> Self {
        assert!(!rows.is_empty(), "cannot cluster an empty dataset");
        let matrix = PointMatrix::from_rows(rows);
        let sparse = SparsePoints::from_matrix(&matrix);
        Points {
            row_of: identity(rows.len()),
            point_nnz: sparse.nnz(),
            matrix,
            sparse,
            quant: OnceLock::new(),
        }
    }

    /// Builds from sparse rows (sorted index/value pairs per row) of a
    /// fixed dimensionality, one point per row — the zero-densification
    /// path the embedding stage uses.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, indices are unsorted/duplicated, or an
    /// index is out of range for `dim`.
    pub fn from_sparse_rows(dim: usize, rows: &[(&[u32], &[f32])]) -> Self {
        Self::from_sparse_row_map(dim, rows, identity(rows.len()))
    }

    /// Builds from distinct sparse rows and the row of every point:
    /// point `i` is `rows[row_of[i]]`. Rows are expected to be distinct
    /// and each used by some point; neither is needed for correctness,
    /// only for the saving.
    ///
    /// # Panics
    ///
    /// Panics if `row_of` is empty, a point's row is out of range, or a
    /// row is malformed as in [`Points::from_sparse_rows`].
    pub fn from_sparse_row_map(dim: usize, rows: &[(&[u32], &[f32])], row_of: Vec<u32>) -> Self {
        assert!(!row_of.is_empty(), "cannot cluster an empty dataset");
        let stride = round_up(dim.max(1), ROW_ALIGN);
        let mut data = vec![0.0f32; rows.len() * stride];
        let mut sp = SparsePoints::default();
        sp.offsets.push(0);
        for (i, &(indices, values)) in rows.iter().enumerate() {
            assert_eq!(indices.len(), values.len(), "index/value length mismatch");
            assert!(
                indices.windows(2).all(|w| w[0] < w[1]),
                "indices must be strictly ascending"
            );
            for (&j, &v) in indices.iter().zip(values) {
                assert!((j as usize) < dim, "inconsistent point dimensions");
                data[i * stride + j as usize] = v;
            }
            sp.indices.extend_from_slice(indices);
            sp.values.extend_from_slice(values);
            sp.offsets.push(sp.indices.len());
        }
        let point_nnz = row_of
            .iter()
            .map(|&r| {
                let r = r as usize;
                assert!(r < rows.len(), "point row out of range");
                sp.offsets[r + 1] - sp.offsets[r]
            })
            .sum();
        Points {
            matrix: PointMatrix {
                data,
                n: rows.len(),
                dim,
                stride,
            },
            sparse: sp,
            quant: OnceLock::new(),
            row_of,
            point_nnz,
        }
    }

    /// The dense matrix of the distinct rows.
    pub fn matrix(&self) -> &PointMatrix {
        &self.matrix
    }

    /// The sparse (CSR) view of the distinct rows.
    pub fn sparse(&self) -> &SparsePoints {
        &self.sparse
    }

    /// The quantized companion of the distinct rows, built on first use
    /// and cached.
    pub fn quant(&self) -> &QuantMatrix {
        self.quant
            .get_or_init(|| QuantMatrix::from_matrix(&self.matrix))
    }

    /// The row of every point.
    pub fn row_of(&self) -> &[u32] {
        &self.row_of
    }

    /// Number of points.
    pub fn n(&self) -> usize {
        self.row_of.len()
    }

    /// Number of distinct rows.
    pub fn n_rows(&self) -> usize {
        self.matrix.n
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.matrix.dim
    }

    /// Fraction of the points' components that are nonzero, each point
    /// counted with its row, so sharing rows does not move it.
    pub fn density(&self) -> f64 {
        if self.matrix.dim == 0 {
            return 0.0;
        }
        self.point_nnz as f64 / (self.n() * self.matrix.dim) as f64
    }
}

/// The row map that gives every point its own row.
fn identity(n: usize) -> Vec<u32> {
    (0..u32::try_from(n).expect("too many points")).collect()
}

/// Per-row-scaled i8 quantization of a [`PointMatrix`], with the cached
/// per-row statistics ([`QuantMatrix::dot_window`] needs) to turn an
/// integer dot into a *certified* interval around the exact f32 dot.
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    q: Vec<i8>,
    n: usize,
    dim: usize,
    stride: usize,
    /// Per-row dequantization scale (`max |v| / 127`).
    scale: Vec<f64>,
    /// Per-row quantized L1 mass `Σ |scale·qᵢ|` (upper bound, f64).
    l1: Vec<f64>,
    /// Per-row Euclidean norm (upper bound, f64).
    norm2: Vec<f64>,
}

impl QuantMatrix {
    /// Quantizes every row of `matrix`.
    pub fn from_matrix(matrix: &PointMatrix) -> Self {
        Self::from_row_iter(matrix.n, matrix.dim, (0..matrix.n).map(|i| matrix.row(i)))
    }

    /// Quantizes free-standing rows (the per-iteration centroid set).
    ///
    /// # Panics
    ///
    /// Panics if a row's length differs from `dim`.
    pub fn from_rows<P: AsRef<[f32]>>(dim: usize, rows: &[P]) -> Self {
        rows.iter().for_each(|r| {
            assert_eq!(r.as_ref().len(), dim, "inconsistent point dimensions");
        });
        Self::from_row_iter(rows.len(), dim, rows.iter().map(|r| r.as_ref()))
    }

    fn from_row_iter<'a>(n: usize, dim: usize, rows: impl Iterator<Item = &'a [f32]>) -> Self {
        let stride = round_up(dim.max(1), ROW_ALIGN * 4); // 64 i8 = one cache line
        let mut q = vec![0i8; n * stride];
        let mut scale = Vec::with_capacity(n);
        let mut l1 = Vec::with_capacity(n);
        let mut norm2 = Vec::with_capacity(n);
        for (i, row) in rows.enumerate() {
            let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let s = if max_abs > 0.0 && max_abs.is_finite() {
                max_abs / 127.0
            } else {
                0.0
            };
            let mut qsum = 0u64;
            let mut sq = 0.0f64;
            if s > 0.0 {
                let out = &mut q[i * stride..i * stride + dim];
                for (slot, &v) in out.iter_mut().zip(row) {
                    let quantized = (v / s).round().clamp(-127.0, 127.0) as i32;
                    *slot = quantized as i8;
                    qsum += quantized.unsigned_abs() as u64;
                    sq += f64::from(v) * f64::from(v);
                }
            } else {
                for &v in row {
                    sq += f64::from(v) * f64::from(v);
                }
            }
            scale.push(f64::from(s));
            l1.push(f64::from(s) * qsum as f64 * (1.0 + 1e-9));
            norm2.push(sq.sqrt() * (1.0 + 1e-9));
        }
        QuantMatrix {
            q,
            n,
            dim,
            stride,
            scale,
            l1,
            norm2,
        }
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row `i` including its zero padding (safe to dot full-stride).
    fn padded_row(&self, i: usize) -> &[i8] {
        &self.q[i * self.stride..(i + 1) * self.stride]
    }

    /// Upper bound (f64, certified) on the row-`i` Euclidean norm.
    pub fn norm2(&self, i: usize) -> f64 {
        self.norm2[i]
    }

    /// A certified window around the **exact f32 kernel's** dot of row
    /// `i` of `self` with row `j` of `other`: returns `(approx, err)`
    /// such that `|fl32_dot − approx| ≤ err`.
    ///
    /// Derivation (all in f64, inflated at every step): writing row
    /// components as `vᵢ = s_a·qᵢ + eᵢ` with `|eᵢ| ≤ `[`QUANT_HALF_STEP`]`·s_a`
    /// (zero rows quantize exactly, so `eᵢ = 0` there too),
    ///
    /// ```text
    /// Σ vᵢwᵢ = s_a·s_b·Q  +  Σ eᵢ(s_b·rᵢ)  +  Σ (s_a·qᵢ)fᵢ  +  Σ eᵢfᵢ
    /// |quant err| ≤ h·s_a·L1_b + h·s_b·L1_a + h²·s_a·s_b·dim
    /// ```
    ///
    /// with `h = `[`QUANT_HALF_STEP`], plus the f32 summation slack of
    /// the exact kernel, `γ_dim·‖a‖₂‖b‖₂` (Cauchy–Schwarz on
    /// `Σ|aᵢbᵢ|`). The integer dot `Q` itself is exact: `|Q| ≤
    /// dim·127² < 2³¹` and f64 holds it exactly.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot_window(&self, i: usize, other: &QuantMatrix, j: usize) -> (f64, f64) {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let qdot = quant_dot_i32(self.padded_row(i), other.padded_row(j));
        let (sa, sb) = (self.scale[i], other.scale[j]);
        let approx = sa * sb * f64::from(qdot);
        let quant_err = QUANT_HALF_STEP * sa * other.l1[j]
            + QUANT_HALF_STEP * sb * self.l1[i]
            + QUANT_HALF_STEP * QUANT_HALF_STEP * sa * sb * self.dim as f64;
        let fp_err = FP_DOT_SLACK_PER_ELEM * self.dim as f64 * self.norm2[i] * other.norm2[j];
        (approx, quant_err * (1.0 + 1e-9) + fp_err + 1e-12)
    }

    /// Upper bound on the exact f32 dot of rows `i` (self) and `j`
    /// (other) — the refinement screen: a pair is provably below a
    /// cosine threshold `t > −1` when `pair_upper_bound < t`.
    pub fn pair_upper_bound(&self, i: usize, other: &QuantMatrix, j: usize) -> f64 {
        let (approx, err) = self.dot_window(i, other, j);
        approx + err
    }
}

/// Exact dense dot, ascending index order — the seed engine's summation
/// tree, kept verbatim as the bitwise reference all other kernels match.
pub fn dense_dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Exact sparse·dense dot, bitwise identical to [`dense_dot`] of the
/// densified row with `dense` (terms with a zero factor are skipped;
/// accumulation order is ascending index, same as the dense kernel).
pub fn sparse_dot_dense(indices: &[u32], values: &[f32], dense: &[f32]) -> f32 {
    indices
        .iter()
        .zip(values)
        .map(|(&i, &v)| v * dense[i as usize])
        .sum()
}

/// Exact sparse·sparse dot (merge walk), bitwise identical to
/// [`dense_dot`] of the two densified rows.
pub fn sparse_dot_sparse(ai: &[u32], av: &[f32], bi: &[u32], bv: &[f32]) -> f32 {
    let mut sum = 0.0f32;
    let (mut x, mut y) = (0usize, 0usize);
    while x < ai.len() && y < bi.len() {
        let (ia, ib) = (ai[x], bi[y]);
        if ia == ib {
            sum += av[x] * bv[y];
            x += 1;
            y += 1;
        } else if ia < ib {
            x += 1;
        } else {
            y += 1;
        }
    }
    sum
}

/// i8·i8 → i32 dot over equal-length (padded) rows, 8-lane unrolled.
///
/// Integer addition is associative, so the 8 independent accumulators
/// change nothing about the result while breaking the dependency chain
/// the f32 kernels are stuck with — this is the FMA-friendly inner loop
/// the compiler autovectorizes.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn quant_dot_i32(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut acc = [0i32; 8];
    let mut chunks_a = a.chunks_exact(8);
    let mut chunks_b = b.chunks_exact(8);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for lane in 0..8 {
            acc[lane] += i32::from(ca[lane]) * i32::from(cb[lane]);
        }
    }
    let mut sum: i32 = acc.iter().sum();
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        sum += i32::from(x) * i32::from(y);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_round_trips_rows() {
        let rows = vec![vec![1.0f32, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let m = PointMatrix::from_rows(&rows);
        assert_eq!(m.n(), 2);
        assert_eq!(m.dim(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.stride % ROW_ALIGN, 0);
    }

    #[test]
    fn sparse_view_matches_matrix() {
        let rows = vec![vec![0.0f32, 2.0, 0.0, -1.0], vec![0.0, 0.0, 0.0, 0.0]];
        let p = Points::from_dense_rows(&rows);
        let (idx, vals) = p.sparse().row(0);
        assert_eq!(idx, &[1, 3]);
        assert_eq!(vals, &[2.0, -1.0]);
        let (idx, vals) = p.sparse().row(1);
        assert!(idx.is_empty() && vals.is_empty());
        assert!((p.density() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sparse_rows_build_matches_dense_build() {
        let rows = vec![vec![0.0f32, 2.0, 0.0, -1.0], vec![1.0, 0.0, 0.0, 0.0]];
        let dense = Points::from_dense_rows(&rows);
        let sparse_inputs: Vec<(Vec<u32>, Vec<f32>)> =
            vec![(vec![1, 3], vec![2.0, -1.0]), (vec![0], vec![1.0])];
        let refs: Vec<(&[u32], &[f32])> = sparse_inputs
            .iter()
            .map(|(i, v)| (i.as_slice(), v.as_slice()))
            .collect();
        let sparse = Points::from_sparse_rows(4, &refs);
        for i in 0..2 {
            assert_eq!(dense.matrix().row(i), sparse.matrix().row(i));
            assert_eq!(dense.sparse().row(i), sparse.sparse().row(i));
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_points_panic() {
        Points::from_dense_rows::<Vec<f32>>(&[]);
    }

    #[test]
    fn exact_kernels_agree_bitwise() {
        let a = vec![0.0f32, 0.125, -3.5, 0.0, 7.25, 0.0, 0.0, 1.0, -0.75, 2.0];
        let b = vec![1.5f32, 0.0, 2.0, 0.0, -1.25, 0.0, 4.0, 0.5, 0.0, -2.0];
        let p = Points::from_dense_rows(&[a.clone(), b.clone()]);
        let reference = dense_dot(&a, &b);
        let (ai, av) = p.sparse().row(0);
        let (bi, bv) = p.sparse().row(1);
        assert_eq!(sparse_dot_dense(ai, av, &b).to_bits(), reference.to_bits());
        assert_eq!(
            sparse_dot_sparse(ai, av, bi, bv).to_bits(),
            reference.to_bits()
        );
    }

    #[test]
    fn quant_window_contains_the_exact_dot() {
        let rows: Vec<Vec<f32>> = vec![
            vec![0.3, -0.7, 0.0, 0.01, 0.99, -0.2, 0.0, 0.43],
            vec![-0.5, 0.5, 0.25, 0.0, -0.125, 0.8, 0.0, -0.9],
            vec![0.0; 8],
        ];
        let q = QuantMatrix::from_rows(8, &rows);
        for i in 0..3 {
            for j in 0..3 {
                let exact = f64::from(dense_dot(&rows[i], &rows[j]));
                let (approx, err) = q.dot_window(i, &q, j);
                assert!(
                    (exact - approx).abs() <= err,
                    "window missed: exact {exact}, approx {approx} ± {err}"
                );
            }
        }
    }

    #[test]
    fn quant_dot_matches_scalar_reference() {
        let a: Vec<i8> = (0..67).map(|i: i32| (i * 37 % 255 - 127) as i8).collect();
        let b: Vec<i8> = (0..67).map(|i: i32| (i * 91 % 255 - 127) as i8).collect();
        let reference: i32 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum();
        assert_eq!(quant_dot_i32(&a, &b), reference);
    }

    #[test]
    fn zero_rows_quantize_to_zero_with_zero_error_mass() {
        let q = QuantMatrix::from_rows(4, &[vec![0.0f32; 4]]);
        let (approx, err) = q.dot_window(0, &q, 0);
        assert_eq!(approx, 0.0);
        assert!(err < 1e-9, "zero row should carry almost no error: {err}");
    }
}
