//! Sparse embedding vectors and their dot kernels.
//!
//! A feature-hashed module touches a few hundred of the 3072 buckets, so
//! the dense [`crate::Embedding`] is overwhelmingly zeros — every dense
//! dot product in the similarity pipeline streamed ~12 KB of mostly-zero
//! memory per vector. [`SparseEmbedding`] stores only the `(index,
//! value)` pairs, sorted by index, with the norm cached, and provides
//! the sparse·dense and sparse·sparse dot kernels the pipeline's
//! refinement and assignment passes run on.
//!
//! # Bitwise equivalence with the dense path
//!
//! Every kernel here accumulates in **ascending index order**, exactly
//! like the dense sequential dot, and only skips terms in which at least
//! one factor is zero. Skipping a `±0.0` term can only change the sign
//! of an all-zero partial sum, never its value, so sparse results are
//! bitwise identical to the dense kernels on every input the pipeline
//! produces — the similarity pipeline's output does not change when it
//! switches to these kernels, and the embed property suite asserts the
//! equality bit-for-bit.

use crate::vector::Embedding;

/// A sparse embedding: sorted `(index, value)` pairs plus the cached
/// Euclidean norm.
///
/// Produced by [`crate::Embedder::embed_sparse`]; densify on demand with
/// [`SparseEmbedding::to_dense`].
#[derive(Debug, Clone, PartialEq)]
pub struct SparseEmbedding {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f32>,
    norm: f32,
}

impl SparseEmbedding {
    /// Builds from parallel index/value arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays differ in length, indices are unsorted,
    /// duplicated, or out of range for `dim`.
    pub fn from_pairs(dim: usize, indices: Vec<u32>, values: Vec<f32>) -> Self {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly ascending"
        );
        if let Some(&last) = indices.last() {
            assert!(
                (last as usize) < dim,
                "index {last} out of range for dim {dim}"
            );
        }
        // `+ 0.0` canonicalizes the empty sum's `-0.0` (see
        // `vector::slice_norm`).
        let norm = values.iter().map(|v| v * v).sum::<f32>().sqrt() + 0.0;
        SparseEmbedding {
            dim,
            indices,
            values,
            norm,
        }
    }

    /// Builds from parts whose norm the caller computed during
    /// accumulation (debug-asserted against a recomputation).
    pub(crate) fn from_parts_with_norm(
        dim: usize,
        indices: Vec<u32>,
        values: Vec<f32>,
        norm: f32,
    ) -> Self {
        debug_assert_eq!(
            norm.to_bits(),
            (values.iter().map(|v| v * v).sum::<f32>().sqrt() + 0.0).to_bits(),
            "cached norm must match the values"
        );
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        SparseEmbedding {
            dim,
            indices,
            values,
            norm,
        }
    }

    /// Dimensionality of the (conceptual) dense vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored components.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The sorted component indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The component values, parallel to [`SparseEmbedding::indices`].
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Euclidean norm (cached at construction).
    pub fn norm(&self) -> f32 {
        self.norm
    }

    /// Densifies into an [`Embedding`], bitwise identical to the dense
    /// embedder output for the same module.
    pub fn to_dense(&self) -> Embedding {
        let mut values = vec![0.0f32; self.dim];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            values[i as usize] = v;
        }
        Embedding::from_raw_with_norm(values, self.norm)
    }

    /// Sparse·dense dot product, bitwise identical to the dense
    /// sequential dot of the densified vector with `dense`.
    ///
    /// # Panics
    ///
    /// Panics if `dense.len() != self.dim()`.
    pub fn dot_dense(&self, dense: &[f32]) -> f32 {
        assert_eq!(dense.len(), self.dim, "dimension mismatch");
        self.indices
            .iter()
            .zip(&self.values)
            .map(|(&i, &v)| v * dense[i as usize])
            .sum()
    }

    /// Sparse·sparse dot product (merge walk over the two sorted index
    /// lists), bitwise identical to the dense sequential dot.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &SparseEmbedding) -> f32 {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let (ai, av) = (&self.indices, &self.values);
        let (bi, bv) = (&other.indices, &other.values);
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

    /// Cosine similarity via the cached norms; zero if either vector is
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn cosine(&self, other: &SparseEmbedding) -> f32 {
        let denom = self.norm * other.norm;
        if denom == 0.0 {
            return 0.0;
        }
        (self.dot(other) / denom).clamp(-1.0, 1.0)
    }

    /// Cosine for vectors already known to be L2-normalized — the sparse
    /// counterpart of [`Embedding::dot_normalized`], bitwise identical
    /// to it on densified inputs.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot_normalized(&self, other: &SparseEmbedding) -> f32 {
        debug_assert!(
            {
                let (a, b) = (self.norm, other.norm);
                (a == 0.0 || (a - 1.0).abs() < 1e-3) && (b == 0.0 || (b - 1.0).abs() < 1e-3)
            },
            "dot_normalized requires L2-normalized inputs"
        );
        self.dot(other).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(dim: usize, pairs: &[(u32, f32)]) -> SparseEmbedding {
        SparseEmbedding::from_pairs(
            dim,
            pairs.iter().map(|&(i, _)| i).collect(),
            pairs.iter().map(|&(_, v)| v).collect(),
        )
    }

    #[test]
    fn to_dense_round_trip() {
        let s = sparse(6, &[(1, 2.0), (4, -3.0)]);
        let d = s.to_dense();
        assert_eq!(d.as_slice(), &[0.0, 2.0, 0.0, 0.0, -3.0, 0.0]);
        assert_eq!(d.norm().to_bits(), s.norm().to_bits());
    }

    #[test]
    fn sparse_dots_match_dense() {
        let a = sparse(8, &[(0, 1.0), (3, 2.0), (7, -1.5)]);
        let b = sparse(8, &[(3, 4.0), (5, 9.0), (7, 2.0)]);
        let (da, db) = (a.to_dense(), b.to_dense());
        assert_eq!(a.dot(&b).to_bits(), da.dot(&db).to_bits());
        assert_eq!(a.dot_dense(db.as_slice()).to_bits(), da.dot(&db).to_bits());
        assert_eq!(a.cosine(&b).to_bits(), da.cosine(&db).to_bits());
    }

    #[test]
    fn empty_sparse_is_the_zero_vector() {
        let z = sparse(4, &[]);
        assert_eq!(z.norm(), 0.0);
        assert_eq!(z.nnz(), 0);
        let a = sparse(4, &[(2, 5.0)]);
        assert_eq!(z.dot(&a), 0.0);
        assert_eq!(z.cosine(&a), 0.0);
        assert_eq!(z.to_dense().as_slice(), &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_indices_panic() {
        sparse(4, &[(2, 1.0), (1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        sparse(4, &[(4, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        sparse(4, &[(0, 1.0)]).dot(&sparse(5, &[(0, 1.0)]));
    }
}
