//! Deterministic code embeddings over PyLite ASTs.
//!
//! The paper's similarity pipeline (§III-A) converts each package's source
//! code into an AST, embeds the AST with OpenAI's `text-embedding-3-large`
//! (3072 dimensions), and clusters the vectors with K-Means. An external
//! embedding API is a data/hardware gate for a reproduction, so this crate
//! substitutes a *feature-hashing* embedder with the one property the
//! pipeline needs: **similar code maps to nearby vectors**, robust to the
//! identifier renames and small edits attackers apply between release
//! attempts.
//!
//! Features are read from the AST under its canonical renaming (see
//! [`minilang::canon`]): token n-grams of the canonical text, root-to-node
//! AST *kind paths* with the attribute names along them, and the imported
//! module set — which APIs the code touches is the strongest behavioural
//! signal. Each feature is hashed into one of `dim` buckets with a signed
//! hash (the classic hashing trick), and the vector is L2-normalized so
//! cosine similarity is a dot product.
//!
//! A feature is never built as a string. Its text is fed to one two-lane
//! FNV-1a state piece by piece, which gives the same bucket and sign as
//! hashing the concatenated text, so a warm [`EmbedBuffer`] embeds a
//! module with a few dozen allocations where a string per feature took
//! thousands (see the `features` module and DESIGN.md §6j).
//!
//! # Examples
//!
//! ```
//! use embed::Embedder;
//! use minilang::parse;
//!
//! let embedder = Embedder::new(512);
//! let a = embedder.embed(&parse("import os\nk = os.getenv('A')\n")?);
//! let b = embedder.embed(&parse("import os\nv = os.getenv('A')\n")?);
//! assert!(a.cosine(&b) > 0.95, "renamed variable stays similar");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod features;
pub mod sparse;
pub mod vector;

pub use sparse::SparseEmbedding;
pub use vector::Embedding;

use minilang::Module;

/// The embedding dimensionality the paper reports for
/// `text-embedding-3-large`.
pub const PAPER_DIM: usize = 3072;

/// A deterministic feature-hashing embedder.
#[derive(Debug, Clone)]
pub struct Embedder {
    dim: usize,
}

impl Embedder {
    /// Creates an embedder producing `dim`-dimensional vectors.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        Embedder { dim }
    }

    /// An embedder with the paper's 3072 dimensions.
    pub fn paper() -> Self {
        Embedder::new(PAPER_DIM)
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embeds a module.
    ///
    /// Names are read through the module's canonical renaming, so
    /// alpha-renamed programs embed identically. Allocates a scratch
    /// buffer per call; batch callers should reuse one [`EmbedBuffer`]
    /// via [`Embedder::embed_into`] or [`Embedder::embed_sparse_into`]
    /// instead.
    pub fn embed(&self, module: &Module) -> Embedding {
        let mut buf = EmbedBuffer::new();
        let mut values = Vec::new();
        self.embed_into(module, &mut buf, &mut values);
        Embedding::from_raw(values)
    }

    /// Embeds a module into `out`, reusing `buf`'s accumulation scratch
    /// and `out`'s allocation across calls (the batch-embedding path of
    /// the similarity pipeline). `out` holds the L2-normalized dense
    /// values afterwards, bitwise identical to [`Embedder::embed`].
    pub fn embed_into(&self, module: &Module, buf: &mut EmbedBuffer, out: &mut Vec<f32>) {
        let norm = self.accumulate(module, buf);
        out.clear();
        out.resize(self.dim, 0.0);
        for &bucket in &buf.touched {
            let v = buf.scratch[bucket as usize];
            out[bucket as usize] = if norm == 0.0 { v } else { v / norm };
        }
        buf.reset_touched();
    }

    /// Embeds a module as a [`SparseEmbedding`]: only the touched
    /// buckets are stored, so a batch of embeddings costs O(features)
    /// memory per module instead of O(dim). Densifying the result is
    /// bitwise identical to [`Embedder::embed`].
    pub fn embed_sparse(&self, module: &Module) -> SparseEmbedding {
        let mut buf = EmbedBuffer::new();
        self.embed_sparse_into(module, &mut buf)
    }

    /// [`Embedder::embed_sparse`] with a caller-owned reusable buffer.
    pub fn embed_sparse_into(&self, module: &Module, buf: &mut EmbedBuffer) -> SparseEmbedding {
        let norm = self.accumulate(module, buf);
        let indices = buf.touched.clone();
        let values: Vec<f32> = buf
            .touched
            .iter()
            .map(|&bucket| {
                let v = buf.scratch[bucket as usize];
                if norm == 0.0 {
                    v
                } else {
                    v / norm
                }
            })
            .collect();
        buf.reset_touched();
        // The stored values are the *normalized* components; their norm
        // is ~1 but must be recomputed (bitwise) rather than assumed,
        // exactly like the dense path does after dividing.
        let norm = if norm == 0.0 {
            norm
        } else {
            values_norm(&values)
        };
        SparseEmbedding::from_parts_with_norm(self.dim, indices, values, norm)
    }

    /// Hashes the module's features into `buf.scratch` and returns the
    /// pre-normalization Euclidean norm. `buf.touched` holds the sorted,
    /// deduplicated bucket list afterwards; the caller must call
    /// `buf.reset_touched()` once done with the scratch values.
    fn accumulate(&self, module: &Module, buf: &mut EmbedBuffer) -> f32 {
        if buf.scratch.len() != self.dim {
            assert!(
                buf.scratch.iter().all(|&v| v == 0.0),
                "EmbedBuffer reused across embedder dimensions mid-accumulation"
            );
            buf.scratch.clear();
            buf.scratch.resize(self.dim, 0.0);
        }
        buf.touched.clear();
        let (scratch, touched) = (&mut buf.scratch, &mut buf.touched);
        features::for_each_feature(module, &mut buf.tokens, |hash, weight| {
            let bucket = hash.bucket(self.dim);
            scratch[bucket] += hash.sign() * weight;
            touched.push(bucket as u32);
        });
        obs::counter_add("embed.vectors", 1);
        // One touched entry per feature until the dedup below.
        obs::counter_add("embed.features", buf.touched.len() as u64);
        buf.touched.sort_unstable();
        buf.touched.dedup();
        // Ascending-index sum of squares: the same summation order the
        // dense `Embedding::norm` uses (zeros contribute nothing).
        // The `+ 0.0` canonicalizes the empty sum's `-0.0` to `+0.0`,
        // matching the dense norm of an all-zero vector (see
        // `vector::slice_norm`).
        buf.touched
            .iter()
            .map(|&b| {
                let v = buf.scratch[b as usize];
                v * v
            })
            .sum::<f32>()
            .sqrt()
            + 0.0
    }
}

/// Euclidean norm of sparse values in storage (= ascending index) order,
/// with the zero sign canonicalized (see `vector::slice_norm`).
fn values_norm(values: &[f32]) -> f32 {
    values.iter().map(|v| v * v).sum::<f32>().sqrt() + 0.0
}

/// Reusable accumulation scratch for [`Embedder::embed_into`] /
/// [`Embedder::embed_sparse_into`]: a dense bucket array (kept all-zero
/// between calls, so reuse costs only the touched entries), the
/// touched-bucket list, and the text of the module's token stream. A
/// warm buffer embeds a module with no allocation beyond its renaming
/// table and the result.
#[derive(Debug, Default)]
pub struct EmbedBuffer {
    scratch: Vec<f32>,
    touched: Vec<u32>,
    tokens: features::TokenText,
}

impl EmbedBuffer {
    /// An empty buffer; it sizes itself to the embedder on first use.
    pub fn new() -> Self {
        EmbedBuffer::default()
    }

    /// Zeroes the touched scratch entries, restoring the all-zero
    /// invariant without an O(dim) pass.
    fn reset_touched(&mut self) {
        for &bucket in &self.touched {
            self.scratch[bucket as usize] = 0.0;
        }
        self.touched.clear();
    }
}

impl Default for Embedder {
    /// The paper's 3072-dimensional configuration.
    fn default() -> Self {
        Embedder::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::gen::{generate, mutate, Behavior, Mutation};
    use minilang::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn module(src: &str) -> Module {
        parse(src).unwrap()
    }

    #[test]
    fn embedding_is_deterministic() {
        let e = Embedder::new(256);
        let m = module("import os\nx = os.getenv('K')\n");
        assert_eq!(e.embed(&m), e.embed(&m));
    }

    #[test]
    fn self_cosine_is_one() {
        let e = Embedder::new(256);
        let v = e.embed(&module("x = 1\ny = x + 2\n"));
        assert!((v.cosine(&v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn renaming_is_invisible() {
        let e = Embedder::new(512);
        let a = e.embed(&module("secret = os.getenv('T')\nsend(secret)\n"));
        let b = e.embed(&module("loot = os.getenv('T')\nsend(loot)\n"));
        assert!((a.cosine(&b) - 1.0).abs() < 1e-5, "{}", a.cosine(&b));
    }

    #[test]
    fn mutated_malware_stays_close_other_lineages_stay_far() {
        let mut rng = StdRng::seed_from_u64(42);
        let e = Embedder::new(1024);
        let base = generate(Behavior::ExfilAws, &mut rng);
        let mutated = mutate(&base, Mutation::SwapStringLiteral, &mut rng);
        let other_lineage = generate(Behavior::ExfilAws, &mut rng);
        let vb = e.embed(&base);
        let vm = e.embed(&mutated);
        let vo = e.embed(&other_lineage);
        let near = vb.cosine(&vm);
        let far = vb.cosine(&vo);
        assert!(near > 0.95, "mutation similarity {near}");
        assert!(
            near > far + 0.05,
            "a mutated re-release ({near}) must stay closer than an \
             independent lineage of the same behaviour ({far})"
        );
    }

    #[test]
    fn lineage_members_cluster_tighter_than_cross_behavior() {
        let mut rng = StdRng::seed_from_u64(7);
        let e = Embedder::new(1024);
        let base = generate(Behavior::ReverseShell, &mut rng);
        let member = mutate(&base, Mutation::InsertBenignFunction, &mut rng);
        let cross = generate(Behavior::InfoStealer, &mut rng);
        let vb = e.embed(&base);
        assert!(
            vb.cosine(&e.embed(&member)) > vb.cosine(&e.embed(&cross)),
            "lineage cohesion failed"
        );
    }

    #[test]
    fn paper_dim_is_3072() {
        assert_eq!(Embedder::paper().dim(), 3072);
        assert_eq!(Embedder::default().dim(), PAPER_DIM);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_panics() {
        Embedder::new(0);
    }

    #[test]
    fn empty_module_embeds_to_zero_vector() {
        let e = Embedder::new(64);
        let v = e.embed(&module(""));
        assert_eq!(v.norm(), 0.0);
        // Cosine with anything is defined as 0 for the zero vector.
        let w = e.embed(&module("x = 1\n"));
        assert_eq!(v.cosine(&w), 0.0);
    }
}
