//! The vector-kernel contract: the cache-tiled sparse kernels and the
//! certified i8 screen must not change a single bit of similarity
//! pipeline output relative to the dense-scalar engine, at any thread
//! count. Acceptance gate of the kernel layer (see DESIGN.md, "Vector
//! kernels"): speed may come from layout, tiling and pruning — never
//! from answering a different question.

use malgraph::cluster::Kernel;
use malgraph::malgraph_core::similarity::{similar_pairs, SimilarityConfig, SimilarityOutput};
use malgraph::oss_types::PackageId;
use minilang::gen::{generate, mutate, Behavior, Mutation};
use minilang::printer::print_module;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a corpus of mutated code families plus unclustered noise —
/// near-ties in every cluster, the adversarial case for bit equality.
fn corpus(families: usize, per: usize, seed: u64) -> Vec<(PackageId, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for f in 0..families {
        let behavior = Behavior::ALL[f % Behavior::ALL.len()];
        let base = generate(behavior, &mut rng);
        let mut current = base;
        for m in 0..per {
            if m > 0 && rng.gen_bool(0.6) {
                let mutation = Mutation::ALL[m % Mutation::ALL.len()];
                current = mutate(&current, mutation, &mut rng);
            }
            let id: PackageId = format!("pypi/fam{f}-pkg{m}@1.0.0").parse().unwrap();
            out.push((id, print_module(&current)));
        }
    }
    out
}

/// Canonical rendering of a pipeline output; bitwise equality of
/// renderings is bitwise equality of results (the inertia trace is
/// rendered via `to_bits`, so even sub-ulp drift would show).
fn signature(out: &SimilarityOutput) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "k={}", out.chosen_k);
    for &(k, inertia) in &out.trace {
        let _ = writeln!(s, "trace {k} {:#010x}", inertia.to_bits());
    }
    for &(a, b) in &out.pairs {
        let _ = writeln!(s, "pair {a} {b}");
    }
    s
}

#[test]
fn kernels_and_thread_counts_produce_identical_similarity_output() {
    let data = corpus(5, 9, 0xC0FFEE);
    let entries: Vec<(PackageId, &str)> = data
        .iter()
        .map(|(id, code)| (id.clone(), code.as_str()))
        .collect();
    let run = |kernel: Kernel, threads: usize| {
        let config = SimilarityConfig {
            dim: 512,
            kernel,
            threads,
            ..SimilarityConfig::default()
        };
        signature(&similar_pairs(&entries, &config))
    };
    let reference = run(Kernel::DenseScalar, 1);
    assert!(
        reference.contains("pair"),
        "corpus must produce at least one similar pair for the \
         comparison to mean anything:\n{reference}"
    );
    for kernel in [Kernel::DenseScalar, Kernel::TiledQuantized] {
        for threads in [1usize, 7] {
            let other = run(kernel, threads);
            assert_eq!(
                reference, other,
                "{kernel:?} at {threads} threads diverged from the \
                 dense-scalar single-thread reference"
            );
        }
    }
}

#[test]
fn paper_dimensionality_is_also_bitwise_stable() {
    // One smaller corpus at the paper's 3072 dims: exercises the
    // density gate and the screen at production scale factors.
    let data = corpus(3, 5, 0xBEEF);
    let entries: Vec<(PackageId, &str)> = data
        .iter()
        .map(|(id, code)| (id.clone(), code.as_str()))
        .collect();
    let run = |kernel: Kernel, threads: usize| {
        let config = SimilarityConfig {
            kernel,
            threads,
            ..SimilarityConfig::paper()
        };
        signature(&similar_pairs(&entries, &config))
    };
    let reference = run(Kernel::DenseScalar, 1);
    for threads in [1usize, 7] {
        assert_eq!(
            reference,
            run(Kernel::TiledQuantized, threads),
            "TiledQuantized at {threads} threads diverged at dim=3072"
        );
    }
}
