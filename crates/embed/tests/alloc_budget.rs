//! Allocation ceiling for the embedder.
//!
//! Embedding hashes each feature as a byte stream, so a warm
//! [`EmbedBuffer`] leaves only a per-module renaming table and the
//! returned vector to allocate. A reintroduced per-feature `String`
//! multiplies the count by about a hundred and fails this test on every
//! run; allocation counts do not depend on timing.

use embed::{EmbedBuffer, Embedder};
use minilang::gen::{generate, generate_benign, mutate, Behavior, Mutation};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

/// Allocation calls measured for [`modules`] when this ceiling was set:
/// about 31 per module, for the renaming table and the returned vector.
/// The string-building embedder this replaced made 292,410 on the same
/// modules, about 3,850 per module.
const MEASURED: u64 = 2_387;

/// Twice the measured count.
const CEILING: u64 = 2 * MEASURED;

/// Every behaviour over four seeds, each mutated twice, plus benign
/// filler: the mix the similarity pipeline embeds.
fn modules() -> Vec<minilang::Module> {
    let mut out = Vec::new();
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for behavior in Behavior::ALL {
            let mut module = generate(behavior, &mut rng);
            out.push(module.clone());
            for mutation in [
                Mutation::ALL[seed as usize % 4],
                Mutation::ALL[(seed as usize + 1) % 4],
            ] {
                module = mutate(&module, mutation, &mut rng);
            }
            out.push(module);
        }
        out.push(generate_benign(&mut rng));
    }
    out
}

#[test]
fn embedding_stays_under_its_allocation_ceiling() {
    let modules = modules();
    let embedder = Embedder::new(1024);
    let mut buf = EmbedBuffer::new();
    // Warm the buffer so its one-off sizing is not counted.
    let _ = embedder.embed_sparse_into(&modules[0], &mut buf);

    obs::alloc::enable_tracking();
    let (_, before) = obs::alloc::thread_totals();
    for module in &modules {
        let _ = embedder.embed_sparse_into(module, &mut buf);
    }
    let (_, after) = obs::alloc::thread_totals();
    obs::alloc::disable_tracking();

    let allocs = after - before;
    assert!(
        allocs <= CEILING,
        "{allocs} allocation calls embedding {} modules, ceiling {CEILING}",
        modules.len()
    );
}
