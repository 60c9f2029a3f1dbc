//! Allocation ceiling for the canonical printer.
//!
//! The printer writes a module's text into one output `String`, so
//! printing allocates only as that buffer grows. A reintroduced
//! per-node `String` multiplies the count by about ten and fails this
//! test on every run; allocation counts do not depend on timing.

use minilang::gen::{generate, generate_benign, mutate, Behavior, Mutation};
use minilang::printer::print_module;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

/// Allocation calls measured for [`modules`] when this ceiling was set:
/// about 9 per module, as the output buffer grows. The string-building
/// printer this replaced, which made a `String` for every expression
/// node, made 26,935 on the same modules, about 354 per module.
const MEASURED: u64 = 676;

/// Twice the measured count.
const CEILING: u64 = 2 * MEASURED;

/// Every behaviour over four seeds, each mutated twice, plus benign
/// filler: the mix world generation prints.
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
fn printing_stays_under_its_allocation_ceiling() {
    let modules = modules();

    obs::alloc::enable_tracking();
    let (_, before) = obs::alloc::thread_totals();
    for module in &modules {
        let _ = print_module(module);
    }
    let (_, after) = obs::alloc::thread_totals();
    obs::alloc::disable_tracking();

    let allocs = after - before;
    assert!(
        allocs <= CEILING,
        "{allocs} allocation calls printing {} modules, ceiling {CEILING}",
        modules.len()
    );
}
