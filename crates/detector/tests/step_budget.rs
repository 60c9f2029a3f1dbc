//! Step ceiling for the sandbox.
//!
//! A `while` loop whose state repeats is accounted for by arithmetic, so
//! a fuel-capped payload loop executes a few iterations, not the whole
//! budget. Were every iteration executed again, the count would grow
//! about a hundredfold and fail this test on every run; step counts do
//! not depend on timing.

use detector::dynamic::DynamicDetector;
use minilang::gen::{generate, Behavior};
use minilang::interp::{execute, InterpConfig, Outcome};
use minilang::lower::Program;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Steps executed for [`programs`] when this ceiling was set, 18 of
/// them fuel-capped. Executing every iteration takes 361,766.
const MEASURED: u64 = 3_308;

/// Twice the measured count.
const CEILING: u64 = 2 * MEASURED;

/// Three programs of every behaviour for each of seeds 1 to 3.
fn programs() -> Vec<Program> {
    let mut out = Vec::new();
    for seed in 1..=3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for behavior in Behavior::ALL {
            for _ in 0..3 {
                out.push(Program::lower(&generate(behavior, &mut rng)));
            }
        }
    }
    out
}

#[test]
fn sandboxing_stays_under_its_step_ceiling() {
    let programs = programs();
    let config = InterpConfig::default();
    let (mut executed, mut skipped, mut capped) = (0, 0, 0);
    for program in &programs {
        let trace = execute(program, &config);
        if trace.outcome == Outcome::FuelExhausted {
            assert_eq!(
                trace.steps, config.fuel,
                "a fuel-capped run accounts the whole budget"
            );
            capped += 1;
        }
        executed += trace.steps - trace.skipped_steps;
        skipped += trace.skipped_steps;
    }
    assert!(capped > 0, "the payload loops hit the fuel cap");
    assert!(
        executed <= CEILING,
        "{executed} steps executed sandboxing {} programs, ceiling {CEILING}",
        programs.len()
    );

    // The detector reports the same split.
    obs::reset();
    obs::enable();
    let detector = DynamicDetector::default();
    for program in &programs {
        detector.analyze_program(program);
    }
    let snap = obs::snapshot();
    obs::disable();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(counter("detector.sandbox_steps{kind=executed}"), executed);
    assert_eq!(counter("detector.sandbox_steps{kind=skipped}"), skipped);
}
