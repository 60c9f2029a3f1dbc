//! Detector evaluation (the quantified form of the paper's finding 2):
//! "despite the sheer volume of SSC attack campaigns, many malicious
//! packages are similar, and … today's defense tools work well because
//! malicious packages use old and known attack behaviors."
//!
//! Runs a GuardDog-style static scanner and a sandbox (effect-tracing)
//! detector over every package in a simulated world and scores them
//! against ground truth.
//!
//! ```text
//! cargo run --example detector_eval --release
//! ```

use malgraph::detector::{evaluate_world, DynamicDetector, StaticDetector};
use malgraph::minilang::parse;
use malgraph::prelude::*;

fn main() {
    let world = World::generate(WorldConfig::small(4242));
    println!(
        "evaluating detectors over {} packages ({} malicious)…\n",
        world.packages.len(),
        world
            .packages
            .iter()
            .filter(|p| p.behavior.is_some())
            .count()
    );

    let report = evaluate_world(&world);
    println!("{report}\n");

    // Walk one concrete case end to end.
    let sample = world
        .packages
        .iter()
        .find(|p| p.behavior.is_some())
        .expect("malicious packages exist");
    println!("== case study: {}", sample.id);
    println!(
        "ground truth: {} campaign package",
        sample.behavior.map(|b| b.label()).unwrap_or("benign")
    );
    let module = parse(&sample.source_text).expect("generated code parses");

    let sv = StaticDetector::default().scan(&module, Some(sample.id.name()));
    println!(
        "static scanner: malicious={} score={:.1} rules={:?}",
        sv.malicious,
        sv.score,
        sv.matched.iter().map(|r| r.label()).collect::<Vec<_>>()
    );

    let dv = DynamicDetector::default().analyze(&module);
    println!(
        "sandbox: labels={:?} apis={:?}",
        dv.labels.iter().map(|l| l.to_string()).collect::<Vec<_>>(),
        dv.apis
    );
}
