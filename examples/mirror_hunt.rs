//! Mirror hunting (paper §II-C / Fig. 5): removed packages can often be
//! recovered from mirror registries that lag the root registry. This
//! example quantifies the recovery rate, the two failure causes, and how
//! the mirror sync interval changes the outcome.
//!
//! ```text
//! cargo run --example mirror_hunt --release
//! ```

use malgraph::malgraph_core::analysis::quality;
use malgraph::prelude::*;

fn main() {
    let world = World::generate(WorldConfig::small(555));
    let corpus = collect(&world);

    let total = corpus.packages.len();
    let from_dumps = corpus
        .packages
        .iter()
        .filter(|p| p.is_available() && !p.recovered_from_mirror)
        .count();
    let from_mirrors = corpus
        .packages
        .iter()
        .filter(|p| p.recovered_from_mirror)
        .count();
    let missing = total - from_dumps - from_mirrors;
    println!("corpus: {total} packages");
    println!("  shipped by source dumps : {from_dumps}");
    println!("  recovered from mirrors  : {from_mirrors}");
    println!(
        "  unavailable             : {missing} ({:.1}%)",
        100.0 * missing as f64 / total as f64
    );

    // Why the misses? (Fig. 5's two causes, measured from registry
    // metadata.)
    let fastest = world
        .mirrors
        .fastest_interval(Ecosystem::PyPI)
        .map(|d| d.as_hours())
        .unwrap_or(6);
    let census =
        quality::unavailability_census(&corpus, world.config.mirror_retention_days, fastest);
    println!("\nunavailability causes:");
    println!("  released too early    : {}", census.released_too_early);
    println!("  persistence too short : {}", census.persistence_too_short);
    println!("  ecosystem w/o mirrors : {}", census.no_mirrors);

    // Sweep the mirror retention period: longer retention keeps stale
    // copies of old packages alive and the missing rate drops.
    println!("\nretention sweep (fresh small worlds):");
    println!("{:>10} {:>10}", "retention", "missing%");
    for retention_days in [60u64, 180, 400, 800, 1600] {
        let config = WorldConfig {
            seed: 555,
            mirror_retention_days: retention_days,
            ..WorldConfig::default()
        };
        let w = World::generate(config);
        let candidates = w.dataset_candidates();
        let missing = candidates
            .iter()
            .filter(|&&i| !w.package(i).mirror_available)
            .count();
        println!(
            "{:>9}d {:>9.1}%",
            retention_days,
            100.0 * missing as f64 / candidates.len() as f64
        );
    }
}
