//! Memory ceiling for the similar relation.
//!
//! A flood campaign republishes one artifact under thousands of names.
//! Every pair of its packages is similar, so 2,000 copies make
//! 1,999,000 similar pairs and 3,998,000 directed similar edges, yet
//! they are one content class with one verdict. The graph keeps the
//! relation as that class table and serves the edges from it, so the
//! bytes `build` requests do not grow with the number of pairs.
//! Materialising the pairs again (a pair list, a staging buffer or
//! adjacency rows) fails this test on every run; allocation counts do
//! not depend on timing.

use crawler::{Archive, CollectedDataset, CollectedPackage};
use malgraph_core::{build, similar_pairs, BuildOptions, Relation};
use minilang::gen::{generate, Behavior};
use minilang::printer::print_module;
use oss_types::{PackageId, SimTime, SourceId};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

/// Packages in the flood.
const PACKAGES: usize = 2_000;
/// Similar pairs among them: every pair.
const PAIRS: usize = PACKAGES * (PACKAGES - 1) / 2;

/// Bytes `build` requested on the calling thread for [`flood`] when this
/// ceiling was set. The graph that expanded the pairs requested
/// 148,552,197: the pair list, the staging buffer of the batch edge
/// append and both adjacency tables' similar rows, about 128 MB by
/// arithmetic. Clustering a row per point, not per distinct vector,
/// requested 20,669,113, most of it the K-Means point matrix: 2,000
/// copies of one vector.
const MEASURED: u64 = 3_151_465;

/// Twice the measured count.
const CEILING: u64 = 2 * MEASURED;

/// `PACKAGES` PyPI packages with one source, each named by one feed.
fn flood() -> CollectedDataset {
    let code = print_module(&generate(Behavior::ALL[0], &mut StdRng::seed_from_u64(7)));
    let packages = (0..PACKAGES)
        .map(|i| {
            let id: PackageId = format!("pypi/flood-{i}@1.0.0").parse().expect("valid id");
            CollectedPackage {
                id,
                mentions: vec![(SourceId::GitHubAdvisory, SimTime::from_minutes(i as u64))],
                archive: Some(Archive {
                    description: String::new(),
                    dependencies: Vec::new(),
                    code: code.clone(),
                }),
                signature: None,
                recovered_from_mirror: false,
                mirror_recoverable: false,
                meta: None,
            }
        })
        .collect();
    CollectedDataset {
        packages,
        reports: Vec::new(),
        website_count: 0,
        collect_time: SimTime::from_minutes(PACKAGES as u64),
        health: None,
    }
}

#[test]
fn a_flood_of_one_source_builds_under_its_byte_ceiling() {
    let dataset = flood();
    let entries: Vec<(PackageId, &str)> = dataset
        .packages
        .iter()
        .map(|p| {
            (
                p.id.clone(),
                p.archive.as_ref().expect("available").code.as_str(),
            )
        })
        .collect();
    let options = BuildOptions::default();
    assert_eq!(
        similar_pairs(&entries, &options.similarity).pairs.len(),
        PAIRS
    );
    drop(entries);

    obs::alloc::enable_tracking();
    let (before, _) = obs::alloc::thread_totals();
    let graph = build(&dataset, &options);
    let (built, _) = obs::alloc::thread_totals();
    let (_, output) = &graph.similarity_diagnostics[0];
    let pairs = output.pairs.len();
    let edges = graph.graph.edge_count();
    let similar = graph.graph.edge_count_by(|l| *l == Relation::Similar);
    let (counted, _) = obs::alloc::thread_totals();
    obs::alloc::disable_tracking();

    let bytes = built - before;
    println!("build requested {bytes} bytes on the calling thread");
    assert!(
        bytes <= CEILING,
        "build requested {bytes} bytes for {PAIRS} similar pairs, ceiling {CEILING}"
    );
    assert_eq!(graph.similarity_diagnostics.len(), 1);
    assert_eq!(pairs, PAIRS);
    assert_eq!(edges, 2 * PAIRS);
    assert_eq!(similar, 2 * PAIRS);
    assert_eq!(
        counted, built,
        "counting pairs and edges must not expand them"
    );
}
