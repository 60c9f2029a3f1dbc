//! `repro_full`: the paper-regeneration job. Set-up generates a world;
//! one pass collects the corpus, builds the graph through the one-shot
//! similarity path and runs all 23 report sections on one worker.

use crate::layers::{self, in_span, Layers};
use crate::{Args, Report, Stopwatch, Timed};
use crawler::collect;
use malgraph_bench::{AnalyzeMode, Repro, EXPERIMENTS, EXTENSIONS};
use malgraph_core::{build, BuildOptions};
use oss_types::Sha256;
use registry_sim::World;
use std::time::Instant;

/// Half the paper's corpus. At a quarter, about one seed in fifty draws
/// a world whose largest trojan lineage misses the Table VIII band; at
/// half, none of the seeds tried did. A pass still takes seconds, not
/// the full corpus's half minute.
const SCALE: f64 = 0.5;
/// Worlds in an untraced run's sample: one. A pass takes about ten
/// seconds, so a run holds four or five passes of the world, and their
/// median ignores a slow one, such as the process's first. With two
/// worlds each would get two passes, whose median is their mean.
const WORLDS: usize = 1;

pub fn run(args: &Args, report: &mut Report) {
    let seeds = crate::world_seeds(args.seed, WORLDS, args.trace);
    report.fact("scale", SCALE);
    report.fact("worlds", seeds.len());
    let ids: Vec<&str> = EXPERIMENTS
        .iter()
        .chain(EXTENSIONS.iter())
        .copied()
        .collect();
    let (worlds, setup) = crate::set_up(&seeds, |w, seed| {
        let world = World::generate(crate::world_config(seed, SCALE));
        crate::world_facts(w, &world, report);
        world
    });
    if !args.trace {
        let times = crate::untraced_run(args.seconds, worlds, |w, world| {
            untraced_pass(w, world, &ids, report)
        });
        report.end_to_end(&times, &setup);
        return;
    }
    let mut world = worlds
        .into_iter()
        .next()
        .expect("a traced run sets up one world");
    // The process's first pass runs up to a tenth slower than later
    // ones, so an untimed pass goes first and every pass compared for
    // `obs.overhead_frac` runs warm.
    (world, _) = untraced_pass(0, world, &ids, report);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..2 {
        let time;
        (world, time) = untraced_pass(0, world, &ids, report);
        untraced.push(time.wall_s);
        let layers;
        (world, layers) = traced_pass(world, &ids, report);
        traced.push(layers);
    }
    let generate: Vec<f64> = setup.iter().map(|t| t.wall_s).collect();
    report.set("world.generate_s", crate::median(&generate));
    layers::merge(report, &traced[0], &traced[1], &untraced);
}

/// One pass. The sections run one after another, as `run_all(ids, 1)`
/// runs them, each a stage of its own so yardstick slices fall between
/// them.
fn untraced_pass(w: usize, world: World, ids: &[&str], report: &mut Report) -> (World, Timed) {
    crate::untraced();
    let mut watch = Stopwatch::start();
    let dataset = watch.stage(|| collect(&world));
    let repro = watch.stage(|| {
        let graph = build(&dataset, &BuildOptions::default());
        Repro::from_parts(world, dataset, graph, AnalyzeMode::Indexed)
    });
    let sections: Vec<String> = ids
        .iter()
        .map(|&id| watch.stage(|| repro.run(id)))
        .collect();
    let time = watch.stop();
    report.obs_left_on();
    check(w, &repro, &sections, report);
    (repro.world, time)
}

/// The same pass with a benchmark span around collect, build and each
/// section, and obs snapshots between the stages so counters can be
/// scoped to the stage that bumped them (the `scaling` section collects
/// and builds three more worlds).
fn traced_pass(world: World, ids: &[&str], report: &mut Report) -> (World, Layers) {
    crate::traced();
    let (mut collect_s, mut build_s, mut detection_s, mut scaling_s, mut other_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let dataset = in_span("bench/crawler.collect", &mut collect_s, || collect(&world));
    let after_collect = obs::snapshot();
    let graph = in_span("bench/core.build", &mut build_s, || {
        build(&dataset, &BuildOptions::default())
    });
    let after_build = obs::snapshot();
    let start = Instant::now();
    let repro = Repro::from_parts(world, dataset, graph, AnalyzeMode::Indexed);
    let sections: Vec<String> = ids
        .iter()
        .map(|&id| {
            let (name, secs) = match id {
                "detection" => ("bench/analysis.detection", &mut detection_s),
                "scaling" => ("bench/analysis.scaling", &mut scaling_s),
                _ => ("bench/analysis.other", &mut other_s),
            };
            in_span(name, secs, || repro.run(id))
        })
        .collect();
    let analysis_s = start.elapsed().as_secs_f64();
    let end = obs::snapshot();
    crate::end_traced();

    let mut l = Layers {
        main_s: collect_s + build_s + analysis_s,
        attributed_s: collect_s + build_s + detection_s + scaling_s + other_s,
        ..Layers::default()
    };
    l.time("crawler.collect_s", collect_s);
    l.time("core.build_s", build_s);
    for (metric, span) in [
        ("similarity.embed_s", "similarity/embed"),
        ("similarity.schedule_s", "similarity/schedule"),
        ("similarity.refine_s", "similarity/refine"),
    ] {
        l.time(metric, layers::leaf_self_s(&end, "bench/core.build", span));
    }
    l.time("analysis.detection_s", detection_s);
    l.time("analysis.scaling_s", scaling_s);
    l.time("analysis.other_s", other_s);

    l.count(
        "crawler.attempts",
        layers::counter(&after_collect, "crawler.attempts"),
    );
    l.count(
        "core.build.allocs",
        layers::span_allocs(&end, "bench/core.build"),
    );
    let built = |name: &str| layers::grown(&after_collect, &after_build, name);
    // K-Means and the pair refinement bump the same kernel counters, so
    // this counts point-centroid screens as well as pair screens.
    let screened = built("kernel.pruned_quantized") + built("kernel.rescored");
    l.count("kmeans.iterations", built("kmeans.iterations"));
    l.count("kmeans.pruned_distances", built("kmeans.pruned_distances"));
    l.count("similarity.pairs_screened", screened);
    l.count("similarity.pairs", built("similarity.pairs"));
    l.ratio(
        "similarity.accept_ratio",
        built("similarity.pairs"),
        screened,
    );
    l.count("embed.vectors", built("embed.vectors"));
    // Bumped only on the cached path, so 0 on this one-shot build.
    l.count(
        "similarity.distinct_vectors",
        built("similarity.distinct_vectors"),
    );
    let analysed = |name: &str| layers::grown(&after_build, &end, name);
    // The detection report sorts a HashMap-ordered list with a key that
    // formats a string per comparison, so its allocation calls move by a
    // few from run to run.
    l.count_near(
        "analysis.detection.allocs",
        layers::span_allocs(&end, "bench/analysis.detection"),
    );
    l.count("detector.sandbox_runs", analysed("detector.sandbox_runs"));
    l.count(
        "detector.sandbox_cache_hits",
        analysed("detector.sandbox_cache_hits"),
    );
    l.count("analysis.index_builds", analysed("analysis.index_builds"));
    report.snapshot = Some(end.to_json());

    check(0, &repro, &sections, report);
    (repro.world, l)
}

/// Output checks of one pass over world `w`, outside its timed part: the
/// 13 paper-band checks, and the sha256 of the section texts, which
/// every pass over the world must repeat.
fn check(w: usize, repro: &Repro, sections: &[String], report: &mut Report) {
    for c in repro.checks() {
        report.check(c.pass, || {
            format!("world {w}: paper band: {} ({})", c.name, c.detail)
        });
    }
    report.world_fact(w, "packages", repro.dataset.packages.len());
    report.world_fact(w, "reports", repro.dataset.reports.len());
    report.fact("sections", sections.len());
    let text = sections.join("\n");
    report.same_digest(w, Sha256::digest(text.as_bytes()).to_string());
}
