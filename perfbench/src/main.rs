//! The benchmark of the MALGRAPH reproduction: two batch jobs over the
//! pipeline, each measured end to end (untraced) or layer by layer
//! (traced), with every output checked outside the timed part.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro_full|ingest_ckpt> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every workload is a closed loop with one caller in one process. The
//! benchmark starts no threads of its own; the similarity stage keeps
//! its default worker count and the report sections run on one worker.
//!
//! * `repro_full`: set-up generates a world; one pass is `collect`,
//!   `build` and all 23 report sections.
//! * `ingest_ckpt`: set-up generates and collects a world and splits the
//!   corpus into disclosure windows; one pass is a checkpointed windowed
//!   ingest into an empty directory, then `recover` from it.
//!
//! How much work one world takes varies from seed to seed, so an
//! untraced run (`--trace 0`) measures a sample of worlds drawn from
//! `--seed` (see [`world_seeds`]). Set-up runs first, at least five
//! times. Then passes cycle through the sample until their wall time is
//! within half a pass of `--seconds`, and every world has had at least
//! two passes. Between the stages of every set-up and pass, outside their
//! timers, a slice of the [`yardstick`] samples the host's speed, and
//! each time is scaled to the yardstick's reference speed. `job_s` is the
//! mean over the sample of each world's median scaled pass, `setup_s` the
//! median scaled set-up, and `peak_rss_mib` the process's high-water
//! mark. The wall times stay in the result's facts. A traced run
//! (`--trace 1`) takes the sample's first world only: five set-ups and an
//! untimed warm-up pass, then two untraced and two traced passes
//! alternate. The traced passes wrap each call into a layer in a
//! benchmark span or timer and read the program's own obs counters and
//! span totals. Both traced passes must give the same counts (see
//! `layers::merge`).
//!
//! The metrics printed, and their units, are the lists in
//! `BENCHMARK.json`. The last line on stdout is the JSON result; a
//! readable summary goes to stderr. A flat copy of the metrics, which
//! `malgraph perf diff` reads as it is, and the traced obs snapshot are
//! written under `target/perfbench/`. A failed output check makes the
//! exit code 1.

mod ingest_ckpt;
mod layers;
mod repro_full;
mod yardstick;

use jsonio::Value;
use registry_sim::{World, WorldConfig};
use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

// Allocation calls per layer come from the counting allocator; counting
// stays off outside traced passes.
#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

/// The benchmark's definition: its workload names and metric lists.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// Fewest set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed passes per world of an untraced run, whatever
/// `--seconds` says, so every world's output digest is seen to repeat.
const MIN_PASSES: usize = 2;
/// Where results and snapshots go, relative to the working directory.
const OUT_DIR: &str = "target/perfbench";

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run hands back: metric values by name, facts, and the
/// outcome of every output check.
#[derive(Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    facts: Vec<(&'static str, Value)>,
    /// Counts of each world of the sample, summed over it at the end.
    world_facts: Vec<Vec<(&'static str, usize)>>,
    /// Each world's output digest, from its first pass.
    digests: Vec<Option<String>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    passes_ending_traced: u64,
    /// The last traced pass's obs snapshot, as `malgraph-obs/2` JSON.
    pub snapshot: Option<String>,
}

impl Report {
    /// Sets a metric listed in `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Sets a fact (last write wins).
    pub fn fact(&mut self, name: &'static str, value: impl Into<Value>) {
        let fact = value.into();
        match self.facts.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = fact,
            None => self.facts.push((name, fact)),
        }
    }

    /// Sets a count of world `world` of the sample (last write wins); the
    /// result carries its sum over the sample.
    pub fn world_fact(&mut self, world: usize, name: &'static str, value: usize) {
        if self.world_facts.len() <= world {
            self.world_facts.resize_with(world + 1, Vec::new);
        }
        let facts = &mut self.world_facts[world];
        match facts.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => facts.push((name, value)),
        }
    }

    /// Records one output check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Checks that `digest` equals the digest of world `world`'s first
    /// pass, and records the first one.
    pub fn same_digest(&mut self, world: usize, digest: String) {
        if self.digests.len() <= world {
            self.digests.resize(world + 1, None);
        }
        match &self.digests[world] {
            None => {
                self.check(true, String::new);
                self.digests[world] = Some(digest);
            }
            Some(expected) => {
                let expected = expected.clone();
                self.check(expected == digest, || {
                    format!(
                        "world {world}: output digest {digest} differs from the first pass's {expected}"
                    )
                });
            }
        }
    }

    /// Counts an untraced pass that the program itself left traced.
    pub fn obs_left_on(&mut self) {
        self.passes_ending_traced += u64::from(obs::enabled());
    }

    /// Records the end-to-end metrics of an untraced run from each
    /// world's passes and every set-up.
    pub fn end_to_end(&mut self, passes: &[Vec<Timed>], setup: &[Timed]) {
        let wall = |xs: &[Timed]| xs.iter().map(|t| t.wall_s).collect::<Vec<_>>();
        let scaled = |xs: &[Timed]| xs.iter().map(|t| t.scaled_s).collect::<Vec<_>>();
        let slowdown = |xs: &[Timed]| xs.iter().map(|t| t.wall_s / t.scaled_s).collect::<Vec<_>>();
        let each =
            |f: &dyn Fn(&[Timed]) -> Vec<f64>| passes.iter().map(|p| f(p)).collect::<Vec<_>>();
        self.set("job_s", mean_of_medians(&each(&scaled)));
        self.set("setup_s", median(&scaled(setup)));
        self.fact("job_wall_s", mean_of_medians(&each(&wall)));
        self.fact("setup_wall_s", median(&wall(setup)));
        let all: Vec<Timed> = passes.iter().flatten().chain(setup).copied().collect();
        self.fact("host_slowdown", median(&slowdown(&all)));
        let list = |xs: Vec<f64>| {
            xs.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let per_world = |f: &dyn Fn(&[Timed]) -> Vec<f64>| {
            passes
                .iter()
                .map(|p| list(f(p)))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        self.fact("passes", passes.iter().map(Vec::len).sum::<usize>());
        self.fact("pass_times_s", per_world(&wall));
        self.fact("pass_slowdowns", per_world(&slowdown));
        self.fact("setup_times_s", list(wall(setup)));
        self.fact("setup_slowdowns", list(slowdown(setup)));
    }

    /// Turns the per-world facts and digests into facts of the run.
    fn close_sample(&mut self) {
        let mut totals: Vec<(&'static str, usize)> = Vec::new();
        for (name, value) in self.world_facts.iter().flatten() {
            match totals.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 += value,
                None => totals.push((name, *value)),
            }
        }
        let total = |name: &str| totals.iter().find(|(n, _)| *n == name).map(|t| t.1);
        if let (Some(releases), Some(distinct)) =
            (total("world_releases"), total("distinct_sources"))
        {
            let share = (releases - distinct) as f64 / releases.max(1) as f64;
            self.fact("repeat_share", share);
        }
        for (name, value) in totals {
            self.fact(name, value);
        }
        let digests: Vec<&str> = self.digests.iter().flatten().map(String::as_str).collect();
        self.fact("output_digests", digests.join(" "));
    }
}

/// One metric of the result line: name, value, unit.
type Metric = (String, f64, String);

fn main() {
    let args = parse_args();
    let mut report = Report::default();
    report.fact("workload", args.workload.clone());
    report.fact("seed", args.seed.to_string());
    report.fact(
        "host_threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    match args.workload.as_str() {
        "repro_full" => repro_full::run(&args, &mut report),
        "ingest_ckpt" => ingest_ckpt::run(&args, &mut report),
        other => usage(&format!("unknown workload {other}")),
    }
    report.close_sample();
    report.fact("passes_ending_traced", report.passes_ending_traced);
    if !args.trace {
        report.set("peak_rss_mib", peak_rss_mib());
    }

    let catalogue = definition_list(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    if let Some((name, _)) = report
        .values
        .iter()
        .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
    {
        panic!("metric {name} is not listed for this mode in BENCHMARK.json");
    }
    // A layer the workload does not reach reads 0.
    let metrics: Vec<Metric> = catalogue
        .into_iter()
        .map(|(name, unit)| {
            let value = report
                .values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |v| v.1);
            (name, value, unit)
        })
        .collect();

    let results = write_results(&args, &report, &metrics);
    self_diff(&results, &mut report);

    eprint!("{}", summary(&args, &report, &metrics));
    println!("{}", result_line(&report, &metrics).to_compact());
    std::process::exit(if report.failed == 0 { 0 } else { 1 });
}

/// `(name, unit)` of each entry of the `BENCHMARK.json` list `key`.
fn definition_list(key: &str) -> Vec<(String, String)> {
    let root = Value::parse(DEFINITION).expect("BENCHMARK.json is valid JSON");
    let entries = root
        .get(key)
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"));
    let field = |entry: &Value, f: &str| {
        entry
            .get(f)
            .and_then(|v| v.as_str())
            .map_or_else(String::new, str::to_string)
    };
    entries
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 45.0f64;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a non-negative number"));
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

/// Stops on a failure of the environment rather than of an output check:
/// exit 2, no result line.
pub fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn usage(msg: &str) -> ! {
    let workloads: Vec<String> = definition_list("workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    fatal(&format!(
        "{msg}\nusage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        workloads.join("|")
    ));
}

/// The seeds of the sample of `worlds` worlds a run with seed `seed`
/// measures; a traced run takes only the first. Distinct run seeds give
/// disjoint samples.
pub fn world_seeds(seed: u64, worlds: usize, trace: bool) -> Vec<u64> {
    let n = worlds as u64;
    let take = if trace { 1 } else { n };
    (0..take)
        .map(|i| seed.wrapping_mul(n).wrapping_add(i))
        .collect()
}

/// World configuration of world `seed` at `scale`.
pub fn world_config(seed: u64, scale: f64) -> WorldConfig {
    WorldConfig {
        seed,
        ..WorldConfig::default()
    }
    .with_scale(scale)
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// The time of one set-up or pass: wall seconds, and the same scaled to
/// the yardstick's reference speed.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub wall_s: f64,
    pub scaled_s: f64,
}

/// Times the stages of one set-up or pass. A yardstick slice runs before
/// the first stage and after each one, outside the stage timers. The
/// stages' wall time is scaled by the mean slice time over
/// [`yardstick::REFERENCE_SLICE_S`]. (Scaling each stage by the two
/// slices around it instead spread more from run to run: a long stage
/// then rests on two samples of the host.)
pub struct Stopwatch {
    wall_s: f64,
    slices: Vec<f64>,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall_s: 0.0,
            slices: vec![yardstick::slice()],
        }
    }

    /// Runs `f` as the next stage.
    pub fn stage<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (value, secs) = timed(f);
        self.wall_s += secs;
        self.slices.push(yardstick::slice());
        value
    }

    /// Wall time of the stages so far.
    pub fn wall_s(&self) -> f64 {
        self.wall_s
    }

    pub fn stop(self) -> Timed {
        let mean = self.slices.iter().sum::<f64>() / self.slices.len() as f64;
        Timed {
            wall_s: self.wall_s,
            scaled_s: self.wall_s * yardstick::REFERENCE_SLICE_S / mean,
        }
    }
}

/// Sets up every world of the sample: `make(w, seed)` prepares world
/// `w`'s input. The worlds are set up in turn, round after round, until
/// each has been set up once and [`SETUP_REPS`] set-ups have run; each
/// world keeps its newest input, and an older one is dropped before the
/// next is made. Returns the inputs with every set-up's time.
pub fn set_up<T>(seeds: &[u64], mut make: impl FnMut(usize, u64) -> T) -> (Vec<T>, Vec<Timed>) {
    let mut inputs: Vec<Option<T>> = seeds.iter().map(|_| None).collect();
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS.max(seeds.len()) {
        let w = rep % seeds.len();
        drop(inputs[w].take());
        let mut watch = Stopwatch::start();
        inputs[w] = Some(watch.stage(|| make(w, seeds[w])));
        times.push(watch.stop());
    }
    let inputs = inputs
        .into_iter()
        .map(|input| input.expect("every world was set up"))
        .collect();
    (inputs, times)
}

/// Runs the timed passes of an untraced run, cycling through the
/// sample's inputs: until every world has had [`MIN_PASSES`], and the
/// wall time of the passes is within half a typical pass of `seconds`.
/// `pass(w, input)` runs one pass over world `w` and hands its input back
/// with the pass's time. Returns each world's pass times.
pub fn untraced_run<T>(
    seconds: f64,
    inputs: Vec<T>,
    mut pass: impl FnMut(usize, T) -> (T, Timed),
) -> Vec<Vec<Timed>> {
    let worlds = inputs.len();
    let mut queue = VecDeque::from(inputs);
    let mut times = vec![Vec::new(); worlds];
    let (mut n, mut total) = (0, 0.0);
    let mut walls = Vec::new();
    while n < MIN_PASSES * worlds || total + median(&walls) / 2.0 < seconds {
        let w = n % worlds;
        let input = queue.pop_front().expect("the sample holds a world");
        let (input, time) = pass(w, input);
        queue.push_back(input);
        times[w].push(time);
        walls.push(time.wall_s);
        total += time.wall_s;
        n += 1;
    }
    times
}

/// Starts an untraced pass from a switched-off, empty obs registry.
/// `Repro::with_mode`, and the `scaling` section through it, turns obs
/// on, so without this every pass after the first `repro_full` pass in
/// a process would run traced.
pub fn untraced() {
    obs::alloc::disable_tracking();
    obs::disable();
    obs::reset();
}

/// Starts a traced pass: empty registry, obs and allocation counting on.
pub fn traced() {
    obs::reset();
    obs::enable();
    obs::alloc::enable_tracking();
}

/// Ends a traced pass.
pub fn end_traced() {
    obs::alloc::disable_tracking();
    obs::disable();
}

/// Records the facts every workload states about world `w`: releases,
/// and distinct source texts. From their sums over the sample the run
/// derives the share of releases whose source text repeats an earlier
/// one in the same world, which is what `SandboxCache` and
/// `SimilarityCache` feed on.
pub fn world_facts(w: usize, world: &World, report: &mut Report) {
    let distinct: HashSet<&str> = world
        .packages
        .iter()
        .map(|p| p.source_text.as_str())
        .collect();
    report.world_fact(w, "world_releases", world.packages.len());
    report.world_fact(w, "distinct_sources", distinct.len());
}

/// The median; `0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The mean over the sample of each world's median pass.
fn mean_of_medians(passes: &[Vec<f64>]) -> f64 {
    passes.iter().map(|p| median(p)).sum::<f64>() / passes.len().max(1) as f64
}

/// A scratch directory for this process under [`OUT_DIR`].
pub fn work_dir(tag: &str) -> PathBuf {
    Path::new(OUT_DIR)
        .join("work")
        .join(format!("{tag}-{}", std::process::id()))
}

/// Peak resident memory of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The type of the filesystem holding `path` (the longest mount point
/// that contains it), or `unknown`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut halves = line.split(" - ");
            let mount_point = halves.next()?.split_whitespace().nth(4)?;
            let fs_type = halves.next()?.split_whitespace().next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn failed_frac(report: &Report) -> f64 {
    report.failed as f64 / report.attempted.max(1) as f64
}

/// A metric value as JSON. Non-finite values, which jsonio would write
/// as `null`, become 0.
fn number(value: f64) -> Value {
    Value::Float(if value.is_finite() { value } else { 0.0 })
}

/// Writes the flat results file and returns its path. Names ending in
/// `_s` are wall times, everything else plain numbers, so `malgraph perf
/// diff` can compare two of these files unchanged.
fn write_results(args: &Args, report: &Report, metrics: &[Metric]) -> PathBuf {
    let mut fields: Vec<(String, Value)> = vec![
        ("trace".into(), Value::Int(i64::from(args.trace))),
        ("attempted".into(), report.attempted.into()),
        ("failed".into(), report.failed.into()),
        ("failed_frac".into(), number(failed_frac(report))),
    ];
    fields.extend(
        metrics
            .iter()
            .map(|(name, value, _)| (name.clone(), number(*value))),
    );
    fields.extend(
        report
            .facts
            .iter()
            .map(|(name, fact)| (name.to_string(), fact.clone())),
    );
    let dir = Path::new(OUT_DIR);
    let stem = format!("{}-s{}-t{}", args.workload, args.seed, u8::from(args.trace));
    let path = dir.join(format!("{stem}.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, Value::Object(fields).to_pretty() + "\n"))
        .and_then(|()| match &report.snapshot {
            Some(snapshot) => std::fs::write(dir.join(format!("{stem}.obs.json")), snapshot),
            None => Ok(()),
        });
    if let Err(e) = written {
        fatal(&format!("cannot write results under {OUT_DIR}: {e}"));
    }
    path
}

/// Diffs the results file against itself the way `malgraph perf diff`
/// does; a file it cannot read, or a diff that is not clean, fails the
/// run.
fn self_diff(path: &Path, report: &mut Report) {
    let rendered = obs::baseline::PerfProfile::from_file(path).map(|profile| {
        obs::baseline::diff(&profile, &profile, &obs::baseline::Thresholds::default()).render(false)
    });
    let verdict = match &rendered {
        Ok(text) => text.lines().last().unwrap_or_default().to_string(),
        Err(e) => e.clone(),
    };
    let clean = verdict.starts_with("OK: ") && !verdict.starts_with("OK: 0 compared");
    report.check(clean, || {
        format!("perf diff self-check of {}: {verdict}", path.display())
    });
    report.fact("perf_diff_self_check", verdict);
}

fn summary(args: &Args, report: &Report, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let mode = if args.trace { "traced" } else { "untraced" };
    let _ = writeln!(
        out,
        "== perfbench {} (seed {}, {mode})",
        args.workload, args.seed
    );
    for (name, fact) in &report.facts {
        let text = fact
            .as_str()
            .map_or_else(|| fact.to_compact(), str::to_string);
        let _ = writeln!(out, "  {name:<30} {text}");
    }
    for (name, value, unit) in metrics {
        let _ = writeln!(out, "  {name:<30} {value} {unit}");
    }
    let _ = writeln!(
        out,
        "  {:<30} {} ratio ({} of {} checks failed)",
        "failed_frac",
        failed_frac(report),
        report.failed,
        report.attempted
    );
    for problem in &report.problems {
        let _ = writeln!(out, "  FAILED: {problem}");
    }
    out
}

/// The result line the benchmark's contract asks for.
fn result_line(report: &Report, metrics: &[Metric]) -> Value {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let entry = vec![
                ("value".to_string(), number(*value)),
                ("unit".to_string(), Value::from(unit.as_str())),
            ];
            (name.clone(), Value::Object(entry))
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(report.failed == 0)),
        ("attempted".into(), report.attempted.into()),
        ("failed".into(), report.failed.into()),
        ("metrics".into(), Value::Object(metrics)),
    ])
}
