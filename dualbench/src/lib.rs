//! `dualbench` — the repository's end-to-end and per-layer benchmark.
//!
//! One command runs a named workload for a fixed time with a seed,
//! checks every output, and prints each metric by name and unit. The
//! untraced run (`--trace 0`) reports the end-to-end metrics
//! ([`E2E_METRICS`]); a separate traced run (`--trace 1`) reports the
//! per-layer breakdown ([`LAYER_METRICS`]). The benchmark drives the
//! system only through the crates' public functions.
//!
//! Each workload is a loop of *batches* (one repetition of its input
//! set) after a timed set-up. Every batch is checked: suite cells are
//! verified against the reference interpreter, fuzz campaigns must
//! pass their differential oracle, and served results must equal the
//! in-process ones. Exact counts (simulated cycles, code words, cache
//! hits and misses, a digest of per-cell cycles) must repeat across
//! batches and match `golden.json`.

mod fuzz;
pub mod golden;
mod serve;
mod spans;
mod stats;
mod suite;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dsp_driver::{ArtifactCache, CacheStats, JobReport};
use dsp_workloads::Benchmark;

use crate::stats::{median, quantile};

/// Per-layer figures of one batch, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Seed used when `--seed` is not given. The seed only orders the
/// inputs, so exact counts are the same at every seed and the golden
/// check runs on every run.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up repetitions per untraced run; `setup_s` is their median. The
/// first instance is measured; the others are timed after the
/// measurement and torn down.
pub const SETUP_REPS: usize = 5;

/// Fewest timed batches per measured phase, however short `--seconds`.
pub const MIN_BATCHES: usize = 3;

/// End-to-end metrics (untraced run): name and unit.
pub const E2E_METRICS: [(&str, &str); 8] = [
    ("cells_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("compile_p50_ms", "ms"),
    ("compile_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("inst_words", "words"),
];

/// Per-layer metrics (traced run): name and unit.
pub const LAYER_METRICS: [(&str, &str); 35] = [
    ("cache.prepared.hit_rate", "ratio"),
    ("cache.profile.hit_rate", "ratio"),
    ("cache.reference.hit_rate", "ratio"),
    ("cache.artifact.hit_rate", "ratio"),
    ("cache.resident_kb", "KiB"),
    ("frontend.parse_ms", "ms"),
    ("opt.ms", "ms"),
    ("backend.trial_compaction_ms", "ms"),
    ("backend.partition_ms", "ms"),
    ("backend.regalloc_ms", "ms"),
    ("backend.lower_ms", "ms"),
    ("backend.final_pack_ms", "ms"),
    ("backend.link_ms", "ms"),
    ("partition.passes", "count"),
    ("partition.moves", "count"),
    ("interp.reference_ms", "ms"),
    ("interp.profile_ms", "ms"),
    ("interp.ns_per_op", "ns"),
    ("sim.ms", "ms"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.ops", "count"),
    ("sim.dual_mem_cycles", "cycles"),
    ("sim.bank_conflict_cycles", "cycles"),
    ("verify.ms", "ms"),
    ("exec.wait_ms.batch.p50", "ms"),
    ("exec.wait_ms.batch.p99", "ms"),
    ("exec.wait_ms.interactive.p50", "ms"),
    ("exec.wait_ms.interactive.p99", "ms"),
    ("exec.busy_frac", "ratio"),
    ("exec.tail_ms", "ms"),
    ("gen.ms", "ms"),
    ("serve.http_self_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.metrics_render_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 23 × 7 paper matrix on a fresh engine per batch.
    SuiteCold,
    /// The same matrix on one engine whose caches set-up filled.
    SuiteWarm,
    /// Four-program differential fuzz campaigns over a fixed pool.
    FuzzCompile,
    /// Closed-loop `/compile` traffic against an in-process server.
    ServeCompile,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 4] = [
        Workload::SuiteCold,
        Workload::SuiteWarm,
        Workload::FuzzCompile,
        Workload::ServeCompile,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite_cold",
            Workload::SuiteWarm => "suite_warm",
            Workload::FuzzCompile => "fuzz_compile",
            Workload::ServeCompile => "serve_compile",
        }
    }

    /// Look a workload up by name.
    ///
    /// # Errors
    ///
    /// Names the valid workloads.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{name}` (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the input order.
    pub seed: u64,
    /// Measured time of the run (split between an untraced and a
    /// traced phase when `trace` is set).
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Executor workers (and client connections on `serve_compile`).
    pub jobs: usize,
}

/// Hits and misses of one cache layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HitMiss {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that computed the entry.
    pub misses: u64,
}

impl HitMiss {
    /// `hits / (hits + misses)`, 0 without lookups.
    #[must_use]
    pub fn hit_rate(self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cache layers in [`Exact::cache`] order.
pub const CACHE_LAYERS: [&str; 4] = ["prepared", "profile", "reference", "artifact"];

/// Hits and misses per cache layer, in [`CACHE_LAYERS`] order.
pub type CacheCounts = [HitMiss; 4];

/// The per-layer counters of an engine cache snapshot.
#[must_use]
pub(crate) fn cache_counts(s: &CacheStats) -> CacheCounts {
    [
        (s.prepared_hits, s.prepared_misses),
        (s.profile_hits, s.profile_misses),
        (s.reference_hits, s.reference_misses),
        (s.artifact_hits, s.artifact_misses),
    ]
    .map(|(hits, misses)| HitMiss { hits, misses })
}

/// The lookups made between two counter snapshots.
#[must_use]
pub(crate) fn lookups(before: &CacheCounts, after: &CacheCounts) -> CacheCounts {
    std::array::from_fn(|i| HitMiss {
        hits: after[i].hits - before[i].hits,
        misses: after[i].misses - before[i].misses,
    })
}

/// Write the `cache.*.hit_rate` per-layer metrics.
pub(crate) fn write_hit_rates(counts: &CacheCounts, layers: &mut Layers) {
    let names = [
        "cache.prepared.hit_rate",
        "cache.profile.hit_rate",
        "cache.reference.hit_rate",
        "cache.artifact.hit_rate",
    ];
    for (name, hm) in names.into_iter().zip(counts) {
        layers.insert(name, hm.hit_rate());
    }
}

/// Deterministic results of one pass over a workload's input set. Two
/// correct runs of the same code must agree on every field.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Exact {
    /// (program, strategy) cells.
    pub cells: u64,
    /// Simulated cycles summed over cells.
    pub sim_cycles: u64,
    /// Generated instruction words summed over cells.
    pub inst_words: u64,
    /// FNV-1a digest of per-cell cycles in canonical cell order.
    pub digest: u64,
    /// Cache lookups per layer.
    pub cache: CacheCounts,
}

impl Exact {
    /// Add another pass's counts (the digest folds `other`'s in).
    pub fn absorb(&mut self, other: &Exact) {
        self.cells += other.cells;
        self.sim_cycles += other.sim_cycles;
        self.inst_words += other.inst_words;
        self.digest = stats::fnv(self.digest, other.digest);
        for (a, b) in self.cache.iter_mut().zip(other.cache) {
            a.hits += b.hits;
            a.misses += b.misses;
        }
    }

    /// The counts as a JSON object (the golden file's entry format).
    #[must_use]
    pub fn to_json(&self) -> String {
        let cache: Vec<String> = CACHE_LAYERS
            .iter()
            .zip(self.cache)
            .map(|(l, hm)| format!("\"{l}\": [{}, {}]", hm.hits, hm.misses))
            .collect();
        format!(
            "{{\"cells\": {}, \"sim_cycles\": {}, \"inst_words\": {}, \"digest\": \"{:016x}\", \"cache\": {{{}}}}}",
            self.cells,
            self.sim_cycles,
            self.inst_words,
            self.digest,
            cache.join(", ")
        )
    }
}

/// Exact counts of a set of job reports: cells, summed cycles and code
/// words, and the digest of per-cell cycles in the given order.
#[must_use]
pub(crate) fn exact_of_jobs<'a>(jobs: impl IntoIterator<Item = &'a JobReport>) -> Exact {
    let mut exact = Exact {
        digest: stats::FNV_BASIS,
        ..Exact::default()
    };
    for job in jobs {
        exact.cells += 1;
        exact.sim_cycles += job.measurement.cycles;
        exact.inst_words += u64::from(job.measurement.inst_words);
        exact.digest = stats::fnv(exact.digest, job.measurement.cycles);
    }
    exact
}

/// One timed repetition of a workload.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    /// Wall time of the repetition.
    pub wall: Duration,
    /// Cells (or requests) attempted.
    pub cells: u64,
    /// Cells that failed a check.
    pub failed: u64,
    /// Per-cell (or per-request, per-campaign) latencies in ms, each
    /// keyed by the unit of work it timed, so that the same unit can be
    /// compared across batches.
    pub latencies: Vec<(usize, f64)>,
    /// Per-layer figures (traced batches only).
    pub layers: Layers,
}

impl Batch {
    /// Cells completed per wall second.
    #[must_use]
    pub fn cells_per_s(&self) -> f64 {
        self.cells as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// A workload after set-up, ready to run batches.
pub(crate) trait Bench {
    /// Run and check repetition `index`.
    fn batch(&mut self, index: u64) -> Batch;

    /// Per-layer figures measured once after the traced batches.
    fn after_traced(&mut self, _layers: &mut Layers) {}
}

/// Print one failed check, naming the workload.
pub(crate) fn check_failed(workload: Workload, msg: &str) {
    eprintln!("dualbench: {}: check failed: {msg}", workload.name());
}

/// The service time of one cell: the pipeline stages the cell itself
/// computed (cache hits excluded), plus simulation and verification.
#[must_use]
pub(crate) fn service_time(job: &JobReport) -> Duration {
    let s = &job.stages;
    let c = &job.cached;
    let mut t = s.simulate + s.verify;
    if !c.prepared {
        t += s.parse + s.opt;
    }
    if c.profile == Some(false) {
        t += s.profile;
    }
    if c.reference == Some(false) {
        t += s.reference;
    }
    if !c.artifact && c.artifact_disk != Some(true) {
        t += s.trial_compaction + s.partition + s.regalloc + s.lower + s.final_pack + s.link;
    }
    t
}

/// Per-layer stage figures summed over `jobs`, from the stage times the
/// pipeline records. Compile stages count only where the cell computed
/// them, so cache hits are not counted twice.
pub(crate) fn write_job_layers(jobs: &[JobReport], layers: &mut Layers) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut sums = Layers::new();
    let mut add = |k: &'static str, v: f64| *sums.entry(k).or_insert(0.0) += v;
    let mut cycles = 0u64;
    for j in jobs {
        let (s, c) = (&j.stages, &j.cached);
        if !c.prepared {
            add("frontend.parse_ms", ms(s.parse));
            add("opt.ms", ms(s.opt));
        }
        if !c.artifact && c.artifact_disk != Some(true) {
            add("backend.trial_compaction_ms", ms(s.trial_compaction));
            add("backend.partition_ms", ms(s.partition));
            add("backend.regalloc_ms", ms(s.regalloc));
            add("backend.lower_ms", ms(s.lower));
            add("backend.final_pack_ms", ms(s.final_pack));
            add("backend.link_ms", ms(s.link));
            add("partition.passes", j.partition_passes as f64);
            add("partition.moves", j.partition_moves as f64);
        }
        if c.reference == Some(false) {
            add("interp.reference_ms", ms(s.reference));
        }
        if c.profile == Some(false) {
            add("interp.profile_ms", ms(s.profile));
        }
        let st = &j.measurement.stats;
        add("sim.ms", ms(s.simulate));
        add("sim.ops", st.ops as f64);
        add("sim.dual_mem_cycles", st.dual_mem_cycles as f64);
        add("sim.bank_conflict_cycles", st.bank_conflict_cycles as f64);
        add("verify.ms", ms(s.verify));
        cycles += j.measurement.cycles;
    }
    let sim_ms = sums.get("sim.ms").copied().unwrap_or(0.0);
    layers.extend(sums);
    layers.insert(
        "sim.ns_per_cycle",
        if cycles == 0 {
            0.0
        } else {
            sim_ms * 1e6 / cycles as f64
        },
    );
}

/// Interpreter cost of the profiling runs the cells in `jobs` computed:
/// `(nanoseconds, IR operations)`, read back from `cache`, which keeps
/// each run's duration and execution counts. `benches` holds the
/// sources the jobs name.
#[must_use]
pub(crate) fn profile_cost(
    cache: &ArtifactCache,
    jobs: &[JobReport],
    benches: &[Benchmark],
) -> (f64, u64) {
    let mut ns = 0.0;
    let mut ops = 0;
    for job in jobs.iter().filter(|j| j.cached.profile == Some(false)) {
        let Some(bench) = benches.iter().find(|b| b.name == job.bench) else {
            continue;
        };
        let Ok((prep, _)) = cache.prepared(&bench.source) else {
            continue;
        };
        if let Ok((stats, time, _)) = cache.profile(&prep) {
            ns += time.as_secs_f64() * 1e9;
            ops += stats.ops_executed;
        }
    }
    (ns, ops)
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Cells (or requests) attempted in timed batches.
    pub attempted: u64,
    /// Cells that failed a check.
    pub failed: u64,
    /// Reported metrics: name, unit, value.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Exact counts of one pass over the inputs.
    pub exact: Exact,
    /// The run record: settings, environment and every sample.
    pub record: String,
}

/// The median latency of every unit of work over `batches`. Their
/// quantiles are the latency metrics: a unit's median is steady from
/// run to run, where a quantile over all samples would jump between
/// the few heavy cells it falls among whenever the host stalls one.
fn unit_latencies(batches: &[Batch]) -> Vec<f64> {
    let mut by_unit: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(unit, ms) in batches.iter().flat_map(|b| &b.latencies) {
        by_unit.entry(unit).or_default().push(ms);
    }
    by_unit.values().map(|v| median(v)).collect()
}

/// Time `seconds` worth of batches (at least [`MIN_BATCHES`] each),
/// alternating between `benches` batch by batch so that drift in the
/// host's speed affects each of them alike.
fn measure(benches: &mut [Box<dyn Bench>], seconds: f64) -> Vec<Vec<Batch>> {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut batches: Vec<Vec<Batch>> = benches.iter().map(|_| Vec::new()).collect();
    let mut index = 0;
    while index < MIN_BATCHES as u64 || Instant::now() < end {
        for (bench, out) in benches.iter_mut().zip(&mut batches) {
            out.push(bench.batch(index));
        }
        index += 1;
    }
    batches
}

/// Set up a workload, traced or not, returning its bench and set-up
/// time, plus the exact counts of one pass over its input set.
fn setup(opts: &Options, traced: bool) -> Result<(Box<dyn Bench>, Duration, Exact), String> {
    // Expected results the checks need are computed once per process,
    // outside the set-up time.
    match opts.workload {
        Workload::FuzzCompile => fuzz::prepare(opts.jobs)?,
        Workload::ServeCompile => serve::prepare()?,
        Workload::SuiteCold | Workload::SuiteWarm => {}
    }
    let start = Instant::now();
    let (bench, exact): (Box<dyn Bench>, Exact) = match opts.workload {
        Workload::SuiteCold | Workload::SuiteWarm => {
            let b = suite::Suite::setup(opts, traced)?;
            let exact = b.exact().clone();
            (Box::new(b), exact)
        }
        Workload::FuzzCompile => {
            let b = fuzz::Fuzz::setup(opts, traced)?;
            let exact = b.exact().clone();
            (Box::new(b), exact)
        }
        Workload::ServeCompile => {
            let b = serve::Serve::setup(opts, traced)?;
            let exact = b.exact().clone();
            (Box::new(b), exact)
        }
    };
    Ok((bench, start.elapsed(), exact))
}

/// Run one workload end to end.
///
/// # Errors
///
/// Returns a message when set-up fails or the exact counts differ
/// from the golden file.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let (bench, first_setup, exact) = setup(opts, false)?;
    let mut setups = vec![first_setup.as_secs_f64()];
    let mut failed = 0;
    if let Err(mismatches) = golden::check(w, &exact) {
        for m in &mismatches {
            check_failed(w, m);
        }
        return Err(format!(
            "{}: {} exact count(s) differ from golden.json",
            w.name(),
            mismatches.len()
        ));
    }

    // The traced run alternates untraced and traced batches: the
    // untraced ones give the base of `trace.overhead_frac`.
    let mut benches = vec![bench];
    if opts.trace {
        let (tb, _, texact) = setup(opts, true)?;
        if texact != exact {
            check_failed(
                w,
                "exact counts differ between the traced and untraced set-up",
            );
            failed += exact.cells;
        }
        benches.push(tb);
    }
    let mut phases = measure(&mut benches, opts.seconds).into_iter();
    let plain = phases.next().unwrap_or_default();
    let traced = phases.next().unwrap_or_default();
    let mut after = Layers::new();
    if let Some(tb) = benches.get_mut(1) {
        tb.after_traced(&mut after);
    }
    drop(benches);
    // Read before the remaining set-up repetitions, whose instance churn
    // would otherwise dominate the peak.
    let peak_rss = peak_rss_mb();
    if !opts.trace {
        for _ in 1..SETUP_REPS {
            let (_, t, e) = setup(opts, false)?;
            setups.push(t.as_secs_f64());
            if e != exact {
                check_failed(w, "exact counts differ between set-up repetitions");
                failed += exact.cells;
            }
        }
    }

    let all = plain.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|b| b.cells).sum();
    failed += all.map(|b| b.failed).sum::<u64>();
    let cps = |bs: &[Batch]| median(&bs.iter().map(Batch::cells_per_s).collect::<Vec<_>>());

    let metrics: Vec<(&'static str, &'static str, f64)> = if opts.trace {
        let mut layers = Layers::new();
        for (name, _) in LAYER_METRICS {
            let values: Vec<f64> = traced
                .iter()
                .map(|b| b.layers.get(name).copied().unwrap_or(0.0))
                .collect();
            layers.insert(name, median(&values));
        }
        layers.extend(after);
        let (untraced, with_trace) = (cps(&plain), cps(&traced));
        layers.insert("trace.overhead_frac", 1.0 - with_trace / untraced.max(1e-9));
        LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n, u, layers.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let lat = unit_latencies(&plain);
        let walls: Vec<f64> = plain.iter().map(|b| b.wall.as_secs_f64() * 1e3).collect();
        let values = [
            cps(&plain),
            median(&walls),
            quantile(&lat, 0.50),
            quantile(&lat, 0.99),
            median(&setups),
            peak_rss,
            exact.sim_cycles as f64,
            exact.inst_words as f64,
        ];
        E2E_METRICS
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, if v.is_finite() { v } else { 0.0 }))
            .collect()
    };

    let record = run_record(opts, &setups, &exact, &plain, &traced);
    Ok(Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        exact,
        record,
    })
}

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_list(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(|v| format!("{v}")).collect();
    format!("[{}]", items.join(", "))
}

/// The run record: settings, environment, the exact counts, and every
/// per-repetition sample, so a later comparison can use quartiles and
/// pairwise rules rather than one median.
fn run_record(
    opts: &Options,
    setups: &[f64],
    exact: &Exact,
    plain: &[Batch],
    traced: &[Batch],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let phase = |bs: &[Batch]| {
        let mut out = String::from("[");
        for (i, b) in bs.iter().enumerate() {
            let lat: Vec<f64> = b.latencies.iter().map(|&(_, ms)| ms).collect();
            let _ = write!(
                out,
                "{}{{\"wall_ms\": {}, \"cells\": {}, \"failed\": {}, \"cells_per_s\": {}, \"p50_ms\": {}, \"p99_ms\": {}}}",
                if i == 0 { "" } else { ", " },
                b.wall.as_secs_f64() * 1e3,
                b.cells,
                b.failed,
                b.cells_per_s(),
                quantile(&lat, 0.5),
                quantile(&lat, 0.99),
            );
        }
        out.push(']');
        out
    };
    format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"jobs\": {}, \"git_rev\": {}, \"profile\": \"{}\", \"rustc\": {}, \
         \"setup_s\": {}, \"exact\": {}, \"batches\": {}, \"traced_batches\": {}}}}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.jobs,
        dsp_driver::json::escape(&command_line("git", &["rev-parse", "HEAD"])),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        dsp_driver::json::escape(&command_line("rustc", &["--version"])),
        json_list(setups.iter().copied()),
        exact.to_json(),
        phase(plain),
        phase(traced),
    )
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
