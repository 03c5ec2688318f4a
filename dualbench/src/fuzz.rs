//! `fuzz_compile`: differential fuzz campaigns ([`run_campaign`],
//! default [`GenConfig`], no corpus directory) over a fixed pool of
//! generated programs. Every campaign builds a fresh engine, so every
//! cell misses the cache and goes through the differential oracle: the
//! workload is compile-bound, and it fills caches with new entries
//! instead of hitting them.
//!
//! A batch is one pass over a fixed pool of [`POOL_CAMPAIGNS`]
//! campaign seeds, so every batch does the same work; the seed
//! shuffles the pool order of every batch. Campaign reports carry only cycle digests,
//! so each pool campaign is also replayed once through the engine the
//! way the campaign runs it, to get code sizes and the digest each
//! campaign is checked against. The traced run uses that replay, with
//! tracing on, for its breakdown.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use dsp_backend::Strategy;
use dsp_driver::{CancelToken, Engine, EngineOptions, JobReport, Priority, Tracer};
use dsp_frontend::ast::Item;
use dsp_gen::{run_campaign, DiffOptions, FuzzOptions, GenConfig};
use dsp_workloads::{Benchmark, Kind};

use crate::spans::{collect_spans, ExecSample};
use crate::stats::{SplitMix, FNV_BASIS};
use crate::{
    cache_counts, check_failed, exact_of_jobs, lookups, write_hit_rates, Batch, Bench, Exact,
    Options, Workload,
};

/// Campaigns in the pool: campaign seeds `1..=POOL_CAMPAIGNS`.
pub const POOL_CAMPAIGNS: u64 = 32;

/// Programs per campaign.
pub const PROGRAMS_PER_CAMPAIGN: usize = 4;

/// Cells of one campaign.
const CAMPAIGN_CELLS: u64 = (PROGRAMS_PER_CAMPAIGN * Strategy::ALL.len()) as u64;

/// The programs of campaign `seed`, exactly as [`run_campaign`]
/// generates and submits them: the first draws of the campaign's seed
/// stream, each checked on every global.
#[must_use]
pub fn campaign_programs(seed: u64) -> Vec<Benchmark> {
    let mut master = dsp_gen::rng::Rng::new(seed);
    (0..PROGRAMS_PER_CAMPAIGN)
        .map(|i| {
            let program_seed = master.next_u64();
            let ast = dsp_gen::generate(program_seed, &GenConfig::default());
            let check_globals = ast
                .items
                .iter()
                .filter_map(|item| match item {
                    Item::Global(g) => Some(g.name.clone()),
                    Item::Func(_) => None,
                })
                .collect();
            Benchmark {
                name: format!("fuzz-{i:05}"),
                kind: Kind::Application,
                description: format!("generated, seed {program_seed:#018x}"),
                source: dsp_frontend::print_ast(&ast),
                check_globals,
            }
        })
        .collect()
}

/// The engine a campaign builds for itself.
fn campaign_engine(jobs: usize, tracer: &Arc<Tracer>) -> Engine {
    Engine::new(EngineOptions {
        jobs,
        fuel: DiffOptions::default().sim_fuel,
        tracer: Arc::clone(tracer),
        ..EngineOptions::default()
    })
}

/// A campaign's cells through a fresh engine: its jobs in matrix order
/// (or the first failure) and the exact counts.
struct Replay {
    jobs: Result<Vec<JobReport>, String>,
    exact: Exact,
    engine: Engine,
    trace: u64,
}

fn replay(benches: &[Benchmark], jobs: usize, tracer: &Arc<Tracer>) -> Replay {
    let engine = campaign_engine(jobs, tracer);
    let marker = tracer.span("bench.batch", "bench", tracer.new_trace());
    let before = engine.cache().stats();
    let run = engine.submit_matrix(
        benches,
        &Strategy::ALL,
        Priority::Batch,
        CancelToken::new(),
        marker.ctx(),
    );
    let reports: Result<Vec<JobReport>, String> = (0..run.len())
        .map(|i| {
            let (name, strategy) = run.pair(i);
            match run.wait_job(i) {
                Some(Ok(job)) => Ok(job),
                Some(Err(e)) => Err(format!("{name} [{strategy}]: {e}")),
                None => Err(format!("{name} [{strategy}]: job panicked")),
            }
        })
        .collect();
    let trace = marker.ctx().trace;
    drop(marker);
    let mut exact = reports.as_deref().map(exact_of_jobs).unwrap_or_default();
    exact.cache = lookups(
        &cache_counts(&before),
        &cache_counts(&engine.cache().stats()),
    );
    Replay {
        jobs: reports,
        exact,
        engine,
        trace,
    }
}

/// The pool and what each campaign over it must report.
struct Reference {
    /// Per pool campaign: its cycle digest over every cell.
    digests: Vec<u64>,
    exact: Exact,
}

/// Compute the pool's expected results (once per process).
///
/// # Errors
///
/// Fails when a pool cell fails in the replay.
pub fn prepare(jobs: usize) -> Result<(), String> {
    reference(jobs).map(|_| ())
}

fn reference(jobs: usize) -> Result<&'static Reference, String> {
    static REFERENCE: OnceLock<Result<Reference, String>> = OnceLock::new();
    REFERENCE
        .get_or_init(|| {
            let mut exact = Exact {
                digest: FNV_BASIS,
                ..Exact::default()
            };
            let mut digests = Vec::new();
            for seed in 1..=POOL_CAMPAIGNS {
                let r = replay(&campaign_programs(seed), jobs, &Tracer::disabled());
                r.jobs?;
                digests.push(r.exact.digest);
                exact.absorb(&r.exact);
            }
            Ok(Reference { digests, exact })
        })
        .as_ref()
        .map_err(|e| format!("fuzz_compile: reference replay failed: {e}"))
}

/// The fuzz workload after set-up.
pub struct Fuzz {
    jobs: usize,
    seed: u64,
    tracer: Arc<Tracer>,
    reference: &'static Reference,
}

impl Fuzz {
    /// Generate and replay the pool once per process (not timed), then
    /// run every pool campaign once as the warm-up.
    ///
    /// # Errors
    ///
    /// Fails when the replay or a warm-up campaign fails its check.
    pub fn setup(opts: &Options, traced: bool) -> Result<Fuzz, String> {
        let reference = reference(opts.jobs)?;
        let fuzz = Fuzz {
            jobs: opts.jobs,
            seed: opts.seed,
            tracer: if traced {
                Tracer::new(1 << 16)
            } else {
                Tracer::disabled()
            },
            reference,
        };
        if fuzz.campaigns(u64::MAX).failed > 0 {
            return Err("fuzz_compile: warm-up campaigns failed their checks".to_string());
        }
        Ok(fuzz)
    }

    /// The pool replay's exact counts.
    #[must_use]
    pub fn exact(&self) -> &Exact {
        &self.reference.exact
    }

    /// Pool indices of batch `index`: a seeded shuffle of the pool.
    fn campaign_indices(&self, index: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..POOL_CAMPAIGNS as usize).collect();
        SplitMix::derived(self.seed, index).shuffle(&mut order);
        order
    }

    /// Untraced batch: one [`run_campaign`] per pool campaign.
    fn campaigns(&self, index: u64) -> Batch {
        let mut batch = Batch::default();
        let start = Instant::now();
        for c in self.campaign_indices(index) {
            let seed = c as u64 + 1;
            let t = Instant::now();
            let report = run_campaign(&FuzzOptions {
                seed,
                count: PROGRAMS_PER_CAMPAIGN,
                jobs: self.jobs,
                ..FuzzOptions::default()
            });
            batch.latencies.push((c, t.elapsed().as_secs_f64() * 1e3));
            batch.cells += CAMPAIGN_CELLS;
            let problem = match report {
                Err(e) => Some(format!("campaign seed {seed}: {e}")),
                Ok(r) if r.passed != PROGRAMS_PER_CAMPAIGN || r.failed != 0 => Some(format!(
                    "campaign seed {seed}: {} of {PROGRAMS_PER_CAMPAIGN} programs passed: {:?}",
                    r.passed,
                    r.failures.first().map(|f| &f.detail)
                )),
                Ok(r) if !r.aggregate_ideal_ok => Some(format!(
                    "campaign seed {seed}: Ideal is not the aggregate cycle bound"
                )),
                Ok(r) if r.cycles_digest != self.reference.digests[c] => Some(format!(
                    "campaign seed {seed}: cycle digest {:016x}, expected {:016x}",
                    r.cycles_digest, self.reference.digests[c]
                )),
                Ok(_) => None,
            };
            if let Some(msg) = problem {
                check_failed(Workload::FuzzCompile, &msg);
                batch.failed += CAMPAIGN_CELLS;
            }
        }
        batch.wall = start.elapsed();
        batch
    }

    /// Traced batch: each campaign's programs generated and replayed
    /// through a fresh traced engine, as the campaign runs them.
    fn replays(&self, index: u64) -> Batch {
        let mut batch = Batch::default();
        let mut gen = Duration::ZERO;
        let mut runs = Vec::with_capacity(POOL_CAMPAIGNS as usize);
        let start = Instant::now();
        for c in self.campaign_indices(index) {
            let t = Instant::now();
            let benches = campaign_programs(c as u64 + 1);
            gen += t.elapsed();
            let r = replay(&benches, self.jobs, &self.tracer);
            batch.latencies.push((c, t.elapsed().as_secs_f64() * 1e3));
            runs.push((c, benches, r));
        }
        batch.wall = start.elapsed();

        let mut jobs_all = Vec::new();
        let mut exact = Exact::default();
        let mut exec = ExecSample::default();
        let (mut profile_ns, mut profile_ops, mut resident) = (0.0, 0, 0);
        for (c, benches, r) in runs {
            let seed = c as u64 + 1;
            batch.cells += CAMPAIGN_CELLS;
            let digest = r.jobs.as_ref().map(|_| r.exact.digest);
            match &digest {
                Ok(d) if *d == self.reference.digests[c] => {}
                Ok(d) => {
                    check_failed(
                        Workload::FuzzCompile,
                        &format!("replay of campaign seed {seed}: cycle digest {d:016x} differs"),
                    );
                    batch.failed += CAMPAIGN_CELLS;
                }
                Err(e) => {
                    check_failed(Workload::FuzzCompile, e);
                    batch.failed += CAMPAIGN_CELLS;
                }
            }
            exact.absorb(&r.exact);
            let (spans, window) = collect_spans(&self.tracer, r.trace, CAMPAIGN_CELLS as usize);
            exec.add_window(&spans, window.0, window.1, r.engine.executor().workers());
            resident += r.engine.cache().stats().resident_bytes();
            if let Ok(js) = r.jobs {
                let (ns, ops) = crate::profile_cost(r.engine.cache(), &js, &benches);
                profile_ns += ns;
                profile_ops += ops;
                jobs_all.extend(js);
            }
        }
        let layers = &mut batch.layers;
        crate::write_job_layers(&jobs_all, layers);
        write_hit_rates(&exact.cache, layers);
        exec.write(layers);
        layers.insert("gen.ms", gen.as_secs_f64() * 1e3);
        layers.insert(
            "interp.ns_per_op",
            if profile_ops == 0 {
                0.0
            } else {
                profile_ns / profile_ops as f64
            },
        );
        layers.insert(
            "cache.resident_kb",
            resident as f64 / 1024.0 / POOL_CAMPAIGNS as f64,
        );
        batch
    }
}

impl Bench for Fuzz {
    fn batch(&mut self, index: u64) -> Batch {
        if self.tracer.is_enabled() {
            self.replays(index)
        } else {
            self.campaigns(index)
        }
    }
}
