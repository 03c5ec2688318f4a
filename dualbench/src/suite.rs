//! `suite_cold` and `suite_warm`: the paper's 23 benchmarks × 7
//! strategies through [`dsp_driver::Engine`], verification on, no disk
//! cache.
//!
//! `suite_cold` runs every batch on a fresh engine, so every layer does
//! its work; `suite_warm` re-runs the matrix on one engine whose caches
//! set-up filled, so a batch is artifact hits, simulation, and
//! verification against the cached reference. The seed shuffles the
//! benchmark submission order of every batch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsp_backend::Strategy;
use dsp_driver::{CancelToken, Engine, EngineOptions, JobReport, Priority, Tracer};
use dsp_workloads::Benchmark;

use crate::spans::{collect_spans, ExecSample, SpanRec};
use crate::stats::SplitMix;
use crate::{
    cache_counts, check_failed, exact_of_jobs, lookups, write_hit_rates, Batch, Bench, Exact,
    Layers, Options, Workload,
};

/// Spans kept by a traced engine: several matrices' worth.
const TRACE_CAPACITY: usize = 1 << 16;

/// A suite workload after set-up.
pub struct Suite {
    workload: Workload,
    jobs: usize,
    seed: u64,
    benches: Vec<Benchmark>,
    tracer: Arc<Tracer>,
    /// The warm engine (`suite_warm` only).
    warm: Option<Engine>,
    /// What every batch must reproduce.
    exact: Exact,
}

/// One matrix run: its jobs in canonical (paper) order, failures, and
/// the cache lookups it made.
struct Matrix {
    wall: Duration,
    jobs: Vec<JobReport>,
    /// Canonical cell index of each job.
    cell_ids: Vec<usize>,
    failed: u64,
    exact: Exact,
    spans: Vec<SpanRec>,
    window_us: (u64, u64),
}

impl Suite {
    /// Build the inputs and complete one warm-up repetition: a full
    /// cold matrix (`suite_cold`), or filling the engine's caches and
    /// one warm pass (`suite_warm`).
    ///
    /// # Errors
    ///
    /// Fails when a warm-up cell fails its check.
    pub fn setup(opts: &Options, traced: bool) -> Result<Suite, String> {
        let tracer = if traced {
            Tracer::new(TRACE_CAPACITY)
        } else {
            Tracer::disabled()
        };
        let mut suite = Suite {
            workload: opts.workload,
            jobs: opts.jobs,
            seed: opts.seed,
            benches: dsp_workloads::all(),
            tracer,
            warm: None,
            exact: Exact::default(),
        };
        let order: Vec<usize> = (0..suite.benches.len()).collect();
        let warmup = if opts.workload == Workload::SuiteWarm {
            let engine = suite.engine();
            let fill = suite.run_matrix(&engine, &order);
            if fill.failed > 0 {
                return Err("suite_warm: cache fill failed its checks".to_string());
            }
            let pass = suite.run_matrix(&engine, &order);
            suite.warm = Some(engine);
            pass
        } else {
            suite.run_matrix(&suite.engine(), &order)
        };
        if warmup.failed > 0 {
            return Err(format!(
                "{}: warm-up failed its checks",
                opts.workload.name()
            ));
        }
        suite.exact = warmup.exact;
        Ok(suite)
    }

    /// The exact counts of one batch.
    #[must_use]
    pub fn exact(&self) -> &Exact {
        &self.exact
    }

    fn engine(&self) -> Engine {
        Engine::new(EngineOptions {
            jobs: self.jobs,
            tracer: Arc::clone(&self.tracer),
            ..EngineOptions::default()
        })
    }

    /// Submit the matrix with benchmarks in `order`, wait for every
    /// cell, and check each one.
    fn run_matrix(&self, engine: &Engine, order: &[usize]) -> Matrix {
        let benches: Vec<Benchmark> = order.iter().map(|&i| self.benches[i].clone()).collect();
        let before = engine.cache().stats();
        let marker = self
            .tracer
            .span("bench.batch", "bench", self.tracer.new_trace());
        let ctx = marker.ctx();
        let start = Instant::now();
        let run = engine.submit_matrix(
            &benches,
            &Strategy::ALL,
            Priority::Batch,
            CancelToken::new(),
            ctx,
        );
        let mut cells: Vec<(usize, usize, JobReport)> = Vec::with_capacity(run.len());
        let mut failed = 0;
        let n_strats = Strategy::ALL.len();
        for i in 0..run.len() {
            let (name, strategy) = run.pair(i);
            match run.wait_job(i) {
                Some(Ok(job)) => cells.push((order[i / n_strats], i % n_strats, job)),
                Some(Err(e)) => {
                    check_failed(self.workload, &format!("{name} [{strategy}]: {e}"));
                    failed += 1;
                }
                None => {
                    check_failed(self.workload, &format!("{name} [{strategy}]: job panicked"));
                    failed += 1;
                }
            }
        }
        let wall = start.elapsed();
        drop(marker);
        let after = engine.cache().stats();
        cells.sort_by_key(|&(b, s, _)| (b, s));
        let cell_ids = cells.iter().map(|&(b, s, _)| b * n_strats + s).collect();
        let jobs: Vec<JobReport> = cells.into_iter().map(|(_, _, j)| j).collect();
        let mut exact = exact_of_jobs(&jobs);
        exact.cache = lookups(&cache_counts(&before), &cache_counts(&after));
        let (spans, window_us) = if self.tracer.is_enabled() {
            collect_spans(&self.tracer, ctx.trace, run.len())
        } else {
            (Vec::new(), (0, 0))
        };
        Matrix {
            wall,
            jobs,
            cell_ids,
            failed,
            exact,
            spans,
            window_us,
        }
    }
}

impl Bench for Suite {
    fn batch(&mut self, index: u64) -> Batch {
        let mut order: Vec<usize> = (0..self.benches.len()).collect();
        SplitMix::derived(self.seed, index).shuffle(&mut order);
        let start = Instant::now();
        let fresh;
        let engine = match &self.warm {
            Some(e) => e,
            None => {
                fresh = self.engine();
                &fresh
            }
        };
        // A cold batch's wall time includes building its engine.
        let build = start.elapsed();
        let m = self.run_matrix(engine, &order);
        let wall = build + m.wall;
        let mut failed = m.failed;
        if failed == 0 && m.exact != self.exact {
            check_failed(
                self.workload,
                &format!(
                    "batch {index}: exact counts {} differ from set-up's {}",
                    m.exact.to_json(),
                    self.exact.to_json()
                ),
            );
            failed = m.exact.cells.max(1);
        }
        let mut layers = Layers::new();
        if self.tracer.is_enabled() {
            crate::write_job_layers(&m.jobs, &mut layers);
            write_hit_rates(&m.exact.cache, &mut layers);
            let (ns, ops) = crate::profile_cost(engine.cache(), &m.jobs, &self.benches);
            layers.insert(
                "interp.ns_per_op",
                if ops == 0 { 0.0 } else { ns / ops as f64 },
            );
            layers.insert(
                "cache.resident_kb",
                engine.cache().stats().resident_bytes() as f64 / 1024.0,
            );
            let mut exec = ExecSample::default();
            exec.add_window(
                &m.spans,
                m.window_us.0,
                m.window_us.1,
                engine.executor().workers(),
            );
            exec.write(&mut layers);
        }
        Batch {
            wall,
            cells: m.exact.cells + m.failed,
            failed,
            latencies: m
                .cell_ids
                .iter()
                .zip(&m.jobs)
                .map(|(&id, j)| (id, crate::service_time(j).as_secs_f64() * 1e3))
                .collect(),
            layers,
        }
    }
}
