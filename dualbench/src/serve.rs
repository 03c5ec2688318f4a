//! `serve_compile`: an in-process `dsp-serve` bound to `127.0.0.1:0`,
//! driven by closed-loop keep-alive connections (one per executor
//! worker). Each connection posts `/compile` for the 161 (benchmark,
//! strategy) pairs in its own seeded order per batch, after set-up
//! warmed the server's cache. This is the only workload that goes
//! through the `http` → `serve` → interactive `exec` path.
//!
//! Every response must be 200 and carry the cycles and code size the
//! same cell produces in-process (with verification on).

use std::collections::HashSet;
use std::io;
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dsp_backend::Strategy;
use dsp_driver::engine::run_job;
use dsp_driver::json::escape;
use dsp_driver::{ArtifactCache, EngineOptions, SpanCtx};
use dsp_serve::client::ClientConn;
use dsp_serve::{Server, ServerConfig, ServerHandle};

use crate::spans::{parse_trace_doc, self_times_us, ExecSample};
use crate::stats::{fnv, median, SplitMix, FNV_BASIS};
use crate::{
    check_failed, lookups, write_hit_rates, Batch, Bench, CacheCounts, Exact, HitMiss, Layers,
    Options, Workload,
};

/// Client read timeout: far above any request, far below the watchdog.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Timed `GET /metrics` renders after the traced load.
const METRICS_RENDERS: usize = 5;

/// One (benchmark, strategy) request and its in-process result.
struct Pair {
    label: String,
    body: String,
    cycles: u64,
    inst_words: u64,
}

/// Compute the in-process results the responses are checked against
/// (once per process).
///
/// # Errors
///
/// Fails when an in-process cell fails.
pub fn prepare() -> Result<(), String> {
    pairs().map(|_| ())
}

/// The 161 requests, in canonical order, with expected results from
/// [`run_job`] on this thread (computed once per process, not timed;
/// no executor threads, so the reference leaves no per-thread heap
/// behind to blur the server's peak memory).
fn pairs() -> Result<&'static [Pair], String> {
    static PAIRS: OnceLock<Result<Vec<Pair>, String>> = OnceLock::new();
    PAIRS
        .get_or_init(|| {
            let cache = ArtifactCache::new();
            let opts = EngineOptions::default();
            let mut pairs = Vec::new();
            for bench in dsp_workloads::all() {
                for strategy in Strategy::ALL {
                    let job = run_job(&cache, &opts, &bench, strategy, SpanCtx::NONE)
                        .map_err(|e| format!("in-process {} [{strategy}]: {e}", bench.name))?;
                    pairs.push(Pair {
                        label: format!("{} [{strategy}]", bench.name),
                        body: format!(
                            "{{\"source\": {}, \"strategy\": {}}}",
                            escape(&bench.source),
                            escape(strategy.label())
                        ),
                        cycles: job.measurement.cycles,
                        inst_words: u64::from(job.measurement.inst_words),
                    });
                }
            }
            Ok(pairs)
        })
        .as_deref()
        .map_err(|e| format!("serve_compile: {e}"))
}

/// The unsigned integer after `"key": ` in a JSON body.
fn field(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\": "))? + key.len() + 4;
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// What one connection saw during a round.
#[derive(Default)]
struct Round {
    /// Per request: canonical pair index and latency in ms.
    latencies: Vec<(usize, f64)>,
    failures: Vec<String>,
    traces: Vec<u64>,
    /// Per response: (cycles, ops, dual-memory cycles, bank conflicts).
    sim: Vec<[u64; 4]>,
    /// Per canonical pair index: the cycles the response carried.
    cycles: Vec<(usize, u64)>,
}

/// Post every pair in `order` on `conn`, checking each response.
fn round(conn: &mut ClientConn, pairs: &[Pair], order: &[usize]) -> Round {
    let mut r = Round::default();
    for &i in order {
        let pair = &pairs[i];
        let start = Instant::now();
        let resp = conn.request("POST", "/compile", Some(&pair.body));
        r.latencies.push((i, start.elapsed().as_secs_f64() * 1e3));
        let resp = match resp {
            Ok(resp) => resp,
            Err(e) => {
                r.failures
                    .push(format!("{}: transport error: {e}", pair.label));
                continue;
            }
        };
        let body = resp.text();
        if resp.status != 200 {
            r.failures.push(format!(
                "{}: HTTP {}: {}",
                pair.label,
                resp.status,
                body.trim()
            ));
            continue;
        }
        let got = |k| field(&body, k).unwrap_or(u64::MAX);
        let (cycles, words) = (got("cycles"), got("inst_words"));
        if cycles != pair.cycles || words != pair.inst_words {
            r.failures.push(format!(
                "{}: served {cycles} cycles / {words} words, in-process {} / {}",
                pair.label, pair.cycles, pair.inst_words
            ));
            continue;
        }
        if let Some(id) = resp.header("x-request-id") {
            r.traces.extend(u64::from_str_radix(id, 16).ok());
        }
        r.sim.push([
            cycles,
            got("ops"),
            got("dual_mem_cycles"),
            got("bank_conflict_cycles"),
        ]);
        r.cycles.push((i, cycles));
    }
    r
}

/// Sum of a labelled metric family's samples whose label set contains
/// `label`, in a Prometheus text render.
fn scrape(text: &str, family: &str, label: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with(family) && l[family.len()..].starts_with('{'))
        .filter(|l| l.contains(label))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

/// Cache lookups per layer from a `/metrics` render.
fn scrape_cache(text: &str) -> CacheCounts {
    crate::CACHE_LAYERS.map(|layer| {
        let label = format!("layer=\"{layer}\"");
        HitMiss {
            hits: scrape(text, "dsp_serve_cache_hits_total", &label),
            misses: scrape(text, "dsp_serve_cache_misses_total", &label),
        }
    })
}

/// The serve workload after set-up: a running server and open
/// connections.
pub struct Serve {
    handle: ServerHandle,
    server: Option<JoinHandle<io::Result<()>>>,
    conns: Vec<ClientConn>,
    pairs: &'static [Pair],
    seed: u64,
    traced: bool,
    exact: Exact,
}

impl Serve {
    /// Start the server, open the connections, and warm the server's
    /// cache with one request per pair.
    ///
    /// # Errors
    ///
    /// Fails when the server cannot bind or a warm-up response is
    /// wrong.
    pub fn setup(opts: &Options, traced: bool) -> Result<Serve, String> {
        let pairs = pairs()?;
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            // One connection worker per client plus one for the
            // benchmark's own metrics and trace reads.
            workers: opts.jobs + 1,
            jobs: opts.jobs,
            trace: traced,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("serve_compile: bind failed: {e}"))?;
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name("dualbench-server".to_string())
            .spawn(move || server.run())
            .map_err(|e| format!("serve_compile: cannot start the server: {e}"))?;
        let mut serve = Serve {
            handle,
            server: Some(thread),
            conns: Vec::new(),
            pairs,
            seed: opts.seed,
            traced,
            exact: Exact::default(),
        };
        for _ in 0..opts.jobs {
            let conn = ClientConn::connect(serve.handle.addr(), CLIENT_TIMEOUT)
                .map_err(|e| format!("serve_compile: connect failed: {e}"))?;
            serve.conns.push(conn);
        }
        // Warm-up: every pair once, dealt round-robin to the connections.
        let n = serve.conns.len();
        let orders: Vec<Vec<usize>> = (0..n)
            .map(|c| (c..pairs.len()).step_by(n).collect())
            .collect();
        let rounds = serve.rounds(&orders);
        let mut cycles: Vec<(usize, u64)> = Vec::new();
        for r in &rounds {
            for f in &r.failures {
                check_failed(Workload::ServeCompile, f);
            }
            if !r.failures.is_empty() {
                return Err("serve_compile: cache warm-up failed its checks".to_string());
            }
            cycles.extend(&r.cycles);
        }
        cycles.sort_unstable();
        let cache = scrape_cache(&serve.get("/metrics")?);
        serve.exact = Exact {
            cells: cycles.len() as u64,
            sim_cycles: cycles.iter().map(|&(_, c)| c).sum(),
            inst_words: pairs.iter().map(|p| p.inst_words).sum(),
            digest: cycles.iter().fold(FNV_BASIS, |d, &(_, c)| fnv(d, c)),
            cache,
        };
        Ok(serve)
    }

    /// The warm-up pass's exact counts.
    #[must_use]
    pub fn exact(&self) -> &Exact {
        &self.exact
    }

    /// Run one round per connection concurrently.
    fn rounds(&mut self, orders: &[Vec<usize>]) -> Vec<Round> {
        let pairs = self.pairs;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(orders)
                .map(|(conn, order)| s.spawn(move || round(conn, pairs, order)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    /// `GET path` on a fresh connection; the body of a 200 response.
    fn get(&self, path: &str) -> Result<String, String> {
        let mut conn = ClientConn::connect(self.handle.addr(), CLIENT_TIMEOUT)
            .map_err(|e| format!("GET {path}: connect failed: {e}"))?;
        let resp = conn
            .request("GET", path, None)
            .map_err(|e| format!("GET {path}: {e}"))?;
        if resp.status == 200 {
            Ok(resp.text())
        } else {
            Err(format!("GET {path}: HTTP {}", resp.status))
        }
    }

    /// Per-layer figures of a traced round from the server's spans and
    /// metrics.
    fn traced_layers(&self, rounds: &[Round], before: &str, layers: &mut Layers) {
        let (after, trace) = match (self.get("/metrics"), self.get("/debug/trace?n=4096")) {
            (Ok(m), Ok(t)) => (m, t),
            (Err(e), _) | (_, Err(e)) => {
                check_failed(Workload::ServeCompile, &e);
                return;
            }
        };
        let ids: HashSet<u64> = rounds
            .iter()
            .flat_map(|r| r.traces.iter().copied())
            .collect();
        let spans = match parse_trace_doc(&trace) {
            Ok(all) => all
                .into_iter()
                .filter(|s| ids.contains(&s.trace))
                .collect::<Vec<_>>(),
            Err(e) => {
                check_failed(Workload::ServeCompile, &e);
                return;
            }
        };
        let requests = spans
            .iter()
            .filter(|s| s.name == "http.request")
            .count()
            .max(1) as f64;
        let self_us: u64 = self_times_us(&spans, "http.request").iter().sum();
        layers.insert("serve.http_self_ms", self_us as f64 / 1e3 / requests);
        let wait_us: u64 = spans
            .iter()
            .filter(|s| s.name == "exec.wait" && s.class.as_deref() == Some("interactive"))
            .map(|s| s.dur_us)
            .sum();
        layers.insert("serve.queue_wait_ms", wait_us as f64 / 1e3 / requests);
        let roots = spans.iter().filter(|s| s.name == "http.request");
        let start = roots.clone().map(|s| s.start_us).min().unwrap_or(0);
        let end = roots.map(crate::spans::SpanRec::end_us).max().unwrap_or(0);
        let mut exec = ExecSample::default();
        exec.add_window(&spans, start, end, self.conns.len());
        exec.write(layers);

        let sim_us: u64 = spans
            .iter()
            .filter(|s| s.name == "simulate")
            .map(|s| s.dur_us)
            .sum();
        let sim: [u64; 4] = rounds.iter().flat_map(|r| &r.sim).fold([0; 4], |a, s| {
            [a[0] + s[0], a[1] + s[1], a[2] + s[2], a[3] + s[3]]
        });
        layers.insert("sim.ms", sim_us as f64 / 1e3);
        layers.insert(
            "sim.ns_per_cycle",
            sim_us as f64 * 1e3 / sim[0].max(1) as f64,
        );
        layers.insert("sim.ops", sim[1] as f64);
        layers.insert("sim.dual_mem_cycles", sim[2] as f64);
        layers.insert("sim.bank_conflict_cycles", sim[3] as f64);

        write_hit_rates(
            &lookups(&scrape_cache(before), &scrape_cache(&after)),
            layers,
        );
        layers.insert(
            "cache.resident_kb",
            scrape(&after, "dsp_serve_cache_bytes", "layer=") as f64 / 1024.0,
        );
    }
}

impl Bench for Serve {
    fn batch(&mut self, index: u64) -> Batch {
        let n = self.pairs.len();
        let orders: Vec<Vec<usize>> = (0..self.conns.len() as u64)
            .map(|c| {
                let mut order: Vec<usize> = (0..n).collect();
                SplitMix::derived(self.seed ^ c.wrapping_mul(0x9e37_79b9_7f4a_7c15), index)
                    .shuffle(&mut order);
                order
            })
            .collect();
        let before = if self.traced {
            self.get("/metrics").unwrap_or_default()
        } else {
            String::new()
        };
        let start = Instant::now();
        let rounds = self.rounds(&orders);
        let wall = start.elapsed();
        let mut batch = Batch {
            wall,
            ..Batch::default()
        };
        for r in &rounds {
            batch.cells += r.latencies.len() as u64;
            batch.failed += r.failures.len() as u64;
            batch.latencies.extend(&r.latencies);
            for f in &r.failures {
                check_failed(Workload::ServeCompile, f);
            }
        }
        if self.traced {
            self.traced_layers(&rounds, &before, &mut batch.layers);
        }
        batch
    }

    fn after_traced(&mut self, layers: &mut Layers) {
        let mut renders = Vec::with_capacity(METRICS_RENDERS);
        for _ in 0..METRICS_RENDERS {
            let start = Instant::now();
            match self.get("/metrics") {
                Ok(_) => renders.push(start.elapsed().as_secs_f64() * 1e3),
                Err(e) => check_failed(Workload::ServeCompile, &e),
            }
        }
        layers.insert("serve.metrics_render_ms", median(&renders));
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Close the keep-alive connections so the server's connection
        // workers return, then drain the server and join its thread.
        self.conns.clear();
        self.handle.shutdown();
        if let Some(thread) = self.server.take() {
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("dualbench: serve_compile: server stopped with {e}"),
                Err(_) => eprintln!("dualbench: serve_compile: server thread panicked"),
            }
        }
    }
}
