//! The benchmark's own checks: exact counts repeat across runs and
//! worker counts and match the golden file, and every metric that
//! `BENCHMARK.json` declares is reported.

use dsp_driver::json::{self, Value};
use dualbench::{golden, result_line, run, Options, Outcome, Workload};

/// A run of `workload` just long enough for the minimum batch count.
fn short_run(workload: Workload, jobs: usize, trace: bool) -> Outcome {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        jobs,
    };
    let outcome = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(
        outcome.correct && outcome.failed == 0,
        "{}: {} of {} cells failed",
        workload.name(),
        outcome.failed,
        outcome.attempted
    );
    outcome
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Metric names and units a `BENCHMARK.json` section declares.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let doc = json::parse(text).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"))
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Names and units on a run's result line, in order.
fn reported(outcome: &Outcome) -> Vec<(String, String)> {
    let line = json::parse(&result_line(outcome)).expect("result line is JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(line.get(key).is_some(), "result line lacks `{key}`");
    }
    match line.get("metrics") {
        Some(Value::Object(m)) => m
            .iter()
            .map(|(name, v)| {
                assert!(v.get("value").and_then(Value::as_f64).is_some(), "{name}");
                let unit = v.get("unit").and_then(Value::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect(),
        _ => panic!("`metrics` is not an object"),
    }
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn exact_counts_repeat_across_runs_and_worker_counts() {
    for workload in Workload::ALL {
        let a = short_run(workload, nproc(), false);
        let b = short_run(workload, nproc(), false);
        let serial = short_run(workload, 1, false);
        assert_eq!(a.exact, b.exact, "{}: two runs differ", workload.name());
        assert_eq!(
            a.exact,
            serial.exact,
            "{}: jobs=1 differs from jobs={}",
            workload.name(),
            nproc()
        );
        assert_eq!(
            Ok(a.exact.clone()),
            golden::expected(workload),
            "{}: counts differ from golden.json",
            workload.name()
        );
    }
}

#[test]
fn every_declared_metric_is_reported() {
    let e2e = sorted(declared("end_to_end"));
    let layers = sorted(declared("per_layer"));
    for workload in Workload::ALL {
        let plain = short_run(workload, nproc(), false);
        assert_eq!(sorted(reported(&plain)), e2e, "{}", workload.name());
        let traced = short_run(workload, nproc(), true);
        assert_eq!(sorted(reported(&traced)), layers, "{}", workload.name());
    }
}

#[test]
fn golden_mismatch_is_reported_per_count() {
    let mut wrong = golden::expected(Workload::SuiteCold).expect("golden entry");
    wrong.sim_cycles += 1;
    wrong.cache[3].misses += 1;
    let diffs = golden::check(Workload::SuiteCold, &wrong).expect_err("must differ");
    assert!(
        diffs.iter().any(|d| d.starts_with("sim_cycles")),
        "{diffs:?}"
    );
    assert!(
        diffs.iter().any(|d| d.starts_with("cache.artifact.misses")),
        "{diffs:?}"
    );
}
