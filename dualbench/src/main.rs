//! Command-line entry point of the benchmark.
//!
//! ```text
//! dualbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--jobs N]
//! ```
//!
//! Prints a run-record line and then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 0 only when every check passed.

use std::process::ExitCode;
use std::time::Duration;

use dualbench::{result_line, run, Options, Workload, DEFAULT_SEED};

/// Longest a run may take before the watchdog aborts it.
const WATCHDOG: Duration = Duration::from_secs(170);

const USAGE: &str =
    "usage: dualbench --workload <suite_cold|suite_warm|fuzz_compile|serve_compile> \
[--seed N] [--seconds S] [--trace 0|1] [--jobs N]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::SuiteCold,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        jobs: nproc,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| bad("a number of seconds in (0, 120]"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--jobs" => {
                opts.jobs = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("a positive integer"))?;
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dualbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = opts.workload.name();
    // A stuck run (a lost response, a deadlocked pool) must fail by
    // name instead of hanging whoever runs the benchmark.
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "dualbench: {name}: watchdog: run exceeded {}s, aborting",
            WATCHDOG.as_secs()
        );
        std::process::exit(3);
    });
    match run(&opts) {
        Ok(outcome) => {
            println!("{}", outcome.record);
            println!("{}", result_line(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "dualbench: {name}: {} of {} cells failed their checks",
                    outcome.failed, outcome.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("dualbench: {e}");
            ExitCode::from(4)
        }
    }
}
