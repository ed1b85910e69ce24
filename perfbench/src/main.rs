//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` it drives the
//! program's binaries (`table1`, `retimer serve`, `retimer fault-sim`)
//! and prints the
//! end-to-end metrics; with `--trace 1` it runs the binary once for
//! `wall_s`, then calls the same layers in process under a span
//! recorder and prints per-layer self times and counters. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md`.

mod checks;
mod inputs;
mod proc;
mod serve_mix;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use workloads::{Ctx, Report};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["table1_twins", "serve_mix", "faultsim_1k"];

/// No child may outlive this much of a run.
const HARD_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The program's release binaries, built by `run.sh` into the cargo
/// target directory.
fn binary(name: &str) -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let path = std::path::absolute(Path::new(&target).join("release").join(name))
        .map_err(|e| e.to_string())?;
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is not built (run perfbench/run.sh)",
            path.display()
        ))
    }
}

fn json_string(s: &str) -> String {
    serve::json::Json::str(s).to_string()
}

fn print_result(report: &Report) {
    let failed = report.failures.len() as u64;
    let attempted = report.attempted.max(failed).max(1);
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN; a non-finite value already makes the
            // run incorrect.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    let correct = failed == 0 && report.metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

fn run(args: &Args) -> Result<Report, String> {
    if !Path::new("crates/bench/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/bench/Cargo.toml not found)".into());
    }
    // The in-process layers must see the same defaults as the binaries.
    for (key, _) in std::env::vars() {
        if proc::scrubbed(&key) {
            std::env::remove_var(&key);
        }
    }
    let work = std::path::absolute(Path::new("perfbench/work").join(&args.workload))
        .map_err(|e| e.to_string())?;
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    }
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let start = Instant::now();
    let ctx = Ctx {
        retimer: binary("retimer")?,
        table1: binary("table1")?,
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        start,
        deadline: start + HARD_LIMIT,
    };
    let mut report = match (args.workload.as_str(), args.trace) {
        ("table1_twins", false) => workloads::table1_twins(&ctx)?,
        ("serve_mix", false) => workloads::serve_mix(&ctx)?,
        ("faultsim_1k", false) => workloads::faultsim_1k(&ctx)?,
        (name, true) => traced::run(name, &ctx)?,
        _ => unreachable!("workload names are validated"),
    };
    let ok = report.attempted - report.failures.len().min(report.attempted as usize) as u64;
    if !args.trace {
        report.metric(
            "ops_ok_frac",
            ok as f64 / report.attempted.max(1) as f64,
            "ratio",
        );
    }
    let digests: String = report
        .digests
        .iter()
        .map(|(what, d)| format!("{what} {d}\n"))
        .collect();
    let _ = std::fs::write(work.join("digests.txt"), &digests);
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "available parallelism: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match run(&args) {
        Ok(report) => {
            for (what, digest) in &report.digests {
                eprintln!("digest {what} {digest}");
            }
            for failure in &report.failures {
                eprintln!("FAILED {failure}");
            }
            for (name, value, unit) in &report.metrics {
                eprintln!("{name:<32} {value:>14.6} {unit}");
            }
            print_result(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
