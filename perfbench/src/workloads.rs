//! The four workloads with tracing off: the program's own binaries at
//! their default settings, timed from outside.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use netlist::digest::{content_digest, format_digest, Fnv1a};

use crate::checks;
use crate::inputs;
use crate::proc::{self, Finished, Session};
use crate::serve_mix::{self, Round, Stdio};
use crate::stats::{median, tail};

/// Spawns in one burst of spawn-to-first-line probes. A burst runs
/// before each invocation of a one-shot command and after the last,
/// and gives one `setup_s` sample: its fastest spawn. On a shared
/// 2-vCPU virtual machine the host took a vCPU away for about 4 ms at
/// a time: a spawn of `retimer fault-sim` that lost its vCPU once
/// reached its first line about 4 ms later, and the share of such
/// spawns went from a few percent to over 90% from one minute to the
/// next. The child's CPU time followed its wall time, so the loss is
/// the host's, not the program's. The fastest of a burst is the
/// start-up cost itself; the median over bursts gives `setup_s`.
const SETUP_BURST: usize = 30;

/// Where and how long a run works.
pub struct Ctx {
    /// The `retimer` binary.
    pub retimer: PathBuf,
    /// The `table1` binary.
    pub table1: PathBuf,
    /// This workload's scratch directory (absolute).
    pub work: PathBuf,
    /// The benchmark seed.
    pub seed: u64,
    /// Seconds to keep starting measured repetitions.
    pub seconds: f64,
    /// When the run started.
    pub start: Instant,
    /// Hard stop for any child.
    pub deadline: Instant,
}

impl Ctx {
    fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// `(what, digest)` of each deterministic output.
    pub digests: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records `digest` for `what`; a digest that differs from the one
    /// already recorded for `what` is a failed operation.
    pub fn digest(&mut self, what: &str, digest: String) {
        match self.digests.iter().find(|(w, _)| w == what) {
            Some((_, first)) if *first != digest => self.failures.push(format!(
                "{what}: output digest {digest} differs from this run's first, {first}"
            )),
            Some(_) => {}
            None => self.digests.push((what.to_string(), digest)),
        }
    }
}

/// Timings of a one-shot command's invocations.
#[derive(Default)]
struct Invocations {
    setups: Vec<f64>,
    walls: Vec<f64>,
    peak_rss_kib: u64,
}

/// Runs a one-shot command: full invocations until `ctx.seconds` have
/// passed (at least one), with a burst of [`SETUP_BURST`]
/// killed-after-first-line spawns before each and after the last. `check` validates each invocation and
/// returns the deterministic output's digest and the SER reduction it
/// reported.
fn one_shot(
    ctx: &Ctx,
    report: &mut Report,
    what: &str,
    make: impl Fn() -> Command,
    check: impl Fn(&Finished) -> Result<(String, f64), String>,
) -> Option<f64> {
    let mut inv = Invocations::default();
    let probe = |inv: &mut Invocations| {
        let mut fastest = f64::INFINITY;
        for _ in 0..SETUP_BURST {
            match proc::probe_first_stderr_line(make(), ctx.deadline) {
                Ok(s) => fastest = fastest.min(s),
                Err(e) => eprintln!("setup probe: {e}"),
            }
        }
        if fastest.is_finite() {
            inv.setups.push(fastest);
        }
    };
    let mut reduction = None;
    let mut k = 0;
    while k == 0 || ctx.elapsed() < ctx.seconds {
        probe(&mut inv);
        k += 1;
        report.attempted += 1;
        let done = match proc::run(make(), ctx.deadline) {
            Ok(done) => done,
            Err(e) => {
                report.failures.push(format!("{what} #{k}: spawn: {e}"));
                break;
            }
        };
        inv.walls.push(done.wall);
        inv.peak_rss_kib = inv.peak_rss_kib.max(done.reaped.peak_rss_kib);
        let outcome = match done.reaped.exit {
            Some(0) => check(&done),
            other => Err(format!(
                "exit {other:?}: {}",
                done.stderr.lines().last().unwrap_or("")
            )),
        };
        match outcome {
            Ok((digest, red)) => {
                report.digest(what, digest);
                reduction = Some(red);
            }
            Err(e) => report.failures.push(format!("{what} #{k}: {e}")),
        }
    }
    probe(&mut inv);
    let walls = &inv.walls;
    eprintln!(
        "setup_s: median of {} bursts, each the fastest of {SETUP_BURST} spawns (ms: {})",
        inv.setups.len(),
        inv.setups
            .iter()
            .map(|s| format!("{:.3}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    );
    report.metric("setup_s", median(&inv.setups).unwrap_or(f64::NAN), "s");
    report.metric("wall_s", median(walls).unwrap_or(f64::NAN), "s");
    report.metric("job_p50_ms", median(walls).unwrap_or(f64::NAN) * 1e3, "ms");
    let t = tail(walls, 90.0);
    if let Some(t) = t {
        eprintln!(
            "job_p90_ms: p{:.0} of {} invocations, {} beyond{}",
            t.percentile,
            t.samples,
            t.beyond,
            if t.beyond < crate::stats::TAIL_MIN_BEYOND {
                " (too few for a p90: the maximum)"
            } else {
                ""
            }
        );
    }
    report.metric("job_p90_ms", t.map_or(f64::NAN, |t| t.value * 1e3), "ms");
    report.metric(
        "jobs_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("peak_rss_mb", inv.peak_rss_kib as f64 / 1024.0, "MiB");
    reduction
}

/// `table1` at its defaults: the 21 paper twins.
pub fn table1_twins(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let reduction = one_shot(
        ctx,
        &mut report,
        "table1_twins table",
        || proc::command(&ctx.table1),
        |done| {
            let t = checks::table1(&String::from_utf8_lossy(&done.stdout))?;
            Ok((
                format_digest(content_digest(t.deterministic.as_bytes())),
                -t.avg_dser_new,
            ))
        },
    );
    report.metric("ser_reduction_pct", reduction.unwrap_or(f64::NAN), "%");
    Ok(report)
}

/// `retimer fault-sim IN.bench --threads 1` on the 1k fixture circuit,
/// campaign seed from the benchmark seed. The thread count is pinned:
/// at the default (all cores) the command's wall time follows the
/// host's scheduling latency, not its work (see README.md).
pub fn faultsim_1k(ctx: &Ctx) -> Result<Report, String> {
    let input = inputs::fixture(&ctx.work, 1000).map_err(|e| e.to_string())?;
    let mut report = Report::default();
    let reduction = one_shot(
        ctx,
        &mut report,
        "faultsim_1k report",
        || faultsim_command(ctx, &input, Some(1)),
        |done| {
            let analytic = checks::fault_sim(&String::from_utf8_lossy(&done.stdout), "minobswin")?;
            Ok((format_digest(content_digest(&done.stdout)), -analytic))
        },
    );
    report.metric("ser_reduction_pct", reduction.unwrap_or(f64::NAN), "%");
    Ok(report)
}

/// `retimer fault-sim` on `input` with the seeded campaign, at
/// `threads` workers (`None`: the default).
pub fn faultsim_command(ctx: &Ctx, input: &Path, threads: Option<usize>) -> Command {
    let mut cmd = proc::command(&ctx.retimer);
    cmd.arg("fault-sim").arg(input).args([
        "--campaign-seed",
        &inputs::campaign_seed(ctx.seed).to_string(),
    ]);
    if let Some(t) = threads {
        cmd.args(["--threads", &t.to_string()]);
    }
    cmd
}

/// Digest over a round's result bodies, in key order.
pub fn bodies_digest(round: &Round) -> String {
    let mut h = Fnv1a::new();
    for (key, body) in &round.bodies {
        h.write_str(key);
        h.write_str(body);
    }
    format_digest(h.finish())
}

/// A fresh, empty cache directory for round `r`.
pub fn fresh_cache(work: &Path, r: usize) -> Result<PathBuf, String> {
    let dir = work.join(format!("cache{r}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    Ok(dir)
}

/// What the serve rounds of one run add up to.
#[derive(Default)]
pub struct ServeTotals {
    /// Spawn-to-`ready` per round.
    pub setups: Vec<f64>,
    /// First submit to last terminal event per round.
    pub walls: Vec<f64>,
    /// Per-job latencies over all rounds.
    pub latencies_ms: Vec<f64>,
    /// Largest peak RSS of the daemon.
    pub peak_rss_kib: u64,
    /// MinObsWin SER reductions of the computed results.
    pub reductions: Vec<f64>,
}

impl ServeTotals {
    /// Folds one round into the totals and the report.
    pub fn add(&mut self, report: &mut Report, round: &Round) {
        report.attempted += round.attempted;
        report.failures.extend(round.failures.iter().cloned());
        report.digest("serve_mix results", bodies_digest(round));
        self.walls.push(round.wall);
        self.latencies_ms.extend(&round.latencies_ms);
        self.reductions
            .extend(round.minobswin_dser_pct.iter().map(|d| -d));
    }

    /// The end-to-end metrics.
    pub fn report(&self, report: &mut Report) {
        let t = tail(&self.latencies_ms, 90.0);
        if let Some(t) = t {
            eprintln!(
                "job_p90_ms: p{:.1} of {} jobs, {} beyond",
                t.percentile, t.samples, t.beyond
            );
        }
        report.metric("setup_s", median(&self.setups).unwrap_or(f64::NAN), "s");
        report.metric("wall_s", median(&self.walls).unwrap_or(f64::NAN), "s");
        report.metric(
            "job_p50_ms",
            median(&self.latencies_ms).unwrap_or(f64::NAN),
            "ms",
        );
        report.metric("job_p90_ms", t.map_or(f64::NAN, |t| t.value), "ms");
        report.metric(
            "jobs_per_s",
            self.latencies_ms.len() as f64 / self.walls.iter().sum::<f64>(),
            "1/s",
        );
        report.metric("peak_rss_mb", self.peak_rss_kib as f64 / 1024.0, "MiB");
        let mean = self.reductions.iter().sum::<f64>() / self.reductions.len() as f64;
        report.metric("ser_reduction_pct", mean, "%");
    }
}

/// One round against the `retimer serve` binary, from spawn to drain.
pub fn serve_round(
    ctx: &Ctx,
    paths: &[PathBuf],
    r: usize,
    totals: &mut ServeTotals,
    report: &mut Report,
) -> Result<(), String> {
    let cache = fresh_cache(&ctx.work, r)?;
    let mut cmd = proc::command(&ctx.retimer);
    cmd.arg("serve").arg("--cache").arg(&cache);
    let mut session = Session::spawn(cmd).map_err(|e| e.to_string())?;
    let ready = session.next_line(ctx.deadline);
    let workers = ready
        .as_ref()
        .and_then(|(_, l)| serve::json::Json::parse(l).ok())
        .filter(|v| v.get("event").and_then(serve::json::Json::as_str) == Some("ready"))
        .and_then(|v| v.get("workers").and_then(serve::json::Json::as_f64));
    let round = match (ready, workers) {
        (Some((at, _)), Some(workers)) => {
            totals
                .setups
                .push(at.duration_since(session.spawned).as_secs_f64());
            let plan = inputs::serve_plan(ctx.seed, r, paths.len());
            let mut transport = Stdio::new(&mut session);
            Some(serve_mix::drive(
                &mut transport,
                &plan,
                paths,
                workers as usize + 1,
                &format!("r{r}"),
                ctx.deadline,
            ))
        }
        _ => None,
    };
    let (reaped, _, stderr) = session.finish(ctx.deadline).map_err(|e| e.to_string())?;
    totals.peak_rss_kib = totals.peak_rss_kib.max(reaped.peak_rss_kib);
    let _ = std::fs::remove_dir_all(&cache);
    let round = round.ok_or_else(|| format!("the daemon never became ready: {stderr}"))?;
    totals.add(report, &round);
    if reaped.exit != Some(0) {
        report
            .failures
            .push(format!("daemon exit {:?} after round {r}", reaped.exit));
    }
    Ok(())
}

/// `retimer serve --cache DIR` under the closed-loop mix, one fresh
/// daemon and empty cache per round, rounds until `ctx.seconds` pass.
pub fn serve_mix(ctx: &Ctx) -> Result<Report, String> {
    let paths = inputs::serve_pool(&ctx.work).map_err(|e| e.to_string())?;
    let mut report = Report::default();
    let mut totals = ServeTotals::default();
    let mut r = 0;
    while r == 0 || ctx.elapsed() < ctx.seconds {
        serve_round(ctx, &paths, r, &mut totals, &mut report)?;
        r += 1;
    }
    totals.report(&mut report);
    Ok(report)
}
