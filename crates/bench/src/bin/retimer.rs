//! `retimer` — the end-user command line tool: read a gate-level
//! netlist, analyze its SER, retime it for soft error minimization
//! (MinObsWin, or the MinObs baseline), verify equivalence, and write
//! the retimed netlist plus a machine-readable report.
//!
//! ```text
//! retimer [solve] INPUT[.bench|.blif|.v] [options]
//!
//!   --method minobs|minobswin|both   optimizer (default: both)
//!   --out FILE                       write the (MinObsWin) retimed netlist
//!                                    (format from the extension)
//!   --report FILE.csv                append a CSV result row
//!   --vectors K  --frames N          simulation size (default 1024 / 15;
//!                                    K a positive multiple of 64, N >= 1)
//!   --seed S                         stimulus seed
//!   --threads T                      worker threads (see "Thread counts")
//!   --r-min R                        override the §V-derived R_min bound
//!                                    (an over-tight bound exits 1: infeasible)
//!   --no-equiv                       skip the bounded equivalence check
//!   --time-budget SECS               wall-clock budget; on expiry the best
//!                                    feasible retiming so far is emitted and
//!                                    the tool exits 4
//!   --max-iters N                    iteration budget (same degraded-exit
//!                                    semantics)
//!   --checkpoint PATH                periodically save solver state to
//!                                    PATH.<method>.ckpt
//!   --resume                         continue from the checkpoint files if
//!                                    they exist
//!
//! retimer fault-sim INPUT[.bench|.blif|.v] [options]
//!
//!   Monte-Carlo SEU campaign cross-validating the analytic SER model,
//!   before and after retiming (see crates/faultsim).
//!
//!   --injections N                   strikes per campaign (> 0; default
//!                                    100000)
//!   --method minobs|minobswin        retiming to score (default minobswin)
//!   --campaign-seed S                injection sampling seed
//!   --pulse-width F                  transient width in delay units
//!                                    (>= 0; default 0)
//!   --tolerance F                    relative CI widening (default 0.05)
//!   --vectors K  --frames N  --seed S  --threads T   as above (the one
//!                                    pool size drives both the campaign and
//!                                    the simulation workers)
//!
//! retimer estimate INPUT[.bench|.blif|.v] [options]
//!
//!   Estimates the circuit's SER with one engine, or (default) with
//!   every engine at once, cross-checked by the three-way agreement
//!   oracle (see crates/faultsim). Engines diverging past their
//!   tolerance band exit 1 with a per-site divergence report.
//!
//!   --engine analytic|montecarlo|propprob|exact|all   (default: all)
//!   --injections N                   Monte-Carlo campaign size
//!                                    (default 100000)
//!   --campaign-seed S                injection sampling seed
//!   --tolerance F                    uniform relative tolerance band
//!                                    (default: per-pair-class bands)
//!   --max-source-bits B              exhaustive-oracle cap on
//!                                    registers + inputs x frames
//!                                    (default 20; over it, `exact`
//!                                    exits 2 and `all` skips it)
//!   --phi P                          clock period override (default:
//!                                    setup/hold initialization)
//!   --vectors K  --frames N  --seed S  --threads T   as above
//!
//! retimer harden INPUT[.bench|.blif|.v] [options]
//!
//!   Selective-hardening advisor: ranks cells by SER payoff per unit
//!   of hardened area (cross-scored by the Monte-Carlo campaign and
//!   the propagation-probability engine), greedily spends the area
//!   budget, and validates the plan with a same-seed campaign under
//!   the hardened rate model.
//!
//!   --area-budget F                  fraction of total cell area to
//!                                    spend (default 0.1)
//!   --hardening-factor F             residual rate of a hardened cell
//!                                    (default 0.1)
//!   --area-overhead F                hardening cost as a multiple of
//!                                    the cell's area (default 1.0)
//!   --max-picks N                    cap on hardened cells (default:
//!                                    unlimited)
//!   --plan FILE.csv                  write the ranked plan as CSV
//!   --no-validate                    skip the validation campaign
//!   --injections N  --campaign-seed S  --phi P
//!   --vectors K  --frames N  --seed S  --threads T   as above
//!
//! retimer bench-solve [options]
//!
//!   Benchmarks the solver's incremental engines (dirty-region
//!   constraint relaxation vs. full recomputes, and the warm-started
//!   closure engine vs. fresh Dinic builds) over sample and generated
//!   circuits, writing per-run counters as JSON.
//!
//!   --out FILE                       output path (default BENCH_solver.json)
//!   --gates N,N,...                  generated circuit sizes (default 300,1000)
//!   --tier small|large|xlarge        named size tier: small keeps the default
//!                                    list, large = 10k gates (the CI-gated
//!                                    `generated_10k` workload), xlarge = 50k
//!   --samples-only                   skip the generated circuits
//!   --time-budget SECS               wall-clock budget per solver run
//!   --max-iters N                    iteration budget per solver run
//!   --max-memory BYTES               memory-estimate budget per solver run
//!                                    (over it: degraded exit 4, never an
//!                                    abort)
//!
//! retimer serve [options]
//!
//!   Runs as a daemon: newline-delimited JSON requests on stdin (or a
//!   unix socket), concurrent solves, per-job progress events, and a
//!   content-addressed result cache. Closing stdin (or `{"op":"drain"}`)
//!   drains gracefully. See crates/serve and DESIGN.md §12.
//!
//!   --cache DIR                      cache + recovery directory
//!                                    (default .retimer-cache)
//!   --threads T                      concurrent solve workers (see
//!                                    "Thread counts")
//!   --queue N                        admission bound on waiting jobs
//!                                    (default 64; over it: backpressure)
//!   --time-budget SECS               default per-job wall-clock budget
//!                                    (> 0)
//!   --max-iters N                    default per-job iteration budget
//!                                    (> 0)
//!   --cache-max-bytes SIZE           LRU-evict cache stages past SIZE
//!                                    (plain bytes or k/m/g suffix)
//!   --fsck                           run one cache-integrity pass (remove
//!                                    tmp orphans, quarantine corrupt
//!                                    entries), print a report, exit
//!   --socket PATH                    listen on a unix socket instead of stdin
//!
//! retimer bench-ser [options]
//!
//!   Benchmarks the SER simulation data plane: the legacy per-signature
//!   scalar engine vs. the flat arena engine (single-threaded) vs. the
//!   arena engine with a worker pool, over sample and generated
//!   circuits, writing timings and allocation counts as JSON.
//!
//!   --out FILE                       output path (default BENCH_ser.json)
//!   --gates N,N,...                  generated circuit sizes (default 400,1500)
//!   --tier small|large|xlarge        named size tier, as for bench-solve
//!   --samples-only                   skip the generated circuits
//!   --vectors K  --frames N          simulation size (default 1024 / 15;
//!                                    K a positive multiple of 64, N >= 1)
//!   --threads T                      threaded column's pool size (see
//!                                    "Thread counts")
//! ```
//!
//! # Thread counts
//!
//! Every subcommand sizes its worker pool with the one canonical
//! `--threads N` flag (`--workers` is kept as a hidden alias for
//! scripts written against older releases). `0` — the default — defers
//! to the `SER_THREADS` environment variable, then to all available
//! cores; the resolution rule lives in one place,
//! `netlist::parallel::resolve_workers`, and every threaded stage
//! (simulation, ODC passes, fault-injection campaigns, the serve
//! daemon's solve pool) goes through it.
//!
//! # Exit codes
//!
//! Exit codes are stable: 0 = success, 1 = infeasible instance,
//! 2 = I/O or usage error (an unknown flag, or a flag value outside the
//! range stated above, such as `--vectors 100`), 3 = internal error
//! (e.g. iteration limit), 4 = a solve budget expired and a degraded
//! (but feasible) result was emitted. Every subcommand parses its
//! arguments with `bench_harness::cli`.

use std::path::Path;
use std::process::ExitCode;

use bench_harness::cli::{self, BenchFlags, BudgetFlags, CampaignFlags, Parsed, SimFlags};
use bench_harness::ser_bench::BenchSerConfig;
use faultsim::{
    advise, check_agreement, run_campaign, CampaignConfig, CrossCheck, HardenConfig,
    MonteCarloEstimator, ToleranceBands, DEFAULT_TOLERANCE,
};
use minobswin::experiment::{self, Evaluated, Method, RunConfig};
use minobswin::{SolveBudget, SolveError};
use netlist::{bench_format, blif, verilog, Circuit, NetlistError, ParseLimits};
use retime::{ElwParams, RetimeGraph};
use ser_engine::equiv::{check_equivalence, EquivConfig};
use ser_engine::sim::SimConfig;
use ser_engine::{
    AnalyticEstimator, EngineKind, EstimateError, ExactEstimator, PropProbEstimator, SerConfig,
    SerEstimate, SerEstimator, SerReport, DEFAULT_MAX_SOURCE_BITS,
};

/// A command-line failure: a usage error or a wrapped pipeline error,
/// mapped onto the stable exit codes documented above.
enum CliError {
    Usage(String),
    Solve(SolveError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Solve(e) => write!(f, "{e}"),
        }
    }
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Solve(e) => e.exit_code(),
        }
    }
}

impl From<SolveError> for CliError {
    fn from(e: SolveError) -> Self {
        CliError::Solve(e)
    }
}

impl From<NetlistError> for CliError {
    fn from(e: NetlistError) -> Self {
        CliError::Solve(e.into())
    }
}

impl From<retime::RetimeError> for CliError {
    fn from(e: retime::RetimeError) -> Self {
        CliError::Solve(e.into())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Solve(e.into())
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<EstimateError> for CliError {
    fn from(e: EstimateError) -> Self {
        match e {
            EstimateError::Retime(err) => CliError::Solve(err.into()),
            e @ EstimateError::TooLarge { .. } => CliError::Usage(e.to_string()),
        }
    }
}

/// Exit code for "a solve budget expired; a degraded but feasible
/// result was emitted".
const EXIT_DEGRADED: u8 = 4;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = || args[1..].to_vec();
    let result = match args.first().map(String::as_str) {
        Some("estimate") => dispatch(parse_estimate(rest(), ESTIMATE_USAGE), run_estimate),
        Some("harden") => dispatch(parse_estimate(rest(), HARDEN_USAGE), run_harden),
        Some("fault-sim") => dispatch(parse_fault_sim(rest()), run_fault_sim),
        Some("bench-solve") => dispatch(parse_bench_solve(rest()), run_bench_solve),
        Some("bench-ser") => dispatch(parse_bench_ser(rest()), run_bench_ser),
        Some("serve") => dispatch(parse_serve(rest()), run_serve),
        Some("solve") => dispatch(parse_solve(rest()), run_solve),
        _ => dispatch(parse_solve(args.clone()), run_solve),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Runs a subcommand on its parsed options, or prints the usage
/// `--help` asked for.
fn dispatch<T>(
    parsed: Result<Parsed<T>, String>,
    run: fn(T) -> Result<u8, CliError>,
) -> Result<u8, CliError> {
    match parsed? {
        Parsed::Run(options) => run(options),
        Parsed::Help(usage) => {
            eprintln!("{usage}");
            Ok(0)
        }
    }
}

/// Reads the input netlist through the unified, streaming front door
/// (`netlist::read_path`): format sniffed from the extension, default
/// parse limits.
fn read_netlist(path: &str) -> Result<Circuit, NetlistError> {
    netlist::read_path(path, &ParseLimits::default())
}

fn write_netlist(circuit: &Circuit, path: &str) -> Result<(), NetlistError> {
    match Path::new(path).extension().and_then(|e| e.to_str()) {
        Some("bench") => bench_format::write_file(circuit, path),
        Some("blif") => blif::write_file(circuit, path),
        Some("v") | Some("verilog") => verilog::write_file(circuit, path),
        _ => Err(NetlistError::Parse {
            line: 0,
            col: 0,
            message: "unknown output format (use .bench, .blif or .v)".into(),
        }),
    }
}

const SOLVE_USAGE: &str = "usage: retimer [solve] INPUT[.bench|.blif|.v] \
     [--method minobs|minobswin|both] \
     [--out FILE] [--report FILE.csv] [--vectors K] [--frames N] \
     [--seed S] [--threads T] [--r-min R] [--no-equiv] \
     [--time-budget SECS] [--max-iters N] [--checkpoint PATH] [--resume]";

#[derive(Debug)]
struct SolveOptions {
    input: String,
    method: Option<Method>,
    out: Option<String>,
    report: Option<String>,
    sim: SimConfig,
    r_min: Option<i64>,
    equiv: bool,
    budget: SolveBudget,
    checkpoint: Option<String>,
    resume: bool,
}

fn parse_solve(tokens: Vec<String>) -> Result<Parsed<SolveOptions>, String> {
    let (mut input, mut method, mut out, mut report) = (String::new(), None, None, None);
    let (mut r_min, mut equiv, mut checkpoint, mut resume) = (None, true, None, false);
    let (mut sim, mut budget) = (SimFlags::default(), BudgetFlags::default());
    if let Parsed::Help(usage) = cli::walk(tokens, SOLVE_USAGE, Some(&mut input), |flag, args| {
        match flag {
            "--method" => method = cli::method(flag, args)?,
            "--out" => out = Some(args.text(flag, "a path")?),
            "--report" => report = Some(args.text(flag, "a path")?),
            "--r-min" => r_min = Some(args.value(flag, "an integer")?),
            "--no-equiv" => equiv = false,
            "--checkpoint" => checkpoint = Some(args.text(flag, "a path")?),
            "--resume" => resume = true,
            _ => return Ok(sim.take(flag, args)? || budget.take(flag, args)?),
        }
        Ok(true)
    })? {
        return Ok(Parsed::Help(usage));
    }
    if resume && checkpoint.is_none() {
        return Err("--resume requires --checkpoint PATH".into());
    }
    Ok(Parsed::Run(SolveOptions {
        input,
        method,
        out,
        report,
        sim: sim.finish()?,
        r_min,
        equiv,
        budget: budget.budget(),
        checkpoint,
        resume,
    }))
}

fn run_solve(options: SolveOptions) -> Result<u8, CliError> {
    let circuit = read_netlist(&options.input)?;
    eprintln!("read {circuit}");

    let config = RunConfig::default()
        .with_sim(options.sim)
        .with_r_min_override(options.r_min)
        .with_budget(options.budget)
        .with_checkpoint(options.checkpoint.as_ref().map(std::path::PathBuf::from))
        .with_resume(options.resume);
    let prepared = experiment::prepare(&circuit, &config)?;
    // One solve per method asked for; the CSV row needs both columns
    // and their ratio.
    let both = options.method.is_none() || options.report.is_some();
    let mut evaluated: Vec<(&str, Evaluated)> = Vec::new();
    for method in [Method::MinObs, Method::MinObsWin] {
        if both || options.method == Some(method) {
            let (solution, seconds) = experiment::solve(&prepared, &config, method, None)?;
            let retimed = experiment::evaluate(&prepared, solution, seconds)?;
            evaluated.push((method.name(), retimed));
        }
    }

    println!(
        "Phi = {} ({}), R_min = {}",
        prepared.init.phi,
        if prepared.init.used_setup_hold {
            "setup+hold init"
        } else {
            "min-period fallback"
        },
        prepared.r_min
    );
    println!(
        "original : #FF {:>6}  SER {:.4e}",
        circuit.num_registers(),
        prepared.original.ser
    );
    // The methods the user asked for, MinObsWin last.
    let shown: Vec<&(&str, Evaluated)> = evaluated
        .iter()
        .filter(|(name, _)| options.method.is_none_or(|m| m.name() == *name))
        .collect();
    for (name, retimed) in &shown {
        let m = &retimed.result;
        println!(
            "{name:<9}: #FF {:>6}  SER {:.4e}  (dSER {:+.2}%, dFF {:+.2}%, {:.3}s, #J {})",
            m.registers,
            m.ser,
            m.delta_ser * 100.0,
            m.delta_ff * 100.0,
            m.solve_seconds,
            m.stats.commits
        );
    }
    let row = match evaluated.as_slice() {
        [(_, minobs), (_, minobswin)] => {
            Some(prepared.circuit_run(minobs.result.clone(), minobswin.result.clone()))
        }
        _ => None,
    };
    if let (Some(row), None) = (&row, options.method) {
        println!("SER_ref / SER_new = {:.0}%", row.ser_ratio() * 100.0);
    }

    let (_, chosen) = shown.last().expect("the chosen method was solved");
    let rebuilt = &chosen.circuit;

    if options.equiv {
        let verdict = check_equivalence(&circuit, rebuilt, EquivConfig::default());
        if verdict.is_equivalent() {
            println!("equivalence: OK (bounded random check)");
        } else {
            println!(
                "equivalence: INCONCLUSIVE ({verdict:?}) — likely an initial-state \
                 phase difference; inspect before signoff"
            );
        }
    }

    if let Some(out) = &options.out {
        write_netlist(rebuilt, out)?;
        println!("wrote {out}");
    }
    if let (Some(report), Some(row)) = (&options.report, &row) {
        append_csv(report, row)?;
        println!("appended {report}");
    }

    // Report any degradation (tripped engine breakers, budget stops)
    // on the methods the user asked for; a budget stop exits 4.
    let mut degraded = false;
    for (label, retimed) in &shown {
        let report = retimed.result.stats.degradation;
        if !report.is_clean() {
            eprintln!("degradation [{label}]: {report}");
        }
        degraded |= report.budget_stop.is_some();
    }
    if degraded {
        eprintln!("budget exceeded: emitted the best feasible retiming found so far (exit 4)");
        return Ok(EXIT_DEGRADED);
    }
    Ok(0)
}

const FAULT_SIM_USAGE: &str = "usage: retimer fault-sim INPUT[.bench|.blif|.v] [--injections N] \
     [--method minobs|minobswin] [--campaign-seed S] \
     [--pulse-width F] [--tolerance F] [--vectors K] [--frames N] \
     [--seed S] [--threads T]";

#[derive(Debug)]
struct FaultSimOptions {
    input: String,
    method: Method,
    tolerance: f64,
    sim: SimConfig,
    campaign: CampaignConfig,
}

fn parse_fault_sim(tokens: Vec<String>) -> Result<Parsed<FaultSimOptions>, String> {
    let (mut input, mut method, mut pulse_width) = (String::new(), Method::MinObsWin, 0.0);
    let (mut sim, mut campaign) = (SimFlags::default(), CampaignFlags::default());
    if let Parsed::Help(usage) =
        cli::walk(tokens, FAULT_SIM_USAGE, Some(&mut input), |flag, args| {
            match flag {
                "--method" => {
                    method = cli::method(flag, args)?
                        .ok_or("fault-sim scores one retiming: use --method minobs or minobswin")?
                }
                "--pulse-width" => {
                    pulse_width = args.value_if(flag, "a non-negative number", |w: &f64| {
                        w.is_finite() && *w >= 0.0
                    })?
                }
                _ => return Ok(sim.take(flag, args)? || campaign.take(flag, args)?),
            }
            Ok(true)
        })?
    {
        return Ok(Parsed::Help(usage));
    }
    let sim = sim.finish()?;
    Ok(Parsed::Run(FaultSimOptions {
        input,
        method,
        tolerance: campaign.tolerance.unwrap_or(DEFAULT_TOLERANCE),
        campaign: campaign.config(sim.threads).with_pulse_width(pulse_width),
        sim,
    }))
}

/// Scores a circuit with a Monte-Carlo injection campaign before and
/// after retiming, cross-checking each campaign against the analytic
/// model.
fn run_fault_sim(options: FaultSimOptions) -> Result<u8, CliError> {
    let circuit = read_netlist(&options.input)?;
    eprintln!("read {circuit}");

    let config = RunConfig::default().with_sim(options.sim);
    let prepared = experiment::prepare(&circuit, &config)?;
    let (solution, seconds) = experiment::solve(&prepared, &config, options.method, None)?;
    let retimed = experiment::evaluate(&prepared, solution, seconds)?;
    let ser_config = &prepared.ser_config;

    let score = |label: &str, c: &Circuit, report: &SerReport| -> Result<f64, CliError> {
        let campaign = run_campaign(c, ser_config, &options.campaign)?;
        let check = CrossCheck::compare(c, report, &campaign, options.tolerance);
        println!("== {label} ==");
        print!("{}", check.summary());
        let (lo, hi) = campaign.ser_ci();
        println!(
            "  empirical SER {:.4e} [{:.4e}, {:.4e}] over {} injections, {} workers",
            campaign.ser(),
            lo,
            hi,
            campaign.injections,
            campaign.workers
        );
        let mut regs: Vec<_> = campaign
            .register_latches
            .iter()
            .filter(|&&(_, n)| n > 0)
            .collect();
        regs.sort_by_key(|&&(_, n)| std::cmp::Reverse(n));
        for &&(r, n) in regs.iter().take(5) {
            println!("  register {:>12}: {} latches", c.gate(r).name(), n);
        }
        Ok(campaign.ser())
    };

    let before = score("original", &circuit, &prepared.original)?;
    let after = score(
        &format!("retimed ({})", options.method.name()),
        &retimed.circuit,
        &retimed.report,
    )?;

    if before > 0.0 {
        println!(
            "empirical SER change: {:+.2}% (analytic {:+.2}%)",
            (after / before - 1.0) * 100.0,
            retimed.result.delta_ser * 100.0
        );
    }
    Ok(0)
}

const ESTIMATE_USAGE: &str = "usage: retimer estimate INPUT[.bench|.blif|.v] \
     [--engine analytic|montecarlo|propprob|exact|all] [--injections N] \
     [--campaign-seed S] [--tolerance F] [--max-source-bits B] [--phi P] \
     [--vectors K] [--frames N] [--seed S] [--threads T]";

const HARDEN_USAGE: &str = "usage: retimer harden INPUT[.bench|.blif|.v] \
     [--area-budget F] [--hardening-factor F] [--area-overhead F] \
     [--max-picks N] [--plan FILE.csv] [--no-validate] [--injections N] \
     [--campaign-seed S] [--phi P] [--vectors K] [--frames N] [--seed S] \
     [--threads T]";

/// Options of `retimer estimate` and `retimer harden`: one circuit,
/// one simulation, one campaign, one Φ policy. Both commands accept
/// every flag here.
#[derive(Debug)]
struct EstimateOptions {
    input: String,
    engine: String,
    tolerance: Option<f64>,
    max_source_bits: u32,
    phi: Option<i64>,
    harden: HardenConfig,
    plan: Option<String>,
    validate: bool,
    sim: SimConfig,
    campaign: CampaignConfig,
}

fn parse_estimate(
    tokens: Vec<String>,
    usage: &'static str,
) -> Result<Parsed<EstimateOptions>, String> {
    let (mut input, mut engine, mut phi) = (String::new(), String::from("all"), None);
    let (mut max_source_bits, mut harden) = (DEFAULT_MAX_SOURCE_BITS, HardenConfig::default());
    let (mut plan, mut validate) = (None, true);
    let (mut sim, mut campaign) = (SimFlags::default(), CampaignFlags::default());
    let fraction = |f: &f64| (0.0..=1.0).contains(f);
    if let Parsed::Help(usage) = cli::walk(tokens, usage, Some(&mut input), |flag, args| {
        match flag {
            "--engine" => engine = args.text(flag, "a value")?,
            "--max-source-bits" => max_source_bits = args.value(flag, "a positive integer")?,
            "--phi" => phi = Some(args.value_if(flag, "a positive integer", |&p: &i64| p > 0)?),
            "--area-budget" => {
                harden.area_budget = args.value_if(flag, "a fraction in [0, 1]", fraction)?
            }
            "--hardening-factor" => {
                harden.hardening_factor = args.value_if(flag, "a fraction in [0, 1]", fraction)?
            }
            "--area-overhead" => {
                harden.area_overhead = args.value_if(flag, "a positive number", |o: &f64| {
                    o.is_finite() && *o > 0.0
                })?
            }
            "--max-picks" => harden.max_picks = args.value(flag, "a non-negative integer")?,
            "--plan" => plan = Some(args.text(flag, "a path")?),
            "--no-validate" => validate = false,
            _ => return Ok(sim.take(flag, args)? || campaign.take(flag, args)?),
        }
        Ok(true)
    })? {
        return Ok(Parsed::Help(usage));
    }
    let sim = sim.finish()?;
    Ok(Parsed::Run(EstimateOptions {
        input,
        engine,
        tolerance: campaign.tolerance,
        max_source_bits,
        phi,
        harden,
        plan,
        validate,
        campaign: campaign.config(sim.threads),
        sim,
    }))
}

/// Builds the one [`SerConfig`] the estimation subcommands share: the
/// experiment pipeline's default models, Φ from the same setup/hold
/// initialization `solve` uses (or the `--phi` override).
fn build_estimate_config(
    circuit: &Circuit,
    options: &EstimateOptions,
) -> Result<SerConfig, CliError> {
    let defaults = RunConfig::default();
    let phi = match options.phi {
        Some(phi) => phi,
        None => {
            let graph = RetimeGraph::from_circuit(circuit, &defaults.delays)?;
            defaults.init.initialize(&graph)?.phi
        }
    };
    Ok(SerConfig {
        sim: options.sim,
        delays: defaults.delays.clone(),
        rates: defaults.rates.clone(),
        elw: ElwParams {
            phi,
            t_setup: defaults.init.t_setup,
            t_hold: defaults.init.t_hold,
        },
    })
}

fn print_estimate(estimate: &SerEstimate) {
    match estimate.ser_ci {
        Some((lo, hi)) => println!(
            "{:<10} SER {:.4e} [{:.4e}, {:.4e}]",
            estimate.engine.name(),
            estimate.ser,
            lo,
            hi
        ),
        None => println!("{:<10} SER {:.4e}", estimate.engine.name(), estimate.ser),
    }
}

/// `retimer estimate`: one engine, or all of them under the three-way
/// agreement oracle.
fn run_estimate(options: EstimateOptions) -> Result<u8, CliError> {
    let circuit = read_netlist(&options.input)?;
    eprintln!("read {circuit}");
    let ser_config = build_estimate_config(&circuit, &options)?;
    println!("Phi = {}", ser_config.elw.phi);

    let montecarlo = MonteCarloEstimator {
        campaign: options.campaign.clone(),
    };
    if options.engine == "all" {
        let bands = options
            .tolerance
            .map(ToleranceBands::uniform)
            .unwrap_or_default();
        let report = check_agreement(&circuit, &ser_config, &montecarlo, bands)?;
        print!("{}", report.summary());
        if !report.agrees() {
            eprintln!(
                "estimators disagree: {} of {} pairs outside their band (exit 1)",
                report.divergent().len(),
                report.pairs.len()
            );
            return Ok(1);
        }
        return Ok(0);
    }

    let kind: EngineKind = options.engine.parse().map_err(CliError::Usage)?;
    let estimate = match kind {
        EngineKind::Analytic => AnalyticEstimator.estimate(&circuit, &ser_config)?,
        EngineKind::PropProb => PropProbEstimator.estimate(&circuit, &ser_config)?,
        EngineKind::MonteCarlo => montecarlo.estimate(&circuit, &ser_config)?,
        EngineKind::Exact => ExactEstimator {
            max_source_bits: options.max_source_bits,
        }
        .estimate(&circuit, &ser_config)?,
    };
    print_estimate(&estimate);
    // The heaviest contributors, so a lone engine run is actionable.
    let mut sites: Vec<_> = circuit
        .iter()
        .map(|(id, g)| (ser_config.rates.rate(&circuit, id) * estimate.site_p(id), g))
        .filter(|&(contribution, _)| contribution > 0.0)
        .collect();
    sites.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (contribution, gate) in sites.iter().take(5) {
        println!(
            "  {:>12} ({}): {:.4e} ({:.1}% of total)",
            gate.name(),
            gate.kind(),
            contribution,
            contribution / estimate.ser * 100.0
        );
    }
    Ok(0)
}

/// `retimer harden`: rank cells by hardening payoff, spend the area
/// budget, validate with a same-seed campaign.
fn run_harden(options: EstimateOptions) -> Result<u8, CliError> {
    let circuit = read_netlist(&options.input)?;
    eprintln!("read {circuit}");
    let ser_config = build_estimate_config(&circuit, &options)?;
    println!("Phi = {}", ser_config.elw.phi);

    let plan = advise(&circuit, &ser_config, &options.campaign, &options.harden)?;
    print!("{}", plan.summary());

    if let Some(path) = &options.plan {
        std::fs::write(path, plan.to_csv())?;
        println!("wrote {path}");
    }
    if options.validate && !plan.selected().is_empty() {
        let (before, after) = plan.validate(&circuit, &ser_config, &options.campaign)?;
        println!(
            "validation: SER {:.4e} -> {:.4e} measured ({:+.1}%)",
            before,
            after,
            (after / before - 1.0) * 100.0
        );
    }
    Ok(0)
}

const BENCH_SOLVE_USAGE: &str = "usage: retimer bench-solve [--out FILE] [--gates N,N,...] \
     [--tier small|large|xlarge] [--samples-only] [--profile] \
     [--fail-on-degraded] \
     [--time-budget SECS] [--max-iters N] [--max-memory BYTES]";

#[derive(Debug)]
struct BenchSolveOptions {
    bench: BenchFlags,
    budget: SolveBudget,
    fail_on_degraded: bool,
}

fn parse_bench_solve(tokens: Vec<String>) -> Result<Parsed<BenchSolveOptions>, String> {
    let mut bench = BenchFlags::new("BENCH_solver.json", vec![300, 1000]);
    let (mut budget, mut max_memory, mut fail_on_degraded) = (BudgetFlags::default(), None, false);
    if let Parsed::Help(usage) = cli::walk(tokens, BENCH_SOLVE_USAGE, None, |flag, args| {
        match flag {
            "--max-memory" => max_memory = Some(args.value(flag, "a byte count")?),
            "--fail-on-degraded" => fail_on_degraded = true,
            _ => return Ok(bench.take(flag, args)? || budget.take(flag, args)?),
        }
        Ok(true)
    })? {
        return Ok(Parsed::Help(usage));
    }
    Ok(Parsed::Run(BenchSolveOptions {
        bench,
        budget: budget.budget().with_max_memory_estimate(max_memory),
        fail_on_degraded,
    }))
}

/// Benchmarks the incremental constraint checker and the warm-started
/// closure engine against their from-scratch counterparts and writes
/// the counters as JSON (`BENCH_solver.json`).
fn run_bench_solve(options: BenchSolveOptions) -> Result<u8, CliError> {
    use bench_harness::solver_bench;

    let BenchSolveOptions {
        bench,
        budget,
        fail_on_degraded,
    } = options;
    let mut instances = solver_bench::sample_instances();
    if !bench.samples_only {
        for &gates in &bench.gates {
            instances.push(solver_bench::generated_instance(gates)?);
        }
    }

    let mut degraded = false;
    let mut records = Vec::new();
    for instance in &instances {
        let record = solver_bench::measure_with_budget(instance, &budget)?;
        degraded |= record.incremental.stats.degradation.budget_stop.is_some()
            || record.full.stats.degradation.budget_stop.is_some();
        println!(
            "{:<16} |V| {:>5} |E| {:>5}  inc {:>7.1} edges/check, full {:>8.1} \
             ({:>5.1}x)  closure warm {:>8.0} arcs/call, fresh {:>9.0} ({:>5.1}x), \
             {:.3}s vs {:.3}s",
            record.name,
            record.vertices,
            record.edges,
            record.incremental.stats.perf.edges_per_check(),
            record.full.stats.perf.edges_per_check(),
            record.edge_relaxation_ratio(),
            record.incremental.stats.perf.arcs_per_closure(),
            record.full.stats.perf.arcs_per_closure(),
            record.closure_arc_ratio(),
            record.incremental.solve_seconds,
            record.full.solve_seconds,
        );
        if bench.profile {
            print!("{}", solver_bench::profile_table(&record));
        }
        records.push(record);
    }

    // `--fail-on-degraded` is the baseline-refresh guard: a truncated
    // run must never overwrite the tracked JSON, so refuse the write
    // entirely instead of writing-then-signalling via the exit code.
    if degraded && fail_on_degraded {
        eprintln!(
            "budget exceeded: some runs were truncated; refusing to write {} (exit {})",
            bench.out, EXIT_DEGRADED
        );
        return Ok(EXIT_DEGRADED);
    }
    std::fs::write(&bench.out, solver_bench::to_json(&records))?;
    println!("wrote {}", bench.out);
    if degraded {
        eprintln!("budget exceeded: some runs were truncated (exit 4)");
        return Ok(EXIT_DEGRADED);
    }
    Ok(0)
}

const BENCH_SER_USAGE: &str = "usage: retimer bench-ser [--out FILE] [--gates N,N,...] \
     [--tier small|large|xlarge] [--samples-only] [--profile] \
     [--vectors K] [--frames N] [--threads T]";

#[derive(Debug)]
struct BenchSerOptions {
    bench: BenchFlags,
    config: BenchSerConfig,
}

fn parse_bench_ser(tokens: Vec<String>) -> Result<Parsed<BenchSerOptions>, String> {
    let mut bench = BenchFlags::new("BENCH_ser.json", vec![400, 1500]);
    let mut sim = SimFlags::default();
    if let Parsed::Help(usage) =
        cli::walk(tokens, BENCH_SER_USAGE, None, |flag, args| match flag {
            // The benchmark times one fixed stimulus.
            "--seed" => Ok(false),
            _ => Ok(bench.take(flag, args)? || sim.take(flag, args)?),
        })?
    {
        return Ok(Parsed::Help(usage));
    }
    let sim = sim.finish()?;
    Ok(Parsed::Run(BenchSerOptions {
        bench,
        config: BenchSerConfig {
            num_vectors: sim.num_vectors,
            frames: sim.frames,
            threads: sim.threads,
            ..BenchSerConfig::default()
        },
    }))
}

/// Benchmarks the SER data plane — scalar per-signature engine vs. flat
/// arena engine vs. arena + worker pool — and writes the timings as
/// JSON (`BENCH_ser.json`).
fn run_bench_ser(options: BenchSerOptions) -> Result<u8, CliError> {
    use bench_harness::ser_bench;

    let BenchSerOptions { bench, config } = options;
    let mut instances = ser_bench::sample_instances();
    if !bench.samples_only {
        for &gates in &bench.gates {
            instances.push(ser_bench::generated_instance(gates));
        }
    }

    let mut records = Vec::new();
    for instance in &instances {
        let record = ser_bench::measure(instance, &config);
        println!(
            "{:<16} |V| {:>6} gates  scalar {:>9.3} ms ({:>6} allocs), arena {:>9.3} ms \
             ({:>5} allocs, {:>5.2}x, {:>6.2} ns/g·f·v), arena+{} threads {:>9.3} ms ({:>5.2}x), \
             propprob {:>7.3} ms ({:>6.2} ns/g·f)",
            record.name,
            record.gates,
            record.scalar_nanos as f64 / 1e6,
            record.scalar_allocs,
            record.arena_nanos as f64 / 1e6,
            record.arena_allocs,
            record.arena_speedup(),
            record.arena_nanos_per_gfv(),
            record.threads,
            record.threaded_nanos as f64 / 1e6,
            record.threaded_speedup(),
            record.propprob_nanos as f64 / 1e6,
            record.propprob_nanos_per_gf(),
        );
        if bench.profile {
            print!("{}", ser_bench::profile_table(&record));
        }
        records.push(record);
    }

    std::fs::write(&bench.out, ser_bench::to_json(&records))?;
    println!("wrote {}", bench.out);
    Ok(0)
}

const SERVE_USAGE: &str = "usage: retimer serve [--cache DIR] [--threads T] [--queue N] \
     [--time-budget SECS] [--max-iters N] [--cache-max-bytes SIZE] \
     [--socket PATH] [--fsck]";

#[derive(Debug)]
struct ServeOptions {
    config: serve::ServeConfig,
    socket: Option<String>,
    fsck: bool,
}

fn parse_serve(tokens: Vec<String>) -> Result<Parsed<ServeOptions>, String> {
    let mut config = serve::ServeConfig::new(".retimer-cache");
    let (mut socket, mut fsck) = (None, false);
    let mut budget = BudgetFlags::positive();
    if let Parsed::Help(usage) = cli::walk(tokens, SERVE_USAGE, None, |flag, args| {
        match flag {
            "--cache" => config.cache_dir = args.text(flag, "a directory")?.into(),
            "--threads" => config.workers = cli::threads(args)?,
            "--queue" => {
                config.queue_capacity =
                    args.value_if(flag, "a positive integer", |&n: &usize| n > 0)?
            }
            "--cache-max-bytes" => {
                config.cache_max_bytes = Some(args.parsed(
                    flag,
                    "a positive size (bytes, or with k/m/g)",
                    parse_byte_size,
                )?)
            }
            "--fsck" => fsck = true,
            "--socket" => socket = Some(args.text(flag, "a path")?),
            _ => return budget.take(flag, args),
        }
        Ok(true)
    })? {
        return Ok(Parsed::Help(usage));
    }
    config.default_time_budget = budget.time_budget;
    config.default_max_iters = budget.max_iters;
    Ok(Parsed::Run(ServeOptions {
        config,
        socket,
        fsck,
    }))
}

/// Parses a byte size: plain bytes, or with a `k`/`m`/`g` suffix
/// (binary multiples, case-insensitive).
fn parse_byte_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.trim().to_ascii_lowercase() {
        t if t.ends_with('k') => (t[..t.len() - 1].to_string(), 1u64 << 10),
        t if t.ends_with('m') => (t[..t.len() - 1].to_string(), 1u64 << 20),
        t if t.ends_with('g') => (t[..t.len() - 1].to_string(), 1u64 << 30),
        t => (t, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .filter(|&n| n > 0)
        .and_then(|n| n.checked_mul(mult))
}

/// `retimer serve`: boots the daemon (crates/serve) on stdin/stdout or
/// a unix socket and runs it until drained. `--fsck` instead runs one
/// standalone cache-integrity pass and exits.
fn run_serve(options: ServeOptions) -> Result<u8, CliError> {
    // Chaos and soak harnesses opt into filesystem fault injection
    // via SABOTAGE_FIO_PLAN (a malformed plan warns and stays inert).
    if let Some(plan) = netlist::fio::install_from_env() {
        eprintln!("warning: filesystem fault injection active: {plan:?}");
    }
    let ServeOptions {
        config,
        socket,
        fsck,
    } = options;
    if fsck {
        let cache = serve::ResultCache::open(&config.cache_dir)
            .map_err(|e| CliError::Usage(format!("--fsck: {}: {e}", config.cache_dir.display())))?
            .with_max_bytes(config.cache_max_bytes);
        println!("{}", cache.fsck().to_json());
        return Ok(0);
    }
    let outcome = match socket {
        Some(path) => serve::run_socket(config, Path::new(&path)),
        None => serve::run_stdio(config),
    };
    outcome.map_err(CliError::Usage)
}

fn append_csv(path: &str, run: &minobswin::experiment::CircuitRun) -> std::io::Result<()> {
    use std::io::Write;
    let exists = Path::new(path).exists();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if !exists {
        writeln!(
            file,
            "circuit,v,e,ff,phi,rmin,setup_hold,ser_original,ser_propprob,\
             minobs_ff,minobs_ser,minobs_seconds,minobs_commits,\
             minobswin_ff,minobswin_ser,minobswin_seconds,minobswin_commits,ser_ratio"
        )?;
    }
    writeln!(
        file,
        "{},{},{},{},{},{},{},{:e},{:e},{},{:e},{},{},{},{:e},{},{},{}",
        run.name,
        run.v,
        run.e,
        run.ff,
        run.phi,
        run.r_min,
        run.used_setup_hold,
        run.ser_original,
        run.ser_propprob,
        run.minobs.registers,
        run.minobs.ser,
        run.minobs.solve_seconds,
        run.minobs.stats.commits,
        run.minobswin.registers,
        run.minobswin.ser,
        run.minobswin.solve_seconds,
        run.minobswin.stats.commits,
        run.ser_ratio(),
    )
}

#[cfg(test)]
mod tests {
    //! In-process properties of every subcommand's parser and
    //! `table1`'s over token soups: random mixes of known flags, random
    //! values and junk tokens. No parser may panic, every accepted
    //! simulation size must be one the SER engine runs, `--workers`
    //! must stay an exact alias of `--threads`, and `--help` must come
    //! back as a value. CI's `robustness` job runs them with
    //! `PROPTEST_CASES=2048`.

    use super::*;
    use proptest::prelude::*;

    /// The flags of `--vectors K --frames N --seed S --threads T`.
    const SIM: [&str; 5] = ["--vectors", "--frames", "--seed", "--threads", "--workers"];

    /// The flags of `estimate` and `harden`, which share one parser.
    const ESTIMATE: &[&str] = &[
        "--engine",
        "--injections",
        "--campaign-seed",
        "--tolerance",
        "--max-source-bits",
        "--phi",
        "--area-budget",
        "--hardening-factor",
        "--area-overhead",
        "--max-picks",
        "--plan",
        "--no-validate",
    ];

    /// One parser under test: whether it reads an input netlist, its own
    /// flags (drawn most often, so the soups reach its accepting paths)
    /// and its result as an [`Outcome`].
    struct Command {
        name: &'static str,
        input: bool,
        flags: Vec<&'static str>,
        parse: fn(Vec<String>) -> Outcome,
    }

    fn commands() -> Vec<Command> {
        let with_sim = |flags: &[&'static str]| [flags, &SIM[..]].concat();
        let bench = ["--out", "--gates", "--tier", "--samples-only", "--profile"];
        vec![
            Command {
                name: "solve",
                input: true,
                flags: with_sim(&[
                    "--method",
                    "--out",
                    "--report",
                    "--r-min",
                    "--no-equiv",
                    "--time-budget",
                    "--max-iters",
                    "--checkpoint",
                    "--resume",
                ]),
                parse: |t| outcome(parse_solve(t), |o| Some(o.sim)),
            },
            Command {
                name: "fault-sim",
                input: true,
                flags: with_sim(&[
                    "--injections",
                    "--method",
                    "--campaign-seed",
                    "--pulse-width",
                    "--tolerance",
                ]),
                parse: |t| outcome(parse_fault_sim(t), |o| Some(o.sim)),
            },
            Command {
                name: "estimate",
                input: true,
                flags: with_sim(ESTIMATE),
                parse: |t| outcome(parse_estimate(t, ESTIMATE_USAGE), |o| Some(o.sim)),
            },
            Command {
                name: "harden",
                input: true,
                flags: with_sim(ESTIMATE),
                parse: |t| outcome(parse_estimate(t, HARDEN_USAGE), |o| Some(o.sim)),
            },
            Command {
                name: "bench-solve",
                input: false,
                flags: [
                    &bench[..],
                    &[
                        "--fail-on-degraded",
                        "--time-budget",
                        "--max-iters",
                        "--max-memory",
                    ],
                ]
                .concat(),
                parse: |t| outcome(parse_bench_solve(t), |_| None),
            },
            Command {
                name: "bench-ser",
                input: false,
                flags: [
                    &bench[..],
                    &["--vectors", "--frames", "--threads", "--workers"],
                ]
                .concat(),
                parse: |t| {
                    outcome(parse_bench_ser(t), |o| {
                        sized(o.config.num_vectors, o.config.frames)
                    })
                },
            },
            Command {
                name: "serve",
                input: false,
                flags: vec![
                    "--cache",
                    "--threads",
                    "--workers",
                    "--queue",
                    "--time-budget",
                    "--max-iters",
                    "--cache-max-bytes",
                    "--fsck",
                    "--socket",
                ],
                parse: |t| outcome(parse_serve(t), |_| None),
            },
            Command {
                name: "table1",
                input: false,
                flags: vec![
                    "--scale",
                    "--giant-extra",
                    "--filter",
                    "--vectors",
                    "--frames",
                    "--full",
                ],
                parse: |t| outcome(cli::table1(t), |o| sized(o.num_vectors, o.frames)),
            },
        ]
    }

    /// Values in and around every flag's accepted range.
    const VALUES: &[&str] = &[
        "0",
        "1",
        "2",
        "-1",
        "63",
        "64",
        "65",
        "100",
        "128",
        "1024",
        "18446744073709551615",
        "18446744073709551616",
        "-0",
        "0.0",
        "0.5",
        "1.5",
        "-3",
        "nan",
        "inf",
        "-inf",
        "1e300",
        "1e-300",
        "4k",
        "2m",
        "1g",
        "0k",
        "x",
        "",
        "both",
        "minobs",
        "minobswin",
        "all",
        "exact",
        "small",
        "large",
        "mega",
        "300,1000",
        "1,,2",
        "golden.bench",
    ];

    /// Tokens no parser knows, and flags only some parsers know.
    const JUNK: &[&str] = &[
        "-",
        "--",
        "-x",
        "--vectors=64",
        "solve",
        "\u{0}",
        "ü",
        "--method",
        "--seed",
        "--threads",
        "--scale",
        "--engine",
        "--queue",
        "--fail-on-degraded",
    ];

    /// A soup for `command`: its input if it reads one, then mostly one of
    /// its flags with a value, sometimes a bare flag, a bare value or junk.
    fn soup(command: &Command, picks: &[(usize, usize, usize)]) -> Vec<String> {
        let mut tokens = Vec::new();
        if command.input {
            tokens.push("design.bench");
        }
        for &(kind, i, j) in picks {
            let flags = &command.flags;
            let (flag, value) = (flags[i % flags.len()], VALUES[j % VALUES.len()]);
            match kind {
                0..=5 => tokens.extend([flag, value]),
                6 | 7 => tokens.push(flag),
                8 => tokens.push(value),
                _ => tokens.push(JUNK[j % JUNK.len()]),
            }
        }
        tokens.into_iter().map(String::from).collect()
    }

    /// One parser's result, reduced to what the properties compare: the
    /// options (as their `Debug` text) and the simulation size they
    /// carry, or the usage, or the error.
    type Outcome = Result<Parsed<(String, Option<SimConfig>)>, String>;

    fn outcome<T: std::fmt::Debug>(
        parsed: Result<Parsed<T>, String>,
        sim: impl Fn(&T) -> Option<SimConfig>,
    ) -> Outcome {
        parsed.map(|p| match p {
            Parsed::Run(o) => Parsed::Run((format!("{o:?}"), sim(&o))),
            Parsed::Help(usage) => Parsed::Help(usage),
        })
    }

    fn sized(num_vectors: usize, frames: usize) -> Option<SimConfig> {
        Some(SimConfig {
            num_vectors,
            frames,
            ..SimConfig::default()
        })
    }

    fn run<T>(parsed: Result<Parsed<T>, String>) -> T {
        match parsed {
            Ok(Parsed::Run(options)) => options,
            other => panic!("{:?}", other.err()),
        }
    }

    #[test]
    fn ci_invocations_parse() {
        let tokens = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let solve = run(parse_bench_solve(tokens(
            "--gates 10000,50000 --fail-on-degraded --profile --out BENCH_large.new.json",
        )));
        assert_eq!(solve.bench.gates, [10_000, 50_000]);
        assert!(solve.fail_on_degraded && solve.bench.profile);
        assert_eq!(solve.bench.out, "BENCH_large.new.json");
        let ser = run(parse_bench_ser(tokens(
            "--out BENCH_ser.new.json --vectors 512 --frames 8 --gates 400,1500 --profile",
        )));
        assert_eq!((ser.config.num_vectors, ser.config.frames), (512, 8));
        assert_eq!(ser.bench.gates, [400, 1500]);
        let serve = run(parse_serve(tokens(
            "--cache .ci-serve-cache --workers 4 --time-budget 60",
        )));
        assert_eq!(serve.config.workers, 4);
        assert_eq!(serve.config.default_time_budget, Some(60.0));
    }

    /// Picks for [`soup`]: (kind, flag index, value index) triples.
    fn picks() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
        prop::collection::vec((0usize..10, 0usize..64, 0usize..64), 0..6)
    }

    proptest! {
        #[test]
        fn accepted_sizes_pass_the_engine_check(k in 0usize..9, n in 0usize..3, picks in picks()) {
            // Sizes in and around the engine's range, up front where the
            // command takes them, then a soup that may override them.
            let sizes = [
                "--vectors",
                ["0", "1", "63", "64", "65", "100", "128", "1024", "4096"][k],
                "--frames",
                ["0", "1", "15"][n],
            ];
            for command in commands() {
                let mut tokens = soup(&command, &picks);
                if command.flags.contains(&"--vectors") {
                    tokens.splice(0..0, sizes.map(String::from));
                }
                let result = (command.parse)(tokens);
                if let Ok(Parsed::Run((options, Some(sim)))) = &result {
                    prop_assert!(sim.check().is_ok(), "{} accepted {options}", command.name);
                }
            }
        }

        #[test]
        fn workers_is_an_alias_of_threads(value in 0usize..64, picks in picks()) {
            for command in commands() {
                // Leading, so no earlier flag can take it as its value.
                let with = |flag: &str| {
                    let mut tokens = vec![flag.to_string(), VALUES[value % VALUES.len()].to_string()];
                    tokens.extend(soup(&command, &picks));
                    // Only the spelling an error echoes may differ.
                    format!("{:?}", (command.parse)(tokens).map_err(|_| ()))
                };
                prop_assert_eq!(with("--threads"), with("--workers"), "{}", command.name);
            }
        }

        #[test]
        fn help_comes_back_as_a_value(short in 0usize..2, picks in picks()) {
            for command in commands() {
                let mut tokens = vec![["--help", "-h"][short].to_string()];
                tokens.extend(soup(&command, &picks));
                let result = (command.parse)(tokens);
                prop_assert!(matches!(result, Ok(Parsed::Help(_))), "{}: {result:?}", command.name);
            }
        }
    }
}
