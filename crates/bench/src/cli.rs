//! Command-line parsing shared by the `retimer` and `table1` binaries.
//!
//! One loop ([`walk`]) handles what every command has in common:
//! `--help` / `-h` (returned as [`Parsed::Help`], never an exit, so a
//! parser runs in-process), the positional input netlist, the hidden
//! `--workers` alias of `--threads`, and the `unknown argument` error.
//! A command matches only its own flags and hands the rest to the flag
//! groups that two or more commands share ([`SimFlags`],
//! [`BudgetFlags`], [`BenchFlags`], [`CampaignFlags`]). A value out of
//! range is an `Err`, on which the binaries exit 2, so no bad flag
//! reaches an engine assertion.

use std::str::FromStr;
use std::time::Duration;

use faultsim::CampaignConfig;
use minobswin::experiment::Method;
use minobswin::SolveBudget;
use ser_engine::sim::SimConfig;

use crate::Table1Options;

/// What a parser returns: the options to run with, or the usage text
/// `--help` asked for (print it and exit 0).
#[derive(Debug)]
pub enum Parsed<T> {
    /// Run with these options.
    Run(T),
    /// `--help` / `-h`: the command's usage.
    Help(&'static str),
}

/// The tokens still to parse; a flag takes its value from here.
pub struct Args {
    tokens: std::vec::IntoIter<String>,
}

impl Args {
    /// The raw value after `flag`; `what` names it in the error.
    pub fn text(&mut self, flag: &str, what: &str) -> Result<String, String> {
        self.parsed(flag, what, |s| Some(s.to_string()))
    }

    /// The value after `flag`, parsed as `T`.
    pub fn value<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, String> {
        self.value_if(flag, what, |_| true)
    }

    /// The value after `flag`, parsed as `T` and inside the range `ok`
    /// accepts; `what` states that range in the error.
    pub fn value_if<T: FromStr>(
        &mut self,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        self.parsed(flag, what, |s| s.parse().ok().filter(|v| ok(v)))
    }

    /// The value after `flag`, read by `parse`.
    pub fn parsed<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        self.tokens
            .next()
            .and_then(|s| parse(&s))
            .ok_or_else(|| format!("{flag} needs {what}"))
    }
}

/// The one argument loop. A bare token becomes `input` while the
/// command takes one and it is still empty; every other token goes to
/// `flag` (`--workers` as `--threads`), which consumes the flag's value
/// from [`Args`] and returns `false` for a flag it does not know.
pub fn walk(
    tokens: Vec<String>,
    usage: &'static str,
    mut input: Option<&mut String>,
    mut flag: impl FnMut(&str, &mut Args) -> Result<bool, String>,
) -> Result<Parsed<()>, String> {
    let mut args = Args {
        tokens: tokens.into_iter(),
    };
    while let Some(token) = args.tokens.next() {
        if token == "--help" || token == "-h" {
            return Ok(Parsed::Help(usage));
        }
        match input.as_deref_mut() {
            Some(input) if input.is_empty() && !token.starts_with('-') => *input = token,
            _ => {
                let name = if token == "--workers" {
                    "--threads"
                } else {
                    &token
                };
                if !flag(name, &mut args)? {
                    return Err(format!("unknown argument `{token}`"));
                }
            }
        }
    }
    if input.is_some_and(|i| i.is_empty()) {
        return Err("missing input netlist (try --help)".into());
    }
    Ok(Parsed::Run(()))
}

/// `--threads T`: a worker pool size, `0` resolving via `SER_THREADS`
/// and then all cores (`netlist::parallel::resolve_workers`).
pub fn threads(args: &mut Args) -> Result<usize, String> {
    args.value("--threads", "a non-negative integer")
}

/// `--method minobs|minobswin|both`; `both` reads as `None`.
pub fn method(flag: &str, args: &mut Args) -> Result<Option<Method>, String> {
    match args.text(flag, "a value")?.as_str() {
        "both" => Ok(None),
        name => Method::from_name(name).map(Some),
    }
}

/// `--vectors K --frames N --seed S --threads T`, checked by
/// [`SimConfig::check`]. The warm-up is the `retimer` subcommands';
/// `bench-ser` and `table1` take only the sizes and the pool.
pub struct SimFlags(SimConfig);

impl Default for SimFlags {
    fn default() -> Self {
        Self(SimConfig {
            num_vectors: 1024,
            frames: 15,
            warmup: 16,
            seed: 0xC0FFEE,
            threads: 0,
        })
    }
}

impl SimFlags {
    /// Takes `flag` if it is one of the four.
    pub fn take(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--vectors" => self.0.num_vectors = args.value(flag, "a positive multiple of 64")?,
            "--frames" => self.0.frames = args.value(flag, "a positive integer")?,
            "--seed" => self.0.seed = args.value(flag, "an integer")?,
            "--threads" => self.0.threads = threads(args)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The simulation, once the engine can run its size.
    pub fn finish(self) -> Result<SimConfig, String> {
        self.0
            .check()
            .map_err(|e| format!("--{} must be {}, got {}", e.field, e.rule, e.got))?;
        Ok(self.0)
    }
}

/// `--time-budget SECS --max-iters N`, each unset by default.
#[derive(Default)]
pub struct BudgetFlags {
    positive: bool,
    /// `--time-budget`, in seconds.
    pub time_budget: Option<f64>,
    /// `--max-iters`.
    pub max_iters: Option<usize>,
}

impl BudgetFlags {
    /// Serve's rule: both values must be positive, because they are
    /// per-job defaults and a zero default would stop every job at
    /// once. Elsewhere `0` is a valid, already-expired budget.
    pub fn positive() -> Self {
        Self {
            positive: true,
            ..Self::default()
        }
    }

    /// Takes `flag` if it is one of the two.
    pub fn take(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        let positive = self.positive;
        let sign = if positive { "positive" } else { "non-negative" };
        match flag {
            "--time-budget" => {
                self.time_budget = Some(args.value_if(
                    flag,
                    &format!("a {sign} number of seconds"),
                    |&secs: &f64| {
                        Duration::try_from_secs_f64(secs).is_ok() && (secs > 0.0 || !positive)
                    },
                )?)
            }
            "--max-iters" => {
                self.max_iters = Some(args.value_if(
                    flag,
                    &format!("a {sign} integer"),
                    |&n: &usize| n > 0 || !positive,
                )?)
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The solve budget these flags set.
    pub fn budget(&self) -> SolveBudget {
        SolveBudget::new()
            .with_wall_time(self.time_budget.map(Duration::from_secs_f64))
            .with_max_iterations(self.max_iters)
    }
}

/// `--injections N --campaign-seed S --tolerance F`: one Monte-Carlo
/// campaign and the band its verdicts use.
pub struct CampaignFlags {
    injections: u64,
    seed: u64,
    /// `--tolerance`: a finite relative band, at least 0.
    pub tolerance: Option<f64>,
}

impl Default for CampaignFlags {
    fn default() -> Self {
        Self {
            injections: 100_000,
            seed: 0x5EED_FA17,
            tolerance: None,
        }
    }
}

impl CampaignFlags {
    /// Takes `flag` if it is one of the three.
    pub fn take(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--injections" => {
                self.injections = args.value_if(flag, "a positive integer", |&n: &u64| n > 0)?
            }
            "--campaign-seed" => self.seed = args.value(flag, "an integer")?,
            "--tolerance" => {
                self.tolerance = Some(args.value_if(flag, "a non-negative number", |t: &f64| {
                    t.is_finite() && *t >= 0.0
                })?)
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The campaign, on a pool of `workers`.
    pub fn config(&self, workers: usize) -> CampaignConfig {
        CampaignConfig::new(self.injections)
            .with_seed(self.seed)
            .with_workers(workers)
    }
}

/// `--out FILE --gates N,N,... --tier NAME --samples-only --profile`:
/// what `bench-solve` and `bench-ser` measure and where they write it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFlags {
    /// Output JSON path.
    pub out: String,
    /// Generated circuit sizes.
    pub gates: Vec<usize>,
    /// Skip the generated circuits.
    pub samples_only: bool,
    /// Print the per-phase profile table after each row.
    pub profile: bool,
}

impl BenchFlags {
    /// The defaults: write `out`, measure the samples and `gates`.
    pub fn new(out: &str, gates: Vec<usize>) -> Self {
        Self {
            out: out.into(),
            gates,
            samples_only: false,
            profile: false,
        }
    }

    /// Takes `flag` if it is one of the five.
    pub fn take(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--out" => self.out = args.text(flag, "a path")?,
            "--gates" => {
                let list = args.text(flag, "a comma-separated list")?;
                self.gates = list
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("invalid --gates list `{list}`"))?;
            }
            "--tier" => {
                let tier = args.text(flag, "a name")?;
                self.gates = crate::tier_gates(&tier, std::mem::take(&mut self.gates))?;
            }
            "--samples-only" => self.samples_only = true,
            "--profile" => self.profile = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Usage of `table1`.
pub const TABLE1_USAGE: &str = "usage: table1 [--scale N] [--giant-extra N] [--filter SUBSTR] \
     [--vectors K] [--frames N] [--full]";

/// Parses `table1`'s arguments (after the binary name).
pub fn table1(tokens: Vec<String>) -> Result<Parsed<Table1Options>, String> {
    let (mut options, mut sim) = (Table1Options::default(), SimFlags::default());
    let positive = |&n: &usize| n > 0;
    if let Parsed::Help(usage) = walk(tokens, TABLE1_USAGE, None, |flag, args| {
        match flag {
            "--scale" => options.scale = args.value_if(flag, "a positive integer", positive)?,
            "--giant-extra" => {
                options.giant_extra_scale = args.value_if(flag, "a positive integer", positive)?
            }
            "--filter" => options.filter = Some(args.text(flag, "a value")?),
            "--full" => {
                options.scale = 1;
                options.giant_extra_scale = 1;
            }
            // Table I fixes the stimulus seed and sizes its own pool.
            "--seed" | "--threads" => return Ok(false),
            _ => return sim.take(flag, args),
        }
        Ok(true)
    })? {
        return Ok(Parsed::Help(usage));
    }
    if options
        .scale
        .checked_mul(options.giant_extra_scale)
        .is_none()
    {
        return Err("--scale times --giant-extra overflows".into());
    }
    let sim = sim.finish()?;
    options.num_vectors = sim.num_vectors;
    options.frames = sim.frames;
    Ok(Parsed::Run(options))
}
