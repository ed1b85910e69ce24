//! End-to-end experiment stages: circuit → §V initialization and one
//! simulation → Problem 1 → one solve per method → retimed netlist →
//! SER re-analysis. Each stage is a plain function: [`prepare`] once
//! per circuit, then [`solve`] and [`evaluate`] once per method.
//! [`run`] composes both methods into everything a row of the paper's
//! Table I reports; callers that need one method compose the stages
//! themselves and compute nothing they do not return.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use netlist::{Circuit, DelayModel};
use retime::apply::apply_retiming;
use retime::{ElwParams, RetimeGraph, Retiming};
use ser_engine::odc::Observability;
use ser_engine::sim::{FrameTrace, SimConfig};
use ser_engine::{
    analyze, analyze_with_observability, propprob_report_with_trace, vertex_observabilities,
    ErrorRateModel, SerConfig, SerReport,
};

use crate::algorithm::{Solution, SolverConfig, SolverStats};
use crate::init::{InitConfig, InitResult};
use crate::problem::Problem;
use crate::session::SolverSession;
use crate::supervisor::{
    BreakerTrip, Checkpoint, FileCheckpointSink, ProgressFn, SolveBudget, Supervision, TripCause,
};
use crate::SolveError;

/// Configuration of a full experiment run.
///
/// Construct with [`RunConfig::default`] (or [`RunConfig::small`]) and
/// chain `with_*` builders — the struct is `#[non_exhaustive]`, so
/// literals do not compile outside this crate and future knobs are
/// non-breaking.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct RunConfig {
    /// Simulation parameters (K vectors, n frames, warm-up, seed).
    pub sim: SimConfig,
    /// Gate delay model.
    pub delays: DelayModel,
    /// Raw rate characterization.
    pub rates: ErrorRateModel,
    /// §V initialization knobs (T_s, T_h, ε).
    pub init: InitConfig,
    /// Overrides the §V-derived `R_min` bound (the `retimer --r-min`
    /// flag). §V always chooses a bound the starting retiming
    /// satisfies, so an over-tight override is the supported way to
    /// drive the pipeline into [`SolveError::InfeasibleInitial`].
    pub r_min_override: Option<i64>,
    /// Resource budget of every [`solve`]. When [`run`] solves both
    /// methods they share the budget's cancellation token, so a
    /// deadline expiring in one stops the other too. An expired budget
    /// degrades the affected method to its best-so-far retiming; see
    /// [`MethodResult::stats`]'s degradation report.
    pub budget: SolveBudget,
    /// Checkpoint path prefix: each method writes
    /// `<prefix>.<method>.ckpt` periodically (the `retimer
    /// --checkpoint` flag).
    pub checkpoint: Option<PathBuf>,
    /// Resume each method from its checkpoint file when one exists
    /// (the `retimer --resume` flag; requires [`RunConfig::checkpoint`]).
    pub resume: bool,
    /// Base solver configuration shared by both methods (the MinObs
    /// baseline additionally applies `with_p2(false)`). Lets embedding
    /// callers — the serve daemon's per-job configs — select e.g. the
    /// closure engine without bypassing the experiment driver.
    pub solver: SolverConfig,
}

impl RunConfig {
    /// A light configuration for tests.
    pub fn small() -> Self {
        Self::default().with_sim(SimConfig::small())
    }

    /// Sets the simulation parameters.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the gate delay model.
    pub fn with_delays(mut self, delays: DelayModel) -> Self {
        self.delays = delays;
        self
    }

    /// Sets the raw rate characterization.
    pub fn with_rates(mut self, rates: ErrorRateModel) -> Self {
        self.rates = rates;
        self
    }

    /// Sets the §V initialization knobs.
    pub fn with_init(mut self, init: InitConfig) -> Self {
        self.init = init;
        self
    }

    /// Overrides the `R_min` bound instead of deriving it per §V.
    pub fn with_r_min_override(mut self, r_min: Option<i64>) -> Self {
        self.r_min_override = r_min;
        self
    }

    /// Sets the solver budget (shared by both methods).
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the checkpoint path prefix.
    pub fn with_checkpoint(mut self, prefix: Option<PathBuf>) -> Self {
        self.checkpoint = prefix;
        self
    }

    /// Resumes from existing checkpoint files.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Sets the base solver configuration (both methods start from it;
    /// MinObs additionally disables P2).
    pub fn with_solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }
}

/// The per-method checkpoint file for a `--checkpoint` prefix.
pub fn checkpoint_path(prefix: &Path, method: &str) -> PathBuf {
    PathBuf::from(format!("{}.{method}.ckpt", prefix.display()))
}

/// Which optimizer a [`solve`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// The Efficient MinObs baseline (MinObsWin without P2).
    MinObs,
    /// MinObsWin (the paper's Algorithm 1; the default).
    #[default]
    MinObsWin,
}

impl Method {
    /// The method's name on the command line and in the serve protocol.
    pub fn name(&self) -> &'static str {
        match self {
            Method::MinObs => "minobs",
            Method::MinObsWin => "minobswin",
        }
    }

    /// Parses a method name.
    ///
    /// # Errors
    ///
    /// A message naming the unknown method.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "minobs" => Ok(Method::MinObs),
            "minobswin" => Ok(Method::MinObsWin),
            other => Err(format!("unknown method `{other}`")),
        }
    }
}

/// Result of one optimization method on one circuit.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// The final retiming.
    pub retiming: Retiming,
    /// Registers in the rebuilt netlist.
    pub registers: usize,
    /// Relative register change vs. the original circuit
    /// (`Δ#FF` column; negative = fewer registers).
    pub delta_ff: f64,
    /// SER of the rebuilt netlist (eq. (4)).
    pub ser: f64,
    /// Relative SER change vs. the original circuit (`ΔSER` column;
    /// negative = improvement).
    pub delta_ser: f64,
    /// Wall-clock seconds spent inside the retiming solver.
    pub solve_seconds: f64,
    /// Solver counters (`#J` = `stats.commits`).
    pub stats: SolverStats,
}

/// Everything one Table I row reports.
#[derive(Debug, Clone)]
pub struct CircuitRun {
    /// Circuit name.
    pub name: String,
    /// `|V|`: retiming-graph vertices (excluding the host).
    pub v: usize,
    /// `|E|`: retiming-graph edges.
    pub e: usize,
    /// `#FF`: registers in the original circuit.
    pub ff: usize,
    /// The period constraint Φ chosen by §V.
    pub phi: i64,
    /// The `R_min` bound chosen by §V.
    pub r_min: i64,
    /// Whether the setup-and-hold initialization succeeded.
    pub used_setup_hold: bool,
    /// SER of the original circuit at Φ.
    pub ser_original: f64,
    /// SER of the original circuit per the independent
    /// propagation-probability engine (a built-in second opinion on
    /// `ser_original`; see [`ser_engine::propprob`]).
    pub ser_propprob: f64,
    /// The Efficient MinObs baseline result.
    pub minobs: MethodResult,
    /// The MinObsWin result.
    pub minobswin: MethodResult,
}

impl CircuitRun {
    /// The paper's `SER_ref / SER_new` comparison column.
    pub fn ser_ratio(&self) -> f64 {
        self.minobs.ser / self.minobswin.ser
    }
}

/// Everything the per-method stages share, computed once per circuit
/// by [`prepare`]. The simulation trace it was derived from is already
/// dropped: retiming does not change the observability of
/// combinational gates (§III.B), so no later stage needs it.
#[derive(Debug, Clone)]
pub struct Prepared<'c> {
    /// The original circuit.
    pub circuit: &'c Circuit,
    /// Its retiming graph.
    pub graph: RetimeGraph,
    /// The §V initialization: Φ and the starting retiming.
    pub init: InitResult,
    /// The `R_min` bound in force (§V's, or the override).
    pub r_min: i64,
    /// Problem 1 over the original circuit's observabilities.
    pub problem: Problem,
    /// SER analysis parameters at the chosen Φ.
    pub ser_config: SerConfig,
    /// SER report of the original circuit.
    pub original: SerReport,
    /// SER of the original circuit per the independent
    /// propagation-probability engine.
    pub ser_propprob: f64,
}

impl Prepared<'_> {
    /// The Table I row for this circuit, given both methods' results.
    pub fn circuit_run(&self, minobs: MethodResult, minobswin: MethodResult) -> CircuitRun {
        CircuitRun {
            name: self.circuit.name().to_string(),
            v: self.graph.num_vertices() - 1,
            e: self.graph.num_edges(),
            ff: self.circuit.num_registers(),
            phi: self.init.phi,
            r_min: self.r_min,
            used_setup_hold: self.init.used_setup_hold,
            ser_original: self.original.ser,
            ser_propprob: self.ser_propprob,
            minobs,
            minobswin,
        }
    }
}

/// A method's result together with the retimed netlist it describes
/// and that netlist's SER report.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The Table I columns of the method.
    pub result: MethodResult,
    /// The retimed netlist.
    pub circuit: Circuit,
    /// Its SER report at the prepared Φ.
    pub report: SerReport,
}

/// Stage 1: builds the retiming graph, runs §V initialization, checks
/// the memory cap, simulates the circuit **once** and derives from
/// that one trace Problem 1, the original circuit's SER report and
/// the propagation-probability second opinion.
///
/// # Errors
///
/// Returns [`SolveError`] on infeasible initialization or an
/// over-budget simulation data plane, and wraps retiming/netlist
/// errors from the substrate crates.
pub fn prepare<'c>(circuit: &'c Circuit, config: &RunConfig) -> Result<Prepared<'c>, SolveError> {
    let graph = RetimeGraph::from_circuit(circuit, &config.delays)?;
    let init = config.init.initialize(&graph)?;
    let r_min = config.r_min_override.unwrap_or(init.r_min);

    // The simulation data plane dominates memory at scale (frames ×
    // gates × vectors); check it against the budget's memory cap
    // before allocating anything, so an over-budget instance fails
    // with a structured error instead of an OOM abort.
    if let Some(cap) = config.budget.max_memory_estimate {
        let bytes = FrameTrace::data_plane_bytes(circuit, &config.sim);
        if bytes > cap {
            return Err(SolveError::Initialization(format!(
                "simulation data plane needs ~{bytes} bytes \
                 ({} frames x {} gates x {} vectors), over the \
                 {cap}-byte memory budget",
                config.sim.frames,
                circuit.len(),
                config.sim.num_vectors
            )));
        }
    }

    let ser_config = SerConfig {
        sim: config.sim,
        delays: config.delays.clone(),
        rates: config.rates.clone(),
        elw: ElwParams {
            phi: init.phi,
            t_setup: config.init.t_setup,
            t_hold: config.init.t_hold,
        },
    };
    let trace = FrameTrace::simulate(circuit, config.sim);
    let observability = Observability::compute(circuit, &trace);
    let vertex_obs = vertex_observabilities(circuit, &graph, &observability);
    let problem = Problem::from_observabilities(
        &graph,
        &vertex_obs,
        config.sim.num_vectors,
        ser_config.elw,
        r_min,
    );
    let original = analyze_with_observability(circuit, &ser_config, &observability)?;
    // Second opinion from the propagation-probability engine, reusing
    // the same trace for its signal densities.
    let ser_propprob = propprob_report_with_trace(circuit, &ser_config, &trace)?.ser;
    Ok(Prepared {
        circuit,
        graph,
        init,
        r_min,
        problem,
        ser_config,
        original,
        ser_propprob,
    })
}

/// Stage 2: solves Problem 1 with one method from the §V starting
/// retiming, under `config`'s budget and its per-method
/// checkpoint/resume, streaming progress to `on_progress` when given.
/// Returns the solution and the seconds spent in the solver.
///
/// # Errors
///
/// Returns [`SolveError`] on an infeasible start, solver failure or an
/// unusable checkpoint.
pub fn solve(
    prepared: &Prepared,
    config: &RunConfig,
    method: Method,
    on_progress: Option<Arc<ProgressFn>>,
) -> Result<(Solution, f64), SolveError> {
    let t0 = Instant::now();
    // The static memory model covers graph/labels/arcs; the live arena
    // probe adds the SER trace planes, so the cap governs the run's
    // real dominant allocation at 50k-gate scale.
    let mut sup = Supervision::new()
        .budget(config.budget.clone())
        .with_memory_probe(Arc::new(ser_engine::SignatureArena::live_bytes));
    if let Some(prefix) = &config.checkpoint {
        let path = checkpoint_path(prefix, method.name());
        if config.resume && path.exists() {
            match Checkpoint::read_file(&path) {
                Ok(checkpoint) => sup = sup.resume_from(checkpoint),
                Err(e) => {
                    // Self-healing: a checkpoint that fails its seal or
                    // parse is moved aside (preserved for inspection,
                    // never rewritten in place) and the solve starts
                    // fresh — recomputing is always safe, resuming
                    // corrupt state never is.
                    let quarantined = path.with_extension("ckpt.corrupt");
                    let _ = netlist::fio::rename(&path, &quarantined);
                    eprintln!(
                        "warning: ignoring corrupt checkpoint ({e}); \
                         moved to {} and solving from scratch",
                        quarantined.display()
                    );
                }
            }
        }
        sup = sup.checkpoint_to(FileCheckpointSink::new(path));
    }
    if let Some(f) = on_progress {
        sup = sup.on_progress(f);
    }
    let solver = match method {
        Method::MinObs => config.solver.with_p2(false),
        Method::MinObsWin => config.solver,
    };
    let solution = SolverSession::new(&prepared.graph, &prepared.problem)
        .config(solver)
        .initial(prepared.init.retiming.clone())
        .run_supervised(sup)?
        .into_solution();
    Ok((solution, t0.elapsed().as_secs_f64()))
}

/// Stage 3: rebuilds the netlist for a [`solve`]d retiming and
/// re-analyzes its SER against the original circuit.
///
/// # Errors
///
/// Wraps retiming errors from the rebuild and the SER analysis.
pub fn evaluate(
    prepared: &Prepared,
    solution: Solution,
    seconds: f64,
) -> Result<Evaluated, SolveError> {
    let rebuilt = apply_retiming(prepared.circuit, &prepared.graph, &solution.retiming)?;
    let report = analyze(&rebuilt, &prepared.ser_config)?;
    let mut stats = solution.stats;
    // Any SER engine breaker trip (sampled audit caught the parallel
    // engine diverging; results came from the scalar fallback) is
    // surfaced on the method's degradation report.
    let engine = prepared.original.engine.merged(report.engine);
    if !engine.is_clean() {
        stats.degradation.ser_trip = Some(BreakerTrip {
            iteration: 0,
            cause: TripCause::Divergence,
        });
        stats.perf.breaker_trips += engine.trips;
    }
    let ff = prepared.circuit.num_registers();
    let result = MethodResult {
        retiming: solution.retiming,
        registers: rebuilt.num_registers(),
        delta_ff: rebuilt.num_registers() as f64 / ff.max(1) as f64 - 1.0,
        ser: report.ser,
        delta_ser: report.ser / prepared.original.ser - 1.0,
        solve_seconds: seconds,
        stats,
    };
    Ok(Evaluated {
        result,
        circuit: rebuilt,
        report,
    })
}

/// The whole Table I pipeline over one circuit: [`prepare`], then
/// [`solve`] and [`evaluate`] for MinObs and for MinObsWin.
///
/// ```no_run
/// use minobswin::experiment::{self, RunConfig};
/// # use netlist::samples;
/// # fn main() -> Result<(), minobswin::SolveError> {
/// let run = experiment::run(&samples::s27_like(), &RunConfig::small())?;
/// println!("{}: SER ratio {:.3}", run.name, run.ser_ratio());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// See [`prepare`], [`solve`] and [`evaluate`].
pub fn run(circuit: &Circuit, config: &RunConfig) -> Result<CircuitRun, SolveError> {
    let prepared = prepare(circuit, config)?;
    let (minobs, t_ref) = solve(&prepared, config, Method::MinObs, None)?;
    let (minobswin, t_new) = solve(&prepared, config, Method::MinObsWin, None)?;
    Ok(prepared.circuit_run(
        evaluate(&prepared, minobs, t_ref)?.result,
        evaluate(&prepared, minobswin, t_new)?.result,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;

    fn generated() -> Circuit {
        netlist::generator::GeneratorConfig::new("exp", 11)
            .gates(120)
            .registers(24)
            .build()
    }

    #[test]
    fn s27_runs_end_to_end() {
        let c = samples::s27_like();
        let run = run(&c, &RunConfig::small()).unwrap();
        assert!(run.ser_original > 0.0);
        assert!(run.ser_propprob > 0.0);
        assert!(run.minobs.ser > 0.0);
        assert!(run.minobswin.ser > 0.0);
        assert_eq!(run.ff, 3);
        assert_eq!(run.v, c.num_combinational());
    }

    #[test]
    fn generated_circuit_runs_end_to_end() {
        let run = run(&generated(), &RunConfig::small()).unwrap();
        // The optimizers only ever improve (or match) the scaled
        // register-observability objective; SER usually follows, but is
        // evaluated with fresh ELWs so we only sanity-check structure.
        assert!(run.minobs.registers > 0);
        assert!(run.minobswin.registers > 0);
        assert!(run.minobswin.stats.commits <= run.minobswin.stats.iterations);
    }

    #[test]
    fn prepared_original_report_matches_a_fresh_analysis() {
        // `prepare` analyzes the original circuit from the one trace it
        // also builds Problem 1 from; a from-scratch `analyze` must
        // agree bit for bit.
        for c in [samples::s27_like(), generated()] {
            let prepared = prepare(&c, &RunConfig::small()).unwrap();
            let fresh = analyze(&c, &prepared.ser_config).unwrap();
            assert_eq!(
                prepared.original.ser.to_bits(),
                fresh.ser.to_bits(),
                "{}",
                c.name()
            );
            let bits = |obs: &[f64]| obs.iter().map(|o| o.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&prepared.original.obs),
                bits(&fresh.obs),
                "{}",
                c.name()
            );
        }
    }

    #[test]
    fn evaluate_returns_the_netlist_it_scored() {
        let c = generated();
        let config = RunConfig::small();
        let prepared = prepare(&c, &config).unwrap();
        let (solution, seconds) = solve(&prepared, &config, Method::MinObsWin, None).unwrap();
        let evaluated = evaluate(&prepared, solution, seconds).unwrap();
        assert_eq!(
            evaluated.result.registers,
            evaluated.circuit.num_registers()
        );
        assert_eq!(evaluated.result.ser, evaluated.report.ser);
        // One method composed by hand equals that method inside `run`.
        let full = run(&c, &config).unwrap();
        assert_eq!(evaluated.result.retiming, full.minobswin.retiming);
        assert_eq!(evaluated.result.ser, full.minobswin.ser);
    }

    #[test]
    fn r_min_override_can_force_infeasibility() {
        let c = samples::s27_like();
        let err = run(&c, &RunConfig::small().with_r_min_override(Some(1_000_000))).unwrap_err();
        assert!(matches!(err, SolveError::InfeasibleInitial(_)));
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn memory_cap_below_data_plane_fails_structured() {
        let c = samples::s27_like();
        // A cap of 1 byte is below any data plane: the run must fail
        // with a structured initialization error (exit 1), not abort.
        let budget = SolveBudget::new().with_max_memory_estimate(Some(1));
        let err = run(&c, &RunConfig::small().with_budget(budget)).unwrap_err();
        assert!(matches!(err, SolveError::Initialization(_)), "{err}");
        assert!(err.to_string().contains("memory budget"), "{err}");
        assert_eq!(err.exit_code(), 1);
        // A generous cap admits the same run.
        let budget = SolveBudget::new().with_max_memory_estimate(Some(1 << 30));
        run(&c, &RunConfig::small().with_budget(budget)).unwrap();
    }

    #[test]
    fn deterministic_runs() {
        let c = samples::s27_like();
        let a = run(&c, &RunConfig::small()).unwrap();
        let b = run(&c, &RunConfig::small()).unwrap();
        assert_eq!(a.ser_original, b.ser_original);
        assert_eq!(a.minobswin.ser, b.minobswin.ser);
        assert_eq!(a.minobswin.retiming, b.minobswin.retiming);
    }
}
