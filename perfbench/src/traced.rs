//! The traced runs: each workload's binary once (for `wall_s` and the
//! output digest), then the same layers called in process, through
//! their public functions and in the order the binary calls them, each
//! call wrapped in a span. Counters come from the public result
//! structs. The in-process output must match the binary's digest, so
//! the trace describes the run the end-to-end metrics measure.

use std::path::Path;
use std::sync::{Arc, Mutex};

use bench_harness::{format_table, Table1Row};
use faultsim::{run_campaign, CampaignConfig, CrossCheck, DEFAULT_TOLERANCE};
use minobswin::algorithm::SolverStats;
use minobswin::experiment::{CircuitRun, MethodResult, RunConfig};
use minobswin::init::InitConfig;
use minobswin::{Problem, SolverSession, Supervision};
use netlist::digest::{content_digest, format_digest};
use netlist::generator::{table1_twin, TABLE1_ROWS};
use netlist::{parallel, Circuit, Levelization, ParseLimits};
use retime::apply::apply_retiming;
use retime::{ElwParams, RetimeGraph, Retiming};
use ser_engine::odc::Observability;
use ser_engine::sim::{FrameTrace, SimConfig};
use ser_engine::{
    analyze_with_observability, propprob_report_with_trace, vertex_observabilities, EngineReport,
    SerConfig, SerReport, SignatureArena,
};
use serve::json::Json;
use serve::{Daemon, ServeConfig};

use crate::checks;
use crate::inputs;
use crate::proc;
use crate::serve_mix::{self, InProcess, Round};
use crate::stats::{median, tail};
use crate::trace::{self, Recorder};
use crate::workloads::{self, Ctx, Report, ServeTotals};

/// Untimed share of the traced total the top-level spans may leave
/// (plus a fixed 50 ms for process-level work between calls).
pub const UNTIMED_SLACK: f64 = 0.02;

/// Counters gathered from the public result structs.
#[derive(Debug, Default)]
struct Acc {
    /// Σ gates × frames × vectors over simulations.
    gfv: f64,
    engine: EngineReport,
    solve: minobswin::incremental::PerfCounters,
    iterations: u64,
    commits: u64,
    parser_peak_bytes: usize,
    injections: u64,
}

fn note_engine(acc: &Mutex<Acc>, e: EngineReport) {
    let mut acc = acc.lock().expect("counters poisoned");
    acc.engine = acc.engine.merged(e);
}

fn note_solve(acc: &Mutex<Acc>, stats: &SolverStats) {
    let mut acc = acc.lock().expect("counters poisoned");
    let (a, p) = (&mut acc.solve, &stats.perf);
    a.check_nanos += p.check_nanos;
    a.closure_nanos += p.closure_nanos;
    a.attribute_nanos += p.attribute_nanos;
    a.commit_nanos += p.commit_nanos;
    a.closure_calls += p.closure_calls;
    a.closure_arcs_touched += p.closure_arcs_touched;
    a.closure_skips += p.closure_skips;
    a.closure_fallback_full += p.closure_fallback_full;
    a.edges_relaxed += p.edges_relaxed;
    a.violations_batched += p.violations_batched;
    a.breaker_trips += p.breaker_trips;
    acc.iterations += stats.iterations as u64;
    acc.commits += stats.commits as u64;
}

/// A span recorder plus the counters of one traced pass.
struct Tracer {
    rec: Recorder,
    acc: Mutex<Acc>,
}

impl Tracer {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.rec.span(name, f)
    }

    /// `FrameTrace::simulate` as its own span.
    fn simulate(&self, circuit: &Circuit, sim: SimConfig) -> FrameTrace {
        self.acc.lock().expect("counters poisoned").gfv +=
            (circuit.len() * sim.frames * sim.num_vectors) as f64;
        self.span("ser.simulate", || FrameTrace::simulate(circuit, sim))
    }

    /// `ser_engine::analyze`, split into its three public calls.
    fn analyze(&self, circuit: &Circuit, config: &SerConfig) -> Result<SerReport, String> {
        let trace = self.simulate(circuit, config.sim);
        let obs = self.span("ser.odc", || Observability::compute(circuit, &trace));
        note_engine(&self.acc, *obs.engine());
        self.span("ser.report", || {
            analyze_with_observability(circuit, config, &obs)
        })
        .map_err(|e| e.to_string())
    }

    fn read(&self, path: &Path) -> Result<Circuit, String> {
        self.span("netlist.read", || {
            netlist::stream::reset_parser_peak_bytes();
            let c = netlist::read_path(path, &ParseLimits::default());
            let peak = netlist::stream::parser_peak_bytes();
            let mut acc = self.acc.lock().expect("counters poisoned");
            acc.parser_peak_bytes = acc.parser_peak_bytes.max(peak);
            c
        })
        .map_err(|e| e.to_string())
    }

    fn solve(
        &self,
        name: &'static str,
        graph: &RetimeGraph,
        problem: &Problem,
        config: &RunConfig,
        p2: bool,
        initial: &Retiming,
    ) -> Result<(minobswin::algorithm::Solution, f64), String> {
        let t = std::time::Instant::now();
        let solution = self.span(name, || {
            let supervision = Supervision::new()
                .budget(config.budget.clone())
                .with_memory_probe(Arc::new(SignatureArena::live_bytes));
            SolverSession::new(graph, problem)
                .config(config.solver.with_p2(p2))
                .initial(initial.clone())
                .run_supervised(supervision)
        });
        let seconds = t.elapsed().as_secs_f64();
        let solution = solution.map_err(|e| e.to_string())?.into_solution();
        note_solve(&self.acc, &solution.stats);
        Ok((solution, seconds))
    }

    /// `Experiment::run`, call by call.
    fn experiment(&self, circuit: &Circuit, config: &RunConfig) -> Result<CircuitRun, String> {
        self.span("core.experiment", || self.experiment_calls(circuit, config))
    }

    fn experiment_calls(
        &self,
        circuit: &Circuit,
        config: &RunConfig,
    ) -> Result<CircuitRun, String> {
        let e = |e: retime::RetimeError| e.to_string();
        let graph = self
            .span("retime.graph", || {
                RetimeGraph::from_circuit(circuit, &config.delays)
            })
            .map_err(e)?;
        let init = self
            .span("core.init", || InitConfig::initialize(config.init, &graph))
            .map_err(|e| e.to_string())?;
        let r_min = config.r_min_override.unwrap_or(init.r_min);
        let params = ElwParams {
            phi: init.phi,
            t_setup: config.init.t_setup,
            t_hold: config.init.t_hold,
        };
        self.span("netlist.levelize", || {
            Levelization::of(circuit).num_levels()
        });
        let trace = self.simulate(circuit, config.sim);
        let obs = self.span("ser.odc", || Observability::compute(circuit, &trace));
        note_engine(&self.acc, *obs.engine());
        let problem = self.span("core.problem", || {
            let vertex_obs = vertex_observabilities(circuit, &graph, &obs);
            Problem::from_observabilities(
                &graph,
                &vertex_obs,
                config.sim.num_vectors,
                params,
                r_min,
            )
        });
        let ser_config = SerConfig {
            sim: config.sim,
            delays: config.delays.clone(),
            rates: config.rates.clone(),
            elw: params,
        };
        let original = self.analyze(circuit, &ser_config)?;
        let propprob = self
            .span("ser.propprob", || {
                propprob_report_with_trace(circuit, &ser_config, &trace)
            })
            .map_err(e)?;
        note_engine(&self.acc, propprob.engine);
        let ff = circuit.num_registers();
        let evaluate = |retiming: &Retiming, seconds: f64, stats: SolverStats| {
            let rebuilt = self
                .span("retime.apply", || apply_retiming(circuit, &graph, retiming))
                .map_err(e)?;
            let report = self.analyze(&rebuilt, &ser_config)?;
            Ok::<_, String>(MethodResult {
                retiming: retiming.clone(),
                registers: rebuilt.num_registers(),
                delta_ff: rebuilt.num_registers() as f64 / ff.max(1) as f64 - 1.0,
                ser: report.ser,
                delta_ser: report.ser / original.ser - 1.0,
                solve_seconds: seconds,
                stats,
            })
        };
        let (minobs, t_ref) = self.solve(
            "core.solve.minobs",
            &graph,
            &problem,
            config,
            false,
            &init.retiming,
        )?;
        let (minobswin, t_new) = self.solve(
            "core.solve.minobswin",
            &graph,
            &problem,
            config,
            true,
            &init.retiming,
        )?;
        Ok(CircuitRun {
            name: circuit.name().to_string(),
            v: graph.num_vertices() - 1,
            e: graph.num_edges(),
            ff,
            phi: init.phi,
            r_min,
            used_setup_hold: init.used_setup_hold,
            ser_original: original.ser,
            ser_propprob: propprob.ser,
            minobs: evaluate(&minobs.retiming, t_ref, minobs.stats)?,
            minobswin: evaluate(&minobswin.retiming, t_new, minobswin.stats)?,
        })
    }

    /// The rebuilt netlist for `retiming`, as `retimer` builds it after
    /// the experiment.
    fn rebuild(&self, circuit: &Circuit, retiming: &Retiming) -> Result<Circuit, String> {
        let graph = self
            .span("retime.graph", || {
                RetimeGraph::from_circuit(circuit, &netlist::DelayModel::default())
            })
            .map_err(|e| e.to_string())?;
        self.span("retime.apply", || apply_retiming(circuit, &graph, retiming))
            .map_err(|e| e.to_string())
    }
}

/// The binary's run inside a traced invocation: its wall time and the
/// digest of its deterministic output.
fn binary_run(
    ctx: &Ctx,
    report: &mut Report,
    what: &str,
    cmd: std::process::Command,
    digest: impl FnOnce(&proc::Finished) -> Result<String, String>,
) -> f64 {
    report.attempted += 1;
    match proc::run(cmd, ctx.deadline) {
        Ok(done) if done.reaped.exit == Some(0) => {
            match digest(&done) {
                Ok(d) => report.digest(what, d),
                Err(e) => report.failures.push(format!("{what} (binary): {e}")),
            }
            done.wall
        }
        Ok(done) => {
            report
                .failures
                .push(format!("{what} (binary): exit {:?}", done.reaped.exit));
            done.wall
        }
        Err(e) => {
            report.failures.push(format!("{what} (binary): {e}"));
            f64::NAN
        }
    }
}

/// Runs the traced pass of `workload`.
pub fn run(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    let tracer = Tracer {
        rec: Recorder::new(),
        acc: Mutex::new(Acc::default()),
    };
    SignatureArena::reset_high_water();
    let allocs0 = ser_engine::signature_allocs();
    let mut report = Report::default();
    // Metrics a workload measures outside the span tree.
    let mut layer = Vec::new();
    let bounds = match workload {
        "table1_twins" => table1_twins(ctx, &tracer, &mut report)?,
        "faultsim_1k" => faultsim_1k(ctx, &tracer, &mut report, &mut layer)?,
        "serve_mix" => serve_mix(ctx, &tracer, &mut report, &mut layer)?,
        other => return Err(format!("no traced run for `{other}`")),
    };
    let spans = tracer.rec.spans();
    let totals = trace::totals(&spans);
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_time);
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.calls) as f64;
    let acc = tracer.acc.into_inner().expect("counters poisoned");
    let total = bounds.hi - bounds.lo;
    let untimed = trace::untimed(&spans, bounds.lo, bounds.hi);
    if untimed > UNTIMED_SLACK * total + 0.05 {
        report.failures.push(format!(
            "top-level spans leave {untimed:.3} s of {total:.3} s untimed"
        ));
    }
    report.attempted += 1;

    let workers: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "table1.worker")
        .map(|s| s.duration())
        .collect();
    let imbalance = if workers.is_empty() {
        0.0
    } else {
        let mean = workers.iter().sum::<f64>() / workers.len() as f64;
        workers.iter().cloned().fold(0.0, f64::max) / mean
    };
    let m = &mut report;
    m.metric("netlist.read_s", self_s("netlist.read"), "s");
    m.metric("netlist.levelize_s", self_s("netlist.levelize"), "s");
    m.metric("netlist.generate_s", self_s("netlist.generate"), "s");
    m.metric(
        "netlist.parser_peak_bytes",
        acc.parser_peak_bytes as f64,
        "bytes",
    );
    m.metric("netlist.pool_imbalance", imbalance, "ratio");
    m.metric("retime.graph_s", self_s("retime.graph"), "s");
    m.metric("retime.graph_calls", calls("retime.graph"), "count");
    m.metric("retime.apply_s", self_s("retime.apply"), "s");
    m.metric("retime.apply_calls", calls("retime.apply"), "count");
    m.metric("core.init_s", self_s("core.init"), "s");
    m.metric("core.problem_s", self_s("core.problem"), "s");
    m.metric("ser.simulate_s", self_s("ser.simulate"), "s");
    m.metric("ser.simulate_calls", calls("ser.simulate"), "count");
    m.metric("ser.odc_s", self_s("ser.odc"), "s");
    m.metric("ser.report_s", self_s("ser.report"), "s");
    m.metric("ser.propprob_s", self_s("ser.propprob"), "s");
    let sim_odc = self_s("ser.simulate") + self_s("ser.odc");
    m.metric(
        "ser.ns_per_gfv",
        if acc.gfv > 0.0 {
            sim_odc * 1e9 / acc.gfv
        } else {
            0.0
        },
        "ns",
    );
    m.metric("ser.threads", acc.engine.threads as f64, "count");
    m.metric(
        "ser.audited_layers",
        acc.engine.audited_layers as f64,
        "count",
    );
    m.metric("ser.engine_trips", acc.engine.trips as f64, "count");
    m.metric(
        "ser.arena_high_water_bytes",
        SignatureArena::high_water_bytes() as f64,
        "bytes",
    );
    m.metric(
        "ser.signature_allocs",
        (ser_engine::signature_allocs() - allocs0) as f64,
        "count",
    );
    let p = &acc.solve;
    m.metric("core.solve.minobs_s", self_s("core.solve.minobs"), "s");
    m.metric(
        "core.solve.minobswin_s",
        self_s("core.solve.minobswin"),
        "s",
    );
    m.metric("core.solve.check_s", p.check_nanos as f64 / 1e9, "s");
    m.metric("core.solve.closure_s", p.closure_nanos as f64 / 1e9, "s");
    m.metric(
        "core.solve.attribute_s",
        p.attribute_nanos as f64 / 1e9,
        "s",
    );
    m.metric("core.solve.commit_s", p.commit_nanos as f64 / 1e9, "s");
    m.metric("core.solve.iterations", acc.iterations as f64, "count");
    m.metric("core.solve.commits", acc.commits as f64, "count");
    m.metric("core.solve.closure_calls", p.closure_calls as f64, "count");
    m.metric(
        "core.solve.closure_arcs_touched",
        p.closure_arcs_touched as f64,
        "count",
    );
    m.metric("core.solve.arcs_per_closure", p.arcs_per_closure(), "count");
    m.metric("core.solve.closure_skips", p.closure_skips as f64, "count");
    m.metric(
        "core.solve.closure_fallback_full",
        p.closure_fallback_full as f64,
        "count",
    );
    m.metric("core.solve.edges_relaxed", p.edges_relaxed as f64, "count");
    m.metric(
        "core.solve.violations_batched",
        p.violations_batched as f64,
        "count",
    );
    m.metric("core.solve.breaker_trips", p.breaker_trips as f64, "count");
    let observed = [
        ("serve.queue_wait_ms_p50", "ms"),
        ("serve.queue_wait_ms_p90", "ms"),
        ("serve.parse_ms_p50", "ms"),
        ("serve.run_ms_p50", "ms"),
        ("serve.run_ms_p90", "ms"),
        ("serve.result_hit_ratio", "ratio"),
        ("serve.netlist_hits", "count"),
        ("serve.levels_hits", "count"),
        ("serve.result_misses", "count"),
        ("serve.quarantined", "count"),
        ("serve.cache_bytes", "bytes"),
        ("serve.jobs", "count"),
        ("threads.default_wall_s", "s"),
        ("threads.default_slowdown", "ratio"),
    ];
    for (name, unit) in observed {
        let v = layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        m.metric(name, v, unit);
    }
    let experiment_s = match workload {
        "faultsim_1k" => totals.get("core.experiment").map_or(0.0, |t| t.inclusive),
        _ => 0.0,
    };
    m.metric("faultsim.experiment_s", experiment_s, "s");
    let campaign_s = self_s("faultsim.campaign");
    m.metric("faultsim.campaign_s", campaign_s, "s");
    m.metric(
        "faultsim.injections_per_s",
        if campaign_s > 0.0 {
            acc.injections as f64 / campaign_s
        } else {
            0.0
        },
        "1/s",
    );
    m.metric("faultsim.crosscheck_s", self_s("faultsim.crosscheck"), "s");
    m.metric("trace.total_s", total, "s");
    m.metric("trace.overhead_s", bounds.traced_wall - bounds.wall, "s");
    m.metric("trace.untimed_s", untimed, "s");
    Ok(report)
}

/// Where a traced pass sits on the recorder's clock, and the binary's
/// wall time it is compared with.
struct Bounds {
    /// The binary's `wall_s`.
    wall: f64,
    /// Traced pass start.
    lo: f64,
    /// Traced pass end.
    hi: f64,
    /// The traced pass's counterpart of `wall` (the whole pass for a
    /// one-shot command, submit-to-last-result of a round for serve).
    traced_wall: f64,
}

impl Bounds {
    fn one_shot(wall: f64, lo: f64, hi: f64) -> Self {
        Self {
            wall,
            lo,
            hi,
            traced_wall: hi - lo,
        }
    }
}

fn table1_twins(ctx: &Ctx, t: &Tracer, report: &mut Report) -> Result<Bounds, String> {
    let what = "table1_twins table";
    let table_digest = |stdout: &str| {
        checks::table1(stdout).map(|t| format_digest(content_digest(t.deterministic.as_bytes())))
    };
    let wall = binary_run(ctx, report, what, proc::command(&ctx.table1), |done| {
        table_digest(&String::from_utf8_lossy(&done.stdout))
    });

    // `bench_harness::run_table1` at `Table1Options::default()`.
    let options = bench_harness::Table1Options::default();
    let items: Vec<_> = TABLE1_ROWS.iter().collect();
    let pool = parallel::resolve_workers_for(options.threads, items.len());
    let sim_threads = if pool > 1 { 1 } else { options.threads };
    let chunk = items.len().div_ceil(pool);
    let mut slots: Vec<Option<Table1Row>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let lo = t.rec.now();
    t.span("table1.pool", || {
        let parent = t.rec.current();
        let (items, options) = (&items, &options);
        std::thread::scope(|scope| {
            for (ci, out) in slots.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    t.rec.adopt(parent, || {
                        t.span("table1.worker", || {
                            for (k, slot) in out.iter_mut().enumerate() {
                                let row = items[ci * chunk + k];
                                *slot = t.span("table1.row", || {
                                    let giant = row.v > 60_000;
                                    let scale = options.scale
                                        * if giant { options.giant_extra_scale } else { 1 };
                                    let circuit =
                                        t.span("netlist.generate", || table1_twin(row, scale));
                                    let config = RunConfig::default().with_sim(SimConfig {
                                        num_vectors: options.num_vectors,
                                        frames: options.frames,
                                        warmup: 8,
                                        seed: 0xC0FFEE,
                                        threads: sim_threads,
                                    });
                                    t.experiment(&circuit, &config).ok().map(|run| Table1Row {
                                        paper_name: row.name,
                                        run,
                                    })
                                });
                            }
                        })
                    })
                });
            }
        });
    });
    let hi = t.rec.now();
    let rows: Vec<Table1Row> = slots.into_iter().flatten().collect();
    report.attempted += 1;
    match table_digest(&format_table(&rows)) {
        Ok(d) => report.digest(what, d),
        Err(e) => report.failures.push(format!("{what} (traced): {e}")),
    }
    Ok(Bounds::one_shot(wall, lo, hi))
}

/// The part of `retimer fault-sim`'s report one scored circuit prints.
fn score(
    t: &Tracer,
    label: &str,
    c: &Circuit,
    ser_config: &SerConfig,
    campaign: &CampaignConfig,
    out: &mut String,
) -> Result<f64, String> {
    use std::fmt::Write as _;
    let report = t.analyze(c, ser_config)?;
    let result = t
        .span("faultsim.campaign", || {
            run_campaign(c, ser_config, campaign)
        })
        .map_err(|e| e.to_string())?;
    t.acc.lock().expect("counters poisoned").injections += result.injections;
    let check = t.span("faultsim.crosscheck", || {
        CrossCheck::compare(c, &report, &result, DEFAULT_TOLERANCE)
    });
    let _ = writeln!(out, "== {label} ==");
    out.push_str(&check.summary());
    let (lo, hi) = result.ser_ci();
    let _ = writeln!(
        out,
        "  empirical SER {:.4e} [{:.4e}, {:.4e}] over {} injections, {} workers",
        result.ser(),
        lo,
        hi,
        result.injections,
        result.workers
    );
    let mut regs: Vec<_> = result
        .register_latches
        .iter()
        .filter(|&&(_, n)| n > 0)
        .collect();
    regs.sort_by_key(|&&(_, n)| std::cmp::Reverse(n));
    for &&(r, n) in regs.iter().take(5) {
        let _ = writeln!(out, "  register {:>12}: {} latches", c.gate(r).name(), n);
    }
    Ok(result.ser())
}

fn faultsim_1k(
    ctx: &Ctx,
    t: &Tracer,
    report: &mut Report,
    layer: &mut Vec<(&'static str, f64)>,
) -> Result<Bounds, String> {
    let input = inputs::fixture(&ctx.work, 1000).map_err(|e| e.to_string())?;
    let what = "faultsim_1k report";
    let check = |done: &proc::Finished| {
        checks::fault_sim(&String::from_utf8_lossy(&done.stdout), "minobswin")?;
        Ok(format_digest(content_digest(&done.stdout)))
    };
    let cmd = workloads::faultsim_command(ctx, &input, Some(1));
    let wall = binary_run(ctx, report, what, cmd, check);
    // The same command at the default thread count: what pinning the
    // end-to-end run to one thread leaves out.
    let cmd = workloads::faultsim_command(ctx, &input, None);
    let default_wall = binary_run(ctx, report, "faultsim_1k default threads", cmd, check);
    layer.extend([
        ("threads.default_wall_s", default_wall),
        ("threads.default_slowdown", default_wall / wall),
    ]);

    let lo = t.rec.now();
    let circuit = t.read(&input)?;
    // `retimer fault-sim`'s defaults, at `--threads 1`.
    let config = RunConfig::default().with_sim(SimConfig {
        num_vectors: 1024,
        frames: 15,
        warmup: 16,
        seed: 0xC0FFEE,
        threads: 1,
    });
    let run = t.experiment(&circuit, &config)?;
    let ser_config = SerConfig {
        sim: config.sim,
        delays: config.delays.clone(),
        rates: config.rates.clone(),
        elw: ElwParams {
            phi: run.phi,
            t_setup: config.init.t_setup,
            t_hold: config.init.t_hold,
        },
    };
    let campaign = CampaignConfig::new(100_000)
        .with_seed(inputs::campaign_seed(ctx.seed))
        .with_workers(1)
        .with_pulse_width(0.0);
    let mut out = String::new();
    let before = score(t, "original", &circuit, &ser_config, &campaign, &mut out)?;
    let rebuilt = t.rebuild(&circuit, &run.minobswin.retiming)?;
    let after = score(
        t,
        "retimed (minobswin)",
        &rebuilt,
        &ser_config,
        &campaign,
        &mut out,
    )?;
    if before > 0.0 {
        out.push_str(&format!(
            "empirical SER change: {:+.2}% (analytic {:+.2}%)\n",
            (after / before - 1.0) * 100.0,
            run.minobswin.delta_ser * 100.0
        ));
    }
    let hi = t.rec.now();
    report.attempted += 1;
    report.digest(what, format_digest(content_digest(out.as_bytes())));
    Ok(Bounds::one_shot(wall, lo, hi))
}

/// Bytes under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(ft) if ft.is_dir() => dir_bytes(&e.path()),
                _ => e.metadata().map_or(0, |m| m.len()),
            })
            .sum()
    })
}

fn serve_mix(
    ctx: &Ctx,
    t: &Tracer,
    report: &mut Report,
    layer: &mut Vec<(&'static str, f64)>,
) -> Result<Bounds, String> {
    let paths = inputs::serve_pool(&ctx.work).map_err(|e| e.to_string())?;
    let mut binary = ServeTotals::default();
    workloads::serve_round(ctx, &paths, 0, &mut binary, report)?;
    let wall = binary.walls[0];

    let (mut queue, mut parse, mut run) = (Vec::new(), Vec::new(), Vec::new());
    let mut counters = [0.0f64; 5];
    let mut cache_bytes = 0;
    let mut round_walls = Vec::new();
    let lo = t.rec.now();
    let mut r = 1;
    while r == 1 || ctx.start.elapsed().as_secs_f64() < ctx.seconds {
        let cache = workloads::fresh_cache(&ctx.work, r)?;
        let round: Round = t.span("serve.round", || {
            let parent = t.rec.current();
            let daemon = t
                .span("serve.start", || Daemon::start(ServeConfig::new(&cache)))
                .map_err(|e| format!("starting daemon: {e}"))?;
            let events = daemon.events().ok_or("no event stream")?;
            let mut transport = InProcess {
                daemon: &daemon,
                events: &events,
                marks: Default::default(),
            };
            let round = serve_mix::drive(
                &mut transport,
                &inputs::serve_plan(ctx.seed, r, paths.len()),
                &paths,
                daemon.worker_count + 1,
                &format!("r{r}"),
                ctx.deadline,
            );
            let stats = daemon.cache().counters.to_json();
            let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            for (slot, key) in counters.iter_mut().zip([
                "result_hits",
                "result_misses",
                "netlist_hits",
                "levels_hits",
                "quarantined",
            ]) {
                *slot += n(key);
            }
            cache_bytes = dir_bytes(&cache);
            t.span("serve.drain", || {
                daemon.drain();
                daemon.close_events();
            });
            let ms = |a: std::time::Instant, b: std::time::Instant| {
                b.saturating_duration_since(a).as_secs_f64() * 1e3
            };
            for (id, submitted) in &round.submitted {
                let Some(m) = transport.marks.get(id) else {
                    continue;
                };
                let (Some(p), Some(pd), Some(l), Some(d)) =
                    (m.parsing, m.parsed, m.levelized, m.done)
                else {
                    continue;
                };
                queue.push(ms(*submitted, p));
                parse.push(ms(p, pd));
                if round.computed.contains(id) {
                    run.push(ms(l, d));
                }
                let at = |i| t.rec.at(i);
                let job = t.rec.record("serve.job", at(*submitted), at(d), parent);
                t.rec
                    .record("serve.queue", at(*submitted), at(p), Some(job));
                t.rec.record("serve.parse", at(p), at(pd), Some(job));
                t.rec.record("serve.levels", at(pd), at(l), Some(job));
                t.rec.record("serve.run", at(l), at(d), Some(job));
            }
            Ok::<_, String>(round)
        })?;
        let _ = std::fs::remove_dir_all(&cache);
        report.attempted += round.attempted;
        report.failures.extend(round.failures.iter().cloned());
        report.digest("serve_mix results", workloads::bodies_digest(&round));
        round_walls.push(round.wall);
        r += 1;
    }
    let hi = t.rec.now();
    let p = |v: &[f64], pct: f64| tail(v, pct).map_or(0.0, |t| t.value);
    let [hits, misses, netlist_hits, levels_hits, quarantined] = counters;
    layer.extend([
        ("serve.queue_wait_ms_p50", median(&queue).unwrap_or(0.0)),
        ("serve.queue_wait_ms_p90", p(&queue, 90.0)),
        ("serve.parse_ms_p50", median(&parse).unwrap_or(0.0)),
        ("serve.run_ms_p50", median(&run).unwrap_or(0.0)),
        ("serve.run_ms_p90", p(&run, 90.0)),
        ("serve.result_hit_ratio", hits / (hits + misses).max(1.0)),
        ("serve.netlist_hits", netlist_hits),
        ("serve.levels_hits", levels_hits),
        ("serve.result_misses", misses),
        ("serve.quarantined", quarantined),
        ("serve.cache_bytes", cache_bytes as f64),
        ("serve.jobs", queue.len() as f64),
    ]);
    // Overhead compares like with like: submit-to-last-result.
    let traced_wall = median(&round_walls).unwrap_or(f64::NAN);
    Ok(Bounds {
        wall,
        lo,
        hi,
        traced_wall,
    })
}
