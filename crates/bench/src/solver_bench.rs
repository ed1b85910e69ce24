//! Benchmark of the solver's incremental engines against their
//! from-scratch counterparts: the dirty-region constraint checker vs
//! full recomputes, and the warm-started closure engine vs fresh Dinic
//! builds, on sample and generated circuits. Shared by the
//! `retimer bench-solve` subcommand and the `solver` criterion bench;
//! the JSON it emits (`BENCH_solver.json`) is the tracked baseline.

use std::fmt::Write as _;
use std::time::Instant;

use minobswin::algorithm::{SolverConfig, SolverStats};
use minobswin::closure_inc::ClosureEngine;
use minobswin::init::InitConfig;
use minobswin::{Problem, SolveBudget, SolveError, SolverSession, Supervision};
use netlist::generator::GeneratorConfig;
use netlist::rng::Xoshiro256;
use netlist::{samples, Circuit, DelayModel};
use retime::{ElwParams, RetimeGraph, Retiming};
use serve::json::Json;

/// A prepared solver instance: graph, problem and a feasible start.
pub struct BenchInstance {
    /// Display name of the circuit.
    pub name: String,
    /// The retiming graph.
    pub graph: RetimeGraph,
    /// The MinObsWin instance over it.
    pub problem: Problem,
    /// The §V starting retiming.
    pub initial: Retiming,
}

/// Builds an instance from a circuit: §V initialization plus synthetic
/// observability counts (the solver only sees the `b` coefficients, so
/// no simulation is needed for a solver benchmark).
///
/// # Errors
///
/// Propagates graph-construction and initialization failures.
pub fn prepare(name: &str, circuit: &Circuit) -> Result<BenchInstance, SolveError> {
    let graph = RetimeGraph::from_circuit(circuit, &DelayModel::default())?;
    let init = InitConfig::default().initialize(&graph)?;
    let params = ElwParams::with_phi(init.phi);
    let mut rng = Xoshiro256::seed_from_u64(7);
    let counts: Vec<i64> = (0..graph.num_vertices())
        .map(|i| {
            if i == 0 {
                1024
            } else {
                rng.gen_range(1025) as i64
            }
        })
        .collect();
    let problem = Problem::from_observability_counts(&graph, &counts, params, init.r_min);
    Ok(BenchInstance {
        name: name.to_string(),
        graph,
        problem,
        initial: init.retiming,
    })
}

/// The repo's sample circuits, sized well below the generated set.
pub fn sample_instances() -> Vec<BenchInstance> {
    [
        ("pipeline_24x4", samples::pipeline(24, 4)),
        ("s27_like", samples::s27_like()),
        ("two_stage_loop", samples::two_stage_loop()),
    ]
    .into_iter()
    .filter_map(|(name, c)| prepare(name, &c).ok())
    .collect()
}

/// A generated circuit of roughly `gates` gates (the "medium" class
/// the ≥5× edge-relaxation claim is made on).
///
/// # Errors
///
/// See [`prepare`].
pub fn generated_instance(gates: usize) -> Result<BenchInstance, SolveError> {
    let circuit = generated_circuit(gates);
    prepare(
        &format!("generated_{}", crate::gates_label(gates)),
        &circuit,
    )
}

/// The deterministic generated circuit behind [`generated_instance`]
/// (and the same recipe the SER benchmark and the committed
/// `generated_10k` fixture use): ~`gates` gates over a `gates/5`
/// register file at fanin density 2.2.
pub fn generated_circuit(gates: usize) -> Circuit {
    GeneratorConfig::new("bench", gates as u64)
        .gates(gates)
        .registers(gates / 5)
        .inputs(12)
        .outputs(12)
        .target_edges(gates * 22 / 10)
        .build()
}

/// One engine's measured solver run.
#[derive(Clone)]
pub struct EngineRun {
    /// Wall-clock seconds inside the solver.
    pub solve_seconds: f64,
    /// The objective gain (must agree across engines).
    pub objective_gain: i64,
    /// Full run counters, including [`SolverStats::perf`].
    pub stats: SolverStats,
}

/// Both engines' runs over one instance.
#[derive(Clone)]
pub struct BenchRecord {
    /// Circuit name.
    pub name: String,
    /// Retiming-graph vertices (including the host).
    pub vertices: usize,
    /// Retiming-graph edges.
    pub edges: usize,
    /// The run with the incremental engines (default configuration:
    /// dirty-region checker + warm-started closure).
    pub incremental: EngineRun,
    /// The run with both incremental engines disabled (from-scratch
    /// checks, fresh Dinic per closure call).
    pub full: EngineRun,
    /// Whether either engine's run was truncated by the solve budget.
    /// Degraded rows are not comparable to converged ones: their
    /// counters reflect wherever the budget happened to stop, so CI
    /// diff scripts must never compare a degraded row against a
    /// converged baseline (or vice versa).
    pub degraded: bool,
}

impl BenchRecord {
    /// How many times fewer edges per check the incremental engine
    /// relaxes, compared to the full engine (higher is better).
    pub fn edge_relaxation_ratio(&self) -> f64 {
        let inc = self.incremental.stats.perf.edges_per_check();
        let full = self.full.stats.perf.edges_per_check();
        if inc <= 0.0 {
            return 0.0;
        }
        full / inc
    }

    /// How many times fewer arcs per closure call the warm-started
    /// engine touches, compared to a fresh Dinic build (higher is
    /// better).
    pub fn closure_arc_ratio(&self) -> f64 {
        let warm = self.incremental.stats.perf.arcs_per_closure();
        let fresh = self.full.stats.perf.arcs_per_closure();
        if warm <= 0.0 {
            return 0.0;
        }
        fresh / warm
    }
}

fn timed_run(
    instance: &BenchInstance,
    config: SolverConfig,
    budget: &SolveBudget,
) -> Result<EngineRun, SolveError> {
    // Fresh token per run: the limits are shared but a deadline expiry
    // in one engine's run must not cancel the other's.
    let per_run = SolveBudget::new()
        .with_wall_time(budget.wall_time)
        .with_max_iterations(budget.max_iterations)
        .with_max_memory_estimate(budget.max_memory_estimate);
    let t0 = Instant::now();
    let outcome = SolverSession::new(&instance.graph, &instance.problem)
        .config(config)
        .initial(instance.initial.clone())
        .run_supervised(Supervision::new().budget(per_run))?;
    let solution = outcome.into_solution();
    Ok(EngineRun {
        solve_seconds: t0.elapsed().as_secs_f64(),
        objective_gain: solution.objective_gain,
        stats: solution.stats,
    })
}

/// Runs both engines over one instance with an unlimited budget.
///
/// # Errors
///
/// Propagates solver failures (the prepared start is feasible, so this
/// indicates a bug).
///
/// # Panics
///
/// Panics if the two engines disagree on the objective gain — they are
/// required to be bit-identical.
pub fn measure(instance: &BenchInstance) -> Result<BenchRecord, SolveError> {
    measure_with_budget(instance, &SolveBudget::new())
}

/// Runs both engines over one instance under `budget` (each engine run
/// gets a fresh deadline derived from the budget's limits).
///
/// # Errors
///
/// See [`measure`].
///
/// # Panics
///
/// As [`measure`], except the bit-identity assertion is skipped when
/// either run was degraded by the budget (a truncated run legitimately
/// stops at a different objective).
pub fn measure_with_budget(
    instance: &BenchInstance,
    budget: &SolveBudget,
) -> Result<BenchRecord, SolveError> {
    let incremental = timed_run(instance, SolverConfig::default(), budget)?;
    let full = timed_run(
        instance,
        SolverConfig::default()
            .with_incremental(false)
            .with_closure_engine(ClosureEngine::Fresh),
        budget,
    )?;
    let degraded = incremental.stats.degradation.budget_stop.is_some()
        || full.stats.degradation.budget_stop.is_some();
    if !degraded {
        assert_eq!(
            incremental.objective_gain, full.objective_gain,
            "{}: the two constraint engines must agree bit-for-bit",
            instance.name
        );
    }
    Ok(BenchRecord {
        name: instance.name.clone(),
        vertices: instance.graph.num_vertices(),
        edges: instance.graph.num_edges(),
        incremental,
        full,
        degraded,
    })
}

fn engine_json(run: &EngineRun) -> Json {
    let s = &run.stats;
    let p = &s.perf;
    let n = |v: u64| Json::num(v as f64);
    Json::obj(vec![
        ("solve_seconds", Json::rounded(run.solve_seconds, 6)),
        ("objective_gain", Json::num(run.objective_gain as f64)),
        ("commits", Json::num(s.commits as f64)),
        ("iterations", Json::num(s.iterations as f64)),
        ("checks", n(p.checks())),
        ("incremental_checks", n(p.incremental_checks)),
        ("full_checks", n(p.full_checks)),
        ("fallback_full", n(p.fallback_full)),
        ("edges_relaxed", n(p.edges_relaxed)),
        ("edges_relaxed_full", n(p.edges_relaxed_full)),
        ("edges_per_check", Json::rounded(p.edges_per_check(), 3)),
        ("dirty_vertices", n(p.dirty_vertices)),
        ("max_dirty", n(p.max_dirty)),
        ("check_nanos", n(p.check_nanos)),
        ("closure_nanos", n(p.closure_nanos)),
        ("closure_calls", n(p.closure_calls)),
        ("closure_arcs_touched", n(p.closure_arcs_touched)),
        ("closure_fallback_full", n(p.closure_fallback_full)),
        ("arcs_per_closure", Json::rounded(p.arcs_per_closure(), 3)),
        ("closure_warm_nanos", n(p.closure_warm_nanos)),
        ("violations_batched", n(p.violations_batched)),
        ("attribute_nanos", n(p.attribute_nanos)),
        ("commit_nanos", n(p.commit_nanos)),
        ("member_clone_bytes", n(p.member_clone_bytes)),
    ])
}

/// Renders the `--profile` per-phase breakdown of one record: wall
/// time of each solver phase (constraint checking, closure selection,
/// violation attribution, move commit) for both engines, with the
/// unattributed remainder, plus the phase-adjacent work counters. CI
/// uploads this table as an artifact and gates on the phase totals in
/// the JSON.
pub fn profile_table(r: &BenchRecord) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "profile {}", r.name);
    let _ = writeln!(
        out,
        "  {:<12} {:>16} {:>7} {:>16} {:>7}",
        "phase", "incremental", "share", "full", "share"
    );
    let row = |out: &mut String, label: &str, inc_ns: u64, full_ns: u64, r: &BenchRecord| {
        let share = |ns: u64, secs: f64| {
            if secs <= 0.0 {
                0.0
            } else {
                ns as f64 / 1e9 / secs * 100.0
            }
        };
        let _ = writeln!(
            out,
            "  {:<12} {:>13.3} ms {:>6.1}% {:>13.3} ms {:>6.1}%",
            label,
            inc_ns as f64 / 1e6,
            share(inc_ns, r.incremental.solve_seconds),
            full_ns as f64 / 1e6,
            share(full_ns, r.full.solve_seconds),
        );
    };
    let ip = &r.incremental.stats.perf;
    let fp = &r.full.stats.perf;
    row(&mut out, "check", ip.check_nanos, fp.check_nanos, r);
    row(&mut out, "closure", ip.closure_nanos, fp.closure_nanos, r);
    row(
        &mut out,
        "  warm",
        ip.closure_warm_nanos,
        fp.closure_warm_nanos,
        r,
    );
    row(
        &mut out,
        "attribute",
        ip.attribute_nanos,
        fp.attribute_nanos,
        r,
    );
    row(&mut out, "commit", ip.commit_nanos, fp.commit_nanos, r);
    let counted = |p: &minobswin::incremental::PerfCounters| {
        p.check_nanos + p.closure_nanos + p.attribute_nanos + p.commit_nanos
    };
    let other = |secs: f64, p: &minobswin::incremental::PerfCounters| {
        ((secs * 1e9) as u64).saturating_sub(counted(p))
    };
    row(
        &mut out,
        "other",
        other(r.incremental.solve_seconds, ip),
        other(r.full.solve_seconds, fp),
        r,
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>13.3} ms         {:>13.3} ms",
        "total",
        r.incremental.solve_seconds * 1e3,
        r.full.solve_seconds * 1e3,
    );
    let _ = writeln!(
        out,
        "  batched violations {}, move-set allocs {} bytes",
        ip.violations_batched, ip.member_clone_bytes,
    );
    out
}

/// Serializes the records as the `BENCH_solver.json` document.
pub fn to_json(records: &[BenchRecord]) -> String {
    let circuits = records
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::str(&r.name)),
                ("vertices", Json::num(r.vertices as f64)),
                ("edges", Json::num(r.edges as f64)),
                ("degraded", Json::Bool(r.degraded)),
                ("incremental", engine_json(&r.incremental)),
                ("full", engine_json(&r.full)),
                (
                    "edge_relaxation_ratio",
                    Json::rounded(r.edge_relaxation_ratio(), 3),
                ),
                ("closure_arc_ratio", Json::rounded(r.closure_arc_ratio(), 3)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("benchmark", Json::str("solver-constraint-engines")),
        ("version", Json::num(3.0)),
        ("circuits", Json::Arr(circuits)),
    ]);
    format!("{doc:#}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_records_are_consistent_and_serialize() {
        let instances = sample_instances();
        assert!(!instances.is_empty());
        let records: Vec<BenchRecord> = instances.iter().map(|i| measure(i).unwrap()).collect();
        let json = to_json(&records);
        assert!(json.contains("\"solver-constraint-engines\""));
        assert!(json.contains("\"edge_relaxation_ratio\""));
        assert!(json.contains("\"closure_arc_ratio\""));
        assert!(json.contains("\"closure_warm_nanos\""));
        assert!(json.contains("\"degraded\": false"));
        for r in &records {
            assert!(!r.degraded, "{}: unlimited budget cannot degrade", r.name);
            assert_eq!(r.incremental.stats.commits, r.full.stats.commits);
            assert_eq!(r.full.stats.perf.incremental_checks, 0);
            assert_eq!(
                r.incremental.stats.perf.closure_calls, r.full.stats.perf.closure_calls,
                "{}: identical trajectories make the same closure calls",
                r.name
            );
            assert_eq!(r.full.stats.perf.closure_warm_nanos, 0);
        }
    }

    #[test]
    fn budget_capped_run_is_flagged_degraded() {
        // The committed generated_10k row came from a --max-iters 2000
        // run; this drill pins the mechanism that tags such rows so CI
        // never compares a truncated run against a converged baseline.
        let instance = generated_instance(300).unwrap();
        let budget = SolveBudget::new().with_max_iterations(Some(3));
        let record = measure_with_budget(&instance, &budget).unwrap();
        assert!(record.degraded, "a 3-iteration cap must truncate the solve");
        let json = to_json(&[record]);
        assert!(json.contains("\"degraded\": true"));
    }

    #[test]
    fn warm_closure_beats_fresh_on_a_generated_circuit() {
        // Batched constraint learning collapsed the closure-call count
        // (one call now digests a whole violation batch instead of one
        // delta), so the warm engine's *per-call* advantage is far
        // smaller than the 10-35x of the one-delta-per-iteration era —
        // but it must still strictly beat a fresh rebuild per call.
        let instance = generated_instance(300).unwrap();
        let record = measure(&instance).unwrap();
        println!(
            "closure_arc_ratio = {:.2} (warm {:.0} vs fresh {:.0} arcs/call, {} calls)",
            record.closure_arc_ratio(),
            record.incremental.stats.perf.arcs_per_closure(),
            record.full.stats.perf.arcs_per_closure(),
            record.incremental.stats.perf.closure_calls,
        );
        assert!(
            record.closure_arc_ratio() >= 1.2,
            "expected the warm engine to touch >=1.2x fewer arcs per closure call, got {:.2}x",
            record.closure_arc_ratio()
        );
    }

    #[test]
    fn incremental_beats_full_on_a_generated_circuit() {
        let instance = generated_instance(300).unwrap();
        let record = measure(&instance).unwrap();
        assert!(
            record.edge_relaxation_ratio() >= 5.0,
            "expected >=5x fewer edge relaxations per check, got {:.2}x",
            record.edge_relaxation_ratio()
        );
    }

    /// An all-zero record (e.g. a solve that converged before doing any
    /// work, or a truncated run) must not poison the tracked JSON with
    /// NaN/Inf ratios: every ratio guards its zero denominator to 0.0.
    #[test]
    fn zero_denominator_ratios_are_guarded_not_nan() {
        let zero_run = || EngineRun {
            solve_seconds: 0.0,
            objective_gain: 0,
            stats: SolverStats::default(),
        };
        let record = BenchRecord {
            name: "empty".to_string(),
            vertices: 0,
            edges: 0,
            incremental: zero_run(),
            full: zero_run(),
            degraded: false,
        };
        assert_eq!(record.edge_relaxation_ratio(), 0.0);
        assert_eq!(record.closure_arc_ratio(), 0.0);
        assert_eq!(record.incremental.stats.perf.edges_per_check(), 0.0);
        assert_eq!(record.incremental.stats.perf.arcs_per_closure(), 0.0);
        let json = to_json(std::slice::from_ref(&record));
        // Rust formats non-finite floats exactly as `NaN`/`inf`/`-inf`
        // (note: a bare `nan` check would trip on field names like
        // `check_nanos`).
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        // The profile table must stay finite too (shares of a 0s solve).
        let table = profile_table(&record);
        assert!(!table.contains("NaN") && !table.contains("inf"), "{table}");
    }

    /// The writer escapes circuit names and keeps the committed
    /// baseline's key names and nesting (less the retired
    /// `closure_skips`), so CI can diff fresh output against it.
    #[test]
    fn json_escapes_names_and_keeps_the_baseline_shape() {
        let zero_run = || EngineRun {
            solve_seconds: 0.25,
            objective_gain: 3,
            stats: SolverStats::default(),
        };
        let name = "odd \"name\" \\ with\nnewline";
        let record = BenchRecord {
            name: name.to_string(),
            vertices: 4,
            edges: 5,
            incremental: zero_run(),
            full: zero_run(),
            degraded: false,
        };
        let fresh = Json::parse(&to_json(&[record])).expect("writer output parses");
        let Some(Json::Arr(rows)) = fresh.get("circuits") else {
            panic!("circuits is not an array")
        };
        assert_eq!(rows[0].get("name").and_then(Json::as_str), Some(name));

        let baseline = Json::parse(include_str!("../../../BENCH_solver.json")).unwrap();
        let mut expected = crate::json_key_paths(&baseline);
        expected.retain(|p| !p.ends_with(".closure_skips"));
        assert_eq!(crate::json_key_paths(&fresh), expected);
    }

    /// The `--profile` table lists every accounted phase for both
    /// engines plus the work counters that explain them.
    #[test]
    fn profile_table_lists_all_phases_and_counters() {
        let mut record = BenchRecord {
            name: "probe".to_string(),
            vertices: 10,
            edges: 20,
            incremental: EngineRun {
                solve_seconds: 1.0,
                objective_gain: 5,
                stats: SolverStats::default(),
            },
            full: EngineRun {
                solve_seconds: 2.0,
                objective_gain: 5,
                stats: SolverStats::default(),
            },
            degraded: false,
        };
        record.incremental.stats.perf.check_nanos = 400_000_000;
        record.incremental.stats.perf.closure_nanos = 300_000_000;
        record.incremental.stats.perf.attribute_nanos = 100_000_000;
        record.incremental.stats.perf.commit_nanos = 100_000_000;
        record.incremental.stats.perf.violations_batched = 42;
        record.incremental.stats.perf.member_clone_bytes = 4096;
        let table = profile_table(&record);
        for needle in [
            "check",
            "closure",
            "warm",
            "attribute",
            "commit",
            "other",
            "total",
            "batched violations 42",
            "move-set allocs 4096 bytes",
        ] {
            assert!(table.contains(needle), "missing {needle:?} in:\n{table}");
        }
        // 400ms of 1.0s -> 40.0% share for the incremental check phase.
        assert!(table.contains("40.0%"), "{table}");
    }
}
