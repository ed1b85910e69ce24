//! The FEAS relaxation round of Leiserson and Saxe, shared by
//! [`crate::minperiod`] and [`crate::setup_hold`], with an early
//! certificate of infeasibility.
//!
//! A round computes arrival times under the current retiming `r` and
//! raises `r(v)` by one for every vertex whose arrival exceeds the
//! bound `φ`. Left alone, an infeasible `φ` only shows as a run that
//! never converges, and the caller must wait out the `|V| + 2`
//! Bellman–Ford round bound to say so.
//!
//! The certificate stops at the first proof instead. When a round
//! raises `v`, it also points `parent[v]` at `v`'s critical-path start
//! `s(v)` ([`ArrivalScratch::start`]). The zero-weight path `p` from
//! `s(v)` to `v` has delay `D(p) > φ`, so every retiming `r*` meeting
//! `φ` must put a register on it: `r*(v) − r*(s) ≥ 1 − w(p)`. Within
//! one run of consecutive rounds `r` only rises, and that makes a cycle
//! of pointers a *positive* cycle of these constraints (the argument of
//! CLRS Lemma 24.16, spelled out in DESIGN.md §13.2.1). Summing the
//! constraints around it gives `0 > 0`, so no retiming meets `φ`. After
//! each round a stamped walk to the root, `O(|V|)` in total, looks for
//! such a cycle.
//!
//! The certificate only turns a run that would end in "infeasible"
//! into an earlier "infeasible". Every retiming FEAS returns, and so
//! every period a search settles on, is the same with it or without.

use crate::graph::{RetimeGraph, Retiming, VertexId};
use crate::timing::ArrivalScratch;

/// `parent` entry of a vertex no round has raised since the last
/// [`Feas::forget`].
const NO_PARENT: u32 = u32::MAX;

/// Largest graph (in vertices, host included) on which debug builds
/// re-run every certified probe without the certificate, at the full
/// round bound, and assert that it fails too. Larger graphs skip the
/// oracle: its cost is the `|V|`-round run the certificate avoids.
const ORACLE_MAX_VERTICES: usize = 1024;

/// Whether the debug oracle covers probes on `graph`.
pub(crate) fn oracle_applies(graph: &RetimeGraph) -> bool {
    graph.num_vertices() <= ORACLE_MAX_VERTICES
}

/// FEAS state reused across the probes of one period search: the
/// arrival scratch, the parent pointers and the work counters.
#[derive(Debug)]
pub(crate) struct Feas {
    scratch: ArrivalScratch,
    certify: bool,
    parent: Vec<u32>,
    /// Walk id that last visited each vertex; ids only grow, so a
    /// vertex visited in an earlier round never looks visited.
    stamp: Vec<u64>,
    next_stamp: u64,
    raised: Vec<VertexId>,
    rounds: u64,
    hold_repairs: u64,
    #[cfg(test)]
    proofs: u64,
}

impl Feas {
    /// FEAS state for `graph`; `certify: false` runs plain FEAS, which
    /// the oracles compare against.
    pub(crate) fn new(graph: &RetimeGraph, certify: bool) -> Self {
        let n = graph.num_vertices();
        Self {
            scratch: ArrivalScratch::new(),
            certify,
            parent: vec![NO_PARENT; if certify { n } else { 0 }],
            stamp: vec![0; if certify { n } else { 0 }],
            next_stamp: 1,
            raised: Vec::new(),
            rounds: 0,
            hold_repairs: 0,
            #[cfg(test)]
            proofs: 0,
        }
    }

    /// Runs the arrival pass under `r` and returns the clock period, or
    /// `None` when `r` leaves a zero-weight cycle.
    pub(crate) fn period(&mut self, graph: &RetimeGraph, r: &Retiming) -> Option<i64> {
        self.scratch.compute(graph, r)
    }

    /// The topological order of the last arrival pass.
    pub(crate) fn order(&self) -> &[VertexId] {
        self.scratch.order()
    }

    /// One FEAS round after [`Feas::period`]: raises `r(v)` by one for
    /// every vertex whose arrival exceeds `bound`. Returns `true` when
    /// the parent pointers now prove that no retiming meets `bound`.
    pub(crate) fn raise(&mut self, graph: &RetimeGraph, r: &mut Retiming, bound: i64) -> bool {
        self.rounds += 1;
        self.raised.clear();
        for v in graph.vertices() {
            if self.scratch.arrival(v) > bound {
                r.add(v, 1);
                if self.certify {
                    self.parent[v.index()] = self.scratch.start(v).index() as u32;
                    self.raised.push(v);
                }
            }
        }
        let proved = self.certify && self.parent_cycle();
        #[cfg(test)]
        {
            self.proofs += u64::from(proved);
        }
        proved
    }

    /// Drops every parent pointer. Call before `r` changes by anything
    /// other than a FEAS round (a new probe, a hold repair): the cycle
    /// argument needs `r` to only rise while a pointer lives.
    pub(crate) fn forget(&mut self) {
        self.parent.fill(NO_PARENT);
    }

    /// Records a hold repair, which ends the run of consecutive FEAS
    /// rounds and may lower `r`: the pointers of that run go.
    pub(crate) fn hold_repair(&mut self) {
        self.hold_repairs += 1;
        self.forget();
    }

    /// Total FEAS rounds run.
    pub(crate) fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total hold repairs recorded.
    pub(crate) fn hold_repairs(&self) -> u64 {
        self.hold_repairs
    }

    /// How many probes the certificate ended.
    #[cfg(test)]
    pub(crate) fn proofs(&self) -> u64 {
        self.proofs
    }

    /// Walks to the root from every vertex raised this round. Any new
    /// cycle runs through a pointer set this round, so these walks find
    /// it; a walk stops at a vertex an earlier walk of the round
    /// already cleared, so the round costs `O(|V|)`.
    fn parent_cycle(&mut self) -> bool {
        let round_base = self.next_stamp;
        for &v in &self.raised {
            let walk = self.next_stamp;
            self.next_stamp += 1;
            let mut u = v.index();
            loop {
                let seen = self.stamp[u];
                if seen == walk {
                    return true;
                }
                if seen >= round_base {
                    break;
                }
                self.stamp[u] = walk;
                match self.parent[u] {
                    NO_PARENT => break,
                    p => u = p as usize,
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minperiod::{self, min_period_with};
    use crate::setup_hold::{feasible_setup_hold_capped, min_period_setup_hold_with};
    use netlist::generator::GeneratorConfig;
    use netlist::{samples, DelayModel};
    use proptest::prelude::*;

    fn delays(unit: bool) -> DelayModel {
        if unit {
            DelayModel::unit()
        } else {
            DelayModel::default()
        }
    }

    /// A generated circuit with its registers scattered by a random
    /// legal retiming, so that FEAS has registers to move back: most
    /// generated circuits already run at their minimum period, where
    /// every probe below it is infeasible and every probe above it
    /// needs no round at all.
    fn scattered(seed: u64, gates: usize, registers: usize, unit: bool) -> RetimeGraph {
        let circuit = GeneratorConfig::new("feas", seed)
            .gates(gates)
            .registers(registers)
            .build();
        let graph = RetimeGraph::from_circuit(&circuit, &delays(unit)).unwrap();
        let mut r = Retiming::zero(&graph);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let n = graph.num_vertices() as u64;
        for _ in 0..4 * n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = VertexId::new(1 + (state % (n - 1)) as usize);
            let step = if state & (1 << 40) == 0 { 1 } else { -1 };
            r.add(v, step);
            if graph.check_nonnegative(&r).is_err() {
                r.add(v, -step);
            }
        }
        let moved = crate::apply::apply_retiming(&circuit, &graph, &r).unwrap();
        RetimeGraph::from_circuit(&moved, &delays(unit)).unwrap()
    }

    /// Per-probe outcome of the certified run.
    struct Probe {
        result: Option<Retiming>,
        proved: bool,
        hold_repairs: u64,
    }

    fn certified<F>(graph: &RetimeGraph, run: F) -> Probe
    where
        F: FnOnce(&mut Feas) -> Option<Retiming>,
    {
        let mut feas = Feas::new(graph, true);
        let result = run(&mut feas);
        Probe {
            result,
            proved: feas.proofs() > 0,
            hold_repairs: feas.hold_repairs(),
        }
    }

    /// Checks one setup/hold probe against plain FEAS; returns the
    /// certified outcome.
    fn check_setup_hold(graph: &RetimeGraph, phi: i64, t_hold: i64, cap: usize) -> Probe {
        let full_cap = graph.num_vertices() + 2;
        let run =
            |feas: &mut Feas, cap| feasible_setup_hold_capped(graph, phi, 0, t_hold, cap, feas);
        let on = certified(graph, |feas| run(feas, cap));
        let off = run(&mut Feas::new(graph, false), cap);
        assert_eq!(
            on.result, off,
            "setup/hold phi {phi} hold {t_hold} cap {cap}"
        );
        if on.proved {
            assert!(
                run(&mut Feas::new(graph, false), full_cap).is_none(),
                "certificate refuted phi {phi} hold {t_hold}, which plain FEAS meets at the full cap"
            );
        }
        on
    }

    /// The periods a test sweeps: far below the slowest gate, just
    /// below it, a window around the minimum period `best`, and feasible
    /// periods between `best` and the unretimed period, which FEAS must
    /// move registers to meet.
    fn sweep(graph: &RetimeGraph, best: i64) -> Vec<i64> {
        let max_delay = graph.vertices().map(|v| graph.delay(v)).max().unwrap_or(0);
        let current = crate::timing::clock_period(graph, &Retiming::zero(graph)).unwrap();
        let mut phis: Vec<i64> = [1, max_delay - 1, (best + current) / 2, current - 1]
            .into_iter()
            .chain(best - 3..=best + 1)
            .filter(|&phi| phi >= 0)
            .collect();
        phis.sort_unstable();
        phis.dedup();
        phis
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The certificate against plain FEAS on generated graphs, for
        /// both FEAS loops: every answer is identical with it on and
        /// off, and every probe it ends also fails at the full round
        /// bound without it. The periods swept reach below the slowest
        /// gate, and hold times above zero put hold repairs between
        /// runs of setup rounds.
        #[test]
        fn certificate_agrees_with_full_cap_feas(
            seed in 0u64..1_000,
            gates in 16usize..64,
            registers in 3usize..16,
            unit in 0u8..2,
            t_hold in 0i64..5,
        ) {
            let graph = scattered(seed, gates, registers, unit == 1);
            let n = graph.num_vertices();

            let mut on = Feas::new(&graph, true);
            let mut off = Feas::new(&graph, false);
            let best = min_period_with(&graph, &mut on).unwrap();
            let plain = min_period_with(&graph, &mut off).unwrap();
            prop_assert_eq!((best.phi, &best.retiming), (plain.phi, &plain.retiming));
            prop_assert!(best.feas_rounds <= plain.feas_rounds);

            for phi in sweep(&graph, best.phi) {
                let on = certified(&graph, |feas| minperiod::probe(&graph, phi, feas));
                let off = minperiod::probe(&graph, phi, &mut Feas::new(&graph, false));
                prop_assert_eq!(&on.result, &off, "min-period phi {}", phi);
                prop_assert!(!on.proved || off.is_none());
                if phi < best.phi {
                    prop_assert!(on.result.is_none(), "phi {} beats the minimum {}", phi, best.phi);
                }
                for cap in [64.min(n + 2), n + 2] {
                    check_setup_hold(&graph, phi, t_hold, cap);
                }
            }

            let mut on = Feas::new(&graph, true);
            let mut off = Feas::new(&graph, false);
            prop_assert_eq!(
                min_period_setup_hold_with(&graph, 0, t_hold, &mut on),
                min_period_setup_hold_with(&graph, 0, t_hold, &mut off)
            );
            prop_assert!(on.rounds() <= off.rounds());
        }
    }

    #[test]
    fn a_gate_slower_than_the_period_is_its_own_cycle() {
        // Unit delays: no retiming beats one gate's delay. The slowest
        // gate's critical path starts at itself, so the first round
        // closes a self-loop.
        let graph =
            RetimeGraph::from_circuit(&samples::pipeline(6, 6), &DelayModel::unit()).unwrap();
        let mut feas = Feas::new(&graph, true);
        assert!(minperiod::probe(&graph, 0, &mut feas).is_none());
        assert_eq!((feas.rounds(), feas.proofs()), (1, 1));
    }

    #[test]
    fn a_loop_below_its_period_is_refuted_long_before_the_round_bound() {
        // One register on a 6-gate loop: period 5 is infeasible. Plain
        // FEAS spins for |V| rounds; the certificate closes the loop of
        // critical-path starts within a few laps.
        let graph =
            RetimeGraph::from_circuit(&samples::pipeline(6, 6), &DelayModel::unit()).unwrap();
        let mut on = Feas::new(&graph, true);
        let mut off = Feas::new(&graph, false);
        assert!(minperiod::probe(&graph, 5, &mut on).is_none());
        assert!(minperiod::probe(&graph, 5, &mut off).is_none());
        assert_eq!(on.proofs(), 1);
        assert_eq!(off.rounds(), graph.num_vertices() as u64);
        assert!(
            on.rounds() < off.rounds(),
            "{} vs {}",
            on.rounds(),
            off.rounds()
        );
        // Feasible probes never fire it.
        let mut on = Feas::new(&graph, true);
        assert!(minperiod::probe(&graph, 6, &mut on).is_some());
        assert_eq!(on.proofs(), 0);
    }

    #[test]
    fn sweep_exercises_proofs_in_both_loops_and_hold_repairs() {
        // Coverage for the property above: over a fixed sweep, the
        // certificate ends min-period and setup/hold probes, feasible
        // probes make FEAS move registers, and some compared setup/hold
        // probes go through hold repairs. (A proof right after a repair
        // is rare: a repair needs a run that met the period, and a
        // period FEAS can meet is never refuted.)
        let (mut min_period_proofs, mut setup_hold_proofs) = (0, 0);
        let (mut moved, mut repaired) = (0, 0);
        for seed in 0..6 {
            let graph = scattered(seed, 40, 10, seed % 2 == 0);
            let best = crate::minperiod::min_period(&graph).unwrap();
            for phi in sweep(&graph, best.phi) {
                let mut feas = Feas::new(&graph, true);
                let found = minperiod::probe(&graph, phi, &mut feas);
                min_period_proofs += feas.proofs();
                moved += u64::from(found.is_some() && feas.rounds() > 0);
                for t_hold in [2, 4] {
                    let probe = check_setup_hold(&graph, phi, t_hold, graph.num_vertices() + 2);
                    setup_hold_proofs += u64::from(probe.proved);
                    repaired += u64::from(probe.hold_repairs > 0);
                }
            }
        }
        assert!(min_period_proofs > 0);
        assert!(setup_hold_proofs > 0);
        assert!(moved > 0, "no feasible probe moved a register");
        assert!(repaired > 0, "no compared probe made a hold repair");
    }
}
