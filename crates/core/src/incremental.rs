//! The incremental constraint-checking engine behind the solver's
//! inner loop.
//!
//! Algorithm 1 checks a tentative retiming `r′` once per improvement
//! round, and the from-scratch checker ([`crate::verify::find_violation`])
//! pays `O(|V| + |E|)` per check even though each round only moves
//! registers across a small closed set. The [`IncrementalChecker`]
//! instead keeps the last *committed* retiming (the **base**, always
//! feasible) together with its `L`/`R` labels, and on each check:
//!
//! 1. scans **P0** only over edges incident to the move set — an edge
//!    with both endpoint deltas equal keeps its base weight, which is
//!    non-negative because the base is feasible;
//! 2. computes the **dirty cone** — the backward closure of the
//!    weight-changed edges' tails along edges combinational under
//!    either retiming ([`retime::timing::DirtyCone`]) — and re-relaxes
//!    only those labels in place ([`retime::LrLabels::relax_region`]);
//!    every label outside the cone is provably unchanged;
//! 3. checks **P2** on the candidate edges (move-incident ∪ in-edges
//!    of cone members) and **P1** on the cone members, under the same
//!    canonical minimum-id / minimum-index rules the from-scratch
//!    scans use, so the two engines are **bit-identical**;
//! 4. rolls the labels back on a violation, or rebases on the
//!    tentative retiming when it is feasible.
//!
//! When the cone exceeds a configurable fraction of `|V|`
//! ([`crate::algorithm::SolverConfig::max_dirty_percent`]) the checker
//! falls back to a full recompute — the bookkeeping would cost more
//! than it saves. Both paths feed the [`PerfCounters`] surfaced in
//! [`crate::algorithm::SolverStats`] and dumped by
//! `retimer bench-solve`.
//!
//! Why the candidate sets are complete (the correctness core):
//!
//! * a **P1** violation is a vertex with negative slack; the base has
//!   none, so a violating vertex's `L` label changed, which puts it in
//!   the cone;
//! * a **P2** violation lives on a registered edge; either the edge's
//!   weight changed (it is move-incident) or its head's `R` label
//!   changed (the head is in the cone, so the edge is an in-edge of a
//!   cone member);
//! * a **P0** violation needs a weight change, so the edge is
//!   move-incident.
//!
//! Because the relaxed labels are bit-identical to a full recompute
//! everywhere (not just inside the cone), checking *extra* candidate
//! edges/vertices is harmless — only a missing candidate could break
//! equivalence, and a `debug_assertions` differential oracle in
//! [`crate::algorithm`] plus the proptest suite in
//! `tests/properties.rs` guard exactly that.

use retime::timing::{zero_weight_topo, DirtyCone};
use retime::{EdgeId, ElwParams, LrLabels, RetimeGraph, Retiming, VertexId};

use crate::problem::Problem;
use crate::verify::Violation;

/// Cheap counters describing the constraint-checking work of a solver
/// run (surfaced as [`crate::algorithm::SolverStats::perf`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Checks answered by dirty-region relaxation.
    pub incremental_checks: u64,
    /// Checks answered by a full from-scratch recompute (incremental
    /// checking disabled, or the dirty cone exceeded the cap).
    pub full_checks: u64,
    /// Checks that *fell back* from incremental to full because the
    /// dirty cone exceeded `max_dirty_percent` (a subset of
    /// `full_checks`).
    pub fallback_full: u64,
    /// Edges relaxed by incremental dirty-region passes.
    pub edges_relaxed: u64,
    /// Edges relaxed by full recomputes (`|E|` per full check).
    pub edges_relaxed_full: u64,
    /// Total dirty-cone vertices over all incremental checks.
    pub dirty_vertices: u64,
    /// Largest dirty cone seen.
    pub max_dirty: u64,
    /// Nanoseconds spent checking constraints (either engine).
    pub check_nanos: u64,
    /// Nanoseconds spent selecting max-gain closed sets.
    pub closure_nanos: u64,
    /// Closure selections performed (either closure engine).
    pub closure_calls: u64,
    /// Arcs examined by the closure engine (network construction,
    /// search-tree growth, augmentation and adoption or BFS/DFS phases,
    /// flow repair and cut extraction) — one per arc examined in both
    /// the from-scratch and warm-started engines, so the reuse ratio
    /// is directly comparable.
    pub closure_arcs_touched: u64,
    /// Warm-engine selections that fell back to a fresh network build
    /// because the delta batch dirtied more vertices than its
    /// `rebuild_percent` threshold allows.
    pub closure_fallback_full: u64,
    /// Nanoseconds the warm engine spent inside
    /// [`crate::closure_inc::IncrementalClosure::select`] (a subset of
    /// `closure_nanos`; 0 under the from-scratch engine).
    pub closure_warm_nanos: u64,
    /// Sampled divergence audits performed by the supervisor (each
    /// re-runs the from-scratch engine and compares bit-for-bit; see
    /// [`crate::supervisor`]).
    pub audit_checks: u64,
    /// Circuit-breaker trips across both incremental engines (panic or
    /// audited divergence; at most one per engine per solve, plus one
    /// for a full-restart verification failure).
    pub breaker_trips: u64,
    /// No longer incremented: the warm closure engine's
    /// provably-unchanged-cut skip, which it counted, never fired on
    /// any benchmark and was removed. Always 0; kept only so existing
    /// readers of the counter still compile.
    pub closure_skips: u64,
    /// Violations learned by batched attribution (every violation of a
    /// tentative move is attributed in one pass instead of
    /// rediscovering them one closure re-solve at a time).
    pub violations_batched: u64,
    /// Nanoseconds spent attributing violations and applying the
    /// resulting constraint requests (the learning phase).
    pub attribute_nanos: u64,
    /// Nanoseconds spent committing violation-free tentative moves.
    pub commit_nanos: u64,
    /// Bytes allocated cloning cached closure member lists — the one
    /// per-iteration allocation of the solver loop (the move-set alloc
    /// counter of the `--profile` breakdown).
    pub member_clone_bytes: u64,
}

impl PerfCounters {
    /// Total constraint checks performed.
    pub fn checks(&self) -> u64 {
        self.incremental_checks + self.full_checks
    }

    /// Mean edges relaxed per check, over both engines.
    pub fn edges_per_check(&self) -> f64 {
        let checks = self.checks();
        if checks == 0 {
            return 0.0;
        }
        (self.edges_relaxed + self.edges_relaxed_full) as f64 / checks as f64
    }

    /// Mean arcs touched per closure selection.
    pub fn arcs_per_closure(&self) -> f64 {
        if self.closure_calls == 0 {
            return 0.0;
        }
        self.closure_arcs_touched as f64 / self.closure_calls as f64
    }
}

/// The incremental constraint checker (see the module docs for the
/// algorithm and its correctness argument).
///
/// The base retiming **must be feasible** for the instance; the
/// checker preserves that invariant by only rebasing on tentative
/// retimings it proved violation-free.
pub struct IncrementalChecker<'g> {
    graph: &'g RetimeGraph,
    params: ElwParams,
    r_min: i64,
    base: Retiming,
    labels: LrLabels,
    cone: DirtyCone,
    seeds: Vec<VertexId>,
    cap: usize,
    /// Reused candidate-edge scratch of the batched P2 scan.
    cand_edges: Vec<EdgeId>,
    /// Reused ascending-id cone-member scratch of the batched P1 scan.
    sorted_cone: Vec<VertexId>,
}

impl<'g> IncrementalChecker<'g> {
    /// Creates a checker over a **feasible** base retiming.
    /// `max_dirty_percent` caps the dirty cone at that percentage of
    /// `|V|` before falling back to full recomputes.
    ///
    /// # Panics
    ///
    /// Panics if `base` leaves a zero-weight cycle (impossible for a
    /// feasible base: P0-clean retimings cannot create one, as cycle
    /// weight is retiming-invariant).
    pub fn new(
        graph: &'g RetimeGraph,
        problem: &Problem,
        base: Retiming,
        max_dirty_percent: u32,
    ) -> Self {
        let labels = LrLabels::compute(graph, &base, problem.params)
            .expect("the incremental checker's base retiming must be feasible");
        let cap = graph
            .num_vertices()
            .saturating_mul(max_dirty_percent as usize)
            / 100;
        Self {
            graph,
            params: problem.params,
            r_min: problem.r_min,
            base,
            labels,
            cone: DirtyCone::new(),
            seeds: Vec::new(),
            cap,
            cand_edges: Vec::new(),
            sorted_cone: Vec::new(),
        }
    }

    /// The current base retiming (the last committed state).
    pub fn base(&self) -> &Retiming {
        &self.base
    }

    /// The labels of the current base (kept bit-identical to
    /// `LrLabels::compute(graph, base, params)`).
    pub fn labels(&self) -> &LrLabels {
        &self.labels
    }

    /// Checks `r_tent` — which may differ from the base only on
    /// `move_set` — and returns exactly the violation
    /// [`crate::verify::find_violation`] would return, or `None`.
    ///
    /// On `None` the checker **rebases** on `r_tent` (the caller is
    /// committing it); on a violation all internal state is rolled
    /// back to the base.
    pub fn check_and_commit(
        &mut self,
        r_tent: &Retiming,
        move_set: &[VertexId],
        counters: &mut PerfCounters,
    ) -> Option<Violation> {
        self.check_all_and_commit(r_tent, move_set, counters)
            .into_iter()
            .next()
    }

    /// Checks `r_tent` and returns **every** violation in the canonical
    /// order of [`crate::verify::find_violations`] (all P0 by ascending
    /// edge id, else all P2 by ascending edge id then all P1 by
    /// ascending vertex id). An empty vector means feasible, and the
    /// checker rebases on `r_tent`; otherwise all internal state is
    /// rolled back to the base.
    ///
    /// The candidate sets of the incremental path are complete for the
    /// *whole* violation list, not just the first one (the module-docs
    /// argument never used minimality: any P0 violation is
    /// move-incident, any P2 violation is move-incident or an in-edge
    /// of a cone member, any P1 violation is a cone member), so the
    /// batch is bit-identical to the from-scratch enumeration.
    pub fn check_all_and_commit(
        &mut self,
        r_tent: &Retiming,
        move_set: &[VertexId],
        counters: &mut PerfCounters,
    ) -> Vec<Violation> {
        let graph = self.graph;
        // P0: only move-incident edges can change weight. Collect every
        // negative edge, deduped (an edge with both endpoints in the
        // move set is visited twice) and in ascending id order.
        self.cand_edges.clear();
        for &v in move_set {
            for &e in graph.out_edges(v).iter().chain(graph.in_edges(v)) {
                if graph.retimed_weight(e, r_tent) < 0 {
                    self.cand_edges.push(e);
                }
            }
        }
        if !self.cand_edges.is_empty() {
            // A move-incident edge scan is incremental work: no labels
            // were touched, but the check was answered without a full
            // recompute.
            counters.incremental_checks += 1;
            self.cand_edges.sort_unstable();
            self.cand_edges.dedup();
            return self
                .cand_edges
                .iter()
                .map(|&edge| Violation::P0 {
                    edge,
                    weight: graph.retimed_weight(edge, r_tent),
                })
                .collect();
        }

        // Seeds: the tails of every weight-changed edge. A changed edge
        // has endpoint deltas that differ, so it is move-incident and
        // this scan sees it.
        self.seeds.clear();
        let delta = |v: VertexId| r_tent.get(v) - self.base.get(v);
        for &v in move_set {
            let dv = delta(v);
            if graph
                .out_edges(v)
                .iter()
                .any(|&e| delta(graph.edge(e).to) != dv)
            {
                self.seeds.push(v);
            }
            for &e in graph.in_edges(v) {
                let u = graph.edge(e).from;
                if delta(u) != dv {
                    self.seeds.push(u);
                }
            }
        }

        let mut fallback = false;
        let mut verdicts: Vec<Violation> = Vec::new();
        match self
            .cone
            .compute(graph, &self.base, r_tent, &self.seeds, self.cap)
        {
            None => fallback = true,
            Some(ordered) => {
                counters.incremental_checks += 1;
                counters.dirty_vertices += ordered.len() as u64;
                counters.max_dirty = counters.max_dirty.max(ordered.len() as u64);
                let snapshot = self.labels.snapshot(ordered);
                counters.edges_relaxed += self.labels.relax_region(graph, r_tent, ordered);
                // The labels are now globally bit-identical to a full
                // recompute under r_tent, so checking a candidate that
                // cannot violate is merely redundant, never wrong.
                //
                // P2 candidates: in-edges of cone members ∪ move-incident
                // edges, deduped into ascending id order so the batch
                // matches the from-scratch enumeration order.
                self.cand_edges.clear();
                for &u in ordered {
                    self.cand_edges.extend_from_slice(graph.in_edges(u));
                }
                for &v in move_set {
                    self.cand_edges.extend_from_slice(graph.out_edges(v));
                    self.cand_edges.extend_from_slice(graph.in_edges(v));
                }
                self.cand_edges.sort_unstable();
                self.cand_edges.dedup();
                for &e in &self.cand_edges {
                    if let Some(v) = self.labels.p2_violation_at(graph, r_tent, self.r_min, e) {
                        verdicts.push(Violation::P2(v));
                    }
                }
                // P1 candidates: the cone members, in ascending id order.
                self.sorted_cone.clear();
                self.sorted_cone.extend_from_slice(ordered);
                self.sorted_cone.sort_unstable();
                for &u in &self.sorted_cone {
                    if let Some(v) = self.labels.p1_violation_at(graph, r_tent, u) {
                        verdicts.push(Violation::P1(v));
                    }
                }
                if verdicts.is_empty() {
                    self.base.clone_from(r_tent);
                } else {
                    self.labels.restore(&snapshot);
                }
            }
        }
        if fallback {
            counters.fallback_full += 1;
            return self.full_check_all(r_tent, counters);
        }
        verdicts
    }

    /// The full-recompute path: fresh labels under `r_tent`, canonical
    /// P2 then P1 scans over everything. Rebases when no violation is
    /// found. P0 must already have been checked by the caller (every
    /// changed edge is move-incident).
    fn full_check_all(&mut self, r_tent: &Retiming, counters: &mut PerfCounters) -> Vec<Violation> {
        counters.full_checks += 1;
        counters.edges_relaxed_full += self.graph.num_edges() as u64;
        let order = zero_weight_topo(self.graph, r_tent).expect(
            "P0-clean retimings of circuit graphs cannot create zero-weight cycles \
             (cycle weight is retiming-invariant)",
        );
        let labels = LrLabels::compute_with_order(self.graph, r_tent, self.params, &order);
        let mut verdicts = Vec::new();
        for i in 0..self.graph.num_edges() {
            let e = EdgeId::new(i);
            if let Some(v) = labels.p2_violation_at(self.graph, r_tent, self.r_min, e) {
                verdicts.push(Violation::P2(v));
            }
        }
        for v in self.graph.vertices() {
            if let Some(p1) = labels.p1_violation_at(self.graph, r_tent, v) {
                verdicts.push(Violation::P1(p1));
            }
        }
        if verdicts.is_empty() {
            self.labels = labels;
            self.base.clone_from(r_tent);
        }
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::find_violation;
    use netlist::{samples, DelayModel};
    use retime::ElwParams as Params;

    fn instance(phi: i64, r_min: i64) -> (netlist::Circuit, RetimeGraph, Problem) {
        let c = samples::pipeline(9, 3);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let counts = vec![1i64; g.num_vertices()];
        let p = Problem::from_observability_counts(&g, &counts, Params::with_phi(phi), r_min);
        (c, g, p)
    }

    /// Drives the checker through a scripted sequence of single-vertex
    /// moves and asserts verdict + label bit-identity against the
    /// from-scratch oracle at every step.
    fn differential_drive(phi: i64, r_min: i64, moves: &[(&str, i64)], max_dirty_percent: u32) {
        let (c, g, p) = instance(phi, r_min);
        let base = Retiming::zero(&g);
        assert!(
            find_violation(&g, &p, &base).is_none(),
            "base must be feasible"
        );
        let mut checker = IncrementalChecker::new(&g, &p, base.clone(), max_dirty_percent);
        let mut committed = base;
        let mut counters = PerfCounters::default();
        for &(name, amount) in moves {
            let v = g.vertex_of(c.find(name).unwrap()).unwrap();
            let mut r_tent = committed.clone();
            r_tent.add(v, amount);
            let expected = find_violation(&g, &p, &r_tent);
            let got = checker.check_and_commit(&r_tent, &[v], &mut counters);
            assert_eq!(got, expected, "move {name}{amount:+}");
            if got.is_none() {
                committed = r_tent;
            }
            assert_eq!(checker.base(), &committed);
            let oracle = LrLabels::compute(&g, &committed, p.params).unwrap();
            assert_eq!(
                checker.labels(),
                &oracle,
                "labels diverged after {name}{amount:+}"
            );
        }
    }

    #[test]
    fn scripted_moves_match_oracle_incremental() {
        // Mix of feasible moves, a P0 (negative edge), a P1 (overlong
        // path) and a P2 (short path) rejection.
        let moves = [
            ("s2", 1),  // register moved backward over s2: feasible
            ("s1", -2), // edge (s1, s2) goes negative: P0
            ("s5", 1),  // feasible
            ("s4", 1),  // chains segment: may violate or not; oracle decides
            ("s0", 1),
            ("s3", 1),
            ("s2", -1),
        ];
        differential_drive(10, 1, &moves, 100);
        // Tight r_min: the same moves now trip P2.
        differential_drive(10, 3, &moves, 100);
        // phi = 4 tightens P1.
        differential_drive(4, 1, &moves, 100);
    }

    #[test]
    fn scripted_moves_match_oracle_fallback_path() {
        // max_dirty_percent = 0 forces the full-recompute fallback on
        // every check; verdicts and labels must be unchanged.
        let moves = [("s2", 1), ("s1", -2), ("s5", 1), ("s4", 1), ("s0", 1)];
        differential_drive(10, 1, &moves, 0);
        differential_drive(10, 3, &moves, 0);
    }

    #[test]
    fn counters_track_engine_choice() {
        let (c, g, p) = instance(10, 1);
        let v = g.vertex_of(c.find("s2").unwrap()).unwrap();
        let mut r_tent = Retiming::zero(&g);
        r_tent.add(v, 1);

        let mut counters = PerfCounters::default();
        let mut inc = IncrementalChecker::new(&g, &p, Retiming::zero(&g), 100);
        assert!(inc.check_and_commit(&r_tent, &[v], &mut counters).is_none());
        assert_eq!(counters.incremental_checks, 1);
        assert_eq!(counters.full_checks, 0);
        assert!(counters.edges_relaxed > 0);
        assert!(counters.max_dirty >= 1);

        let mut counters = PerfCounters::default();
        let mut full = IncrementalChecker::new(&g, &p, Retiming::zero(&g), 0);
        assert!(full
            .check_and_commit(&r_tent, &[v], &mut counters)
            .is_none());
        assert_eq!(counters.incremental_checks, 0);
        assert_eq!(counters.full_checks, 1);
        assert_eq!(counters.fallback_full, 1);
        assert_eq!(counters.edges_relaxed_full, g.num_edges() as u64);
    }

    #[test]
    fn incremental_relaxes_fewer_edges_than_full() {
        let (c, g, p) = instance(10, 1);
        let v = g.vertex_of(c.find("s2").unwrap()).unwrap();
        let mut r_tent = Retiming::zero(&g);
        r_tent.add(v, 1);
        let mut counters = PerfCounters::default();
        let mut inc = IncrementalChecker::new(&g, &p, Retiming::zero(&g), 100);
        inc.check_and_commit(&r_tent, &[v], &mut counters);
        assert!(
            counters.edges_relaxed < g.num_edges() as u64,
            "dirty region must beat |E| = {} (relaxed {})",
            g.num_edges(),
            counters.edges_relaxed
        );
    }
}
