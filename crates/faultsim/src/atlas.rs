//! Campaign precomputation: the *fault atlas*.
//!
//! A Monte-Carlo campaign draws millions of `(site, vector, arrival,
//! width)` tuples, but the logic-propagation outcome of a flip depends
//! only on `(site, vector)` — and the bit-parallel simulation already
//! evaluates all `K` vectors of a site at once. The atlas therefore
//! propagates a flip of each distinct injection node once up front (one
//! faulty `n`-frame window per node, the injection model of
//! [`ser_engine::odc::exact_fault_injection`]), and the per-injection
//! hot loop reduces to two table lookups and an interval test.
//!
//! # Difference propagation
//!
//! A flip can only change gates in its fan-out cone across the unrolled
//! frames, so the atlas never resimulates the whole circuit. Each build
//! worker owns one flat `gates × words` buffer of difference rows
//! (faulty ⊕ nominal, all `K` vectors) and reuses it for every node it
//! propagates; only the rows a node touched are cleared afterwards.
//! Nominal values are read straight from the [`FrameTrace`].
//!
//! * **Within a frame**, gates are evaluated in topological order, and
//!   only those with a nonzero fanin difference (plus the struck node
//!   in frame 0). A gate whose difference comes out zero is logically
//!   masked and wakes none of its fanouts.
//! * **At a frame boundary**, each register takes its `D` input's
//!   difference from the frame just finished, and every other row is
//!   cleared. If no register differs, no later frame can differ either,
//!   so the node is done early.
//! * **Outputs** are the same tables a full resimulation gives:
//!   `po_detect` ORs the output markers' differences over all frames,
//!   `reg_corrupt` holds each register's last-frame `D` difference, and
//!   `detected` is their union. A struck primary input keeps its flip
//!   for frame 0 only, like every other node.
//!
//! [`FaultAtlas::gate_evaluations`] counts the gates evaluated, a
//! deterministic work counter. On the 1k-gate fixture recipe at the
//! default `K = 2048` and 15 frames it is 14% of the
//! `nodes × frames × |topo order|` evaluations a full resimulation
//! spends. The unit tests keep the full resimulation as a reference and
//! check that both agree bit for bit.
//!
//! The atlas is immutable after construction and shared by reference
//! across campaign workers.

use netlist::rng::Xoshiro256;
use netlist::{Circuit, GateId, GateKind};
use retime::{RetimeGraph, Retiming};
use ser_engine::elw::compute_elws;
use ser_engine::sim::FrameTrace;
use ser_engine::{register_driver, IntervalSet, SerConfig, Signature};

/// One strike site of the campaign: a gate (or register) with a
/// positive raw rate.
#[derive(Debug, Clone)]
pub struct Site {
    /// The struck gate (combinational gate or register).
    pub gate: GateId,
    /// The node whose output the transient is injected at. For
    /// combinational gates this is the gate itself; for registers it is
    /// the driving combinational gate (registers are wires in the
    /// time-frame expansion — same convention as [`ser_engine::analyze`]).
    pub node: GateId,
    /// The raw SEU rate `err(gate)` used as the site's sampling weight.
    pub rate: f64,
    /// Index into the atlas's dense node-table array.
    pub(crate) table: usize,
}

/// Per-injection-node propagation tables.
#[derive(Debug, Clone)]
pub(crate) struct NodeTables {
    /// Bit `k` set ⟺ flipping the node in frame 0 of vector `k` is
    /// visible at a primary output of any frame or at a register input
    /// of the last frame (the paper's observation points).
    pub detected: Signature,
    /// Per register (slot order of [`Circuit::registers`]): bit `k` set
    /// ⟺ that register's last-frame `D` input is corrupted.
    pub reg_corrupt: Vec<Signature>,
    /// Bit `k` set ⟺ some primary output of some frame differs.
    pub po_detect: Signature,
    /// The node's exact error-latching window (for a register site,
    /// its driver's window).
    pub elw: IntervalSet,
}

/// Immutable precomputed campaign state: strike sites with cumulative
/// sampling weights plus per-node propagation tables.
#[derive(Debug, Clone)]
pub struct FaultAtlas {
    phi: i64,
    num_vectors: usize,
    total_rate: f64,
    sites: Vec<Site>,
    /// `cumulative[i]` = Σ rate of sites `0..=i` (for weighted sampling).
    cumulative: Vec<f64>,
    tables: Vec<NodeTables>,
    /// Gate index → table index of the gate's effective node, for every
    /// gate that is a site or an effective node.
    table_of_gate: Vec<Option<usize>>,
    registers: Vec<GateId>,
    gate_evaluations: u64,
}

impl FaultAtlas {
    /// Precomputes the atlas for `circuit` under `config`, using up to
    /// `workers` threads for the per-node propagations (`0` means one
    /// thread per available core). The result is identical for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Returns [`retime::RetimeError`] if the circuit cannot be modeled
    /// as a retiming graph (register-only loops), as in
    /// [`ser_engine::analyze`].
    pub fn build(
        circuit: &Circuit,
        config: &SerConfig,
        workers: usize,
    ) -> Result<Self, retime::RetimeError> {
        let trace = FrameTrace::simulate(circuit, config.sim);
        let graph = RetimeGraph::from_circuit(circuit, &config.delays)?;
        let vertex_elws = compute_elws(&graph, &Retiming::zero(&graph), config.elw)?;

        // Strike sites: every gate with a positive raw rate.
        let mut sites = Vec::new();
        let mut node_ids: Vec<GateId> = Vec::new();
        let mut table_of_gate: Vec<Option<usize>> = vec![None; circuit.len()];
        for (id, gate) in circuit.iter() {
            let rate = config.rates.rate(circuit, id);
            if rate <= 0.0 {
                continue;
            }
            let node = if gate.kind() == GateKind::Dff {
                register_driver(circuit, id)
            } else {
                id
            };
            let table = match table_of_gate[node.index()] {
                Some(t) => t,
                None => {
                    let t = node_ids.len();
                    node_ids.push(node);
                    table_of_gate[node.index()] = Some(t);
                    t
                }
            };
            table_of_gate[id.index()] = Some(table);
            sites.push(Site {
                gate: id,
                node,
                rate,
                table,
            });
        }

        // Per-node difference propagations, fanned out across workers.
        // Each node is independent, so any split is bit-identical.
        let topo_pos = topo_positions(circuit);
        let worker_count = netlist::parallel::resolve_workers_for(workers, node_ids.len());
        let (mut tables, gate_evaluations) = if worker_count <= 1 || node_ids.len() <= 1 {
            propagate_nodes(circuit, &trace, &topo_pos, &node_ids)
        } else {
            let chunk = node_ids.len().div_ceil(worker_count);
            let (trace, topo_pos) = (&trace, &topo_pos);
            std::thread::scope(|scope| {
                let handles: Vec<_> = node_ids
                    .chunks(chunk)
                    .map(|nodes| {
                        scope.spawn(move || propagate_nodes(circuit, trace, topo_pos, nodes))
                    })
                    .collect();
                let mut tables = Vec::with_capacity(node_ids.len());
                let mut evaluations = 0;
                for handle in handles {
                    let (part, spent) = handle.join().expect("atlas worker panicked");
                    tables.extend(part);
                    evaluations += spent;
                }
                (tables, evaluations)
            })
        };

        // Attach the effective error-latching window of each node.
        let params = config.elw;
        for (tables_entry, &node) in tables.iter_mut().zip(&node_ids) {
            tables_entry.elw = match graph.vertex_of(node) {
                Some(v) => vertex_elws[v.index()].clone(),
                // Node outside the retiming graph (e.g. a register fed
                // directly by a primary input): the strike lands on the
                // register boundary itself, so the latching window
                // applies unshifted.
                None => IntervalSet::of(params.window_left(), params.window_right()),
            };
        }

        let mut cumulative = Vec::with_capacity(sites.len());
        let mut total_rate = 0.0;
        for site in &sites {
            total_rate += site.rate;
            cumulative.push(total_rate);
        }

        Ok(Self {
            phi: config.elw.phi,
            num_vectors: config.sim.num_vectors,
            total_rate,
            sites,
            cumulative,
            tables,
            table_of_gate,
            registers: circuit.registers().to_vec(),
            gate_evaluations,
        })
    }

    /// The clock period Φ of the underlying configuration.
    pub fn phi(&self) -> i64 {
        self.phi
    }

    /// Number of simulation vectors `K` per frame.
    pub fn num_vectors(&self) -> usize {
        self.num_vectors
    }

    /// Σ `err(g)` over all strike sites — the factor converting a latch
    /// probability into an SER.
    pub fn total_rate(&self) -> f64 {
        self.total_rate
    }

    /// All strike sites, in gate order.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// The registers of the circuit, in slot order (the order of
    /// per-register latch counts).
    pub fn registers(&self) -> &[GateId] {
        &self.registers
    }

    /// Gate evaluations the build spent propagating flips: the
    /// deterministic work counter of the difference propagation (the
    /// same for every worker count). A full resimulation would spend
    /// `nodes × frames × |topo order|`.
    pub fn gate_evaluations(&self) -> u64 {
        self.gate_evaluations
    }

    /// The effective injection node of a site gate (the gate itself, or
    /// the driving gate for a register). `None` if the gate is not a
    /// strike site.
    pub fn effective_node(&self, gate: GateId) -> Option<GateId> {
        self.sites.iter().find(|s| s.gate == gate).map(|s| s.node)
    }

    /// The logic-detection mask of a site gate: bit `k` set ⟺ a flip of
    /// its effective node in frame 0 of vector `k` reaches an
    /// observation point. `None` if the gate is not a site or node.
    pub fn detection_mask(&self, gate: GateId) -> Option<&Signature> {
        self.table_of_gate
            .get(gate.index())
            .copied()
            .flatten()
            .map(|t| &self.tables[t].detected)
    }

    /// The exact error-latching window applied to a site gate's
    /// transients. `None` if the gate is not a site or node.
    pub fn latch_window(&self, gate: GateId) -> Option<&IntervalSet> {
        self.table_of_gate
            .get(gate.index())
            .copied()
            .flatten()
            .map(|t| &self.tables[t].elw)
    }

    pub(crate) fn tables_of_site(&self, site: &Site) -> &NodeTables {
        &self.tables[site.table]
    }

    /// Draws a site index with probability proportional to its rate.
    pub(crate) fn sample_site(&self, rng: &mut Xoshiro256) -> usize {
        debug_assert!(!self.sites.is_empty());
        let u = rng.gen_f64() * self.total_rate;
        let idx = self.cumulative.partition_point(|&c| c <= u);
        idx.min(self.sites.len() - 1)
    }
}

/// Marks gates that are not in the combinational topological order
/// (registers) in [`topo_positions`].
const NOT_IN_TOPO: usize = usize::MAX;

/// Gate index → position in [`Circuit::topo_order`], or [`NOT_IN_TOPO`]
/// for registers.
fn topo_positions(circuit: &Circuit) -> Vec<usize> {
    let mut pos = vec![NOT_IN_TOPO; circuit.len()];
    for (i, &g) in circuit.topo_order().iter().enumerate() {
        pos[g.index()] = i;
    }
    pos
}

/// One build worker's difference-propagation state (see the module
/// docs), reused for every victim the worker owns.
///
/// It propagates a frame-0 flip of a victim through the `n`-frame
/// window for all `K` vectors at once and records what reaches the
/// observation points. This is the per-victim loop of
/// [`ser_engine::odc::exact_fault_injection`] (same injection model,
/// same observation points), reimplemented here so the Monte-Carlo
/// engine shares nothing with the machinery it cross-validates beyond
/// the trace itself.
struct DiffPropagator<'a> {
    circuit: &'a Circuit,
    trace: &'a FrameTrace,
    /// See [`topo_positions`].
    topo_pos: &'a [usize],
    words: usize,
    /// `gates × words` difference rows; a row is nonzero only if its
    /// gate is in `touched`.
    diff: Vec<u64>,
    /// Gates whose row is nonzero in the current frame.
    touched: Vec<GateId>,
    hot: Vec<bool>,
    /// Bitset over topological positions of the gates waiting for
    /// evaluation; no pending bit lies below word `scan`.
    pending: Vec<u64>,
    scan: usize,
    /// Register slots whose next-frame row differs, with the rows
    /// staged in `carry` (slot-major) across the frame boundary.
    carried: Vec<usize>,
    carry: Vec<u64>,
    /// Scratch row of one gate evaluation.
    row: Vec<u64>,
    /// Gate evaluations so far: the atlas's work counter.
    evaluations: u64,
}

impl<'a> DiffPropagator<'a> {
    fn new(circuit: &'a Circuit, trace: &'a FrameTrace, topo_pos: &'a [usize]) -> Self {
        let words = trace.config().num_vectors / 64;
        let n = circuit.len();
        Self {
            circuit,
            trace,
            topo_pos,
            words,
            diff: vec![0; n * words],
            touched: Vec::new(),
            hot: vec![false; n],
            pending: vec![0; circuit.topo_order().len().div_ceil(64)],
            scan: usize::MAX,
            carried: Vec::new(),
            carry: vec![0; circuit.num_registers() * words],
            row: vec![0; words],
            evaluations: 0,
        }
    }

    fn diff_row(&self, g: GateId) -> &[u64] {
        &self.diff[g.index() * self.words..][..self.words]
    }

    fn diff_row_mut(&mut self, g: GateId) -> &mut [u64] {
        &mut self.diff[g.index() * self.words..][..self.words]
    }

    fn enqueue(&mut self, g: GateId) {
        let pos = self.topo_pos[g.index()];
        if pos != NOT_IN_TOPO {
            let word = pos / 64;
            self.pending[word] |= 1 << (pos % 64);
            self.scan = self.scan.min(word);
        }
    }

    /// Takes the pending gate earliest in topological order. Gates
    /// enqueued while a frame drains are fanouts, so they always lie
    /// after the current one and the scan never moves backwards.
    fn next_pending(&mut self) -> Option<GateId> {
        while let Some(bits) = self.pending.get(self.scan).copied() {
            if bits != 0 {
                self.pending[self.scan] = bits & (bits - 1);
                let pos = self.scan * 64 + bits.trailing_zeros() as usize;
                return Some(self.circuit.topo_order()[pos]);
            }
            self.scan += 1;
        }
        None
    }

    /// Records that `g`'s row (already written) is nonzero and wakes
    /// its in-frame fanouts (register fanouts see it at the frame
    /// boundary).
    fn mark(&mut self, g: GateId) {
        self.hot[g.index()] = true;
        self.touched.push(g);
        for &h in self.circuit.fanouts(g) {
            self.enqueue(h);
        }
    }

    /// Zeroes every touched row.
    fn clear(&mut self) {
        while let Some(g) = self.touched.pop() {
            self.diff_row_mut(g).fill(0);
            self.hot[g.index()] = false;
        }
    }

    /// Evaluates `g` in frame `f` on faulty fanin values (nominal ⊕
    /// difference) and leaves the gate's own difference in `self.row`.
    fn evaluate(&mut self, f: usize, g: GateId) {
        let words = self.words;
        let gate = self.circuit.gate(g);
        let trace = self.trace;
        let diff = &self.diff;
        let row = &mut self.row[..];
        // A fanin's faulty value is its nominal row XOR its difference row.
        let rows = |x: GateId| {
            (
                trace.value(f, x).words(),
                &diff[x.index() * words..][..words],
            )
        };
        let fanins = gate.fanins();
        match gate.kind() {
            GateKind::Dff => unreachable!("registers are not evaluated within a frame"),
            GateKind::Input => row.copy_from_slice(trace.value(f, g).words()),
            GateKind::Const0 => row.fill(0),
            GateKind::Const1 => row.fill(u64::MAX),
            GateKind::Mux => {
                // sel ? b : a
                let ((s, sd), (a, ad), (b, bd)) =
                    (rows(fanins[0]), rows(fanins[1]), rows(fanins[2]));
                for (w, out) in row.iter_mut().enumerate() {
                    let sel = s[w] ^ sd[w];
                    *out = (sel & (b[w] ^ bd[w])) | (!sel & (a[w] ^ ad[w]));
                }
            }
            kind => {
                let (n, d) = rows(fanins[0]);
                fold_row(row, n, d, |_, x| x);
                for &x in &fanins[1..] {
                    let (n, d) = rows(x);
                    match kind {
                        GateKind::And | GateKind::Nand => fold_row(row, n, d, |a, x| a & x),
                        GateKind::Or | GateKind::Nor => fold_row(row, n, d, |a, x| a | x),
                        _ => fold_row(row, n, d, |a, x| a ^ x),
                    }
                }
                if matches!(
                    kind,
                    GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor
                ) {
                    row.iter_mut().for_each(|w| *w = !*w);
                }
            }
        }
        for (out, &nominal) in row.iter_mut().zip(trace.value(f, g).words()) {
            *out ^= nominal;
        }
    }

    /// Flips `victim` in frame 0 and propagates the difference through
    /// the window. The returned `elw` field is a placeholder filled by
    /// the caller.
    fn propagate(&mut self, victim: GateId) -> NodeTables {
        let bits = self.words * 64;
        let frames = self.trace.frames();
        let circuit = self.circuit;
        let registers = circuit.registers();
        debug_assert_ne!(
            self.topo_pos[victim.index()],
            NOT_IN_TOPO,
            "injection nodes are combinational"
        );
        let mut po_detect = vec![0u64; self.words];
        let mut reg_corrupt = vec![Signature::zeros(bits); registers.len()];

        self.enqueue(victim);
        for f in 0..frames {
            while let Some(g) = self.next_pending() {
                self.evaluate(f, g);
                self.evaluations += 1;
                if f == 0 && g == victim {
                    self.row.iter_mut().for_each(|w| *w = !*w);
                }
                if self.row.iter().all(|&w| w == 0) {
                    continue; // logically masked here
                }
                if circuit.gate(g).kind() == GateKind::Output {
                    for (acc, &d) in po_detect.iter_mut().zip(&self.row) {
                        *acc |= d;
                    }
                }
                let words = self.words;
                self.diff[g.index() * words..][..words].copy_from_slice(&self.row);
                self.mark(g);
            }
            if f + 1 == frames {
                for (mask, &q) in reg_corrupt.iter_mut().zip(registers) {
                    let d = circuit.gate(q).fanins()[0];
                    if self.hot[d.index()] {
                        *mask = Signature::from_words(self.diff_row(d).to_vec());
                    }
                }
                break;
            }
            // Frame boundary: each register's output takes its D
            // input's difference from the frame just finished; every
            // other gate restarts from the nominal trace.
            let words = self.words;
            self.carried.clear();
            for (slot, &q) in registers.iter().enumerate() {
                let d = circuit.gate(q).fanins()[0];
                if self.hot[d.index()] {
                    self.carry[slot * words..][..words]
                        .copy_from_slice(&self.diff[d.index() * words..][..words]);
                    self.carried.push(slot);
                }
            }
            self.clear();
            if self.carried.is_empty() {
                break; // no state differs: the later frames match nominal
            }
            for i in 0..self.carried.len() {
                let slot = self.carried[i];
                let q = registers[slot];
                self.diff[q.index() * words..][..words]
                    .copy_from_slice(&self.carry[slot * words..][..words]);
                self.mark(q);
            }
        }
        self.clear();

        let po_detect = Signature::from_words(po_detect);
        let mut detected = po_detect.clone();
        for mask in &reg_corrupt {
            detected.or_assign(mask);
        }
        NodeTables {
            detected,
            reg_corrupt,
            po_detect,
            elw: IntervalSet::new(),
        }
    }
}

/// `row[w] = op(row[w], nominal[w] ^ diff[w])`: folds one faulty fanin
/// row into the accumulator.
#[inline]
fn fold_row(row: &mut [u64], nominal: &[u64], diff: &[u64], op: impl Fn(u64, u64) -> u64) {
    for ((out, &n), &d) in row.iter_mut().zip(nominal).zip(diff) {
        *out = op(*out, n ^ d);
    }
}

/// Propagates each of `nodes` with one worker-owned [`DiffPropagator`];
/// returns the tables in `nodes` order and the gate evaluations spent.
fn propagate_nodes(
    circuit: &Circuit,
    trace: &FrameTrace,
    topo_pos: &[usize],
    nodes: &[GateId],
) -> (Vec<NodeTables>, u64) {
    let mut propagator = DiffPropagator::new(circuit, trace, topo_pos);
    let tables = nodes
        .iter()
        .map(|&node| propagator.propagate(node))
        .collect();
    (tables, propagator.evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::generator::GeneratorConfig;
    use netlist::{samples, CircuitBuilder};
    use proptest::prelude::*;
    use ser_engine::eval_gate;
    use ser_engine::odc::exact_fault_injection;
    use ser_engine::sim::SimConfig;

    fn small_config(phi: i64) -> SerConfig {
        SerConfig::small(phi)
    }

    /// The reference the difference propagation must reproduce: the
    /// full resimulation of every gate in every frame, with `victim`'s
    /// output flipped in frame 0.
    fn full_resimulation(circuit: &Circuit, trace: &FrameTrace, victim: GateId) -> NodeTables {
        let bits = trace.config().num_vectors;
        let frames = trace.frames();
        let n = circuit.len();

        let mut po_detect = Signature::zeros(bits);
        let mut faulty: Vec<Signature> = (0..n)
            .map(|i| trace.value(0, GateId::new(i)).to_signature())
            .collect();
        // The flip must survive for non-reevaluated nodes (primary inputs).
        faulty[victim.index()] = faulty[victim.index()].not();
        let mut reg_corrupt: Vec<Signature> = Vec::new();

        for f in 0..frames {
            if f > 0 {
                // Register outputs take the previous faulty frame's D
                // values; everything else restarts from the nominal trace.
                let prev = faulty.clone();
                for (i, _) in circuit.iter() {
                    faulty[i.index()] = trace.value(f, i).to_signature();
                }
                for &q in circuit.registers() {
                    let d = circuit.gate(q).fanins()[0];
                    faulty[q.index()] = prev[d.index()].clone();
                }
            }
            for &g in circuit.topo_order() {
                let gate = circuit.gate(g);
                if gate.kind() == GateKind::Input {
                    continue;
                }
                let fanins: Vec<&Signature> =
                    gate.fanins().iter().map(|&x| &faulty[x.index()]).collect();
                let mut value = eval_gate(gate.kind(), &fanins, bits);
                if f == 0 && g == victim {
                    value = value.not();
                }
                faulty[g.index()] = value;
            }
            for &po in circuit.outputs() {
                po_detect.or_assign(&faulty[po.index()].xor(&trace.value(f, po).to_signature()));
            }
            if f == frames - 1 {
                reg_corrupt = circuit
                    .registers()
                    .iter()
                    .map(|&q| {
                        let d = circuit.gate(q).fanins()[0];
                        faulty[d.index()].xor(&trace.value(f, d).to_signature())
                    })
                    .collect();
            }
        }

        let mut detected = po_detect.clone();
        for mask in &reg_corrupt {
            detected.or_assign(mask);
        }
        NodeTables {
            detected,
            reg_corrupt,
            po_detect,
            elw: IntervalSet::new(),
        }
    }

    /// Asserts that difference propagation and full resimulation agree
    /// on `detected`, `po_detect` and every `reg_corrupt` row, for
    /// every combinational gate of `circuit` taken as the victim (a
    /// superset of the atlas's injection nodes: inputs, constants and
    /// output markers included). One propagator serves all victims, so
    /// a row left dirty by one victim shows up in the next.
    fn assert_matches_reference(circuit: &Circuit, sim: SimConfig) -> Result<(), String> {
        let trace = FrameTrace::simulate(circuit, sim);
        let topo_pos = topo_positions(circuit);
        let mut propagator = DiffPropagator::new(circuit, &trace, &topo_pos);
        for &victim in circuit.topo_order() {
            let got = propagator.propagate(victim);
            let want = full_resimulation(circuit, &trace, victim);
            let name = circuit.gate(victim).name();
            if got.detected != want.detected {
                return Err(format!("{name}: detected differs"));
            }
            if got.po_detect != want.po_detect {
                return Err(format!("{name}: po_detect differs"));
            }
            if got.reg_corrupt != want.reg_corrupt {
                return Err(format!("{name}: reg_corrupt differs"));
            }
        }
        Ok(())
    }

    fn sim(num_vectors: usize, frames: usize, seed: u64) -> SimConfig {
        SimConfig {
            num_vectors,
            frames,
            warmup: 3,
            seed,
            threads: 1,
        }
    }

    proptest! {
        /// Difference propagation is bit-identical to full
        /// resimulation on generated circuits, over window lengths
        /// from one frame up and several vector widths.
        #[test]
        fn difference_propagation_matches_full_resimulation(
            seed in 0u64..1_000_000,
            gates in 10usize..80,
            registers in 0usize..14,
            frames in 1usize..7,
            words in prop::sample::select(vec![1usize, 2, 3, 16]),
            xor in prop::sample::select(vec![0.0, 0.05, 0.5]),
        ) {
            let circuit = GeneratorConfig::new("oracle", seed)
                .gates(gates)
                .registers(registers)
                .inputs(2 + seed as usize % 6)
                .outputs(1 + seed as usize % 5)
                .xor_fraction(xor)
                .build();
            let result = assert_matches_reference(&circuit, sim(words * 64, frames, seed));
            prop_assert!(result.is_ok(), "{}", result.unwrap_err());
        }
    }

    #[test]
    fn difference_propagation_matches_full_resimulation_on_corner_cases() {
        // A register fed straight by an input, a register chain, a mux,
        // constants, and an output read straight off an input and off
        // a register.
        let mut b = CircuitBuilder::new("corners");
        b.input("a");
        b.input("s");
        b.constant("one", true).unwrap();
        b.constant("zero", false).unwrap();
        b.dff("qa", "a").unwrap();
        b.dff("qb", "qa").unwrap();
        b.gate("m", GateKind::Mux, &["s", "qb", "one"]).unwrap();
        b.gate("x", GateKind::Xnor, &["m", "zero", "a"]).unwrap();
        b.dff("qx", "x").unwrap();
        b.gate("y", GateKind::Nand, &["qx", "qa"]).unwrap();
        b.dff("qy", "y").unwrap();
        b.output("y").unwrap();
        b.output("a").unwrap();
        b.output("qb").unwrap();
        let circuit = b.build().unwrap();
        for frames in [1, 2, 3, 5] {
            for words in [1, 4] {
                assert_matches_reference(&circuit, sim(words * 64, frames, 11)).unwrap();
            }
        }
        for c in [
            samples::s27_like(),
            samples::fig1_like(),
            samples::pipeline(6, 2),
        ] {
            assert_matches_reference(&c, SimConfig::small()).unwrap();
        }
    }

    #[test]
    fn atlas_tables_match_full_resimulation_for_every_worker_count() {
        let circuit = GeneratorConfig::new("atlas", 5)
            .gates(60)
            .registers(10)
            .build();
        let config = small_config(40);
        let trace = FrameTrace::simulate(&circuit, config.sim);
        let one = FaultAtlas::build(&circuit, &config, 1).unwrap();
        for workers in [1, 3] {
            let atlas = FaultAtlas::build(&circuit, &config, workers).unwrap();
            assert_eq!(atlas.gate_evaluations(), one.gate_evaluations());
            for site in atlas.sites() {
                let got = atlas.tables_of_site(site);
                let want = full_resimulation(&circuit, &trace, site.node);
                assert_eq!(got.detected, want.detected);
                assert_eq!(got.po_detect, want.po_detect);
                assert_eq!(got.reg_corrupt, want.reg_corrupt);
            }
        }
    }

    #[test]
    fn detection_density_matches_exact_fault_injection() {
        let c = samples::s27_like();
        let config = small_config(30);
        let atlas = FaultAtlas::build(&c, &config, 1).unwrap();
        let exact = exact_fault_injection(&c, config.sim);
        for site in atlas.sites() {
            if c.gate(site.gate).kind() == GateKind::Dff {
                continue; // register sites share their driver's mask
            }
            let mask = atlas.detection_mask(site.gate).unwrap();
            assert!(
                (mask.density() - exact[site.gate.index()]).abs() < 1e-12,
                "site {}",
                c.gate(site.gate).name()
            );
        }
    }

    #[test]
    fn register_sites_use_driver_tables() {
        let c = samples::s27_like();
        let atlas = FaultAtlas::build(&c, &small_config(30), 1).unwrap();
        for &q in c.registers() {
            let driver = register_driver(&c, q);
            assert_eq!(atlas.effective_node(q), Some(driver));
            assert_eq!(
                atlas.detection_mask(q).unwrap(),
                atlas.detection_mask(driver).unwrap()
            );
            assert_eq!(
                atlas.latch_window(q).unwrap(),
                atlas.latch_window(driver).unwrap()
            );
        }
    }

    #[test]
    fn parallel_build_is_deterministic() {
        let c = samples::fig1_like();
        let a = FaultAtlas::build(&c, &small_config(25), 1).unwrap();
        let b = FaultAtlas::build(&c, &small_config(25), 4).unwrap();
        assert_eq!(a.sites.len(), b.sites.len());
        for (sa, sb) in a.sites.iter().zip(&b.sites) {
            assert_eq!(sa.gate, sb.gate);
            assert_eq!(a.tables_of_site(sa).detected, b.tables_of_site(sb).detected);
            assert_eq!(a.tables_of_site(sa).elw, b.tables_of_site(sb).elw);
        }
    }

    #[test]
    fn weighted_sampling_covers_all_sites() {
        let c = samples::s27_like();
        let atlas = FaultAtlas::build(&c, &small_config(30), 1).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut hits = vec![0u64; atlas.sites().len()];
        for _ in 0..20_000 {
            hits[atlas.sample_site(&mut rng)] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!(h > 0, "site {i} never sampled");
        }
        // Frequencies track rates: compare two sites with a rate ratio.
        let total: u64 = hits.iter().sum();
        for (site, &h) in atlas.sites().iter().zip(&hits) {
            let expect = site.rate / atlas.total_rate();
            let got = h as f64 / total as f64;
            assert!(
                (got - expect).abs() < 0.02,
                "site {:?}: got {got:.3}, expected {expect:.3}",
                site.gate
            );
        }
    }

    #[test]
    fn markers_are_not_sites() {
        let c = samples::s27_like();
        let atlas = FaultAtlas::build(&c, &small_config(30), 1).unwrap();
        for site in atlas.sites() {
            let kind = c.gate(site.gate).kind();
            assert!(
                !matches!(
                    kind,
                    GateKind::Input | GateKind::Output | GateKind::Const0 | GateKind::Const1
                ),
                "{kind} cannot be struck"
            );
        }
    }
}
