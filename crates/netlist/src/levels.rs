//! Circuit levelization: topological layers for data-parallel
//! evaluation.
//!
//! A *level* assigns every gate the length of its longest
//! combinational fanin chain: sources (primary inputs, register Q
//! outputs and constants) are level 0, and every other gate sits one
//! level above its deepest fanin. Gates within one level have no
//! dependencies on each other, so a simulator can evaluate a whole
//! level in parallel, level by level — and an ODC-style backward pass
//! can walk the levels in reverse with the same guarantee (a gate's
//! fanouts all sit on strictly higher levels, registers excepted).
//!
//! Besides the layers themselves, [`Levelization`] fixes a *slot
//! order*: a permutation of all gates in which every level occupies a
//! contiguous index range. Flat per-gate buffers laid out in slot
//! order can then hand each level out as one disjoint mutable slice
//! (`split_at_mut`) while earlier levels stay immutably readable —
//! safe-Rust data parallelism with no copying and no locks.
//!
//! Slot-order invariants (relied upon by `ser_engine`'s
//! `SignatureArena`; see the layout notes there):
//!
//! 1. Level 0 comes first, ordered **registers** (in
//!    [`Circuit::registers`] order), then **primary inputs** (in
//!    [`Circuit::inputs`] order), then **constants** (in id order).
//!    Registers therefore occupy slots `0..num_registers()`,
//!    contiguously.
//! 2. Levels `1..` follow in ascending order; within a level, gates
//!    are sorted by [`GateId`]. The order is a pure function of the
//!    circuit — no hash iteration, no scheduling dependence.

use crate::circuit::Circuit;
use crate::gate::{Gate, GateId, GateKind};

/// Topological layers of a circuit plus the contiguous slot order
/// described in the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    /// All gates in slot order (level 0 first, then level 1, ...).
    order: Vec<GateId>,
    /// `bounds[l]..bounds[l + 1]` is level `l`'s slot range.
    bounds: Vec<usize>,
    /// Gate index → level.
    level_of: Vec<u32>,
    /// Gate index → slot (position in `order`).
    slot_of: Vec<usize>,
    /// Number of registers (slots `0..registers` are register slots).
    registers: usize,
}

impl Levelization {
    /// Computes the levelization of `circuit`.
    pub fn of(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut level_of = vec![0u32; n];
        // topo_order lists every non-register gate after its
        // non-register fanins; registers are level-0 sources.
        for &g in circuit.topo_order() {
            let gate = circuit.gate(g);
            if matches!(
                gate.kind(),
                GateKind::Input | GateKind::Const0 | GateKind::Const1
            ) {
                continue; // sources stay at level 0
            }
            let lvl = gate
                .fanins()
                .iter()
                .map(|&f| {
                    if circuit.gate(f).kind() == GateKind::Dff {
                        0
                    } else {
                        level_of[f.index()]
                    }
                })
                .max()
                .unwrap_or(0)
                + 1;
            level_of[g.index()] = lvl;
        }

        let num_levels = level_of
            .iter()
            .enumerate()
            .filter(|&(i, _)| circuit.gate(GateId::new(i)).kind() != GateKind::Dff)
            .map(|(_, &l)| l as usize)
            .max()
            .unwrap_or(0)
            + 1;

        // Level 0 in the fixed source order: registers, inputs,
        // constants.
        let mut order = Vec::with_capacity(n);
        order.extend_from_slice(circuit.registers());
        order.extend_from_slice(circuit.inputs());
        for (id, gate) in circuit.iter() {
            if matches!(gate.kind(), GateKind::Const0 | GateKind::Const1) {
                order.push(id);
            }
        }
        // Levels 1.. sorted by id, by a counting sort: size each level,
        // then place gates in one pass in id order. (A scan of the
        // circuit per level would cost O(levels · |V|).)
        let above_zero =
            |(id, gate): &(GateId, &Gate)| gate.kind() != GateKind::Dff && level_of[id.index()] > 0;
        let mut bounds = vec![0; num_levels + 1];
        bounds[1] = order.len();
        for (id, _) in circuit.iter().filter(above_zero) {
            bounds[level_of[id.index()] as usize + 1] += 1;
        }
        for l in 2..=num_levels {
            bounds[l] += bounds[l - 1];
        }
        debug_assert_eq!(bounds[num_levels], n, "every gate gets exactly one slot");
        let mut next = bounds.clone();
        order.resize(n, GateId::new(0));
        for (id, _) in circuit.iter().filter(above_zero) {
            let slot = &mut next[level_of[id.index()] as usize];
            order[*slot] = id;
            *slot += 1;
        }

        let mut slot_of = vec![0usize; n];
        for (slot, &g) in order.iter().enumerate() {
            slot_of[g.index()] = slot;
        }

        Self {
            order,
            bounds,
            level_of,
            slot_of,
            registers: circuit.num_registers(),
        }
    }

    /// Number of levels (≥ 1; level 0 is the source level).
    pub fn num_levels(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of gates (= number of slots).
    pub fn num_gates(&self) -> usize {
        self.order.len()
    }

    /// Number of register slots (slots `0..num_registers()`).
    pub fn num_registers(&self) -> usize {
        self.registers
    }

    /// The slot range of level `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= num_levels()`.
    pub fn level_slots(&self, l: usize) -> std::ops::Range<usize> {
        self.bounds[l]..self.bounds[l + 1]
    }

    /// The gates of level `l`, in slot order.
    ///
    /// # Panics
    ///
    /// Panics if `l >= num_levels()`.
    pub fn level(&self, l: usize) -> &[GateId] {
        &self.order[self.level_slots(l)]
    }

    /// The level of a gate (0 for registers, inputs and constants).
    pub fn level_of(&self, gate: GateId) -> usize {
        self.level_of[gate.index()] as usize
    }

    /// The slot of a gate.
    pub fn slot_of(&self, gate: GateId) -> usize {
        self.slot_of[gate.index()]
    }

    /// The gate occupying a slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= num_gates()`.
    pub fn gate_at(&self, slot: usize) -> GateId {
        self.order[slot]
    }

    /// All gates in slot order.
    pub fn slot_order(&self) -> &[GateId] {
        &self.order
    }
}

impl Circuit {
    /// Computes this circuit's [`Levelization`] (O(|V| + |E|); not
    /// cached — callers that need it repeatedly should hold on to it).
    pub fn levelize(&self) -> Levelization {
        Levelization::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::samples;

    #[test]
    fn sources_are_level_zero_and_ordered() {
        let c = samples::s27_like();
        let lv = c.levelize();
        // Slot order starts with registers, then inputs.
        for (i, &q) in c.registers().iter().enumerate() {
            assert_eq!(lv.slot_of(q), i);
            assert_eq!(lv.level_of(q), 0);
        }
        for (i, &pi) in c.inputs().iter().enumerate() {
            assert_eq!(lv.slot_of(pi), c.num_registers() + i);
            assert_eq!(lv.level_of(pi), 0);
        }
        assert_eq!(lv.num_registers(), c.num_registers());
    }

    #[test]
    fn fanins_sit_on_strictly_lower_levels() {
        let c = samples::s27_like();
        let lv = c.levelize();
        for (id, gate) in c.iter() {
            if gate.kind() == GateKind::Dff {
                continue;
            }
            for &f in gate.fanins() {
                assert!(
                    lv.level_of(f) < lv.level_of(id) || lv.level_of(id) == 0,
                    "{f} must be below {id}"
                );
                // Slot order refines level order for non-source gates.
                if lv.level_of(id) > 0 {
                    assert!(lv.slot_of(f) < lv.slot_of(id));
                }
            }
        }
    }

    #[test]
    fn levels_partition_all_gates() {
        let c = samples::fig1_like();
        let lv = c.levelize();
        let total: usize = (0..lv.num_levels()).map(|l| lv.level(l).len()).sum();
        assert_eq!(total, c.len());
        let mut seen = vec![false; c.len()];
        for l in 0..lv.num_levels() {
            for &g in lv.level(l) {
                assert!(!seen[g.index()], "{g} appears twice");
                seen[g.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn slot_round_trip() {
        let c = samples::s27_like();
        let lv = c.levelize();
        for (id, _) in c.iter() {
            assert_eq!(lv.gate_at(lv.slot_of(id)), id);
        }
    }

    #[test]
    fn chain_depth_matches_levels() {
        let mut b = CircuitBuilder::new("chain");
        b.input("a");
        b.gate("x1", GateKind::Not, &["a"]).unwrap();
        b.gate("x2", GateKind::Not, &["x1"]).unwrap();
        b.gate("x3", GateKind::Not, &["x2"]).unwrap();
        b.output("x3").unwrap();
        let c = b.build().unwrap();
        let lv = c.levelize();
        assert_eq!(lv.level_of(c.find("a").unwrap()), 0);
        assert_eq!(lv.level_of(c.find("x1").unwrap()), 1);
        assert_eq!(lv.level_of(c.find("x2").unwrap()), 2);
        assert_eq!(lv.level_of(c.find("x3").unwrap()), 3);
        // The marker observes x3 one level further down.
        assert_eq!(lv.num_levels(), 5);
    }

    /// The reference slot order: one scan of the circuit per level.
    fn scanned_order(c: &Circuit, lv: &Levelization) -> Vec<GateId> {
        let mut order = lv.level(0).to_vec();
        for lvl in 1..lv.num_levels() {
            for (id, gate) in c.iter() {
                if gate.kind() != GateKind::Dff && lv.level_of(id) == lvl {
                    order.push(id);
                }
            }
        }
        order
    }

    #[test]
    fn slot_order_matches_a_scan_per_level() {
        let mut circuits = vec![samples::s27_like(), samples::fig1_like()];
        for seed in 0..4 {
            circuits.push(
                crate::generator::GeneratorConfig::new("lv", seed)
                    .gates(300)
                    .registers(30)
                    .build(),
            );
        }
        for c in &circuits {
            let lv = c.levelize();
            assert_eq!(lv.slot_order(), scanned_order(c, &lv), "{}", c.name());
        }
    }

    #[test]
    fn constants_are_sources() {
        let mut b = CircuitBuilder::new("c");
        b.input("a");
        b.constant("one", true).unwrap();
        b.gate("x", GateKind::And, &["a", "one"]).unwrap();
        b.output("x").unwrap();
        let c = b.build().unwrap();
        let lv = c.levelize();
        assert_eq!(lv.level_of(c.find("one").unwrap()), 0);
        assert_eq!(lv.level_of(c.find("x").unwrap()), 1);
    }
}
