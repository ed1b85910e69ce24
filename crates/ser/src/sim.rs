//! Bit-parallel sequential logic simulation with time-frame expansion,
//! arena-backed and levelized.
//!
//! The circuit is simulated for a warm-up period (to reach the "steady
//! operational state" the paper mentions) and then for `n` recorded
//! time frames. Registers carry their signature from frame to frame;
//! within a frame they act as wires of the expanded circuit.
//!
//! # Engine
//!
//! Signatures live in one flat [`SignatureArena`] (`frames × gates ×
//! words` of `u64`) instead of per-gate heap `Signature`s, and gates
//! are evaluated level by level in the circuit's
//! [`Levelization`](netlist::Levelization) slot order. Because every
//! level is a contiguous slot range whose fanins all sit in lower
//! slots, `split_at_mut` hands each level out as a disjoint mutable
//! slice while all earlier levels stay readable — which is how the
//! multi-threaded path (`SimConfig::threads`, `SER_THREADS`)
//! partitions a level across `std::thread::scope` workers without any
//! `unsafe`.
//!
//! # Determinism and the bit-identity oracle
//!
//! The parallel engine is bit-for-bit identical to the scalar
//! reference in [`crate::scalar`]: all gate functions are exact
//! bitwise operations, workers write disjoint slots, and every RNG
//! draw (initial register state, per-frame inputs) happens serially in
//! the original order before any worker starts. Three mechanisms
//! enforce this instead of assuming it:
//!
//! * in debug builds, every parallel level is re-evaluated serially
//!   and `debug_assert!`-compared in-loop;
//! * in all builds, one sampled level per recorded frame is audited
//!   the same way ([`EngineReport::audited_layers`]);
//! * an audit mismatch trips a circuit breaker: the run is discarded,
//!   recomputed with the scalar engine, and the trip is recorded
//!   ([`EngineReport::trips`], [`EngineReport::scalar_fallback`]) so
//!   the supervisor's degradation report can surface it.

use netlist::parallel;
use netlist::rng::Xoshiro256;
use netlist::{Circuit, GateId, GateKind, Levelization};

use crate::arena::{SigRef, SignatureArena};
use crate::scalar::ScalarTrace;
use crate::signature::{eval_gate_words, map_words1, map_words2, map_words3};

/// Magic seed that makes a multi-threaded simulation deliberately
/// corrupt one worker's output in the audited layer of frame 0 —
/// a test hook for the circuit-breaker fallback path. Chosen as a
/// constant (rather than a global flag) so concurrently running tests
/// cannot poison each other.
#[doc(hidden)]
pub const SABOTAGE_SIM_SEED: u64 = 0x5AB0_7A6E_0051;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimConfig {
    /// Number of random vectors `K` per frame (multiple of 64; the
    /// paper's analyses use a few thousand).
    pub num_vectors: usize,
    /// Number of recorded time frames `n` (the paper uses 15).
    pub frames: usize,
    /// Warm-up cycles simulated before recording.
    pub warmup: usize,
    /// PRNG seed for inputs and the initial state.
    pub seed: u64,
    /// Worker threads for the levelized passes: explicit count, or 0
    /// to resolve via `SER_THREADS` / available parallelism (see
    /// [`netlist::parallel::resolve_workers`]). The result is
    /// bit-identical for every thread count.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            num_vectors: 2048,
            frames: 15,
            warmup: 16,
            seed: 0xC0FFEE,
            threads: 0,
        }
    }
}

impl SimConfig {
    /// A light-weight configuration for unit tests.
    pub fn small() -> Self {
        Self {
            num_vectors: 256,
            frames: 6,
            warmup: 4,
            seed: 0xC0FFEE,
            threads: 0,
        }
    }

    /// Checks the sizes the engine can run: `K` a positive multiple of
    /// 64 (one signature word holds 64 vectors) and at least one
    /// recorded frame. Entry points that take a size from outside the
    /// program call this, so a bad value is a usage error, not a panic.
    pub fn check(&self) -> Result<(), SimConfigError> {
        if self.num_vectors == 0 || !self.num_vectors.is_multiple_of(64) {
            return Err(SimConfigError {
                field: "vectors",
                rule: "a positive multiple of 64",
                got: self.num_vectors,
            });
        }
        if self.frames == 0 {
            return Err(SimConfigError {
                field: "frames",
                rule: "positive",
                got: self.frames,
            });
        }
        Ok(())
    }
}

/// The first [`SimConfig`] size [`SimConfig::check`] rejects. Displays
/// as "`vectors` must be a positive multiple of 64".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfigError {
    /// The field: `vectors` or `frames`.
    pub field: &'static str,
    /// What the field must be.
    pub rule: &'static str,
    /// The rejected value.
    pub got: usize,
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "`{}` must be {}", self.field, self.rule)
    }
}

impl std::error::Error for SimConfigError {}

/// What the arena engine did on a run: thread count, audit volume and
/// circuit-breaker activity. Clean runs have `trips == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Resolved worker count used for the levelized passes.
    pub threads: usize,
    /// Sampled layers re-verified against the serial evaluation.
    pub audited_layers: u64,
    /// Audit mismatches (each one triggered a scalar fallback).
    pub trips: u64,
    /// Whether any result was recomputed by the scalar engine.
    pub scalar_fallback: bool,
}

impl EngineReport {
    /// Combines two reports (sim + ODC) into one.
    pub fn merged(self, other: EngineReport) -> EngineReport {
        EngineReport {
            threads: self.threads.max(other.threads),
            audited_layers: self.audited_layers + other.audited_layers,
            trips: self.trips + other.trips,
            scalar_fallback: self.scalar_fallback || other.scalar_fallback,
        }
    }

    /// Whether the parallel engine ran without breaker activity.
    pub fn is_clean(&self) -> bool {
        self.trips == 0 && !self.scalar_fallback
    }
}

/// Fused `(kind, arity)` dispatch code per slot, precomputed once so
/// the hot evaluation loop does a single flat match — no per-gate
/// shape re-classification and no slice-array round-trip for the
/// common 1–3 fanin shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimOp {
    /// Input / Const0 (sources; overwritten by `step` anyway).
    Zero,
    /// Const1.
    One,
    /// Output / Buf / Dff: copy the single fanin.
    Copy,
    /// 1-input NOT.
    Not,
    /// Exactly two fanins.
    And2,
    Nand2,
    Or2,
    Nor2,
    Xor2,
    Xnor2,
    /// Exactly three fanins (generated netlists have a sizable
    /// 3-input share — fanin density 2.2 — so these keep them off the
    /// spill path).
    And3,
    Nand3,
    Or3,
    Nor3,
    Xor3,
    Xnor3,
    /// 3-input MUX `(sel, a, b)`.
    Mux3,
    /// Anything else: the general [`eval_gate_words`] path.
    Wide,
}

fn sim_op(kind: GateKind, arity: usize) -> SimOp {
    match (kind, arity) {
        (GateKind::Input | GateKind::Const0, _) => SimOp::Zero,
        (GateKind::Const1, _) => SimOp::One,
        (GateKind::Output | GateKind::Buf | GateKind::Dff, _) => SimOp::Copy,
        (GateKind::Not, _) => SimOp::Not,
        (GateKind::And, 2) => SimOp::And2,
        (GateKind::Nand, 2) => SimOp::Nand2,
        (GateKind::Or, 2) => SimOp::Or2,
        (GateKind::Nor, 2) => SimOp::Nor2,
        (GateKind::Xor, 2) => SimOp::Xor2,
        (GateKind::Xnor, 2) => SimOp::Xnor2,
        (GateKind::And, 3) => SimOp::And3,
        (GateKind::Nand, 3) => SimOp::Nand3,
        (GateKind::Or, 3) => SimOp::Or3,
        (GateKind::Nor, 3) => SimOp::Nor3,
        (GateKind::Xor, 3) => SimOp::Xor3,
        (GateKind::Xnor, 3) => SimOp::Xnor3,
        (GateKind::Mux, 3) => SimOp::Mux3,
        _ => SimOp::Wide,
    }
}

/// Per-slot evaluation metadata in levelization slot order: gate kinds
/// and flattened fanin slot lists, plus the register wiring. Shared by
/// the forward simulator, the exact fault injector and the equivalence
/// checker.
#[derive(Debug)]
pub(crate) struct EvalPlan {
    /// Gate kind per slot.
    pub kinds: Vec<GateKind>,
    /// Fused dispatch code per slot (see [`SimOp`]).
    pub codes: Vec<SimOp>,
    /// `fanin_slots[fanin_offsets[s]..fanin_offsets[s + 1]]` are the
    /// fanin slots of slot `s`.
    pub fanin_offsets: Vec<u32>,
    /// Flattened fanin slots.
    pub fanin_slots: Vec<u32>,
    /// Per register (in `registers()` order): the slot of its D fanin.
    pub reg_d_slots: Vec<usize>,
    /// Slots of primary-output markers (in `outputs()` order).
    pub output_slots: Vec<usize>,
    /// Number of registers (slots `0..num_registers`).
    pub num_registers: usize,
    /// Number of primary inputs (slots `num_registers..+num_inputs`).
    pub num_inputs: usize,
    /// End of the level-0 slot range.
    pub num_sources: usize,
}

impl EvalPlan {
    pub(crate) fn new(circuit: &Circuit, levels: &Levelization) -> Self {
        let n = circuit.len();
        let mut kinds = Vec::with_capacity(n);
        let mut codes = Vec::with_capacity(n);
        let mut fanin_offsets = Vec::with_capacity(n + 1);
        let mut fanin_slots = Vec::new();
        fanin_offsets.push(0);
        for slot in 0..n {
            let id = levels.gate_at(slot);
            let gate = circuit.gate(id);
            kinds.push(gate.kind());
            codes.push(sim_op(gate.kind(), gate.fanins().len()));
            for &f in gate.fanins() {
                fanin_slots.push(levels.slot_of(f) as u32);
            }
            fanin_offsets.push(fanin_slots.len() as u32);
        }
        let reg_d_slots = circuit
            .registers()
            .iter()
            .map(|&q| levels.slot_of(circuit.gate(q).fanins()[0]))
            .collect();
        let output_slots = circuit
            .outputs()
            .iter()
            .map(|&po| levels.slot_of(po))
            .collect();
        Self {
            kinds,
            codes,
            fanin_offsets,
            fanin_slots,
            reg_d_slots,
            output_slots,
            num_registers: circuit.num_registers(),
            num_inputs: circuit.inputs().len(),
            num_sources: levels.level_slots(0).end,
        }
    }

    #[inline]
    pub(crate) fn fanins_of(&self, slot: usize) -> &[u32] {
        &self.fanin_slots[self.fanin_offsets[slot] as usize..self.fanin_offsets[slot + 1] as usize]
    }
}

/// Serially evaluates words `b0..b1` of slots `lo..hi` (one level, or
/// a chunk of one), reading fanins from `prev` (the words of slots
/// `0..lo`) and writing into `cur` (the words of slots `lo..hi`). The
/// word sub-range is the cache-blocking lever: `step` sweeps stripes
/// outermost across all levels so the touched lines of the frame stay
/// L2-resident across a whole pass (see
/// [`crate::odc::ODC_BLOCK_WORDS`]).
pub(crate) fn eval_slots(
    plan: &EvalPlan,
    wps: usize,
    b0: usize,
    b1: usize,
    prev: &[u64],
    cur: &mut [u64],
    lo: usize,
) {
    // One flat match on the precomputed [`SimOp`] per slot: the common
    // shapes call their fused SWAR kernel with direct row operands;
    // only wide n-ary gates re-classify in `eval_gate_words` and touch
    // the spill vector.
    let mut fanins: Vec<&[u64]> = Vec::with_capacity(8);
    let row = |f: u32| -> &[u64] {
        let off = f as usize * wps;
        &prev[off + b0..off + b1]
    };
    for i in 0..cur.len() / wps {
        let s = lo + i;
        let fs = plan.fanins_of(s);
        let out = &mut cur[i * wps + b0..i * wps + b1];
        match plan.codes[s] {
            SimOp::Zero => out.fill(0),
            SimOp::One => out.fill(u64::MAX),
            SimOp::Copy => out.copy_from_slice(row(fs[0])),
            SimOp::Not => map_words1(out, row(fs[0]), |a| !a),
            SimOp::And2 => map_words2(out, row(fs[0]), row(fs[1]), |a, b| a & b),
            SimOp::Nand2 => map_words2(out, row(fs[0]), row(fs[1]), |a, b| !(a & b)),
            SimOp::Or2 => map_words2(out, row(fs[0]), row(fs[1]), |a, b| a | b),
            SimOp::Nor2 => map_words2(out, row(fs[0]), row(fs[1]), |a, b| !(a | b)),
            SimOp::Xor2 => map_words2(out, row(fs[0]), row(fs[1]), |a, b| a ^ b),
            SimOp::Xnor2 => map_words2(out, row(fs[0]), row(fs[1]), |a, b| !(a ^ b)),
            SimOp::And3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |a, b, c| a & b & c),
            SimOp::Nand3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |a, b, c| {
                !(a & b & c)
            }),
            SimOp::Or3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |a, b, c| a | b | c),
            SimOp::Nor3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |a, b, c| {
                !(a | b | c)
            }),
            SimOp::Xor3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |a, b, c| a ^ b ^ c),
            SimOp::Xnor3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |a, b, c| {
                !(a ^ b ^ c)
            }),
            SimOp::Mux3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |s, a, b| {
                (s & b) | (!s & a)
            }),
            SimOp::Wide => {
                fanins.clear();
                fanins.extend(fs.iter().map(|&f| row(f)));
                eval_gate_words(plan.kinds[s], &fanins, out);
            }
        }
    }
}

/// Evaluates words `b0..b1` of one level of `frame` in place, fanning
/// the level across `workers` scoped threads when it is large enough.
/// `sabotage` deliberately corrupts the first worker's chunk (test
/// hook).
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_level(
    plan: &EvalPlan,
    wps: usize,
    b0: usize,
    b1: usize,
    frame: &mut [u64],
    lo: usize,
    hi: usize,
    workers: usize,
    sabotage: bool,
) {
    let (prev, rest) = frame.split_at_mut(lo * wps);
    let cur = &mut rest[..(hi - lo) * wps];
    let n = hi - lo;
    let workers = parallel::clamp_workers(workers, n);
    if workers <= 1 {
        eval_slots(plan, wps, b0, b1, prev, cur, lo);
        if sabotage {
            cur[b0] ^= 1;
        }
        return;
    }
    let chunk_slots = n.div_ceil(workers);
    let prev: &[u64] = prev;
    std::thread::scope(|scope| {
        for (ci, chunk) in cur.chunks_mut(chunk_slots * wps).enumerate() {
            let start = lo + ci * chunk_slots;
            scope.spawn(move || {
                eval_slots(plan, wps, b0, b1, prev, chunk, start);
                if sabotage && ci == 0 {
                    chunk[b0] ^= 1;
                }
            });
        }
    });
}

/// Deterministically samples the level to audit for a frame: `None`
/// when the circuit has no combinational level to check.
fn audit_level(frame: usize, num_levels: usize) -> Option<usize> {
    if num_levels <= 1 {
        return None;
    }
    // Weyl-style stride so successive frames visit different levels.
    Some(1 + (frame.wrapping_mul(0x9E37_79B9)) % (num_levels - 1))
}

/// Re-evaluates one level serially and compares it with what the
/// (possibly parallel) pass wrote. Returns `true` when identical.
fn verify_level(plan: &EvalPlan, wps: usize, frame: &[u64], lo: usize, hi: usize) -> bool {
    let mut check = vec![0u64; (hi - lo) * wps];
    eval_slots(plan, wps, 0, wps, &frame[..lo * wps], &mut check, lo);
    frame[lo * wps..hi * wps] == check[..]
}

/// The recorded signatures of an `n`-frame expanded simulation.
///
/// `value(frame, gate)` is the signature at the gate's output during
/// that frame; register outputs hold the state captured at the end of
/// the previous frame. Values live in a [`SignatureArena`] in
/// levelization slot order; `value` translates gate ids transparently.
#[derive(Debug, Clone)]
pub struct FrameTrace {
    config: SimConfig,
    levels: Levelization,
    arena: SignatureArena,
    engine: EngineReport,
}

impl FrameTrace {
    /// Simulates `circuit` under `config`.
    pub fn simulate(circuit: &Circuit, config: SimConfig) -> Self {
        let bits = config.num_vectors;
        assert!(config.frames > 0, "at least one recorded frame required");
        let levels = circuit.levelize();
        let plan = EvalPlan::new(circuit, &levels);
        let threads = parallel::resolve_workers(config.threads);
        let sabotage = config.seed == SABOTAGE_SIM_SEED && threads > 1;
        let wps = bits / 64;
        let slots = levels.num_gates();
        let num_levels = levels.num_levels();
        let mut engine = EngineReport {
            threads,
            ..EngineReport::default()
        };
        let mut rng = Xoshiro256::seed_from_u64(config.seed);
        let mut arena = SignatureArena::new(config.frames, slots, bits);

        // Word-sweep stripes (cache blocking, shared tile width with
        // the ODC engine). The threaded path splits slots across
        // workers instead and runs one full-width sweep to keep the
        // spawn count down.
        let block = crate::odc::ODC_BLOCK_WORDS;
        let sweeps: Vec<(usize, usize)> = if threads <= 1 {
            (0..wps)
                .step_by(block)
                .map(|b0| (b0, (b0 + block).min(wps)))
                .collect()
        } else {
            vec![(0, wps)]
        };

        // Initial register state: same draw order as the scalar engine
        // (register-major, words in ascending order).
        let mut state = vec![0u64; plan.num_registers * wps];
        for w in state.iter_mut() {
            *w = rng.next_u64();
        }

        let mut warm = vec![0u64; slots * wps];
        for _ in 0..config.warmup {
            step(
                &plan, &levels, wps, &sweeps, &mut rng, &mut state, &mut warm, threads, None,
            );
        }

        let mut tripped = false;
        for f in 0..config.frames {
            let sab_level = if sabotage && f == 0 {
                audit_level(f, num_levels)
            } else {
                None
            };
            step(
                &plan,
                &levels,
                wps,
                &sweeps,
                &mut rng,
                &mut state,
                arena.frame_mut(f),
                threads,
                sab_level,
            );
            if threads > 1 {
                if let Some(al) = audit_level(f, num_levels) {
                    engine.audited_layers += 1;
                    let r = levels.level_slots(al);
                    if !verify_level(&plan, wps, arena.frame(f), r.start, r.end) {
                        engine.trips += 1;
                        tripped = true;
                        break;
                    }
                }
            }
        }

        if tripped {
            // Circuit breaker: discard everything and recompute with
            // the scalar reference engine.
            let scalar = ScalarTrace::simulate(circuit, config);
            for f in 0..config.frames {
                for (id, _) in circuit.iter() {
                    arena
                        .sig_mut(f, levels.slot_of(id))
                        .copy_from_slice(scalar.value(f, id).as_words());
                }
            }
            engine.scalar_fallback = true;
        }

        Self {
            config,
            levels,
            arena,
            engine,
        }
    }

    /// Planning estimate (in bytes) of the simulation data plane for
    /// `circuit` under `config`: the per-frame chunked
    /// [`SignatureArena`] plus the transient working buffers (warm-up
    /// frame, register state) and the ODC pass's equally-sized mask
    /// buffer. The solver's `SolveBudget` memory caps check this
    /// *before* any allocation happens, so an over-budget instance is
    /// a structured error instead of an OOM abort.
    pub fn data_plane_bytes(circuit: &Circuit, config: &SimConfig) -> usize {
        let slots = circuit.len();
        let bits = config.num_vectors;
        let wps = bits / 64;
        let word = std::mem::size_of::<u64>();
        let arena = SignatureArena::required_bytes(config.frames.max(1), slots, bits.max(64));
        // One warm-up frame + one ODC mask frame, plus two register
        // rows (state carry and next-frame register ODCs).
        let working = 2usize
            .saturating_mul(slots.saturating_add(circuit.num_registers()))
            .saturating_mul(wps)
            .saturating_mul(word);
        arena.saturating_add(working)
    }

    /// The configuration used.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Signature of `gate` during `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame >= frames`.
    pub fn value(&self, frame: usize, gate: GateId) -> SigRef<'_> {
        assert!(frame < self.config.frames, "frame out of range");
        self.arena.sig(frame, self.levels.slot_of(gate))
    }

    /// Number of recorded frames.
    pub fn frames(&self) -> usize {
        self.config.frames
    }

    /// Signal activity of a gate: fraction of ones across all frames.
    pub fn activity(&self, gate: GateId) -> f64 {
        let total: u64 = (0..self.config.frames)
            .map(|f| self.value(f, gate).count_ones() as u64)
            .sum();
        total as f64 / (self.config.frames * self.config.num_vectors) as f64
    }

    /// Engine diagnostics: thread count, audits and breaker activity.
    pub fn engine(&self) -> &EngineReport {
        &self.engine
    }

    /// The levelization the arena is laid out by.
    pub(crate) fn levels(&self) -> &Levelization {
        &self.levels
    }

    /// The raw signature arena.
    pub(crate) fn arena(&self) -> &SignatureArena {
        &self.arena
    }
}

/// Advances the circuit by one clock cycle: fresh random inputs,
/// levelized combinational evaluation, register update.
#[allow(clippy::too_many_arguments)]
fn step(
    plan: &EvalPlan,
    levels: &Levelization,
    wps: usize,
    sweeps: &[(usize, usize)],
    rng: &mut Xoshiro256,
    state: &mut [u64],
    frame: &mut [u64],
    threads: usize,
    sab_level: Option<usize>,
) {
    let r = plan.num_registers;
    let ni = plan.num_inputs;
    // Present register state first (consumed by combinational gates).
    frame[..r * wps].copy_from_slice(state);
    // Fresh random inputs, drawn serially in `inputs()` order — full
    // rows, so the draw order (and therefore every signature) is
    // independent of the sweep tiling below.
    for w in frame[r * wps..(r + ni) * wps].iter_mut() {
        *w = rng.next_u64();
    }
    // Constants.
    for s in (r + ni)..plan.num_sources {
        let v = if plan.kinds[s] == GateKind::Const1 {
            u64::MAX
        } else {
            0
        };
        frame[s * wps..(s + 1) * wps].fill(v);
    }
    // Word-sweep stripes outermost (cache blocking, see `eval_slots`);
    // levels inner. Words never interact, so the stripe order cannot
    // change results — the debug differential below re-checks that on
    // every multi-threaded run.
    for &(b0, b1) in sweeps {
        for l in 1..levels.num_levels() {
            let range = levels.level_slots(l);
            let sab = sab_level == Some(l);
            eval_level(
                plan,
                wps,
                b0,
                b1,
                frame,
                range.start,
                range.end,
                threads,
                sab,
            );
        }
    }
    #[cfg(debug_assertions)]
    if threads > 1 && sab_level.is_none() {
        for l in 1..levels.num_levels() {
            let range = levels.level_slots(l);
            debug_assert!(
                verify_level(plan, wps, frame, range.start, range.end),
                "parallel level {l} diverged from serial evaluation"
            );
        }
    }
    // Capture next state.
    for (i, &d) in plan.reg_d_slots.iter().enumerate() {
        state[i * wps..(i + 1) * wps].copy_from_slice(&frame[d * wps..(d + 1) * wps]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarTrace;
    use crate::signature::{eval_gate, Signature};
    use netlist::{samples, CircuitBuilder};

    #[test]
    fn deterministic_for_same_seed() {
        let c = samples::s27_like();
        let a = FrameTrace::simulate(&c, SimConfig::small());
        let b = FrameTrace::simulate(&c, SimConfig::small());
        for f in 0..a.frames() {
            for (id, _) in c.iter() {
                assert_eq!(a.value(f, id), b.value(f, id));
            }
        }
    }

    #[test]
    fn combinational_consistency_within_frames() {
        let c = samples::s27_like();
        let t = FrameTrace::simulate(&c, SimConfig::small());
        // Every gate's recorded signature equals its function applied to
        // its fanins' recorded signatures (registers excepted).
        for f in 0..t.frames() {
            for (id, gate) in c.iter() {
                if matches!(gate.kind(), GateKind::Input | GateKind::Dff) {
                    continue;
                }
                let fanins: Vec<Signature> = gate
                    .fanins()
                    .iter()
                    .map(|&x| t.value(f, x).to_signature())
                    .collect();
                let fanin_refs: Vec<&Signature> = fanins.iter().collect();
                let expect = eval_gate(gate.kind(), &fanin_refs, t.config().num_vectors);
                assert_eq!(t.value(f, id), expect, "{} frame {f}", gate.name());
            }
        }
    }

    #[test]
    fn registers_delay_by_one_frame() {
        let c = samples::s27_like();
        let t = FrameTrace::simulate(&c, SimConfig::small());
        for f in 1..t.frames() {
            for &reg in c.registers() {
                let d = c.gate(reg).fanins()[0];
                assert_eq!(
                    t.value(f, reg),
                    t.value(f - 1, d),
                    "register {} at frame {f}",
                    c.gate(reg).name()
                );
            }
        }
    }

    #[test]
    fn constants_hold_their_value() {
        let mut b = CircuitBuilder::new("c");
        b.input("a");
        b.constant("one", true).unwrap();
        b.gate("x", GateKind::And, &["a", "one"]).unwrap();
        b.output("x").unwrap();
        let c = b.build().unwrap();
        let t = FrameTrace::simulate(&c, SimConfig::small());
        let one = c.find("one").unwrap();
        for f in 0..t.frames() {
            assert_eq!(
                t.value(f, one).count_ones() as usize,
                t.config().num_vectors
            );
        }
        // x equals a.
        let a = c.find("a").unwrap();
        let x = c.find("x").unwrap();
        for f in 0..t.frames() {
            assert_eq!(t.value(f, a), t.value(f, x));
        }
    }

    #[test]
    fn inputs_have_half_density() {
        let c = samples::s27_like();
        let t = FrameTrace::simulate(&c, SimConfig::default());
        for &pi in c.inputs() {
            let act = t.activity(pi);
            assert!((0.45..0.55).contains(&act), "activity {act}");
        }
    }

    #[test]
    fn matches_scalar_engine_bit_for_bit() {
        for (name, c) in [
            ("s27", samples::s27_like()),
            ("fig1", samples::fig1_like()),
            ("pipeline", samples::pipeline(7, 2)),
        ] {
            let cfg = SimConfig::small();
            let arena = FrameTrace::simulate(&c, cfg);
            let scalar = ScalarTrace::simulate(&c, cfg);
            for f in 0..cfg.frames {
                for (id, _) in c.iter() {
                    assert_eq!(
                        arena.value(f, id).words(),
                        scalar.value(f, id).as_words(),
                        "{name}: {id} frame {f}"
                    );
                }
            }
            assert!(arena.engine().is_clean());
        }
    }

    #[test]
    fn threaded_simulation_is_bit_identical() {
        let c = samples::fig1_like();
        let base = FrameTrace::simulate(&c, SimConfig::small());
        for threads in [2, 3, 7] {
            let t = FrameTrace::simulate(
                &c,
                SimConfig {
                    threads,
                    ..SimConfig::small()
                },
            );
            assert_eq!(t.engine().threads, threads);
            assert!(t.engine().is_clean(), "threads={threads}");
            for f in 0..t.frames() {
                for (id, _) in c.iter() {
                    assert_eq!(base.value(f, id), t.value(f, id), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn sabotaged_worker_trips_breaker_and_falls_back() {
        let c = samples::fig1_like();
        let cfg = SimConfig {
            seed: SABOTAGE_SIM_SEED,
            threads: 2,
            ..SimConfig::small()
        };
        let t = FrameTrace::simulate(&c, cfg);
        assert_eq!(t.engine().trips, 1, "sabotage must trip the audit");
        assert!(t.engine().scalar_fallback);
        // The fallback result is the scalar engine's, bit for bit.
        let scalar = ScalarTrace::simulate(&c, cfg);
        for f in 0..cfg.frames {
            for (id, _) in c.iter() {
                assert_eq!(t.value(f, id).words(), scalar.value(f, id).as_words());
            }
        }
        // The same seed without threads is not sabotaged.
        let serial = FrameTrace::simulate(&c, SimConfig { threads: 1, ..cfg });
        assert!(serial.engine().is_clean());
        for f in 0..cfg.frames {
            for (id, _) in c.iter() {
                assert_eq!(t.value(f, id), serial.value(f, id));
            }
        }
    }
}
