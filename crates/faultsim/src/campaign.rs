//! The Monte-Carlo injection campaign itself.
//!
//! Each injection draws a `(site, vector, arrival, width)` tuple:
//!
//! * **site** — a gate or register, with probability ∝ `err(g)`
//!   (importance sampling over the rate model, so the empirical SER is
//!   `total_rate × latches/trials`),
//! * **vector** — one of the `K` simulated input vectors, uniform,
//! * **arrival** — a real strike time `t ∈ [0, Φ)`, uniform,
//! * **width** — the transient pulse width (fixed per campaign).
//!
//! A strike *latches* iff the flip propagates to an observation point
//! under that vector (table lookup in the [`FaultAtlas`]) **and** the
//! pulse `[t, t+w]`, folded modulo the clock period, overlaps the
//! node's error-latching window. This is exactly the logic × timing
//! masking decomposition of the paper's eq. (4), evaluated per sample
//! instead of in expectation.
//!
//! Workers each own a PRNG stream split off the campaign seed with
//! [`SplitMix64`], and partial tallies merge by summation in worker
//! order, so a campaign is bit-for-bit deterministic for a fixed
//! `(seed, workers)` pair regardless of thread scheduling.

use netlist::rng::{SplitMix64, Xoshiro256};
use netlist::{Circuit, GateId};
use ser_engine::{IntervalSet, SerConfig};

use crate::atlas::FaultAtlas;
use crate::stats::wilson_interval;

/// Parameters of one Monte-Carlo campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Total number of injections to draw.
    pub injections: u64,
    /// Campaign seed; same seed + same worker count ⇒ identical result.
    pub seed: u64,
    /// Worker threads (`0` = one per available core).
    pub workers: usize,
    /// Transient pulse width, in the same time units as the delay model
    /// and Φ. `0.0` models an instantaneous flip, which is what the
    /// analytic `|ELW|/Φ` factor assumes.
    pub pulse_width: f64,
    /// Critical value for confidence intervals (1.96 ≈ 95%).
    pub z: f64,
}

impl CampaignConfig {
    /// A campaign of `injections` strikes with default seed, automatic
    /// worker count, zero pulse width and 95% intervals.
    pub fn new(injections: u64) -> Self {
        Self {
            injections,
            seed: 0x5EED_FA17,
            workers: 0,
            pulse_width: 0.0,
            z: 1.96,
        }
    }

    /// Sets the campaign seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker count (`0` = one per available core).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the transient pulse width.
    pub fn with_pulse_width(mut self, width: f64) -> Self {
        assert!(width >= 0.0, "pulse width must be non-negative");
        self.pulse_width = width;
        self
    }
}

/// Per-site tallies of a finished campaign.
#[derive(Debug, Clone)]
pub struct SiteStats {
    /// The struck gate.
    pub gate: GateId,
    /// Its raw rate `err(g)` (the sampling weight).
    pub rate: f64,
    /// Strikes drawn at this site.
    pub trials: u64,
    /// Strikes whose flip reached an observation point (logic
    /// unmasked), before the timing test.
    pub logic_hits: u64,
    /// Strikes that latched (logic unmasked *and* inside the ELW).
    pub latches: u64,
}

impl SiteStats {
    /// Empirical observability `logic_hits / trials` (estimates the
    /// exact `obs(g, n)` of the fault-injection validator).
    pub fn empirical_obs(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.logic_hits as f64 / self.trials as f64
        }
    }

    /// Empirical latch probability `latches / trials` (estimates
    /// `obs(g, n) · |ELW(g)|/Φ`).
    pub fn latch_probability(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.latches as f64 / self.trials as f64
        }
    }

    /// Wilson interval on the latch probability at critical value `z`.
    pub fn latch_ci(&self, z: f64) -> (f64, f64) {
        wilson_interval(self.latches, self.trials, z)
    }
}

/// The outcome of a Monte-Carlo campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Name of the analyzed circuit.
    pub circuit: String,
    /// Injections actually drawn.
    pub injections: u64,
    /// Seed the campaign ran with.
    pub seed: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Critical value used for intervals.
    pub z: f64,
    /// Σ `err(g)` over sites (the SER scale factor).
    pub total_rate: f64,
    /// Clock period Φ.
    pub phi: i64,
    /// Total latched strikes.
    pub latches: u64,
    /// Total logic-unmasked strikes (before the timing test).
    pub logic_hits: u64,
    /// Latched strikes that were visible at a primary output.
    pub po_latches: u64,
    /// Per-site tallies, in site order.
    pub sites: Vec<SiteStats>,
    /// Per-register latch counts `(register, latches)`: strikes that
    /// latched and corrupt that register's last-frame input.
    pub register_latches: Vec<(GateId, u64)>,
}

impl CampaignResult {
    /// Overall empirical latch probability `latches / injections`.
    pub fn latch_probability(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.latches as f64 / self.injections as f64
        }
    }

    /// Wilson interval on the overall latch probability.
    pub fn latch_ci(&self) -> (f64, f64) {
        wilson_interval(self.latches, self.injections, self.z)
    }

    /// Empirical SER: `total_rate × latch_probability` — the
    /// Monte-Carlo estimate of the analytic eq. (4) total.
    pub fn ser(&self) -> f64 {
        self.total_rate * self.latch_probability()
    }

    /// Confidence interval on the empirical SER.
    pub fn ser_ci(&self) -> (f64, f64) {
        let (lo, hi) = self.latch_ci();
        (self.total_rate * lo, self.total_rate * hi)
    }
}

/// Whether a pulse `[t, t+w]`, recurring every `phi` (the strike time
/// is uniform within *some* clock cycle, and the latching windows
/// repeat each cycle), overlaps the interval set.
///
/// For each window `[a, b]` there is an overlapping fold iff some
/// integer `m` satisfies `t + mΦ ≤ b` and `t + w + mΦ ≥ a`, i.e.
/// `⌈(a − w − t)/Φ⌉ ≤ ⌊(b − t)/Φ⌋`.
pub(crate) fn pulse_latches(elw: &IntervalSet, t: f64, width: f64, phi: i64) -> bool {
    let phi = phi as f64;
    elw.intervals().iter().any(|&(a, b)| {
        let m_lo = ((a as f64 - width - t) / phi).ceil();
        let m_hi = ((b as f64 - t) / phi).floor();
        m_lo <= m_hi
    })
}

/// The exact probability that a zero-width strike at a uniform arrival
/// `t ∈ [0, Φ)` latches through `elw` — the measure of the window set
/// folded modulo Φ, over Φ.
///
/// Equals the analytic `|ELW|/Φ` whenever the folded images are
/// disjoint (the common case); strictly smaller when windows from
/// adjacent cycles overlap after folding. This is the exact expectation
/// of the campaign's timing test, useful for tight statistical checks.
pub fn folded_elw_fraction(elw: &IntervalSet, phi: i64) -> f64 {
    assert!(phi > 0, "phi must be positive");
    let mut folded = IntervalSet::new();
    for &(a, b) in elw.intervals() {
        if b - a >= phi {
            return 1.0; // a window longer than the period covers every arrival
        }
        let start = a.rem_euclid(phi);
        let len = b - a;
        if start + len <= phi {
            folded.insert(start, start + len);
        } else {
            folded.insert(start, phi);
            folded.insert(0, start + len - phi);
        }
    }
    folded.total_length() as f64 / phi as f64
}

#[derive(Clone)]
struct Tally {
    trials: Vec<u64>,
    logic: Vec<u64>,
    latch: Vec<u64>,
    reg_latch: Vec<u64>,
    po_latch: u64,
}

impl Tally {
    fn new(sites: usize, regs: usize) -> Self {
        Self {
            trials: vec![0; sites],
            logic: vec![0; sites],
            latch: vec![0; sites],
            reg_latch: vec![0; regs],
            po_latch: 0,
        }
    }

    fn absorb(&mut self, other: &Tally) {
        for (a, b) in self.trials.iter_mut().zip(&other.trials) {
            *a += b;
        }
        for (a, b) in self.logic.iter_mut().zip(&other.logic) {
            *a += b;
        }
        for (a, b) in self.latch.iter_mut().zip(&other.latch) {
            *a += b;
        }
        for (a, b) in self.reg_latch.iter_mut().zip(&other.reg_latch) {
            *a += b;
        }
        self.po_latch += other.po_latch;
    }
}

/// One worker's share of the campaign. Pure function of `(atlas, seed,
/// count, pulse_width)` — the parallel split cannot change any tally.
fn worker_run(atlas: &FaultAtlas, seed: u64, count: u64, pulse_width: f64) -> Tally {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut tally = Tally::new(atlas.sites().len(), atlas.registers().len());
    if atlas.sites().is_empty() {
        return tally; // nothing can be struck, so nothing latches
    }
    let bits = atlas.num_vectors();
    let phi = atlas.phi();
    for _ in 0..count {
        let site_idx = atlas.sample_site(&mut rng);
        let vector = rng.gen_range(bits);
        let arrival = rng.gen_f64() * phi as f64;

        tally.trials[site_idx] += 1;
        let site = &atlas.sites()[site_idx];
        let tables = atlas.tables_of_site(site);
        if !tables.detected.bit(vector) {
            continue; // logically masked
        }
        tally.logic[site_idx] += 1;
        if !pulse_latches(&tables.elw, arrival, pulse_width, phi) {
            continue; // timing masked
        }
        tally.latch[site_idx] += 1;
        for (slot, mask) in tables.reg_corrupt.iter().enumerate() {
            if mask.bit(vector) {
                tally.reg_latch[slot] += 1;
            }
        }
        if tables.po_detect.bit(vector) {
            tally.po_latch += 1;
        }
    }
    tally
}

/// Runs a campaign against a prebuilt atlas.
pub fn run_campaign_on(
    atlas: &FaultAtlas,
    circuit_name: &str,
    config: &CampaignConfig,
) -> CampaignResult {
    assert!(config.z > 0.0, "z must be positive");
    let workers = effective_workers(config.workers, config.injections);

    // Per-worker seeds come from a SplitMix64 stream over the campaign
    // seed; worker i always gets the i-th draw, independent of timing.
    let mut seeder = SplitMix64::new(config.seed);
    let shares: Vec<(u64, u64)> = (0..workers as u64)
        .map(|i| {
            let base = config.injections / workers as u64;
            let extra = u64::from(i < config.injections % workers as u64);
            (seeder.next_u64(), base + extra)
        })
        .collect();

    let mut total = Tally::new(atlas.sites().len(), atlas.registers().len());
    if workers <= 1 {
        if let Some(&(seed, count)) = shares.first() {
            total.absorb(&worker_run(atlas, seed, count, config.pulse_width));
        }
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = shares
                .iter()
                .map(|&(seed, count)| {
                    scope.spawn(move || worker_run(atlas, seed, count, config.pulse_width))
                })
                .collect();
            // Joining in spawn order makes the merge order (and thus
            // any float accumulation) independent of scheduling.
            for handle in handles {
                total.absorb(&handle.join().expect("campaign worker panicked"));
            }
        });
    }

    let sites: Vec<SiteStats> = atlas
        .sites()
        .iter()
        .enumerate()
        .map(|(i, site)| SiteStats {
            gate: site.gate,
            rate: site.rate,
            trials: total.trials[i],
            logic_hits: total.logic[i],
            latches: total.latch[i],
        })
        .collect();
    let latches = total.latch.iter().sum();
    let logic_hits = total.logic.iter().sum();
    let register_latches = atlas
        .registers()
        .iter()
        .zip(&total.reg_latch)
        .map(|(&r, &n)| (r, n))
        .collect();

    CampaignResult {
        circuit: circuit_name.to_string(),
        injections: config.injections,
        seed: config.seed,
        workers,
        z: config.z,
        total_rate: atlas.total_rate(),
        phi: atlas.phi(),
        latches,
        logic_hits,
        po_latches: total.po_latch,
        sites,
        register_latches,
    }
}

/// Builds the atlas for `circuit` and runs a campaign in one call.
///
/// # Errors
///
/// Returns [`retime::RetimeError`] if the circuit cannot be modeled as
/// a retiming graph, as in [`ser_engine::analyze`].
pub fn run_campaign(
    circuit: &Circuit,
    ser: &SerConfig,
    config: &CampaignConfig,
) -> Result<CampaignResult, retime::RetimeError> {
    let atlas = FaultAtlas::build(circuit, ser, config.workers)?;
    Ok(run_campaign_on(&atlas, circuit.name(), config))
}

/// Resolves the worker count through the suite-wide policy
/// ([`netlist::parallel`]: flag > `SER_THREADS` > hardware), capped at
/// 64 workers — beyond that the per-worker injection shares get too
/// small to amortize thread startup.
fn effective_workers(requested: usize, injections: u64) -> usize {
    netlist::parallel::resolve_workers_for(requested, injections.clamp(1, 64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;

    #[test]
    fn pulse_overlap_basic() {
        let elw = IntervalSet::of(20, 22);
        // Inside the window.
        assert!(pulse_latches(&elw, 21.0, 0.0, 30));
        // Outside, zero width.
        assert!(!pulse_latches(&elw, 5.0, 0.0, 30));
        // Outside but wide enough to reach the window.
        assert!(pulse_latches(&elw, 5.0, 15.5, 30));
        // Folding: arrival 21 in the *next* cycle still hits [20, 22].
        assert!(pulse_latches(&elw, 21.0 - 30.0 + 30.0, 0.0, 30));
        // Window beyond phi (register hold region [phi, phi + Th]):
        // an early arrival of the next cycle folds into it.
        let hold = IntervalSet::of(30, 32);
        assert!(pulse_latches(&hold, 1.5, 0.0, 30));
        assert!(!pulse_latches(&hold, 4.0, 0.0, 30));
    }

    #[test]
    fn pulse_latch_probability_matches_elw_fraction() {
        // For zero width and a window inside [0, phi), the latch
        // probability over uniform arrivals is |ELW|/phi.
        let elw = IntervalSet::of(10, 16);
        let phi = 25;
        let mut rng = Xoshiro256::seed_from_u64(3);
        let trials = 200_000;
        let hits = (0..trials)
            .filter(|_| pulse_latches(&elw, rng.gen_f64() * phi as f64, 0.0, phi))
            .count();
        let got = hits as f64 / trials as f64;
        let expect = 6.0 / 25.0;
        assert!((got - expect).abs() < 0.005, "got {got}, expected {expect}");
    }

    #[test]
    fn campaign_is_deterministic_for_fixed_seed_and_workers() {
        let c = samples::s27_like();
        let ser = SerConfig::small(30);
        let cfg = CampaignConfig::new(20_000).with_seed(42).with_workers(3);
        let a = run_campaign(&c, &ser, &cfg).unwrap();
        let b = run_campaign(&c, &ser, &cfg).unwrap();
        assert_eq!(a.latches, b.latches);
        assert_eq!(a.po_latches, b.po_latches);
        for (sa, sb) in a.sites.iter().zip(&b.sites) {
            assert_eq!(sa.trials, sb.trials);
            assert_eq!(sa.latches, sb.latches);
        }
        assert_eq!(a.register_latches, b.register_latches);
    }

    #[test]
    fn worker_counts_agree_statistically() {
        let c = samples::s27_like();
        let ser = SerConfig::small(30);
        let one = run_campaign(&c, &ser, &CampaignConfig::new(40_000).with_workers(1)).unwrap();
        let four = run_campaign(&c, &ser, &CampaignConfig::new(40_000).with_workers(4)).unwrap();
        let (lo, hi) = one.latch_ci();
        let p = four.latch_probability();
        assert!(
            lo <= p && p <= hi,
            "4-worker estimate {p} outside 1-worker CI [{lo}, {hi}]"
        );
    }

    #[test]
    fn zero_width_pulse_probability_in_bounds() {
        let c = samples::fig1_like();
        let ser = SerConfig::small(25);
        let r = run_campaign(&c, &ser, &CampaignConfig::new(10_000)).unwrap();
        assert!(r.latches <= r.logic_hits);
        assert!(r.logic_hits <= r.injections);
        assert!(r.ser() >= 0.0);
        let (lo, hi) = r.ser_ci();
        assert!(lo <= r.ser() && r.ser() <= hi);
    }

    #[test]
    fn a_circuit_without_strike_sites_latches_nothing() {
        let mut b = netlist::CircuitBuilder::new("wire");
        b.input("a");
        b.output("a").unwrap();
        let c = b.build().unwrap();
        let ser = SerConfig::small(30);
        for workers in [1, 3] {
            let cfg = CampaignConfig::new(1_000).with_workers(workers);
            let r = run_campaign(&c, &ser, &cfg).unwrap();
            assert!(r.sites.is_empty());
            assert_eq!((r.latches, r.logic_hits, r.po_latches), (0, 0, 0));
            assert_eq!(r.injections, 1_000);
            assert_eq!(r.ser(), 0.0);
        }
    }

    #[test]
    fn wider_pulses_latch_no_less_often() {
        let c = samples::s27_like();
        let ser = SerConfig::small(30);
        let narrow = run_campaign(&c, &ser, &CampaignConfig::new(20_000).with_seed(9)).unwrap();
        let wide = run_campaign(
            &c,
            &ser,
            &CampaignConfig::new(20_000)
                .with_seed(9)
                .with_pulse_width(5.0),
        )
        .unwrap();
        assert!(wide.latches >= narrow.latches);
    }
}
