//! Integration tests of the Monte-Carlo fault-injection engine against
//! the analytic SER model (the ISSUE's acceptance criteria): agreement
//! on the `netlist::samples` circuits at 100k injections, bit-for-bit
//! determinism for a fixed seed, and statistical compatibility across
//! worker counts.

use bench_harness::solver_bench;
use faultsim::{
    folded_elw_fraction, run_campaign, CampaignConfig, CrossCheck, FaultAtlas, DEFAULT_TOLERANCE,
};
use netlist::{samples, Circuit};
use ser_engine::{analyze, SerConfig};

fn sample_set() -> Vec<(Circuit, i64)> {
    vec![
        (samples::s27_like(), 30),
        (samples::fig1_like(), 25),
        (samples::pipeline(6, 2), 40),
    ]
}

/// The exact expectation of the campaign estimator: Σ over sites of
/// `err(g) · exact_obs(g) · folded(|ELW(g)|)/Φ`, computed from the
/// atlas's own propagation tables. Unlike the analytic report this has
/// no ODC reconvergence approximation, so the campaign must match it to
/// within pure sampling noise.
fn exact_expected_ser(atlas: &FaultAtlas) -> f64 {
    atlas
        .sites()
        .iter()
        .map(|s| {
            let obs = atlas.detection_mask(s.gate).unwrap().density();
            let timing = folded_elw_fraction(atlas.latch_window(s.gate).unwrap(), atlas.phi());
            s.rate * obs * timing
        })
        .sum()
}

#[test]
fn campaign_agrees_with_analytic_ser_on_samples() {
    for (circuit, phi) in sample_set() {
        let ser = SerConfig::small(phi);
        let report = analyze(&circuit, &ser).unwrap();
        let campaign = run_campaign(
            &circuit,
            &ser,
            &CampaignConfig::new(100_000).with_seed(2026),
        )
        .unwrap();
        let check = CrossCheck::compare(&circuit, &report, &campaign, DEFAULT_TOLERANCE);
        assert!(
            check.ser_agrees,
            "{}: analytic SER {:.4e} outside widened CI [{:.4e}, {:.4e}] (gap {:.2}%)\n{}",
            circuit.name(),
            check.analytic_ser,
            check.ser_ci.0,
            check.ser_ci.1,
            check.ser_gap() * 100.0,
            check.summary()
        );
    }
}

#[test]
fn campaign_matches_exact_expectation_within_ci() {
    // Stricter than the analytic comparison: against the exact
    // expectation there is no systematic term, so the unwidened 95%
    // interval must cover it (all three circuits with one seed — a
    // simultaneous-coverage failure is a real bug, not bad luck).
    for (circuit, phi) in sample_set() {
        let ser = SerConfig::small(phi);
        let atlas = FaultAtlas::build(&circuit, &ser, 0).unwrap();
        let expected = exact_expected_ser(&atlas);
        let campaign =
            run_campaign(&circuit, &ser, &CampaignConfig::new(100_000).with_seed(11)).unwrap();
        let (lo, hi) = campaign.ser_ci();
        assert!(
            lo <= expected && expected <= hi,
            "{}: exact expectation {:.5e} outside CI [{:.5e}, {:.5e}]",
            circuit.name(),
            expected,
            lo,
            hi
        );
    }
}

#[test]
fn cross_check_is_deterministic_for_fixed_seed_and_workers() {
    let circuit = samples::s27_like();
    let ser = SerConfig::small(30);
    let cfg = CampaignConfig::new(30_000).with_seed(77).with_workers(3);
    let report = analyze(&circuit, &ser).unwrap();

    let mut checks = (0..2).map(|_| {
        let campaign = run_campaign(&circuit, &ser, &cfg).unwrap();
        CrossCheck::compare(&circuit, &report, &campaign, DEFAULT_TOLERANCE)
    });
    let a = checks.next().unwrap();
    let b = checks.next().unwrap();

    assert_eq!(a.empirical_ser, b.empirical_ser);
    assert_eq!(a.ser_ci, b.ser_ci);
    assert_eq!(a.ser_agrees, b.ser_agrees);
    assert_eq!(a.sites.len(), b.sites.len());
    for (sa, sb) in a.sites.iter().zip(&b.sites) {
        assert_eq!(sa.gate, sb.gate);
        assert_eq!(sa.trials, sb.trials);
        assert_eq!(sa.empirical_p, sb.empirical_p);
        assert_eq!(sa.ci, sb.ci);
        assert_eq!(sa.within, sb.within);
    }
    assert_eq!(a.summary(), b.summary());
}

#[test]
fn different_seeds_differ() {
    let circuit = samples::s27_like();
    let ser = SerConfig::small(30);
    let a = run_campaign(&circuit, &ser, &CampaignConfig::new(30_000).with_seed(1)).unwrap();
    let b = run_campaign(&circuit, &ser, &CampaignConfig::new(30_000).with_seed(2)).unwrap();
    // Identical tallies under different seeds would mean the seed is
    // ignored somewhere.
    assert_ne!(
        a.sites.iter().map(|s| s.trials).collect::<Vec<_>>(),
        b.sites.iter().map(|s| s.trials).collect::<Vec<_>>()
    );
}

#[test]
fn worker_counts_are_statistically_compatible() {
    let circuit = samples::fig1_like();
    let ser = SerConfig::small(25);
    let runs: Vec<_> = [1usize, 2, 5]
        .iter()
        .map(|&w| {
            run_campaign(
                &circuit,
                &ser,
                &CampaignConfig::new(60_000).with_seed(13).with_workers(w),
            )
            .unwrap()
        })
        .collect();
    for pair in runs.windows(2) {
        let (lo, hi) = pair[0].ser_ci();
        let (lo2, hi2) = pair[1].ser_ci();
        assert!(
            lo <= hi2 && lo2 <= hi,
            "CIs [{lo:.4e}, {hi:.4e}] ({} workers) and [{lo2:.4e}, {hi2:.4e}] ({} workers) disjoint",
            pair[0].workers,
            pair[1].workers
        );
    }
}

#[test]
fn register_latch_counts_track_analytic_register_share() {
    let circuit = samples::s27_like();
    let ser = SerConfig::small(30);
    let campaign = run_campaign(&circuit, &ser, &CampaignConfig::new(50_000).with_seed(3)).unwrap();
    assert_eq!(campaign.register_latches.len(), circuit.registers().len());
    // Every latch is attributed to at least one observation point
    // (a register input or a primary output).
    let attributed: u64 = campaign
        .register_latches
        .iter()
        .map(|&(_, n)| n)
        .sum::<u64>()
        + campaign.po_latches;
    assert!(
        attributed >= campaign.latches,
        "{attributed} attributions < {} latches",
        campaign.latches
    );
    // The circuit's registers do capture faults under the small config.
    assert!(
        campaign.register_latches.iter().any(|&(_, n)| n > 0),
        "no register ever latched in 50k injections"
    );
}

#[test]
fn atlas_work_stays_inside_the_fanout_cones_on_the_1k_fixture_recipe() {
    // The atlas propagates each flip only through the gates it reaches.
    // A full resimulation evaluates nodes × frames × |topo| gates;
    // difference propagation spends about 11% of that on this circuit
    // at the K = 256 used here (14% at K = 2048), so a regression to
    // full resimulation fails the bound.
    let circuit = solver_bench::generated_circuit(1000);
    let mut ser = SerConfig::with_phi(400);
    ser.sim.num_vectors = 256;
    ser.sim.threads = 1;
    let atlas = FaultAtlas::build(&circuit, &ser, 2).unwrap();
    let mut nodes: Vec<_> = atlas.sites().iter().map(|s| s.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let full = (nodes.len() * ser.sim.frames * circuit.topo_order().len()) as u64;
    let spent = atlas.gate_evaluations();
    assert!(spent > 0);
    assert!(
        spent * 4 <= full,
        "atlas spent {spent} gate evaluations, more than 25% of the {full} a full resimulation needs"
    );
}
