//! Property tests over the result-cache key: any configuration change
//! that can alter the solve outcome must change the config
//! fingerprint, while knobs that are bit-identical by construction
//! (thread count) and identity fields (job id, circuit name) must not.

use std::time::{Duration, Instant};

use netlist::digest::{content_digest, format_digest};
use netlist::{bench_format, blif, samples};
use proptest::prelude::*;
use serve::job::{JobSpec, JobState, Method, NetlistFormat};
use serve::{config_fingerprint, Daemon, ResultCache, ServeConfig};

fn base_spec() -> JobSpec {
    JobSpec::new("base", "INPUT(a)\nOUTPUT(a)\n", NetlistFormat::Bench)
}

proptest! {
    /// Changing the iteration budget always changes the key.
    #[test]
    fn max_iters_always_changes_key(n in 1usize..1_000_000) {
        let base = base_spec();
        let mut changed = base.clone();
        changed.max_iters = Some(n);
        prop_assert_ne!(config_fingerprint(&changed), config_fingerprint(&base));
    }

    /// Changing the wall-clock budget always changes the key, and two
    /// distinct budgets never collide with each other.
    #[test]
    fn time_budget_always_changes_key(a in 1u32..100_000, b in 1u32..100_000) {
        let base = base_spec();
        let mut with_a = base.clone();
        with_a.time_budget = Some(f64::from(a) / 10.0);
        let mut with_b = base.clone();
        with_b.time_budget = Some(f64::from(b) / 10.0);
        prop_assert_ne!(config_fingerprint(&with_a), config_fingerprint(&base));
        if a != b {
            prop_assert_ne!(config_fingerprint(&with_a), config_fingerprint(&with_b));
        } else {
            prop_assert_eq!(config_fingerprint(&with_a), config_fingerprint(&with_b));
        }
    }

    /// Changing the `R_min` override always changes the key — even to
    /// values the §V derivation might have chosen anyway.
    #[test]
    fn r_min_always_changes_key(r in -1_000i64..1_000) {
        let base = base_spec();
        let mut changed = base.clone();
        changed.r_min = Some(r);
        prop_assert_ne!(config_fingerprint(&changed), config_fingerprint(&base));
    }

    /// The method and the simulation shape are both part of the key.
    #[test]
    fn solver_knobs_always_change_key(vectors in 64usize..8192, seed in 0u64..u64::MAX) {
        let base = base_spec();

        let mut method = base.clone();
        method.method = Method::MinObs;
        prop_assert_ne!(config_fingerprint(&method), config_fingerprint(&base));

        let mut sim = base.clone();
        sim.vectors = vectors;
        sim.seed = seed;
        if vectors != base.vectors || seed != base.seed {
            prop_assert_ne!(config_fingerprint(&sim), config_fingerprint(&base));
        }
    }

    /// Identity and execution-placement fields are excluded: the same
    /// circuit and config solved under any job id and thread count
    /// shares one cache entry (results are bit-identical across thread
    /// counts by the PR-5 guarantee).
    #[test]
    fn id_and_threads_never_change_key(threads in 0usize..64, tag in 0u32..1_000_000) {
        let base = base_spec();
        let mut changed = base.clone();
        changed.id = format!("other-{tag}");
        changed.threads = threads;
        prop_assert_eq!(config_fingerprint(&changed), config_fingerprint(&base));
    }

    /// The full result key separates distinct circuits even under an
    /// identical config fingerprint.
    #[test]
    fn result_key_separates_circuits(seed in 0u64..5_000) {
        let base = base_spec();
        let fp = config_fingerprint(&base);
        let digest = |text: &str| format_digest(content_digest(text.as_bytes()));
        let a = digest("INPUT(a)\nOUTPUT(a)\n");
        let b = digest(&format!("INPUT(a)\nOUTPUT(a)\n# {seed}\n"));
        prop_assert_ne!(
            ResultCache::result_key(&a, fp),
            ResultCache::result_key(&b, fp)
        );
    }
}

/// Runs `sources` one after another through one fresh daemon and
/// returns each job's cached flag, in order, with its stored result.
fn run_in_order(tag: &str, sources: &[(&str, &str, NetlistFormat)]) -> Vec<(bool, String, String)> {
    let dir = std::env::temp_dir().join(format!("serve-key-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServeConfig::new(&dir);
    config.workers = 1;
    let daemon = Daemon::start(config).expect("daemon boots");
    let mut out = Vec::new();
    for (id, source, format) in sources {
        let hits = daemon.cache().counters.result_hits();
        let mut spec = JobSpec::new(*id, *source, *format);
        spec.vectors = 64;
        spec.frames = 4;
        daemon.submit(spec).expect("job admitted");
        let deadline = Instant::now() + Duration::from_secs(120);
        while !daemon.status(id).is_some_and(|s| s.is_terminal()) {
            assert!(Instant::now() < deadline, "job `{id}` never finished");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(daemon.status(id), Some(JobState::Done), "job `{id}`");
        let (bench, meta) = daemon.result(id).expect("result readable");
        let cached = daemon.cache().counters.result_hits() > hits;
        out.push((cached, bench, meta.to_string()));
    }
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The key ignores the job id and the circuit's name: the same
/// `.bench` under two ids, and the same BLIF under two `.model` names,
/// are each one miss and then one byte-identical hit.
#[test]
fn key_ignores_job_id_and_model_name() {
    let bench = bench_format::write(&samples::s27_like());
    let named =
        |name: &str| blif::write(&bench_format::parse(&bench, name).expect("sample re-parses"));
    let (alpha, beta) = (named("alpha"), named("beta"));
    assert_ne!(alpha, beta, "the two BLIF texts differ in `.model`");

    for (tag, runs) in [
        (
            "ids",
            run_in_order(
                "ids",
                &[
                    ("first", &bench, NetlistFormat::Bench),
                    ("second", &bench, NetlistFormat::Bench),
                ],
            ),
        ),
        (
            "models",
            run_in_order(
                "models",
                &[
                    ("alpha", &alpha, NetlistFormat::Blif),
                    ("beta", &beta, NetlistFormat::Blif),
                ],
            ),
        ),
    ] {
        assert!(!runs[0].0, "{tag}: the first job must miss");
        assert!(runs[1].0, "{tag}: the second job must hit");
        assert_eq!(runs[0].1, runs[1].1, "{tag}: netlists differ");
        assert_eq!(runs[0].2, runs[1].2, "{tag}: reports differ");
    }
}
