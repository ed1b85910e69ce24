//! Chaos soak: the daemon under a seeded filesystem fault plan
//! (ENOSPC, torn writes, bit flips, orphaned tmp files, read EIO)
//! must complete every job with results byte-identical to a
//! fault-free run, quarantine every corrupted entry instead of
//! serving it, keep a capped cache under its budget with the eviction
//! counters ticking, and come back healthy after a restart.
//!
//! The fault plan is process-global (`netlist::fio`), so every test
//! here serializes on one lock and clears the plan on exit — even the
//! tests that inject no faults, which must not run concurrently with
//! one that does.
//!
//! Cache directories live under `target/chaos-cache/` and are removed
//! on success only: a failing run leaves its quarantine directory
//! behind for CI to upload as an artifact.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use netlist::digest::{circuit_digest, format_digest};
use netlist::fio::{self, FaultPlan};
use netlist::{bench_format, generator::GeneratorConfig, samples};
use serve::daemon::{Daemon, ServeConfig};
use serve::job::{JobSpec, JobState, NetlistFormat};
use serve::{config_fingerprint, ResultCache};

static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn lock_plan() -> MutexGuard<'static, ()> {
    // A previous test's panic (with the plan already cleared by the
    // drop guard) must not poison the rest of the suite.
    PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears the global fault plan when the test exits, pass or fail.
struct ClearPlanOnDrop;

impl Drop for ClearPlanOnDrop {
    fn drop(&mut self) {
        fio::clear();
    }
}

fn chaos_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/chaos-cache")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The soak workload: 3 circuits × 12 stimulus seeds = 36 jobs, all
/// distinct result keys, each small enough to solve in well under a
/// second.
fn chaos_specs() -> Vec<JobSpec> {
    let sources = [
        ("s27", bench_format::write(&samples::s27_like())),
        (
            "gen-a",
            bench_format::write(
                &GeneratorConfig::new("chaos-a", 5)
                    .gates(60)
                    .registers(12)
                    .build(),
            ),
        ),
        (
            "gen-b",
            bench_format::write(
                &GeneratorConfig::new("chaos-b", 9)
                    .gates(80)
                    .registers(16)
                    .build(),
            ),
        ),
    ];
    let mut specs = Vec::new();
    for (name, source) in &sources {
        for k in 0..12u64 {
            let mut spec = JobSpec::new(format!("{name}-{k}"), source, NetlistFormat::Bench);
            spec.vectors = 64;
            spec.frames = 4;
            spec.seed = 0xBEEF + k;
            specs.push(spec);
        }
    }
    assert_eq!(specs.len(), 36);
    specs
}

fn wait_terminal(daemon: &Daemon, id: &str, timeout: Duration) -> JobState {
    let deadline = Instant::now() + timeout;
    loop {
        let state = daemon
            .status(id)
            .unwrap_or_else(|| panic!("job `{id}` unknown to the daemon"));
        if state.is_terminal() {
            return state;
        }
        assert!(
            Instant::now() < deadline,
            "job `{id}` not terminal after {timeout:?}; last state {state:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn start_daemon(dir: &PathBuf, workers: usize) -> Daemon {
    let mut config = ServeConfig::new(dir);
    config.workers = workers;
    config.queue_capacity = 128;
    Daemon::start(config).expect("daemon boots")
}

/// The headline soak. Phase 1 runs the 36-job workload fault-free and
/// records every result netlist. Phase 2 reruns it on a fresh cache
/// under a seeded fault plan covering every category: all 36 jobs must
/// still complete, every readable result must be byte-identical, and
/// any result whose stored bytes were corrupted must be quarantined on
/// read — never served — and recompute byte-identically. Phase 3
/// proves the survived cache fscks clean.
#[test]
fn chaos_soak_matches_fault_free_run_byte_for_byte() {
    let _lock = lock_plan();
    let specs = chaos_specs();

    // --- phase 1: fault-free baseline --------------------------------
    let baseline_dir = chaos_dir("baseline");
    let daemon = start_daemon(&baseline_dir, 4);
    for spec in &specs {
        daemon.submit(spec.clone()).expect("baseline job admitted");
    }
    let mut baseline: HashMap<String, String> = HashMap::new();
    for spec in &specs {
        assert_eq!(
            wait_terminal(&daemon, &spec.id, Duration::from_secs(300)),
            JobState::Done,
            "baseline `{}` must complete",
            spec.id
        );
    }
    for spec in &specs {
        let (bench, _) = daemon.result(&spec.id).expect("baseline result readable");
        baseline.insert(spec.id.clone(), bench);
    }
    daemon.drain();

    // --- phase 2: the same workload under injected faults -------------
    let _clear = ClearPlanOnDrop;
    fio::install(
        FaultPlan::parse("seed=0xC0FFEE,enospc=7,tear=5,flip=9,orphan=11,eio-read=13")
            .expect("chaos plan parses"),
    );
    fio::reset_stats();
    let soak_dir = chaos_dir("soak");
    let daemon = start_daemon(&soak_dir, 4);
    for spec in &specs {
        daemon.submit(spec.clone()).expect("chaos job admitted");
    }
    for spec in &specs {
        let state = wait_terminal(&daemon, &spec.id, Duration::from_secs(300));
        assert_eq!(
            state,
            JobState::Done,
            "chaos job `{}` must complete despite injected faults",
            spec.id
        );
    }
    let stats = fio::stats();
    assert!(stats.enospc_injected > 0, "no ENOSPC injected: {stats:?}");
    assert!(
        stats.torn_injected > 0,
        "no torn writes injected: {stats:?}"
    );
    assert!(stats.flips_injected > 0, "no bit flips injected: {stats:?}");
    assert!(stats.orphans_injected > 0, "no orphans injected: {stats:?}");
    assert!(stats.eio_injected > 0, "no read EIO injected: {stats:?}");

    // Stop injecting before comparing, so the byte-identity phase
    // exercises verify-on-read against real on-disk damage only.
    fio::clear();
    let mut healed = 0usize;
    for spec in &specs {
        match daemon.result(&spec.id) {
            Some((bench, _)) => assert_eq!(
                bench, baseline[&spec.id],
                "chaos result `{}` diverged from the fault-free run",
                spec.id
            ),
            None => {
                // The stored result was corrupted by injection (or
                // never landed, under ENOSPC/orphan): the read path
                // refused to serve it. Resubmitting the identical
                // content must recompute the identical bytes.
                let mut again = spec.clone();
                again.id = format!("heal-{}", spec.id);
                daemon.submit(again.clone()).expect("heal job admitted");
                assert_eq!(
                    wait_terminal(&daemon, &again.id, Duration::from_secs(300)),
                    JobState::Done
                );
                let (bench, _) = daemon.result(&again.id).expect("healed result readable");
                assert_eq!(
                    bench, baseline[&spec.id],
                    "recomputed result `{}` diverged from the fault-free run",
                    again.id
                );
                healed += 1;
            }
        }
    }
    println!(
        "chaos soak: {} fault(s) injected ({stats:?}), {healed} result(s) recomputed, \
         {} entr(y/ies) quarantined",
        stats.total_injected(),
        daemon.cache().counters.quarantined()
    );
    daemon.drain();

    // --- phase 3: the survived cache fscks clean ----------------------
    let cache = ResultCache::open(&soak_dir).expect("cache reopens");
    let first = cache.fsck();
    let second = cache.fsck();
    assert_eq!(
        (second.tmp_removed, second.quarantined),
        (0, 0),
        "fsck must be idempotent (first pass: {first:?})"
    );
    assert!(second.entries > 0, "the healthy entries survive fsck");

    let _ = std::fs::remove_dir_all(&baseline_dir);
    let _ = std::fs::remove_dir_all(&soak_dir);
}

/// Deterministic verify-on-read: flip one byte of a stored result on
/// disk; resubmitting the identical job must quarantine the damaged
/// entry (counter + preserved file), recompute, and return bytes
/// identical to the pristine result.
#[test]
fn targeted_corruption_is_quarantined_and_recomputed() {
    let _lock = lock_plan();
    let dir = chaos_dir("targeted");
    let daemon = start_daemon(&dir, 2);

    let source = bench_format::write(&samples::s27_like());
    let mut spec = JobSpec::new("victim", &source, NetlistFormat::Bench);
    spec.vectors = 64;
    spec.frames = 4;
    daemon.submit(spec.clone()).expect("job admitted");
    assert_eq!(
        wait_terminal(&daemon, "victim", Duration::from_secs(120)),
        JobState::Done
    );
    let (pristine, _) = daemon.result("victim").expect("pristine result readable");

    // Compute the result key the daemon used and damage its entry.
    let circuit = bench_format::parse(&source, "serve").expect("canonical source parses");
    let result_key = ResultCache::result_key(
        &format_digest(circuit_digest(&circuit)),
        config_fingerprint(&spec),
    );
    let entry = dir.join("result").join(format!("{result_key}.bench"));
    let mut bytes = std::fs::read(&entry).expect("result entry exists on disk");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&entry, &bytes).expect("corruption lands");

    let mut again = spec.clone();
    again.id = "victim-again".into();
    daemon.submit(again).expect("resubmission admitted");
    assert_eq!(
        wait_terminal(&daemon, "victim-again", Duration::from_secs(120)),
        JobState::Done
    );
    let (recomputed, _) = daemon.result("victim-again").expect("recomputed readable");
    assert_eq!(
        recomputed, pristine,
        "recompute must match the pristine bytes"
    );
    assert!(
        daemon.cache().counters.quarantined() >= 1,
        "the damaged entry must be counted as quarantined"
    );
    let quarantined: Vec<_> = std::fs::read_dir(daemon.cache().quarantine_dir())
        .expect("quarantine dir exists")
        .filter_map(Result::ok)
        .collect();
    assert!(
        !quarantined.is_empty(),
        "the damaged bytes must be preserved in quarantine/"
    );
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A capped cache never exceeds its budget across a workload much
/// larger than the cap, and the eviction counters prove LRU ran.
#[test]
fn capped_cache_stays_under_budget_with_evictions() {
    let _lock = lock_plan();
    let dir = chaos_dir("capped");
    let budget: u64 = 16 * 1024;
    let mut config = ServeConfig::new(&dir);
    config.workers = 2;
    config.queue_capacity = 64;
    config.cache_max_bytes = Some(budget);
    let daemon = Daemon::start(config).expect("daemon boots");

    // 12 distinct circuits, each leaving a result entry behind; far
    // more than 16 KiB in aggregate.
    let mut ids = Vec::new();
    for k in 0..12u64 {
        let source = bench_format::write(
            &GeneratorConfig::new(format!("cap-{k}"), 20 + k)
                .gates(60)
                .registers(12)
                .build(),
        );
        let mut spec = JobSpec::new(format!("cap-{k}"), &source, NetlistFormat::Bench);
        spec.vectors = 64;
        spec.frames = 4;
        daemon.submit(spec).expect("job admitted");
        ids.push(format!("cap-{k}"));
    }
    for id in &ids {
        assert_eq!(
            wait_terminal(&daemon, id, Duration::from_secs(300)),
            JobState::Done,
            "capped-cache job `{id}` must still complete"
        );
    }
    daemon.drain();
    assert!(
        daemon.cache().counters.evictions() > 0,
        "a 16 KiB budget under this workload must evict"
    );
    let used = daemon.cache().stage_bytes();
    assert!(
        used <= budget,
        "result/ over budget after drain: {used} > {budget}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon that lived through an orphan-heavy fault plan (every
/// other write abandons its `.tmp` file) leaves debris behind; the
/// next daemon's startup fsck must clean it and serve jobs normally.
#[test]
fn restart_after_chaos_heals_and_serves() {
    let _lock = lock_plan();
    let dir = chaos_dir("restart");
    let source = bench_format::write(&samples::s27_like());

    {
        let _clear = ClearPlanOnDrop;
        fio::install(FaultPlan::parse("seed=7,orphan=2,tear=3").expect("plan parses"));
        fio::reset_stats();
        let daemon = start_daemon(&dir, 2);
        for k in 0..4 {
            let mut spec = JobSpec::new(format!("pre-{k}"), &source, NetlistFormat::Bench);
            spec.vectors = 64;
            spec.frames = 4;
            spec.seed = k;
            daemon.submit(spec).expect("job admitted");
        }
        for k in 0..4 {
            wait_terminal(&daemon, &format!("pre-{k}"), Duration::from_secs(120));
        }
        daemon.drain();
        assert!(fio::stats().total_injected() > 0, "the plan never fired");
        fio::clear();
    }

    // The second daemon fscks at startup, then serves normally.
    let daemon = start_daemon(&dir, 2);
    for stage in ["result", "jobs"] {
        let leftovers: Vec<_> = std::fs::read_dir(dir.join(stage))
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| p.to_string_lossy().ends_with(".tmp"))
                    .collect()
            })
            .unwrap_or_default();
        assert!(
            leftovers.is_empty(),
            "startup fsck left tmp orphans in {stage}/: {leftovers:?}"
        );
    }
    let mut spec = JobSpec::new("post-restart", &source, NetlistFormat::Bench);
    spec.vectors = 64;
    spec.frames = 4;
    daemon.submit(spec).expect("job admitted after restart");
    assert_eq!(
        wait_terminal(&daemon, "post-restart", Duration::from_secs(120)),
        JobState::Done,
        "the healed daemon must serve jobs"
    );
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt solver checkpoint planted where the daemon will try to
/// resume must be detected by its seal, set aside, and solved from
/// scratch — still `Done`, never a wrong resume and never a crash.
#[test]
fn corrupt_checkpoint_self_heals_to_done() {
    let _lock = lock_plan();
    let dir = chaos_dir("ckpt");
    let daemon = start_daemon(&dir, 1);

    let source = bench_format::write(&samples::s27_like());
    let mut spec = JobSpec::new("resume-me", &source, NetlistFormat::Bench);
    spec.vectors = 64;
    spec.frames = 4;

    // Plant a seal-mismatched checkpoint exactly where this job's
    // solve will look for one (after startup fsck, which would
    // otherwise quarantine it first).
    let circuit = bench_format::parse(&source, "serve").expect("canonical source parses");
    let result_key = ResultCache::result_key(
        &format_digest(circuit_digest(&circuit)),
        config_fingerprint(&spec),
    );
    let ckpt = dir
        .join("jobs")
        .join(format!("{result_key}.minobswin.ckpt"));
    std::fs::write(
        &ckpt,
        "#%seal fnv1a-v1:0000000000000000\nnot a checkpoint at all\n",
    )
    .expect("corrupt checkpoint planted");

    daemon.submit(spec).expect("job admitted");
    assert_eq!(
        wait_terminal(&daemon, "resume-me", Duration::from_secs(120)),
        JobState::Done,
        "a corrupt checkpoint must degrade to a fresh solve, not a failure"
    );
    assert!(
        daemon.result("resume-me").is_some(),
        "the fresh solve's result must be readable"
    );
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job whose `deadline_ms` elapses while it waits in the queue is
/// rejected at dequeue as `Expired` (exit 5); a job with a generous
/// deadline runs normally. The single worker is held with
/// [`Daemon::pause`] until the deadline has surely passed, so no job
/// can free it early, however fast the build.
#[test]
fn queued_past_deadline_expires_with_exit_5() {
    let _lock = lock_plan();
    let dir = chaos_dir("deadline");
    let daemon = start_daemon(&dir, 1);
    daemon.pause();

    let source = bench_format::write(&samples::s27_like());
    let mut doomed = JobSpec::new("doomed", &source, NetlistFormat::Bench);
    doomed.vectors = 64;
    doomed.frames = 4;
    doomed.deadline_ms = Some(1);
    daemon.submit(doomed).expect("doomed job admitted");

    let mut patient = JobSpec::new("patient", &source, NetlistFormat::Bench);
    patient.vectors = 64;
    patient.frames = 4;
    patient.deadline_ms = Some(600_000);
    daemon.submit(patient).expect("patient job admitted");

    // The deadline clock starts at admission; outwait it while held.
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(daemon.status("doomed"), Some(JobState::Queued));
    daemon.resume();
    let state = wait_terminal(&daemon, "doomed", Duration::from_secs(120));
    assert_eq!(state, JobState::Expired, "1 ms deadline must expire");
    assert_eq!(state.exit_code(), Some(5));
    assert_eq!(state.name(), "expired");
    assert_eq!(
        wait_terminal(&daemon, "patient", Duration::from_secs(120)),
        JobState::Done,
        "a generous deadline must not expire"
    );
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// In-process specs bypass `JobSpec::from_json`, so the dequeue guard
/// applies the SER engine's size rule (`SimConfig::check`) itself: a
/// size the engine cannot run fails the job with exit 2 instead of
/// panicking the worker.
#[test]
fn in_process_spec_with_an_unrunnable_size_fails_with_exit_2() {
    let _lock = lock_plan();
    let dir = chaos_dir("bad-size");
    let daemon = start_daemon(&dir, 1);
    let source = bench_format::write(&samples::s27_like());
    let mut vectors = JobSpec::new("vectors", &source, NetlistFormat::Bench);
    vectors.vectors = 100;
    let mut frames = JobSpec::new("frames", &source, NetlistFormat::Bench);
    frames.vectors = 64;
    frames.frames = 0;
    daemon.submit(vectors).expect("admitted");
    daemon.submit(frames).expect("admitted");
    for (id, error) in [
        (
            "vectors",
            "`vectors` must be a positive multiple of 64, got 100",
        ),
        ("frames", "`frames` must be positive, got 0"),
    ] {
        let state = wait_terminal(&daemon, id, Duration::from_secs(60));
        assert_eq!(
            state,
            JobState::Failed {
                exit: 2,
                error: error.into()
            }
        );
    }
    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}
