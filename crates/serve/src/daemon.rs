//! The daemon: a bounded job queue, a worker pool over the solver
//! pipeline, and the event stream gluing them to a protocol frontend.
//!
//! Locking discipline: one mutex guards the queue and the job table;
//! no worker holds it while parsing or solving. Progress callbacks
//! take it briefly to update the job's `Running` snapshot.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use minobswin::experiment::{self, checkpoint_path, RunConfig};
use minobswin::supervisor::ProgressFn;
use minobswin::{CancelToken, SolveBudget, SolveProgress};
use netlist::digest::{circuit_digest, format_digest};
use netlist::parallel::resolve_workers;
use netlist::{bench_format, Circuit, Levelization, ParseLimits};

use crate::cache::{config_fingerprint, ResultCache};
use crate::job::{JobId, JobSpec, JobState, NetlistFormat};
use crate::json::Json;

/// All jobs are parsed under this circuit name so the canonical text
/// — and therefore every cache key — depends only on netlist content,
/// never on the job id or submitting file name.
const CANONICAL_NAME: &str = "serve";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent solve workers (`0`: resolve via `SER_THREADS` /
    /// available parallelism, like every other parallel surface).
    pub workers: usize,
    /// Admission bound: jobs queued (not yet running) beyond this are
    /// rejected with backpressure instead of buffered without limit.
    pub queue_capacity: usize,
    /// Cache directory (see [`ResultCache`]).
    pub cache_dir: PathBuf,
    /// Default per-job wall-clock budget in seconds, applied when a
    /// spec does not set its own.
    pub default_time_budget: Option<f64>,
    /// Default per-job iteration budget.
    pub default_max_iters: Option<usize>,
    /// Size budget for the cache's `result/` directory, enforced by LRU
    /// eviction (`None`: unbounded). See
    /// [`ResultCache::with_max_bytes`].
    pub cache_max_bytes: Option<u64>,
}

impl ServeConfig {
    /// A configuration with the given cache directory and the default
    /// knobs (resolved workers, queue of 64, unlimited budgets).
    pub fn new(cache_dir: impl Into<PathBuf>) -> Self {
        Self {
            workers: 0,
            queue_capacity: 64,
            cache_dir: cache_dir.into(),
            default_time_budget: None,
            default_max_iters: None,
            cache_max_bytes: None,
        }
    }
}

/// Why a submission was rejected at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The daemon is draining and admits nothing new.
    Draining,
    /// The queue is full (backpressure; resubmit later).
    QueueFull {
        /// The configured bound that was hit.
        capacity: usize,
    },
    /// A live or finished job already uses this id.
    DuplicateId,
    /// The id is empty, too long, or contains characters unsafe for a
    /// file name.
    InvalidId(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Draining => write!(f, "daemon is draining"),
            SubmitError::QueueFull { capacity } => {
                write!(f, "queue is full (capacity {capacity})")
            }
            SubmitError::DuplicateId => write!(f, "job id already in use"),
            SubmitError::InvalidId(why) => write!(f, "invalid job id: {why}"),
        }
    }
}

/// One entry in the daemon's event stream. A frontend serializes
/// these onto its wire; tests consume them directly.
#[derive(Debug, Clone)]
pub enum Event {
    /// The job was admitted.
    Queued {
        /// Job id.
        id: JobId,
    },
    /// A worker started parsing the job's netlist.
    Parsing {
        /// Job id.
        id: JobId,
    },
    /// The netlist parsed.
    Parsed {
        /// Job id.
        id: JobId,
        /// The tagged circuit digest (the cache key prefix).
        key: String,
        /// Gates in the circuit.
        gates: usize,
    },
    /// The circuit is levelized; the result lookup (and, on a miss,
    /// the solve) is next.
    Levelized {
        /// Job id.
        id: JobId,
        /// Combinational levels.
        levels: usize,
    },
    /// Periodic solver progress. A job solves only its own method, so
    /// all of its iteration events carry that method.
    Iteration {
        /// Job id.
        id: JobId,
        /// The job's method (`"minobs"` / `"minobswin"`).
        method: &'static str,
        /// Total solver iterations so far.
        iterations: usize,
        /// Committed improvement rounds so far.
        commits: usize,
    },
    /// The job reached a terminal state.
    Terminal {
        /// Job id.
        id: JobId,
        /// The terminal state (`Done` / `Degraded` / `Cancelled` /
        /// `Failed` / `Expired`).
        state: JobState,
        /// Whether the result came from the cache.
        cached: bool,
        /// The result-stage cache key, when one exists.
        key: Option<String>,
    },
    /// Drain finished: every admitted job is terminal and all workers
    /// exited.
    Drained,
}

impl Event {
    /// The job id this event concerns (`None` for [`Event::Drained`]).
    pub fn job_id(&self) -> Option<&str> {
        match self {
            Event::Queued { id }
            | Event::Parsing { id }
            | Event::Parsed { id, .. }
            | Event::Levelized { id, .. }
            | Event::Iteration { id, .. }
            | Event::Terminal { id, .. } => Some(id),
            Event::Drained => None,
        }
    }
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    token: CancelToken,
    cancel_requested: bool,
    result_key: Option<String>,
    /// When this process admitted the job; the `deadline_ms` clock.
    /// Recovered jobs get a fresh clock — a restart must not expire
    /// everything that sat out the downtime.
    admitted: Instant,
}

struct State {
    pending: VecDeque<JobId>,
    jobs: HashMap<JobId, JobEntry>,
    /// Jobs reserved by an in-flight `enqueue` but not yet published
    /// to `pending`; counted against the queue bound so concurrent
    /// admissions cannot overshoot it.
    admitting: usize,
    draining: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    cache: ResultCache,
    tx: Mutex<Sender<Event>>,
    defaults: (Option<f64>, Option<usize>),
}

impl Shared {
    fn emit(&self, event: Event) {
        // A disconnected receiver (frontend gone) must not wedge the
        // workers; drop the event instead.
        let _ = self.tx.lock().expect("event sender poisoned").send(event);
    }

    fn set_state(&self, id: &str, state: JobState) {
        let mut st = self.state.lock().expect("daemon state poisoned");
        if let Some(entry) = st.jobs.get_mut(id) {
            entry.state = state;
        }
    }
}

/// The running daemon. Construct with [`Daemon::start`]; shut down
/// with [`Daemon::drain`].
pub struct Daemon {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    rx: Mutex<Option<Receiver<Event>>>,
    capacity: usize,
    /// Resolved worker count (for banners and tests).
    pub worker_count: usize,
}

impl Daemon {
    /// Starts the worker pool and re-enqueues any jobs a previous
    /// daemon process persisted but never finished (their solver
    /// checkpoints, if any, are resumed). Before recovery scanning,
    /// one [`ResultCache::fsck`] pass heals the cache: orphaned
    /// `.tmp` files from interrupted writes are removed and corrupt
    /// entries quarantined, so recovery never trusts a torn file.
    ///
    /// # Errors
    ///
    /// Propagates cache-directory creation failures.
    pub fn start(config: ServeConfig) -> io::Result<Self> {
        let cache = ResultCache::open(&config.cache_dir)?.with_max_bytes(config.cache_max_bytes);
        let fsck = cache.fsck();
        if fsck.dirty() {
            eprintln!(
                "warning: cache fsck healed {}: removed {} orphaned tmp file(s), \
                 quarantined {} corrupt entr(y/ies)",
                config.cache_dir.display(),
                fsck.tmp_removed,
                fsck.quarantined
            );
        }
        let recovered = cache.scan_jobs();
        let (tx, rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: VecDeque::new(),
                jobs: HashMap::new(),
                admitting: 0,
                draining: false,
            }),
            cv: Condvar::new(),
            cache,
            tx: Mutex::new(tx),
            defaults: (config.default_time_budget, config.default_max_iters),
        });

        let worker_count = resolve_workers(config.workers);
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a serve worker")
            })
            .collect();

        let daemon = Self {
            shared,
            workers: Mutex::new(workers),
            rx: Mutex::new(Some(rx)),
            capacity: config.queue_capacity.max(1),
            worker_count,
        };
        for spec in recovered {
            // Recovery bypasses the admission bound: these jobs were
            // already admitted once.
            let _ = daemon.enqueue(spec, false);
        }
        Ok(daemon)
    }

    /// Takes the event stream (once). Subsequent calls return `None`.
    pub fn events(&self) -> Option<Receiver<Event>> {
        self.rx.lock().expect("event receiver poisoned").take()
    }

    /// The daemon's cache (counters, direct lookups).
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// The admission bound on queued jobs.
    pub fn queue_capacity(&self) -> usize {
        self.capacity
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`]; the queue bound and drain state are
    /// enforced here, before the spec is persisted.
    pub fn submit(&self, spec: JobSpec) -> Result<(), SubmitError> {
        validate_id(&spec.id).map_err(SubmitError::InvalidId)?;
        self.enqueue(spec, true)
    }

    fn enqueue(&self, spec: JobSpec, enforce_capacity: bool) -> Result<(), SubmitError> {
        // Phase 1: reserve. The entry exists (so duplicate ids bounce
        // and cancel can find it) but is NOT in `pending` yet, so no
        // worker can pick it up — and therefore cannot finish it and
        // delete its recovery file — before that file is written.
        {
            let mut st = self.shared.state.lock().expect("daemon state poisoned");
            if st.draining {
                return Err(SubmitError::Draining);
            }
            if st.jobs.contains_key(&spec.id) {
                return Err(SubmitError::DuplicateId);
            }
            // The bound is on waiting jobs: running and finished jobs
            // do not count against admission. `admitting` covers jobs
            // reserved here but not yet published to `pending`.
            if enforce_capacity && st.pending.len() + st.admitting >= self.capacity {
                return Err(SubmitError::QueueFull {
                    capacity: self.capacity,
                });
            }
            st.admitting += 1;
            st.jobs.insert(
                spec.id.clone(),
                JobEntry {
                    spec: spec.clone(),
                    state: JobState::Queued,
                    token: CancelToken::new(),
                    cancel_requested: false,
                    result_key: None,
                    admitted: Instant::now(),
                },
            );
        }
        // Phase 2: persist outside the lock — recovery survives a kill
        // from here on.
        let _ = self.shared.cache.persist_job(&spec);
        // Phase 3: publish. A cancel may have raced the admission and
        // already marked the entry terminal; honour it instead of
        // handing a dead job to a worker.
        {
            let mut st = self.shared.state.lock().expect("daemon state poisoned");
            st.admitting -= 1;
            match st.jobs.get(&spec.id) {
                Some(entry) if entry.state.is_terminal() => {
                    self.shared.cache.remove_job(&spec.id);
                    return Ok(());
                }
                _ => st.pending.push_back(spec.id.clone()),
            }
        }
        self.shared.emit(Event::Queued {
            id: spec.id.clone(),
        });
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Requests cancellation. Queued jobs terminate immediately;
    /// running jobs stop at the solver's next cancellation poll.
    /// Returns `false` for unknown or already-terminal jobs.
    pub fn cancel(&self, id: &str) -> bool {
        let mut st = self.shared.state.lock().expect("daemon state poisoned");
        let Some(entry) = st.jobs.get_mut(id) else {
            return false;
        };
        if entry.state.is_terminal() {
            return false;
        }
        entry.cancel_requested = true;
        entry.token.cancel();
        if entry.state == JobState::Queued {
            entry.state = JobState::Cancelled;
            st.pending.retain(|p| p != id);
            drop(st);
            self.shared.cache.remove_job(id);
            self.shared.emit(Event::Terminal {
                id: id.to_string(),
                state: JobState::Cancelled,
                cached: false,
                key: None,
            });
        }
        true
    }

    /// The current state of a job.
    pub fn status(&self, id: &str) -> Option<JobState> {
        let st = self.shared.state.lock().expect("daemon state poisoned");
        st.jobs.get(id).map(|e| e.state.clone())
    }

    /// The retimed netlist and report of a completed (`Done`) job.
    pub fn result(&self, id: &str) -> Option<(String, Json)> {
        let key = {
            let st = self.shared.state.lock().expect("daemon state poisoned");
            let entry = st.jobs.get(id)?;
            if entry.state != JobState::Done {
                return None;
            }
            entry.result_key.clone()?
        };
        self.shared.cache.peek_result(&key)
    }

    /// Counts of jobs by liveness: `(queued, running, terminal)`.
    pub fn population(&self) -> (usize, usize, usize) {
        let st = self.shared.state.lock().expect("daemon state poisoned");
        let queued = st.pending.len();
        let terminal = st.jobs.values().filter(|e| e.state.is_terminal()).count();
        (queued, st.jobs.len() - terminal - queued, terminal)
    }

    /// Stops admitting, lets every queued and running job reach a
    /// terminal state, joins the workers and emits [`Event::Drained`].
    /// Idempotent; concurrent callers all return once the drain is
    /// complete.
    pub fn drain(&self) {
        {
            let mut st = self.shared.state.lock().expect("daemon state poisoned");
            st.draining = true;
        }
        self.shared.cv.notify_all();
        let handles: Vec<_> = {
            let mut workers = self.workers.lock().expect("worker registry poisoned");
            workers.drain(..).collect()
        };
        if handles.is_empty() {
            return; // another caller drained (or is draining) already
        }
        for handle in handles {
            let _ = handle.join();
        }
        self.shared.emit(Event::Drained);
    }

    /// Closes the event stream: the receiver returned by
    /// [`Daemon::events`] disconnects once in-flight events are
    /// consumed. Call after [`Daemon::drain`] so an event pump
    /// iterating the receiver terminates.
    pub fn close_events(&self) {
        *self.shared.tx.lock().expect("event sender poisoned") = mpsc::channel().0;
    }

    /// Whether drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared
            .state
            .lock()
            .expect("daemon state poisoned")
            .draining
    }
}

fn validate_id(id: &str) -> Result<(), String> {
    if id.is_empty() {
        return Err("empty".into());
    }
    if id.len() > 64 {
        return Err(format!("{} bytes long (max 64)", id.len()));
    }
    if let Some(bad) = id
        .chars()
        .find(|c| !c.is_ascii_alphanumeric() && !matches!(c, '-' | '_' | '.'))
    {
        return Err(format!("contains `{bad}` (use [A-Za-z0-9._-])"));
    }
    if id.starts_with('.') {
        return Err("starts with `.`".into());
    }
    Ok(())
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut st = shared.state.lock().expect("daemon state poisoned");
            loop {
                if let Some(id) = st.pending.pop_front() {
                    break id;
                }
                if st.draining {
                    return;
                }
                st = shared.cv.wait(st).expect("daemon state poisoned");
            }
        };
        run_job(shared, &id);
    }
}

/// Runs one job to a terminal state. Never panics the worker: every
/// failure path maps onto `JobState::Failed` with a stable exit code.
fn run_job(shared: &Arc<Shared>, id: &str) {
    let (spec, token, admitted, cancelled_early) = {
        let st = shared.state.lock().expect("daemon state poisoned");
        let Some(entry) = st.jobs.get(id) else { return };
        (
            entry.spec.clone(),
            entry.token.clone(),
            entry.admitted,
            entry.state.is_terminal(),
        )
    };
    if cancelled_early {
        return;
    }

    let finish = |state: JobState, cached: bool, key: Option<String>| {
        shared.set_state(id, state.clone());
        shared.cache.remove_job(id);
        shared.emit(Event::Terminal {
            id: id.to_string(),
            state,
            cached,
            key,
        });
    };

    // --- spec sanity --------------------------------------------------
    // In-process `JobSpec`s bypass `JobSpec::from_json`, and a size the
    // SER engine cannot run would panic the worker thread deep in the
    // solver. Reject it as a job failure (exit 2, like every other
    // invalid input) instead.
    let sim = spec.sim();
    if let Err(e) = sim.check() {
        finish(
            JobState::Failed {
                exit: 2,
                error: format!("{e}, got {}", e.got),
            },
            false,
            None,
        );
        return;
    }

    // --- admission deadline ------------------------------------------
    // Checked at dequeue: a job that waited out its deadline in the
    // queue is rejected without spending any solver time on it. A job
    // that *starts* in time runs to completion regardless.
    if spec
        .deadline_ms
        .is_some_and(|ms| admitted.elapsed() >= Duration::from_millis(ms))
    {
        finish(JobState::Expired, false, None);
        return;
    }

    // --- parse and levelize ------------------------------------------
    shared.set_state(id, JobState::Parsing);
    shared.emit(Event::Parsing { id: id.to_string() });
    let circuit = match parse_job(&spec) {
        Ok(c) => c,
        Err(e) => {
            let error = e.to_string();
            let exit = minobswin::SolveError::Netlist(e).exit_code();
            finish(JobState::Failed { exit, error }, false, None);
            return;
        }
    };
    let circuit_key = format_digest(circuit_digest(&circuit));
    shared.emit(Event::Parsed {
        id: id.to_string(),
        key: circuit_key.clone(),
        gates: circuit.len(),
    });
    shared.set_state(id, JobState::Levelized);
    shared.emit(Event::Levelized {
        id: id.to_string(),
        levels: Levelization::of(&circuit).num_levels(),
    });

    // --- result cache ------------------------------------------------
    let result_key = ResultCache::result_key(&circuit_key, config_fingerprint(&spec));
    {
        let mut st = shared.state.lock().expect("daemon state poisoned");
        if let Some(entry) = st.jobs.get_mut(id) {
            entry.result_key = Some(result_key.clone());
        }
    }
    if shared.cache.lookup_result(&result_key).is_some() {
        finish(JobState::Done, true, Some(result_key));
        return;
    }

    // --- solve -------------------------------------------------------
    let budget = SolveBudget::new()
        .with_wall_time(
            spec.time_budget
                .or(shared.defaults.0)
                .map(Duration::from_secs_f64),
        )
        .with_max_iterations(spec.max_iters.or(shared.defaults.1))
        .with_token(token);

    let checkpoint_prefix = shared.cache.checkpoint_prefix(&result_key);
    let method = spec.method.name();
    let progress: Arc<ProgressFn> = {
        let shared = Arc::clone(shared);
        let id = id.to_string();
        Arc::new(move |p: SolveProgress| {
            shared.set_state(
                &id,
                JobState::Running {
                    method,
                    iterations: p.iterations,
                    commits: p.commits,
                },
            );
            shared.emit(Event::Iteration {
                id: id.clone(),
                method,
                iterations: p.iterations,
                commits: p.commits,
            });
        })
    };
    let cfg = RunConfig::default()
        .with_sim(sim)
        .with_r_min_override(spec.r_min)
        .with_budget(budget)
        .with_checkpoint(Some(checkpoint_prefix.clone()))
        .with_resume(true);

    // Only the job's own method is solved.
    let solved = experiment::prepare(&circuit, &cfg).and_then(|prepared| {
        let solved = experiment::solve(&prepared, &cfg, spec.method, Some(progress))?;
        Ok((prepared, solved))
    });

    // Either way the solve is over; drop its checkpoint (a finished
    // run must not leave resume bait behind).
    let _ = netlist::fio::remove_file(&checkpoint_path(&checkpoint_prefix, method));

    let cancel_requested = {
        let st = shared.state.lock().expect("daemon state poisoned");
        st.jobs.get(id).is_some_and(|e| e.cancel_requested)
    };

    let fail = |e: minobswin::SolveError| {
        finish(
            JobState::Failed {
                exit: e.exit_code(),
                error: e.to_string(),
            },
            false,
            Some(result_key.clone()),
        );
    };
    let (prepared, (solution, seconds)) = match solved {
        Ok(solved) => solved,
        Err(e) => return fail(e),
    };
    if solution.stats.degradation.budget_stop.is_some() {
        let state = if cancel_requested {
            JobState::Cancelled
        } else {
            JobState::Degraded
        };
        finish(state, false, Some(result_key));
        return;
    }

    // Clean completion: rebuild the retimed netlist, cache, done.
    let evaluated = match experiment::evaluate(&prepared, solution, seconds) {
        Ok(evaluated) => evaluated,
        Err(e) => return fail(e),
    };
    let result = &evaluated.result;
    let bench = bench_format::write(&evaluated.circuit);
    let meta = Json::obj(vec![
        ("exit", Json::num(0.0)),
        ("method", Json::str(method)),
        ("circuit_key", Json::str(&circuit_key)),
        ("registers", Json::num(result.registers as f64)),
        ("delta_ff", Json::num(result.delta_ff)),
        ("ser", Json::num(result.ser)),
        ("delta_ser", Json::num(result.delta_ser)),
        ("ser_original", Json::num(prepared.original.ser)),
        ("ser_propprob", Json::num(prepared.ser_propprob)),
        ("phi", Json::num(prepared.init.phi as f64)),
        ("r_min", Json::num(prepared.r_min as f64)),
        ("iterations", Json::num(result.stats.iterations as f64)),
        ("commits", Json::num(result.stats.commits as f64)),
    ]);
    let _ = shared.cache.store_result(&result_key, &bench, &meta);
    finish(JobState::Done, false, Some(result_key));
}

fn parse_job(spec: &JobSpec) -> Result<Circuit, netlist::NetlistError> {
    let limits = ParseLimits::default();
    let parsed = spec
        .format
        .parse_str(&spec.source, CANONICAL_NAME, &limits)?;
    // `.bench` carries the canonical name already; BLIF and Verilog
    // take theirs from `.model`/`module`, so they are renamed.
    Ok(match spec.format {
        NetlistFormat::Bench => parsed,
        NetlistFormat::Blif | NetlistFormat::Verilog => rename_canonical(parsed),
    })
}

/// Round-trips a circuit through `.bench` under the canonical name, so
/// the `.model`/`module` name never reaches the cache key.
fn rename_canonical(circuit: Circuit) -> Circuit {
    let text = bench_format::write(&circuit);
    bench_format::parse(&text, CANONICAL_NAME)
        .expect("invariant: bench writer output always re-parses")
}
