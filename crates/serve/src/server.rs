//! Protocol frontends: newline-delimited JSON over stdin/stdout, or
//! over a unix socket with one reader thread per connection.
//!
//! One request per line; responses and asynchronous job events share
//! the output stream, every line a single JSON object tagged with an
//! `"event"` field. Closing stdin (or sending `{"op":"drain"}`) drains
//! the daemon: admission stops, queued and running jobs finish, the
//! final `{"event":"drained"}` line is written, and the process exits
//! cleanly. The process installs no signal handlers — a supervisor
//! that wants a graceful stop closes the daemon's input, which is the
//! portable equivalent of SIGTERM here.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::daemon::{Daemon, Event, ServeConfig, SubmitError};
use crate::job::{JobSpec, JobState, NetlistFormat};
use crate::json::Json;

/// A line sink shared by the request handler and the event pump.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

fn write_line(w: &SharedWriter, v: &Json) {
    let mut w = w.lock().expect("writer poisoned");
    let _ = writeln!(w, "{v}");
    let _ = w.flush();
}

/// Serializes a daemon event onto the wire.
pub fn event_to_json(event: &Event) -> Json {
    let base = |kind: &str, id: &str| vec![("event", Json::str(kind)), ("id", Json::str(id))];
    match event {
        Event::Queued { id } => Json::obj(base("queued", id)),
        Event::Parsing { id } => Json::obj(base("parsing", id)),
        Event::Parsed { id, key, gates } => {
            let mut o = base("parsed", id);
            o.push(("key", Json::str(key)));
            o.push(("gates", Json::num(*gates as f64)));
            Json::obj(o)
        }
        Event::Levelized { id, levels } => {
            let mut o = base("levelized", id);
            o.push(("levels", Json::num(*levels as f64)));
            Json::obj(o)
        }
        Event::Iteration {
            id,
            method,
            iterations,
            commits,
        } => {
            let mut o = base("iteration", id);
            o.push(("method", Json::str(*method)));
            o.push(("iterations", Json::num(*iterations as f64)));
            o.push(("commits", Json::num(*commits as f64)));
            Json::obj(o)
        }
        Event::Terminal {
            id,
            state,
            cached,
            key,
        } => {
            let mut o = base("done", id);
            o.push(("status", Json::str(state.name())));
            o.push(("exit", Json::num(f64::from(state.exit_code().unwrap_or(3)))));
            o.push(("cached", Json::Bool(*cached)));
            if let Some(key) = key {
                o.push(("key", Json::str(key)));
            }
            if let JobState::Failed { error, .. } = state {
                o.push(("error", Json::str(error)));
            }
            Json::obj(o)
        }
        Event::Drained => Json::obj(vec![("event", Json::str("drained"))]),
    }
}

fn job_state_json(id: &str, state: &JobState) -> Json {
    let mut o = vec![
        ("event", Json::str("status")),
        ("id", Json::str(id)),
        ("state", Json::str(state.name())),
    ];
    if let Some(exit) = state.exit_code() {
        o.push(("exit", Json::num(f64::from(exit))));
    }
    if let JobState::Running {
        method,
        iterations,
        commits,
    } = state
    {
        o.push(("method", Json::str(*method)));
        o.push(("iterations", Json::num(*iterations as f64)));
        o.push(("commits", Json::num(*commits as f64)));
    }
    if let JobState::Failed { error, .. } = state {
        o.push(("error", Json::str(error)));
    }
    Json::obj(o)
}

fn error_json(context: &str, message: &str) -> Json {
    Json::obj(vec![
        ("event", Json::str("error")),
        ("context", Json::str(context)),
        ("reason", Json::str(message)),
    ])
}

/// Builds a [`JobSpec`] from a `submit` request object, resolving a
/// `"path"` submission to inline content and generating an id when the
/// client did not choose one.
fn spec_from_request(v: &Json, next_id: &AtomicU64) -> Result<JobSpec, String> {
    let mut obj = match v {
        Json::Obj(pairs) => pairs.clone(),
        _ => return Err("submit body must be an object".into()),
    };
    if let Some(path) = v.get("path").and_then(Json::as_str) {
        if v.get("source").is_some() {
            return Err("give `source` or `path`, not both".into());
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        obj.push(("source".into(), Json::Str(text)));
        if v.get("format").is_none() {
            let ext = Path::new(path)
                .extension()
                .and_then(|e| e.to_str())
                .unwrap_or("");
            let format = NetlistFormat::from_name(ext)
                .ok_or_else(|| format!("cannot infer a netlist format from `{path}`"))?;
            obj.push(("format".into(), Json::str(format.name())));
        }
        obj.retain(|(k, _)| k != "path");
    }
    if v.get("id").is_none() {
        let n = next_id.fetch_add(1, Ordering::Relaxed);
        obj.push(("id".into(), Json::str(format!("job-{n}"))));
    }
    JobSpec::from_json(&Json::Obj(obj))
}

fn submit_error_json(id: Option<&str>, err: &SubmitError) -> Json {
    let mut o = vec![
        ("event", Json::str("rejected")),
        ("reason", Json::str(err.to_string())),
    ];
    if let Some(id) = id {
        o.insert(1, ("id", Json::str(id)));
    }
    if matches!(err, SubmitError::QueueFull { .. }) {
        o.push(("retry", Json::Bool(true)));
    }
    Json::obj(o)
}

/// Handles one request line. Returns `true` when the connection asked
/// the daemon to drain.
fn handle_request(daemon: &Daemon, line: &str, out: &SharedWriter, next_id: &AtomicU64) -> bool {
    let line = line.trim();
    if line.is_empty() {
        return false;
    }
    let v = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            write_line(out, &error_json("parse", &e));
            return false;
        }
    };
    let op = v.get("op").and_then(Json::as_str).unwrap_or("");
    match op {
        "submit" => match spec_from_request(&v, next_id) {
            Ok(spec) => {
                let id = spec.id.clone();
                match daemon.submit(spec) {
                    Ok(()) => write_line(
                        out,
                        &Json::obj(vec![
                            ("event", Json::str("accepted")),
                            ("id", Json::str(&id)),
                        ]),
                    ),
                    Err(e) => write_line(out, &submit_error_json(Some(&id), &e)),
                }
            }
            Err(e) => write_line(out, &error_json("submit", &e)),
        },
        "status" => match v.get("id").and_then(Json::as_str) {
            Some(id) => match daemon.status(id) {
                Some(state) => write_line(out, &job_state_json(id, &state)),
                None => write_line(out, &error_json("status", &format!("unknown job `{id}`"))),
            },
            None => write_line(out, &error_json("status", "missing `id`")),
        },
        "result" => match v.get("id").and_then(Json::as_str) {
            Some(id) => match daemon.result(id) {
                Some((netlist, report)) => write_line(
                    out,
                    &Json::obj(vec![
                        ("event", Json::str("result")),
                        ("id", Json::str(id)),
                        ("netlist", Json::Str(netlist)),
                        ("report", report),
                    ]),
                ),
                None => write_line(
                    out,
                    &error_json("result", &format!("no completed result for `{id}`")),
                ),
            },
            None => write_line(out, &error_json("result", "missing `id`")),
        },
        "cancel" => match v.get("id").and_then(Json::as_str) {
            Some(id) => write_line(
                out,
                &Json::obj(vec![
                    ("event", Json::str("cancel")),
                    ("id", Json::str(id)),
                    ("ok", Json::Bool(daemon.cancel(id))),
                ]),
            ),
            None => write_line(out, &error_json("cancel", "missing `id`")),
        },
        "stats" => {
            let (queued, running, terminal) = daemon.population();
            write_line(
                out,
                &Json::obj(vec![
                    ("event", Json::str("stats")),
                    ("queued", Json::num(queued as f64)),
                    ("running", Json::num(running as f64)),
                    ("terminal", Json::num(terminal as f64)),
                    ("workers", Json::num(daemon.worker_count as f64)),
                    ("cache", daemon.cache().counters.to_json()),
                ]),
            );
        }
        "drain" => {
            write_line(out, &Json::obj(vec![("event", Json::str("draining"))]));
            return true;
        }
        other => write_line(
            out,
            &error_json("request", &format!("unknown op `{other}`")),
        ),
    }
    false
}

/// Runs the stdin/stdout frontend to completion: boots the daemon,
/// pumps events, serves requests until EOF or `drain`, drains, and
/// returns the process exit code (always 0 on a clean drain).
///
/// # Errors
///
/// Returns the daemon boot failure message (cache directory not
/// creatable) — request-level failures are protocol responses, not
/// errors.
pub fn run_stdio(config: ServeConfig) -> Result<u8, String> {
    let stdin = std::io::stdin();
    let out: SharedWriter = Arc::new(Mutex::new(Box::new(std::io::stdout())));
    run_over(config, BufReader::new(stdin.lock()), out)
}

/// [`run_stdio`] over arbitrary streams (tests drive this with pipes).
///
/// # Errors
///
/// See [`run_stdio`].
pub fn run_over(config: ServeConfig, input: impl BufRead, out: SharedWriter) -> Result<u8, String> {
    let daemon = Daemon::start(config).map_err(|e| format!("starting daemon: {e}"))?;
    let events = daemon.events().expect("fresh daemon has an event stream");
    write_line(
        &out,
        &Json::obj(vec![
            ("event", Json::str("ready")),
            ("workers", Json::num(daemon.worker_count as f64)),
            ("queue_capacity", Json::num(daemon.queue_capacity() as f64)),
        ]),
    );

    let pump = {
        let out = Arc::clone(&out);
        std::thread::Builder::new()
            .name("serve-events".into())
            .spawn(move || {
                for event in events {
                    write_line(&out, &event_to_json(&event));
                }
            })
            .expect("spawning the event pump")
    };

    let next_id = AtomicU64::new(1);
    for line in input.lines() {
        let Ok(line) = line else { break };
        if handle_request(&daemon, &line, &out, &next_id) {
            break;
        }
    }

    // EOF or an explicit drain request: finish everything admitted.
    daemon.drain();
    daemon.close_events(); // the pump sees the channel close
    let _ = pump.join();
    Ok(0)
}

/// Runs the unix-socket frontend: accepts connections on `socket`,
/// one request per line per connection, events broadcast to every
/// connected client. Returns on `drain` (from any client).
///
/// # Errors
///
/// Returns bind/boot failure messages.
#[cfg(unix)]
pub fn run_socket(config: ServeConfig, socket: &Path) -> Result<u8, String> {
    use std::os::unix::net::UnixListener;
    use std::sync::atomic::AtomicBool;

    let _ = std::fs::remove_file(socket);
    let listener =
        UnixListener::bind(socket).map_err(|e| format!("binding {}: {e}", socket.display()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("socket setup: {e}"))?;

    let daemon = Daemon::start(config).map_err(|e| format!("starting daemon: {e}"))?;
    let events = daemon.events().expect("fresh daemon has an event stream");
    let clients: Arc<Mutex<Vec<SharedWriter>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));

    let pump = {
        let clients = Arc::clone(&clients);
        std::thread::Builder::new()
            .name("serve-events".into())
            .spawn(move || {
                for event in events {
                    let line = event_to_json(&event);
                    for client in clients.lock().expect("client registry poisoned").iter() {
                        write_line(client, &line);
                    }
                }
            })
            .expect("spawning the event pump")
    };

    let daemon = Arc::new(daemon);
    let next_id = Arc::new(AtomicU64::new(1));
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let writer: SharedWriter = Arc::new(Mutex::new(Box::new(
                    stream
                        .try_clone()
                        .map_err(|e| format!("socket clone: {e}"))?,
                )));
                clients
                    .lock()
                    .expect("client registry poisoned")
                    .push(Arc::clone(&writer));
                write_line(
                    &writer,
                    &Json::obj(vec![
                        ("event", Json::str("ready")),
                        ("workers", Json::num(daemon.worker_count as f64)),
                    ]),
                );
                let daemon = Arc::clone(&daemon);
                let stop = Arc::clone(&stop);
                let next_id = Arc::clone(&next_id);
                // Readers are deliberately detached: a quiet client
                // blocked in `read` must not wedge the drain path.
                std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || {
                        for line in BufReader::new(stream).lines() {
                            let Ok(line) = line else { break };
                            if handle_request(&daemon, &line, &writer, &next_id) {
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    })
                    .expect("spawning a connection reader");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }

    daemon.drain();
    daemon.close_events();
    let _ = pump.join();
    let _ = std::fs::remove_file(socket);
    Ok(0)
}
