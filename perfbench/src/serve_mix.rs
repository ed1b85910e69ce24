//! The `serve_mix` client: a closed loop that keeps a fixed number of
//! jobs outstanding against a serve daemon, either the `retimer serve`
//! binary over its stdin/stdout protocol or the `serve::Daemon` in
//! process (traced run). Both go through [`drive`], so the two runs
//! submit the same jobs in the same order.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::time::Instant;

use serve::json::Json;
use serve::{Daemon, Event, JobSpec};

use crate::inputs::{Kind, Submission};
use crate::proc::Session;

/// A job's terminal event.
#[derive(Debug, Clone)]
pub struct Done {
    /// Job id.
    pub id: String,
    /// Terminal state name (`done`, `failed`, … or `rejected`).
    pub status: String,
    /// Exit code the daemon reported.
    pub exit: i64,
    /// Whether the result came from the result cache.
    pub cached: bool,
    /// Result-cache key.
    pub key: Option<String>,
    /// When the client saw it.
    pub at: Instant,
}

/// A way to reach a daemon.
pub trait Transport {
    /// Submits one job.
    fn submit(&mut self, id: &str, path: &str, method: &str) -> Result<(), String>;
    /// Blocks until the next terminal event.
    fn next_done(&mut self, deadline: Instant) -> Result<Done, String>;
    /// The result body (retimed netlist and report) of a done job.
    fn result(&mut self, id: &str, deadline: Instant) -> Result<String, String>;
}

/// What one round of the mix produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Submit-to-terminal latency per job, in ms.
    pub latencies_ms: Vec<f64>,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs failed: not `done` with exit 0, taking another cache path
    /// than planned, or returning bytes other than the first
    /// computation of their key.
    pub failures: Vec<String>,
    /// First result body per result key.
    pub bodies: BTreeMap<String, String>,
    /// MinObsWin ΔSER of each computed MinObsWin result, in %.
    pub minobswin_dser_pct: Vec<f64>,
    /// First submit to last terminal event, seconds.
    pub wall: f64,
    /// Submit instant per job id.
    pub submitted: HashMap<String, Instant>,
    /// Which jobs computed rather than read the result cache.
    pub computed: Vec<String>,
}

/// Runs one round of `plan` with `window` jobs outstanding. An
/// other-method job waits until its circuit's fresh job is done, and a
/// hit until every computing job is done, so every job takes the cache
/// path the plan gives it.
pub fn drive(
    t: &mut impl Transport,
    plan: &[Submission],
    paths: &[PathBuf],
    window: usize,
    tag: &str,
    deadline: Instant,
) -> Round {
    let mut round = Round::default();
    let mut pending: VecDeque<usize> = (0..plan.len()).collect();
    let mut fresh_done = vec![false; paths.len()];
    let mut computing_left = plan.iter().filter(|s| s.kind != Kind::Hit).count();
    let mut outstanding: HashMap<String, usize> = HashMap::new();
    let mut first_submit = None;
    let mut last_done = None;
    loop {
        while outstanding.len() < window {
            let ready = |s: &Submission| match s.kind {
                Kind::Fresh => true,
                Kind::OtherMethod => fresh_done[s.circuit],
                Kind::Hit => computing_left == 0,
            };
            let Some(pos) = pending.iter().position(|&i| ready(&plan[i])) else {
                break;
            };
            let i = pending.remove(pos).expect("position is in range");
            let s = plan[i];
            let id = format!("{tag}-{i}");
            let path = paths[s.circuit].to_string_lossy();
            let at = Instant::now();
            first_submit.get_or_insert(at);
            round.attempted += 1;
            match t.submit(&id, &path, s.method()) {
                Ok(()) => {
                    round.submitted.insert(id.clone(), at);
                    outstanding.insert(id, i);
                }
                Err(e) => {
                    round.failures.push(format!("{id}: submit: {e}"));
                    fresh_done[s.circuit] |= s.kind == Kind::Fresh;
                    computing_left -= usize::from(s.kind != Kind::Hit);
                }
            }
        }
        if outstanding.is_empty() {
            break;
        }
        let done = match t.next_done(deadline) {
            Ok(done) => done,
            Err(e) => {
                // Every outstanding and every never-submitted job is
                // lost: one failure each, so `failed` stays exact.
                let mut lost: Vec<String> = outstanding.into_keys().collect();
                lost.sort();
                lost.extend(pending.iter().map(|i| format!("{tag}-{i}")));
                round.attempted += pending.len() as u64;
                round
                    .failures
                    .extend(lost.into_iter().map(|id| format!("{id}: lost: {e}")));
                break;
            }
        };
        let Some(i) = outstanding.remove(&done.id) else {
            continue;
        };
        let s = plan[i];
        last_done = Some(done.at);
        let submitted = round.submitted[&done.id];
        round
            .latencies_ms
            .push(done.at.duration_since(submitted).as_secs_f64() * 1e3);
        fresh_done[s.circuit] |= s.kind == Kind::Fresh;
        computing_left -= usize::from(s.kind != Kind::Hit);
        if let Err(e) = check_job(t, &mut round, s, &done, deadline) {
            round.failures.push(format!("{}: {e}", done.id));
        }
    }
    if let (Some(a), Some(b)) = (first_submit, last_done) {
        round.wall = b.duration_since(a).as_secs_f64();
    }
    round
}

fn check_job(
    t: &mut impl Transport,
    round: &mut Round,
    s: Submission,
    done: &Done,
    deadline: Instant,
) -> Result<(), String> {
    if done.status != "done" || done.exit != 0 {
        return Err(format!("ended `{}` with exit {}", done.status, done.exit));
    }
    if done.cached != (s.kind == Kind::Hit) {
        return Err(format!(
            "planned {:?} but the result cache {}",
            s.kind,
            if done.cached { "hit" } else { "missed" }
        ));
    }
    if !done.cached {
        round.computed.push(done.id.clone());
    }
    let key = done.key.clone().ok_or("done without a result key")?;
    let body = t.result(&done.id, deadline)?;
    match round.bodies.get(&key) {
        Some(first) if *first != body => Err(format!(
            "result for {key} differs from its first computation"
        )),
        Some(_) => Ok(()),
        None => {
            if s.kind == Kind::Fresh {
                let report = body.split_once('\n').map_or("", |(r, _)| r);
                let dser = Json::parse(report)
                    .ok()
                    .and_then(|r| r.get("delta_ser").and_then(Json::as_f64))
                    .ok_or("result report lacks delta_ser")?;
                round.minobswin_dser_pct.push(dser * 100.0);
            }
            round.bodies.insert(key, body);
            Ok(())
        }
    }
}

/// A result body as the protocol writes it: the report object on the
/// first line, then the netlist as a JSON string.
fn body(netlist: &str, report: &Json) -> String {
    format!("{report}\n{}", Json::str(netlist))
}

/// Splits a `result` line (`{"event":"result","id":…,"netlist":…,
/// "report":{…}}`, the server's fixed field order) into its id and its
/// body, without decoding the netlist string: `serve::json`'s parser
/// is quadratic in string length, so the client never runs it on a
/// netlist.
fn split_result(line: &str) -> Option<(&str, String)> {
    let rest = line.strip_prefix("{\"event\":\"result\",\"id\":\"")?;
    let (id, rest) = rest.split_once('"')?;
    let netlist = rest.strip_prefix(",\"netlist\":")?;
    let cut = netlist.rfind(",\"report\":")?;
    let report = netlist[cut..]
        .strip_prefix(",\"report\":")?
        .strip_suffix('}')?;
    Some((id, format!("{report}\n{}", &netlist[..cut])))
}

/// `retimer serve` over its stdin/stdout protocol.
pub struct Stdio<'a> {
    /// The daemon process.
    pub session: &'a mut Session,
    backlog: VecDeque<(Instant, Json)>,
}

impl<'a> Stdio<'a> {
    /// Wraps a spawned daemon whose `ready` line was already read.
    pub fn new(session: &'a mut Session) -> Self {
        Self {
            session,
            backlog: VecDeque::new(),
        }
    }

    fn next_json(&mut self, deadline: Instant) -> Result<(Instant, Json), String> {
        if let Some(x) = self.backlog.pop_front() {
            return Ok(x);
        }
        let (at, line) = self
            .session
            .next_line(deadline)
            .ok_or("the daemon went quiet or closed its output")?;
        Ok((
            at,
            Json::parse(&line).map_err(|e| format!("bad line `{line}`: {e}"))?,
        ))
    }
}

fn field<'j>(v: &'j Json, key: &str) -> Option<&'j str> {
    v.get(key).and_then(Json::as_str)
}

impl Transport for Stdio<'_> {
    fn submit(&mut self, id: &str, path: &str, method: &str) -> Result<(), String> {
        let req = Json::obj(vec![
            ("op", Json::str("submit")),
            ("id", Json::str(id)),
            ("path", Json::str(path)),
            ("method", Json::str(method)),
        ]);
        self.session
            .send(&req.to_string())
            .map_err(|e| e.to_string())
    }

    fn next_done(&mut self, deadline: Instant) -> Result<Done, String> {
        loop {
            let (at, v) = self.next_json(deadline)?;
            let event = field(&v, "event").unwrap_or("");
            let status = match event {
                "done" => field(&v, "status").unwrap_or(""),
                "rejected" => "rejected",
                _ => continue,
            };
            return Ok(Done {
                id: field(&v, "id").unwrap_or("").to_string(),
                status: status.to_string(),
                exit: v.get("exit").and_then(Json::as_f64).unwrap_or(-1.0) as i64,
                cached: v.get("cached") == Some(&Json::Bool(true)),
                key: field(&v, "key").map(str::to_string),
                at,
            });
        }
    }

    fn result(&mut self, id: &str, deadline: Instant) -> Result<String, String> {
        let req = Json::obj(vec![("op", Json::str("result")), ("id", Json::str(id))]);
        self.session
            .send(&req.to_string())
            .map_err(|e| e.to_string())?;
        let mut held = Vec::new();
        let out = loop {
            let (at, line) = match self.session.next_line(deadline) {
                Some(x) => x,
                None => break Err("no reply to the result request".to_string()),
            };
            if line.starts_with("{\"event\":\"result\"") {
                match split_result(&line) {
                    Some((got, body)) if got == id => break Ok(body),
                    Some(_) => continue,
                    None => break Err("malformed result line".to_string()),
                }
            }
            let v = Json::parse(&line).map_err(|e| format!("bad line `{line}`: {e}"))?;
            match field(&v, "event") {
                Some("error") if field(&v, "context") == Some("result") => {
                    break Err(field(&v, "reason").unwrap_or("result refused").to_string())
                }
                _ => held.push((at, v)),
            }
        };
        self.backlog.extend(held);
        out
    }
}

/// Per-job event times of the in-process daemon.
#[derive(Debug, Clone, Copy, Default)]
pub struct Marks {
    /// `parsing` event.
    pub parsing: Option<Instant>,
    /// `parsed` event.
    pub parsed: Option<Instant>,
    /// `levelized` event.
    pub levelized: Option<Instant>,
    /// Terminal event.
    pub done: Option<Instant>,
}

/// The `serve::Daemon` in process.
pub struct InProcess<'a> {
    /// The daemon.
    pub daemon: &'a Daemon,
    /// Its event stream.
    pub events: &'a Receiver<Event>,
    /// Event times per job id.
    pub marks: HashMap<String, Marks>,
}

impl Transport for InProcess<'_> {
    fn submit(&mut self, id: &str, path: &str, method: &str) -> Result<(), String> {
        // What the server does with a `path` submission: inline the
        // file's text and infer the format from the extension.
        let source = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let spec = JobSpec::from_json(&Json::obj(vec![
            ("id", Json::str(id)),
            ("source", Json::Str(source)),
            ("format", Json::str("bench")),
            ("method", Json::str(method)),
        ]))?;
        self.daemon.submit(spec).map_err(|e| e.to_string())
    }

    fn next_done(&mut self, deadline: Instant) -> Result<Done, String> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let event = self
                .events
                .recv_timeout(left)
                .map_err(|_| "the daemon went quiet".to_string())?;
            let at = Instant::now();
            let id = event.job_id().unwrap_or("").to_string();
            let marks = self.marks.entry(id.clone()).or_default();
            match event {
                Event::Parsing { .. } => marks.parsing = Some(at),
                Event::Parsed { .. } => marks.parsed = Some(at),
                Event::Levelized { .. } => marks.levelized = Some(at),
                Event::Terminal {
                    state, cached, key, ..
                } => {
                    marks.done = Some(at);
                    return Ok(Done {
                        id,
                        status: state.name().to_string(),
                        exit: i64::from(state.exit_code().unwrap_or(3)),
                        cached,
                        key,
                        at,
                    });
                }
                _ => {}
            }
        }
    }

    fn result(&mut self, id: &str, _deadline: Instant) -> Result<String, String> {
        let (netlist, report) = self
            .daemon
            .result(id)
            .ok_or_else(|| format!("no completed result for `{id}`"))?;
        Ok(body(&netlist, &report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::serve_plan;
    use std::collections::HashSet;

    /// A daemon that finishes jobs in submission order and serves a
    /// fixed body per result key, except a corrupted body for the job
    /// named in `corrupt`.
    #[derive(Default)]
    struct Fake {
        queue: VecDeque<(String, String)>,
        computed: HashSet<String>,
        in_flight_computing: usize,
        hit_sent_while_computing: bool,
        key_of: HashMap<String, String>,
        corrupt: Option<String>,
        /// Terminal events sent before the daemon goes quiet.
        dies_after: Option<usize>,
    }

    impl Transport for Fake {
        fn submit(&mut self, id: &str, path: &str, method: &str) -> Result<(), String> {
            let key = format!("{path}:{method}");
            if self.computed.contains(&key) {
                self.hit_sent_while_computing |= self.in_flight_computing > 0;
            } else {
                self.in_flight_computing += 1;
            }
            self.key_of.insert(id.to_string(), key.clone());
            self.queue.push_back((id.to_string(), key));
            Ok(())
        }

        fn next_done(&mut self, _deadline: Instant) -> Result<Done, String> {
            if let Some(left) = self.dies_after.as_mut() {
                if *left == 0 {
                    return Err("the daemon went quiet".into());
                }
                *left -= 1;
            }
            let (id, key) = self.queue.pop_front().ok_or("nothing queued")?;
            let cached = !self.computed.insert(key.clone());
            if !cached {
                self.in_flight_computing -= 1;
            }
            Ok(Done {
                id,
                status: "done".into(),
                exit: 0,
                cached,
                key: Some(key),
                at: Instant::now(),
            })
        }

        fn result(&mut self, id: &str, _deadline: Instant) -> Result<String, String> {
            let key = &self.key_of[id];
            let netlist = if self.corrupt.as_deref() == Some(id) {
                "x"
            } else {
                key
            };
            Ok(body(
                netlist,
                &Json::obj(vec![("delta_ser", Json::num(-0.1))]),
            ))
        }
    }

    fn run(corrupt: Option<&str>) -> Round {
        let paths = vec![PathBuf::from("a.bench"), PathBuf::from("b.bench")];
        let mut fake = Fake {
            corrupt: corrupt.map(str::to_string),
            ..Fake::default()
        };
        let plan = serve_plan(3, 0, paths.len());
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let round = drive(&mut fake, &plan, &paths, 3, "t", deadline);
        assert!(!fake.hit_sent_while_computing, "a hit overtook a solve");
        round
    }

    #[test]
    fn every_job_takes_its_planned_cache_path() {
        let round = run(None);
        assert_eq!(
            round.attempted as usize,
            4 + crate::inputs::SERVE_HITS_PER_ROUND
        );
        assert!(round.failures.is_empty(), "{:?}", round.failures);
        assert_eq!(round.computed.len(), 4);
        assert_eq!(round.minobswin_dser_pct, vec![-10.0, -10.0]);
    }

    #[test]
    fn a_hit_with_corrupted_bytes_fails() {
        // Job 4 is the first hit of the plan.
        let round = run(Some("t-4"));
        assert_eq!(round.failures.len(), 1, "{:?}", round.failures);
        assert!(round.failures[0].contains("differs from its first computation"));
    }

    #[test]
    fn a_daemon_that_dies_mid_round_fails_every_lost_job() {
        let paths = vec![PathBuf::from("a.bench"), PathBuf::from("b.bench")];
        let mut fake = Fake {
            dies_after: Some(2),
            ..Fake::default()
        };
        let plan = serve_plan(3, 0, paths.len());
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let round = drive(&mut fake, &plan, &paths, 3, "t", deadline);
        // Two jobs finished; the one still outstanding and every job
        // never submitted are lost, one failure each.
        assert_eq!(round.attempted as usize, plan.len());
        assert_eq!(round.latencies_ms.len(), 2);
        assert_eq!(round.failures.len(), plan.len() - 2, "{:?}", round.failures);
        let ids: HashSet<&str> = round
            .failures
            .iter()
            .map(|f| f.split(':').next().unwrap())
            .collect();
        assert_eq!(ids.len(), plan.len() - 2, "each lost job once");
    }

    #[test]
    fn result_lines_split_like_the_in_process_body() {
        let netlist = "# serve\nINPUT(a)\nOUTPUT(b)\nb = NOT(a)\n\"q\"\t\\";
        let report = Json::obj(vec![
            ("exit", Json::num(0.0)),
            ("delta_ser", Json::num(-0.25)),
        ]);
        // The line exactly as the server writes it.
        let line = Json::obj(vec![
            ("event", Json::str("result")),
            ("id", Json::str("r0-7")),
            ("netlist", Json::Str(netlist.to_string())),
            ("report", report.clone()),
        ])
        .to_string();
        let (id, split) = split_result(&line).unwrap();
        assert_eq!(id, "r0-7");
        assert_eq!(split, body(netlist, &report));
        assert!(split_result("{\"event\":\"result\",\"id\":\"x\"}").is_none());
    }
}
