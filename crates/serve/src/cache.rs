//! The content-addressed result cache, with self-healing storage.
//!
//! One stage, `result/`, keyed on content rather than on file names or
//! submission order. A result key is the digest of the parsed circuit
//! plus the solve-configuration fingerprint ([`config_fingerprint`]);
//! its payload is the retimed `.bench` text (`<key>.bench`) and a JSON
//! report (`<key>.meta`). Beside it, `jobs/` holds the recovery files
//! of unfinished jobs and their solver checkpoints.
//!
//! The key ignores the job id and the circuit, `.model` or `module`
//! name: every job parses under one canonical name. It does not ignore
//! how a format lays the circuit out. BLIF parsing lists registers
//! first, and the Verilog round trip adds `po*` output buffers, so the
//! same circuit submitted in two formats may get two keys. That costs
//! a second solve, never a wrong answer.
//!
//! Keys embed the self-describing `fnv1a-v1:` tag, so a cache
//! directory written by one digest scheme can never be silently
//! misread by another. All writes go through the fault-injectable
//! `netlist::fio` shim: atomic (`.tmp` + rename, so a killed daemon
//! leaves either the old entry or the new one) **and sealed** — every
//! entry carries an embedded content digest written atomically with
//! the payload.
//!
//! **Verify-on-read**: every read re-hashes the payload against its
//! seal. A torn, bit-flipped or otherwise undecodable entry is moved
//! to `quarantine/` (preserved for inspection, never served, never
//! rewritten in place), a structured warning is printed, and the
//! lookup reports a miss so the pipeline recomputes. Corrupt bytes
//! are never returned to a caller.
//!
//! **Size budget**: with [`ResultCache::with_max_bytes`] set, every
//! store is followed by an LRU eviction pass over `result/`
//! (mtime-ordered; hits touch their entry's mtime, so recency survives
//! restarts without a sidecar). `jobs/` — recovery files and in-flight
//! checkpoints — is never evicted.
//!
//! Only clean exit-0 results are cached. Degraded results depend on
//! where a wall-clock budget happened to expire, so caching them would
//! let one slow run poison every future resubmission.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

use netlist::digest::{parse_digest, Fnv1a};
use netlist::fio;

use crate::job::{JobSpec, Method};
use crate::json::Json;

/// Hit/miss and health counters for the cache. The soak test uses
/// [`CacheCounters::result_hits`] to prove a resubmission was served
/// from the cache rather than re-solved; the chaos soak uses the
/// health counters to prove corruption was detected and contained.
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Result hits.
    pub result_hits: AtomicU64,
    /// Result misses.
    pub result_misses: AtomicU64,
    /// Entries that failed verify-on-read (or fsck) and were moved to
    /// `quarantine/`.
    pub quarantined: AtomicU64,
    /// Eviction units removed by the size-budget pass (a result
    /// `bench`+`meta` pair counts once).
    pub evictions: AtomicU64,
    /// Bytes reclaimed by eviction.
    pub evicted_bytes: AtomicU64,
    /// Failed deletions of terminal jobs' recovery files — previously
    /// swallowed silently; now counted and surfaced in `stats`.
    pub remove_failures: AtomicU64,
}

impl CacheCounters {
    /// Current result hit count.
    pub fn result_hits(&self) -> u64 {
        self.result_hits.load(Ordering::Relaxed)
    }

    /// Current quarantine count.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Current eviction count.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Current count of failed recovery-file deletions.
    pub fn remove_failures(&self) -> u64 {
        self.remove_failures.load(Ordering::Relaxed)
    }

    /// A JSON snapshot (the `stats` protocol response body).
    pub fn to_json(&self) -> Json {
        let n = |c: &AtomicU64| Json::num(c.load(Ordering::Relaxed) as f64);
        Json::obj(vec![
            ("result_hits", n(&self.result_hits)),
            ("result_misses", n(&self.result_misses)),
            ("quarantined", n(&self.quarantined)),
            ("evictions", n(&self.evictions)),
            ("evicted_bytes", n(&self.evicted_bytes)),
            ("remove_failures", n(&self.remove_failures)),
        ])
    }
}

/// What a startup (or `retimer serve --fsck`) integrity pass found and
/// fixed. See [`ResultCache::fsck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsckReport {
    /// Orphaned `.tmp` files removed (interrupted atomic writes).
    pub tmp_removed: usize,
    /// Entries quarantined: bad seal, foreign digest tag, undecodable
    /// job spec or checkpoint.
    pub quarantined: usize,
    /// Healthy files kept in `result/`.
    pub entries: usize,
    /// Bytes those healthy files occupy.
    pub bytes: u64,
}

impl FsckReport {
    /// A JSON rendering (the `--fsck` CLI report line).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("event", Json::str("fsck")),
            ("tmp_removed", Json::num(self.tmp_removed as f64)),
            ("quarantined", Json::num(self.quarantined as f64)),
            ("entries", Json::num(self.entries as f64)),
            ("bytes", Json::num(self.bytes as f64)),
        ])
    }

    /// Whether the pass changed anything worth reporting.
    pub fn dirty(&self) -> bool {
        self.tmp_removed > 0 || self.quarantined > 0
    }
}

/// The on-disk cache rooted at one directory.
#[derive(Debug)]
pub struct ResultCache {
    root: PathBuf,
    max_bytes: Option<u64>,
    /// Hit/miss and health counters.
    pub counters: CacheCounters,
}

/// The subdirectory quarantined entries move to.
const QUARANTINE_DIR: &str = "quarantine";

/// The result directory: the one stage subject to verify-on-read and
/// eviction.
const RESULT_DIR: &str = "result";

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `root` with the
    /// subdirectories `result/`, `jobs/` and `quarantine/`. Directories
    /// an older daemon left beside them (`netlist/`, `levels/`) are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        for sub in [RESULT_DIR, "jobs", QUARANTINE_DIR] {
            fs::create_dir_all(root.join(sub))?;
        }
        Ok(Self {
            root,
            max_bytes: None,
            counters: CacheCounters::default(),
        })
    }

    /// Caps `result/` at `max` bytes, enforced by LRU eviction after
    /// every store (`None`: unbounded). `jobs/` and `quarantine/` never
    /// count against, and are never evicted by, the budget.
    #[must_use]
    pub fn with_max_bytes(mut self, max: Option<u64>) -> Self {
        self.max_bytes = max;
        self
    }

    /// The configured `result/` size budget, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The quarantine directory (corrupt entries are preserved here).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join(QUARANTINE_DIR)
    }

    /// The checkpoint path prefix for a result key: in-flight solver
    /// checkpoints live next to the job files so a restarted daemon
    /// resumes them.
    pub fn checkpoint_prefix(&self, result_key: &str) -> PathBuf {
        self.root.join("jobs").join(result_key)
    }

    // ----- results -------------------------------------------------------

    /// The result key: circuit digest plus config fingerprint.
    pub fn result_key(circuit_key: &str, fingerprint: u64) -> String {
        format!("{circuit_key}-{fingerprint:016x}")
    }

    /// Looks up a completed result: the retimed `.bench` text and the
    /// JSON report stored by [`ResultCache::store_result`].
    pub fn lookup_result(&self, key: &str) -> Option<(String, Json)> {
        let hit = self.peek_result(key);
        let counter = if hit.is_some() {
            &self.counters.result_hits
        } else {
            &self.counters.result_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// [`ResultCache::lookup_result`] without touching the hit/miss
    /// counters — for `result` queries about an already-completed job,
    /// which say nothing about cache effectiveness. (Verify-on-read
    /// and quarantine still apply: corrupt bytes are never returned.)
    pub fn peek_result(&self, key: &str) -> Option<(String, Json)> {
        let bench = self.read_verified(&self.result_path(key, "bench"))?;
        let meta = Json::parse(&self.read_verified(&self.result_path(key, "meta"))?).ok()?;
        Some((bench, meta))
    }

    /// Stores a completed (exit-0) result.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn store_result(&self, key: &str, bench: &str, meta: &Json) -> io::Result<()> {
        self.write_sealed(&self.result_path(key, "bench"), bench)?;
        self.write_sealed(&self.result_path(key, "meta"), &meta.to_string())
    }

    // ----- job persistence (restart recovery) ----------------------------

    /// Persists a job spec to `jobs/<id>.job` so a killed daemon can
    /// re-enqueue it on restart.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn persist_job(&self, spec: &JobSpec) -> io::Result<()> {
        fio::write_atomic(
            &self.job_path(&spec.id),
            &fio::seal(&spec.to_json().to_string()),
        )
    }

    /// Removes the persisted spec of a terminal job. Failures other
    /// than the file already being gone are counted in
    /// [`CacheCounters::remove_failures`] and surfaced in `stats` —
    /// a recovery file that cannot be deleted means the job will be
    /// spuriously re-run on restart, which an operator should see.
    pub fn remove_job(&self, id: &str) {
        match fio::remove_file(&self.job_path(id)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => {
                self.counters
                    .remove_failures
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: could not remove terminal job recovery file jobs/{id}.job: {e} \
                     (the job may be re-run on restart)"
                );
            }
        }
    }

    /// Scans `jobs/` for specs persisted by a previous daemon process,
    /// in sorted order. Sealed entries must verify; headerless entries
    /// are accepted when they parse (legacy files — the strict spec
    /// parser is the only guard they ever had). Everything else is
    /// skipped here and quarantined by [`ResultCache::fsck`].
    pub fn scan_jobs(&self) -> Vec<JobSpec> {
        let mut paths: Vec<PathBuf> = fs::read_dir(self.root.join("jobs"))
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "job"))
                    .collect()
            })
            .unwrap_or_default();
        paths.sort();
        paths
            .iter()
            .filter_map(|p| {
                let text = fio::read_to_string(p).ok()?;
                let body = match fio::unseal(&text) {
                    Ok(payload) => payload,
                    Err(fio::SealError::Missing) => &text,
                    Err(_) => return None,
                };
                JobSpec::from_json(&Json::parse(body).ok()?).ok()
            })
            .collect()
    }

    // ----- integrity: fsck, quarantine, eviction --------------------------

    /// One integrity pass over the whole cache root: removes orphaned
    /// `.tmp` files (interrupted atomic writes), quarantines entries
    /// that fail their seal or carry a foreign digest tag, validates
    /// persisted job specs and solver checkpoints under `jobs/`,
    /// rebuilds the `result/` byte count, and (when a budget is set)
    /// evicts down to it. The daemon runs this at every startup;
    /// `retimer serve --fsck` runs it standalone.
    pub fn fsck(&self) -> FsckReport {
        let mut report = FsckReport::default();
        for path in dir_files(&self.root.join(RESULT_DIR)) {
            if is_tmp(&path) {
                if fio::remove_file(&path).is_ok() {
                    report.tmp_removed += 1;
                }
                continue;
            }
            if !valid_key_name(&path) {
                self.quarantine(&path, "file name is not a tagged digest key");
                report.quarantined += 1;
                continue;
            }
            match fio::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| match fio::unseal(&text) {
                    Ok(_) => Ok(text.len() as u64),
                    Err(e) => Err(e.to_string()),
                }) {
                Ok(len) => {
                    report.entries += 1;
                    report.bytes += len;
                }
                Err(reason) => {
                    self.quarantine(&path, &reason);
                    report.quarantined += 1;
                }
            }
        }
        for path in dir_files(&self.root.join("jobs")) {
            if is_tmp(&path) {
                if fio::remove_file(&path).is_ok() {
                    report.tmp_removed += 1;
                }
                continue;
            }
            let ext = path.extension().and_then(|e| e.to_str());
            let Ok(text) = fio::read_to_string(&path) else {
                continue; // unreadable: leave for the operator
            };
            let verdict = match (ext, fio::unseal(&text)) {
                // A sealed file of either kind must verify.
                (_, Ok(payload)) => match ext {
                    Some("job") => JobSpec::from_json(&Json::parse(payload).unwrap_or(Json::Null))
                        .map(|_| ())
                        .map_err(|e| format!("undecodable job spec: {e}")),
                    _ => Ok(()),
                },
                // Headerless job files are legacy iff they parse.
                (Some("job"), Err(fio::SealError::Missing)) => {
                    JobSpec::from_json(&Json::parse(&text).unwrap_or(Json::Null))
                        .map(|_| ())
                        .map_err(|e| format!("undecodable job spec: {e}"))
                }
                // Headerless checkpoints predate sealing; their strict
                // text format is the only guard they ever had.
                (_, Err(fio::SealError::Missing)) => Ok(()),
                (_, Err(e)) => Err(e.to_string()),
            };
            if let Err(reason) = verdict {
                self.quarantine(&path, &reason);
                report.quarantined += 1;
            }
        }
        self.evict_to_budget();
        report
    }

    /// The bytes currently occupied by healthy entries in `result/`
    /// (`.tmp` orphans excluded).
    pub fn stage_bytes(&self) -> u64 {
        dir_files(&self.root.join(RESULT_DIR))
            .into_iter()
            .filter(|p| !is_tmp(p))
            .filter_map(|p| fs::metadata(&p).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Evicts least-recently-used results until `result/` fits the
    /// configured budget. A result `bench`+`meta` pair is one eviction
    /// unit (recency = the newer of the two).
    fn evict_to_budget(&self) {
        let Some(max) = self.max_bytes else { return };
        // Group files into (newest-mtime, total-size, paths) eviction
        // units by key.
        let mut groups: std::collections::HashMap<String, (SystemTime, u64, Vec<PathBuf>)> =
            std::collections::HashMap::new();
        for path in dir_files(&self.root.join(RESULT_DIR)) {
            if is_tmp(&path) {
                continue;
            }
            let Ok(meta) = fs::metadata(&path) else {
                continue;
            };
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let entry = groups
                .entry(stem)
                .or_insert_with(|| (SystemTime::UNIX_EPOCH, 0, Vec::new()));
            entry.0 = entry.0.max(mtime);
            entry.1 += meta.len();
            entry.2.push(path);
        }
        let mut units: Vec<_> = groups.into_values().collect();
        let mut total: u64 = units.iter().map(|(_, size, _)| size).sum();
        if total <= max {
            return;
        }
        units.sort_by_key(|(mtime, _, _)| *mtime);
        for (_, size, paths) in units {
            if total <= max {
                break;
            }
            let mut removed = false;
            for path in paths {
                removed |= fio::remove_file(&path).is_ok();
            }
            if removed {
                total = total.saturating_sub(size);
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .evicted_bytes
                    .fetch_add(size, Ordering::Relaxed);
            }
        }
    }

    /// Moves a failed entry to `quarantine/` (falling back to removal
    /// if the move itself fails), counts it, and prints a structured
    /// warning. The entry is never left where a reader could trust it.
    fn quarantine(&self, path: &Path, reason: &str) {
        let stage = path
            .parent()
            .and_then(|p| p.file_name())
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let name = path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let dest = self.quarantine_dir().join(format!("{stage}__{name}"));
        if fio::rename(path, &dest).is_err() {
            let _ = fio::remove_file(path);
        }
        self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "warning: quarantined corrupt cache entry {stage}/{name}: {reason} \
             (moved to {}; the pipeline will recompute)",
            dest.display()
        );
    }

    /// Reads a result file: the file name must carry this build's
    /// digest tag and the sealed payload must verify. Corruption (or
    /// a missing seal — these files are always written sealed) is
    /// quarantined and reported as a miss; hits touch the entry's
    /// mtime so LRU eviction sees the access.
    fn read_verified(&self, path: &Path) -> Option<String> {
        if !valid_key_name(path) {
            // A foreign-scheme key is a miss, not corruption: a future
            // digest scheme's cache must survive an old binary.
            return fs::metadata(path).ok().and(None);
        }
        let text = match fio::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => {
                // Transient read failure (e.g. injected EIO): miss and
                // recompute; nothing on disk to quarantine yet.
                eprintln!(
                    "warning: cache read of {} failed: {e} (treating as a miss)",
                    path.display()
                );
                return None;
            }
        };
        match fio::unseal(&text) {
            Ok(payload) => {
                touch(path);
                Some(payload.to_string())
            }
            Err(e) => {
                self.quarantine(path, &e.to_string());
                None
            }
        }
    }

    /// Seals and atomically writes one result file, then enforces the
    /// size budget.
    fn write_sealed(&self, path: &Path, payload: &str) -> io::Result<()> {
        fio::write_atomic(path, &fio::seal(payload))?;
        self.evict_to_budget();
        Ok(())
    }

    fn result_path(&self, key: &str, ext: &str) -> PathBuf {
        self.root.join(RESULT_DIR).join(format!("{key}.{ext}"))
    }

    fn job_path(&self, id: &str) -> PathBuf {
        self.root.join("jobs").join(format!("{id}.job"))
    }
}

/// The regular files directly inside `dir` (subdirectories skipped).
fn dir_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_file())
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

fn is_tmp(path: &Path) -> bool {
    path.file_name()
        .is_some_and(|n| n.to_string_lossy().ends_with(".tmp"))
}

/// Whether a result file's name carries the digest tag this build
/// understands: a cache written by a future `fnv2-…` scheme is skipped
/// (a miss), never misinterpreted.
fn valid_key_name(path: &Path) -> bool {
    let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
        return false;
    };
    // Result keys are `<tag>:<hex>-<fp>`. The tag itself contains `-`,
    // so split after the `:`-delimited hex run, not on the first dash.
    let Some(colon) = stem.find(':') else {
        return false;
    };
    let hex_end = stem[colon + 1..]
        .find('-')
        .map_or(stem.len(), |i| colon + 1 + i);
    parse_digest(&stem[..hex_end]).is_ok()
}

/// Best-effort mtime bump on a cache hit, so LRU eviction orders by
/// last access rather than last write.
fn touch(path: &Path) {
    if let Ok(file) = fs::File::options().append(true).open(path) {
        let _ = file.set_modified(SystemTime::now());
    }
}

/// The solve-configuration fingerprint half of a result key.
///
/// Every knob that can change the result (or whether the solve
/// completes cleanly) is hashed: method, simulation shape and seed,
/// `R_min` override and both budget axes. The thread count is deliberately **excluded** — the SER engine is
/// bit-identical for every worker count, so the same circuit solved
/// with 1 or 8 threads shares one cache entry. The `deadline_ms`
/// admission deadline is likewise excluded: it decides whether a job
/// runs at all, never what the solve produces.
///
/// The tag is `serve-config-v2`: v1 also hashed a closure-engine
/// choice whose two engines gave bit-identical results, so every v1
/// key misses once after an upgrade.
pub fn config_fingerprint(spec: &JobSpec) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("serve-config-v2");
    h.write_str(match spec.method {
        Method::MinObs => "minobs",
        Method::MinObsWin => "minobswin",
    });
    h.write_u64(spec.vectors as u64);
    h.write_u64(spec.frames as u64);
    h.write_u64(spec.seed);
    match spec.r_min {
        None => h.write_str("rmin-default"),
        Some(r) => {
            h.write_str("rmin-override");
            h.write_i64(r);
        }
    }
    match spec.time_budget {
        None => h.write_str("time-default"),
        Some(secs) => {
            h.write_str("time-budget");
            h.write_u64(secs.to_bits());
        }
    }
    match spec.max_iters {
        None => h.write_str("iters-default"),
        Some(n) => {
            h.write_str("iters-budget");
            h.write_u64(n as u64);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::NetlistFormat;
    use netlist::digest::{content_digest, format_digest};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("serve-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A tagged result key derived from `text`.
    fn key(text: &str) -> String {
        ResultCache::result_key(&format_digest(content_digest(text.as_bytes())), 1)
    }

    fn exit0() -> Json {
        Json::obj(vec![("exit", Json::num(0.0))])
    }

    /// The retimed `.bench` text of a stored result.
    fn bench_of(cache: &ResultCache, key: &str) -> Option<String> {
        cache.lookup_result(key).map(|(bench, _)| bench)
    }

    #[test]
    fn stages_round_trip_and_count() {
        let cache = ResultCache::open(tmpdir("stages")).unwrap();
        let mut subdirs: Vec<String> = fs::read_dir(cache.root())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        subdirs.sort();
        assert_eq!(subdirs, ["jobs", "quarantine", "result"]);

        let rkey = key("INPUT(a)\n");
        assert!(rkey.starts_with("fnv1a-v1:"));
        assert!(cache.lookup_result(&rkey).is_none());
        cache.store_result(&rkey, "retimed", &exit0()).unwrap();
        let (bench, back) = cache.lookup_result(&rkey).unwrap();
        assert_eq!(bench, "retimed");
        assert_eq!(back.get("exit").and_then(Json::as_u64), Some(0));
        // A peek is not a lookup: the counters stay put.
        assert!(cache.peek_result(&rkey).is_some());

        assert_eq!(cache.counters.result_hits(), 1);
        assert_eq!(cache.counters.result_misses.load(Ordering::Relaxed), 1);
        assert_eq!(cache.counters.quarantined(), 0);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn untagged_keys_are_misses() {
        let cache = ResultCache::open(tmpdir("tags")).unwrap();
        // Simulate an entry written by a different digest scheme.
        fs::write(cache.root().join("result/deadbeef.bench"), "old").unwrap();
        fs::write(cache.root().join("result/deadbeef.meta"), "{}").unwrap();
        assert!(cache.lookup_result("deadbeef").is_none());
        // A miss, not corruption: the foreign entry stays untouched.
        assert!(cache.root().join("result/deadbeef.bench").exists());
        assert_eq!(cache.counters.quarantined(), 0);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_entries_are_quarantined_never_served() {
        let cache = ResultCache::open(tmpdir("verify")).unwrap();
        let rkey = key("INPUT(a)\n");
        cache
            .store_result(&rkey, "INPUT(a)\nOUTPUT(a)\n", &exit0())
            .unwrap();
        let path = cache.result_path(&rkey, "bench");

        // Flip one payload bit on disk, exactly like the chaos plan.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x04;
        fs::write(&path, &bytes).unwrap();

        assert!(bench_of(&cache, &rkey).is_none(), "corrupt entry served");
        assert!(!path.exists(), "corrupt entry left in place");
        assert_eq!(cache.counters.quarantined(), 1);
        let quarantined = dir_files(&cache.quarantine_dir());
        assert_eq!(quarantined.len(), 1);
        // The quarantined bytes are preserved for inspection.
        assert_eq!(fs::read(&quarantined[0]).unwrap(), bytes);

        // The entry heals on the next store.
        cache
            .store_result(&rkey, "INPUT(a)\nOUTPUT(a)\n", &exit0())
            .unwrap();
        assert_eq!(
            bench_of(&cache, &rkey).as_deref(),
            Some("INPUT(a)\nOUTPUT(a)\n")
        );
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn truncated_entries_are_quarantined() {
        let cache = ResultCache::open(tmpdir("torn")).unwrap();
        let rkey = key("x");
        cache
            .store_result(&rkey, &"G = AND(a, b)\n".repeat(10), &exit0())
            .unwrap();
        let path = cache.result_path(&rkey, "bench");
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap(); // torn
        assert!(cache.lookup_result(&rkey).is_none());
        assert_eq!(cache.counters.quarantined(), 1);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn fsck_removes_tmp_orphans_and_quarantines_undecodables() {
        let cache = ResultCache::open(tmpdir("fsck")).unwrap();
        let good = key("good");
        cache.store_result(&good, "good entry", &exit0()).unwrap();

        // An interrupted atomic write, a corrupt sealed file, and a
        // garbage key name that still claims our tag.
        fs::write(cache.root().join("result/half.bench.tmp"), "partial").unwrap();
        let bad = key("bad");
        cache.store_result(&bad, "soon corrupt", &exit0()).unwrap();
        let bad_path = cache.result_path(&bad, "bench");
        let mut bytes = fs::read(&bad_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&bad_path, &bytes).unwrap();
        fs::write(cache.root().join("result/garbage.meta"), "{}").unwrap();

        let report = cache.fsck();
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(report.quarantined, 2);
        // The good pair and the bad key's intact `meta`.
        assert_eq!(report.entries, 3);
        assert!(report.bytes > 0);
        assert!(report.dirty());
        // The healthy entry still reads back; the half-quarantined one
        // is a miss.
        assert_eq!(bench_of(&cache, &good).as_deref(), Some("good entry"));
        assert!(cache.lookup_result(&bad).is_none());

        // A second pass is clean and idempotent.
        let again = cache.fsck();
        assert_eq!(
            (again.tmp_removed, again.quarantined, again.entries),
            (0, 0, 3)
        );
        assert!(!again.dirty());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn eviction_keeps_stage_bytes_under_budget() {
        let payload = "x".repeat(512);
        let cache = ResultCache::open(tmpdir("evict"))
            .unwrap()
            .with_max_bytes(Some(2048));
        for i in 0..12 {
            let rkey = key(&format!("circuit-{i}"));
            cache.store_result(&rkey, &payload, &exit0()).unwrap();
            assert!(
                cache.stage_bytes() <= 2048,
                "budget exceeded after store {i}: {} bytes",
                cache.stage_bytes()
            );
        }
        assert!(cache.counters.evictions() > 0, "evictions never fired");
        assert!(cache.counters.evicted_bytes.load(Ordering::Relaxed) > 0);
        // The most recent entry must have survived (LRU, not random).
        let newest = key("circuit-11");
        assert_eq!(bench_of(&cache, &newest).as_deref(), Some(payload.as_str()));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn result_pairs_evict_together_and_jobs_are_exempt() {
        let cache = ResultCache::open(tmpdir("evict-pairs"))
            .unwrap()
            .with_max_bytes(Some(1)); // evict everything evictable
        let spec = JobSpec::new("keep-me", "INPUT(a)\n", NetlistFormat::Bench);
        cache.persist_job(&spec).unwrap();

        let rkey = key("c");
        cache.store_result(&rkey, "retimed", &exit0()).unwrap();
        assert!(cache.peek_result(&rkey).is_none(), "pair must be evicted");
        assert!(
            !cache.result_path(&rkey, "meta").exists(),
            "meta must go with its bench"
        );
        // jobs/ is never evicted.
        assert_eq!(cache.scan_jobs(), vec![spec]);
        let _ = fs::remove_dir_all(cache.root());
    }
    #[test]
    fn job_persistence_round_trips() {
        let cache = ResultCache::open(tmpdir("jobs")).unwrap();
        let spec = JobSpec::new("job-7", "INPUT(a)\n", NetlistFormat::Bench);
        cache.persist_job(&spec).unwrap();
        assert_eq!(cache.scan_jobs(), vec![spec.clone()]);
        cache.remove_job(&spec.id);
        assert!(cache.scan_jobs().is_empty());
        assert_eq!(cache.counters.remove_failures(), 0, "clean remove");
        // Removing an already-gone job is not a failure either.
        cache.remove_job(&spec.id);
        assert_eq!(cache.counters.remove_failures(), 0);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn undeletable_job_files_are_counted() {
        let cache = ResultCache::open(tmpdir("rmfail")).unwrap();
        // A *directory* named like a job file: remove_file must fail,
        // and the failure must be counted, not swallowed.
        fs::create_dir_all(cache.root().join("jobs/stuck.job")).unwrap();
        cache.remove_job("stuck");
        assert_eq!(cache.counters.remove_failures(), 1);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn legacy_unsealed_job_files_still_scan() {
        let cache = ResultCache::open(tmpdir("legacy")).unwrap();
        let spec = JobSpec::new("old-1", "INPUT(a)\n", NetlistFormat::Bench);
        fs::write(
            cache.root().join("jobs/old-1.job"),
            spec.to_json().to_string(),
        )
        .unwrap();
        assert_eq!(cache.scan_jobs(), vec![spec]);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn fingerprint_separates_configs() {
        let base = JobSpec::new("a", "x", NetlistFormat::Bench);
        let fp = config_fingerprint(&base);
        let mut other = base.clone();
        other.id = "different-id".into();
        other.threads = 8;
        other.deadline_ms = Some(5_000);
        assert_eq!(
            config_fingerprint(&other),
            fp,
            "id/threads/deadline excluded"
        );

        let mut m = base.clone();
        m.method = Method::MinObs;
        assert_ne!(config_fingerprint(&m), fp);
        let mut r = base.clone();
        r.r_min = Some(0);
        assert_ne!(config_fingerprint(&r), fp);
        let mut t = base.clone();
        t.time_budget = Some(5.0);
        assert_ne!(config_fingerprint(&t), fp);
    }
}
