//! Child processes: the program's binaries run with a scrubbed
//! environment, timed from spawn, with their peak resident set taken
//! from the kernel's rusage when they are reaped.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variables that change what "default" means for the
/// program; every child runs without them.
const SCRUBBED: &[&str] = &["SER_THREADS", "SER_ODC_BLOCK_WORDS", "MINOBSWIN_TRACE"];

/// Whether the benchmark must remove `key` from a child's environment.
pub fn scrubbed(key: &str) -> bool {
    SCRUBBED.contains(&key) || key.starts_with("SABOTAGE_")
}

/// A command for `program` with the scrubbed environment.
pub fn command(program: &Path) -> Command {
    let mut cmd = Command::new(program);
    for (key, _) in std::env::vars_os() {
        if key.to_str().is_some_and(scrubbed) {
            cmd.env_remove(&key);
        }
    }
    cmd
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads `struct rusage` with the layout of 64-bit Linux");

/// `struct rusage` of Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// How a reaped child ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reaped {
    /// Exit code, `None` when a signal ended it.
    pub exit: Option<i32>,
    /// Peak resident set in KiB.
    pub peak_rss_kib: u64,
}

/// Blocks until `pid` ends, killing it once `deadline` passes.
fn reap(pid: u32, deadline: Instant) -> io::Result<Reaped> {
    let (done, watch) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        let left = deadline.saturating_duration_since(Instant::now());
        if let Err(RecvTimeoutError::Timeout) = watch.recv_timeout(left) {
            // SAFETY: plain syscall on a pid this process spawned and
            // has not reaped yet.
            unsafe { kill(pid as i32, SIGKILL) };
        }
    });
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: both out-pointers reference live locals of the right
    // layout for the duration of the call.
    let rc = loop {
        let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
        if rc >= 0 || io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
            break rc;
        }
    };
    drop(done);
    let _ = watchdog.join();
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let exit = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Reaped {
        exit,
        peak_rss_kib: usage.maxrss.max(0) as u64,
    })
}

/// Everything one finished one-shot invocation produced.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Exit status and peak RSS.
    pub reaped: Reaped,
    /// Seconds from spawn to reaping.
    pub wall: f64,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error.
    pub stderr: String,
}

fn collect(mut r: impl Read + Send + 'static) -> JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = r.read_to_end(&mut buf);
        buf
    })
}

/// Reads lines from `r`, stamping each with its arrival time.
fn stamp_lines(r: impl Read + Send + 'static) -> (Receiver<(Instant, String)>, JoinHandle<()>) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        for line in BufReader::new(r).lines() {
            let Ok(line) = line else { break };
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });
    (rx, handle)
}

/// Runs `cmd` to completion with no input.
pub fn run(mut cmd: Command, deadline: Instant) -> io::Result<Finished> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let stdout = collect(child.stdout.take().expect("piped stdout"));
    let stderr = collect(child.stderr.take().expect("piped stderr"));
    let reaped = reap(child.id(), deadline)?;
    let wall = start.elapsed().as_secs_f64();
    Ok(Finished {
        reaped,
        wall,
        stdout: stdout.join().unwrap_or_default(),
        stderr: String::from_utf8_lossy(&stderr.join().unwrap_or_default()).into_owned(),
    })
}

/// Spawns `cmd`, waits for its first line on standard error, then
/// kills and reaps it. Returns the seconds from spawn to that line.
pub fn probe_first_stderr_line(mut cmd: Command, deadline: Instant) -> io::Result<f64> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let (lines, reader) = stamp_lines(child.stderr.take().expect("piped stderr"));
    let left = deadline.saturating_duration_since(Instant::now());
    let first = lines.recv_timeout(left);
    let _ = child.kill();
    reap(child.id(), deadline)?;
    let _ = reader.join();
    match first {
        Ok((at, _)) => Ok(at.duration_since(start).as_secs_f64()),
        Err(_) => Err(io::Error::other("the program printed no progress line")),
    }
}

/// A long-running child driven over its standard input and output
/// (the serve daemon).
pub struct Session {
    pid: u32,
    /// Where requests go; dropping it closes the daemon's input.
    pub stdin: Option<ChildStdin>,
    /// Standard-output lines with their arrival times.
    pub lines: Receiver<(Instant, String)>,
    /// When the child was spawned.
    pub spawned: Instant,
    stdout_reader: JoinHandle<()>,
    stderr: JoinHandle<Vec<u8>>,
}

impl Session {
    /// Spawns `cmd` with piped standard streams.
    pub fn spawn(mut cmd: Command) -> io::Result<Self> {
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let spawned = Instant::now();
        let mut child = cmd.spawn()?;
        let (lines, stdout_reader) = stamp_lines(child.stdout.take().expect("piped stdout"));
        Ok(Self {
            pid: child.id(),
            stdin: child.stdin.take(),
            lines,
            spawned,
            stdout_reader,
            stderr: collect(child.stderr.take().expect("piped stderr")),
        })
    }

    /// Writes one request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("input already closed"))?;
        writeln!(stdin, "{line}")?;
        stdin.flush()
    }

    /// The next output line, or `None` when the deadline passes or the
    /// child closed its output.
    pub fn next_line(&self, deadline: Instant) -> Option<(Instant, String)> {
        let left = deadline.saturating_duration_since(Instant::now());
        self.lines
            .recv_timeout(left.max(Duration::from_millis(1)))
            .ok()
    }

    /// Closes the input (the daemon drains and exits) and reaps the
    /// child; returns its status, the lines it wrote after the last
    /// [`Session::next_line`] call, and its standard error.
    pub fn finish(mut self, deadline: Instant) -> io::Result<(Reaped, Vec<String>, String)> {
        self.stdin = None;
        let reaped = reap(self.pid, deadline)?;
        let _ = self.stdout_reader.join();
        let rest = self.lines.try_iter().map(|(_, l)| l).collect();
        let stderr = String::from_utf8_lossy(&self.stderr.join().unwrap_or_default()).into_owned();
        Ok((reaped, rest, stderr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_list_covers_thread_tile_trace_and_sabotage_variables() {
        for key in [
            "SER_THREADS",
            "SER_ODC_BLOCK_WORDS",
            "MINOBSWIN_TRACE",
            "SABOTAGE_FIO_PLAN",
            "SABOTAGE_ANYTHING",
        ] {
            assert!(scrubbed(key), "{key}");
        }
        assert!(!scrubbed("PATH"));
    }

    #[test]
    fn run_reports_exit_code_output_and_rss() {
        let mut cmd = command(Path::new("sh"));
        cmd.args(["-c", "echo hi >&2; echo out; exit 3"]);
        let done = run(cmd, Instant::now() + Duration::from_secs(30)).unwrap();
        assert_eq!(done.reaped.exit, Some(3));
        assert!(done.reaped.peak_rss_kib > 0);
        assert_eq!(done.stdout, b"out\n");
        assert_eq!(done.stderr, "hi\n");
    }

    #[test]
    fn deadline_kills_a_hung_child() {
        let mut cmd = command(Path::new("sleep"));
        cmd.arg("30");
        let done = run(cmd, Instant::now() + Duration::from_millis(200)).unwrap();
        assert_eq!(done.reaped.exit, None);
        assert!(done.wall < 10.0);
    }
}
