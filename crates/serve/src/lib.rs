//! `retimer serve`: a concurrent retiming daemon.
//!
//! This crate turns the one-shot solver pipeline into a long-running
//! service:
//!
//! - **Protocol** ([`server`]): newline-delimited JSON over
//!   stdin/stdout or a unix socket — `submit` / `status` / `cancel` /
//!   `result` / `stats` / `drain`, with per-job progress events
//!   (`queued → parsing → parsed → levelized → iteration → done`)
//!   whose terminal statuses map 1:1 onto the CLI's stable exit codes
//!   0–4.
//! - **Daemon** ([`daemon`]): a bounded admission queue with
//!   backpressure, a worker pool sized by the same
//!   explicit-flag → `SER_THREADS` → hardware precedence as every
//!   other parallel surface, per-job cancellation tokens and budget
//!   defaults, and a graceful drain.
//! - **Cache** ([`cache`]): content-addressed solve results keyed on
//!   tagged FNV digests (`fnv1a-v1:…`) of the parsed circuit and the
//!   solve configuration; resubmitting a completed job is a
//!   counter-verified cache hit. Job specs persist until terminal, so
//!   a killed daemon re-enqueues in-flight jobs on restart and resumes
//!   their solver checkpoints.
//!
//! The serialization layer ([`json`]) is hand-rolled: the workspace
//! deliberately has no external dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod daemon;
pub mod job;
pub mod json;
pub mod server;

pub use cache::{config_fingerprint, CacheCounters, ResultCache};
pub use daemon::{Daemon, Event, ServeConfig, SubmitError};
pub use job::{format_from_name, JobSpec, JobState, Method, NetlistFormat};
#[cfg(unix)]
pub use server::run_socket;
pub use server::run_stdio;
