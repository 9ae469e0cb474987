//! Crash-safe, backpressured campaign serving.
//!
//! The paper's measurements were campaigns: many workload ×
//! configuration points, each an independent simulation. This crate
//! turns the batch campaign into a *service* that survives its own
//! death:
//!
//! - [`spec::JobSpec`] — one request (workload × CPU config × memory
//!   config × fault plan × seed) on one strict `key=value` line;
//! - [`journal::Journal`] — the persistent queue: every lifecycle
//!   transition (`enqueue`/`start`/`complete`/`fail`) is one record
//!   written to the `vax-queue-journal v2` log; settled jobs
//!   compact into a snapshot segment behind an offset index, so replay
//!   and result streaming are O(unsettled) in memory and the live tail
//!   stays small no matter how long the queue's history grows; jobs
//!   are read back a chunk at a time through read handles pinned to
//!   one generation;
//! - [`queue`] — executors: in-process threads or `job-worker` OS
//!   processes, with per-attempt timeouts;
//! - [`wire`] — the line protocol (Unix socket or TCP) and client,
//!   one buffered writer per message;
//! - [`server`] — the worker pool with bounded-capacity backpressure,
//!   per-client quotas, bounded retry with deterministic backoff,
//!   `drain` streaming, and remote `claim` workers over TCP; no reply
//!   is written under its lock.
//!
//! The durability contract, end to end: `kill -9` the server at any
//! instant, restart it on the same journal, and the merged results are
//! bit-identical to an uninterrupted run — completed jobs replay from
//! disk, unsettled jobs re-run, and `Experiment::run`'s determinism
//! makes the re-runs indistinguishable from first runs. Records are
//! written, not fsynced one by one: an OS crash or power loss can lose
//! the most recent transitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod queue;
pub mod server;
pub mod spec;
pub mod wire;

pub use journal::{valid_client_name, JobId, JobState, Journal, JournalError};
pub use queue::{Executor, InProcessExecutor, ProcessExecutor};
pub use server::{run_server, ServeConfig, ServeError, ServerReport};
pub use spec::JobSpec;
pub use wire::{Client, Endpoint};
