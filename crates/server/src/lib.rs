//! `lzfpga-server` — a fault-contained multi-stream LZFC compression
//! daemon over plain `std::net` TCP.
//!
//! The unit of scheduling in this workspace has grown file → frame →
//! **connection**: LZFC frames (the container crate) are independently
//! decodable crash-safe units, `parallel` schedules them across cores,
//! and this crate serves them to many concurrent clients from one
//! long-running process. The robustness surface is the point — one
//! hostile stream must never take the daemon down or starve its
//! neighbours:
//!
//! * **[`proto`]** — the length-prefixed LZS1 wire protocol: bounded
//!   message sizes, typed reject codes, credit-granting messages.
//! * **[`quota`]** — admission control: a global session cap and
//!   per-tenant quotas (concurrent streams, bytes in flight), all held by
//!   RAII guards so release survives panics and torn connections.
//! * **[`pool`]** — the shared work-stealing worker pool; every job runs
//!   under `catch_unwind`, so a poisoned request costs one typed error,
//!   never a worker thread.
//! * **[`jobs`]** — the request bodies (compress / decompress / range)
//!   with cooperative cancellation checkpoints at frame boundaries and
//!   `parallel`'s retry-then-degrade ladder on every compressed chunk.
//! * **[`server`]** — the daemon: accept loop, per-connection sessions,
//!   credit-based backpressure, per-request deadlines, idle timeouts,
//!   and the graceful drain state machine (stop admitting → finish or
//!   deadline-cancel in-flight work → flush telemetry).
//! * **[`store`]** — the crash-durable session store: journaled sessions
//!   (CRC-protected journal of op, tenant and engine parameters + synced
//!   input), startup recovery, resume-after-kill by a byte-identical
//!   recompute from the verified input, and orphan garbage collection
//!   that returns every admitted byte.
//! * **[`client`]** — a small blocking client used by `lzfpga client`,
//!   the tests, and the `faultstorm --server` drill.
//! * **[`metrics`]** — per-stream/per-tenant counters exported through
//!   the `lzfpga-obs` registry, plus connection → request → job span
//!   trace events.
//!
//! The whole crate is dependency-free (workspace crates only) and
//! `forbid(unsafe_code)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod jobs;
pub mod metrics;
pub mod pool;
pub mod proto;
pub mod quota;
pub mod server;
pub mod store;

pub use client::{connect_with_retry, retryable, Client, ClientError, RetryPolicy};
pub use jobs::{CancelReason, JobFail, JobLedger, RequestCtl};
pub use metrics::ServerMetrics;
pub use pool::WorkerPool;
pub use proto::{ProtoError, RejectCode, Request, Response};
pub use quota::{Admission, Charge, QuotaConfig, SessionGuard};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
pub use store::{RecoveryReport, SessionOp, SessionStore};
