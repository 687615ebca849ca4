//! `cqcount-server`: a counting query service over the paper's algorithms.
//!
//! The workspace's algorithm crates answer *one* question at a time; this
//! crate turns them into a long-running daemon (`cqcountd`) that serves
//! many clients over TCP with a small binary protocol ([`protocol`]) and
//! stays predictable under load:
//!
//! * **two-level caching** ([`cache`]) — prepared plans keyed on the
//!   canonical query fingerprint (level 1, survives data reloads) and
//!   exact counts keyed on (query, database, epoch) (level 2, invalidated
//!   by `RELOAD`'s epoch bump);
//! * **admission control** ([`server`]) — a bounded request queue that
//!   answers `Overloaded` instead of buffering, plus a per-request
//!   wall-clock budget enforced cooperatively inside the counting loops;
//! * **an evented front end** (`reactor`) — `poll(2)`-driven reactor
//!   shards over non-blocking sockets with incremental frame decode, so
//!   clients can pipeline requests (protocol v5 request ids); warm-hit
//!   counting requests are answered inline on the reactor thread without
//!   a queue round-trip;
//! * **typed clients** ([`client`]) — the blocking API used by
//!   `cqcount-cli`, the e2e tests, and the throughput bench, with
//!   deadlines and retry/backoff for the idempotent opcodes, plus a
//!   pipelined v5 client ([`client::PipelinedClient`]) that keeps many
//!   requests in flight on one connection;
//! * **incremental count maintenance** ([`mutation`]) — protocol v6
//!   `INSERT`/`DELETE`/`MUTATE` opcodes edit a loaded database in place;
//!   materialized join-tree counts (`cqcount-delta`) are patched along
//!   the mutated tuple's bag path instead of recounted, and the count
//!   cache is invalidated surgically (only entries whose query mentions a
//!   touched relation), never epoch-wide;
//! * **durability** ([`durable`]) — protocol v7: with `--data-dir` every
//!   effective mutation batch is appended to a checksummed write-ahead
//!   log before it is acknowledged (fsync policy per `--durability`),
//!   snapshots bound replay, and startup recovers the newest valid
//!   snapshot plus the WAL tail — truncating torn or corrupt tails
//!   cleanly; a durability I/O failure degrades the database to
//!   read-only while counts keep serving;
//! * **deterministic fault injection** ([`faults`]) — seeded chaos
//!   (short I/O, disconnects, latency, worker panics, cap trips) so every
//!   hardening path above is testable and replayable;
//! * **end-to-end observability** (protocol v3) — every operational
//!   counter lives on a `cqcount-obs` metrics registry exported by the
//!   `METRICS` opcode in Prometheus text format, `PROFILE` returns the
//!   full span tree of a traced count, and `--trace-log FILE` streams one
//!   JSON line per counting request;
//! * **after-the-fact forensics** (protocol v8) — a flight recorder
//!   speculatively traces every worker request and retains the span
//!   trees of the interesting ones (slow against a self-calibrating
//!   per-opcode p99 threshold, errored, degraded, delta-faulted,
//!   read-only refusals) in a bounded ring served by the `FLIGHT`
//!   opcode; a metrics-history ring samples every registered series on
//!   an interval (`HISTORY`); and a stall watchdog heartbeats every
//!   reactor shard and pool worker, flagging wedged threads as gauges,
//!   `STATS` counters, and recorder incidents.
//!
//! Everything is `std`-only, like the rest of the workspace.

pub mod cache;
pub mod client;
pub mod durable;
pub mod faults;
pub mod mutation;
mod poll;
pub mod protocol;
mod queue;
mod reactor;
pub mod server;
mod snapshot;
mod wal;

pub use client::{
    Client, ClientError, ClientOptions, CountReply, MutationReceipt, PipelinedClient, SyncReceipt,
};
pub use durable::DurabilityPolicy;
pub use faults::{CrashPlan, CrashPoint, FaultEvent, FaultInjector, FaultKind, FaultProfile};
pub use protocol::{
    CacheTier, ErrorCode, FlightIncident, FlightReply, FlightTrace, HistoryReply,
    HistorySampleReply, MutationOp, ProfileReply, ReportReply, Request, Response, SpanNode,
    StatsReply,
};
pub use server::{serve, ServerConfig, ServerHandle};
