//! Observability primitives for the cqcount workspace: a lock-cheap span
//! tracer ([`trace`]) and a metrics registry ([`metrics`]).
//!
//! Both halves are std-only and allocation-free on their disabled /
//! steady-state hot paths:
//!
//! * **Tracing** is globally gated. When no profiling session is active the
//!   cost of an instrumented scope is a single relaxed atomic load. When a
//!   session *is* active, finished spans are buffered in per-thread ring
//!   buffers (one short mutex tap per span, never contended in the common
//!   case because each thread owns its own ring) and drained by the
//!   collector that owns the request — `par_map` lanes attribute their work
//!   to the originating request through explicit parent [`trace::SpanId`]s.
//! * **Metrics** are plain `Arc<AtomicU64>` handles (counters, gauges) and
//!   fixed-bucket histograms (`observe` is two atomic adds and an atomic
//!   increment; quantiles are estimated at read time from the bucket
//!   boundaries, so the hot path never allocates).
//!
//! Built on those two halves, three forensic subsystems (PR 9):
//!
//! * **Flight recorder** ([`flight`]) — bounded retention of the span
//!   trees of *interesting* requests (slow, errored, degraded) plus
//!   discrete incidents, for after-the-fact tail forensics.
//! * **Metrics history** ([`history`]) — a ring of whole-registry samples
//!   taken on an interval, so rates and tail percentiles around an
//!   anomaly are reconstructible without pre-arranged scraping.
//! * **Stall watchdog** ([`watchdog`]) — heartbeats for polled loops and
//!   deadline-scoped workers, scanned edge-triggered by a supervisor.
//!
//! This crate sits at the bottom of the workspace dependency graph: every
//! other crate may depend on it, it depends on nothing.

pub mod flight;
pub mod history;
pub mod metrics;
pub mod planner;
pub mod trace;
pub mod watchdog;

pub use flight::{CapturedTrace, FlightRecorder, Incident, RetainReason};
pub use history::{HistorySample, MetricsHistory};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use trace::{SpanId, SpanRecord, TraceSession, TreeNode};
pub use watchdog::{Heartbeat, HeartbeatKind, Watchdog, WatchdogReport};
