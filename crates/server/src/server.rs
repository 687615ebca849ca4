//! The daemon: evented front end, admission control, worker pool, caches.
//!
//! Threading model (std-only):
//!
//! * `reactors` **reactor shards** (see [`crate::reactor`]) share a
//!   `poll(2)`-driven event loop over non-blocking sockets: shard 0 owns
//!   the listener and deals accepted connections out round-robin; each
//!   shard decodes frames incrementally from per-connection buffers, so a
//!   client may **pipeline** many requests on one connection. Admin
//!   requests (`STATS`, `RELOAD`, `FLUSH`, `METRICS`) are answered inline
//!   so operators can observe and heal an overloaded server, and warm-hit
//!   counting requests take the **fast path** ([`try_fast_path`]): a raw
//!   query-text fingerprint probe plus a count-cache peek answers on the
//!   reactor thread with no parse, no queue, no thread handoff. Everything
//!   else is batch-admitted onto a *bounded* queue — a full queue yields
//!   an immediate `Overloaded` error frame, never buffering;
//! * `workers` **worker** threads pop jobs, run them under the request's
//!   wall-clock [`Budget`], and post the response back to the owning
//!   shard's completion mailbox. Worker panics are caught, counted, and
//!   reported as `Internal` errors — a malformed request cannot take the
//!   daemon down.
//!
//! Protocol v5 frames carry request ids, so pipelined responses ship in
//! completion order; v4 frames are answered strictly in request order via
//! a per-connection reorder buffer (see [`crate::reactor`]).
//!
//! Resilience (PR 3): connections carry read/write deadlines and idle
//! peers are reaped; `Overloaded` errors carry a `retry_after_ms` hint;
//! when decomposition planning blows its budget the count *degrades* to a
//! cheaper exact plan instead of erroring (`degraded: true` in the reply);
//! and the whole stack can be wrapped in a seeded [`FaultInjector`]
//! (`--fault-profile`) for replayable chaos runs.
//!
//! Observability (PR 4): every operational counter lives on a
//! [`cqcount_obs::Registry`] exported verbatim by the `METRICS` opcode
//! (the v2 `STATS` reply reads the same counters, so the two can never
//! disagree); `PROFILE` runs a count under an active trace session and
//! returns the request's span tree — root span `request` on the worker,
//! with the planner, kernel, and pool spans attached under it; and
//! `--trace-log FILE` streams one JSON line per counting request with the
//! same tree, for offline analysis. Trace lines are formatted by workers
//! (or by the reactor for fast-path hits) and flushed by the owning shard
//! once per drain batch — there is no global log lock on the hot path.

use crate::cache::{CountCache, FingerprintCache, Fingerprinted, PlanCache, PlanEntry};
use crate::faults::{FaultEvent, FaultInjector, JobFaults};
use crate::protocol::{
    CacheTier, DbSummary, ErrorCode, FlightIncident, FlightReply, FlightTrace, HistoryReply,
    HistorySampleReply, ProfileReply, ReportReply, Request, Response, SpanNode, StatsReply,
    MAX_FLIGHT_INCIDENTS, MAX_FLIGHT_TRACES, MAX_HISTORY_ENTRIES, MAX_HISTORY_SAMPLES,
    MAX_SPAN_DEPTH, MAX_SPAN_FIELDS, MAX_SPAN_NODES,
};
use crate::reactor::{run_reactor, Completion, ReactorConfig, ReactorSet};
use cqcount_core::planner::{count_prepared, prepare_plan_budgeted, WidthReport, WIDTH_CAP};
use cqcount_core::{for_each_answer, Budget, PlanError};
use cqcount_exec::BoundedQueue;
use cqcount_obs::flight::{FlightRecorder, RetainReason};
use cqcount_obs::history::MetricsHistory;
use cqcount_obs::metrics::{Counter, Gauge, Histogram, Registry};
use cqcount_obs::trace;
use cqcount_obs::watchdog::{HeartbeatKind, Watchdog};
use cqcount_query::fingerprint::fingerprint;
use cqcount_query::{parse_database, parse_query, ConjunctiveQuery, Var};
use cqcount_relational::Database;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything tunable about a server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port — the tests' mode).
    pub addr: String,
    /// Worker threads executing counting jobs.
    pub workers: usize,
    /// Reactor shards running the evented front end. `0` (the default)
    /// auto-sizes to half the available parallelism, clamped to `1..=4` —
    /// one shard saturates a loopback listener; counting work is what
    /// scales with cores, and that belongs to `workers`.
    pub reactors: usize,
    /// Bounded request-queue capacity; beyond it, `Overloaded`.
    pub queue_cap: usize,
    /// Default per-request wall-clock budget (requests may lower or raise
    /// it; `0` in a request means this default).
    pub default_budget_ms: u64,
    /// Hard cap on rows an `ENUMERATE` may return.
    pub max_enumerate: usize,
    /// Width cap for plan searches and width reports.
    pub width_cap: usize,
    /// Plan-cache capacity (level 1).
    pub plan_cache_cap: usize,
    /// Count-cache capacity (level 2).
    pub count_cache_cap: usize,
    /// Per-connection read deadline in milliseconds (0 = none). A peer
    /// idle past this is reaped — the connection closes without a reply.
    pub read_timeout_ms: u64,
    /// Per-connection write deadline in milliseconds (0 = none); protects
    /// workers from clients that stop draining their socket.
    pub write_timeout_ms: u64,
    /// The `retry_after_ms` hint attached to `Overloaded` errors.
    pub overload_retry_after_ms: u64,
    /// Wall-clock budget for *planning* (the decomposition search).
    /// `None` shares the request budget; `Some(ms)` gives planning its own
    /// slice (`Some(0)` forces immediate degradation — the chaos tests'
    /// deterministic trigger).
    pub plan_budget_ms: Option<u64>,
    /// Fault-injection profile (default [`crate::faults::FaultProfile::off`]).
    pub fault_profile: crate::faults::FaultProfile,
    /// Seed for the fault injector (`CQCOUNT_FAULT_SEED`).
    pub fault_seed: u64,
    /// When set, every counting request is traced and its span tree is
    /// appended to this file as one JSON line (`--trace-log`).
    pub trace_log: Option<std::path::PathBuf>,
    /// Most materialized counts kept live for incremental maintenance
    /// (see [`crate::mutation`]); `0` disables materialization, so
    /// mutations only invalidate.
    pub materialize_cap: usize,
    /// Durable root (`--data-dir`). `None` (the default) keeps the v6
    /// in-memory behavior: no WAL, no snapshots, no recovery.
    pub data_dir: Option<std::path::PathBuf>,
    /// WAL fsync policy (`--durability`); ignored without `data_dir`.
    pub durability: crate::durable::DurabilityPolicy,
    /// Snapshot + WAL-truncate after this many logged batches (`0`
    /// disables the threshold; `RELOAD` and `SYNC` still snapshot).
    pub snapshot_every: u64,
    /// Fault injection: fail every WAL write after the first N
    /// (`--wal-fail-after`), flipping the database read-only.
    pub wal_fail_after: Option<u64>,
    /// Fault injection: abort the process at a durability kill-point
    /// (`--crash-at`, or seeded via `--fault-profile crash`).
    pub crash_plan: Option<Arc<crate::faults::CrashPlan>>,
    /// Flight-recorder capacity: span trees retained for forensics
    /// (`--recorder-cap`; 0 disables the recorder entirely).
    pub recorder_cap: usize,
    /// Floor of the recorder's self-calibrating latency threshold in
    /// microseconds (`--recorder-threshold-us`). The effective per-opcode
    /// threshold is `max(this, live p99 of that opcode)`.
    pub recorder_threshold_us: u64,
    /// Metrics-history sampling interval (`--history-interval-ms`; 0
    /// disables history).
    pub history_interval_ms: u64,
    /// Metrics-history ring capacity in samples (`--history-cap`).
    pub history_cap: usize,
    /// Watchdog stall threshold in milliseconds (`--watchdog-stall-ms`;
    /// 0 disables the watchdog).
    pub watchdog_stall_ms: u64,
    /// Fault injection: on the Nth WAL fsync (1-based), sleep for the
    /// given milliseconds before syncing (`--wal-fsync-stall N:MS`) —
    /// the deterministic trigger for the forensics e2e test.
    pub wal_fsync_stall: Option<(u64, u64)>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            reactors: 0,
            queue_cap: 64,
            default_budget_ms: 10_000,
            max_enumerate: 10_000,
            width_cap: WIDTH_CAP,
            plan_cache_cap: 1024,
            count_cache_cap: 4096,
            read_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            overload_retry_after_ms: 100,
            plan_budget_ms: None,
            fault_profile: crate::faults::FaultProfile::off(),
            fault_seed: 0,
            trace_log: None,
            materialize_cap: 32,
            data_dir: None,
            durability: crate::durable::DurabilityPolicy::Batch,
            snapshot_every: 4096,
            wal_fail_after: None,
            crash_plan: None,
            recorder_cap: 64,
            recorder_threshold_us: 10_000,
            history_interval_ms: 1_000,
            history_cap: 512,
            watchdog_stall_ms: 2_000,
            wal_fsync_stall: None,
        }
    }
}

/// A loaded database at a specific epoch. `RELOAD` swaps in a fresh
/// `Arc`, so in-flight counts keep their state handle; protocol v6
/// mutations edit the instance *in place* under the write lock — counts
/// hold the read lock for their whole run, so they see either all of a
/// mutation batch or none of it.
#[derive(Debug)]
pub struct DbState {
    /// The instance. Readers (counts, enumerations, stats) take the read
    /// lock; mutation batches take the write lock.
    pub db: RwLock<Database>,
    /// Bumped by every reload; part of the count-cache key. Mutations do
    /// **not** bump it — they invalidate surgically by relation.
    pub epoch: u64,
    /// Content fingerprint at install time (observability only —
    /// correctness comes from the epoch and the mutation sweeps).
    pub fingerprint: u64,
    /// Durable state (WAL + snapshots) when the server has a
    /// `--data-dir`; `None` keeps the database memory-only. `RELOAD`
    /// re-uses the same handle across epochs — old-epoch WAL records are
    /// discarded at replay by the epoch check.
    pub(crate) durable: Option<Arc<crate::durable::DbDurable>>,
}

/// Request-latency buckets in microseconds: sub-millisecond cache hits up
/// through multi-second decomposition searches.
const LATENCY_BUCKETS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 5_000_000, 30_000_000,
];

/// Reply-write buckets in microseconds (small frames unless `ENUMERATE` or
/// `PROFILE` streams a large payload to a slow peer).
const WRITE_BUCKETS_US: &[u64] = &[10, 50, 100, 500, 1_000, 10_000, 100_000, 1_000_000];

/// Every exported metric, pre-registered so the hot path is handle
/// dereferences only. The v2 `STATS` reply is a *view* over these same
/// counters ([`Shared::stats`]), not parallel bookkeeping.
pub(crate) struct Metrics {
    registry: Registry,
    /// Requests fully served (reply written; errors excluded only when the
    /// request never produced a reply).
    pub(crate) served: Counter,
    // Per-opcode admission counters (`cqcount_requests_total{op=...}`).
    req_count: Counter,
    req_enumerate: Counter,
    req_width_report: Counter,
    req_stats: Counter,
    req_reload: Counter,
    req_flush: Counter,
    req_profile: Counter,
    req_metrics: Counter,
    req_insert: Counter,
    req_delete: Counter,
    req_mutate: Counter,
    req_sync: Counter,
    req_history: Counter,
    req_flight: Counter,
    // Per-ErrorCode outcome counters (`cqcount_errors_total{code=...}`).
    err_protocol: Counter,
    err_parse: Counter,
    err_unknown_db: Counter,
    err_plan: Counter,
    err_budget_exceeded: Counter,
    err_overloaded: Counter,
    err_internal: Counter,
    err_read_only: Counter,
    degraded: Counter,
    panicked: Counter,
    pub(crate) reaped: Counter,
    pub(crate) queue_depth: Gauge,
    pub(crate) latency_us: Histogram,
    /// Per-opcode request-latency series
    /// (`cqcount_request_latency_by_op_us{op=...}`) — the flight
    /// recorder's self-calibrating thresholds read their live p99.
    latency_by_op: Vec<(&'static str, Histogram)>,
    pub(crate) reply_write_us: Histogram,
    /// Warm-hit requests answered inline on a reactor shard.
    pub(crate) fast_path_hits: Counter,
    /// Reactor poll returns (idle ticks included).
    pub(crate) reactor_wakeups: Counter,
    // Cache counters, shared with the caches themselves (the handles the
    // caches increment are the ones the registry renders).
    plan_hits: Counter,
    plan_misses: Counter,
    plan_evictions: Counter,
    count_hits: Counter,
    count_misses: Counter,
    count_evictions: Counter,
    faults_injected: Gauge,
    /// Effective tuple mutations applied (no-ops excluded).
    pub(crate) mutations: Counter,
    /// Join-tree bags re-aggregated by incremental maintenance.
    pub(crate) delta_bags_touched: Counter,
    /// Mutations that dropped a materialization and fell back to
    /// targeted invalidation.
    pub(crate) delta_fallbacks: Counter,
    /// WAL records appended (one per effective mutation batch).
    pub(crate) wal_records: Counter,
    /// Bytes appended to WALs.
    pub(crate) wal_bytes: Counter,
    /// Completed WAL fsyncs.
    pub(crate) wal_fsyncs: Counter,
    /// Snapshots written (threshold, `SYNC`, and `RELOAD`).
    pub(crate) snapshots: Counter,
    /// WAL records replayed during startup recovery.
    pub(crate) wal_replayed: Counter,
    /// Snapshots successfully loaded during startup recovery.
    pub(crate) recovery_snapshots: Counter,
    /// Torn WAL tails truncated during recovery (expected crash residue).
    pub(crate) recovery_torn: Counter,
    /// Corrupt WAL records or snapshots hit during recovery (never
    /// expected; the crash-smoke CI gate demands zero).
    pub(crate) recovery_corrupt: Counter,
    /// WAL bytes discarded by recovery truncation.
    pub(crate) recovery_truncated_bytes: Counter,
    /// Databases currently read-only (scrape-time gauge).
    pub(crate) read_only_dbs: Gauge,
    /// Span trees retained by the flight recorder.
    pub(crate) recorder_retained: Counter,
    /// Incidents recorded by the flight recorder.
    pub(crate) recorder_incidents: Counter,
    /// Stall edges flagged by the watchdog (one per transition).
    pub(crate) watchdog_stalls: Counter,
    /// Reactor shards currently flagged as stalled.
    pub(crate) watchdog_stalled_shards: Gauge,
    /// Pool workers currently flagged as stalled.
    pub(crate) watchdog_stalled_workers: Gauge,
    /// Metrics-history samples taken.
    pub(crate) history_samples: Counter,
}

/// Every opcode label, in wire order — the per-opcode latency family
/// pre-registers one series per label so the hot path never allocates.
const OP_LABELS: &[&str] = &[
    "count",
    "enumerate",
    "width_report",
    "stats",
    "reload",
    "flush",
    "profile",
    "metrics",
    "insert",
    "delete",
    "mutate",
    "sync",
    "history",
    "flight",
];

impl Metrics {
    fn new() -> Metrics {
        let r = Registry::new();
        let req = |op| {
            r.counter_labeled(
                "cqcount_requests_total",
                "Requests admitted, by opcode.",
                "op",
                op,
            )
        };
        let err = |code| {
            r.counter_labeled(
                "cqcount_errors_total",
                "Error replies sent, by error code.",
                "code",
                code,
            )
        };
        let cache = |name, help, which| r.counter_labeled(name, help, "cache", which);
        Metrics {
            served: r.counter(
                "cqcount_requests_served_total",
                "Requests that produced a reply (including error replies).",
            ),
            req_count: req("count"),
            req_enumerate: req("enumerate"),
            req_width_report: req("width_report"),
            req_stats: req("stats"),
            req_reload: req("reload"),
            req_flush: req("flush"),
            req_profile: req("profile"),
            req_metrics: req("metrics"),
            req_insert: req("insert"),
            req_delete: req("delete"),
            req_mutate: req("mutate"),
            req_sync: req("sync"),
            req_history: req("history"),
            req_flight: req("flight"),
            err_protocol: err("protocol"),
            err_parse: err("parse"),
            err_unknown_db: err("unknown_db"),
            err_plan: err("plan"),
            err_budget_exceeded: err("budget_exceeded"),
            err_overloaded: err("overloaded"),
            err_internal: err("internal"),
            err_read_only: err("read_only"),
            degraded: r.counter(
                "cqcount_degraded_total",
                "Counts served by a degraded (fallback) plan.",
            ),
            panicked: r.counter(
                "cqcount_worker_panics_total",
                "Worker panics caught (including injected ones).",
            ),
            reaped: r.counter(
                "cqcount_connections_reaped_total",
                "Connections closed by the idle/stall deadline.",
            ),
            queue_depth: r.gauge(
                "cqcount_queue_depth",
                "Counting jobs waiting in the bounded queue.",
            ),
            latency_us: r.histogram(
                "cqcount_request_latency_us",
                "Request latency from decode to reply-ready, microseconds.",
                LATENCY_BUCKETS_US,
            ),
            latency_by_op: OP_LABELS
                .iter()
                .map(|op| {
                    (
                        *op,
                        r.histogram_labeled(
                            "cqcount_request_latency_by_op_us",
                            "Request latency by opcode, microseconds.",
                            "op",
                            op,
                            LATENCY_BUCKETS_US,
                        ),
                    )
                })
                .collect(),
            reply_write_us: r.histogram(
                "cqcount_reply_write_us",
                "Time spent encoding + writing a reply frame, microseconds.",
                WRITE_BUCKETS_US,
            ),
            fast_path_hits: r.counter(
                "cqcount_fast_path_hits_total",
                "Warm-hit requests answered inline on the reactor (no queue).",
            ),
            reactor_wakeups: r.counter(
                "cqcount_reactor_wakeups_total",
                "Reactor poll wakeups across all shards.",
            ),
            plan_hits: cache("cqcount_cache_hits_total", "Cache hits.", "plan"),
            plan_misses: cache("cqcount_cache_misses_total", "Cache misses.", "plan"),
            plan_evictions: cache(
                "cqcount_cache_evictions_total",
                "Entries evicted by the FIFO bound.",
                "plan",
            ),
            count_hits: cache("cqcount_cache_hits_total", "Cache hits.", "count"),
            count_misses: cache("cqcount_cache_misses_total", "Cache misses.", "count"),
            count_evictions: cache(
                "cqcount_cache_evictions_total",
                "Entries evicted by the FIFO bound.",
                "count",
            ),
            faults_injected: r.gauge(
                "cqcount_faults_injected",
                "Faults injected so far (0 when no fault profile is active).",
            ),
            mutations: r.counter(
                "cqcount_mutations_total",
                "Effective tuple mutations applied (duplicate inserts and absent deletes excluded).",
            ),
            delta_bags_touched: r.counter(
                "cqcount_delta_bags_touched_total",
                "Join-tree bags re-aggregated by incremental count maintenance.",
            ),
            delta_fallbacks: r.counter(
                "cqcount_delta_fallbacks_total",
                "Materializations dropped mid-mutation (fell back to cache invalidation).",
            ),
            wal_records: r.counter(
                "cqcount_wal_records_total",
                "WAL records appended (one per effective mutation batch).",
            ),
            wal_bytes: r.counter("cqcount_wal_bytes_total", "Bytes appended to WALs."),
            wal_fsyncs: r.counter("cqcount_wal_fsyncs_total", "Completed WAL fsyncs."),
            snapshots: r.counter(
                "cqcount_snapshots_written_total",
                "Checksummed snapshots written (threshold, SYNC, and RELOAD).",
            ),
            wal_replayed: r.counter(
                "cqcount_wal_records_replayed_total",
                "WAL records replayed during startup recovery.",
            ),
            recovery_snapshots: r.counter(
                "cqcount_recovery_snapshots_loaded_total",
                "Snapshots successfully loaded during startup recovery.",
            ),
            recovery_torn: r.counter(
                "cqcount_recovery_torn_tails_total",
                "Torn WAL tails truncated during recovery (normal crash residue).",
            ),
            recovery_corrupt: r.counter(
                "cqcount_recovery_corrupt_records_total",
                "Corrupt WAL records or snapshots found during recovery.",
            ),
            recovery_truncated_bytes: r.counter(
                "cqcount_recovery_truncated_bytes_total",
                "WAL bytes discarded by recovery truncation.",
            ),
            read_only_dbs: r.gauge(
                "cqcount_read_only_dbs",
                "Databases currently degraded to read-only after a durability failure.",
            ),
            recorder_retained: r.counter(
                "cqcount_recorder_retained_total",
                "Span trees retained by the flight recorder.",
            ),
            recorder_incidents: r.counter(
                "cqcount_recorder_incidents_total",
                "Discrete incidents recorded by the flight recorder.",
            ),
            watchdog_stalls: r.counter(
                "cqcount_watchdog_stalls_total",
                "Stall edges the watchdog flagged (one per transition into stalled).",
            ),
            watchdog_stalled_shards: r.gauge(
                "cqcount_watchdog_stalled_shards",
                "Reactor shards currently flagged as stalled.",
            ),
            watchdog_stalled_workers: r.gauge(
                "cqcount_watchdog_stalled_workers",
                "Pool workers currently flagged as stalled past their deadline budget.",
            ),
            history_samples: r.counter(
                "cqcount_history_samples_total",
                "Metrics-history samples recorded.",
            ),
            registry: r,
        }
    }

    /// Exposes the process-wide planner search counters on this registry
    /// (shared handles — the decomposition engine increments them
    /// directly, see `cqcount_obs::planner`).
    fn attach_planner_counters(&self) {
        let p = cqcount_obs::planner::counters();
        let events: [(&str, &Counter); 6] = [
            ("blocks_solved", &p.blocks_solved),
            ("memo_hits", &p.memo_hits),
            ("negative_reuse", &p.negative_reuse),
            ("candidates_yielded", &p.candidates_yielded),
            ("universes_opened", &p.universes_opened),
            ("widths_searched", &p.widths_searched),
        ];
        for (event, counter) in events {
            self.registry.attach_counter(
                "cqcount_planner_events_total",
                "Decomposition-search events, by kind (process-wide).",
                Some(("event", event)),
                counter,
            );
        }
    }

    /// The admission counter for a decoded request.
    pub(crate) fn op_counter(&self, r: &Request) -> &Counter {
        match r {
            Request::Count { .. } => &self.req_count,
            Request::Enumerate { .. } => &self.req_enumerate,
            Request::WidthReport { .. } => &self.req_width_report,
            Request::Stats => &self.req_stats,
            Request::Reload { .. } => &self.req_reload,
            Request::Flush => &self.req_flush,
            Request::Profile { .. } => &self.req_profile,
            Request::Metrics => &self.req_metrics,
            Request::Insert { .. } => &self.req_insert,
            Request::Delete { .. } => &self.req_delete,
            Request::Mutate { .. } => &self.req_mutate,
            Request::Sync { .. } => &self.req_sync,
            Request::History { .. } => &self.req_history,
            Request::Flight { .. } => &self.req_flight,
        }
    }

    /// The registry backing every handle (the history sampler's input).
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The latency histogram for an opcode label, if registered.
    pub(crate) fn op_latency(&self, op: &str) -> Option<&Histogram> {
        self.latency_by_op
            .iter()
            .find(|(label, _)| *label == op)
            .map(|(_, h)| h)
    }

    /// The outcome counter for an error code.
    fn err_counter(&self, code: ErrorCode) -> &Counter {
        match code {
            ErrorCode::Protocol => &self.err_protocol,
            ErrorCode::Parse => &self.err_parse,
            ErrorCode::UnknownDb => &self.err_unknown_db,
            ErrorCode::Plan => &self.err_plan,
            ErrorCode::BudgetExceeded => &self.err_budget_exceeded,
            ErrorCode::Overloaded => &self.err_overloaded,
            ErrorCode::Internal => &self.err_internal,
            ErrorCode::ReadOnly => &self.err_read_only,
        }
    }
}

/// The short opcode label used for span tags and the trace log.
pub(crate) fn op_name(r: &Request) -> &'static str {
    match r {
        Request::Count { .. } => "count",
        Request::Enumerate { .. } => "enumerate",
        Request::WidthReport { .. } => "width_report",
        Request::Stats => "stats",
        Request::Reload { .. } => "reload",
        Request::Flush => "flush",
        Request::Profile { .. } => "profile",
        Request::Metrics => "metrics",
        Request::Insert { .. } => "insert",
        Request::Delete { .. } => "delete",
        Request::Mutate { .. } => "mutate",
        Request::Sync { .. } => "sync",
        Request::History { .. } => "history",
        Request::Flight { .. } => "flight",
    }
}

/// The `--trace-log` sink. Lines are pre-formatted by whoever ran the
/// request (worker or reactor fast path); shards append a whole drain
/// batch per lock acquisition, so the mutex is off the per-request path.
pub(crate) struct TraceSink {
    file: Mutex<std::fs::File>,
}

impl TraceSink {
    /// Appends a batch of newline-terminated JSON lines.
    pub(crate) fn append(&self, batch: &str) {
        let _ = self.file.lock().unwrap().write_all(batch.as_bytes());
    }

    /// Pushes buffered lines to disk on graceful shutdown.
    pub(crate) fn sync(&self) {
        let _ = self.file.lock().unwrap().sync_all();
    }
}

pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) dbs: RwLock<HashMap<String, Arc<DbState>>>,
    pub(crate) plans: PlanCache,
    pub(crate) counts: CountCache,
    /// Level 0: raw query text → canonical form + fingerprint, installed
    /// by workers after parsing. The reactor's fast path probes it so a
    /// warm hit never parses.
    pub(crate) fingerprints: FingerprintCache,
    pub(crate) metrics: Metrics,
    /// Live materialized counts, patched in place by mutations.
    pub(crate) materialized: crate::mutation::MaterializedSet,
    pub(crate) injector: Option<Arc<FaultInjector>>,
    /// Durable root (`--data-dir`): WAL + snapshot configuration shared
    /// by every database; `None` keeps the server memory-only.
    pub(crate) durable_store: Option<crate::durable::DurableStore>,
    pub(crate) stop: AtomicBool,
    /// Open trace-log sink (`--trace-log`).
    pub(crate) trace: Option<TraceSink>,
    /// Monotonic sequence number for trace-log lines.
    trace_seq: AtomicU64,
    /// The flight recorder (`recorder_cap > 0`): every worker request is
    /// speculatively traced and retained here when it proves interesting.
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
    /// The metrics-history ring, fed by the sampler thread.
    pub(crate) history: Option<Arc<MetricsHistory>>,
    /// The stall watchdog; shards and workers register heartbeats here.
    pub(crate) watchdog: Option<Arc<Watchdog>>,
}

impl Shared {
    /// Updates the per-`ErrorCode` observability counters for an outgoing
    /// response. Called once per response, just before it hits the wire.
    pub(crate) fn account(&self, response: &Response) {
        match response {
            Response::Error { code, .. } => self.metrics.err_counter(*code).inc(),
            Response::Count { degraded: true, .. } => self.metrics.degraded.inc(),
            Response::Profile(r) if r.degraded => self.metrics.degraded.inc(),
            _ => {}
        }
    }

    fn stats(&self) -> StatsReply {
        let (plan_hits, plan_misses) = self.plans.counters();
        let (count_hits, count_misses) = self.counts.counters();
        let planner = cqcount_obs::planner::counters();
        let mut dbs: Vec<DbSummary> = self
            .dbs
            .read()
            .unwrap()
            .iter()
            .map(|(name, st)| {
                let (tuples, mutation_seq, resident_bytes, mapped_bytes) = {
                    let db = st.db.read().unwrap();
                    (
                        db.total_tuples() as u64,
                        db.mutation_seq(),
                        db.resident_bytes() as u64,
                        db.mapped_bytes() as u64,
                    )
                };
                DbSummary {
                    name: name.clone(),
                    epoch: st.epoch,
                    fingerprint: st.fingerprint,
                    tuples,
                    mutation_seq,
                    durable_seq: st.durable.as_ref().map_or(0, |d| d.durable_seq()),
                    persisted: st.durable.is_some(),
                    read_only: st.durable.as_ref().is_some_and(|d| d.read_only()),
                    recovered_records: st.durable.as_ref().map_or(0, |d| d.recovered_records),
                    resident_bytes,
                    mapped_bytes,
                }
            })
            .collect();
        dbs.sort_by(|a, b| a.name.cmp(&b.name));
        StatsReply {
            served: self.metrics.served.get(),
            overloaded: self.metrics.err_overloaded.get(),
            plan_hits,
            plan_misses,
            count_hits,
            count_misses,
            malformed: self.metrics.err_protocol.get(),
            budget_exceeded: self.metrics.err_budget_exceeded.get(),
            panicked: self.metrics.panicked.get(),
            reaped: self.metrics.reaped.get(),
            degraded: self.metrics.degraded.get(),
            faults_injected: self.injector.as_ref().map_or(0, |i| i.injected()),
            dbs,
            planner_blocks_solved: planner.blocks_solved.get(),
            planner_memo_hits: planner.memo_hits.get(),
            planner_negative_reuse: planner.negative_reuse.get(),
            planner_candidates: planner.candidates_yielded.get(),
            planner_universes: planner.universes_opened.get(),
            planner_widths_searched: planner.widths_searched.get(),
            mutations_applied: self.metrics.mutations.get(),
            delta_bags_touched: self.metrics.delta_bags_touched.get(),
            delta_fallbacks: self.metrics.delta_fallbacks.get(),
            recorder_retained: self.recorder.as_ref().map_or(0, |r| r.retained()),
            stalled_shards: self.metrics.watchdog_stalled_shards.get(),
            stalled_workers: self.metrics.watchdog_stalled_workers.get(),
            watchdog_stalls: self.metrics.watchdog_stalls.get(),
        }
    }

    /// The flight recorder's latency threshold for one opcode: the live
    /// p99 of that opcode's latency series, floored by the configured
    /// minimum so a fast, healthy opcode doesn't retain its own noise.
    pub(crate) fn retention_threshold_us(&self, op: &str) -> u64 {
        let p99 = self
            .metrics
            .op_latency(op)
            .and_then(|h| h.quantile(0.99))
            .unwrap_or(0);
        p99.max(self.config.recorder_threshold_us)
    }

    /// Renders the metrics registry, refreshing the scrape-time gauges.
    fn render_metrics(&self, queue: &BoundedQueue<Job>) -> String {
        self.metrics.queue_depth.set(queue.len() as u64);
        self.metrics
            .faults_injected
            .set(self.injector.as_ref().map_or(0, |i| i.injected()));
        let read_only = self
            .dbs
            .read()
            .unwrap()
            .values()
            .filter(|st| st.durable.as_ref().is_some_and(|d| d.read_only()))
            .count();
        self.metrics.read_only_dbs.set(read_only as u64);
        self.metrics.registry.render()
    }

    fn install_db(&self, name: &str, db: Database) -> u64 {
        let fingerprint = db.fingerprint();
        let (epoch, state) = {
            let mut dbs = self.dbs.write().unwrap();
            let old = dbs.get(name);
            let epoch = old.map_or(1, |old| old.epoch + 1);
            // Re-use the previous durable handle across reloads: the WAL
            // file and read-only status belong to the *name*, not the
            // epoch. An old-epoch record that slips in before the
            // post-install snapshot truncates the log is discarded at
            // replay by the epoch check — same semantics as the
            // in-memory reload (the old contents vanish).
            let durable = match old {
                Some(old) => old.durable.clone(),
                None => self
                    .durable_store
                    .as_ref()
                    .map(|s| Arc::new(s.open_db(name))),
            };
            let state = Arc::new(DbState {
                db: RwLock::new(db),
                epoch,
                fingerprint,
                durable,
            });
            dbs.insert(name.to_owned(), Arc::clone(&state));
            (epoch, state)
        };
        // The bump made every older-epoch artifact unaddressable; reclaim
        // the memory now instead of waiting for FIFO churn.
        self.counts.purge_epochs_below(name, epoch);
        self.materialized.purge_epochs_below(name, epoch);
        // Persist the new contents before acknowledging the reload: a
        // crash after the `Ok` must recover the *new* database. Under the
        // read lock — a mutation racing the install lands either before
        // the snapshot (included, its WAL record truncated) or after
        // (logged against the fresh, already-truncated WAL).
        if let Some(d) = &state.durable {
            let guard = state.db.read().unwrap();
            match d.sync_and_snapshot(&guard, epoch) {
                Ok(()) => self.metrics.snapshots.inc(),
                Err(e) => d.set_read_only(format!("reload snapshot failed: {e}")),
            }
        }
        epoch
    }

    /// Installs a recovered database at its pre-crash epoch with its
    /// durable handle, folding the recovery evidence into the metrics.
    fn install_recovered(
        &self,
        name: &str,
        rec: crate::snapshot::Recovered,
        handle: crate::durable::DbDurable,
    ) {
        let m = &self.metrics;
        m.wal_replayed.add(rec.replayed);
        m.recovery_snapshots.add(u64::from(rec.snapshot_loaded));
        m.recovery_torn.add(u64::from(rec.torn));
        m.recovery_corrupt
            .add(u64::from(rec.corrupt) + rec.snapshots_skipped);
        m.recovery_truncated_bytes.add(rec.truncated_bytes);
        eprintln!(
            "cqcountd: recovered db {name:?}: epoch {}, seq {}, {} tuples \
             (snapshot: {}, replayed {} records, truncated {} bytes{}{})",
            rec.epoch,
            rec.db.mutation_seq(),
            rec.db.total_tuples(),
            if rec.snapshot_loaded { "yes" } else { "no" },
            rec.replayed,
            rec.truncated_bytes,
            if rec.torn { ", torn tail" } else { "" },
            if rec.corrupt || rec.snapshots_skipped > 0 {
                ", CORRUPT records seen"
            } else {
                ""
            },
        );
        let state = Arc::new(DbState {
            fingerprint: rec.db.fingerprint(),
            db: RwLock::new(rec.db),
            epoch: rec.epoch.max(1),
            durable: Some(Arc::new(handle)),
        });
        self.dbs.write().unwrap().insert(name.to_owned(), state);
    }
}

/// A counting job queued for a worker. The response routes back to the
/// owning reactor shard via `(conn_id, seq)`.
pub(crate) struct Job {
    pub(crate) request: Request,
    /// Connection the request arrived on (shard = `conn_id % nshards`).
    pub(crate) conn_id: u64,
    /// Per-connection request sequence, assigned at decode.
    pub(crate) seq: u64,
    /// Faults drawn for this job at admission (default: none).
    pub(crate) faults: JobFaults,
    /// [`trace::now_ns`] at admission, for the root span's `wait_ns`.
    pub(crate) submitted_ns: u64,
    /// Time the reactor spent decoding the request payload.
    pub(crate) decode_ns: u64,
}

/// A running server. Dropping the handle stops it; [`ServerHandle::shutdown`]
/// does the same explicitly. Shutdown is idempotent and never blocks on the
/// network: reactors wake via their self-pipe regardless of traffic, so the
/// daemon winds down even if the listener has already died.
pub struct ServerHandle {
    shared: Arc<Shared>,
    queue: Arc<BoundedQueue<Job>>,
    addr: SocketAddr,
    set: Arc<ReactorSet>,
    reactor_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    /// Sampler + watchdog threads, woken early at shutdown via `aux_stop`.
    aux_threads: Vec<JoinHandle<()>>,
    aux_stop: Arc<(Mutex<bool>, Condvar)>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Installs (or replaces) a database directly, bypassing the protocol.
    pub fn install_db(&self, name: &str, db: Database) -> u64 {
        self.shared.install_db(name, db)
    }

    /// Faults injected so far (0 when no fault profile is active).
    pub fn faults_injected(&self) -> u64 {
        self.shared.injector.as_ref().map_or(0, |i| i.injected())
    }

    /// The fault injector's replayable event log (empty when inactive).
    pub fn fault_events(&self) -> Vec<FaultEvent> {
        self.shared
            .injector
            .as_ref()
            .map_or_else(Vec::new, |i| i.events())
    }

    /// Stops accepting, drains workers, and joins every owned thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Idempotent shutdown core, shared by [`ServerHandle::shutdown`] and
    /// `Drop`. Order matters: workers drain and post their last
    /// completions *before* the reactors are woken, so a final drain on
    /// each shard delivers in-flight replies and flushes buffered trace
    /// lines before the threads exit.
    fn shutdown_inner(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            let (lock, cvar) = &*self.aux_stop;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        self.queue.close();
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        self.set.wake_all();
        for t in self.reactor_threads.drain(..) {
            let _ = t.join();
        }
        for t in self.aux_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(trace) = &self.shared.trace {
            trace.sync();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Resolves `config.reactors`: explicit value, or auto-sized.
fn reactor_count(config: &ServerConfig) -> usize {
    if config.reactors > 0 {
        return config.reactors;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / 2).clamp(1, 4)
}

/// Binds, spawns the threads, and returns a handle. `initial` holds the
/// databases served from the start (more can arrive via `RELOAD`).
pub fn serve(
    config: ServerConfig,
    initial: Vec<(String, Database)>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // Non-blocking listener: it joins shard 0's poll set, so accepting is
    // readiness-driven and shutdown needs no wake-up connection.
    listener.set_nonblocking(true)?;
    let injector = config
        .fault_profile
        .is_active()
        .then(|| FaultInjector::new(config.fault_profile.clone(), config.fault_seed));
    // Append, never truncate: a daemon restart must not wipe the trace
    // history a previous run already paid to record.
    let trace = match &config.trace_log {
        Some(path) => Some(TraceSink {
            file: Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
        }),
        None => None,
    };
    let metrics = Metrics::new();
    metrics.attach_planner_counters();
    let materialized = crate::mutation::MaterializedSet::new(config.materialize_cap);
    let plans = PlanCache::with_counters(
        config.plan_cache_cap,
        metrics.plan_hits.clone(),
        metrics.plan_misses.clone(),
        metrics.plan_evictions.clone(),
    );
    let counts = CountCache::with_counters(
        config.count_cache_cap,
        metrics.count_hits.clone(),
        metrics.count_misses.clone(),
        metrics.count_evictions.clone(),
    );
    // Level 0 sized to the larger cache tier it fronts.
    let fingerprints = FingerprintCache::new(config.count_cache_cap.max(config.plan_cache_cap));
    let nshards = reactor_count(&config);
    let durable_store = config.data_dir.clone().map(|dir| {
        let crash = config.crash_plan.clone().or_else(|| {
            (config.fault_profile.label == "crash")
                .then(|| Arc::new(crate::faults::CrashPlan::from_seed(config.fault_seed)))
        });
        crate::durable::DurableStore::new(
            dir,
            config.durability,
            config.snapshot_every,
            config.wal_fail_after,
            crash,
            config.wal_fsync_stall,
        )
    });
    let recorder =
        (config.recorder_cap > 0).then(|| Arc::new(FlightRecorder::new(config.recorder_cap, 256)));
    let history = (config.history_interval_ms > 0).then(|| {
        Arc::new(MetricsHistory::new(
            config.history_cap,
            config.history_interval_ms,
        ))
    });
    let watchdog = (config.watchdog_stall_ms > 0).then(|| {
        Arc::new(Watchdog::new(
            config.watchdog_stall_ms.saturating_mul(1_000_000),
        ))
    });
    let shared = Arc::new(Shared {
        plans,
        counts,
        fingerprints,
        metrics,
        materialized,
        dbs: RwLock::new(HashMap::new()),
        injector,
        durable_store,
        stop: AtomicBool::new(false),
        trace,
        trace_seq: AtomicU64::new(0),
        recorder,
        history,
        watchdog,
        config,
    });
    // Crash recovery comes first and wins over `initial`: a database that
    // lived through mutations has state the boot-time facts file cannot
    // know about. Names only on the command line still install (and get
    // their first snapshot via `install_db`).
    let mut recovered_names = std::collections::HashSet::new();
    if let Some(store) = &shared.durable_store {
        for (name, rec, handle) in store.recover_all()? {
            recovered_names.insert(name.clone());
            shared.install_recovered(&name, rec, handle);
        }
    }
    for (name, db) in initial {
        if !recovered_names.contains(&name) {
            shared.install_db(&name, db);
        }
    }
    let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(shared.config.queue_cap));
    let (set, pipes) = ReactorSet::new(nshards)?;

    let worker_threads: Vec<JoinHandle<()>> = (0..shared.config.workers.max(1))
        .map(|i| {
            let queue = Arc::clone(&queue);
            let shared = Arc::clone(&shared);
            let set = Arc::clone(&set);
            let heartbeat = shared.watchdog.as_ref().map(|dog| {
                dog.register(
                    format!("worker-{i}"),
                    HeartbeatKind::Worker,
                    trace::now_ns(),
                )
            });
            std::thread::spawn(move || {
                while let Some(job) = queue.pop() {
                    shared.metrics.queue_depth.set(queue.len() as u64);
                    if let Some(hb) = &heartbeat {
                        let now = trace::now_ns();
                        hb.begin_work(now, job_deadline_ns(&shared, &job.request, now));
                    }
                    let (response, trace_line) = catch_unwind(AssertUnwindSafe(|| {
                        if job.faults.panic {
                            panic!("fault injection: forced worker panic");
                        }
                        execute_job(&shared, &job)
                    }))
                    .unwrap_or_else(|_| {
                        shared.metrics.panicked.inc();
                        (
                            Response::Error {
                                code: ErrorCode::Internal,
                                message: "internal error: worker panicked".into(),
                                retry_after_ms: 0,
                            },
                            None,
                        )
                    });
                    if let Some(hb) = &heartbeat {
                        hb.end_work();
                    }
                    set.post_completion(Completion {
                        conn_id: job.conn_id,
                        seq: job.seq,
                        response,
                        trace_line,
                    });
                }
            })
        })
        .collect();

    let aux_stop: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));
    let mut aux_threads = Vec::new();
    if let Some(history) = shared.history.clone() {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&aux_stop);
        let interval = Duration::from_millis(history.interval_ms().max(1));
        aux_threads.push(std::thread::spawn(move || {
            let (lock, cvar) = &*stop;
            let mut stopped = lock.lock().unwrap();
            while !*stopped {
                let (guard, _) = cvar.wait_timeout(stopped, interval).unwrap();
                stopped = guard;
                if *stopped {
                    break;
                }
                history.record(shared.metrics.registry());
                shared.metrics.history_samples.inc();
            }
        }));
    }
    if let Some(watchdog) = shared.watchdog.clone() {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&aux_stop);
        let stall_ms = shared.config.watchdog_stall_ms;
        // Scan a few times per stall window so a flagged member is caught
        // promptly, but never busier than every 10ms.
        let cadence = Duration::from_millis((stall_ms / 4).clamp(10, 250));
        aux_threads.push(std::thread::spawn(move || {
            let (lock, cvar) = &*stop;
            let mut stopped = lock.lock().unwrap();
            while !*stopped {
                let (guard, _) = cvar.wait_timeout(stopped, cadence).unwrap();
                stopped = guard;
                if *stopped {
                    break;
                }
                let report = watchdog.scan(trace::now_ns());
                let m = &shared.metrics;
                m.watchdog_stalled_shards.set(report.stalled_polled);
                m.watchdog_stalled_workers.set(report.stalled_workers);
                for name in &report.newly_stalled {
                    m.watchdog_stalls.inc();
                    if let Some(rec) = &shared.recorder {
                        rec.incident("stall", format!("{name} unresponsive past {stall_ms}ms"));
                        m.recorder_incidents.inc();
                    }
                }
            }
        }));
    }

    let mut listener = Some(listener);
    let reactor_threads: Vec<JoinHandle<()>> = pipes
        .into_iter()
        .enumerate()
        .map(|(shard, pipe)| {
            let cfg = ReactorConfig {
                shard,
                shared: Arc::clone(&shared),
                queue: Arc::clone(&queue),
                set: Arc::clone(&set),
                pipe,
                listener: listener.take(),
            };
            std::thread::spawn(move || run_reactor(cfg))
        })
        .collect();

    Ok(ServerHandle {
        shared,
        queue,
        addr,
        set,
        reactor_threads,
        worker_threads,
        aux_threads,
        aux_stop,
    })
}

/// The watchdog deadline for one job: double the request's wall-clock
/// budget (the grace is folded in here — a job slightly over budget
/// normally errors out on its own; the watchdog fires when it blows well
/// past). Unbudgeted ops (mutations, syncs) rely on the generic
/// busy-too-long rule instead.
fn job_deadline_ns(shared: &Shared, request: &Request, now_ns: u64) -> u64 {
    let budget_ms = match request {
        Request::Count { budget_ms, .. }
        | Request::Profile { budget_ms, .. }
        | Request::Enumerate { budget_ms, .. } => *budget_ms,
        _ => return 0,
    };
    let ms = if budget_ms == 0 {
        shared.config.default_budget_ms
    } else {
        budget_ms
    };
    if ms == 0 {
        return 0;
    }
    now_ns.saturating_add(ms.saturating_mul(2_000_000))
}

/// Answers an admin request inline (`None` for counting work). Admin
/// opcodes bypass admission control: they are cheap and must work
/// *especially* when the server is overloaded. `served` is bumped before
/// the body is built so a `STATS`/`METRICS` snapshot includes itself.
pub(crate) fn handle_admin(
    shared: &Shared,
    queue: &BoundedQueue<Job>,
    request: &Request,
) -> Option<Response> {
    Some(match request {
        Request::Stats => {
            shared.metrics.served.inc();
            Response::Stats(shared.stats())
        }
        Request::Metrics => {
            shared.metrics.served.inc();
            Response::Metrics {
                text: shared.render_metrics(queue),
            }
        }
        Request::Reload { db, text } => {
            shared.metrics.served.inc();
            match parse_database(text) {
                Ok(parsed) => Response::Ok {
                    epoch: shared.install_db(db, parsed),
                },
                Err(e) => Response::Error {
                    code: ErrorCode::Parse,
                    message: e.to_string(),
                    retry_after_ms: 0,
                },
            }
        }
        Request::Flush => {
            shared.metrics.served.inc();
            shared.plans.clear();
            shared.counts.clear();
            shared.fingerprints.clear();
            shared.materialized.clear();
            Response::Ok { epoch: 0 }
        }
        Request::History { since_seq, limit } => {
            shared.metrics.served.inc();
            let limit = if *limit == 0 {
                MAX_HISTORY_SAMPLES
            } else {
                (*limit as usize).min(MAX_HISTORY_SAMPLES)
            };
            match &shared.history {
                Some(history) => {
                    let (next_seq, samples) = history.since(*since_seq, limit);
                    Response::History(HistoryReply {
                        interval_ms: history.interval_ms(),
                        next_seq,
                        samples: samples
                            .into_iter()
                            .map(|s| HistorySampleReply {
                                seq: s.seq,
                                unix_ms: s.unix_ms,
                                uptime_ms: s.uptime_ms,
                                entries: s.entries.into_iter().take(MAX_HISTORY_ENTRIES).collect(),
                            })
                            .collect(),
                    })
                }
                // History disabled: an empty reply with interval 0, not an
                // error — a poller can tell the difference and move on.
                None => Response::History(HistoryReply::default()),
            }
        }
        Request::Flight { limit } => {
            shared.metrics.served.inc();
            let traces_limit = if *limit == 0 {
                MAX_FLIGHT_TRACES
            } else {
                (*limit as usize).min(MAX_FLIGHT_TRACES)
            };
            let incidents_limit = if *limit == 0 {
                MAX_FLIGHT_INCIDENTS
            } else {
                (*limit as usize).min(MAX_FLIGHT_INCIDENTS)
            };
            match &shared.recorder {
                Some(rec) => Response::Flight(FlightReply {
                    traces: rec
                        .traces(traces_limit)
                        .into_iter()
                        .map(|t| FlightTrace {
                            seq: t.seq,
                            op: t.op,
                            reason: t.reason.name().to_owned(),
                            latency_us: t.latency_us,
                            threshold_us: t.threshold_us,
                            unix_ms: t.unix_ms,
                            root: span_node_of(&t.root),
                        })
                        .collect(),
                    incidents: rec
                        .incidents(incidents_limit)
                        .into_iter()
                        .map(|i| FlightIncident {
                            seq: i.seq,
                            kind: i.kind,
                            detail: i.detail,
                            unix_ms: i.unix_ms,
                        })
                        .collect(),
                }),
                None => Response::Flight(FlightReply::default()),
            }
        }
        _ => return None,
    })
}

/// The reply for a counting request bounced by the bounded queue.
pub(crate) fn overload_response(shared: &Shared, queue: &BoundedQueue<Job>) -> Response {
    Response::Error {
        code: ErrorCode::Overloaded,
        message: format!("overloaded: request queue at capacity {}", queue.capacity()),
        retry_after_ms: shared.config.overload_retry_after_ms,
    }
}

/// The warm-hit fast path: answers a counting request on the reactor
/// thread when every required artifact is already cached, without parsing
/// the query or touching the worker queue.
///
/// Admission rules (anything else returns `None` and takes the queue):
///
/// * `COUNT` — the raw text is in the fingerprint cache (level 0) *and*
///   the count cache holds the canonical key at the database's current
///   epoch. Probes use `peek`: a hit is counted, an absence is **not** a
///   miss (the worker's own probe will record the miss), so cache
///   counters are identical to the pre-reactor behavior.
/// * `WIDTH_REPORT` at the default cap — level 0 hit, plan-cache peek
///   hit, and the entry's report slot already computed.
/// * Never `PROFILE` (needs a worker-side trace), never `ENUMERATE`
///   (rows are not cached), and never when the fault injector drew a
///   fault for the job (the caller checks; panics and cap trips must
///   reach a worker to fire).
///
/// Returns the response plus a pre-formatted `--trace-log` line when the
/// sink is active (fast-path hits are still counting requests).
pub(crate) fn try_fast_path(
    shared: &Shared,
    request: &Request,
) -> Option<(Response, Option<String>)> {
    match request {
        Request::Count { db, query, .. } => {
            let fpd = shared.fingerprints.get(query)?;
            let state = shared.dbs.read().unwrap().get(db).cloned()?;
            let key = (fpd.canonical.clone(), db.clone(), state.epoch);
            let value = shared.counts.peek(&key)?;
            Some(fast_traced(shared, "count", move || Response::Count {
                value: value.value.to_string(),
                plan: "cached".into(),
                cached: CacheTier::CountWarm,
                degraded: false,
                fingerprint: fpd.fingerprint,
            }))
        }
        Request::WidthReport { query, cap } => {
            let cap = if *cap == 0 {
                shared.config.width_cap
            } else {
                *cap as usize
            };
            if cap != shared.config.width_cap {
                return None;
            }
            let fpd = shared.fingerprints.get(query)?;
            let entry = shared.plans.peek(&fpd.canonical)?;
            let report = entry.report.get()?.clone();
            Some(fast_traced(shared, "width_report", move || {
                report_reply(&report)
            }))
        }
        _ => None,
    }
}

/// Runs a fast-path reply builder, under a reactor-side trace session
/// when `--trace-log` is active so warm hits still produce a `request`
/// root line (with a `server.cache_probe` hit child).
fn fast_traced(
    shared: &Shared,
    op: &'static str,
    build: impl FnOnce() -> Response,
) -> (Response, Option<String>) {
    if shared.trace.is_none() {
        return (build(), None);
    }
    let _session = trace::TraceSession::begin();
    let root = trace::span("request");
    let root_id = root.id();
    root.tag("op", op);
    let probe = trace::span("server.cache_probe");
    probe.tag("result", "hit");
    drop(probe);
    let response = build();
    drop(root);
    let tree = trace::build_tree(trace::collect(root_id), root_id);
    let line = tree.map(|t| {
        let seq = shared.trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut line = String::new();
        write_trace_json(&mut line, seq, op, &t);
        line.push('\n');
        line
    });
    (response, line)
}

/// Ops that run on workers (as opposed to inline admin ops). Mutations
/// are worker ops: they take the database write lock and patch
/// materializations, which must never stall a reactor shard.
pub(crate) fn counting_op(r: &Request) -> bool {
    matches!(
        r,
        Request::Count { .. }
            | Request::Enumerate { .. }
            | Request::WidthReport { .. }
            | Request::Profile { .. }
            | Request::Insert { .. }
            | Request::Delete { .. }
            | Request::Mutate { .. }
            | Request::Sync { .. }
    )
}

/// Runs one queued job on a worker, under a `request` root span when a
/// trace consumer exists (a `PROFILE` request or an active `--trace-log`).
///
/// The root opens *on the worker* so the planner/kernel/pool spans nest
/// under it via the thread-local stack; queue wait and payload decode are
/// attached as root counters (`wait_ns`, `decode_ns`) because those
/// stretches happened before the root existed.
fn execute_job(shared: &Shared, job: &Job) -> (Response, Option<String>) {
    let profiling = matches!(job.request, Request::Profile { .. });
    // The flight recorder traces *every* worker request speculatively:
    // the session arms the thread-local rings, and the verdict below
    // decides whether the collected tree is retained or dropped.
    let _session = (profiling || shared.recorder.is_some() || shared.trace.is_some())
        .then(cqcount_obs::trace::TraceSession::begin);
    let root = trace::span("request");
    let root_id = root.id();
    let op = op_name(&job.request);
    root.tag("op", op);
    root.add("wait_ns", trace::now_ns().saturating_sub(job.submitted_ns));
    root.add("decode_ns", job.decode_ns);
    let fallbacks_before = shared.metrics.delta_fallbacks.get();
    let response = run_job(shared, &job.request, job.faults);
    drop(root);
    if root_id.is_none() {
        return (response, None);
    }
    let tree = trace::build_tree(trace::collect(root_id), root_id);
    if let (Some(recorder), Some(tree)) = (&shared.recorder, &tree) {
        let latency_us = trace::now_ns().saturating_sub(job.submitted_ns) / 1_000;
        let threshold_us = shared.retention_threshold_us(op);
        let delta_fault = shared.metrics.delta_fallbacks.get() > fallbacks_before;
        if let Some(reason) = retain_reason(&response, delta_fault, latency_us, threshold_us) {
            shared.metrics.recorder_retained.inc();
            recorder.retain(op, reason, latency_us, threshold_us, tree.clone());
        }
    }
    let mut trace_line = None;
    if let (Some(_sink), Some(tree)) = (&shared.trace, &tree) {
        let seq = shared.trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut line = String::new();
        write_trace_json(&mut line, seq, op, tree);
        line.push('\n');
        trace_line = Some(line);
    }
    if !profiling {
        return (response, trace_line);
    }
    let response = match response {
        Response::Count {
            value,
            plan,
            cached,
            degraded,
            fingerprint,
        } => {
            let (total_ns, root_node) = match tree {
                Some(t) => (t.record.duration_ns(), span_node_of(&t)),
                // Ring overflow dropped the root; reply with an empty tree
                // rather than failing the count.
                None => (0, SpanNode::default()),
            };
            Response::Profile(ProfileReply {
                value,
                plan,
                cached,
                degraded,
                fingerprint,
                total_ns,
                dropped: trace::dropped(),
                root: root_node,
            })
        }
        other => other,
    };
    (response, trace_line)
}

/// The flight-recorder verdict for one finished request. Outcome reasons
/// (errors, degradation, delta fallback) outrank `Slow`: a request that is
/// both broken *and* slow files under what broke, which is what an
/// operator greps for.
fn retain_reason(
    response: &Response,
    delta_fault: bool,
    latency_us: u64,
    threshold_us: u64,
) -> Option<RetainReason> {
    match response {
        Response::Error { code, .. } => {
            return Some(if *code == ErrorCode::ReadOnly {
                RetainReason::ReadOnly
            } else {
                RetainReason::Error
            });
        }
        Response::Count { degraded: true, .. } => return Some(RetainReason::Degraded),
        Response::Profile(p) if p.degraded => return Some(RetainReason::Degraded),
        _ => {}
    }
    if delta_fault {
        return Some(RetainReason::DeltaFault);
    }
    (latency_us > threshold_us).then_some(RetainReason::Slow)
}

/// Converts a collected span tree into the wire form: times rebased to the
/// root's start, node count and depth clamped to the protocol caps.
fn span_node_of(tree: &trace::TreeNode) -> SpanNode {
    fn convert(node: &trace::TreeNode, base: u64, depth: usize, budget: &mut usize) -> SpanNode {
        *budget -= 1;
        let rec = &node.record;
        let mut children = Vec::new();
        if depth + 1 < MAX_SPAN_DEPTH {
            for c in &node.children {
                if *budget == 0 {
                    break;
                }
                children.push(convert(c, base, depth + 1, budget));
            }
        }
        SpanNode {
            name: rec.name.to_owned(),
            start_ns: rec.start_ns.saturating_sub(base),
            duration_ns: rec.duration_ns(),
            counters: rec
                .counters
                .iter()
                .take(MAX_SPAN_FIELDS)
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
            tags: rec
                .tags
                .iter()
                .take(MAX_SPAN_FIELDS)
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
            children,
        }
    }
    let mut budget = MAX_SPAN_NODES;
    convert(tree, tree.record.start_ns, 0, &mut budget)
}

/// Minimal JSON string escaping for trace-log lines (names and tags are
/// ASCII identifiers in practice, but tags can carry arbitrary text).
fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// One trace-log line: `{"seq":N,"op":"count","total_ns":T,"root":{...}}`.
/// Node order is the tree's (children by start time), so two runs of the
/// same seeded workload produce structurally identical lines.
fn write_trace_json(out: &mut String, seq: u64, op: &str, tree: &trace::TreeNode) {
    use std::fmt::Write as _;
    fn node(out: &mut String, n: &trace::TreeNode, base: u64) {
        use std::fmt::Write as _;
        let rec = &n.record;
        out.push_str("{\"name\":\"");
        json_escape(out, rec.name);
        let _ = write!(
            out,
            "\",\"start_ns\":{},\"duration_ns\":{}",
            rec.start_ns.saturating_sub(base),
            rec.duration_ns()
        );
        if !rec.counters.is_empty() {
            out.push_str(",\"counters\":{");
            for (i, (k, v)) in rec.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape(out, k);
                let _ = write!(out, "\":{v}");
            }
            out.push('}');
        }
        if !rec.tags.is_empty() {
            out.push_str(",\"tags\":{");
            for (i, (k, v)) in rec.tags.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape(out, k);
                out.push_str("\":\"");
                json_escape(out, v);
                out.push('"');
            }
            out.push('}');
        }
        if !n.children.is_empty() {
            out.push_str(",\"children\":[");
            for (i, c) in n.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                node(out, c, base);
            }
            out.push(']');
        }
        out.push('}');
    }
    let _ = write!(
        out,
        "{{\"seq\":{seq},\"op\":\"{op}\",\"total_ns\":{},\"root\":",
        tree.record.duration_ns()
    );
    node(out, tree, tree.record.start_ns);
    out.push('}');
}

fn plan_error_response(e: PlanError) -> Response {
    let code = match e {
        PlanError::BudgetExceeded { .. } => ErrorCode::BudgetExceeded,
        _ => ErrorCode::Plan,
    };
    Response::Error {
        code,
        message: e.to_string(),
        retry_after_ms: 0,
    }
}

/// Fetches (or computes and installs) the level-1 plan entry for `q`.
/// Returns the entry and whether it was a cache hit.
///
/// Planning runs under its own budget when `plan_budget_ms` is set,
/// otherwise it shares `request_budget`. A plan whose decomposition search
/// was cut short is **degraded**: it is returned for this request but
/// never cached, so a later request with headroom re-plans from scratch.
fn plan_for(
    shared: &Shared,
    canonical: &str,
    q: &ConjunctiveQuery,
    request_budget: &Budget,
) -> (Arc<PlanEntry>, bool) {
    let sp = trace::span("server.plan");
    if let Some(entry) = shared.plans.get(canonical) {
        sp.tag("cache", "hit");
        return (entry, true);
    }
    sp.tag("cache", "miss");
    let plan_budget = match shared.config.plan_budget_ms {
        Some(ms) => Budget::with_deadline(Duration::from_millis(ms)),
        None => request_budget.clone(),
    };
    let entry = Arc::new(PlanEntry {
        prepared: prepare_plan_budgeted(q, shared.config.width_cap, &plan_budget),
        report: OnceLock::new(),
    });
    if !entry.prepared.degraded {
        shared
            .plans
            .insert(canonical.to_owned(), Arc::clone(&entry));
    }
    (entry, false)
}

fn run_job(shared: &Shared, request: &Request, faults: JobFaults) -> Response {
    match request {
        Request::Count {
            db,
            query,
            budget_ms,
        }
        | Request::Profile {
            db,
            query,
            budget_ms,
        } => run_count(shared, db, query, *budget_ms, faults),
        Request::Enumerate {
            db,
            query,
            limit,
            budget_ms,
        } => run_enumerate(shared, db, query, *limit, *budget_ms, faults),
        Request::WidthReport { query, cap } => run_width_report(shared, query, *cap),
        Request::Insert { .. } | Request::Delete { .. } | Request::Mutate { .. } => {
            let (db, ops) = crate::mutation::ops_of(request).expect("mutation request");
            crate::mutation::run_mutation(shared, db, &ops)
        }
        Request::Sync { db } => crate::mutation::run_sync(shared, db),
        // Admin requests are answered inline by the connection thread.
        _ => Response::Error {
            code: ErrorCode::Internal,
            message: "internal error: admin request reached a worker".into(),
            retry_after_ms: 0,
        },
    }
}

fn budget_for(shared: &Shared, budget_ms: u64, faults: JobFaults) -> Budget {
    let ms = if budget_ms == 0 {
        shared.config.default_budget_ms
    } else {
        budget_ms
    };
    let budget = if ms == 0 && !faults.cap_trip {
        Budget::unlimited()
    } else if ms == 0 {
        Budget::cancellable()
    } else {
        Budget::with_deadline(Duration::from_millis(ms))
    };
    if faults.cap_trip {
        // Simulate a resource cap firing mid-request: the budget trips
        // before the job starts and the client sees `BudgetExceeded`.
        budget.cancel();
    }
    budget
}

pub(crate) fn lookup_db(shared: &Shared, name: &str) -> Result<Arc<DbState>, Box<Response>> {
    shared
        .dbs
        .read()
        .unwrap()
        .get(name)
        .cloned()
        .ok_or_else(|| {
            Box::new(Response::Error {
                code: ErrorCode::UnknownDb,
                message: format!("unknown database {name:?}"),
                retry_after_ms: 0,
            })
        })
}

fn run_count(
    shared: &Shared,
    db_name: &str,
    query: &str,
    budget_ms: u64,
    faults: JobFaults,
) -> Response {
    let parse_sp = trace::span("server.parse");
    let q = match parse_query(query) {
        Ok(q) => q,
        Err(e) => {
            return Response::Error {
                code: ErrorCode::Parse,
                message: e.to_string(),
                retry_after_ms: 0,
            }
        }
    };
    let fp = fingerprint(&q);
    drop(parse_sp);
    // Install the level-0 mapping so the reactor's fast path can answer
    // this exact text without parsing next time.
    shared.fingerprints.insert(
        query.to_owned(),
        Arc::new(Fingerprinted {
            canonical: fp.text.clone(),
            fingerprint: fp.hash,
        }),
    );
    let state = match lookup_db(shared, db_name) {
        Ok(s) => s,
        Err(resp) => return *resp,
    };
    // Counts hold the read lock end to end: the data cannot shift under
    // the count, and the cache insert below is ordered against mutation
    // sweeps (which run under the write lock).
    let db = state.db.read().unwrap();

    // Level 2: an exact count cached under the current epoch.
    let probe_sp = trace::span("server.cache_probe");
    let key = (fp.text.clone(), db_name.to_owned(), state.epoch);
    let warm = shared.counts.get(&key);
    probe_sp.tag("result", if warm.is_some() { "hit" } else { "miss" });
    drop(probe_sp);
    if let Some(value) = warm {
        return Response::Count {
            value: value.value.to_string(),
            plan: "cached".into(),
            cached: CacheTier::CountWarm,
            degraded: false,
            fingerprint: fp.hash,
        };
    }

    // Level 1: the prepared plan (degraded plans skip the cache).
    let budget = budget_for(shared, budget_ms, faults);
    let (entry, plan_hit) = plan_for(shared, &fp.text, &q, &budget);
    match count_prepared(&q, &db, &entry.prepared, &budget) {
        Ok((n, plan)) => {
            // A degraded plan has no decomposition, so a degradation rung
            // (never the structurally chosen algorithm) produced the count.
            let degraded = entry.prepared.degraded;
            // Exact regardless of degradation, so always cacheable.
            shared.counts.insert(
                key,
                Arc::new(crate::cache::CountInfo {
                    value: n.clone(),
                    rels: crate::mutation::query_relations(&q),
                }),
            );
            if !degraded {
                crate::mutation::maybe_materialize(shared, &q, &db, &fp.text, db_name, state.epoch);
            }
            let plan_label = match plan {
                cqcount_core::Plan::SharpPipeline { width } => {
                    format!("sharp-pipeline(width={width})")
                }
                cqcount_core::Plan::Hybrid { width, bound, .. } => {
                    format!("hybrid(width={width},bound={bound})")
                }
                cqcount_core::Plan::BruteForce { .. } => "brute-force".into(),
            };
            if degraded {
                // At this point the worker's span stack has unwound to the
                // root `request` span, so the reason tags the root — a
                // profiled degraded reply carries it on the tree's root.
                trace::tag_current(
                    "degraded",
                    format!("plan budget exhausted; fell back to {plan_label}"),
                );
            }
            Response::Count {
                value: n.to_string(),
                plan: plan_label,
                cached: if plan_hit {
                    CacheTier::PlanWarm
                } else {
                    CacheTier::Cold
                },
                degraded,
                fingerprint: fp.hash,
            }
        }
        Err(e) => plan_error_response(e),
    }
}

fn run_enumerate(
    shared: &Shared,
    db_name: &str,
    query: &str,
    limit: u64,
    budget_ms: u64,
    faults: JobFaults,
) -> Response {
    let q = match parse_query(query) {
        Ok(q) => q,
        Err(e) => {
            return Response::Error {
                code: ErrorCode::Parse,
                message: e.to_string(),
                retry_after_ms: 0,
            }
        }
    };
    let state = match lookup_db(shared, db_name) {
        Ok(s) => s,
        Err(resp) => return *resp,
    };
    let db = state.db.read().unwrap();
    let budget = budget_for(shared, budget_ms, faults);
    let cap = (limit as usize).min(shared.config.max_enumerate);
    let free: Vec<Var> = q.free().into_iter().collect();
    // Any query decomposes at width = atom count, so enumeration is total.
    let width = shared.config.width_cap.max(q.atoms().len());
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut truncated = false;
    let mut tripped = false;
    let ok = for_each_answer(&q, &db, width, |answer| {
        if budget.is_exceeded() {
            tripped = true;
            return false;
        }
        if rows.len() >= cap {
            truncated = true;
            return false;
        }
        rows.push(
            free.iter()
                .map(|v| db.interner().name(answer[v]).to_owned())
                .collect(),
        );
        true
    });
    if tripped {
        return plan_error_response(PlanError::BudgetExceeded {
            elapsed_ms: budget.elapsed_ms().max(1),
        });
    }
    if !ok {
        return Response::Error {
            code: ErrorCode::Plan,
            message: "no decomposition found for enumeration".into(),
            retry_after_ms: 0,
        };
    }
    Response::Rows { rows, truncated }
}

fn run_width_report(shared: &Shared, query: &str, cap: u64) -> Response {
    let q = match parse_query(query) {
        Ok(q) => q,
        Err(e) => {
            return Response::Error {
                code: ErrorCode::Parse,
                message: e.to_string(),
                retry_after_ms: 0,
            }
        }
    };
    let cap = if cap == 0 {
        shared.config.width_cap
    } else {
        cap as usize
    };
    let fp = fingerprint(&q);
    shared.fingerprints.insert(
        query.to_owned(),
        Arc::new(Fingerprinted {
            canonical: fp.text.clone(),
            fingerprint: fp.hash,
        }),
    );
    // Reports at the default cap share the plan entry's compute-once slot
    // (the reactor fast path reads the same slot lock-free); other caps
    // are computed fresh (rare, operator-driven).
    let report = if cap == shared.config.width_cap {
        // Width reports are operator-driven and cheap relative to counting;
        // plan under an unlimited budget so the cached entry is never
        // degraded.
        let (entry, _) = plan_for(shared, &fp.text, &q, &Budget::unlimited());
        entry
            .report
            .get_or_init(|| WidthReport::analyze(&q, cap))
            .clone()
    } else {
        WidthReport::analyze(&q, cap)
    };
    report_reply(&report)
}

/// Converts an analyzed [`WidthReport`] into its wire reply.
fn report_reply(report: &WidthReport) -> Response {
    Response::Report(ReportReply {
        acyclic: report.acyclic,
        ghw: report.ghw.map(|w| w as u64),
        sharp_width: report.sharp_width.map(|w| w as u64),
        star_size: report.star_size as u64,
        atoms: report.atoms as u64,
        vars: report.vars as u64,
        free: report.free as u64,
        cap: report.cap as u64,
    })
}
