//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Every frame, in both directions, is
//!
//! ```text
//! v2–v4:  | 0x43 | 0x51 | version | opcode |                  uleb128 len | payload |
//! v5/v6:  | 0x43 | 0x51 | version | opcode | uleb128 req_id | uleb128 len | payload |
//!           'C'    'Q'
//! ```
//!
//! v5 (pipelining) inserts a ULEB128 *request id* between opcode and
//! length: a client may write many requests before reading, and the
//! server may answer them in completion order, echoing each request's id
//! in the response header. Pre-v5 frames carry no id; the server answers
//! them strictly in request order, so v4 clients are oblivious to the
//! change. Each response frame echoes the *version* of the request it
//! answers, so one connection never mixes header layouts unexpectedly.
//!
//! Payload fields are ULEB128 varints, fixed 8-byte little-endian `u64`s
//! (fingerprints only), and strings (ULEB128 byte length + UTF-8 bytes).
//! Every length is capped before allocation so a malicious frame cannot
//! make the daemon reserve unbounded memory; decode errors are reported,
//! never panicked on.

use std::io::{self, Read, Write};

/// Frame magic: `b"CQ"`.
pub const MAGIC: [u8; 2] = [0x43, 0x51];
/// Newest protocol version the daemon speaks. v2 added the `degraded`
/// flag to count replies, the `retry_after_ms` hint to error frames, and
/// the per-error-code counters in `STATS`. v3 added the `PROFILE` (span
/// tree + kernel counters for one query) and `METRICS` (Prometheus-style
/// text exposition) opcodes; every v2 frame is unchanged, so v2 peers
/// keep working ([`MIN_VERSION`]). v4 appends the planner search counters
/// to `STATS` replies as trailing fields — the decoder treats them as
/// optional (absent ⇒ zero). v5 adds pipelining: a ULEB128 request id in
/// the frame header (between opcode and length), echoed by the matching
/// response, which may now arrive in completion order. Pre-v5 frames are
/// answered in request order, so older clients need no changes. v6 adds
/// the mutation opcodes `INSERT`/`DELETE`/`MUTATE` (single-tuple and
/// batched edits of a loaded database, answered with `MUTATED`) and
/// appends the mutation counters to `STATS` replies as trailing optional
/// fields; the header layout is unchanged from v5. v7 adds durability:
/// the `SYNC` opcode (force fsync + snapshot, answered with `SYNCED`),
/// the `ReadOnly` error code (mutations refused after a disk fault), and
/// a trailing per-database durability block in `STATS` replies
/// (`mutation_seq`, `durable_seq`, persistence/read-only flags, records
/// replayed at the last recovery) — optional on decode like the v4/v6
/// blocks. v8 adds forensics: the `HISTORY` opcode (ring-buffered
/// whole-registry metric samples, answered with `HISTORIED`), the
/// `FLIGHT` opcode (span trees and incidents retained by the flight
/// recorder, answered with `FLIGHTED`), and a trailing global
/// watchdog/recorder block in `STATS` replies (`recorder_retained`,
/// `stalled_shards`, `stalled_workers`, `watchdog_stalls`) — optional on
/// decode like every earlier block.
pub const VERSION: u8 = 0x08;
/// Oldest protocol version the daemon still accepts. v2 frames are a
/// strict subset of v3, so the shim is just a wider version check.
pub const MIN_VERSION: u8 = 0x02;
/// The v4 header layout (no request id). [`Request::write_to`] and
/// [`Response::write_to`] emit this revision: the blocking client is a
/// one-request-at-a-time peer, and keeping its wire bytes stable keeps
/// every pre-v5 fixture (and server) working unchanged.
pub const V4: u8 = 0x04;
/// The v5 header layout (request id present). Emitted by
/// [`Request::encode`]/[`Response::encode`] when asked for it.
pub const V5: u8 = 0x05;
/// The v6 revision (mutation opcodes). Same header layout as v5.
pub const V6: u8 = 0x06;
/// The v7 revision (durability: `SYNC`/`SYNCED`, `ReadOnly`, per-db
/// durability stats). Same header layout as v5.
pub const V7: u8 = 0x07;
/// The v8 revision (forensics: `HISTORY`/`FLIGHT`, watchdog + recorder
/// stats). Same header layout as v5.
pub const V8: u8 = 0x08;
/// Upper bound on a frame payload (queries and reload texts included).
pub const MAX_PAYLOAD: usize = 16 << 20;
/// Upper bound on a single string field.
pub const MAX_STRING: usize = 8 << 20;
/// Upper bound on decoded row counts (defense in depth; the server also
/// enforces its own `max_enumerate`).
pub const MAX_ROWS: usize = 1 << 20;
/// Upper bound on the ops inside one batched `MUTATE` frame.
pub const MAX_MUTATION_OPS: usize = 1 << 16;
/// Upper bound on the arity of a mutated tuple.
pub const MAX_TUPLE_ARITY: usize = 4096;

/// Machine-readable error categories carried in error frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The query (or reload text) failed to parse.
    Parse = 1,
    /// Planning/counting failed (no decomposition in strict mode, ...).
    Plan = 2,
    /// The named database is not loaded.
    UnknownDb = 3,
    /// Admission control rejected the request (queue full).
    Overloaded = 4,
    /// The request's wall-clock budget tripped mid-count.
    BudgetExceeded = 5,
    /// Malformed frame or unsupported opcode/version.
    Protocol = 6,
    /// The server hit an internal error (a caught panic).
    Internal = 7,
    /// The database is read-only after a durability fault (WAL or
    /// snapshot I/O error): mutations are refused, counts keep serving.
    /// **Not retryable** — the state will not heal without an operator
    /// `RELOAD`/`SYNC`. Protocol v7.
    ReadOnly = 8,
}

impl ErrorCode {
    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Parse,
            2 => ErrorCode::Plan,
            3 => ErrorCode::UnknownDb,
            4 => ErrorCode::Overloaded,
            5 => ErrorCode::BudgetExceeded,
            6 => ErrorCode::Protocol,
            7 => ErrorCode::Internal,
            8 => ErrorCode::ReadOnly,
            _ => return None,
        })
    }
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Count `|π_free(Q)(Q^D)|` for `query` over the named database.
    /// `budget_ms == 0` means "use the server default".
    Count {
        /// Name of a loaded database.
        db: String,
        /// The rule, in the datalog text format.
        query: String,
        /// Wall-clock budget in milliseconds (0 = server default).
        budget_ms: u64,
    },
    /// Enumerate up to `limit` answers (bounded prefix, server-capped).
    Enumerate {
        /// Name of a loaded database.
        db: String,
        /// The rule, in the datalog text format.
        query: String,
        /// Maximum rows to return.
        limit: u64,
        /// Wall-clock budget in milliseconds (0 = server default).
        budget_ms: u64,
    },
    /// Structural width analysis of a query (no database involved).
    WidthReport {
        /// The rule, in the datalog text format.
        query: String,
        /// Width search cap (0 = server default).
        cap: u64,
    },
    /// Server and cache counters.
    Stats,
    /// Replace (or install) a named database from datalog facts; bumps the
    /// database epoch, invalidating cached counts but not cached plans.
    Reload {
        /// Database name.
        db: String,
        /// Datalog facts.
        text: String,
    },
    /// Drop both cache levels (plans and counts).
    Flush,
    /// Like `Count`, but reply with the full span tree and kernel counters
    /// of the (freshly traced) execution alongside the count. Protocol v3.
    Profile {
        /// Name of a loaded database.
        db: String,
        /// The rule, in the datalog text format.
        query: String,
        /// Wall-clock budget in milliseconds (0 = server default).
        budget_ms: u64,
    },
    /// Prometheus-style text exposition of the server's metrics registry.
    /// Protocol v3.
    Metrics,
    /// Insert one tuple into a relation of a loaded database. Creates the
    /// relation on first use. **Not idempotent to retry blindly**: the
    /// reply's `changed` says whether the tuple was new, so a retried
    /// insert whose first attempt landed reports `changed = 0`.
    /// Protocol v6.
    Insert {
        /// Name of a loaded database.
        db: String,
        /// Relation name.
        rel: String,
        /// The tuple's constants, in positional order.
        values: Vec<String>,
    },
    /// Delete one tuple from a relation of a loaded database. Deleting an
    /// absent tuple (or from an unknown relation) is a no-op with
    /// `changed = 0`, not an error. Protocol v6.
    Delete {
        /// Name of a loaded database.
        db: String,
        /// Relation name.
        rel: String,
        /// The tuple's constants, in positional order.
        values: Vec<String>,
    },
    /// A batch of inserts/deletes applied atomically in order under one
    /// database write lock; the reply's `changed` counts the ops that
    /// altered the database. Protocol v6.
    Mutate {
        /// Name of a loaded database.
        db: String,
        /// The ops, applied first to last.
        ops: Vec<MutationOp>,
    },
    /// Force everything durable now: fsync the database's WAL, write a
    /// snapshot, truncate the log. Answered with [`Response::Synced`]
    /// carrying the durable sequence the caller can compare mutation
    /// receipts against. Idempotent and safe to retry. Protocol v7.
    Sync {
        /// Name of a loaded database.
        db: String,
    },
    /// Fetch ring-buffered metrics-history samples with sequence numbers
    /// above `since_seq` (0 = everything still in the ring). Answered
    /// with [`Response::History`]. Idempotent. Protocol v8.
    History {
        /// Return only samples with `seq > since_seq`.
        since_seq: u64,
        /// At most this many samples (0 = server cap).
        limit: u64,
    },
    /// Fetch the flight recorder's retained span trees and incidents
    /// (most recent `limit` of each, oldest first; 0 = server cap).
    /// Answered with [`Response::Flight`]. Idempotent. Protocol v8.
    Flight {
        /// At most this many traces and incidents each (0 = server cap).
        limit: u64,
    },
}

/// One tuple edit inside a [`Request::Mutate`] batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutationOp {
    /// `true` = insert, `false` = delete.
    pub insert: bool,
    /// Relation name.
    pub rel: String,
    /// The tuple's constants, in positional order.
    pub values: Vec<String>,
}

/// How a count was produced, for observability and the bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTier {
    /// Neither cache level helped: planned and counted from scratch.
    Cold = 0,
    /// Level 1 hit: the prepared plan was reused, the count ran fresh.
    PlanWarm = 1,
    /// Level 2 hit: the count itself came from cache.
    CountWarm = 2,
}

impl CacheTier {
    fn from_u8(b: u8) -> Option<CacheTier> {
        Some(match b {
            0 => CacheTier::Cold,
            1 => CacheTier::PlanWarm,
            2 => CacheTier::CountWarm,
            _ => return None,
        })
    }
}

/// Per-database summary inside a [`Response::Stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DbSummary {
    /// Database name.
    pub name: String,
    /// Reload epoch (counts cached under older epochs are dead).
    pub epoch: u64,
    /// Content fingerprint ([`cqcount_relational::Database::fingerprint`]).
    pub fingerprint: u64,
    /// Total tuples.
    pub tuples: u64,
    /// Effective mutations absorbed since the last reload (v7+; zero
    /// when talking to an older server).
    pub mutation_seq: u64,
    /// Highest `mutation_seq` covered by a completed fsync or snapshot
    /// (v7+). Equal to `mutation_seq` when everything acknowledged is on
    /// disk; 0 when the server has no `--data-dir`.
    pub durable_seq: u64,
    /// The database is backed by a data directory (v7+).
    pub persisted: bool,
    /// Mutations are refused after a durability fault (v7+).
    pub read_only: bool,
    /// WAL records replayed when this database was last recovered at
    /// startup (v7+; 0 when it was born from `RELOAD`).
    pub recovered_records: u64,
    /// Heap bytes held by this database's relations and interner
    /// (trailing block after the v8 counters; zero when talking to an
    /// older server).
    pub resident_bytes: u64,
    /// Bytes served in place from mmap'd store pages — frozen relations
    /// a snapshot recovery left on disk (same trailing block).
    pub mapped_bytes: u64,
}

/// Server and cache counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Requests fully served (any opcode except errors).
    pub served: u64,
    /// Requests rejected by admission control.
    pub overloaded: u64,
    /// Plan-cache (level 1) hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Count-cache (level 2) hits.
    pub count_hits: u64,
    /// Count-cache misses.
    pub count_misses: u64,
    /// Malformed frames / undecodable requests answered with `Protocol`.
    pub malformed: u64,
    /// Requests that tripped their wall-clock budget.
    pub budget_exceeded: u64,
    /// Worker panics caught (including injected ones).
    pub panicked: u64,
    /// Connections reaped by the idle/stall deadline.
    pub reaped: u64,
    /// Counts served by a degraded (fallback) plan.
    pub degraded: u64,
    /// Faults injected so far (0 when no fault profile is active).
    pub faults_injected: u64,
    /// Per-database epochs and fingerprints.
    pub dbs: Vec<DbSummary>,
    /// Planner: blocks solved by the decomposition search (v4+; zero when
    /// talking to an older server).
    pub planner_blocks_solved: u64,
    /// Planner: memo hits inside the block recursion (v4+).
    pub planner_memo_hits: u64,
    /// Planner: candidate bags pulled from the lazy streams (v4+).
    pub planner_candidates: u64,
    /// Planner: width levels searched (v4+).
    pub planner_widths_searched: u64,
    /// Mutations applied (effective inserts + deletes; v6+, zero when
    /// talking to an older server).
    pub mutations_applied: u64,
    /// Join-tree bags re-aggregated by incremental maintenance (v6+).
    pub delta_bags_touched: u64,
    /// Mutations that fell back from incremental maintenance to targeted
    /// cache invalidation (v6+).
    pub delta_fallbacks: u64,
    /// Span trees retained by the flight recorder (v8+; zero when talking
    /// to an older server).
    pub recorder_retained: u64,
    /// Reactor shards the watchdog currently flags as stalled (v8+).
    pub stalled_shards: u64,
    /// Pool workers the watchdog currently flags as stalled (v8+).
    pub stalled_workers: u64,
    /// Total stall edges the watchdog has ever flagged (v8+).
    pub watchdog_stalls: u64,
}

/// Structural analysis results (mirrors `cqcount_core::WidthReport`, with
/// `None` widths meaning "above the cap").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReportReply {
    /// α-acyclicity of the query hypergraph.
    pub acyclic: bool,
    /// Generalized hypertree width, if ≤ cap.
    pub ghw: Option<u64>,
    /// `#`-hypertree width, if ≤ cap.
    pub sharp_width: Option<u64>,
    /// Quantified star size.
    pub star_size: u64,
    /// Atom count.
    pub atoms: u64,
    /// Variable count.
    pub vars: u64,
    /// Free-variable count.
    pub free: u64,
    /// The cap the width searches ran up to.
    pub cap: u64,
}

/// Upper bound on span nodes in one `PROFILE` reply (defense in depth on
/// decode; the server also truncates on encode).
pub const MAX_SPAN_NODES: usize = 65_536;
/// Upper bound on span tree depth on decode.
pub const MAX_SPAN_DEPTH: usize = 128;
/// Upper bound on counters or tags attached to a single span node.
pub const MAX_SPAN_FIELDS: usize = 64;

/// One node of a `PROFILE` span tree. Times are nanoseconds; `start_ns` is
/// relative to the root span's start, so a reply is self-contained.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanNode {
    /// Stage name (e.g. `parse`, `plan.decompose`, `algebra.join`).
    pub name: String,
    /// Offset from the root span's start, in nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
    /// Numeric counters (rows in/out, comparisons, bytes emitted, ...).
    pub counters: Vec<(String, u64)>,
    /// String tags (plan outcome, degradation reason, ...).
    pub tags: Vec<(String, String)>,
    /// Child spans, ordered by start time.
    pub children: Vec<SpanNode>,
}

/// The reply to a `PROFILE` request: the count plus the traced execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileReply {
    /// The exact count, as a decimal string (arbitrary precision).
    pub value: String,
    /// Human-readable plan label.
    pub plan: String,
    /// Which cache level (if any) served the request.
    pub cached: CacheTier,
    /// True when a ladder rung (not the chosen plan) produced the count.
    pub degraded: bool,
    /// The query's canonical 64-bit fingerprint.
    pub fingerprint: u64,
    /// End-to-end wall time of the request span, nanoseconds.
    pub total_ns: u64,
    /// Spans the tracer dropped process-wide so far (ring overflow); a
    /// nonzero delta across requests means trees may be incomplete.
    pub dropped: u64,
    /// The request's root span.
    pub root: SpanNode,
}

/// Upper bound on samples in one `HISTORY` reply.
pub const MAX_HISTORY_SAMPLES: usize = 4096;
/// Upper bound on metric entries in one history sample.
pub const MAX_HISTORY_ENTRIES: usize = 4096;
/// Upper bound on span trees in one `FLIGHT` reply.
pub const MAX_FLIGHT_TRACES: usize = 256;
/// Upper bound on incidents in one `FLIGHT` reply.
pub const MAX_FLIGHT_INCIDENTS: usize = 4096;

/// One metrics-history sample inside a [`Response::History`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistorySampleReply {
    /// Monotonic sample sequence (ring-wide, starts at 1).
    pub seq: u64,
    /// Wall-clock sample time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Milliseconds since server start.
    pub uptime_ms: u64,
    /// `(series, value)` pairs: counters and gauges by name, histograms
    /// flattened to `_count`/`_sum`/`_p99` series.
    pub entries: Vec<(String, u64)>,
}

/// The reply to a `HISTORY` request. Protocol v8.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistoryReply {
    /// The server's advertised sampling interval (0 = history disabled).
    pub interval_ms: u64,
    /// The sequence the *next* sample will get; `next_seq - 1` is the
    /// newest existing sample, pass it back as `since_seq` to poll.
    pub next_seq: u64,
    /// Matching samples, oldest first.
    pub samples: Vec<HistorySampleReply>,
}

/// One retained span tree inside a [`Response::Flight`]. Protocol v8.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightTrace {
    /// Capture sequence (shared with incidents: one timeline).
    pub seq: u64,
    /// Opcode label (`count`, `mutate`, …).
    pub op: String,
    /// Why it was retained (`slow`, `error`, `degraded`, `delta_fault`,
    /// `read_only`, `watchdog`).
    pub reason: String,
    /// End-to-end latency, microseconds.
    pub latency_us: u64,
    /// The retention threshold in force (0 for non-latency retentions).
    pub threshold_us: u64,
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The request's span tree.
    pub root: SpanNode,
}

/// One discrete incident inside a [`Response::Flight`]. Protocol v8.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightIncident {
    /// Capture sequence (shared with traces: one timeline).
    pub seq: u64,
    /// Short machine-readable kind (`stall`, `read_only`, …).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
}

/// The reply to a `FLIGHT` request. Protocol v8.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightReply {
    /// Retained span trees, oldest first.
    pub traces: Vec<FlightTrace>,
    /// Retained incidents, oldest first.
    pub incidents: Vec<FlightIncident>,
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// A successful count.
    Count {
        /// The exact count, as a decimal string (arbitrary precision).
        value: String,
        /// Human-readable plan label (e.g. `sharp-pipeline(width=2)`).
        plan: String,
        /// Which cache level (if any) served the request.
        cached: CacheTier,
        /// True when the planner fell back to a cheaper plan because the
        /// decomposition search blew its budget (the count is still exact).
        degraded: bool,
        /// The query's canonical 64-bit fingerprint.
        fingerprint: u64,
    },
    /// An answer prefix from `Enumerate`.
    Rows {
        /// Each row holds the free variables' constants, in head order.
        rows: Vec<Vec<String>>,
        /// True when the prefix was cut short by the limit.
        truncated: bool,
    },
    /// Structural analysis results.
    Report(ReportReply),
    /// Server counters.
    Stats(StatsReply),
    /// Acknowledgement of an admin command, with the database epoch it
    /// produced (0 for `Flush`).
    Ok {
        /// The (new) epoch.
        epoch: u64,
    },
    /// The span tree + count for a `Profile` request. Protocol v3.
    Profile(ProfileReply),
    /// Prometheus-style text exposition. Protocol v3.
    Metrics {
        /// The rendered exposition text.
        text: String,
    },
    /// Acknowledgement of an `Insert`/`Delete`/`Mutate`. Protocol v6.
    Mutated {
        /// Ops that actually altered the database (0 for a duplicate
        /// insert or an absent delete; a retried batch that already
        /// landed reports 0 — mutations are not idempotent to retry).
        changed: u64,
        /// The database's mutation sequence number after the batch; it
        /// bumps once per effective op, never on no-ops or reloads.
        mutation_seq: u64,
    },
    /// Acknowledgement of a `Sync`: everything up to `durable_seq` is on
    /// disk. Protocol v7.
    Synced {
        /// The database's current epoch.
        epoch: u64,
        /// The database's mutation sequence at the sync point.
        mutation_seq: u64,
        /// Highest mutation sequence covered by the fsync + snapshot (0
        /// when the server has no `--data-dir` — nothing is durable).
        durable_seq: u64,
    },
    /// Metrics-history samples for a `History` request. Protocol v8.
    History(HistoryReply),
    /// The flight recorder's retentions for a `Flight` request.
    /// Protocol v8.
    Flight(FlightReply),
    /// Anything that went wrong.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail (round-trippable for typed errors).
        message: String,
        /// For `Overloaded`: how long the client should back off before
        /// retrying, in milliseconds (0 = no hint).
        retry_after_ms: u64,
    },
}

// ---------------------------------------------------------------------
// primitives

/// Writes a ULEB128 varint.
pub fn write_uleb(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a ULEB128 varint (at most 10 bytes for a `u64`).
pub fn read_uleb(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or("truncated varint")?;
        *pos += 1;
        if shift >= 64 {
            return Err("varint overflows u64".into());
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    write_uleb(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn read_str(buf: &[u8], pos: &mut usize) -> Result<String, String> {
    let len = read_uleb(buf, pos)? as usize;
    if len > MAX_STRING {
        return Err(format!("string of {len} bytes exceeds cap"));
    }
    let end = pos.checked_add(len).ok_or("string length overflow")?;
    let bytes = buf.get(*pos..end).ok_or("truncated string")?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".into())
}

fn write_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u64_le(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let end = pos.checked_add(8).ok_or("u64 length overflow")?;
    let bytes = buf.get(*pos..end).ok_or("truncated u64")?;
    *pos = end;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

/// `Some(w) ↦ w+1`, `None ↦ 0` — options over widths.
fn write_opt(out: &mut Vec<u8>, v: Option<u64>) {
    write_uleb(out, v.map_or(0, |w| w + 1));
}

fn read_opt(buf: &[u8], pos: &mut usize) -> Result<Option<u64>, String> {
    let raw = read_uleb(buf, pos)?;
    Ok(raw.checked_sub(1))
}

// ---------------------------------------------------------------------
// framing

/// Encodes one complete frame in the given header `version`. `req_id` is
/// carried only by v5 headers and ignored (must-be-unused) below that.
pub fn frame_bytes(version: u8, req_id: u64, opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&MAGIC);
    out.push(version);
    out.push(opcode);
    if version >= V5 {
        write_uleb(&mut out, req_id);
    }
    write_uleb(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_bytes(V4, 0, opcode, payload))?;
    w.flush()
}

/// A raw frame: the header fields plus payload bytes.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Header version the frame arrived with (v2..=v5). Replies echo it.
    pub version: u8,
    /// The request id (v5 headers only; 0 for pre-v5 frames).
    pub req_id: u64,
    /// The opcode byte.
    pub opcode: u8,
    /// The payload.
    pub payload: Vec<u8>,
}

/// Reads a ULEB128 varint byte-by-byte off a stream.
fn read_uleb_stream(r: &mut impl Read, what: &str) -> io::Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{what} varint overflow"),
            ));
        }
        v |= u64::from(b[0] & 0x7f) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads one frame. `Ok(None)` means the peer closed the connection
/// cleanly (EOF before any header byte).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut first = [0u8; 1];
    if r.read(&mut first)? == 0 {
        return Ok(None);
    }
    let mut rest = [0u8; 3];
    r.read_exact(&mut rest)?;
    if [first[0], rest[0]] != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let version = rest[1];
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported protocol version {version}"),
        ));
    }
    let opcode = rest[2];
    let req_id = if version >= V5 {
        read_uleb_stream(r, "request id")?
    } else {
        0
    };
    let len = read_uleb_stream(r, "length")?;
    if len as usize > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("payload of {len} bytes exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(Frame {
        version,
        req_id,
        opcode,
        payload,
    }))
}

/// Incremental frame parser for an evented read loop: examines a buffer
/// prefix without consuming input.
///
/// * `Ok(None)` — the buffer holds an incomplete (but so far valid)
///   frame; read more bytes and call again.
/// * `Ok(Some((frame, consumed)))` — one whole frame; the caller drops
///   the first `consumed` bytes and calls again on the rest.
/// * `Err(..)` — the bytes can never become a valid frame (bad magic,
///   unsupported version, runaway varint, oversized payload); the caller
///   answers with a protocol error and closes.
pub fn parse_frame_prefix(buf: &[u8]) -> Result<Option<(Frame, usize)>, String> {
    // An in-buffer varint reader distinguishing "need more bytes" (Ok
    // with None) from "can never terminate" (Err).
    fn uleb_prefix(buf: &[u8], pos: &mut usize, what: &str) -> Result<Option<u64>, String> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = buf.get(*pos) else {
                return Ok(None);
            };
            *pos += 1;
            if shift >= 64 {
                return Err(format!("{what} varint overflow"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(Some(v));
            }
            shift += 7;
        }
    }

    if buf.is_empty() {
        return Ok(None);
    }
    if buf[0] != MAGIC[0] || (buf.len() > 1 && buf[1] != MAGIC[1]) {
        return Err("bad magic".into());
    }
    if buf.len() > 2 && !(MIN_VERSION..=VERSION).contains(&buf[2]) {
        return Err(format!("unsupported protocol version {}", buf[2]));
    }
    if buf.len() < 4 {
        return Ok(None);
    }
    let version = buf[2];
    let opcode = buf[3];
    let mut pos = 4usize;
    let req_id = if version >= V5 {
        match uleb_prefix(buf, &mut pos, "request id")? {
            Some(v) => v,
            None => return Ok(None),
        }
    } else {
        0
    };
    let len = match uleb_prefix(buf, &mut pos, "length")? {
        Some(v) => v,
        None => return Ok(None),
    };
    if len as usize > MAX_PAYLOAD {
        return Err(format!("payload of {len} bytes exceeds cap"));
    }
    let end = pos + len as usize;
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some((
        Frame {
            version,
            req_id,
            opcode,
            payload: buf[pos..end].to_vec(),
        },
        end,
    )))
}

// ---------------------------------------------------------------------
// requests

const OP_COUNT: u8 = 0x01;
const OP_ENUMERATE: u8 = 0x02;
const OP_WIDTH_REPORT: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_RELOAD: u8 = 0x05;
const OP_FLUSH: u8 = 0x06;
const OP_PROFILE: u8 = 0x07;
const OP_METRICS: u8 = 0x08;
const OP_INSERT: u8 = 0x09;
const OP_DELETE: u8 = 0x0a;
const OP_MUTATE: u8 = 0x0b;
const OP_SYNC: u8 = 0x0c;
const OP_HISTORY: u8 = 0x0d;
const OP_FLIGHT: u8 = 0x0e;

const OP_R_COUNT: u8 = 0x81;
const OP_R_ROWS: u8 = 0x82;
const OP_R_REPORT: u8 = 0x83;
const OP_R_STATS: u8 = 0x84;
const OP_R_OK: u8 = 0x85;
const OP_R_PROFILE: u8 = 0x87;
const OP_R_METRICS: u8 = 0x88;
const OP_R_MUTATED: u8 = 0x89;
const OP_R_SYNCED: u8 = 0x8a;
const OP_R_HISTORY: u8 = 0x8b;
const OP_R_FLIGHT: u8 = 0x8c;
const OP_R_ERROR: u8 = 0xff;

fn write_tuple(p: &mut Vec<u8>, values: &[String]) {
    write_uleb(p, values.len() as u64);
    for v in values {
        write_str(p, v);
    }
}

fn read_tuple(buf: &[u8], pos: &mut usize) -> Result<Vec<String>, String> {
    let n = read_uleb(buf, pos)? as usize;
    if n > MAX_TUPLE_ARITY {
        return Err(format!("tuple arity {n} exceeds cap"));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(read_str(buf, pos)?);
    }
    Ok(values)
}

fn write_span_node(p: &mut Vec<u8>, node: &SpanNode) {
    write_str(p, &node.name);
    write_uleb(p, node.start_ns);
    write_uleb(p, node.duration_ns);
    write_uleb(p, node.counters.len() as u64);
    for (k, v) in &node.counters {
        write_str(p, k);
        write_uleb(p, *v);
    }
    write_uleb(p, node.tags.len() as u64);
    for (k, v) in &node.tags {
        write_str(p, k);
        write_str(p, v);
    }
    write_uleb(p, node.children.len() as u64);
    for c in &node.children {
        write_span_node(p, c);
    }
}

/// Decodes a span node; `remaining` bounds the total node count across the
/// whole tree and `depth` the recursion, so a malicious frame can neither
/// overallocate nor blow the stack.
fn read_span_node(
    buf: &[u8],
    pos: &mut usize,
    remaining: &mut usize,
    depth: usize,
) -> Result<SpanNode, String> {
    if depth > MAX_SPAN_DEPTH {
        return Err(format!("span tree deeper than {MAX_SPAN_DEPTH}"));
    }
    *remaining = remaining
        .checked_sub(1)
        .ok_or_else(|| format!("span tree larger than {MAX_SPAN_NODES} nodes"))?;
    let name = read_str(buf, pos)?;
    let start_ns = read_uleb(buf, pos)?;
    let duration_ns = read_uleb(buf, pos)?;
    let ncounters = read_uleb(buf, pos)? as usize;
    if ncounters > MAX_SPAN_FIELDS {
        return Err(format!("{ncounters} span counters exceeds cap"));
    }
    let mut counters = Vec::with_capacity(ncounters);
    for _ in 0..ncounters {
        let k = read_str(buf, pos)?;
        let v = read_uleb(buf, pos)?;
        counters.push((k, v));
    }
    let ntags = read_uleb(buf, pos)? as usize;
    if ntags > MAX_SPAN_FIELDS {
        return Err(format!("{ntags} span tags exceeds cap"));
    }
    let mut tags = Vec::with_capacity(ntags);
    for _ in 0..ntags {
        let k = read_str(buf, pos)?;
        let v = read_str(buf, pos)?;
        tags.push((k, v));
    }
    let nchildren = read_uleb(buf, pos)? as usize;
    if nchildren > *remaining {
        return Err(format!("span tree larger than {MAX_SPAN_NODES} nodes"));
    }
    let mut children = Vec::with_capacity(nchildren);
    for _ in 0..nchildren {
        children.push(read_span_node(buf, pos, remaining, depth + 1)?);
    }
    Ok(SpanNode {
        name,
        start_ns,
        duration_ns,
        counters,
        tags,
        children,
    })
}

impl Request {
    /// Writes the request as one v4 frame (the blocking client's wire
    /// format; unchanged across the v5 bump).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let (opcode, p) = self.wire_parts();
        write_frame(w, opcode, &p)
    }

    /// Encodes the request as one frame in the given header version;
    /// `req_id` rides in v5 headers and is ignored below that.
    pub fn encode(&self, version: u8, req_id: u64) -> Vec<u8> {
        let (opcode, p) = self.wire_parts();
        frame_bytes(version, req_id, opcode, &p)
    }

    /// The (opcode, payload) pair shared by every header version.
    fn wire_parts(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::new();
        let opcode = match self {
            Request::Count {
                db,
                query,
                budget_ms,
            } => {
                write_str(&mut p, db);
                write_str(&mut p, query);
                write_uleb(&mut p, *budget_ms);
                OP_COUNT
            }
            Request::Enumerate {
                db,
                query,
                limit,
                budget_ms,
            } => {
                write_str(&mut p, db);
                write_str(&mut p, query);
                write_uleb(&mut p, *limit);
                write_uleb(&mut p, *budget_ms);
                OP_ENUMERATE
            }
            Request::WidthReport { query, cap } => {
                write_str(&mut p, query);
                write_uleb(&mut p, *cap);
                OP_WIDTH_REPORT
            }
            Request::Stats => OP_STATS,
            Request::Reload { db, text } => {
                write_str(&mut p, db);
                write_str(&mut p, text);
                OP_RELOAD
            }
            Request::Flush => OP_FLUSH,
            Request::Profile {
                db,
                query,
                budget_ms,
            } => {
                write_str(&mut p, db);
                write_str(&mut p, query);
                write_uleb(&mut p, *budget_ms);
                OP_PROFILE
            }
            Request::Metrics => OP_METRICS,
            Request::Insert { db, rel, values } => {
                write_str(&mut p, db);
                write_str(&mut p, rel);
                write_tuple(&mut p, values);
                OP_INSERT
            }
            Request::Delete { db, rel, values } => {
                write_str(&mut p, db);
                write_str(&mut p, rel);
                write_tuple(&mut p, values);
                OP_DELETE
            }
            Request::Mutate { db, ops } => {
                write_str(&mut p, db);
                write_uleb(&mut p, ops.len() as u64);
                for op in ops {
                    p.push(u8::from(op.insert));
                    write_str(&mut p, &op.rel);
                    write_tuple(&mut p, &op.values);
                }
                OP_MUTATE
            }
            Request::Sync { db } => {
                write_str(&mut p, db);
                OP_SYNC
            }
            Request::History { since_seq, limit } => {
                write_uleb(&mut p, *since_seq);
                write_uleb(&mut p, *limit);
                OP_HISTORY
            }
            Request::Flight { limit } => {
                write_uleb(&mut p, *limit);
                OP_FLIGHT
            }
        };
        (opcode, p)
    }

    /// Decodes a request frame.
    pub fn decode(frame: &Frame) -> Result<Request, String> {
        let buf = &frame.payload[..];
        let mut pos = 0usize;
        let req = match frame.opcode {
            OP_COUNT => Request::Count {
                db: read_str(buf, &mut pos)?,
                query: read_str(buf, &mut pos)?,
                budget_ms: read_uleb(buf, &mut pos)?,
            },
            OP_ENUMERATE => Request::Enumerate {
                db: read_str(buf, &mut pos)?,
                query: read_str(buf, &mut pos)?,
                limit: read_uleb(buf, &mut pos)?,
                budget_ms: read_uleb(buf, &mut pos)?,
            },
            OP_WIDTH_REPORT => Request::WidthReport {
                query: read_str(buf, &mut pos)?,
                cap: read_uleb(buf, &mut pos)?,
            },
            OP_STATS => Request::Stats,
            OP_RELOAD => Request::Reload {
                db: read_str(buf, &mut pos)?,
                text: read_str(buf, &mut pos)?,
            },
            OP_FLUSH => Request::Flush,
            OP_PROFILE => Request::Profile {
                db: read_str(buf, &mut pos)?,
                query: read_str(buf, &mut pos)?,
                budget_ms: read_uleb(buf, &mut pos)?,
            },
            OP_METRICS => Request::Metrics,
            OP_INSERT => Request::Insert {
                db: read_str(buf, &mut pos)?,
                rel: read_str(buf, &mut pos)?,
                values: read_tuple(buf, &mut pos)?,
            },
            OP_DELETE => Request::Delete {
                db: read_str(buf, &mut pos)?,
                rel: read_str(buf, &mut pos)?,
                values: read_tuple(buf, &mut pos)?,
            },
            OP_MUTATE => {
                let db = read_str(buf, &mut pos)?;
                let nops = read_uleb(buf, &mut pos)? as usize;
                if nops > MAX_MUTATION_OPS {
                    return Err(format!("{nops} mutation ops exceeds cap"));
                }
                let mut ops = Vec::with_capacity(nops.min(1024));
                for _ in 0..nops {
                    let kind = *buf.get(pos).ok_or("truncated mutation kind")?;
                    pos += 1;
                    if kind > 1 {
                        return Err(format!("bad mutation kind byte 0x{kind:02x}"));
                    }
                    ops.push(MutationOp {
                        insert: kind == 1,
                        rel: read_str(buf, &mut pos)?,
                        values: read_tuple(buf, &mut pos)?,
                    });
                }
                Request::Mutate { db, ops }
            }
            OP_SYNC => Request::Sync {
                db: read_str(buf, &mut pos)?,
            },
            OP_HISTORY => Request::History {
                since_seq: read_uleb(buf, &mut pos)?,
                limit: read_uleb(buf, &mut pos)?,
            },
            OP_FLIGHT => Request::Flight {
                limit: read_uleb(buf, &mut pos)?,
            },
            other => return Err(format!("unknown request opcode 0x{other:02x}")),
        };
        if pos != buf.len() {
            return Err(format!("{} trailing bytes in request", buf.len() - pos));
        }
        Ok(req)
    }
}

impl Response {
    /// Writes the response as one v4 frame (the blocking client's wire
    /// format; unchanged across the v5 bump).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let (opcode, p) = self.wire_parts();
        write_frame(w, opcode, &p)
    }

    /// Encodes the response as one frame in the given header version,
    /// echoing the request's `req_id` when `version` is v5+.
    pub fn encode(&self, version: u8, req_id: u64) -> Vec<u8> {
        let (opcode, p) = self.wire_parts();
        frame_bytes(version, req_id, opcode, &p)
    }

    /// The (opcode, payload) pair shared by every header version.
    fn wire_parts(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::new();
        let opcode = match self {
            Response::Count {
                value,
                plan,
                cached,
                degraded,
                fingerprint,
            } => {
                write_str(&mut p, value);
                write_str(&mut p, plan);
                p.push(*cached as u8);
                p.push(u8::from(*degraded));
                write_u64_le(&mut p, *fingerprint);
                OP_R_COUNT
            }
            Response::Rows { rows, truncated } => {
                write_uleb(&mut p, rows.len() as u64);
                for row in rows {
                    write_uleb(&mut p, row.len() as u64);
                    for col in row {
                        write_str(&mut p, col);
                    }
                }
                p.push(u8::from(*truncated));
                OP_R_ROWS
            }
            Response::Report(r) => {
                p.push(u8::from(r.acyclic));
                write_opt(&mut p, r.ghw);
                write_opt(&mut p, r.sharp_width);
                for v in [r.star_size, r.atoms, r.vars, r.free, r.cap] {
                    write_uleb(&mut p, v);
                }
                OP_R_REPORT
            }
            Response::Stats(s) => {
                for v in [
                    s.served,
                    s.overloaded,
                    s.plan_hits,
                    s.plan_misses,
                    s.count_hits,
                    s.count_misses,
                    s.malformed,
                    s.budget_exceeded,
                    s.panicked,
                    s.reaped,
                    s.degraded,
                    s.faults_injected,
                ] {
                    write_uleb(&mut p, v);
                }
                write_uleb(&mut p, s.dbs.len() as u64);
                for d in &s.dbs {
                    write_str(&mut p, &d.name);
                    write_uleb(&mut p, d.epoch);
                    write_u64_le(&mut p, d.fingerprint);
                    write_uleb(&mut p, d.tuples);
                }
                // v4 trailing fields: planner search counters. Decoders
                // treat them as optional, so a v3 reply (ending at the db
                // list) still parses. Slots 2 and 4 held two retired
                // counters and are written as 0.
                for v in [
                    s.planner_blocks_solved,
                    s.planner_memo_hits,
                    0,
                    s.planner_candidates,
                    0,
                    s.planner_widths_searched,
                ] {
                    write_uleb(&mut p, v);
                }
                // v6 trailing fields: mutation counters. Optional on
                // decode like the planner block, so v4/v5 replies (ending
                // at the planner counters) still parse.
                for v in [s.mutations_applied, s.delta_bags_touched, s.delta_fallbacks] {
                    write_uleb(&mut p, v);
                }
                // v7 trailing fields: per-database durability status, in
                // the same order as the db list above. Optional on decode
                // like the earlier blocks.
                for d in &s.dbs {
                    write_uleb(&mut p, d.mutation_seq);
                    write_uleb(&mut p, d.durable_seq);
                    let flags = u8::from(d.persisted) | (u8::from(d.read_only) << 1);
                    p.push(flags);
                    write_uleb(&mut p, d.recovered_records);
                }
                // v8 trailing fields: watchdog + flight recorder counters.
                // Optional on decode like every earlier block.
                for v in [
                    s.recorder_retained,
                    s.stalled_shards,
                    s.stalled_workers,
                    s.watchdog_stalls,
                ] {
                    write_uleb(&mut p, v);
                }
                // Trailing per-db memory accounting (store epoch), in db
                // list order: heap-resident vs. mmap-served bytes.
                // Optional on decode like every earlier block.
                for d in &s.dbs {
                    write_uleb(&mut p, d.resident_bytes);
                    write_uleb(&mut p, d.mapped_bytes);
                }
                OP_R_STATS
            }
            Response::Ok { epoch } => {
                write_uleb(&mut p, *epoch);
                OP_R_OK
            }
            Response::Profile(r) => {
                write_str(&mut p, &r.value);
                write_str(&mut p, &r.plan);
                p.push(r.cached as u8);
                p.push(u8::from(r.degraded));
                write_u64_le(&mut p, r.fingerprint);
                write_uleb(&mut p, r.total_ns);
                write_uleb(&mut p, r.dropped);
                write_span_node(&mut p, &r.root);
                OP_R_PROFILE
            }
            Response::Metrics { text } => {
                write_str(&mut p, text);
                OP_R_METRICS
            }
            Response::Mutated {
                changed,
                mutation_seq,
            } => {
                write_uleb(&mut p, *changed);
                write_uleb(&mut p, *mutation_seq);
                OP_R_MUTATED
            }
            Response::Synced {
                epoch,
                mutation_seq,
                durable_seq,
            } => {
                write_uleb(&mut p, *epoch);
                write_uleb(&mut p, *mutation_seq);
                write_uleb(&mut p, *durable_seq);
                OP_R_SYNCED
            }
            Response::History(h) => {
                write_uleb(&mut p, h.interval_ms);
                write_uleb(&mut p, h.next_seq);
                write_uleb(&mut p, h.samples.len() as u64);
                for s in &h.samples {
                    write_uleb(&mut p, s.seq);
                    write_uleb(&mut p, s.unix_ms);
                    write_uleb(&mut p, s.uptime_ms);
                    write_uleb(&mut p, s.entries.len() as u64);
                    for (name, value) in &s.entries {
                        write_str(&mut p, name);
                        write_uleb(&mut p, *value);
                    }
                }
                OP_R_HISTORY
            }
            Response::Flight(f) => {
                write_uleb(&mut p, f.traces.len() as u64);
                for t in &f.traces {
                    write_uleb(&mut p, t.seq);
                    write_str(&mut p, &t.op);
                    write_str(&mut p, &t.reason);
                    write_uleb(&mut p, t.latency_us);
                    write_uleb(&mut p, t.threshold_us);
                    write_uleb(&mut p, t.unix_ms);
                    write_span_node(&mut p, &t.root);
                }
                write_uleb(&mut p, f.incidents.len() as u64);
                for i in &f.incidents {
                    write_uleb(&mut p, i.seq);
                    write_str(&mut p, &i.kind);
                    write_str(&mut p, &i.detail);
                    write_uleb(&mut p, i.unix_ms);
                }
                OP_R_FLIGHT
            }
            Response::Error {
                code,
                message,
                retry_after_ms,
            } => {
                p.push(*code as u8);
                write_str(&mut p, message);
                write_uleb(&mut p, *retry_after_ms);
                OP_R_ERROR
            }
        };
        (opcode, p)
    }

    /// Decodes a response frame.
    pub fn decode(frame: &Frame) -> Result<Response, String> {
        let buf = &frame.payload[..];
        let mut pos = 0usize;
        let take_u8 = |buf: &[u8], pos: &mut usize| -> Result<u8, String> {
            let b = *buf.get(*pos).ok_or("truncated byte field")?;
            *pos += 1;
            Ok(b)
        };
        let resp = match frame.opcode {
            OP_R_COUNT => {
                let value = read_str(buf, &mut pos)?;
                let plan = read_str(buf, &mut pos)?;
                let cached =
                    CacheTier::from_u8(take_u8(buf, &mut pos)?).ok_or("bad cache tier byte")?;
                let degraded = take_u8(buf, &mut pos)? != 0;
                let fingerprint = read_u64_le(buf, &mut pos)?;
                Response::Count {
                    value,
                    plan,
                    cached,
                    degraded,
                    fingerprint,
                }
            }
            OP_R_ROWS => {
                let n = read_uleb(buf, &mut pos)? as usize;
                if n > MAX_ROWS {
                    return Err(format!("{n} rows exceeds cap"));
                }
                let mut rows = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let cols = read_uleb(buf, &mut pos)? as usize;
                    if cols > 4096 {
                        return Err(format!("{cols} columns exceeds cap"));
                    }
                    let mut row = Vec::with_capacity(cols);
                    for _ in 0..cols {
                        row.push(read_str(buf, &mut pos)?);
                    }
                    rows.push(row);
                }
                let truncated = take_u8(buf, &mut pos)? != 0;
                Response::Rows { rows, truncated }
            }
            OP_R_REPORT => {
                let acyclic = take_u8(buf, &mut pos)? != 0;
                let ghw = read_opt(buf, &mut pos)?;
                let sharp_width = read_opt(buf, &mut pos)?;
                let mut vals = [0u64; 5];
                for v in &mut vals {
                    *v = read_uleb(buf, &mut pos)?;
                }
                Response::Report(ReportReply {
                    acyclic,
                    ghw,
                    sharp_width,
                    star_size: vals[0],
                    atoms: vals[1],
                    vars: vals[2],
                    free: vals[3],
                    cap: vals[4],
                })
            }
            OP_R_STATS => {
                let mut vals = [0u64; 12];
                for v in &mut vals {
                    *v = read_uleb(buf, &mut pos)?;
                }
                let ndbs = read_uleb(buf, &mut pos)? as usize;
                if ndbs > 65536 {
                    return Err(format!("{ndbs} databases exceeds cap"));
                }
                let mut dbs = Vec::with_capacity(ndbs.min(1024));
                for _ in 0..ndbs {
                    dbs.push(DbSummary {
                        name: read_str(buf, &mut pos)?,
                        epoch: read_uleb(buf, &mut pos)?,
                        fingerprint: read_u64_le(buf, &mut pos)?,
                        tuples: read_uleb(buf, &mut pos)?,
                        ..DbSummary::default()
                    });
                }
                // v4 trailing planner counters; absent in v3 replies.
                // Slots 2 and 4 are retired and skipped.
                let mut planner = [0u64; 6];
                if pos != buf.len() {
                    for v in &mut planner {
                        *v = read_uleb(buf, &mut pos)?;
                    }
                }
                // v6 trailing mutation counters; absent in v4/v5 replies.
                let mut mutation = [0u64; 3];
                if pos != buf.len() {
                    for v in &mut mutation {
                        *v = read_uleb(buf, &mut pos)?;
                    }
                }
                // v7 trailing per-db durability status; absent before v7.
                if pos != buf.len() {
                    for d in &mut dbs {
                        d.mutation_seq = read_uleb(buf, &mut pos)?;
                        d.durable_seq = read_uleb(buf, &mut pos)?;
                        let flags = take_u8(buf, &mut pos)?;
                        d.persisted = flags & 1 != 0;
                        d.read_only = flags & 2 != 0;
                        d.recovered_records = read_uleb(buf, &mut pos)?;
                    }
                }
                // v8 trailing watchdog + recorder counters; absent before.
                let mut forensics = [0u64; 4];
                if pos != buf.len() {
                    for v in &mut forensics {
                        *v = read_uleb(buf, &mut pos)?;
                    }
                }
                // Trailing per-db memory accounting; absent from servers
                // without the mmap store.
                if pos != buf.len() {
                    for d in &mut dbs {
                        d.resident_bytes = read_uleb(buf, &mut pos)?;
                        d.mapped_bytes = read_uleb(buf, &mut pos)?;
                    }
                }
                Response::Stats(StatsReply {
                    served: vals[0],
                    overloaded: vals[1],
                    plan_hits: vals[2],
                    plan_misses: vals[3],
                    count_hits: vals[4],
                    count_misses: vals[5],
                    malformed: vals[6],
                    budget_exceeded: vals[7],
                    panicked: vals[8],
                    reaped: vals[9],
                    degraded: vals[10],
                    faults_injected: vals[11],
                    dbs,
                    planner_blocks_solved: planner[0],
                    planner_memo_hits: planner[1],
                    planner_candidates: planner[3],
                    planner_widths_searched: planner[5],
                    mutations_applied: mutation[0],
                    delta_bags_touched: mutation[1],
                    delta_fallbacks: mutation[2],
                    recorder_retained: forensics[0],
                    stalled_shards: forensics[1],
                    stalled_workers: forensics[2],
                    watchdog_stalls: forensics[3],
                })
            }
            OP_R_OK => Response::Ok {
                epoch: read_uleb(buf, &mut pos)?,
            },
            OP_R_PROFILE => {
                let value = read_str(buf, &mut pos)?;
                let plan = read_str(buf, &mut pos)?;
                let cached =
                    CacheTier::from_u8(take_u8(buf, &mut pos)?).ok_or("bad cache tier byte")?;
                let degraded = take_u8(buf, &mut pos)? != 0;
                let fingerprint = read_u64_le(buf, &mut pos)?;
                let total_ns = read_uleb(buf, &mut pos)?;
                let dropped = read_uleb(buf, &mut pos)?;
                let mut remaining = MAX_SPAN_NODES;
                let root = read_span_node(buf, &mut pos, &mut remaining, 0)?;
                Response::Profile(ProfileReply {
                    value,
                    plan,
                    cached,
                    degraded,
                    fingerprint,
                    total_ns,
                    dropped,
                    root,
                })
            }
            OP_R_METRICS => Response::Metrics {
                text: read_str(buf, &mut pos)?,
            },
            OP_R_MUTATED => Response::Mutated {
                changed: read_uleb(buf, &mut pos)?,
                mutation_seq: read_uleb(buf, &mut pos)?,
            },
            OP_R_SYNCED => Response::Synced {
                epoch: read_uleb(buf, &mut pos)?,
                mutation_seq: read_uleb(buf, &mut pos)?,
                durable_seq: read_uleb(buf, &mut pos)?,
            },
            OP_R_HISTORY => {
                let interval_ms = read_uleb(buf, &mut pos)?;
                let next_seq = read_uleb(buf, &mut pos)?;
                let nsamples = read_uleb(buf, &mut pos)? as usize;
                if nsamples > MAX_HISTORY_SAMPLES {
                    return Err(format!("{nsamples} history samples exceeds cap"));
                }
                let mut samples = Vec::with_capacity(nsamples.min(1024));
                for _ in 0..nsamples {
                    let seq = read_uleb(buf, &mut pos)?;
                    let unix_ms = read_uleb(buf, &mut pos)?;
                    let uptime_ms = read_uleb(buf, &mut pos)?;
                    let nentries = read_uleb(buf, &mut pos)? as usize;
                    if nentries > MAX_HISTORY_ENTRIES {
                        return Err(format!("{nentries} history entries exceeds cap"));
                    }
                    let mut entries = Vec::with_capacity(nentries.min(1024));
                    for _ in 0..nentries {
                        let name = read_str(buf, &mut pos)?;
                        let value = read_uleb(buf, &mut pos)?;
                        entries.push((name, value));
                    }
                    samples.push(HistorySampleReply {
                        seq,
                        unix_ms,
                        uptime_ms,
                        entries,
                    });
                }
                Response::History(HistoryReply {
                    interval_ms,
                    next_seq,
                    samples,
                })
            }
            OP_R_FLIGHT => {
                let ntraces = read_uleb(buf, &mut pos)? as usize;
                if ntraces > MAX_FLIGHT_TRACES {
                    return Err(format!("{ntraces} flight traces exceeds cap"));
                }
                let mut traces = Vec::with_capacity(ntraces.min(256));
                for _ in 0..ntraces {
                    let seq = read_uleb(buf, &mut pos)?;
                    let op = read_str(buf, &mut pos)?;
                    let reason = read_str(buf, &mut pos)?;
                    let latency_us = read_uleb(buf, &mut pos)?;
                    let threshold_us = read_uleb(buf, &mut pos)?;
                    let unix_ms = read_uleb(buf, &mut pos)?;
                    let mut remaining = MAX_SPAN_NODES;
                    let root = read_span_node(buf, &mut pos, &mut remaining, 0)?;
                    traces.push(FlightTrace {
                        seq,
                        op,
                        reason,
                        latency_us,
                        threshold_us,
                        unix_ms,
                        root,
                    });
                }
                let nincidents = read_uleb(buf, &mut pos)? as usize;
                if nincidents > MAX_FLIGHT_INCIDENTS {
                    return Err(format!("{nincidents} flight incidents exceeds cap"));
                }
                let mut incidents = Vec::with_capacity(nincidents.min(1024));
                for _ in 0..nincidents {
                    incidents.push(FlightIncident {
                        seq: read_uleb(buf, &mut pos)?,
                        kind: read_str(buf, &mut pos)?,
                        detail: read_str(buf, &mut pos)?,
                        unix_ms: read_uleb(buf, &mut pos)?,
                    });
                }
                Response::Flight(FlightReply { traces, incidents })
            }
            OP_R_ERROR => {
                let code =
                    ErrorCode::from_u8(take_u8(buf, &mut pos)?).ok_or("bad error code byte")?;
                Response::Error {
                    code,
                    message: read_str(buf, &mut pos)?,
                    retry_after_ms: read_uleb(buf, &mut pos)?,
                }
            }
            other => return Err(format!("unknown response opcode 0x{other:02x}")),
        };
        if pos != buf.len() {
            return Err(format!("{} trailing bytes in response", buf.len() - pos));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let frame = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(Request::decode(&frame).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let frame = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(Response::decode(&frame).unwrap(), resp);
    }

    #[test]
    fn uleb_roundtrips() {
        for v in [0u64, 1, 127, 128, 300, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_uleb(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uleb(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Count {
            db: "main".into(),
            query: "ans(X) :- r(X, Y).".into(),
            budget_ms: 0,
        });
        roundtrip_request(Request::Enumerate {
            db: "main".into(),
            query: "ans(X) :- r(X, Y).".into(),
            limit: 10,
            budget_ms: 250,
        });
        roundtrip_request(Request::WidthReport {
            query: "ans(X) :- r(X, Y).".into(),
            cap: 3,
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Reload {
            db: "main".into(),
            text: "r(a, b). r(b, c).".into(),
        });
        roundtrip_request(Request::Flush);
    }

    #[test]
    fn mutation_frames_roundtrip() {
        roundtrip_request(Request::Insert {
            db: "main".into(),
            rel: "edge".into(),
            values: vec!["a".into(), "b".into()],
        });
        roundtrip_request(Request::Delete {
            db: "main".into(),
            rel: "edge".into(),
            values: vec![],
        });
        roundtrip_request(Request::Mutate {
            db: "main".into(),
            ops: vec![
                MutationOp {
                    insert: true,
                    rel: "edge".into(),
                    values: vec!["a".into(), "b".into()],
                },
                MutationOp {
                    insert: false,
                    rel: "label".into(),
                    values: vec!["a".into()],
                },
            ],
        });
        roundtrip_request(Request::Mutate {
            db: "main".into(),
            ops: vec![],
        });
        roundtrip_response(Response::Mutated {
            changed: 2,
            mutation_seq: 17,
        });
        roundtrip_response(Response::Mutated {
            changed: 0,
            mutation_seq: u64::MAX,
        });
    }

    #[test]
    fn sync_frames_roundtrip() {
        roundtrip_request(Request::Sync { db: "main".into() });
        roundtrip_response(Response::Synced {
            epoch: 3,
            mutation_seq: 91,
            durable_seq: 91,
        });
        roundtrip_response(Response::Synced {
            epoch: 1,
            mutation_seq: u64::MAX,
            durable_seq: 0,
        });
    }

    #[test]
    fn history_frames_roundtrip() {
        roundtrip_request(Request::History {
            since_seq: 0,
            limit: 0,
        });
        roundtrip_request(Request::History {
            since_seq: 41,
            limit: 128,
        });
        roundtrip_response(Response::History(HistoryReply::default()));
        roundtrip_response(Response::History(HistoryReply {
            interval_ms: 250,
            next_seq: 44,
            samples: vec![
                HistorySampleReply {
                    seq: 42,
                    unix_ms: 1_700_000_000_123,
                    uptime_ms: 10_500,
                    entries: vec![
                        ("cqcount_requests_served_total".into(), 900),
                        ("cqcount_request_latency_us_p99".into(), 4_800),
                    ],
                },
                HistorySampleReply {
                    seq: 43,
                    unix_ms: 1_700_000_000_373,
                    uptime_ms: 10_750,
                    entries: vec![("cqcount_requests_served_total".into(), 907)],
                },
            ],
        }));
    }

    #[test]
    fn flight_frames_roundtrip() {
        roundtrip_request(Request::Flight { limit: 0 });
        roundtrip_request(Request::Flight { limit: 16 });
        roundtrip_response(Response::Flight(FlightReply::default()));
        roundtrip_response(Response::Flight(FlightReply {
            traces: vec![FlightTrace {
                seq: 7,
                op: "mutate".into(),
                reason: "slow".into(),
                latency_us: 412_000,
                threshold_us: 9_300,
                unix_ms: 1_700_000_000_555,
                root: SpanNode {
                    name: "request".into(),
                    start_ns: 0,
                    duration_ns: 412_000_000,
                    counters: vec![("wait_ns".into(), 1_000)],
                    tags: vec![("op".into(), "mutate".into())],
                    children: vec![SpanNode {
                        name: "wal.fsync".into(),
                        start_ns: 5_000,
                        duration_ns: 400_000_000,
                        ..SpanNode::default()
                    }],
                },
            }],
            incidents: vec![FlightIncident {
                seq: 8,
                kind: "stall".into(),
                detail: "worker-1 busy 412ms > 100ms".into(),
                unix_ms: 1_700_000_000_600,
            }],
        }));
    }

    #[test]
    fn hostile_history_and_flight_replies_are_rejected_cleanly() {
        // Declared sample count over the cap.
        let mut p = Vec::new();
        write_uleb(&mut p, 0); // interval
        write_uleb(&mut p, 1); // next_seq
        write_uleb(&mut p, MAX_HISTORY_SAMPLES as u64 + 1);
        let frame = Frame {
            version: V8,
            req_id: 0,
            opcode: OP_R_HISTORY,
            payload: p,
        };
        let err = Response::decode(&frame).unwrap_err();
        assert!(err.contains("exceeds cap"), "{err:?}");

        // Declared trace count over the cap.
        let mut p = Vec::new();
        write_uleb(&mut p, MAX_FLIGHT_TRACES as u64 + 1);
        let frame = Frame {
            version: V8,
            req_id: 0,
            opcode: OP_R_FLIGHT,
            payload: p,
        };
        let err = Response::decode(&frame).unwrap_err();
        assert!(err.contains("exceeds cap"), "{err:?}");
    }

    #[test]
    fn v7_stats_without_watchdog_block_still_parses() {
        // A v7 peer stops after the per-db durability block; the v8
        // decoder must treat the forensics counters as absent, not
        // truncated.
        let mut p = Vec::new();
        for v in 0..12u64 {
            write_uleb(&mut p, v);
        }
        write_uleb(&mut p, 1); // one db
        write_str(&mut p, "main");
        write_uleb(&mut p, 4); // epoch
        write_u64_le(&mut p, 99); // fingerprint
        write_uleb(&mut p, 12); // tuples
        for v in 0..6u64 {
            write_uleb(&mut p, v); // planner block
        }
        for v in 0..3u64 {
            write_uleb(&mut p, v); // mutation block
        }
        write_uleb(&mut p, 7); // mutation_seq
        write_uleb(&mut p, 7); // durable_seq
        p.push(0x01); // persisted, not read-only
        write_uleb(&mut p, 0); // recovered_records
        let frame = Frame {
            version: V7,
            req_id: 0,
            opcode: OP_R_STATS,
            payload: p,
        };
        let Response::Stats(s) = Response::decode(&frame).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(s.dbs[0].mutation_seq, 7);
        assert!(s.dbs[0].persisted);
        assert_eq!(s.recorder_retained, 0);
        assert_eq!(s.stalled_shards, 0);
        assert_eq!(s.stalled_workers, 0);
        assert_eq!(s.watchdog_stalls, 0);
    }

    #[test]
    fn stats_with_durability_flags_roundtrips() {
        roundtrip_response(Response::Stats(StatsReply {
            dbs: vec![
                DbSummary {
                    name: "a".into(),
                    epoch: 1,
                    fingerprint: 7,
                    tuples: 4,
                    mutation_seq: 10,
                    durable_seq: 6,
                    persisted: true,
                    read_only: true,
                    recovered_records: 0,
                    resident_bytes: 4096,
                    mapped_bytes: 1 << 20,
                },
                DbSummary {
                    name: "b".into(),
                    epoch: 2,
                    fingerprint: 8,
                    tuples: 5,
                    ..DbSummary::default()
                },
            ],
            ..StatsReply::default()
        }));
    }

    #[test]
    fn stats_without_memory_block_still_parses() {
        // A peer predating the mmap store stops after the forensics
        // counters; the decoder must treat the per-db memory block as
        // absent, not truncated.
        let mut p = Vec::new();
        for v in 0..12u64 {
            write_uleb(&mut p, v);
        }
        write_uleb(&mut p, 1); // one db
        write_str(&mut p, "main");
        write_uleb(&mut p, 4); // epoch
        write_u64_le(&mut p, 99); // fingerprint
        write_uleb(&mut p, 12); // tuples
        for v in 0..6u64 {
            write_uleb(&mut p, v); // planner block
        }
        for v in 0..3u64 {
            write_uleb(&mut p, v); // mutation block
        }
        write_uleb(&mut p, 7); // mutation_seq
        write_uleb(&mut p, 7); // durable_seq
        p.push(0x01);
        write_uleb(&mut p, 0); // recovered_records
        for v in 0..4u64 {
            write_uleb(&mut p, v); // forensics block
        }
        let frame = Frame {
            version: V8,
            req_id: 0,
            opcode: OP_R_STATS,
            payload: p,
        };
        let Response::Stats(s) = Response::decode(&frame).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(s.watchdog_stalls, 3);
        assert_eq!(s.dbs[0].resident_bytes, 0);
        assert_eq!(s.dbs[0].mapped_bytes, 0);
    }

    #[test]
    fn v6_stats_without_durability_block_still_parses() {
        // A v6 peer stops after the mutation counters; the v7 decoder
        // must treat the per-db durability block as absent, not truncated.
        let mut p = Vec::new();
        for v in 0..12u64 {
            write_uleb(&mut p, v);
        }
        write_uleb(&mut p, 1); // one db
        write_str(&mut p, "main");
        write_uleb(&mut p, 4); // epoch
        write_u64_le(&mut p, 99); // fingerprint
        write_uleb(&mut p, 12); // tuples
        for v in 0..6u64 {
            write_uleb(&mut p, v); // planner block
        }
        for v in 0..3u64 {
            write_uleb(&mut p, v); // mutation block
        }
        let frame = Frame {
            version: V6,
            req_id: 0,
            opcode: OP_R_STATS,
            payload: p,
        };
        let Response::Stats(s) = Response::decode(&frame).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(s.dbs.len(), 1);
        assert_eq!(s.dbs[0].mutation_seq, 0);
        assert_eq!(s.dbs[0].durable_seq, 0);
        assert!(!s.dbs[0].persisted);
        assert!(!s.dbs[0].read_only);
    }

    #[test]
    fn hostile_mutation_frames_are_rejected_cleanly() {
        // A batch whose declared op count is over the cap.
        let mut p = Vec::new();
        write_str(&mut p, "main");
        write_uleb(&mut p, MAX_MUTATION_OPS as u64 + 1);
        let frame = Frame {
            version: V6,
            req_id: 0,
            opcode: OP_MUTATE,
            payload: p,
        };
        let err = Request::decode(&frame).unwrap_err();
        assert!(err.contains("exceeds cap"), "{err:?}");

        // A tuple whose declared arity is over the cap.
        let mut p = Vec::new();
        write_str(&mut p, "main");
        write_str(&mut p, "edge");
        write_uleb(&mut p, MAX_TUPLE_ARITY as u64 + 1);
        let frame = Frame {
            version: V6,
            req_id: 0,
            opcode: OP_INSERT,
            payload: p,
        };
        let err = Request::decode(&frame).unwrap_err();
        assert!(err.contains("exceeds cap"), "{err:?}");

        // An op kind byte that is neither insert nor delete.
        let mut p = Vec::new();
        write_str(&mut p, "main");
        write_uleb(&mut p, 1);
        p.push(0x07);
        write_str(&mut p, "edge");
        write_uleb(&mut p, 0);
        let frame = Frame {
            version: V6,
            req_id: 0,
            opcode: OP_MUTATE,
            payload: p,
        };
        let err = Request::decode(&frame).unwrap_err();
        assert!(err.contains("kind"), "{err:?}");
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Count {
            value: "123456789012345678901234567890".into(),
            plan: "sharp-pipeline(width=2)".into(),
            cached: CacheTier::PlanWarm,
            degraded: true,
            fingerprint: 0xdead_beef_cafe_f00d,
        });
        roundtrip_response(Response::Rows {
            rows: vec![vec!["a".into(), "b".into()], vec!["c".into(), "d".into()]],
            truncated: true,
        });
        roundtrip_response(Response::Report(ReportReply {
            acyclic: false,
            ghw: Some(2),
            sharp_width: None,
            star_size: 2,
            atoms: 9,
            vars: 9,
            free: 3,
            cap: 3,
        }));
        roundtrip_response(Response::Stats(StatsReply {
            served: 10,
            overloaded: 1,
            plan_hits: 4,
            plan_misses: 2,
            count_hits: 3,
            count_misses: 3,
            malformed: 2,
            budget_exceeded: 1,
            panicked: 1,
            reaped: 4,
            degraded: 1,
            faults_injected: 9,
            dbs: vec![DbSummary {
                name: "main".into(),
                epoch: 2,
                fingerprint: 42,
                tuples: 17,
                mutation_seq: 9,
                durable_seq: 8,
                persisted: true,
                read_only: false,
                recovered_records: 3,
                resident_bytes: 123,
                mapped_bytes: 456,
            }],
            planner_blocks_solved: 321,
            planner_memo_hits: 100,
            planner_candidates: 5000,
            planner_widths_searched: 3,
            mutations_applied: 12,
            delta_bags_touched: 31,
            delta_fallbacks: 2,
            recorder_retained: 2,
            stalled_shards: 1,
            stalled_workers: 0,
            watchdog_stalls: 3,
        }));
        roundtrip_response(Response::Ok { epoch: 3 });
        roundtrip_response(Response::Stats(StatsReply::default()));
        roundtrip_response(Response::Error {
            code: ErrorCode::BudgetExceeded,
            message: "plan error: budget exceeded after 50ms".into(),
            retry_after_ms: 0,
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::Overloaded,
            message: "overloaded: request queue at capacity 64".into(),
            retry_after_ms: 125,
        });
    }

    #[test]
    fn profile_and_metrics_roundtrip() {
        roundtrip_request(Request::Profile {
            db: "main".into(),
            query: "ans(X, Y) :- e(X, Y), e(Y, Z), e(Z, X).".into(),
            budget_ms: 500,
        });
        roundtrip_request(Request::Metrics);
        roundtrip_response(Response::Metrics {
            text: "# TYPE cqcount_requests_total counter\n\
                   cqcount_requests_total{op=\"count\"} 3\n"
                .into(),
        });
        roundtrip_response(Response::Profile(ProfileReply {
            value: "5".into(),
            plan: "sharp-pipeline(width=2)".into(),
            cached: CacheTier::Cold,
            degraded: false,
            fingerprint: 0x1234_5678_9abc_def0,
            total_ns: 1_234_567,
            dropped: 0,
            root: SpanNode {
                name: "request".into(),
                start_ns: 0,
                duration_ns: 1_234_567,
                counters: vec![],
                tags: vec![("op".into(), "profile".into())],
                children: vec![
                    SpanNode {
                        name: "parse".into(),
                        start_ns: 10,
                        duration_ns: 900,
                        ..SpanNode::default()
                    },
                    SpanNode {
                        name: "count.sharp".into(),
                        start_ns: 1_000,
                        duration_ns: 1_200_000,
                        counters: vec![("width".into(), 2)],
                        tags: vec![],
                        children: vec![SpanNode {
                            name: "algebra.join".into(),
                            start_ns: 2_000,
                            duration_ns: 800_000,
                            counters: vec![
                                ("rows_left".into(), 100),
                                ("rows_right".into(), 100),
                                ("rows_out".into(), 140),
                                ("bytes_out".into(), 1_680),
                            ],
                            tags: vec![],
                            children: vec![],
                        }],
                    },
                ],
            },
        }));
    }

    #[test]
    fn hostile_span_trees_are_rejected_cleanly() {
        // Declared child count beyond the node cap.
        let mut p = Vec::new();
        write_str(&mut p, "root");
        write_uleb(&mut p, 0); // start
        write_uleb(&mut p, 0); // duration
        write_uleb(&mut p, 0); // counters
        write_uleb(&mut p, 0); // tags
        write_uleb(&mut p, MAX_SPAN_NODES as u64 + 7); // children
        let mut pos = 0;
        let mut remaining = MAX_SPAN_NODES;
        let err = read_span_node(&p, &mut pos, &mut remaining, 0).unwrap_err();
        assert!(err.contains("larger than"), "{err:?}");

        // A frame that nests one child per level past the depth cap.
        let mut p = Vec::new();
        for _ in 0..(MAX_SPAN_DEPTH + 2) {
            write_str(&mut p, "n");
            write_uleb(&mut p, 0);
            write_uleb(&mut p, 0);
            write_uleb(&mut p, 0);
            write_uleb(&mut p, 0);
            write_uleb(&mut p, 1); // one child, recurse
        }
        let mut pos = 0;
        let mut remaining = MAX_SPAN_NODES;
        let err = read_span_node(&p, &mut pos, &mut remaining, 0).unwrap_err();
        assert!(err.contains("deeper than"), "{err:?}");

        // Counter/tag counts over the field cap.
        let mut p = Vec::new();
        write_str(&mut p, "n");
        write_uleb(&mut p, 0);
        write_uleb(&mut p, 0);
        write_uleb(&mut p, MAX_SPAN_FIELDS as u64 + 1);
        let mut pos = 0;
        let mut remaining = MAX_SPAN_NODES;
        let err = read_span_node(&p, &mut pos, &mut remaining, 0).unwrap_err();
        assert!(err.contains("exceeds cap"), "{err:?}");
    }

    #[test]
    fn v2_frames_still_parse_under_v6() {
        // A v2 peer sends VERSION = 0x02; the daemon must keep accepting it.
        let mut buf = Vec::new();
        Request::Stats.write_to(&mut buf).unwrap();
        assert_eq!(buf[2], V4, "the blocking client's wire format is v4");
        buf[2] = MIN_VERSION;
        let frame = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(frame.version, MIN_VERSION);
        assert_eq!(frame.req_id, 0, "pre-v5 frames carry no request id");
        assert_eq!(Request::decode(&frame).unwrap(), Request::Stats);
        // But versions outside [MIN_VERSION, VERSION] stay rejected.
        for bad in [0x00, 0x01, 0x09, 0x7f] {
            buf[2] = bad;
            assert!(read_frame(&mut Cursor::new(&buf)).is_err(), "version {bad}");
        }
    }

    #[test]
    fn v5_frames_carry_and_echo_request_ids() {
        let req = Request::Count {
            db: "main".into(),
            query: "ans(X) :- r(X, Y).".into(),
            budget_ms: 7,
        };
        for id in [0u64, 1, 127, 128, 300_000, u64::MAX] {
            let bytes = req.encode(V5, id);
            assert_eq!(bytes[2], V5);
            let frame = read_frame(&mut Cursor::new(&bytes)).unwrap().unwrap();
            assert_eq!(frame.version, V5);
            assert_eq!(frame.req_id, id);
            assert_eq!(Request::decode(&frame).unwrap(), req);

            let resp = Response::Ok { epoch: 3 };
            let bytes = resp.encode(V5, id);
            let frame = read_frame(&mut Cursor::new(&bytes)).unwrap().unwrap();
            assert_eq!(frame.req_id, id);
            assert_eq!(Response::decode(&frame).unwrap(), resp);
        }
        // The v4 encoding of the same request has no id and is the
        // blocking client's exact wire format.
        let mut via_write_to = Vec::new();
        req.write_to(&mut via_write_to).unwrap();
        assert_eq!(req.encode(V4, 0), via_write_to);
        assert!(req.encode(V5, 1).len() > via_write_to.len());
    }

    #[test]
    fn parse_frame_prefix_is_incremental_and_exact() {
        let req = Request::Count {
            db: "main".into(),
            query: "ans(X, Y) :- r(X, Y), s(Y, Z).".into(),
            budget_ms: 250,
        };
        for (version, id) in [(V4, 0u64), (V5, 42)] {
            let bytes = req.encode(version, id);
            // Every strict prefix: incomplete, never an error or a frame.
            for cut in 0..bytes.len() {
                match parse_frame_prefix(&bytes[..cut]) {
                    Ok(None) => {}
                    other => panic!("prefix {cut}/{}: {other:?}", bytes.len()),
                }
            }
            // The whole frame parses and consumes exactly its bytes, with
            // pipelined trailing data left untouched.
            let mut stream = bytes.clone();
            stream.extend_from_slice(&bytes);
            let (frame, used) = parse_frame_prefix(&stream).unwrap().unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(frame.version, version);
            assert_eq!(frame.req_id, id);
            assert_eq!(Request::decode(&frame).unwrap(), req);
            let (frame2, used2) = parse_frame_prefix(&stream[used..]).unwrap().unwrap();
            assert_eq!(used2, bytes.len());
            assert_eq!(frame2.req_id, id);
        }

        // Fatal inputs fail fast, before the frame is complete.
        assert!(parse_frame_prefix(b"XQ").is_err(), "bad magic byte 0");
        assert!(parse_frame_prefix(b"CX").is_err(), "bad magic byte 1");
        assert!(
            parse_frame_prefix(&[MAGIC[0], MAGIC[1], 0x7f]).is_err(),
            "unsupported version"
        );
        let mut runaway = vec![MAGIC[0], MAGIC[1], V4, OP_STATS];
        runaway.extend_from_slice(&[0x80; 11]);
        assert!(parse_frame_prefix(&runaway).is_err(), "runaway varint");
        let mut oversized = vec![MAGIC[0], MAGIC[1], V4, OP_STATS];
        write_uleb(&mut oversized, MAX_PAYLOAD as u64 + 1);
        assert!(parse_frame_prefix(&oversized).is_err(), "oversized payload");
    }

    #[test]
    fn older_stats_replies_without_trailing_fields_still_decode() {
        let full = Response::Stats(StatsReply {
            served: 5,
            planner_blocks_solved: 9,
            planner_widths_searched: 2,
            mutations_applied: 4,
            ..StatsReply::default()
        });
        let mut buf = Vec::new();
        full.write_to(&mut buf).unwrap();
        let frame = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();

        // A v4/v5 server's STATS reply ends at the planner counters; the
        // decoder must read it with the mutation and forensics counters
        // defaulting to zero. All trailing values are < 128 here, so the
        // planner block is six bytes, the mutation block three, and the
        // v8 forensics block four (the db list is empty, so the v7 per-db
        // block is zero bytes).
        let mut v5 = frame.clone();
        v5.payload.truncate(v5.payload.len() - 7);
        let got = match Response::decode(&v5).unwrap() {
            Response::Stats(s) => s,
            other => panic!("expected stats, got {other:?}"),
        };
        assert_eq!(got.served, 5);
        assert_eq!(got.planner_blocks_solved, 9);
        assert_eq!(got.mutations_applied, 0);

        // A v3 reply ends at the db list; every optional block defaults.
        let mut v3 = frame.clone();
        v3.payload.truncate(v3.payload.len() - 13);
        let got = match Response::decode(&v3).unwrap() {
            Response::Stats(s) => s,
            other => panic!("expected stats, got {other:?}"),
        };
        assert_eq!(got.served, 5);
        assert_eq!(got.planner_blocks_solved, 0);
        assert_eq!(got.planner_widths_searched, 0);
        assert_eq!(got.mutations_applied, 0);
    }

    #[test]
    fn eof_before_header_is_clean_close() {
        assert!(read_frame(&mut Cursor::new(&[])).unwrap().is_none());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut buf = Vec::new();
        Request::Stats.write_to(&mut buf).unwrap();
        let mut corrupted = buf.clone();
        corrupted[0] = b'X';
        assert!(read_frame(&mut Cursor::new(&corrupted)).is_err());
        let mut wrong_version = buf.clone();
        wrong_version[2] = 0x7f;
        assert!(read_frame(&mut Cursor::new(&wrong_version)).is_err());
    }

    #[test]
    fn oversized_payload_is_rejected_before_allocation() {
        for version in [V4, V5] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC);
            buf.push(version);
            buf.push(OP_COUNT);
            if version >= V5 {
                write_uleb(&mut buf, 9); // request id
            }
            write_uleb(&mut buf, (MAX_PAYLOAD + 1) as u64);
            assert!(read_frame(&mut Cursor::new(&buf)).is_err());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut p = Vec::new();
        write_uleb(&mut p, 7);
        let frame = Frame {
            version: V4,
            req_id: 0,
            opcode: OP_STATS,
            payload: p,
        };
        assert!(Request::decode(&frame).is_err());
    }
}
