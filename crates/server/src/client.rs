//! Clients for the daemon: the blocking [`Client`] (one request in flight,
//! v4 frames) used by `cqcount-cli`, the e2e tests, and the throughput
//! bench, and the [`PipelinedClient`] (protocol v5, many requests in
//! flight on one connection, responses matched by request id).
//!
//! Resilience: [`ClientOptions`] adds connect/IO deadlines (a dead daemon
//! can no longer hang the caller forever) and a retry loop with
//! exponential backoff + seeded jitter for the idempotent opcodes —
//! `COUNT`, `STATS`, and `WIDTH_REPORT` are safe to repeat because the
//! server's caches are keyed by epoch, so a retry can only re-read. An
//! `Overloaded` reply's `retry_after_ms` hint stretches the backoff.
//! The pipelined client carries no retry loop: a window of in-flight
//! requests is not blindly repeatable, so transport errors surface to the
//! caller, who decides what to resubmit. Mutations (`INSERT`/`DELETE`/
//! `MUTATE`, protocol v6) are likewise never retried — a landed-but-lost
//! reply makes a blind retry report `changed == 0`, indistinguishable
//! from a genuine duplicate.

use crate::protocol::{
    read_frame, CacheTier, ErrorCode, FlightReply, HistoryReply, MutationOp, ProfileReply,
    ReportReply, Request, Response, StatsReply, V5, V8,
};
use cqcount_arith::prng::Rng;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What went wrong on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered with an error frame.
    Server {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Server backoff hint in milliseconds (0 = none); set on
        /// `Overloaded`.
        retry_after_ms: u64,
    },
    /// The server answered with a frame the client cannot interpret (wrong
    /// type for the request, or undecodable).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Server { code, message, .. } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Is a retry worth attempting? Transport and protocol failures may have
/// eaten a reply to a request that actually succeeded — which is exactly
/// why only idempotent opcodes go through the retry loop. Server-side
/// errors retry only when the condition is transient.
fn retryable(e: &ClientError) -> bool {
    match e {
        ClientError::Io(_) | ClientError::Protocol(_) => true,
        ClientError::Server { code, .. } => matches!(
            code,
            ErrorCode::Overloaded | ErrorCode::Internal | ErrorCode::Protocol
        ),
    }
}

/// A successful count with its provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountReply {
    /// The exact count, as a decimal string.
    pub value: String,
    /// The plan label the server reported.
    pub plan: String,
    /// Which cache level served it.
    pub cached: CacheTier,
    /// True when the server fell back to a cheaper plan because planning
    /// blew its budget (the count is still exact).
    pub degraded: bool,
    /// The query's canonical 64-bit fingerprint.
    pub fingerprint: u64,
}

/// What a mutation accomplished (protocol v6 `MUTATED` reply).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationReceipt {
    /// Effective ops: tuples actually added or removed. A duplicate
    /// insert or an absent delete counts zero.
    pub changed: u64,
    /// The database's mutation sequence after the batch — monotonic per
    /// database, bumped once per effective op, reset by `RELOAD`.
    pub mutation_seq: u64,
}

/// What a `SYNC` made durable (protocol v7 `SYNCED` reply).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncReceipt {
    /// The database's current epoch.
    pub epoch: u64,
    /// The database's mutation sequence at the sync point.
    pub mutation_seq: u64,
    /// Highest mutation sequence the server guarantees is on disk (`0`
    /// when the server runs without `--data-dir`).
    pub durable_seq: u64,
}

/// Client tunables; [`ClientOptions::default`] matches the pre-retry
/// behavior except that I/O now times out instead of hanging forever.
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Connect deadline in milliseconds (0 = OS default).
    pub connect_timeout_ms: u64,
    /// Read/write deadline per syscall in milliseconds (0 = none).
    pub io_timeout_ms: u64,
    /// Extra attempts for idempotent requests after the first fails.
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt (capped).
    pub backoff_base_ms: u64,
    /// Seed for backoff jitter, so tests can replay retry schedules.
    pub retry_seed: u64,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            connect_timeout_ms: 5_000,
            io_timeout_ms: 30_000,
            retries: 0,
            backoff_base_ms: 50,
            retry_seed: 0x5EED,
        }
    }
}

/// Longest single backoff sleep, hint or not.
const BACKOFF_CAP_MS: u64 = 2_000;

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// A blocking connection to a `cqcountd`. One request in flight at a time;
/// reconnects transparently when a retry follows a transport error.
pub struct Client {
    addrs: Vec<SocketAddr>,
    options: ClientOptions,
    jitter: Rng,
    conn: Option<Conn>,
}

impl Client {
    /// Connects to the daemon with default options.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, ClientOptions::default())
    }

    /// Connects with explicit deadlines and retry policy.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        options: ClientOptions,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )));
        }
        let jitter = Rng::seed_from_u64(options.retry_seed);
        let mut client = Client {
            addrs,
            options,
            jitter,
            conn: None,
        };
        client.ensure_connected()?; // surface connect errors eagerly
        Ok(client)
    }

    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut last: Option<io::Error> = None;
        for addr in &self.addrs {
            let attempt = if self.options.connect_timeout_ms > 0 {
                TcpStream::connect_timeout(
                    addr,
                    Duration::from_millis(self.options.connect_timeout_ms),
                )
            } else {
                TcpStream::connect(addr)
            };
            match attempt {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    let io_timeout = (self.options.io_timeout_ms > 0)
                        .then(|| Duration::from_millis(self.options.io_timeout_ms));
                    stream.set_read_timeout(io_timeout)?;
                    stream.set_write_timeout(io_timeout)?;
                    let reader = BufReader::new(stream.try_clone()?);
                    self.conn = Some(Conn {
                        reader,
                        writer: BufWriter::new(stream),
                    });
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, "no address to connect to")
        })))
    }

    /// One request/response exchange on the current connection. Transport
    /// failures poison the connection so the next attempt redials.
    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.roundtrip_at(crate::protocol::V4, req)
    }

    /// [`roundtrip`](Client::roundtrip) with an explicit frame version —
    /// the forensics opcodes (`HISTORY`/`FLIGHT`) ship in v8 headers, the
    /// rest stay on the blocking client's v4 framing.
    fn roundtrip_at(&mut self, version: u8, req: &Request) -> Result<Response, ClientError> {
        self.ensure_connected()?;
        let result = (|| {
            let conn = self.conn.as_mut().expect("just connected");
            conn.writer.write_all(&req.encode(version, 0))?;
            conn.writer.flush()?;
            let frame = read_frame(&mut conn.reader)?
                .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
            Response::decode(&frame).map_err(ClientError::Protocol)
        })();
        match result {
            Ok(Response::Error {
                code,
                message,
                retry_after_ms,
            }) => Err(ClientError::Server {
                code,
                message,
                retry_after_ms,
            }),
            Ok(resp) => Ok(resp),
            Err(e) => {
                // A half-finished exchange leaves the stream mid-frame:
                // drop it so a retry starts on a fresh connection.
                self.conn = None;
                Err(e)
            }
        }
    }

    /// The retry loop for idempotent requests: exponential backoff with
    /// seeded jitter, stretched to any server `retry_after_ms` hint.
    fn roundtrip_idempotent(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.roundtrip_idempotent_at(crate::protocol::V4, req)
    }

    fn roundtrip_idempotent_at(
        &mut self,
        version: u8,
        req: &Request,
    ) -> Result<Response, ClientError> {
        let mut attempt: u32 = 0;
        loop {
            match self.roundtrip_at(version, req) {
                Err(e) if attempt < self.options.retries && retryable(&e) => {
                    let hint = match &e {
                        ClientError::Server { retry_after_ms, .. } => *retry_after_ms,
                        _ => 0,
                    };
                    let base = self.options.backoff_base_ms.max(1);
                    let exp = base
                        .saturating_mul(1 << attempt.min(16))
                        .min(BACKOFF_CAP_MS);
                    let jittered = exp + self.jitter.below(base);
                    let wait = jittered.max(hint).min(BACKOFF_CAP_MS.max(hint));
                    std::thread::sleep(Duration::from_millis(wait));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Counts `query` over the named database. `budget_ms == 0` uses the
    /// server default. Idempotent: retried per [`ClientOptions::retries`].
    pub fn count(
        &mut self,
        db: &str,
        query: &str,
        budget_ms: u64,
    ) -> Result<CountReply, ClientError> {
        match self.roundtrip_idempotent(&Request::Count {
            db: db.into(),
            query: query.into(),
            budget_ms,
        })? {
            Response::Count {
                value,
                plan,
                cached,
                degraded,
                fingerprint,
            } => Ok(CountReply {
                value,
                plan,
                cached,
                degraded,
                fingerprint,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected a count response, got {other:?}"
            ))),
        }
    }

    /// Fetches up to `limit` answers. Returns `(rows, truncated)`. Not
    /// retried: a large row stream is not worth repeating blindly.
    pub fn enumerate(
        &mut self,
        db: &str,
        query: &str,
        limit: u64,
        budget_ms: u64,
    ) -> Result<(Vec<Vec<String>>, bool), ClientError> {
        match self.roundtrip(&Request::Enumerate {
            db: db.into(),
            query: query.into(),
            limit,
            budget_ms,
        })? {
            Response::Rows { rows, truncated } => Ok((rows, truncated)),
            other => Err(ClientError::Protocol(format!(
                "expected rows, got {other:?}"
            ))),
        }
    }

    /// Structural width report. `cap == 0` uses the server default.
    /// Idempotent: retried per [`ClientOptions::retries`].
    pub fn width_report(&mut self, query: &str, cap: u64) -> Result<ReportReply, ClientError> {
        match self.roundtrip_idempotent(&Request::WidthReport {
            query: query.into(),
            cap,
        })? {
            Response::Report(r) => Ok(r),
            other => Err(ClientError::Protocol(format!(
                "expected a report, got {other:?}"
            ))),
        }
    }

    /// Counts `query` under tracing and returns the span tree alongside
    /// the count (protocol v3 `PROFILE`). Idempotent like `count`: a retry
    /// can only re-read, so it goes through the backoff loop.
    pub fn profile(
        &mut self,
        db: &str,
        query: &str,
        budget_ms: u64,
    ) -> Result<ProfileReply, ClientError> {
        match self.roundtrip_idempotent(&Request::Profile {
            db: db.into(),
            query: query.into(),
            budget_ms,
        })? {
            Response::Profile(r) => Ok(r),
            other => Err(ClientError::Protocol(format!(
                "expected a profile response, got {other:?}"
            ))),
        }
    }

    /// The server's metrics registry in Prometheus text exposition format
    /// (protocol v3 `METRICS`). Idempotent: retried per
    /// [`ClientOptions::retries`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.roundtrip_idempotent(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(ClientError::Protocol(format!(
                "expected metrics text, got {other:?}"
            ))),
        }
    }

    /// Server counters. Idempotent: retried per [`ClientOptions::retries`].
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.roundtrip_idempotent(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Replaces (or installs) a database from datalog facts; returns the
    /// new epoch. Not retried: a reload bumps the epoch, so repeating it
    /// is observable.
    pub fn reload(&mut self, db: &str, text: &str) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::Reload {
            db: db.into(),
            text: text.into(),
        })? {
            Response::Ok { epoch } => Ok(epoch),
            other => Err(ClientError::Protocol(format!(
                "expected an ack, got {other:?}"
            ))),
        }
    }

    /// Inserts one tuple into a loaded database (protocol v6). Returns
    /// the mutation receipt. Not retried: the opcode is not idempotent to
    /// repeat blindly — if the first attempt landed but its reply was
    /// lost, a blind retry reports `changed == 0` and the caller cannot
    /// tell a duplicate from a no-op. Callers who need at-least-once
    /// delivery should compare `mutation_seq` against a prior
    /// [`stats`](Client::stats) observation instead.
    pub fn insert(
        &mut self,
        db: &str,
        rel: &str,
        values: &[&str],
    ) -> Result<MutationReceipt, ClientError> {
        self.mutation_roundtrip(&Request::Insert {
            db: db.into(),
            rel: rel.into(),
            values: values.iter().map(|v| (*v).to_owned()).collect(),
        })
    }

    /// Deletes one tuple from a loaded database (protocol v6). Deleting
    /// an absent tuple is not an error: the receipt reports
    /// `changed == 0`. Not retried, for the same reason as
    /// [`insert`](Client::insert).
    pub fn delete(
        &mut self,
        db: &str,
        rel: &str,
        values: &[&str],
    ) -> Result<MutationReceipt, ClientError> {
        self.mutation_roundtrip(&Request::Delete {
            db: db.into(),
            rel: rel.into(),
            values: values.iter().map(|v| (*v).to_owned()).collect(),
        })
    }

    /// Applies a batch of mutations in order (protocol v6 `MUTATE`). Ops
    /// up to the first failure stay applied — the server names the
    /// offending op in its error. Not retried: resubmitting a batch whose
    /// prefix already landed double-applies nothing (inserts and deletes
    /// are set operations) but skews `changed`, so the decision belongs
    /// to the caller.
    pub fn mutate(
        &mut self,
        db: &str,
        ops: Vec<MutationOp>,
    ) -> Result<MutationReceipt, ClientError> {
        self.mutation_roundtrip(&Request::Mutate { db: db.into(), ops })
    }

    fn mutation_roundtrip(&mut self, req: &Request) -> Result<MutationReceipt, ClientError> {
        match self.roundtrip(req)? {
            Response::Mutated {
                changed,
                mutation_seq,
            } => Ok(MutationReceipt {
                changed,
                mutation_seq,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected a mutation receipt, got {other:?}"
            ))),
        }
    }

    /// Forces an fsync + snapshot cycle (protocol v7 `SYNC`); on return,
    /// every mutation up to `durable_seq` survives a crash. Idempotent —
    /// syncing twice is just slower — so it goes through the retry loop.
    pub fn sync(&mut self, db: &str) -> Result<SyncReceipt, ClientError> {
        match self.roundtrip_idempotent(&Request::Sync { db: db.into() })? {
            Response::Synced {
                epoch,
                mutation_seq,
                durable_seq,
            } => Ok(SyncReceipt {
                epoch,
                mutation_seq,
                durable_seq,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected a sync receipt, got {other:?}"
            ))),
        }
    }

    /// Fetches metrics-history samples with `seq > since_seq`, at most
    /// `limit` (0 = the server's cap), oldest first (protocol v8
    /// `HISTORY`). Pass the reply's `next_seq - 1` back as `since_seq`
    /// for gap-free incremental polling. Idempotent: retried per
    /// [`ClientOptions::retries`].
    pub fn history(&mut self, since_seq: u64, limit: u64) -> Result<HistoryReply, ClientError> {
        match self.roundtrip_idempotent_at(V8, &Request::History { since_seq, limit })? {
            Response::History(h) => Ok(h),
            other => Err(ClientError::Protocol(format!(
                "expected a history reply, got {other:?}"
            ))),
        }
    }

    /// Fetches the flight recorder's retained traces and incidents, at
    /// most `limit` of each (0 = the server's caps), oldest first
    /// (protocol v8 `FLIGHT`). Idempotent: retried per
    /// [`ClientOptions::retries`].
    pub fn flight(&mut self, limit: u64) -> Result<FlightReply, ClientError> {
        match self.roundtrip_idempotent_at(V8, &Request::Flight { limit })? {
            Response::Flight(f) => Ok(f),
            other => Err(ClientError::Protocol(format!(
                "expected a flight reply, got {other:?}"
            ))),
        }
    }

    /// Drops both cache levels. Not retried (admin op).
    pub fn flush(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Flush)? {
            Response::Ok { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected an ack, got {other:?}"
            ))),
        }
    }
}

/// A protocol-v5 client that keeps many requests in flight on one
/// connection.
///
/// [`submit`](PipelinedClient::submit) assigns the request a fresh id and
/// buffers its frame; [`flush`](PipelinedClient::flush) pushes the batch
/// onto the wire; [`recv`](PipelinedClient::recv) returns the next
/// response *in the order the server finished them* together with the id
/// it answers. Responses for cache-warm counts can overtake colder work
/// submitted before them — match on the id, never on arrival order.
///
/// Server-side failures (`Overloaded`, budget exhaustion, bad queries)
/// come back as ordinary [`Response::Error`] values so the caller can
/// attribute them to the request that caused them; only transport-level
/// problems surface as [`ClientError`].
pub struct PipelinedClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    inflight: usize,
}

impl PipelinedClient {
    /// Connects with default options.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<PipelinedClient, ClientError> {
        PipelinedClient::connect_with(addr, ClientOptions::default())
    }

    /// Connects with explicit deadlines. The retry fields of
    /// [`ClientOptions`] are ignored: a pipelined window is not blindly
    /// repeatable.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        options: ClientOptions,
    ) -> Result<PipelinedClient, ClientError> {
        let mut last: Option<io::Error> = None;
        for addr in addr.to_socket_addrs()? {
            let attempt = if options.connect_timeout_ms > 0 {
                TcpStream::connect_timeout(&addr, Duration::from_millis(options.connect_timeout_ms))
            } else {
                TcpStream::connect(addr)
            };
            match attempt {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    let io_timeout = (options.io_timeout_ms > 0)
                        .then(|| Duration::from_millis(options.io_timeout_ms));
                    stream.set_read_timeout(io_timeout)?;
                    stream.set_write_timeout(io_timeout)?;
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(PipelinedClient {
                        reader,
                        writer: BufWriter::new(stream),
                        next_id: 1,
                        inflight: 0,
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, "address resolved to nothing")
        })))
    }

    /// Buffers one request and returns the id its response will carry.
    /// Call [`flush`](PipelinedClient::flush) (or
    /// [`recv`](PipelinedClient::recv), which flushes first) to put it on
    /// the wire.
    pub fn submit(&mut self, req: &Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.writer.write_all(&req.encode(V5, id))?;
        self.inflight += 1;
        Ok(id)
    }

    /// Flushes every buffered request onto the socket.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Requests submitted but not yet answered by a
    /// [`recv`](PipelinedClient::recv).
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Receives the next completed response as `(request id, response)`.
    /// Flushes pending writes first so a bare submit/recv loop cannot
    /// deadlock.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        self.flush()?;
        let frame = read_frame(&mut self.reader)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
        let response = Response::decode(&frame).map_err(ClientError::Protocol)?;
        self.inflight = self.inflight.saturating_sub(1);
        Ok((frame.req_id, response))
    }
}
