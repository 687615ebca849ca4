//! The evented serving front end: readiness-driven reactor shards.
//!
//! Each shard owns a `poll(2)` set (via [`crate::poll`]) holding a
//! self-wake pipe, the listener (shard 0 only), and its share of the
//! accepted connections — `conn_id % nshards` picks the owner. Sockets are
//! non-blocking; frames are decoded incrementally out of per-connection
//! read buffers ([`crate::protocol::parse_frame_prefix`]), so one
//! connection may have many requests in flight at once (pipelining).
//!
//! Per decoded frame the shard either answers **inline** — admin opcodes
//! and warm-hit counting requests ([`crate::server::try_fast_path`]) never
//! touch the worker queue — or batches the request into the bounded queue
//! ([`crate::queue::BoundedQueue::try_push_batch`], one lock per readiness
//! sweep). Workers post [`Completion`]s back through the shard's mailbox
//! and wake its pipe.
//!
//! **Response ordering.** Protocol v5 frames carry request ids, so their
//! responses ship in *completion* order and the client matches them by id.
//! v4 frames have no ids; their responses are held in a per-connection
//! reorder buffer and released strictly in request order, which is exactly
//! the pre-pipelining contract — a v4 client cannot observe the reactor.
//!
//! **Trace buffering.** Workers attach their trace-log line to the
//! completion; the shard appends lines to a local buffer and writes it to
//! the shared sink once per drain batch, so `--trace-log` costs one file
//! write per sweep instead of one mutex acquisition per request.

use crate::faults::{ConnFaults, FaultyStream, JobFaults};
use crate::poll::{poll_fds, PollFd, WakePipe, Waker, POLLIN, POLLOUT};
use crate::protocol::{parse_frame_prefix, ErrorCode, Frame, Request, Response, MAX_PAYLOAD, V5};
use crate::queue::BoundedQueue;
use crate::server::{
    counting_op, handle_admin, op_index, overload_response, try_fast_path, Job, Shared,
};
use cqcount_obs::trace;
use cqcount_obs::watchdog::HeartbeatKind;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Read chunk size per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;
/// Stop pulling more bytes off one connection within a single sweep once
/// its buffer holds this much undecoded input (fairness + memory bound).
/// A connection parked mid-frame is exempt up to the protocol's payload
/// cap: a single frame larger than this pause would otherwise never
/// finish arriving — reads pause, the buffer never drains, and the read
/// deadline reaps a well-behaved peer (bulk `RELOAD`s hit exactly this).
const RBUF_PAUSE: usize = 1 << 20;
/// Stop decoding new requests from a connection while this many are in
/// flight (per-connection pipelining cap; bytes stay buffered).
const MAX_INFLIGHT: usize = 1024;
/// Stop reading from a connection whose peer is not draining responses.
const WBUF_PAUSE: usize = 8 << 20;

/// A finished request on its way back to the owning shard.
pub(crate) struct Completion {
    pub(crate) conn_id: u64,
    pub(crate) seq: u64,
    pub(crate) response: Response,
    /// Pre-formatted `--trace-log` line (workers format, shards write).
    pub(crate) trace_line: Option<String>,
}

/// A newly accepted connection handed to its owning shard: id, socket,
/// and (when fault injection is active) the connection's fault lanes.
type IncomingConn = (u64, TcpStream, Option<Arc<ConnFaults>>);

/// One shard's inbound mailbox: new connections and finished jobs.
struct ShardMailbox {
    incoming: Mutex<Vec<IncomingConn>>,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

/// Handles to every shard, used by the accept path (to dispatch new
/// connections) and by workers (to post completions).
pub(crate) struct ReactorSet {
    shards: Vec<Arc<ShardMailbox>>,
    next_conn: AtomicU64,
}

impl ReactorSet {
    /// Builds `nshards` mailboxes plus the wake pipe each shard will own.
    pub(crate) fn new(nshards: usize) -> std::io::Result<(Arc<ReactorSet>, Vec<WakePipe>)> {
        let mut shards = Vec::with_capacity(nshards);
        let mut pipes = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let pipe = WakePipe::new()?;
            shards.push(Arc::new(ShardMailbox {
                incoming: Mutex::new(Vec::new()),
                completions: Mutex::new(Vec::new()),
                waker: pipe.waker()?,
            }));
            pipes.push(pipe);
        }
        Ok((
            Arc::new(ReactorSet {
                shards,
                next_conn: AtomicU64::new(0),
            }),
            pipes,
        ))
    }

    fn shard_of(&self, conn_id: u64) -> &Arc<ShardMailbox> {
        &self.shards[(conn_id % self.shards.len() as u64) as usize]
    }

    /// Routes a finished job to its connection's shard and wakes it.
    pub(crate) fn post_completion(&self, c: Completion) {
        let shard = self.shard_of(c.conn_id);
        shard.completions.lock().unwrap().push(c);
        shard.waker.wake();
    }

    /// Hands a freshly accepted connection to its owning shard.
    fn post_conn(&self, id: u64, stream: TcpStream, faults: Option<Arc<ConnFaults>>) {
        let shard = self.shard_of(id);
        shard.incoming.lock().unwrap().push((id, stream, faults));
        shard.waker.wake();
    }

    /// Wakes every shard (shutdown).
    pub(crate) fn wake_all(&self) {
        for s in &self.shards {
            s.waker.wake();
        }
    }
}

/// A connection's transport: plain, or wrapped by the fault injector.
/// Fault lanes schedule by *byte offset*, so the reactor's read/write call
/// pattern (64 KiB non-blocking reads vs the old `BufReader` loop) does
/// not perturb replay determinism.
enum ConnStream {
    Plain(TcpStream),
    Faulty(FaultyStream),
}

impl ConnStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ConnStream::Plain(s) => s.read(buf),
            ConnStream::Faulty(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ConnStream::Plain(s) => s.write(buf),
            ConnStream::Faulty(s) => s.write(buf),
        }
    }
}

/// Metadata held from decode until the response is ready.
struct PendingReq {
    version: u8,
    req_id: u64,
    decode_start: u64,
    /// `false` for payload-decode failures: they are answered before any
    /// work starts, so they stay out of the latency histograms.
    observe_latency: bool,
    /// Row of the per-opcode latency histogram (`None` for frames whose
    /// payload never decoded into a request).
    op: Option<usize>,
}

struct Conn {
    id: u64,
    fd: RawFd,
    stream: ConnStream,
    faults: Option<Arc<ConnFaults>>,
    /// Undecoded input.
    rbuf: Vec<u8>,
    /// Encoded responses not yet accepted by the kernel.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Per-connection decode sequence (allocates `seq`).
    next_seq: u64,
    pending: HashMap<u64, PendingReq>,
    /// v4 requests awaiting in-order release, oldest first.
    order: VecDeque<u64>,
    /// Completed v4 responses not yet at the front of `order`.
    ready: BTreeMap<u64, Vec<u8>>,
    last_read: Instant,
    /// Set while `wbuf` has unwritten bytes; refreshed on write progress.
    write_since: Option<Instant>,
    /// No more reads (EOF or fatal frame error); drain and close.
    closing: bool,
    /// A frame-level protocol error to ship once in-flight work drains.
    final_error: Option<Vec<u8>>,
    dead: bool,
    /// The buffered input ends inside a frame that needs more bytes than
    /// [`RBUF_PAUSE`] allows; reads stay open up to the payload cap.
    frame_incomplete: bool,
    /// Readiness flags for the current sweep.
    readable: bool,
    writable: bool,
}

impl Conn {
    fn new(id: u64, stream: TcpStream, faults: Option<Arc<ConnFaults>>) -> Conn {
        let fd = stream.as_raw_fd();
        let stream = match &faults {
            Some(f) => ConnStream::Faulty(f.wrap(stream)),
            None => ConnStream::Plain(stream),
        };
        Conn {
            id,
            fd,
            stream,
            faults,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            next_seq: 0,
            pending: HashMap::new(),
            order: VecDeque::new(),
            ready: BTreeMap::new(),
            last_read: Instant::now(),
            write_since: None,
            closing: false,
            final_error: None,
            dead: false,
            frame_incomplete: false,
            readable: false,
            writable: false,
        }
    }

    fn has_output(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// How much undecoded input this connection may buffer before reads
    /// pause: the fairness bound normally, the protocol's payload cap
    /// (plus header slack) while a single frame is still arriving.
    fn read_cap(&self) -> usize {
        if self.frame_incomplete {
            MAX_PAYLOAD + 64
        } else {
            RBUF_PAUSE
        }
    }

    /// Is this connection still willing to accept input bytes?
    fn wants_read(&self) -> bool {
        !self.closing
            && !self.dead
            && self.rbuf.len() < self.read_cap()
            && self.pending.len() < MAX_INFLIGHT
            && self.wbuf.len() - self.wpos < WBUF_PAUSE
    }

    /// Appends encoded bytes and starts the write-stall clock.
    fn push_output(&mut self, bytes: &[u8]) {
        if !self.has_output() {
            self.wbuf.clear();
            self.wpos = 0;
            self.write_since = Some(Instant::now());
        }
        self.wbuf.extend_from_slice(bytes);
    }
}

/// Everything a shard needs to run; consumed by [`run_reactor`].
pub(crate) struct ReactorConfig {
    pub(crate) shard: usize,
    pub(crate) shared: Arc<Shared>,
    pub(crate) queue: Arc<BoundedQueue<Job>>,
    pub(crate) set: Arc<ReactorSet>,
    pub(crate) pipe: WakePipe,
    /// Shard 0 owns the listener; other shards have `None`.
    pub(crate) listener: Option<TcpListener>,
}

/// The shard event loop. Runs until the server's stop flag is set, then
/// drains outstanding completions, flushes buffers, and returns.
pub(crate) fn run_reactor(cfg: ReactorConfig) {
    let ReactorConfig {
        shard,
        shared,
        queue,
        set,
        pipe,
        listener,
    } = cfg;
    let mailbox = Arc::clone(&set.shards[shard]);
    // Liveness contract with the stall watchdog: one beat per sweep. A
    // shard wedged inside a sweep (or no longer polling at all) goes
    // silent and gets flagged.
    let heartbeat = shared.watchdog.as_ref().map(|w| {
        w.register(
            format!("reactor-{shard}"),
            HeartbeatKind::Polled,
            trace::now_ns(),
        )
    });
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut jobs: Vec<Job> = Vec::new();
    let mut trace_buf = String::new();
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut poll_ids: Vec<u64> = Vec::new();
    let mut accept_backoff: Option<Instant> = None;

    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);

        // Build the poll set: wake pipe, listener (shard 0), connections.
        pollfds.clear();
        poll_ids.clear();
        pollfds.push(PollFd::new(pipe.poll_fd(), POLLIN));
        let listener_slot = listener.as_ref().and_then(|l| {
            if accept_backoff.is_some_and(|until| Instant::now() < until) {
                return None;
            }
            accept_backoff = None;
            pollfds.push(PollFd::new(l.as_raw_fd(), POLLIN));
            Some(pollfds.len() - 1)
        });
        let conn_base = pollfds.len();
        for conn in conns.values() {
            let mut events = 0i16;
            if conn.wants_read() {
                events |= POLLIN;
            }
            if conn.has_output() {
                events |= POLLOUT;
            }
            pollfds.push(PollFd::new(conn.fd, events));
            poll_ids.push(conn.id);
        }

        if !stopping {
            let timeout = poll_timeout(&shared, &conns);
            let _ = poll_fds(&mut pollfds, Some(timeout));
            shared.metrics.reactor_wakeups.inc();
        }

        if let Some(hb) = &heartbeat {
            hb.beat(trace::now_ns());
        }

        if pollfds[0].readable() {
            pipe.drain();
        }

        // Accept burst (shard 0). Connection ids follow accept order, so
        // the fault injector's per-connection lanes stay replayable.
        if let (Some(l), Some(slot)) = (listener.as_ref(), listener_slot) {
            if pollfds[slot].readable() && !stopping {
                loop {
                    match l.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(true);
                            let _ = stream.set_nodelay(true);
                            let id = set.next_conn.fetch_add(1, Ordering::SeqCst);
                            let faults = shared.injector.as_ref().map(|i| i.connection());
                            if (id % set.shards.len() as u64) as usize == shard {
                                conns.insert(id, Conn::new(id, stream, faults));
                            } else {
                                set.post_conn(id, stream, faults);
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => {
                            // Transient accept errors (EMFILE, aborted
                            // handshakes): back off instead of spinning.
                            accept_backoff = Some(Instant::now() + Duration::from_millis(20));
                            break;
                        }
                    }
                }
            }
        }

        // Adopt connections dispatched by shard 0.
        for (id, stream, faults) in mailbox.incoming.lock().unwrap().drain(..) {
            conns.insert(id, Conn::new(id, stream, faults));
        }

        // Mark per-connection readiness from the poll results.
        for (i, &id) in poll_ids.iter().enumerate() {
            if let Some(conn) = conns.get_mut(&id) {
                conn.readable = pollfds[conn_base + i].readable();
                conn.writable = pollfds[conn_base + i].writable();
            }
        }

        // Drain finished jobs. Worker completions count as served; their
        // trace lines are buffered locally and written once per sweep.
        let drained: Vec<Completion> = std::mem::take(&mut *mailbox.completions.lock().unwrap());
        // One span per sweep that actually moves requests or responses —
        // idle timeouts never record, so a quiet reactor stays silent.
        let any_input = conns
            .values()
            .any(|c| (c.readable && c.wants_read()) || (!c.rbuf.is_empty() && !c.dead));
        let sweep_span = (!drained.is_empty() || any_input).then(|| trace::span("reactor.sweep"));
        if let Some(span) = &sweep_span {
            span.add("completions", drained.len() as u64);
        }
        for c in drained {
            if let Some(line) = c.trace_line {
                trace_buf.push_str(&line);
            }
            if let Some(conn) = conns.get_mut(&c.conn_id) {
                shared.metrics.served.inc();
                complete(&shared, conn, c.seq, c.response);
            }
        }

        // Read + decode + dispatch for every conn with fresh bytes or a
        // backlog that freed up (completions may have lifted a pause).
        let ids: Vec<u64> = conns.keys().copied().collect();
        for id in ids {
            let conn = conns.get_mut(&id).unwrap();
            if conn.readable && conn.wants_read() {
                fill_read(conn, &mut scratch);
            }
            conn.readable = false;
            if !conn.rbuf.is_empty() && !conn.dead {
                process_input(&shared, &queue, conn, &mut jobs, &mut trace_buf);
            }
            if conn.closing && conn.pending.is_empty() {
                if let Some(e) = conn.final_error.take() {
                    conn.push_output(&e);
                }
                if !conn.has_output() {
                    conn.dead = true;
                }
            }
        }

        // One-lock batch admission for everything this sweep decoded; the
        // overflow bounces straight back as Overloaded replies.
        if !jobs.is_empty() {
            let overflow = queue.try_push_batch(jobs.drain(..));
            shared.metrics.queue_depth.set(queue.len() as u64);
            for job in overflow {
                let resp = overload_response(&shared, &queue);
                if let Some(conn) = conns.get_mut(&job.conn_id) {
                    complete(&shared, conn, job.seq, resp);
                }
            }
        }

        // Push buffered responses to the kernel.
        for conn in conns.values_mut() {
            if conn.has_output() {
                flush_writes(&shared, conn);
            }
            conn.writable = false;
        }

        // Ship this sweep's trace lines in one write.
        if !trace_buf.is_empty() {
            if let Some(sink) = &shared.trace {
                sink.append(&trace_buf);
            }
            trace_buf.clear();
        }
        drop(sweep_span);

        reap(&shared, &mut conns);
        conns.retain(|_, c| !c.dead);

        if stopping {
            break;
        }
    }
}

/// Shortest deadline among idle-reap and write-stall clocks, clamped to
/// [1 ms, 500 ms]. Connections waiting on workers have no read deadline:
/// the idle clock only runs between frames.
fn poll_timeout(shared: &Shared, conns: &HashMap<u64, Conn>) -> Duration {
    let mut timeout = Duration::from_millis(500);
    let now = Instant::now();
    let read_to = shared.config.read_timeout_ms;
    let write_to = shared.config.write_timeout_ms;
    for conn in conns.values() {
        if read_to > 0 && conn.pending.is_empty() && !conn.has_output() && !conn.closing {
            let deadline = conn.last_read + Duration::from_millis(read_to);
            timeout = timeout.min(deadline.saturating_duration_since(now));
        }
        if write_to > 0 && conn.has_output() {
            if let Some(since) = conn.write_since {
                let deadline = since + Duration::from_millis(write_to);
                timeout = timeout.min(deadline.saturating_duration_since(now));
            }
        }
    }
    timeout.max(Duration::from_millis(1))
}

/// Closes connections past their deadlines (`read_timeout_ms` idle,
/// `write_timeout_ms` stalled on output): idle peers are *reaped*
/// (counted), stalled writers are dropped silently.
fn reap(shared: &Shared, conns: &mut HashMap<u64, Conn>) {
    let now = Instant::now();
    let read_to = shared.config.read_timeout_ms;
    let write_to = shared.config.write_timeout_ms;
    for conn in conns.values_mut() {
        if conn.dead {
            continue;
        }
        if read_to > 0
            && conn.pending.is_empty()
            && !conn.has_output()
            && !conn.closing
            && now.duration_since(conn.last_read) >= Duration::from_millis(read_to)
        {
            shared.metrics.reaped.inc();
            conn.dead = true;
        }
        if write_to > 0 && conn.has_output() {
            if let Some(since) = conn.write_since {
                if now.duration_since(since) >= Duration::from_millis(write_to) {
                    conn.dead = true;
                }
            }
        }
    }
}

/// Pulls every available byte (up to the pause threshold) off the socket.
fn fill_read(conn: &mut Conn, scratch: &mut [u8]) {
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                // EOF: no more requests, but in-flight work still answers.
                conn.closing = true;
                return;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&scratch[..n]);
                conn.last_read = Instant::now();
                if conn.rbuf.len() >= conn.read_cap() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                // Hard error (reset, injected disconnect): nothing more
                // can be delivered to this peer.
                conn.dead = true;
                return;
            }
        }
    }
}

/// Decodes and dispatches every complete frame buffered on `conn`.
fn process_input(
    shared: &Shared,
    queue: &Arc<BoundedQueue<Job>>,
    conn: &mut Conn,
    jobs: &mut Vec<Job>,
    trace_buf: &mut String,
) {
    let mut consumed = 0usize;
    conn.frame_incomplete = false;
    while conn.pending.len() < MAX_INFLIGHT && conn.wbuf.len() - conn.wpos < WBUF_PAUSE {
        match parse_frame_prefix(&conn.rbuf[consumed..]) {
            Ok(None) => {
                // The remaining bytes are a frame prefix; keep reading
                // past the fairness pause until it completes.
                conn.frame_incomplete = consumed < conn.rbuf.len();
                break;
            }
            Ok(Some((frame, used))) => {
                consumed += used;
                handle_frame(shared, queue, conn, frame, jobs, trace_buf);
                if conn.closing || conn.dead {
                    break;
                }
            }
            Err(msg) => {
                // Unrecoverable framing: answer with a protocol error once
                // in-flight requests drain, then close. (A v4-ordered
                // error released early would desequence earlier replies.)
                let resp = Response::Error {
                    code: ErrorCode::Protocol,
                    message: format!("protocol error: {msg}"),
                    retry_after_ms: 0,
                };
                shared.account(&resp);
                conn.final_error = Some(resp.encode(crate::protocol::V4, 0));
                conn.closing = true;
                break;
            }
        }
    }
    if consumed > 0 {
        conn.rbuf.drain(..consumed);
    }
}

/// Routes one decoded frame: admin inline, warm hits inline (fast path),
/// everything else into the job batch.
fn handle_frame(
    shared: &Shared,
    queue: &Arc<BoundedQueue<Job>>,
    conn: &mut Conn,
    frame: Frame,
    jobs: &mut Vec<Job>,
    trace_buf: &mut String,
) {
    let decode_start = trace::now_ns();
    let seq = conn.next_seq;
    conn.next_seq += 1;
    let version = frame.version;
    let req_id = frame.req_id;
    let request = match Request::decode(&frame) {
        Ok(r) => r,
        Err(e) => {
            // Malformed payload in a well-framed request: the framing is
            // intact, so reply in sequence and keep the connection.
            conn.pending.insert(
                seq,
                PendingReq {
                    version,
                    req_id,
                    decode_start,
                    observe_latency: false,
                    op: None,
                },
            );
            if version < V5 {
                conn.order.push_back(seq);
            }
            let resp = Response::Error {
                code: ErrorCode::Protocol,
                message: format!("protocol error: {e}"),
                retry_after_ms: 0,
            };
            complete(shared, conn, seq, resp);
            return;
        }
    };
    let decode_ns = trace::now_ns().saturating_sub(decode_start);
    shared.metrics.op_counter(&request).inc();
    conn.pending.insert(
        seq,
        PendingReq {
            version,
            req_id,
            decode_start,
            observe_latency: true,
            op: Some(op_index(&request)),
        },
    );
    if version < V5 {
        conn.order.push_back(seq);
    }

    if let Some(response) = handle_admin(shared, queue, &request) {
        complete(shared, conn, seq, response);
        return;
    }

    // Counting work. Job faults are drawn here, at decode, in request
    // order per connection, so a seeded profile replays exactly. A
    // drawn fault forces the worker route so panics and cap trips fire
    // even when the answer is warm.
    let faults = conn
        .faults
        .as_ref()
        .filter(|_| counting_op(&request))
        .map_or_else(JobFaults::default, |c| c.job_faults());
    if faults == JobFaults::default() {
        if let Some((response, line)) = try_fast_path(shared, &request) {
            shared.metrics.fast_path_hits.inc();
            shared.metrics.served.inc();
            if let Some(line) = line {
                trace_buf.push_str(&line);
            }
            complete(shared, conn, seq, response);
            return;
        }
    }
    jobs.push(Job {
        request,
        conn_id: conn.id,
        seq,
        faults,
        submitted_ns: trace::now_ns(),
        decode_ns,
    });
}

/// Books a finished response: error/degraded accounting, the latency
/// histogram, encoding, and v4 in-order release vs v5 completion-order
/// release.
fn complete(shared: &Shared, conn: &mut Conn, seq: u64, response: Response) {
    let Some(p) = conn.pending.remove(&seq) else {
        return;
    };
    shared.account(&response);
    if p.observe_latency {
        let us = trace::now_ns().saturating_sub(p.decode_start) / 1_000;
        shared.metrics.latency_us.observe(us);
        if let Some(op) = p.op {
            shared.metrics.op_latency(op).observe(us);
        }
    }
    let bytes = response.encode(p.version, p.req_id);
    if p.version >= V5 {
        conn.push_output(&bytes);
    } else {
        conn.ready.insert(seq, bytes);
        while let Some(front) = conn.order.front().copied() {
            match conn.ready.remove(&front) {
                Some(b) => {
                    conn.order.pop_front();
                    conn.push_output(&b);
                }
                None => break,
            }
        }
    }
}

/// Writes as much buffered output as the kernel will take.
fn flush_writes(shared: &Shared, conn: &mut Conn) {
    let start = trace::now_ns();
    let mut progressed = false;
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.wpos += n;
                progressed = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.wpos >= conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
        conn.write_since = None;
        if conn.closing && conn.pending.is_empty() && conn.final_error.is_none() {
            conn.dead = true;
        }
    } else if progressed {
        conn.write_since = Some(Instant::now());
    }
    if progressed {
        shared
            .metrics
            .reply_write_us
            .observe(trace::now_ns().saturating_sub(start) / 1_000);
    }
}
