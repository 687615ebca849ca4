//! `cqcount-cli` — command-line client for `cqcountd`.
//!
//! ```text
//! cqcount-cli --server ADDR count     --db NAME <QUERY> [--budget-ms MS]
//!                                       [--pipeline N] [--verbose]
//! cqcount-cli --server ADDR profile   --db NAME <QUERY> [--budget-ms MS] [--verbose]
//! cqcount-cli --server ADDR enumerate --db NAME <QUERY> [--limit N]
//! cqcount-cli --server ADDR report    <QUERY> [--cap K]
//! cqcount-cli --server ADDR stats
//! cqcount-cli --server ADDR metrics
//! cqcount-cli --server ADDR reload    --db NAME <FACTS-FILE>
//! cqcount-cli --server ADDR insert    --db NAME REL VALUE...
//! cqcount-cli --server ADDR delete    --db NAME REL VALUE...
//! cqcount-cli --server ADDR sync      --db NAME
//! cqcount-cli --server ADDR history   [--since SEQ] [--limit N] [--verbose]
//! cqcount-cli --server ADDR flight    [--limit N] [--verbose]
//! cqcount-cli --server ADDR flush
//! ```
//!
//! `history` and `flight` are the protocol-v8 forensics commands.
//! `history` prints the server's metrics-history ring (one line per
//! sample: throughput and tail-latency movement bracket themselves;
//! `--verbose` dumps every sampled series). `flight` prints the flight
//! recorder's retained traces — each slow/errored/degraded request's
//! full span tree, rendered like `profile` — and its incidents
//! (watchdog stalls). Neither needs anything pre-arranged: retention is
//! the server's own verdict, after the fact.
//!
//! `profile` runs the count under tracing and renders the span tree with
//! per-stage durations and percentages of the end-to-end request time
//! (`--verbose` adds each span's counters); `metrics` dumps the server's
//! registry in Prometheus text format.
//!
//! `<QUERY>` is either a datalog rule (`ans(X) :- r(X, Y).`) or `@FILE`
//! to read the rule from a file. `count` prints the count on stdout;
//! `--verbose` adds the plan and cache tier on stderr.
//!
//! `--timeout <ms>` bounds every connect/read/write (default 30000, so a
//! dead daemon can no longer hang the CLI); `--retries <n>` retries the
//! idempotent commands (count, report, stats) with exponential backoff.
//!
//! `insert`/`delete` edit a loaded database in place (protocol v6) and
//! print `changed N seq M`: `N` is 1 when the tuple was actually added or
//! removed (0 for a duplicate insert or absent delete), `M` the
//! database's mutation sequence afterwards. These commands are **not
//! idempotent to retry blindly** — `--retries` deliberately does not
//! apply to them; if a reply is lost, compare the `seq`/`durable` numbers
//! from `stats` (or `sync`) against your last receipt before
//! resubmitting — see the README's lost-reply procedure.
//!
//! `count --pipeline N` switches to the protocol-v5 pipelined client: N
//! copies of the count are written back-to-back on one connection before
//! any response is read, responses are matched by request id, and the
//! measured request rate is printed on stderr. Handy for demonstrating
//! the server's warm-hit fast path without a bench harness.

use cqcount_server::{Client, ClientOptions, PipelinedClient, Request, Response, SpanNode};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  cqcount-cli --server ADDR [--timeout MS] [--retries N] <command>
  cqcount-cli --server ADDR count     --db NAME <QUERY> [--budget-ms MS]
                                      [--pipeline N] [--verbose]
  cqcount-cli --server ADDR profile   --db NAME <QUERY> [--budget-ms MS] [--verbose]
  cqcount-cli --server ADDR enumerate --db NAME <QUERY> [--limit N]
  cqcount-cli --server ADDR report    <QUERY> [--cap K]
  cqcount-cli --server ADDR stats
  cqcount-cli --server ADDR metrics
  cqcount-cli --server ADDR reload    --db NAME <FACTS-FILE>
  cqcount-cli --server ADDR insert    --db NAME REL VALUE...   (never retried)
  cqcount-cli --server ADDR delete    --db NAME REL VALUE...   (never retried)
  cqcount-cli --server ADDR sync      --db NAME
  cqcount-cli --server ADDR history   [--since SEQ] [--limit N] [--verbose]
  cqcount-cli --server ADDR flight    [--limit N] [--verbose]
  cqcount-cli --server ADDR flush";

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

struct Opts {
    server: String,
    command: String,
    db: String,
    positional: Vec<String>,
    budget_ms: u64,
    limit: u64,
    cap: u64,
    since: u64,
    timeout_ms: u64,
    retries: u32,
    pipeline: u64,
    verbose: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        server: String::new(),
        command: String::new(),
        db: String::new(),
        positional: Vec::new(),
        budget_ms: 0,
        limit: 20,
        cap: 0,
        since: 0,
        timeout_ms: 30_000,
        retries: 0,
        pipeline: 0,
        verbose: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--server" => opts.server = it.next().ok_or("--server needs a value")?.clone(),
            "--db" => opts.db = it.next().ok_or("--db needs a value")?.clone(),
            "--budget-ms" => {
                opts.budget_ms = it
                    .next()
                    .ok_or("--budget-ms needs a value")?
                    .parse()
                    .map_err(|_| "--budget-ms must be a number")?;
            }
            "--limit" => {
                opts.limit = it
                    .next()
                    .ok_or("--limit needs a value")?
                    .parse()
                    .map_err(|_| "--limit must be a number")?;
            }
            "--cap" => {
                opts.cap = it
                    .next()
                    .ok_or("--cap needs a value")?
                    .parse()
                    .map_err(|_| "--cap must be a number")?;
            }
            "--since" => {
                opts.since = it
                    .next()
                    .ok_or("--since needs a value")?
                    .parse()
                    .map_err(|_| "--since must be a sample sequence number")?;
            }
            "--timeout" => {
                opts.timeout_ms = it
                    .next()
                    .ok_or("--timeout needs a value")?
                    .parse()
                    .map_err(|_| "--timeout must be a number of milliseconds")?;
            }
            "--retries" => {
                opts.retries = it
                    .next()
                    .ok_or("--retries needs a value")?
                    .parse()
                    .map_err(|_| "--retries must be a number")?;
            }
            "--pipeline" => {
                opts.pipeline = it
                    .next()
                    .ok_or("--pipeline needs a value")?
                    .parse()
                    .map_err(|_| "--pipeline must be a number of requests")?;
            }
            "--verbose" => opts.verbose = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            word => {
                if opts.command.is_empty() {
                    opts.command = word.to_owned();
                } else {
                    opts.positional.push(word.to_owned());
                }
            }
        }
    }
    if opts.server.is_empty() {
        return Err("missing --server ADDR".into());
    }
    if opts.command.is_empty() {
        return Err("missing command".into());
    }
    Ok(opts)
}

/// Resolves a `<QUERY>` argument: `@FILE` reads the file, anything else is
/// the rule text itself.
fn query_arg(opts: &Opts) -> Result<String, String> {
    let raw = opts
        .positional
        .first()
        .ok_or("missing query argument")?
        .clone();
    if let Some(path) = raw.strip_prefix('@') {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    } else {
        Ok(raw)
    }
}

/// `1_234_567` ns → `"1.235 ms"`; sub-microsecond spans print in ns.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// `1_234_567` bytes → `"1.2 MiB"`; small values print raw.
fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Prints one span line (`name  duration  percent-of-request`) and recurses
/// over the children with box-drawing connectors.
fn render_span(
    node: &SpanNode,
    total_ns: u64,
    prefix: &str,
    last: bool,
    root: bool,
    verbose: bool,
) {
    let connector = if root {
        ""
    } else if last {
        "└─ "
    } else {
        "├─ "
    };
    let label = format!("{prefix}{connector}{}", node.name);
    let pct = 100.0 * node.duration_ns as f64 / total_ns as f64;
    println!("{label:<42} {:>12}  {pct:>5.1}%", fmt_ns(node.duration_ns));
    if verbose && !(node.counters.is_empty() && node.tags.is_empty()) {
        let child_prefix = if root {
            String::new()
        } else {
            format!("{prefix}{}", if last { "   " } else { "│  " })
        };
        let fields: Vec<String> = node
            .tags
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .chain(node.counters.iter().map(|(k, v)| format!("{k}={v}")))
            .collect();
        println!("{child_prefix}     [{}]", fields.join(", "));
    }
    let child_prefix = if root {
        String::new()
    } else {
        format!("{prefix}{}", if last { "   " } else { "│  " })
    };
    for (i, c) in node.children.iter().enumerate() {
        render_span(
            c,
            total_ns,
            &child_prefix,
            i + 1 == node.children.len(),
            false,
            verbose,
        );
    }
}

/// `count --pipeline N`: submits N identical counts on one protocol-v5
/// connection before reading anything, then drains the responses (matched
/// by request id — completion order is the server's choice), checks they
/// all agree, and reports the achieved request rate on stderr.
fn pipelined_count(opts: &Opts, query: &str) -> Result<(), String> {
    let mut pc = PipelinedClient::connect_with(
        &opts.server,
        ClientOptions {
            connect_timeout_ms: opts.timeout_ms,
            io_timeout_ms: opts.timeout_ms,
            ..ClientOptions::default()
        },
    )
    .map_err(|e| format!("cannot connect to {}: {e}", opts.server))?;
    let req = Request::Count {
        db: opts.db.clone(),
        query: query.to_owned(),
        budget_ms: opts.budget_ms,
    };
    let start = Instant::now();
    let mut expected: Vec<u64> = Vec::with_capacity(opts.pipeline as usize);
    for _ in 0..opts.pipeline {
        expected.push(pc.submit(&req).map_err(|e| e.to_string())?);
    }
    pc.flush().map_err(|e| e.to_string())?;
    expected.sort_unstable();
    let mut seen: Vec<u64> = Vec::with_capacity(expected.len());
    let mut value: Option<String> = None;
    for _ in 0..opts.pipeline {
        let (id, resp) = pc.recv().map_err(|e| e.to_string())?;
        seen.push(id);
        match resp {
            Response::Count { value: v, .. } => match &value {
                None => value = Some(v),
                Some(prev) if *prev == v => {}
                Some(prev) => {
                    return Err(format!(
                        "request {id} answered {v}, but an earlier one answered {prev}"
                    ))
                }
            },
            Response::Error { code, message, .. } => {
                return Err(format!("request {id} failed: {code:?}: {message}"))
            }
            other => return Err(format!("unexpected response for request {id}: {other:?}")),
        }
    }
    let elapsed = start.elapsed();
    seen.sort_unstable();
    if seen != expected {
        return Err("response ids do not match the submitted requests".into());
    }
    let rate = opts.pipeline as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "pipelined {} requests in {:.1} ms ({rate:.0} req/s)",
        opts.pipeline,
        elapsed.as_secs_f64() * 1e3,
    );
    println!(
        "{}",
        value.expect("pipeline > 0 implies at least one response")
    );
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let mut client = Client::connect_with(
        &opts.server,
        ClientOptions {
            connect_timeout_ms: opts.timeout_ms,
            io_timeout_ms: opts.timeout_ms,
            retries: opts.retries,
            ..ClientOptions::default()
        },
    )
    .map_err(|e| format!("cannot connect to {}: {e}", opts.server))?;
    match opts.command.as_str() {
        "count" => {
            if opts.db.is_empty() {
                return Err("count needs --db NAME".into());
            }
            let query = query_arg(&opts)?;
            if opts.pipeline > 0 {
                return pipelined_count(&opts, &query);
            }
            let reply = client
                .count(&opts.db, &query, opts.budget_ms)
                .map_err(|e| e.to_string())?;
            if opts.verbose {
                eprintln!(
                    "plan: {} (cache: {:?}, degraded: {}, fingerprint: {:016x})",
                    reply.plan, reply.cached, reply.degraded, reply.fingerprint
                );
            }
            println!("{}", reply.value);
            Ok(())
        }
        "profile" => {
            if opts.db.is_empty() {
                return Err("profile needs --db NAME".into());
            }
            let query = query_arg(&opts)?;
            let r = client
                .profile(&opts.db, &query, opts.budget_ms)
                .map_err(|e| e.to_string())?;
            println!("count: {}", r.value);
            println!(
                "plan:  {} (cache: {:?}, degraded: {}, fingerprint: {:016x})",
                r.plan, r.cached, r.degraded, r.fingerprint
            );
            println!(
                "total: {} (tracer drops: {})",
                fmt_ns(r.total_ns),
                r.dropped
            );
            println!();
            let total = r.total_ns.max(1);
            render_span(&r.root, total, "", true, true, opts.verbose);
            let direct: u64 = r.root.children.iter().map(|c| c.duration_ns).sum();
            println!();
            println!(
                "stage coverage: {:.1}% of the request is accounted for by top-level stages",
                100.0 * direct as f64 / total as f64
            );
            Ok(())
        }
        "metrics" => {
            let text = client.metrics().map_err(|e| e.to_string())?;
            print!("{text}");
            Ok(())
        }
        "enumerate" => {
            if opts.db.is_empty() {
                return Err("enumerate needs --db NAME".into());
            }
            let query = query_arg(&opts)?;
            let (rows, truncated) = client
                .enumerate(&opts.db, &query, opts.limit, opts.budget_ms)
                .map_err(|e| e.to_string())?;
            for row in rows {
                println!("{}", row.join("\t"));
            }
            if truncated {
                eprintln!("(truncated at {} rows)", opts.limit);
            }
            Ok(())
        }
        "report" => {
            let query = query_arg(&opts)?;
            let r = client
                .width_report(&query, opts.cap)
                .map_err(|e| e.to_string())?;
            let fmt = |w: Option<u64>| w.map_or(format!("> {}", r.cap), |v| v.to_string());
            println!("α-acyclic:            {}", r.acyclic);
            println!("ghw:                  {}", fmt(r.ghw));
            println!("#-hypertree width:    {}", fmt(r.sharp_width));
            println!("quantified star size: {}", r.star_size);
            println!(
                "atoms / vars / free:  {} / {} / {}",
                r.atoms, r.vars, r.free
            );
            Ok(())
        }
        "stats" => {
            let s = client.stats().map_err(|e| e.to_string())?;
            println!("served:       {}", s.served);
            println!("overloaded:   {}", s.overloaded);
            println!(
                "plan cache:   {} hits / {} misses",
                s.plan_hits, s.plan_misses
            );
            println!(
                "count cache:  {} hits / {} misses",
                s.count_hits, s.count_misses
            );
            println!("malformed:    {}", s.malformed);
            println!("budget trips: {}", s.budget_exceeded);
            println!("panicked:     {}", s.panicked);
            println!("reaped conns: {}", s.reaped);
            println!("degraded:     {}", s.degraded);
            println!("faults:       {}", s.faults_injected);
            println!(
                "planner:      {} blocks solved, {} memo hits",
                s.planner_blocks_solved, s.planner_memo_hits
            );
            println!(
                "              {} candidates, {} widths searched",
                s.planner_candidates, s.planner_widths_searched
            );
            println!(
                "mutations:    {} applied, {} delta bags touched, {} delta fallbacks",
                s.mutations_applied, s.delta_bags_touched, s.delta_fallbacks
            );
            println!(
                "forensics:    {} traces retained, {} watchdog stalls ({} shards / {} workers stalled now)",
                s.recorder_retained, s.watchdog_stalls, s.stalled_shards, s.stalled_workers
            );
            for d in &s.dbs {
                let durability = if d.persisted {
                    format!(
                        ", seq {}, durable {}{}{}",
                        d.mutation_seq,
                        d.durable_seq,
                        if d.read_only { " [read-only]" } else { "" },
                        if d.recovered_records > 0 {
                            format!(" (recovered {} records)", d.recovered_records)
                        } else {
                            String::new()
                        },
                    )
                } else {
                    format!(", seq {} (not persisted)", d.mutation_seq)
                };
                println!(
                    "db {}: epoch {}, fingerprint {:016x}, {} tuples{durability}",
                    d.name, d.epoch, d.fingerprint, d.tuples
                );
                println!(
                    "    memory: {} resident, {} mmap-served",
                    fmt_bytes(d.resident_bytes),
                    fmt_bytes(d.mapped_bytes)
                );
            }
            Ok(())
        }
        "reload" => {
            if opts.db.is_empty() {
                return Err("reload needs --db NAME".into());
            }
            let file = opts.positional.first().ok_or("missing facts file")?;
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let epoch = client.reload(&opts.db, &text).map_err(|e| e.to_string())?;
            println!("epoch {epoch}");
            Ok(())
        }
        // Mutations go through Client::insert/delete, which never retry:
        // a lost reply makes a blind resubmit report changed=0, and the
        // caller cannot tell that from a genuine duplicate.
        "insert" | "delete" => {
            if opts.db.is_empty() {
                return Err(format!("{} needs --db NAME", opts.command));
            }
            let rel = opts
                .positional
                .first()
                .ok_or("missing relation name")?
                .as_str();
            let values: Vec<&str> = opts.positional[1..].iter().map(String::as_str).collect();
            let receipt = if opts.command == "insert" {
                client.insert(&opts.db, rel, &values)
            } else {
                client.delete(&opts.db, rel, &values)
            }
            .map_err(|e| e.to_string())?;
            println!("changed {} seq {}", receipt.changed, receipt.mutation_seq);
            Ok(())
        }
        // Idempotent (syncing twice is just slower), so --retries applies.
        "sync" => {
            if opts.db.is_empty() {
                return Err("sync needs --db NAME".into());
            }
            let receipt = client.sync(&opts.db).map_err(|e| e.to_string())?;
            println!(
                "epoch {} seq {} durable {}",
                receipt.epoch, receipt.mutation_seq, receipt.durable_seq
            );
            if receipt.durable_seq == 0 && receipt.mutation_seq > 0 {
                eprintln!("warning: server runs without --data-dir; nothing is durable");
            }
            Ok(())
        }
        // Idempotent reads, so --retries applies to both.
        "history" => {
            let h = client
                .history(opts.since, opts.limit)
                .map_err(|e| e.to_string())?;
            println!(
                "{} samples (interval {} ms, next seq {})",
                h.samples.len(),
                h.interval_ms,
                h.next_seq
            );
            for s in &h.samples {
                // The headline series an operator scans for a dip first;
                // --verbose dumps everything.
                let find = |name: &str| {
                    s.entries
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, v)| v.to_string())
                        .unwrap_or_else(|| "-".into())
                };
                println!(
                    "seq {:>5}  t=+{:>8} ms  served {:>8}  p99 {:>7} µs  retained {}",
                    s.seq,
                    s.uptime_ms,
                    find("cqcount_requests_served_total"),
                    find("cqcount_request_latency_us_p99"),
                    find("cqcount_recorder_retained_total"),
                );
                if opts.verbose {
                    for (name, value) in &s.entries {
                        println!("    {name} {value}");
                    }
                }
            }
            Ok(())
        }
        "flight" => {
            let f = client.flight(opts.limit).map_err(|e| e.to_string())?;
            println!(
                "{} retained traces, {} incidents",
                f.traces.len(),
                f.incidents.len()
            );
            for t in &f.traces {
                println!();
                println!(
                    "#{} {} [{}] {} µs (threshold {} µs) @{}",
                    t.seq, t.op, t.reason, t.latency_us, t.threshold_us, t.unix_ms
                );
                let total = t.root.duration_ns.max(1);
                render_span(&t.root, total, "", true, true, opts.verbose);
            }
            if !f.incidents.is_empty() {
                println!();
                for i in &f.incidents {
                    println!(
                        "incident #{} [{}] {} @{}",
                        i.seq, i.kind, i.detail, i.unix_ms
                    );
                }
            }
            Ok(())
        }
        "flush" => {
            client.flush().map_err(|e| e.to_string())?;
            println!("flushed");
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}
