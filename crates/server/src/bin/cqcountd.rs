//! `cqcountd` — the counting query daemon.
//!
//! ```text
//! cqcountd [--listen ADDR] [--db NAME=FILE]... [--workers N]
//!          [--reactors N] [--queue-cap N] [--budget-ms MS]
//!          [--max-enumerate N] [--width-cap K] [--read-timeout-ms MS]
//!          [--write-timeout-ms MS] [--fault-profile NAME] [--fault-seed N]
//!          [--trace-log FILE] [--materialize-cap N]
//! ```
//!
//! Each `--db NAME=FILE` loads a datalog fact file (same format as the
//! `cqcount` CLI accepts, facts only) under a name clients address in
//! their requests. The daemon prints `listening on ADDR` once ready and
//! serves until killed.
//!
//! `--fault-profile` (off, flaky-net, slow-net, chaos) turns on seeded
//! fault injection for chaos testing; `--fault-seed` (or the
//! `CQCOUNT_FAULT_SEED` environment variable) fixes the seed so a chaos
//! run can be replayed exactly.
//!
//! `--trace-log FILE` traces every counting request and appends its span
//! tree to FILE as one JSON line (JSONL). Combined with `--fault-profile`
//! and a fixed seed, two runs of the same workload produce structurally
//! identical logs.
//!
//! `--materialize-cap N` bounds how many cached counts hold a built
//! incremental-maintenance state across `INSERT`/`DELETE` (default 32;
//! `0` disables materialization, mutations then invalidate only). A
//! count's cache entry carries its query; the first mutation that
//! touches the query builds the maintained state, and that mutation's
//! reply pays for the build. The state is evicted with its count.
//!
//! `--data-dir DIR` makes mutations durable: every effective batch is
//! appended to a per-database write-ahead log before it is acknowledged,
//! snapshots bound replay, and a restart recovers the newest valid
//! snapshot plus the WAL tail (torn tails are truncated cleanly).
//! `--durability always|batch|off` picks the fsync policy (default
//! `batch`); `--snapshot-every N` snapshots and truncates the log after N
//! logged batches (default 4096, `0` disables the threshold).
//!
//! Crash testing: `--fault-profile crash` arms a seeded kill-point that
//! aborts the process mid-durability (replayable via `--fault-seed`);
//! `--crash-at POINT:N` (pre-append, pre-fsync, post-fsync, mid-snapshot)
//! pins the point explicitly. `--wal-fail-after N` injects WAL write
//! errors after N appends, degrading the database to read-only;
//! `--wal-fsync-stall N:MS` makes the Nth WAL fsync sleep MS milliseconds
//! (a deterministic slow-disk stand-in for forensics testing).
//!
//! Forensics (protocol v8): the flight recorder is on by default
//! (`--recorder-cap N` sizes its trace ring, `0` disables;
//! `--recorder-threshold-us US` floors the self-calibrating slow-request
//! threshold). `--history-interval-ms MS` / `--history-cap N` tune the
//! metrics-history sampler (`0` interval disables);
//! `--watchdog-stall-ms MS` tunes the stall watchdog (`0` disables).

use cqcount_query::parse_database;
use cqcount_relational::Database;
use cqcount_server::{serve, CrashPlan, DurabilityPolicy, FaultProfile, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage:
  cqcountd [--listen ADDR] [--db NAME=FILE]... [--workers N] [--reactors N]
           [--queue-cap N] [--budget-ms MS] [--max-enumerate N] [--width-cap K]
           [--read-timeout-ms MS] [--write-timeout-ms MS]
           [--fault-profile off|flaky-net|slow-net|chaos|crash] [--fault-seed N]
           [--trace-log FILE] [--materialize-cap N]
           [--data-dir DIR] [--durability always|batch|off]
           [--snapshot-every N] [--crash-at POINT:N] [--wal-fail-after N]
           [--wal-fsync-stall N:MS] [--recorder-cap N]
           [--recorder-threshold-us US] [--history-interval-ms MS]
           [--history-cap N] [--watchdog-stall-ms MS]";

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

fn parse_num(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<u64, String> {
    it.next()
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag} must be a number"))
}

fn run(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".into(),
        ..ServerConfig::default()
    };
    // Environment fallback; --fault-seed wins when both are given.
    if let Ok(seed) = std::env::var("CQCOUNT_FAULT_SEED") {
        config.fault_seed = seed
            .parse()
            .map_err(|_| format!("CQCOUNT_FAULT_SEED must be a number, got {seed:?}"))?;
    }
    let mut dbs: Vec<(String, Database)> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            "--listen" => {
                config.addr = it.next().ok_or("--listen needs a value")?.clone();
            }
            "--db" => {
                let spec = it.next().ok_or("--db needs NAME=FILE")?;
                let (name, file) = spec
                    .split_once('=')
                    .ok_or(format!("--db expects NAME=FILE, got {spec:?}"))?;
                let src = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read {file}: {e}"))?;
                let db = parse_database(&src).map_err(|e| format!("{file}: {e}"))?;
                dbs.push((name.to_owned(), db));
            }
            "--workers" => config.workers = parse_num(&mut it, "--workers")?.max(1) as usize,
            "--reactors" => config.reactors = parse_num(&mut it, "--reactors")? as usize,
            "--queue-cap" => config.queue_cap = parse_num(&mut it, "--queue-cap")?.max(1) as usize,
            "--budget-ms" => config.default_budget_ms = parse_num(&mut it, "--budget-ms")?,
            "--max-enumerate" => {
                config.max_enumerate = parse_num(&mut it, "--max-enumerate")? as usize
            }
            "--width-cap" => config.width_cap = parse_num(&mut it, "--width-cap")?.max(1) as usize,
            "--read-timeout-ms" => {
                config.read_timeout_ms = parse_num(&mut it, "--read-timeout-ms")?
            }
            "--write-timeout-ms" => {
                config.write_timeout_ms = parse_num(&mut it, "--write-timeout-ms")?
            }
            "--fault-profile" => {
                let name = it.next().ok_or("--fault-profile needs a value")?;
                config.fault_profile = FaultProfile::parse(name)?;
            }
            "--fault-seed" => config.fault_seed = parse_num(&mut it, "--fault-seed")?,
            "--materialize-cap" => {
                config.materialize_cap = parse_num(&mut it, "--materialize-cap")? as usize
            }
            "--trace-log" => {
                config.trace_log = Some(it.next().ok_or("--trace-log needs a FILE")?.into());
            }
            "--data-dir" => {
                config.data_dir = Some(it.next().ok_or("--data-dir needs a DIR")?.into());
            }
            "--durability" => {
                let name = it.next().ok_or("--durability needs a value")?;
                config.durability = DurabilityPolicy::parse(name)?;
            }
            "--snapshot-every" => config.snapshot_every = parse_num(&mut it, "--snapshot-every")?,
            "--crash-at" => {
                let spec = it.next().ok_or("--crash-at needs POINT:N")?;
                config.crash_plan = Some(Arc::new(CrashPlan::parse(spec)?));
            }
            "--wal-fail-after" => {
                config.wal_fail_after = Some(parse_num(&mut it, "--wal-fail-after")?);
            }
            "--wal-fsync-stall" => {
                let spec = it.next().ok_or("--wal-fsync-stall needs N:MS")?;
                let (n, ms) = spec
                    .split_once(':')
                    .ok_or(format!("--wal-fsync-stall expects N:MS, got {spec:?}"))?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| "--wal-fsync-stall N must be a number".to_owned())?;
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| "--wal-fsync-stall MS must be a number".to_owned())?;
                config.wal_fsync_stall = Some((n, ms));
            }
            "--recorder-cap" => {
                config.recorder_cap = parse_num(&mut it, "--recorder-cap")? as usize
            }
            "--recorder-threshold-us" => {
                config.recorder_threshold_us = parse_num(&mut it, "--recorder-threshold-us")?
            }
            "--history-interval-ms" => {
                config.history_interval_ms = parse_num(&mut it, "--history-interval-ms")?
            }
            "--history-cap" => config.history_cap = parse_num(&mut it, "--history-cap")? as usize,
            "--watchdog-stall-ms" => {
                config.watchdog_stall_ms = parse_num(&mut it, "--watchdog-stall-ms")?
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if config.fault_profile.label == "crash" && config.crash_plan.is_none() {
        // Derive a replayable kill-point from the fault seed (an explicit
        // --crash-at wins).
        config.crash_plan = Some(Arc::new(CrashPlan::from_seed(config.fault_seed)));
    }
    if let Some(plan) = &config.crash_plan {
        eprintln!(
            "crash injection armed: kill-point {}#{}",
            plan.point().name(),
            plan.at()
        );
    }
    if config.fault_profile.is_active() {
        eprintln!(
            "fault injection active: profile {} seed {}",
            config.fault_profile.label, config.fault_seed
        );
    }
    let handle = serve(config, dbs).map_err(|e| format!("cannot bind: {e}"))?;
    println!("listening on {}", handle.local_addr());
    // Serve forever; the process is stopped by a signal.
    loop {
        std::thread::park();
    }
}
