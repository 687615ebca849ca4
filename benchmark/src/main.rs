//! Command line of the benchmark. One workload per process:
//!
//! ```text
//! cqcount-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! and three conveniences built on that: `all` and `trace` run every
//! workload in a child process each and merge the results, `compare` sets
//! two result files side by side. See `README.md`.

use cqcount_benchmark::json::Json;
use cqcount_benchmark::report::{self, Record};
use cqcount_benchmark::run::{self, PROGRESS};
use cqcount_benchmark::{compare, trace, workload};
use std::io::{BufRead as _, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  cqcount-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
  cqcount-benchmark all   [--seed N] [--seconds S] [--repeat K] [--smoke]
  cqcount-benchmark trace [--seed N] [--seconds S] [--repeat K] [--smoke]
  cqcount-benchmark compare A.json B.json
workloads: warm_hit plan_cold count_acyclic count_cyclic mutate_recount";

/// Seconds the phases of fixed size may take on top of `--seconds` (set-up
/// repeats, ramp, the pass that overshoots the deadline, restarts of the
/// traced run) at nominal speed.
const NOMINAL_OVERHEAD_S: f64 = 15.0;

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: report::DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => flags.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                flags.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(flags.seconds > 0.0 && flags.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                flags.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if flags.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => flags.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if flags.smoke && flags.seconds == report::DEFAULT_SECONDS {
        flags.seconds = 0.5;
    }
    Ok(flags)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The wall deadline of one workload: four times its nominal duration.
fn deadline_s(seconds: f64) -> f64 {
    4.0 * (seconds + NOMINAL_OVERHEAD_S)
}

/// Exits the process non-zero when the workload outlives its deadline, so
/// a deadlocked pool or a hung socket costs a red run and never a stuck
/// one. Outstanding ops are reported as failed.
fn spawn_watchdog(name: &'static str, limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        let phase = PROGRESS.phase.lock().map(|p| *p).unwrap_or("unknown");
        eprintln!(
            "{name}: DEADLINE of {:.0} s expired in phase {phase}: {} ops attempted, {} failed, \
             ops still outstanding count as failed",
            limit.as_secs_f64(),
            PROGRESS.attempted.load(Ordering::Relaxed),
            PROGRESS.failed.load(Ordering::Relaxed),
        );
        std::process::exit(3);
    });
}

/// Runs one workload in this process and prints its result line.
fn one(flags: &Flags) -> ExitCode {
    let name = flags.workload.as_deref().expect("checked by the caller");
    let Some(spec) = workload::find(name) else {
        eprintln!("unknown workload {name:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    spawn_watchdog(
        spec.name,
        Duration::from_secs_f64(deadline_s(flags.seconds)),
    );
    let scale = if flags.smoke { run::SMOKE } else { run::FULL };
    let mode = if flags.trace { "trace" } else { "run" };
    let data = out_dir().join(format!("{}-{mode}", spec.name));
    let started = Instant::now();
    let outcome = if flags.trace {
        trace::trace(spec, flags.seed, scale, &data, &out_dir())
    } else {
        run::run(spec, flags.seed, flags.seconds, scale, &data)
    };
    // The data dir holds the served database; the numbers are what stays.
    let _ = std::fs::remove_dir_all(&data);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: FAILED: {e}", spec.name);
            return ExitCode::from(1);
        }
    };
    let correct = outcome.failed == 0;
    println!(
        "{} seed {} {mode}: {} ops attempted, {} failed, {:.1} s",
        spec.name,
        flags.seed,
        outcome.attempted,
        outcome.failed,
        started.elapsed().as_secs_f64()
    );
    for m in &outcome.metrics {
        println!("{}", report::metric_line(m));
    }
    let record = Record {
        workload: spec.name,
        correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome.metrics,
    };
    let detail = out_dir().join(format!("{}-{mode}.json", spec.name));
    if let Err(e) = std::fs::write(&detail, record.detail().render_pretty()) {
        eprintln!("{}: {e}", detail.display());
        return ExitCode::from(1);
    }
    println!("{}", record.result_line().render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one workload in a child process of this binary; its stdout is
/// echoed, and the detail file it leaves (if it got that far) is read back.
fn child(spec: &workload::Spec, flags: &Flags, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if flags.smoke {
        cmd.arg("--smoke");
    }
    let mode = if trace { "trace" } else { "run" };
    let detail = out_dir().join(format!("{}-{mode}.json", spec.name));
    let _ = std::fs::remove_file(&detail);
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let echo = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            // The machine-readable last line is for the driver, not people.
            if !line.starts_with('{') {
                println!("  {line}");
            }
        }
    });
    // The child's own watchdog fires first; this one covers a child too
    // wedged to run it.
    let limit = Duration::from_secs_f64(deadline_s(flags.seconds) + 10.0);
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > limit => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = echo.join();
                return Err(format!("killed after {:.0} s", limit.as_secs_f64()));
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let _ = echo.join();
    // A run with failed ops still leaves its numbers; an abort, a deadline
    // or a set-up error leaves nothing to read.
    let text =
        std::fs::read_to_string(&detail).map_err(|_| format!("child ended with {status}"))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))
}

/// `all` / `trace`: every workload, `--repeat` times, one child each.
fn every(flags: &Flags, trace: bool) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("{}: {e}", out_dir().display());
        return ExitCode::from(1);
    }
    let mut merged = report::Merged::new(
        if trace { "trace" } else { "all" },
        flags.seed,
        flags.seconds,
        flags.smoke,
    );
    let mut red = false;
    for round in 0..flags.repeat {
        for spec in &workload::WORKLOADS {
            println!("== {} (round {} of {})", spec.name, round + 1, flags.repeat);
            match child(spec, flags, trace) {
                Ok(detail) => {
                    red |= detail.get("correct").and_then(Json::as_bool) != Some(true);
                    merged.add(spec.name, &detail);
                }
                Err(e) => {
                    println!("  {}: ABORTED: {e}", spec.name);
                    merged.aborted(spec.name, &e);
                    red = true;
                }
            }
        }
    }
    let path = out_dir().join(if trace { "trace.json" } else { "results.json" });
    if let Err(e) = std::fs::write(&path, merged.finish().render_pretty()) {
        eprintln!("{}: {e}", path.display());
        return ExitCode::from(1);
    }
    println!("wrote {}", path.display());
    if red {
        println!("RED: at least one workload failed, mismatched, timed out or aborted");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s @ ("all" | "trace" | "compare")) => (Some(s), &args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::from(2);
        }
        _ => (None, &args[..]),
    };
    if sub == Some("compare") {
        return match rest {
            [a, b] => compare::compare_files(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match sub {
        Some("all") => every(&flags, false),
        Some("trace") => every(&flags, true),
        _ if flags.workload.is_some() => one(&flags),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
