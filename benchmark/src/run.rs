//! The untraced run of one workload: set-up, the timed closed-loop phase,
//! `SYNC` and the bytes it leaves. Every end-to-end metric comes from here.

use crate::gen::Rng;
use crate::stats::{median, typical_percentile, typical_rate, Samples};
use crate::workload::{Live, Spec, DB};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How much of each fixed-size phase a run does. `FULL` is what the
/// bounds in `BENCHMARK.json` were calibrated with; `SMOKE` walks the
/// same code with less of everything.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Set-ups repeat at least `min_setups` times and go on until
    /// `rep_budget_s` seconds are spent on them (or ten times the minimum
    /// is reached), so a 20 ms set-up is measured from dozens of samples
    /// and a 1 s one from three.
    pub min_setups: usize,
    pub rep_budget_s: f64,
    /// Boots from the source the traced run times after its `SYNC`.
    pub restarts: usize,
    /// Divisor applied to the traced run's pass and cycle counts.
    pub shrink: usize,
    /// Seconds of a phase's own traffic sent, checked but unmeasured,
    /// before the phase starts measuring. On this kind of VM a halted
    /// vCPU wakes in a few µs for the first second or two after the load
    /// pattern changes and in tens of µs from then on; a latency phase
    /// measured across that switch has its median on either side of it.
    pub ramp_s: f64,
    /// End the timed phase on the pass boundary nearest the deadline, so
    /// every run measures the same multiset of queries (the deadline
    /// itself cuts mid-pass when false).
    pub whole_passes: bool,
    /// Most queries of the mix a traced run replays.
    pub trace_mix_cap: usize,
}

pub const FULL: Scale = Scale {
    min_setups: 3,
    rep_budget_s: 1.5,
    restarts: 7,
    shrink: 1,
    ramp_s: 2.0,
    whole_passes: true,
    trace_mix_cap: usize::MAX,
};

pub const SMOKE: Scale = Scale {
    min_setups: 1,
    rep_budget_s: 0.0,
    restarts: 2,
    shrink: 10,
    ramp_s: 0.1,
    whole_passes: false,
    trace_mix_cap: 3,
};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single reading).
    pub samples: usize,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Ops attempted and failed so far, and the phase the run is in: what the
/// watchdog prints when the deadline expires mid-run.
pub struct Progress {
    pub attempted: AtomicU64,
    pub failed: AtomicU64,
    pub phase: Mutex<&'static str>,
}

pub static PROGRESS: Progress = Progress {
    attempted: AtomicU64::new(0),
    failed: AtomicU64::new(0),
    phase: Mutex::new("start"),
};

pub fn enter_phase(name: &'static str) {
    *PROGRESS
        .phase
        .lock()
        .expect("phase lock is never held across a panic") = name;
}

/// Counts one op as attempted and, unless `good`, as failed: an op that
/// errors, is refused, or answers anything but the oracle's value.
pub fn tally(good: bool) {
    PROGRESS.attempted.fetch_add(1, Ordering::Relaxed);
    if !good {
        PROGRESS.failed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A phase's clock: samples carry the second they were sent at, counted
/// from `origin`; ops sent before `measure_from` are checked like any
/// other but leave no sample (the ramp).
#[derive(Clone, Copy)]
pub struct Window {
    pub origin: Instant,
    pub measure_from: Instant,
}

impl Window {
    /// Tallies the op of pass `pass` sent at `start` and keeps its latency
    /// (µs) when it was correct and inside the window.
    fn record(&self, samples: &mut Samples, start: Instant, good: bool, pass: u32) {
        let us = start.elapsed().as_nanos() as f64 / 1_000.0;
        tally(good);
        if good && start >= self.measure_from {
            samples.push(start.duration_since(self.origin).as_secs_f64(), us, pass);
        }
    }
}

/// One reader: passes over the query mix, each reshuffled and preceded by
/// the workload's untimed reset. Ramp passes run until `ramp` has passed
/// (cut mid-pass); measured passes then run for `seconds`, ending on a
/// pass boundary when `scale.whole_passes`. Returns the latencies (µs) of
/// the correct replies of the measured passes.
pub fn read_loop(
    live: &Live,
    seed: u64,
    origin: Instant,
    ramp: Duration,
    seconds: f64,
    scale: &Scale,
) -> Result<Samples, String> {
    let mut client = live.connect()?;
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..live.inputs.queries.len()).collect();
    let think = Duration::from_micros(live.spec.reader_think_us);
    let mut latencies = Samples::default();
    let mut passes = 0u32;
    // One pass; `cut` ends it early. Returns false when it was cut.
    let mut pass = |latencies: &mut Samples, window: Window, cut: Option<Instant>| {
        passes += 1;
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        live.reset(&mut client)?;
        for &qi in &order {
            if cut.is_some_and(|c| Instant::now() >= c) {
                return Ok::<bool, String>(false);
            }
            let start = Instant::now();
            let reply = client.count(DB, &live.inputs.queries[qi], 0);
            let good = matches!(&reply, Ok(r) if r.value == live.expected[qi] && r.cached == live.spec.tier);
            window.record(latencies, start, good, passes);
            if !think.is_zero() {
                std::thread::sleep(think);
            }
        }
        Ok(true)
    };
    let ramp_end = Instant::now() + ramp;
    // A ramp pass is cut at `ramp_end`, before which nothing is measured.
    let ramping = Window {
        origin,
        measure_from: ramp_end,
    };
    while pass(&mut latencies, ramping, Some(ramp_end))? {}
    let started = Instant::now();
    let measuring = Window {
        origin,
        measure_from: started,
    };
    let deadline = started + Duration::from_secs_f64(seconds);
    loop {
        let pass_started = Instant::now();
        let cut = (!scale.whole_passes).then_some(deadline);
        let finished = pass(&mut latencies, measuring, cut)?;
        // Stop where one more pass would overshoot the deadline by more
        // than stopping here undershoots it.
        if !finished || Instant::now() + pass_started.elapsed() / 2 >= deadline {
            break;
        }
    }
    Ok(latencies)
}

/// The mutation client: INSERT the known tuple, COUNT the maintained
/// query, DELETE the tuple, COUNT again, until `deadline`; every reply is
/// checked. Returns the latencies (µs) of its correct COUNTs and leaves
/// the database without the tuple.
pub fn write_loop(live: &Live, window: Window, deadline: Instant) -> Result<Samples, String> {
    let mut client = live.connect()?;
    let m = &live.inputs.mutation;
    let values: Vec<&str> = m.values.iter().map(String::as_str).collect();
    let mut recounts = Samples::default();
    while Instant::now() < deadline {
        for (insert, expected) in [(true, &live.with), (false, &live.without)] {
            let receipt = if insert {
                client.insert(DB, &m.rel, &values)
            } else {
                client.delete(DB, &m.rel, &values)
            };
            tally(matches!(receipt, Ok(r) if r.changed == 1));
            let start = Instant::now();
            let reply = client.count(DB, &m.query, 0);
            window.record(
                &mut recounts,
                start,
                matches!(&reply, Ok(r) if &r.value == expected),
                0,
            );
        }
    }
    // A failed DELETE above must not leak the tuple into the bytes measured
    // after SYNC.
    let _ = client.delete(DB, &m.rel, &values);
    Ok(recounts)
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Repeats `step` at least `min` times, then until `budget_s` seconds have
/// gone into it or `10 * min` repetitions are done.
fn repeat(
    min: usize,
    budget_s: f64,
    mut step: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let min = min.max(1);
    let started = Instant::now();
    let mut done = 0;
    while done < min || (done < 10 * min && started.elapsed().as_secs_f64() < budget_s) {
        step()?;
        done += 1;
    }
    Ok(())
}

/// Sets the workload up repeatedly, keeping the last; the median of the
/// set-up times is `setup_s`. Returns the sample count with it.
pub fn setup_repeated(
    spec: &'static Spec,
    seed: u64,
    dir: &Path,
    scale: &Scale,
) -> Result<(Live, f64, usize), String> {
    enter_phase("setup");
    let mut times = Vec::new();
    let mut live = None;
    repeat(scale.min_setups, scale.rep_budget_s, || {
        drop(live.take());
        let start = Instant::now();
        live = Some(Live::setup(spec, seed, dir)?);
        times.push(start.elapsed().as_secs_f64());
        Ok(())
    })?;
    Ok((
        live.expect("at least one set-up"),
        median(&times),
        times.len(),
    ))
}

/// Runs one workload untraced and returns every end-to-end metric.
pub fn run(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    scale: Scale,
    dir: &Path,
) -> Result<Outcome, String> {
    let (live, setup_s, setups) = setup_repeated(spec, seed, dir, &scale)?;

    enter_phase("timed");
    let ramp = Duration::from_secs_f64(scale.ramp_s);
    let origin = Instant::now();
    let writer_window = Window {
        origin,
        measure_from: origin + ramp,
    };
    let writer_until = origin + ramp + Duration::from_secs_f64(seconds);
    let (reads, writes) = std::thread::scope(|scope| {
        let (live, scale) = (&live, &scale);
        let readers: Vec<_> = (0..spec.readers)
            .map(|i| {
                scope.spawn(move || {
                    read_loop(live, seed ^ (i as u64 + 1), origin, ramp, seconds, scale)
                })
            })
            .collect();
        let writer = spec
            .concurrent_writer
            .then(|| scope.spawn(move || write_loop(live, writer_window, writer_until)));
        let reads: Result<Vec<Samples>, String> = readers
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("reader thread panicked".into()))
            })
            .collect();
        let writes = writer.map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("writer thread panicked".into()))
        });
        (reads, writes)
    });
    let reads = reads?.into_iter().fold(Samples::default(), |mut all, r| {
        all.extend(r);
        all
    });
    // Every correct COUNT reply of the timed phase, readers' and writer's.
    let mut timed_counts = reads.clone();
    if let Some(recounts) = writes {
        let recounts = recounts?;
        if recounts.is_empty() {
            return Err("the mutation client got no correct reply".into());
        }
        timed_counts.extend(recounts);
    }

    enter_phase("sync");
    live.connect()?.sync(DB).map_err(|e| format!("sync: {e}"))?;
    let bytes = live
        .source_bytes()
        .map_err(|e| format!("measuring {}: {e}", live.source.display()))?;

    let attempted = PROGRESS.attempted.load(Ordering::Relaxed);
    let failed = PROGRESS.failed.load(Ordering::Relaxed);
    if reads.is_empty() {
        return Err(format!(
            "the timed phase produced no correct reply ({failed} of {attempted} ops failed)"
        ));
    }
    let metric = |name, unit, value, samples| Metric {
        name,
        unit,
        value,
        samples,
    };
    let metrics = vec![
        metric("setup_s", "s", setup_s, setups),
        metric(
            "count_p50_us",
            "us",
            typical_percentile(&reads, 0.5),
            reads.len(),
        ),
        metric(
            "count_ops_per_s",
            "1/s",
            typical_rate(&timed_counts),
            timed_counts.len(),
        ),
        metric(
            "store_bytes_per_tuple",
            "B",
            bytes as f64 / live.tuples as f64,
            1,
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}
