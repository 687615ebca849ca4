//! Result records: the one-line result the driver reads, the per-workload
//! detail file, and the merged `results.json` / `trace.json` that `all`
//! and `trace` write and `compare` reads.

use crate::json::Json;
use crate::run::Metric;
use cqcount_server::ServerConfig;

/// Length of the timed phase when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 18.0;

pub const SCHEMA: &str = "cqcount-benchmark/1";

/// `name  value unit  (n samples)`, the line a person reads.
pub fn metric_line(m: &Metric) -> String {
    format!(
        "{:<42} {:>16.4} {:<6} n={}",
        m.name, m.value, m.unit, m.samples
    )
}

/// One run of one workload.
pub struct Record {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Record {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric exactly `value` and `unit`.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// The detail file: the result line's content plus sample counts.
    pub fn detail(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                            ("samples", Json::Num(m.samples as f64)),
                        ]),
                    )
                })),
            ),
        ])
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and configuration a result was measured on.
pub fn meta() -> Json {
    let config = ServerConfig::default();
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "pool_threads",
            Json::Num(cqcount_exec::default_thread_count() as f64),
        ),
        (
            "server_config",
            Json::obj([
                ("workers", Json::Num(config.workers as f64)),
                ("reactors", Json::Num(config.reactors as f64)),
                ("queue_cap", Json::Num(config.queue_cap as f64)),
                ("width_cap", Json::Num(config.width_cap as f64)),
                ("plan_cache_cap", Json::Num(config.plan_cache_cap as f64)),
                ("count_cache_cap", Json::Num(config.count_cache_cap as f64)),
                ("materialize_cap", Json::Num(config.materialize_cap as f64)),
                ("durability", Json::str(config.durability.name())),
                ("snapshot_every", Json::Num(config.snapshot_every as f64)),
                ("recorder_cap", Json::Num(config.recorder_cap as f64)),
            ]),
        ),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
    ])
}

/// `results.json` / `trace.json` in the making: per workload, per metric,
/// one value per round.
pub struct Merged {
    head: Vec<(String, Json)>,
    workloads: Vec<(String, WorkloadRuns)>,
}

#[derive(Default)]
struct WorkloadRuns {
    correct: bool,
    attempted: Vec<Json>,
    failed: Vec<Json>,
    aborted: Vec<Json>,
    metrics: Vec<MetricRuns>,
}

/// One metric of one workload: a value and a sample count per round.
struct MetricRuns {
    name: String,
    unit: String,
    values: Vec<Json>,
    samples: Vec<Json>,
}

impl Merged {
    pub fn new(mode: &str, seed: u64, seconds: f64, smoke: bool) -> Merged {
        Merged {
            head: vec![
                ("schema".into(), Json::str(SCHEMA)),
                ("mode".into(), Json::str(mode)),
                ("seed".into(), Json::Num(seed as f64)),
                ("seconds".into(), Json::Num(seconds)),
                ("smoke".into(), Json::Bool(smoke)),
                ("meta".into(), meta()),
            ],
            workloads: Vec::new(),
        }
    }

    fn runs(&mut self, workload: &str) -> &mut WorkloadRuns {
        if let Some(i) = self.workloads.iter().position(|(n, _)| n == workload) {
            return &mut self.workloads[i].1;
        }
        self.workloads.push((
            workload.to_owned(),
            WorkloadRuns {
                correct: true,
                ..WorkloadRuns::default()
            },
        ));
        &mut self.workloads.last_mut().expect("just pushed").1
    }

    /// Folds one child's detail file in.
    pub fn add(&mut self, workload: &str, detail: &Json) {
        let runs = self.runs(workload);
        runs.correct &= detail.get("correct").and_then(Json::as_bool) == Some(true);
        runs.attempted
            .push(detail.get("attempted").cloned().unwrap_or(Json::Null));
        runs.failed
            .push(detail.get("failed").cloned().unwrap_or(Json::Null));
        for (name, m) in detail.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let idx = match runs.metrics.iter().position(|r| &r.name == name) {
                Some(i) => i,
                None => {
                    runs.metrics.push(MetricRuns {
                        name: name.clone(),
                        unit: unit.to_owned(),
                        values: Vec::new(),
                        samples: Vec::new(),
                    });
                    runs.metrics.len() - 1
                }
            };
            let field = |key: &str| m.get(key).cloned().unwrap_or(Json::Null);
            runs.metrics[idx].values.push(field("value"));
            runs.metrics[idx].samples.push(field("samples"));
        }
    }

    /// Records a child that produced no result (abort, timeout, mismatch
    /// severe enough to stop the run).
    pub fn aborted(&mut self, workload: &str, why: &str) {
        let runs = self.runs(workload);
        runs.correct = false;
        runs.aborted.push(Json::str(why));
    }

    pub fn finish(self) -> Json {
        let workloads = self.workloads.into_iter().map(|(name, r)| {
            let metrics = r.metrics.into_iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("unit", Json::Str(m.unit)),
                        ("values", Json::Arr(m.values)),
                        ("samples", Json::Arr(m.samples)),
                    ]),
                )
            });
            let why = crate::workload::find(&name).map_or("", |spec| spec.why);
            (
                name,
                Json::obj([
                    ("why", Json::str(why)),
                    ("correct", Json::Bool(r.correct)),
                    ("attempted", Json::Arr(r.attempted)),
                    ("failed", Json::Arr(r.failed)),
                    ("aborted", Json::Arr(r.aborted)),
                    ("metrics", Json::obj(metrics)),
                ]),
            )
        });
        let mut pairs = self.head;
        pairs.push(("workloads".into(), Json::obj(workloads)));
        Json::Obj(pairs)
    }
}
