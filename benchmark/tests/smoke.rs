//! Every workload end to end at smoke scale: the untraced run produces
//! every end-to-end metric with no failed op, and the traced run shows the
//! cache behaviour the workload exists to exercise.

use cqcount_benchmark::compare::benchmark_json_path;
use cqcount_benchmark::json::Json;
use cqcount_benchmark::run::{self, Outcome, SMOKE};
use cqcount_benchmark::{trace, workload};
use std::path::PathBuf;

fn scratch(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{test}"))
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

fn traced(name: &str) -> Outcome {
    let dir = scratch(&format!("trace-{name}"));
    let spec = workload::find(name).expect("known workload");
    let outcome = trace::trace(spec, 7, SMOKE, &dir.join("data"), &dir).expect("traced run");
    assert!(dir.join(format!("trace-{name}.jsonl")).exists());
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// (plan-cache hit ratio, count-cache hit ratio, fast-path hits per request)
fn cache_profile(outcome: &Outcome) -> (f64, f64, f64) {
    (
        value(outcome, "server.plan_cache_hit_ratio"),
        value(outcome, "server.count_cache_hit_ratio"),
        value(outcome, "server.fast_path_hits_per_request"),
    )
}

#[test]
fn warm_hit_is_served_from_the_count_cache_inline() {
    assert_eq!(cache_profile(&traced("warm_hit")), (1.0, 1.0, 1.0));
}

#[test]
fn plan_cold_hits_no_cache() {
    assert_eq!(cache_profile(&traced("plan_cold")), (0.0, 0.0, 0.0));
}

#[test]
fn count_acyclic_reuses_plans_and_recounts() {
    let outcome = traced("count_acyclic");
    assert_eq!(cache_profile(&outcome), (1.0, 0.0, 0.0));
    assert_eq!(value(&outcome, "relational.wcoj_bags"), 0.0);
}

#[test]
fn count_cyclic_reuses_plans_and_recounts_off_mapped_pages() {
    let outcome = traced("count_cyclic");
    assert_eq!(cache_profile(&outcome), (1.0, 0.0, 0.0));
    assert!(value(&outcome, "server.mmap_served_bytes") > 0.0);
    assert_eq!(value(&outcome, "core.plan_width"), 2.0);
}

#[test]
fn mutate_recount_reader_stays_warm_and_the_wal_is_replayed() {
    let outcome = traced("mutate_recount");
    assert_eq!(cache_profile(&outcome), (1.0, 1.0, 1.0));
    assert!(value(&outcome, "server.wal_bytes_per_mutation") > 0.0);
    assert!(value(&outcome, "server.recover_replayed_records") > 0.0);
    assert_eq!(value(&outcome, "server.delta_fallbacks"), 0.0);
}

#[test]
fn untraced_runs_report_every_metric_and_fail_no_op() {
    for spec in &workload::WORKLOADS {
        let dir = scratch(&format!("run-{}", spec.name));
        let outcome = run::run(spec, 7, 0.5, SMOKE, &dir).expect("untraced run");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(outcome.metrics.len(), 4, "{}", spec.name);
        for m in &outcome.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {}",
                spec.name,
                m.name
            );
        }
    }
    // Ops of every test in this process land in one pair of counters, so
    // zero failures here is zero failures everywhere so far.
    assert_eq!(
        run::PROGRESS
            .failed
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
}

/// (name, unit) pairs of one metric list of `BENCHMARK.json`.
fn declared(bench: &Json, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("a string")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_runs_emit() {
    let text = std::fs::read_to_string(benchmark_json_path()).expect("BENCHMARK.json");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<(String, String)> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            let field = |k: &str| {
                w.get(k)
                    .and_then(Json::as_str)
                    .expect("a string")
                    .to_owned()
            };
            (field("name"), field("why"))
        })
        .collect();
    let specs: Vec<(String, String)> = workload::WORKLOADS
        .iter()
        .map(|s| (s.name.to_owned(), s.why.to_owned()))
        .collect();
    assert_eq!(workloads, specs);

    let spec = workload::find("warm_hit").expect("known workload");
    let dir = scratch("declared");
    let untraced = run::run(spec, 7, 0.2, SMOKE, &dir.join("run")).expect("untraced run");
    assert_eq!(declared(&bench, "end_to_end"), emitted(&untraced));
    let traced = trace::trace(spec, 7, SMOKE, &dir.join("trace"), &dir).expect("traced run");
    assert_eq!(declared(&bench, "per_layer"), emitted(&traced));
    let _ = std::fs::remove_dir_all(&dir);
}
