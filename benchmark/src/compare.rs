//! `compare A.json B.json`: two result files side by side, each
//! (workload, end-to-end metric) judged against its bound in
//! `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::{median, spread};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one side spread wider than the bound and the sides
    /// overlap: no claim either way.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges side `b` against side `a` (the base). With several runs a side,
/// medians are compared; where either side's inter-quartile spread exceeds
/// the bound the pair is unresolved unless every run of `b` reads at
/// least as well as every run of `a`.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() || a.iter().chain(b).any(|v| !v.is_finite()) {
        return Verdict::Unresolved;
    }
    let better_or_equal = |x: f64, y: f64| if lower_is_better { x <= y } else { x >= y };
    let noisy = [a, b]
        .iter()
        .any(|side| side.len() >= 2 && spread(side) > bound);
    if noisy {
        let b_dominates = b.iter().all(|&y| a.iter().all(|&x| better_or_equal(y, x)));
        return if b_dominates {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    let worsened = if lower_is_better {
        mb > ma * (1.0 + bound)
    } else {
        mb < ma * (1.0 - bound)
    };
    if worsened {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `BENCHMARK.json` sits beside the benchmark's directory.
pub fn benchmark_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the manifest dir has a parent")
        .join("BENCHMARK.json")
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Failed ops over attempted ops of one workload, all rounds; an aborted
/// round counts as wholly failed.
fn failed_ratio(file: &Json, workload: &str) -> f64 {
    let Some(w) = file.get("workloads").and_then(|w| w.get(workload)) else {
        return 1.0;
    };
    let sum = |key: &str| -> f64 {
        w.get(key)
            .and_then(Json::as_arr)
            .map_or(0.0, |vs| vs.iter().filter_map(Json::as_f64).sum())
    };
    let aborted = w
        .get("aborted")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    if aborted > 0 || sum("attempted") == 0.0 {
        return 1.0;
    }
    sum("failed") / sum("attempted")
}

pub fn compare_files(a_path: &Path, b_path: &Path) -> ExitCode {
    let loaded =
        load(&benchmark_json_path()).and_then(|bench| Ok((bench, load(a_path)?, load(b_path)?)));
    let (bench, a, b) = match loaded {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let names = |key: &str| -> Vec<String> {
        bench
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect()
    };
    println!(
        "{:<15} {:<22} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    let mut red = false;
    for workload in names("workloads") {
        for metric in bench
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let name = metric.get("name").and_then(Json::as_str).unwrap_or("");
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = metric.get("better").and_then(Json::as_str) != Some("higher");
            let (va, vb) = (values(&a, &workload, name), values(&b, &workload, name));
            let verdict = judge(&va, &vb, lower, bound);
            red |= verdict == Verdict::Worse;
            let (ma, mb) = match (va.is_empty(), vb.is_empty()) {
                (false, false) => (median(&va), median(&vb)),
                _ => (f64::NAN, f64::NAN),
            };
            println!(
                "{workload:<15} {name:<22} {ma:>14.4} {mb:>14.4} {:>9.4} {bound:>6.2}  {} [{unit}, better {}, n={}/{}]",
                mb / ma,
                verdict.label(),
                if lower { "lower" } else { "higher" },
                va.len(),
                vb.len(),
            );
        }
        let (fa, fb) = (failed_ratio(&a, &workload), failed_ratio(&b, &workload));
        let verdict = if fb > fa { Verdict::Worse } else { Verdict::Ok };
        red |= verdict == Verdict::Worse;
        println!(
            "{workload:<15} {:<22} {fa:>14.6} {fb:>14.6} {:>9} {:>6}  {} [ratio, better lower]",
            "failed_ratio",
            "-",
            "0",
            verdict.label()
        );
    }
    if red {
        println!("WORSE: at least one metric regressed beyond its bound, or more ops failed");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_runs_are_judged_by_the_bound_alone() {
        assert_eq!(judge(&[100.0], &[109.0], true, 0.10), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[111.0], true, 0.10), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[91.0], false, 0.10), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[89.0], false, 0.10), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[50.0], true, 0.10), Verdict::Ok);
        assert_eq!(judge(&[], &[1.0], true, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&[1.0], &[f64::NAN], true, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_dominates() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 130.0];
        assert_eq!(
            judge(&noisy, &[95.0, 140.0], true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(judge(&noisy, &[70.0, 75.0], true, 0.10), Verdict::Ok);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0], true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &[104.0, 105.0, 103.0], true, 0.10),
            Verdict::Ok
        );
    }
}
