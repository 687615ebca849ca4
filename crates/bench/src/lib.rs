//! Shared helpers for the experiment harness and the benchmark binaries.

use std::time::{Duration, Instant};

/// One measured benchmark case.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Algorithm / variant label.
    pub algo: String,
    /// Scale parameter (rows, factor, …) as shown in the table.
    pub param: String,
    /// Median nanoseconds per operation.
    pub ns_per_op: f64,
}

/// Measures a closure's median ns/op: calibrates the iteration count until
/// one batch takes ≳20 ms (cap 2²⁰ iterations), then takes the median of
/// five batches. Wrap benchmark results in [`std::hint::black_box`] inside
/// the closure to keep the optimizer honest.
fn bench_ns(mut f: impl FnMut()) -> f64 {
    f(); // warm-up (fills caches, triggers lazy init)
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed();
        if dt >= Duration::from_millis(20) || iters >= 1 << 20 {
            let mut samples = vec![dt.as_nanos() as f64 / iters as f64];
            for _ in 0..4 {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
            }
            samples.sort_by(f64::total_cmp);
            return samples[samples.len() / 2];
        }
        iters = iters.saturating_mul(2);
    }
}

/// A named group of benchmark cases, printed as a markdown table when
/// finished (the dependency-free replacement for a Criterion group).
pub struct BenchGroup {
    name: String,
    records: Vec<BenchRecord>,
}

impl BenchGroup {
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            records: Vec::new(),
        }
    }

    /// Runs one case and records its median ns/op.
    pub fn bench<T>(
        &mut self,
        algo: &str,
        param: impl std::fmt::Display,
        mut f: impl FnMut() -> T,
    ) {
        let ns = bench_ns(|| {
            std::hint::black_box(f());
        });
        self.records.push(BenchRecord {
            algo: algo.to_string(),
            param: param.to_string(),
            ns_per_op: ns,
        });
    }

    /// Prints the results table and hands back the raw records.
    pub fn finish(self) -> Vec<BenchRecord> {
        banner("bench", &self.name);
        let rows: Vec<Vec<String>> = self
            .records
            .iter()
            .map(|r| {
                vec![
                    r.algo.clone(),
                    r.param.clone(),
                    fmt_duration(Duration::from_nanos(r.ns_per_op as u64)),
                    format!("{:.0}", r.ns_per_op),
                ]
            })
            .collect();
        print_table(&["algorithm", "param", "time/op", "ns/op"], &rows);
        self.records
    }
}

/// Times a closure once, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Formats a duration compactly for the experiment tables.
pub fn fmt_duration(d: Duration) -> String {
    if d.as_secs() >= 10 {
        format!("{:.1}s", d.as_secs_f64())
    } else if d.as_millis() >= 10 {
        format!("{}ms", d.as_millis())
    } else if d.as_micros() >= 10 {
        format!("{}µs", d.as_micros())
    } else {
        format!("{}ns", d.as_nanos())
    }
}

/// Prints a markdown table: header row + separator + rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let fmt_row = |cells: &[String]| {
        let body: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("| {} |", body.join(" | "));
    };
    fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        fmt_row(row);
    }
}

/// Section banner for experiment output.
pub fn banner(id: &str, title: &str) {
    println!("\n### {id}: {title}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5ns");
        assert_eq!(fmt_duration(Duration::from_micros(50)), "50µs");
        assert_eq!(fmt_duration(Duration::from_millis(50)), "50ms");
        assert_eq!(fmt_duration(Duration::from_secs(12)), "12.0s");
    }

    #[test]
    fn timed_returns_result() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn bench_group_records_cases() {
        let mut g = BenchGroup::new("smoke");
        g.bench("noop", 1, || std::hint::black_box(21 * 2));
        let records = g.finish();
        assert_eq!(records.len(), 1);
        assert!(records[0].ns_per_op >= 0.0);
    }
}
