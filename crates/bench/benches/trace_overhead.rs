//! Measures what the PR 4 instrumentation costs the join/semijoin kernels
//! (sort-merge, sequential):
//!
//! * **disabled** — no trace session anywhere; an instrumented scope pays
//!   one relaxed atomic load. Measured two ways: the kernel itself, and
//!   the per-span gate cost in isolation (a tight create/drop loop), from
//!   which the *disabled overhead* is derived as `gate_ns × spans_per_op /
//!   kernel_ns` — far below what run-to-run noise on the kernel numbers
//!   could resolve directly.
//! * **traced** — an active [`cqcount_obs::trace::TraceSession`] with the
//!   kernels recording under a live root span, rings drained per case.
//! * **recorder-armed** — the flight recorder's per-request capture
//!   cycle: session begin, root span, kernel under it, collect +
//!   build_tree, tree discarded (the overwhelmingly common non-retained
//!   outcome). This is what *every* request pays while `--recorder-cap`
//!   is nonzero (the default), so it gets its own, looser gate.
//!
//! Emits `BENCH_trace_overhead.json`; CI guards the summary percentages
//! (traced ≤ 3%, recorder-armed ≤ 5%, disabled ≤ 0.5%).

use cqcount_arith::prng::Rng;
use cqcount_bench::{bench_ns, print_table};
use cqcount_obs::trace;
use cqcount_relational::{Bindings, Value};

struct Case {
    kernel: &'static str,
    rows: usize,
    ns_disabled: f64,
    ns_traced: f64,
    ns_recorder_armed: f64,
    traced_overhead_pct: f64,
    recorder_armed_overhead_pct: f64,
    disabled_overhead_pct: f64,
}

/// Two relations joining on a shared first column, domain ≈ rows.
fn instance(rows: usize, seed: u64) -> (Bindings, Bindings) {
    let mut rng = Rng::seed_from_u64(seed);
    let domain = rows as u32;
    let mk = |rng: &mut Rng, cols: Vec<u32>| {
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|_| {
                (0..cols.len())
                    .map(|_| Value(rng.range_u32(0, domain)))
                    .collect()
            })
            .collect();
        Bindings::from_rows(cols, data)
    };
    (mk(&mut rng, vec![0, 1]), mk(&mut rng, vec![0, 2]))
}

fn main() {
    assert!(
        !trace::enabled(),
        "trace_overhead must start with tracing off"
    );

    // The disabled fast path in isolation: create + drop an unarmed span.
    // This is the *entire* per-scope cost an idle server pays.
    let gate_ns = bench_ns(|| {
        let _ = std::hint::black_box(trace::span("bench.gate"));
    });

    let mut cases: Vec<Case> = Vec::new();
    for rows in [1_000usize, 10_000, 100_000] {
        let (left, right) = instance(rows, 0xBEEF + rows as u64);
        for kernel in ["join", "semijoin"] {
            let run = || match kernel {
                "join" => {
                    std::hint::black_box(left.join(&right));
                }
                _ => {
                    std::hint::black_box(left.semijoin(&right));
                }
            };
            let ns_disabled = bench_ns(run);
            let ns_traced = {
                let _session = trace::TraceSession::begin();
                let root = trace::span("bench.root");
                let root_id = root.id();
                let ns = bench_ns(run);
                drop(root);
                // Drain what the bench recorded so the next case starts
                // with empty rings.
                let _ = trace::collect(root_id);
                ns
            };
            // The recorder's speculative capture, end to end per op:
            // session + root + spans + collect + tree assembly, with the
            // tree thrown away as it is for every non-retained request.
            let ns_recorder_armed = bench_ns(|| {
                let _session = trace::TraceSession::begin();
                let root = trace::span("request");
                let root_id = root.id();
                run();
                drop(root);
                let tree = trace::build_tree(trace::collect(root_id), root_id);
                let _ = std::hint::black_box(tree);
            });
            // One kernel span per op; the counter adds ride on the same
            // armed/unarmed check.
            let disabled_overhead_pct = 100.0 * gate_ns / ns_disabled;
            let traced_overhead_pct = 100.0 * (ns_traced - ns_disabled) / ns_disabled;
            let recorder_armed_overhead_pct =
                100.0 * (ns_recorder_armed - ns_disabled) / ns_disabled;
            cases.push(Case {
                kernel,
                rows,
                ns_disabled,
                ns_traced,
                ns_recorder_armed,
                traced_overhead_pct,
                recorder_armed_overhead_pct,
                disabled_overhead_pct,
            });
        }
    }

    println!("\n### bench: trace_overhead (disabled gate: {gate_ns:.1} ns/span)\n");
    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                c.kernel.to_string(),
                c.rows.to_string(),
                format!("{:.0}", c.ns_disabled),
                format!("{:.0}", c.ns_traced),
                format!("{:.0}", c.ns_recorder_armed),
                format!("{:+.2}%", c.traced_overhead_pct),
                format!("{:+.2}%", c.recorder_armed_overhead_pct),
                format!("{:.4}%", c.disabled_overhead_pct),
            ]
        })
        .collect();
    print_table(
        &[
            "kernel",
            "rows",
            "ns (off)",
            "ns (traced)",
            "ns (armed)",
            "traced ovh",
            "armed ovh",
            "disabled ovh",
        ],
        &rows,
    );

    // Noise floor: tiny kernels jitter a few percent run-to-run; the
    // summary takes the *median* traced overhead so one noisy cell cannot
    // fail the guard, and the max disabled overhead (analytic, stable).
    let mut traced: Vec<f64> = cases.iter().map(|c| c.traced_overhead_pct).collect();
    traced.sort_by(f64::total_cmp);
    let median_traced = traced[traced.len() / 2];
    let mut armed: Vec<f64> = cases
        .iter()
        .map(|c| c.recorder_armed_overhead_pct)
        .collect();
    armed.sort_by(f64::total_cmp);
    let median_armed = armed[armed.len() / 2];
    let max_disabled = cases
        .iter()
        .map(|c| c.disabled_overhead_pct)
        .fold(0.0f64, f64::max);
    println!(
        "\nmedian traced overhead {median_traced:+.2}% (target <= 3%), \
         median recorder-armed overhead {median_armed:+.2}% (target <= 5%), \
         max disabled overhead {max_disabled:.4}% (target <= 0.5%)"
    );

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"trace_overhead\",\n");
    json.push_str("  \"baseline\": \"join/semijoin kernels, re-measured in-run\",\n");
    json.push_str(&format!("  \"disabled_gate_ns_per_span\": {gate_ns:.2},\n"));
    json.push_str(&format!(
        "  \"median_traced_overhead_pct\": {median_traced:.3},\n"
    ));
    json.push_str(&format!(
        "  \"median_armed_overhead_pct\": {median_armed:.3},\n"
    ));
    json.push_str(&format!(
        "  \"max_disabled_overhead_pct\": {max_disabled:.4},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"rows\": {}, \"ns_disabled\": {:.0}, \"ns_traced\": {:.0}, \"ns_recorder_armed\": {:.0}, \"traced_overhead_pct\": {:.3}, \"recorder_armed_overhead_pct\": {:.3}, \"disabled_overhead_pct\": {:.4}}}{}\n",
            c.kernel,
            c.rows,
            c.ns_disabled,
            c.ns_traced,
            c.ns_recorder_armed,
            c.traced_overhead_pct,
            c.recorder_armed_overhead_pct,
            c.disabled_overhead_pct,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_trace_overhead.json"
    );
    std::fs::write(out, &json).expect("write BENCH_trace_overhead.json");
    println!("\nwrote {out}");
}
