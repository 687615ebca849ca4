//! The traced run: a fixed number of ops of one workload, single client,
//! with benchmark-side spans around the calls into each layer's public
//! functions. Every per-layer metric comes from here; end-to-end metrics
//! never do.
//!
//! Two things are traced. The *replay* sends the workload's ops to the
//! daemon under a `server.roundtrip` span each (the daemon's inside is
//! opaque from here). The *reconstruction* then performs, in this process
//! and on the same inputs, the calls the daemon makes for those ops —
//! parse, fingerprint, core and width search, count, and the kernels
//! along the plan's own join tree — each under its own span.
//!
//! A time metric is, per query of the mix, the median over passes of the
//! op's summed span self times, averaged over the mix: µs per op of this
//! workload. A count metric is the same average of exact per-op counts.

use crate::run::{
    enter_phase, peak_rss_mb, setup_repeated, tally, Metric, Outcome, Scale, PROGRESS,
};
use crate::span::{per_op_self_ns, self_times_ns, write_jsonl, Recorder, Span};
use crate::stats::{median, percentile, tail_supported};
use crate::workload::{Backing, Live, Spec, DB};
use cqcount_core::acyclic::count_over_tree;
use cqcount_core::{count_prepared, prepare_plan, Budget, PreparedPlan, WidthSearch};
use cqcount_delta::MaterializedCount;
use cqcount_hypergraph::{is_acyclic, Hypergraph, NodeSet};
use cqcount_query::canonical::atom_bindings;
use cqcount_query::fingerprint::fingerprint;
use cqcount_query::{parse_database, parse_query, ConjunctiveQuery};
use cqcount_relational::consistency::full_reduce;
use cqcount_relational::store::{encode_store, open_store};
use cqcount_relational::{Bindings, Database, Value};
use cqcount_server::protocol::{parse_frame_prefix, V4};
use cqcount_server::{CacheTier, Client, Request, Response};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Calls per span where one call is too short to time on its own.
const BATCH: usize = 64;
/// Repetitions of the store-layer calls (parse, encode, open).
const STORE_REPS: usize = 3;

/// Op bookkeeping shared by every traced section: op ids are dense, the
/// recorder tags spans with the current one, and `slots[op]` is the slot
/// of the replayed mix that op counted.
struct Ops<'a> {
    rec: &'a Recorder,
    slots: Vec<usize>,
}

impl Ops<'_> {
    fn begin(&mut self, slot: usize) {
        self.rec.set_op(self.slots.len() as u32);
        self.slots.push(slot);
    }
}

/// Per slot of the mix, the median over that slot's ops of `per_op`
/// (a failed op's NaN is skipped); then the mean over the mix.
fn mix_mean(per_op: &[f64], slots: &[usize], mix: usize) -> f64 {
    let mut by_query: Vec<Vec<f64>> = vec![Vec::new(); mix];
    for (v, &slot) in per_op.iter().zip(slots) {
        if v.is_finite() {
            by_query[slot].push(*v);
        }
    }
    let medians: Vec<f64> = by_query
        .iter()
        .filter(|vs| !vs.is_empty())
        .map(|vs| median(vs))
        .collect();
    if medians.is_empty() {
        0.0
    } else {
        medians.iter().sum::<f64>() / medians.len() as f64
    }
}

/// One counter of the daemon's `METRICS` text, labelled or not.
fn series(text: &str, name: &str, label: Option<(&str, &str)>) -> f64 {
    let key = match label {
        Some((k, v)) => format!("{name}{{{k}=\"{v}\"}} "),
        None => format!("{name} "),
    };
    text.lines()
        .find_map(|l| l.strip_prefix(&key))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Sends `passes` passes of the queries `mix`, each under a
/// `server.roundtrip` span; returns the latency (µs) of every op in op
/// order. With the recorder off this is the untraced baseline.
fn replay(
    live: &Live,
    client: &mut Client,
    mix: &[usize],
    passes: usize,
    ops: &mut Ops,
) -> Result<Vec<f64>, String> {
    let mut latencies = Vec::new();
    for _ in 0..passes {
        live.reset(client)?;
        for (slot, &qi) in mix.iter().enumerate() {
            ops.begin(slot);
            let start = Instant::now();
            let reply = ops.rec.time("server.roundtrip", || {
                client.count(DB, &live.inputs.queries[qi], 0)
            });
            let us = start.elapsed().as_nanos() as f64 / 1_000.0;
            let good = matches!(&reply, Ok(r) if r.value == live.expected[qi] && r.cached == live.spec.tier);
            tally(good);
            // A failed op keeps its slot so op ids stay aligned.
            latencies.push(if good { us } else { f64::NAN });
        }
    }
    Ok(latencies)
}

/// Would the shipped `JoinKernel::Auto` build this bag with the leapfrog
/// kernel? Its rule, restated through public API: two or more λ-atoms
/// whose variable sets form a cyclic hypergraph.
fn auto_picks_leapfrog(q: &ConjunctiveQuery, lam: &[usize]) -> bool {
    lam.len() >= 2
        && !is_acyclic(&Hypergraph::from_edges(lam.iter().map(|&ai| {
            q.atoms()[ai]
                .vars()
                .iter()
                .map(|v| v.node())
                .collect::<Vec<_>>()
        })))
}

/// Exact per-op counts the reconstruction reads off its intermediate
/// results.
#[derive(Default, Clone, Copy)]
struct KernelCounts {
    bag_rows: f64,
    answers: f64,
    leapfrog_bags: f64,
}

/// Walks the plan's own (completed) join tree the way
/// `count_with_decomposition_kernel` does, one public call per span:
/// scan each λ-atom, build each bag with the sort-merge fold, project onto
/// χ, run the full reducer (and the same sweeps semijoin by semijoin),
/// project onto the free variables, run the join-tree DP. Returns `None`
/// for a plan without a #-decomposition.
///
/// Bags that `Auto` would hand to the leapfrog kernel are counted, not
/// timed: on these workloads there are none (README, "Leapfrog"), and
/// forcing leapfrog onto the acyclic bags takes 44 s on one of them.
fn kernels(
    rec: &Recorder,
    plan: &PreparedPlan,
    db: &Database,
) -> Result<Option<(KernelCounts, String)>, String> {
    let Some(sd) = &plan.sharp else {
        return Ok(None);
    };
    let q = &sd.qprime;
    let atom_nodes: Vec<NodeSet> = q
        .atoms()
        .iter()
        .map(|a| a.vars().iter().map(|v| v.node()).collect())
        .collect();
    let all_atoms: Vec<usize> = (0..q.atoms().len()).collect();
    let tree = sd.hypertree.complete(&all_atoms, &atom_nodes);
    let mut views: Vec<Bindings> = Vec::with_capacity(tree.len());
    let mut leapfrog_bags = 0;
    for p in 0..tree.len() {
        let lam = &tree.lambda[p];
        let scans: Vec<Bindings> = lam
            .iter()
            .map(|&ai| rec.time("relational.atom_scan", || atom_bindings(&q.atoms()[ai], db)))
            .collect();
        let joined = rec.time("relational.join", || {
            scans.iter().fold(Bindings::unit(), |acc, s| acc.join(s))
        });
        leapfrog_bags += usize::from(auto_picks_leapfrog(q, lam));
        let chi: Vec<u32> = tree.chi[p].to_vec();
        views.push(rec.time("relational.project", || joined.project(&chi)));
    }
    let bag_rows: usize = views.iter().map(Bindings::len).sum();

    let mut reduced = views.clone();
    rec.time("relational.full_reduce", || {
        full_reduce(&mut reduced, &tree.parent, &tree.order)
    });
    // The full reducer's two sweeps again, one `semijoin` per span.
    for &v in &tree.order {
        if let Some(p) = tree.parent[v] {
            views[p] = rec.time("relational.semijoin", || views[p].semijoin(&views[v]));
        }
    }
    for &v in tree.order.iter().rev() {
        if let Some(p) = tree.parent[v] {
            views[v] = rec.time("relational.semijoin", || views[v].semijoin(&views[p]));
        }
    }
    if views
        .iter()
        .map(Bindings::len)
        .ne(reduced.iter().map(Bindings::len))
    {
        return Err("semijoin sweeps and full_reduce disagree".into());
    }

    let free_cols: Vec<u32> = q.free().iter().map(|v| v.node()).collect();
    let projected: Vec<Bindings> = reduced
        .iter()
        .map(|v| rec.time("relational.project", || v.project(&free_cols)))
        .collect();
    let n = rec.time("core.count_over_tree", || {
        count_over_tree(&projected, &tree.parent, &tree.children, &tree.order)
    });
    let answers = n.to_string();
    Ok(Some((
        KernelCounts {
            bag_rows: bag_rows as f64,
            answers: answers.parse().unwrap_or(f64::MAX),
            leapfrog_bags: leapfrog_bags as f64,
        },
        answers,
    )))
}

/// Exact per-op counts of the reconstruction, in op order.
#[derive(Default)]
struct ReconCounts {
    widths_tried: Vec<f64>,
    plan_width: Vec<f64>,
    bag_rows: Vec<f64>,
    bag_rows_per_answer: Vec<f64>,
    leapfrog_bags: Vec<f64>,
}

/// The in-process reconstruction of `passes` passes over the mix. Every
/// count it produces is checked against the oracle like a server reply.
fn reconstruct(
    live: &Live,
    db: &Database,
    mix: &[usize],
    passes: usize,
    ops: &mut Ops,
    counts: &mut ReconCounts,
) -> Result<(), String> {
    let rec = ops.rec;
    let width_cap = live.config.width_cap;
    for _ in 0..passes {
        for (slot, &qi) in mix.iter().enumerate() {
            ops.begin(slot);
            let text = &live.inputs.queries[qi];
            let q = rec
                .time("query.parse", || parse_query(text))
                .map_err(|e| format!("query {qi}: {e}"))?;
            let fp = rec.time("query.fingerprint", || fingerprint(&q));
            black_box(fp.hash);
            let plan = rec.time("core.prepare_plan", || prepare_plan(&q, width_cap));
            // The two halves of planning, each through its own public
            // entry point (the same work `prepare_plan` just did).
            let mut search = rec.time("core.core_search", || WidthSearch::new(&q));
            let mut tried = 0;
            rec.time("core.width_search", || {
                for k in 1..=width_cap {
                    tried += 1;
                    if search.decomposition_at(k).is_some() {
                        break;
                    }
                }
            });
            let counted = rec.time("core.count_prepared", || {
                count_prepared(&q, db, &plan, &Budget::unlimited())
            });
            // The same two calls with the pool pinned to one lane.
            rec.time("exec.prepare_plan_1t", || {
                cqcount_exec::with_threads(1, || black_box(prepare_plan(&q, width_cap)));
            });
            rec.time("exec.count_prepared_1t", || {
                cqcount_exec::with_threads(1, || {
                    black_box(count_prepared(&q, db, &plan, &Budget::unlimited()).is_ok())
                });
            });
            // What `maybe_materialize` tries after every fresh count.
            rec.time("delta.materialize_attempt", || {
                black_box(MaterializedCount::build(&q, db).is_some())
            });
            let kernel = kernels(rec, &plan, db)?;

            let value = counted.map(|(n, _)| n.to_string()).ok();
            let mut good = value.as_deref() == Some(live.expected[qi].as_str());
            if let Some((_, answers)) = &kernel {
                good &= answers == &live.expected[qi];
            }
            tally(good);

            let k = kernel.map(|(c, _)| c).unwrap_or_default();
            counts.widths_tried.push(tried as f64);
            counts
                .plan_width
                .push(plan.sharp.as_ref().map_or(0.0, |sd| sd.width as f64));
            counts.bag_rows.push(k.bag_rows);
            counts
                .bag_rows_per_answer
                .push(k.bag_rows / k.answers.max(1.0));
            counts.leapfrog_bags.push(k.leapfrog_bags);
        }
    }
    Ok(())
}

/// Store layer: `parse_database`, `encode_store`, `open_store` on the
/// workload's own database. Returns the image size in bytes.
fn store_layer(live: &Live, dir: &Path, ops: &mut Ops) -> Result<f64, String> {
    let rec = ops.rec;
    let path = dir.join("trace.store");
    let mut image_len = 0;
    for _ in 0..STORE_REPS {
        ops.begin(0);
        let db = rec
            .time("relational.parse_database", || {
                parse_database(&live.inputs.db_text)
            })
            .map_err(|e| format!("parse_database: {e}"))?;
        let image = rec.time("relational.encode_store", || encode_store(&db, 1, 0));
        image_len = image.len();
        std::fs::write(&path, &image).map_err(|e| format!("{}: {e}", path.display()))?;
        let loaded = rec
            .time("relational.open_store", || open_store(&path))
            .map_err(|e| format!("open_store: {e}"))?;
        if loaded.db.total_tuples() != live.tuples {
            return Err("store image lost tuples".into());
        }
    }
    Ok(image_len as f64)
}

/// Delta layer: build the maintained query's materialization, then push
/// the workload's own mutation through it `cycles` times. Returns the
/// pinned row count.
fn delta_layer(live: &Live, cycles: usize, ops: &mut Ops) -> Result<f64, String> {
    let rec = ops.rec;
    let m = &live.inputs.mutation;
    let q = parse_query(&m.query).map_err(|e| format!("maintained query: {e}"))?;
    let mut db = live.heap_db.clone();
    let mut mc = None;
    for _ in 0..STORE_REPS {
        ops.begin(0);
        mc = rec.time("delta.build", || MaterializedCount::build(&q, &db));
    }
    let mut mc = mc.ok_or("maintained query is not delta-maintainable")?;
    let pinned = mc.pinned_rows() as f64;
    let names: Vec<&str> = m.values.iter().map(String::as_str).collect();
    for _ in 0..cycles {
        for insert in [true, false] {
            ops.begin(0);
            let changed = if insert {
                db.insert_tuple(&m.rel, &names)
            } else {
                db.delete_tuple(&m.rel, &names)
            };
            if changed != Ok(true) {
                return Err(format!(
                    "in-process mutation was not effective: {changed:?}"
                ));
            }
            let tuple: Vec<Value> = names
                .iter()
                .map(|n| {
                    db.interner()
                        .get(n)
                        .ok_or("mutation constant is not interned")
                })
                .collect::<Result<_, _>>()?;
            rec.time("delta.apply_delta", || {
                mc.apply_delta(&db, &m.rel, &tuple, insert)
            })
            .map_err(|e| format!("apply_delta: {e}"))?;
            let expected = if insert { &live.with } else { &live.without };
            tally(&mc.count().to_string() == expected);
        }
    }
    Ok(pinned)
}

/// Wire layer: `Request::encode` and `Response::decode` on the workload's
/// own frames, `BATCH` calls a span.
fn wire_layer(live: &Live, mix: &[usize], ops: &mut Ops) -> Result<(), String> {
    let rec = ops.rec;
    for (slot, &qi) in mix.iter().enumerate() {
        ops.begin(slot);
        let request = Request::Count {
            db: DB.into(),
            query: live.inputs.queries[qi].clone(),
            budget_ms: 0,
        };
        rec.time("server.encode_request", || {
            for _ in 0..BATCH {
                black_box(black_box(&request).encode(V4, 0));
            }
        });
        let reply = Response::Count {
            value: live.expected[qi].clone(),
            plan: "cached".into(),
            cached: live.spec.tier,
            degraded: false,
            fingerprint: 0x5EED,
        }
        .encode(V4, 0);
        let mut ok = true;
        rec.time("server.decode_response", || {
            for _ in 0..BATCH {
                let decoded = parse_frame_prefix(black_box(&reply))
                    .ok()
                    .flatten()
                    .and_then(|(frame, _)| Response::decode(&frame).ok());
                ok &= decoded.is_some();
            }
        });
        if !ok {
            return Err("a reply frame of this workload does not decode".into());
        }
    }
    Ok(())
}

/// Mutation cycles against the daemon, unspanned: their cost shows in the
/// `METRICS` deltas around them and in the returned latencies (µs) of the
/// acknowledged mutations and of the correct recounts after them.
fn mutation_replay(live: &Live, client: &mut Client, cycles: usize) -> (Vec<f64>, Vec<f64>) {
    let m = &live.inputs.mutation;
    let values: Vec<&str> = m.values.iter().map(String::as_str).collect();
    let (mut acks, mut recounts) = (Vec::new(), Vec::new());
    for _ in 0..cycles {
        for (insert, expected) in [(true, &live.with), (false, &live.without)] {
            let start = Instant::now();
            let receipt = if insert {
                client.insert(DB, &m.rel, &values)
            } else {
                client.delete(DB, &m.rel, &values)
            };
            let us = start.elapsed().as_nanos() as f64 / 1_000.0;
            let good = matches!(receipt, Ok(r) if r.changed == 1);
            tally(good);
            if good {
                acks.push(us);
            }
            let start = Instant::now();
            let reply = client.count(DB, &m.query, 0);
            let us = start.elapsed().as_nanos() as f64 / 1_000.0;
            let good = matches!(&reply, Ok(r) if &r.value == expected);
            tally(good);
            if good {
                recounts.push(us);
            }
        }
    }
    (acks, recounts)
}

/// Stops the daemon, then times booting it from the source alone up to
/// its first exact `COUNT` (of the maintained query), ms.
fn timed_boot(live: &mut Live) -> Result<(Client, f64), String> {
    live.stop();
    let start = Instant::now();
    live.boot()?;
    let mut client = live.connect()?;
    let reply = client.count(DB, &live.inputs.mutation.query, 0);
    let ms = start.elapsed().as_secs_f64() * 1_000.0;
    let good = matches!(&reply, Ok(r) if r.value == live.without);
    tally(good);
    Ok((client, if good { ms } else { f64::NAN }))
}

fn finite_sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Runs the traced run of one workload and returns every per-layer
/// metric; the spans go to `<out>/trace-<workload>.jsonl`.
pub fn trace(
    spec: &'static Spec,
    seed: u64,
    scale: Scale,
    dir: &Path,
    out: &Path,
) -> Result<Outcome, String> {
    let once = Scale {
        min_setups: 1,
        rep_budget_s: 0.0,
        ..scale
    };
    let (mut live, _, _) = setup_repeated(spec, seed, dir, &once)?;
    // The replayed queries: evenly spaced over the mix, which lists its
    // queries by kind, so a part of it still has every kind.
    let total = live.inputs.queries.len();
    let mix_len = spec.trace_mix.min(scale.trace_mix_cap).min(total);
    let mix_idx: Vec<usize> = (0..mix_len).map(|i| i * total / mix_len).collect();
    let (mix, mix_idx) = (mix_len, &mix_idx[..]);
    let replay_passes = (spec.replay_passes / scale.shrink).max(1);
    let recon_passes = (spec.recon_passes / scale.shrink).max(1);
    let cycles = (spec.mutation_cycles / scale.shrink).max(10);
    let mut client = live.connect()?;

    // The untraced baseline of this very replay, after a ramp of the same
    // traffic (see `Scale::ramp_s`).
    enter_phase("replay-untraced");
    let off = Recorder::new(false);
    let mut off_ops = Ops {
        rec: &off,
        slots: Vec::new(),
    };
    let ramp_end = Instant::now() + Duration::from_secs_f64(scale.ramp_s);
    while Instant::now() < ramp_end {
        replay(&live, &mut client, mix_idx, 1, &mut off_ops)?;
    }
    off_ops.slots.clear();
    let untraced = replay(&live, &mut client, mix_idx, replay_passes, &mut off_ops)?;

    enter_phase("replay-traced");
    let rec = Recorder::new(true);
    let mut ops = Ops {
        rec: &rec,
        slots: Vec::new(),
    };
    let before = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let traced = replay(&live, &mut client, mix_idx, replay_passes, &mut ops)?;
    let after = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let replay_ops = ops.slots.len();
    let delta = |name: &str, label: Option<(&str, &str)>| {
        series(&after, name, label) - series(&before, name, label)
    };
    let requests = replay_ops as f64;
    let ratio = |hits: f64, misses: f64| {
        // No lookup at all (a count-warm hit never consults the plan
        // cache) misses nothing.
        if hits + misses == 0.0 {
            1.0
        } else {
            hits / (hits + misses)
        }
    };
    let plan_hit_ratio = ratio(
        delta("cqcount_cache_hits_total", Some(("cache", "plan"))),
        delta("cqcount_cache_misses_total", Some(("cache", "plan"))),
    );
    let count_hit_ratio = ratio(
        delta("cqcount_cache_hits_total", Some(("cache", "count"))),
        delta("cqcount_cache_misses_total", Some(("cache", "count"))),
    );
    let fast_path = delta("cqcount_fast_path_hits_total", None) / requests;
    let wakeups = delta("cqcount_reactor_wakeups_total", None) / requests;
    let evictions = delta("cqcount_cache_evictions_total", Some(("cache", "plan")))
        + delta("cqcount_cache_evictions_total", Some(("cache", "count")));

    // PROFILE in place of COUNT on the same ops (never served inline).
    enter_phase("profile");
    let mut profiled = Vec::new();
    let profile_passes = replay_passes.min(50);
    for _ in 0..profile_passes {
        live.reset(&mut client)?;
        for &qi in mix_idx {
            let start = Instant::now();
            let reply = client.profile(DB, &live.inputs.queries[qi], 0);
            let us = start.elapsed().as_nanos() as f64 / 1_000.0;
            let good = matches!(&reply, Ok(r) if r.value == live.expected[qi]);
            tally(good);
            // A failed op keeps its slot so queries stay paired.
            profiled.push(if good { us } else { f64::NAN });
        }
    }

    // Before any mutation thaws a frozen relation off its mapped pages.
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let served = stats
        .dbs
        .iter()
        .find(|d| d.name == DB)
        .ok_or("STATS lists no served database")?;
    let (mapped_bytes, resident_bytes) = (served.mapped_bytes as f64, served.resident_bytes as f64);

    enter_phase("mutation-replay");
    let before = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let (acks, recounts) = mutation_replay(&live, &mut client, cycles);
    let after = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let mdelta = |name: &str| series(&after, name, None) - series(&before, name, None);
    let mutations = mdelta("cqcount_mutations_total").max(1.0);
    let wal_bytes = mdelta("cqcount_wal_bytes_total") / mutations;
    let wal_fsyncs = mdelta("cqcount_wal_fsyncs_total") / mutations;
    let snapshots = mdelta("cqcount_snapshots_written_total");
    let bags_touched = mdelta("cqcount_delta_bags_touched_total") / mutations;
    let fallbacks = mdelta("cqcount_delta_fallbacks_total");

    // Restart without SYNC: what recovery replays is what the cycles above
    // left in the WAL.
    enter_phase("restart");
    drop(client);
    let (mut client, _) = timed_boot(&mut live)?;
    let replayed = client
        .stats()
        .map_err(|e| format!("stats: {e}"))?
        .dbs
        .iter()
        .find(|d| d.name == DB)
        .map_or(0.0, |d| d.recovered_records as f64);
    // After SYNC: what an operator's restart of a quiesced daemon costs.
    client.sync(DB).map_err(|e| format!("sync: {e}"))?;
    drop(client);
    let mut restarts = Vec::new();
    for _ in 0..scale.restarts {
        restarts.push(timed_boot(&mut live)?.1);
    }
    let restarts_ok = finite_sorted(&restarts);

    enter_phase("reconstruct");
    let frozen;
    let db: &Database = match spec.backing {
        Backing::Mmap => {
            frozen = live.fresh_db()?;
            &frozen
        }
        _ => &live.heap_db,
    };
    let recon_start = ops.slots.len();
    let mut counts = ReconCounts::default();
    reconstruct(&live, db, mix_idx, recon_passes, &mut ops, &mut counts)?;
    let recon_end = ops.slots.len();
    wire_layer(&live, mix_idx, &mut ops)?;
    let wire_end = ops.slots.len();
    let store_bytes = store_layer(&live, dir, &mut ops)?;
    let pinned_rows = delta_layer(&live, cycles, &mut ops)?;

    let all_ops = std::mem::take(&mut ops.slots);
    let spans: Vec<Span> = rec.into_spans();
    let self_ns = self_times_ns(&spans);
    let trace_path = out.join(format!("trace-{}.jsonl", spec.name));
    write_jsonl(&trace_path, &spans).map_err(|e| format!("{}: {e}", trace_path.display()))?;

    // µs per op of `name` over the ops `range`, mix-averaged.
    let layer = |name: &str, range: std::ops::Range<usize>| -> f64 {
        let per_op: Vec<f64> = per_op_self_ns(&spans, &self_ns, name, all_ops.len())[range.clone()]
            .iter()
            .map(|&ns| ns as f64 / 1_000.0)
            .collect();
        mix_mean(&per_op, &all_ops[range], mix)
    };
    // Median µs per span of `name` (layers measured outside the mix).
    let per_span = |name: &str| -> f64 {
        let own: Vec<f64> = spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1_000.0)
            .collect();
        if own.is_empty() {
            0.0
        } else {
            median(&own)
        }
    };
    let recon = recon_start..recon_end;
    let wire = recon_end..wire_end;
    let parse_us = layer("query.parse", recon.clone());
    let fingerprint_us = layer("query.fingerprint", recon.clone());
    let prepare_us = layer("core.prepare_plan", recon.clone());
    let count_us = layer("core.count_prepared", recon.clone());
    let scan_us = layer("relational.atom_scan", recon.clone());
    let join_us = layer("relational.join", recon.clone());
    let reduce_us = layer("relational.full_reduce", recon.clone());
    let project_us = layer("relational.project", recon.clone());
    let dp_us = layer("core.count_over_tree", recon.clone());
    let roundtrip_us = layer("server.roundtrip", 0..replay_ops);
    let build_us = per_span("delta.build");
    // Library time behind one reply of this workload's tier: what the
    // daemon must do in-process, the rest of the round trip is `server`.
    let materialize_us = layer("delta.materialize_attempt", recon.clone());
    let library_us = match spec.tier {
        CacheTier::CountWarm => 0.0,
        CacheTier::PlanWarm => parse_us + fingerprint_us + count_us + materialize_us,
        CacheTier::Cold => parse_us + fingerprint_us + prepare_us + count_us + materialize_us,
    };
    let recon_ops = &all_ops[recon.clone()];
    let count_mean = |values: &[f64]| mix_mean(values, recon_ops, mix);

    let traced_ok = finite_sorted(&traced);
    let acks_ok = finite_sorted(&acks);
    let recounts_ok = finite_sorted(&recounts);
    for (name, n, p) in [
        ("server.count_p90_tail_us", traced_ok.len(), 0.9),
        ("server.count_p99_tail_us", traced_ok.len(), 0.99),
        ("server.mutate_p99_tail_us", acks_ok.len(), 0.99),
    ] {
        if !tail_supported(n, p) {
            eprintln!(
                "{}: {name} rests on {n} samples, fewer than ten beyond it",
                spec.name
            );
        }
    }
    // Overheads compare the same queries: per query the median latency,
    // averaged over the mix, with against without.
    let replay_slots = &all_ops[..replay_ops];
    let count_off = mix_mean(&untraced, replay_slots, mix);
    let count_on = mix_mean(&traced, replay_slots, mix);
    let profile_on = mix_mean(&profiled, &replay_slots[..profiled.len()], mix);
    // `mix_mean` of a phase without one correct reply is 0.
    if count_off == 0.0
        || count_on == 0.0
        || profile_on == 0.0
        || acks_ok.is_empty()
        || recounts_ok.is_empty()
        || restarts_ok.is_empty()
    {
        return Err("a traced phase produced no correct reply".into());
    }
    let pct = |with: f64, without: f64| (with - without) / without * 100.0;

    let metric = |name, unit, value, samples| Metric {
        name,
        unit,
        value,
        samples,
    };
    let n_recon = recon.len();
    let metrics = vec![
        metric("query.parse_us", "us", parse_us, n_recon),
        metric("query.fingerprint_us", "us", fingerprint_us, n_recon),
        metric(
            "core.core_search_us",
            "us",
            layer("core.core_search", recon.clone()),
            n_recon,
        ),
        metric(
            "core.width_search_us",
            "us",
            layer("core.width_search", recon.clone()),
            n_recon,
        ),
        metric("core.prepare_plan_us", "us", prepare_us, n_recon),
        metric(
            "core.widths_tried",
            "count",
            count_mean(&counts.widths_tried),
            n_recon,
        ),
        metric(
            "core.plan_width",
            "count",
            count_mean(&counts.plan_width),
            n_recon,
        ),
        metric(
            "exec.plan_par_speedup",
            "ratio",
            layer("exec.prepare_plan_1t", recon.clone()) / prepare_us,
            n_recon,
        ),
        metric(
            "exec.count_par_speedup",
            "ratio",
            layer("exec.count_prepared_1t", recon.clone()) / count_us,
            n_recon,
        ),
        metric("core.count_prepared_us", "us", count_us, n_recon),
        metric("relational.atom_scan_us", "us", scan_us, n_recon),
        metric("relational.join_us", "us", join_us, n_recon),
        metric(
            "relational.semijoin_us",
            "us",
            layer("relational.semijoin", recon.clone()),
            n_recon,
        ),
        metric(
            "relational.wcoj_bags",
            "count",
            count_mean(&counts.leapfrog_bags),
            n_recon,
        ),
        metric("relational.full_reduce_us", "us", reduce_us, n_recon),
        metric("relational.project_us", "us", project_us, n_recon),
        metric("core.count_over_tree_us", "us", dp_us, n_recon),
        metric(
            "core.kernel_coverage_pct",
            "%",
            (scan_us + join_us + reduce_us + project_us + dp_us) / count_us * 100.0,
            n_recon,
        ),
        metric(
            "relational.bag_rows",
            "count",
            count_mean(&counts.bag_rows),
            n_recon,
        ),
        metric(
            "relational.bag_rows_per_answer",
            "ratio",
            count_mean(&counts.bag_rows_per_answer),
            n_recon,
        ),
        metric(
            "relational.parse_database_us",
            "us",
            per_span("relational.parse_database"),
            STORE_REPS,
        ),
        metric(
            "relational.encode_store_us",
            "us",
            per_span("relational.encode_store"),
            STORE_REPS,
        ),
        metric(
            "relational.open_store_us",
            "us",
            per_span("relational.open_store"),
            STORE_REPS,
        ),
        metric("relational.store_bytes", "B", store_bytes, 1),
        metric("server.mmap_served_bytes", "B", mapped_bytes, 1),
        metric("server.resident_bytes", "B", resident_bytes, 1),
        metric(
            "delta.materialize_attempt_us",
            "us",
            materialize_us,
            n_recon,
        ),
        metric("delta.build_us", "us", build_us, STORE_REPS),
        metric(
            "delta.apply_delta_us",
            "us",
            per_span("delta.apply_delta"),
            2 * cycles,
        ),
        metric("delta.pinned_rows", "count", pinned_rows, 1),
        metric(
            "server.delta_bags_touched_per_mutation",
            "ratio",
            bags_touched,
            2 * cycles,
        ),
        metric("server.delta_fallbacks", "count", fallbacks, 2 * cycles),
        metric("server.wal_bytes_per_mutation", "B", wal_bytes, 2 * cycles),
        metric(
            "server.wal_fsyncs_per_mutation",
            "ratio",
            wal_fsyncs,
            2 * cycles,
        ),
        metric("server.snapshots_written", "count", snapshots, 2 * cycles),
        metric("server.recover_replayed_records", "count", replayed, 1),
        metric(
            "server.encode_request_us",
            "us",
            layer("server.encode_request", wire.clone()) / BATCH as f64,
            mix * BATCH,
        ),
        metric(
            "server.decode_response_us",
            "us",
            layer("server.decode_response", wire) / BATCH as f64,
            mix * BATCH,
        ),
        metric("server.roundtrip_us", "us", roundtrip_us, replay_ops),
        metric(
            "server.overhead_us",
            "us",
            roundtrip_us - library_us,
            replay_ops,
        ),
        metric(
            "server.plan_cache_hit_ratio",
            "ratio",
            plan_hit_ratio,
            replay_ops,
        ),
        metric(
            "server.count_cache_hit_ratio",
            "ratio",
            count_hit_ratio,
            replay_ops,
        ),
        metric(
            "server.fast_path_hits_per_request",
            "ratio",
            fast_path,
            replay_ops,
        ),
        metric("server.cache_evictions", "count", evictions, replay_ops),
        metric(
            "server.reactor_wakeups_per_request",
            "ratio",
            wakeups,
            replay_ops,
        ),
        metric(
            "server.count_p90_tail_us",
            "us",
            percentile(&traced_ok, 0.9),
            traced_ok.len(),
        ),
        metric(
            "server.count_p99_tail_us",
            "us",
            percentile(&traced_ok, 0.99),
            traced_ok.len(),
        ),
        metric(
            "server.mutate_p50_us",
            "us",
            percentile(&acks_ok, 0.5),
            acks_ok.len(),
        ),
        metric(
            "server.mutate_p99_tail_us",
            "us",
            percentile(&acks_ok, 0.99),
            acks_ok.len(),
        ),
        metric(
            "server.recount_p50_us",
            "us",
            percentile(&recounts_ok, 0.5),
            recounts_ok.len(),
        ),
        metric(
            "server.restart_p50_ms",
            "ms",
            percentile(&restarts_ok, 0.5),
            restarts_ok.len(),
        ),
        metric("process.peak_rss_mb", "MiB", peak_rss_mb(), 1),
        metric(
            "obs.trace_overhead_pct",
            "%",
            pct(count_on, count_off),
            traced_ok.len(),
        ),
        metric(
            "obs.profile_overhead_pct",
            "%",
            pct(profile_on, count_off),
            profiled.len(),
        ),
    ];
    Ok(Outcome {
        attempted: PROGRESS.attempted.load(Ordering::Relaxed),
        failed: PROGRESS.failed.load(Ordering::Relaxed),
        metrics,
    })
}
