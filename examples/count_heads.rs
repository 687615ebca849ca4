//! The count path's bag views, head by head: rebuilds the shapes of the
//! benchmark's `count_acyclic` (a chain `r(A,B), s(B,C), t(C)` of 44k, 44k
//! and 5k tuples over domains of 20k, 10k and 10k values) and
//! `count_cyclic` (a random 16k-edge graph on 2 000 vertices) in process,
//! and for every head prints
//!
//! * the best of five `count_prepared` times;
//! * the rows and columns of the textbook bag views `r_p = π_χ(p)(⋈ λ(p))`
//!   (`BagPlan::textbook`) against those the count builds (`BagPlan::count`), which
//!   drop bag-local existential columns and absorb one-atom ears before
//!   the join;
//! * the rows the count keeps once each bag's last step is filtered by its
//!   children (`BagPlan::upward_views`, the reducer's upward sweep run
//!   while the bags are built).
//!
//! Every count is checked against `count_via_full_join`, and against
//! brute force on the same shapes at 1/100 of the size.
//!
//! Run with: `cargo run --release --example count_heads [-- --scale S]`
//! (`S` scales every size and domain; the default is 1).

use cqcount::arith::prng::Rng;
use cqcount::core::planner::WIDTH_CAP;
use cqcount::prelude::*;
use std::collections::HashSet;
use std::time::{Duration, Instant};

const CHAIN_HEADS: [&str; 5] = ["A, B, C", "A", "B", "C", "A, C"];
const CHAIN_BODY: &str = "r(A, B), s(B, C), t(C)";
const CYCLIC: [&str; 3] = [
    "ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).",
    "ans(X) :- e(X, Y), e(Y, Z), e(Z, X).",
    "ans(X, Y) :- e(X, Y), e(Y, Z), e(Z, W), e(W, X).",
];

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(1)
}

/// `n` distinct random pairs from `left × right` (capped at its size).
fn distinct_pairs(rng: &mut Rng, n: usize, left: usize, right: usize) -> Vec<(usize, usize)> {
    let n = n.min(left * right);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let pair = (rng.range_usize(0, left), rng.range_usize(0, right));
        if seen.insert(pair) {
            out.push(pair);
        }
    }
    out
}

fn add(db: &mut Database, rel: &str, names: &[String]) {
    let values = names.iter().map(|n| db.value(n)).collect();
    db.add_tuple(rel, values);
}

/// The chain database: `r(A,B)`, `s(B,C)` random and distinct, `t(C)`
/// every other `C` value.
fn chain_db(scale: f64, seed: u64) -> Database {
    let mut rng = Rng::seed_from_u64(seed);
    let (a, b, c) = (
        scaled(20_000, scale),
        scaled(10_000, scale),
        scaled(10_000, scale),
    );
    let mut db = Database::new();
    for (x, y) in distinct_pairs(&mut rng, scaled(44_000, scale), a, b) {
        add(&mut db, "r", &[format!("a{x}"), format!("b{y}")]);
    }
    for (x, y) in distinct_pairs(&mut rng, scaled(44_000, scale), b, c) {
        add(&mut db, "s", &[format!("b{x}"), format!("c{y}")]);
    }
    for z in 0..scaled(5_000, scale) {
        add(&mut db, "t", &[format!("c{}", 2 * z)]);
    }
    db
}

/// A random directed graph without self-loops.
fn graph_db(scale: f64, seed: u64) -> Database {
    let mut rng = Rng::seed_from_u64(seed);
    let nodes = scaled(2_000, scale);
    let edges = scaled(16_000, scale).min(nodes * (nodes - 1));
    let mut db = Database::new();
    let mut seen = HashSet::with_capacity(edges);
    while seen.len() < edges {
        let (x, y) = (rng.range_usize(0, nodes), rng.range_usize(0, nodes));
        if x != y && seen.insert((x, y)) {
            add(&mut db, "e", &[format!("n{x}"), format!("n{y}")]);
        }
    }
    db
}

fn queries() -> Vec<(&'static str, String)> {
    let chain = CHAIN_HEADS
        .iter()
        .map(|head| ("count_acyclic", format!("ans({head}) :- {CHAIN_BODY}.")));
    let cyclic = CYCLIC.iter().map(|q| ("count_cyclic", q.to_string()));
    chain.chain(cyclic).collect()
}

fn count(q: &ConjunctiveQuery, db: &Database, plan: &PreparedPlan) -> Natural {
    count_prepared(q, db, plan, &Budget::unlimited())
        .expect("an unlimited budget never trips")
        .0
}

fn rows_and_cols(views: &[Bindings]) -> (usize, usize) {
    (
        views.iter().map(Bindings::len).sum(),
        views.iter().map(|v| v.cols().len()).sum(),
    )
}

/// The database of one workload's shape.
fn db_of<'a>(dbs: &'a [(&str, Database)], shape: &str) -> &'a Database {
    &dbs.iter().find(|(s, _)| *s == shape).unwrap().1
}

fn main() {
    let mut scale = 1.0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--scale", Some(s)) => scale = s.parse().expect("--scale takes a number"),
            _ => panic!("usage: count_heads [--scale S]"),
        }
    }
    let dbs = |s: f64| {
        [
            ("count_acyclic", chain_db(s, 1)),
            ("count_cyclic", graph_db(s, 2)),
        ]
    };
    let full = dbs(scale);
    let small = dbs(scale / 100.0);

    println!(
        "scale {scale}; best of 5 `count_prepared`; bag rows / columns: textbook → count; \
         rows kept after the children's filters"
    );
    println!(
        "{:<14} {:<50} {:>9} {:>10} {:>21} {:>9} {:>8} {:>9}",
        "workload", "query", "ms", "answers", "rows", "cols", "ears", "kept"
    );
    for (shape, src) in queries() {
        let q = parse_query(&src).unwrap();
        let plan = prepare_plan(&q, WIDTH_CAP);
        let sd = plan
            .sharp
            .as_ref()
            .expect("every head has a #-decomposition");

        let db = db_of(&full, shape);
        let n = count(&q, db, &plan);
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let t0 = Instant::now();
            assert_eq!(count(&q, db, &plan), n, "{src}: repeat count moved");
            best = best.min(t0.elapsed());
        }
        assert_eq!(n, count_via_full_join(&q, db), "{src}: full join");

        let textbook = BagPlan::textbook(&sd.qprime, &sd.hypertree).views(db);
        let bags = BagPlan::count(&sd.qprime, &sd.hypertree);
        let built = bags.views(db);
        let (rows_before, cols_before) = rows_and_cols(&textbook.views);
        let (rows_after, cols_after) = rows_and_cols(&built.views);
        let (kept, _) = rows_and_cols(&bags.upward_views(db).views);
        println!(
            "{shape:<14} {src:<50} {:>9.1} {n:>10} {:>21} {:>9} {:>8} {kept:>9}",
            best.as_secs_f64() * 1e3,
            format!("{rows_before} → {rows_after}"),
            format!("{cols_before} → {cols_after}"),
            built.ear_rows_dropped,
        );

        let tiny = db_of(&small, shape);
        let m = count(&q, tiny, &plan);
        assert_eq!(
            m,
            count_brute_force(&q, tiny),
            "{src}: brute force at 1/100"
        );
        assert_eq!(
            m,
            count_via_full_join(&q, tiny),
            "{src}: full join at 1/100"
        );
    }
    println!("every count equals the full join, and brute force at 1/100 scale ✓");
}
