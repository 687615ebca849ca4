//! A full query (every variable free) counts without the full reducer's
//! downward sweep: the join-tree DP is exact on views that only the bag
//! build's fused upward sweep reduced, because a dangling row finds no
//! child key and contributes 0. These tests hold that path
//! to brute force and the full-join oracle on instances where every bag
//! holds dangling rows, and check from the span tree that a full count
//! runs only the upward sweep the bag build fuses in, while a projected
//! one also runs the downward sweep (and one semijoin per absorbed ear).

use cqcount_arith::prng::Rng;
use cqcount_arith::Natural;
use cqcount_core::prelude::*;
use cqcount_obs::trace;
use cqcount_query::{parse_program, parse_query};
use cqcount_relational::Database;
use std::fmt::Write;

/// Counts `q` through its `#`-hypertree decomposition and checks it
/// against brute force and the full join. With `all_dangle`, also checks
/// that every textbook bag view loses rows to the full reducer — so the
/// instance holds a dangling row in every bag.
fn check(src: &str, db: &Database, all_dangle: bool) -> Natural {
    let q = parse_query(src).unwrap();
    assert!(q.existential().is_empty(), "{src} must be a full query");
    let (n, sd) = count_via_sharp_decomposition(&q, db, 3).expect("width ≤ 3");
    assert_eq!(n, count_brute_force(&q, db), "{src}: brute force");
    assert_eq!(n, count_via_full_join(&q, db), "{src}: full join");
    if all_dangle {
        let plan = BagPlan::textbook(&sd.qprime, &sd.hypertree);
        let views = plan.views(db).views;
        let reduced = plan.reduced_views(db).views;
        for (p, (view, kept)) in views.iter().zip(&reduced).enumerate() {
            assert!(
                kept.len() < view.len(),
                "{src}: bag {p} has no dangling row"
            );
        }
    }
    n
}

fn db_of(facts: &str) -> Database {
    parse_program(facts).unwrap().1
}

#[test]
fn full_acyclic_query_with_dangling_rows_in_every_bag() {
    // r(A,B) ⋈ s(B,C) ⋈ t(C,D): (a3,b9) has no s-partner, (b2,c2) no
    // t-partner and no r-partner (b7,c1), t(c8,d1) no s-partner.
    let db = db_of(
        "r(a1, b1). r(a2, b1). r(a2, b2). r(a3, b9).
         s(b1, c1). s(b1, c2). s(b2, c1). s(b7, c1). s(b2, c5).
         t(c1, d1). t(c1, d2). t(c2, d1). t(c8, d1).",
    );
    let n = check("ans(A, B, C, D) :- r(A, B), s(B, C), t(C, D).", &db, true);
    assert_eq!(n, 8u64.into());
    // A repeated variable and a constant in the body, still full.
    check(
        "ans(A, B, C) :- r(A, B), s(B, C), t(C, d1), t(C, C).",
        &db,
        false,
    );
    check("ans(A, B) :- r(A, B), s(B, c1), t(c1, d2).", &db, false);
    let loops = db_of("r(a, a). r(a, b). r(b, c). s(a, x). s(c, y). s(z, z).");
    check(
        "ans(A, B, C) :- r(A, A), r(A, B), s(B, C), s(C, C).",
        &loops,
        false,
    );
    // An empty relation empties the count.
    check("ans(A, B, C) :- r(A, B), s(B, C), missing(C).", &db, false);
}

/// A directed graph of `edges` random distinct edges over `nodes`
/// vertices, as the text of the binary relation `e`.
fn graph(nodes: u32, edges: usize, seed: u64) -> Database {
    let mut rng = Rng::seed_from_u64(seed);
    let mut set = std::collections::BTreeSet::new();
    while set.len() < edges {
        set.insert((rng.range_u32(0, nodes), rng.range_u32(0, nodes)));
    }
    let mut text = String::new();
    for (a, b) in set {
        let _ = writeln!(text, "e(v{a}, v{b}).");
    }
    db_of(&text)
}

#[test]
fn full_cyclic_queries_with_dangling_rows_in_every_bag() {
    for seed in [1u64, 2, 3] {
        let db = graph(12, 40, seed);
        let tri = check("ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).", &db, true);
        assert!(
            !tri.is_zero(),
            "seed {seed}: the instance must have triangles"
        );
        check(
            "ans(X, Y, Z, W) :- e(X, Y), e(Y, Z), e(Z, W), e(W, X).",
            &db,
            true,
        );
        // Repeated variable, constant, and an empty relation on the cycle.
        check("ans(X, Y) :- e(X, Y), e(Y, X), e(X, X).", &db, false);
        check("ans(X, Y) :- e(X, Y), e(Y, v3), e(v3, X).", &db, false);
        check(
            "ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X), none(Z).",
            &db,
            false,
        );
    }
}

/// What one traced count ran, and the shape of its completed tree.
struct Traced {
    /// `algebra.semijoin` spans.
    semijoins: usize,
    /// The rows they removed.
    semijoin_dropped: u64,
    /// The `filtered` counters of the `algebra.join` spans, summed.
    join_filtered: u64,
    /// The rows the child filters removed, as `BagPlan::upward_views`
    /// reports them.
    filtered_rows: u64,
    bags: usize,
    roots: usize,
    /// Tree edges whose parent has at most one λ-atom: such a bag is
    /// semijoined with its children after its scan, not in a join.
    scan_edges: usize,
}

/// Counts `q` with its decomposition computed outside the trace session,
/// and reads what the count ran off the span tree.
fn traced(src: &str, db: &Database) -> Traced {
    let q = parse_query(src).unwrap();
    let sd = sharp_hypertree_decomposition(&q, 1)
        .or_else(|| sharp_hypertree_decomposition(&q, 2))
        .expect("width ≤ 2");
    let plan = BagPlan::count(&sd.qprime, &sd.hypertree);
    let filtered_rows = plan.upward_views(db).filtered_rows as u64;
    let tree = plan.tree;
    let _session = trace::TraceSession::begin();
    let root = trace::span("test.count");
    let id = root.id();
    let n = count_with_decomposition(&sd.qprime, db, &sd.hypertree);
    drop(root);
    assert_eq!(n, count_brute_force(&q, db), "{src}");
    let records = trace::collect(id);
    let counter = |r: &trace::SpanRecord, key: &str| {
        r.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    };
    let semijoins: Vec<_> = records
        .iter()
        .filter(|r| r.name == "algebra.semijoin")
        .collect();
    Traced {
        semijoins: semijoins.len(),
        semijoin_dropped: semijoins
            .iter()
            .map(|r| counter(r, "rows_left") - counter(r, "rows_out"))
            .sum(),
        join_filtered: records
            .iter()
            .filter(|r| r.name == "algebra.join")
            .map(|r| counter(r, "filtered"))
            .sum(),
        filtered_rows,
        bags: tree.len(),
        roots: tree.parent.iter().filter(|p| p.is_none()).count(),
        scan_edges: tree
            .parent
            .iter()
            .flatten()
            .filter(|&&p| tree.lambda[p].len() <= 1)
            .count(),
    }
}

#[test]
fn full_counts_run_no_downward_sweep_and_projected_counts_run_one() {
    // The bag build runs the reducer's upward sweep: a bag of two or more
    // λ-atoms filters its last join by its children, which shows as the
    // join's `filtered` counter and opens no span, and a one-atom bag is
    // semijoined with its children after its scan, one span per tree edge
    // below it. Nothing else semijoins in a full count.
    let chain = db_of(
        "r(a1, b1). r(a2, b2). r(a3, b9).
         s(b1, c1). s(b2, c2). s(b7, c1).
         t(c1, d1). t(c2, d2). t(c8, d1).",
    );
    let tri = graph(10, 30, 7);
    for (src, db, fused) in [
        (
            "ans(A, B, C, D) :- r(A, B), s(B, C), t(C, D).",
            &chain,
            false,
        ),
        ("ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).", &tri, true),
    ] {
        let t = traced(src, db);
        assert!(t.bags >= 2, "{src}: a one-bag tree proves nothing");
        assert_eq!(
            t.semijoins, t.scan_edges,
            "{src}: a full count ran a downward semijoin"
        );
        assert_eq!(
            t.join_filtered + t.semijoin_dropped,
            t.filtered_rows,
            "{src}: every filtered row is counted once"
        );
        assert!(t.filtered_rows > 0, "{src}: no dangling row to filter");
        assert_eq!(t.join_filtered > 0, fused, "{src}: filters fused in a join");
    }
    // A projected count then runs the downward sweep: one semijoin per
    // tree edge. `ans(A, C)` over the unary `t` builds one {r, s} bag, and
    // the one-atom bag t(C) beside it is an ear: its semijoin into the
    // s-scan comes on top, and it filters nothing again.
    let ear = db_of(
        "r(a1, b1). r(a2, b2). r(a3, b9).
         s(b1, c1). s(b2, c2). s(b7, c1). s(b2, c3).
         t(c1). t(c3). t(c8).",
    );
    for (src, db, ears) in [
        ("ans(A) :- r(A, B), s(B, C), t(C, D).", &chain, 0),
        ("ans(A, D) :- r(A, B), s(B, C), t(C, D).", &chain, 0),
        ("ans(X) :- e(X, Y), e(Y, Z), e(Z, X).", &tri, 0),
        ("ans(A, C) :- r(A, B), s(B, C), t(C).", &ear, 1),
    ] {
        let t = traced(src, db);
        assert!(t.bags >= 2, "{src}: a one-bag tree proves nothing");
        assert_eq!(t.roots, 1, "{src}: the completed tree is connected");
        assert_eq!(
            t.semijoins,
            t.scan_edges + (t.bags - 1) + ears,
            "{src}: one downward semijoin per tree edge, and one per ear"
        );
    }
}

#[test]
fn full_and_projected_counts_agree_on_random_chains() {
    // Seeded chain instances dense enough to leave dangling rows: the full
    // count (no reducer) and the projected counts (reducer) both match the
    // full-join oracle.
    let heads = ["A, B, C, D", "A", "B, C", "A, D"];
    for seed in 0..6u64 {
        let mut rng = Rng::seed_from_u64(0xC4A1 + seed);
        let mut text = String::new();
        for rel in ["r", "s", "t"] {
            for _ in 0..rng.range_usize(0, 25) {
                let (x, y) = (rng.range_u32(0, 6), rng.range_u32(0, 6));
                let _ = writeln!(text, "{rel}(v{x}, v{y}).");
            }
        }
        let db = db_of(&text);
        for head in heads {
            let src = format!("ans({head}) :- r(A, B), s(B, C), t(C, D).");
            let q = parse_query(&src).unwrap();
            let (n, _) = count_via_sharp_decomposition(&q, &db, 3).expect("width ≤ 3");
            assert_eq!(n, count_via_full_join(&q, &db), "seed {seed}: {src}");
        }
    }
}
