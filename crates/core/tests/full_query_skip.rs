//! A full query (every variable free) counts without the full reducer:
//! the join-tree DP is exact on unreduced bag views, because a dangling
//! row finds no child key and contributes 0. These tests hold that path
//! to brute force and the full-join oracle on instances where every bag
//! holds dangling rows, and check from the span tree that a full count
//! runs no semijoin while a projected one runs both reducer sweeps (and
//! one semijoin per absorbed ear).

use cqcount_arith::prng::Rng;
use cqcount_arith::Natural;
use cqcount_core::prelude::*;
use cqcount_obs::trace;
use cqcount_query::{parse_program, parse_query};
use cqcount_relational::Database;
use std::fmt::Write;

/// Counts `q` through its `#`-hypertree decomposition and checks it
/// against brute force and the full join. With `all_dangle`, also checks
/// that every bag view loses rows to the full reducer — so the count
/// really ran over unreduced views.
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

/// Counts `q` with its decomposition computed outside the trace session,
/// returning how many `algebra.semijoin` spans the count emitted, the
/// number of bags in the completed tree and its number of roots.
fn traced_semijoins(src: &str, db: &Database) -> (usize, usize, usize) {
    let q = parse_query(src).unwrap();
    let sd = sharp_hypertree_decomposition(&q, 1)
        .or_else(|| sharp_hypertree_decomposition(&q, 2))
        .expect("width ≤ 2");
    let tree = BagPlan::count(&sd.qprime, &sd.hypertree).tree;
    let _session = trace::TraceSession::begin();
    let root = trace::span("test.count");
    let id = root.id();
    let n = count_with_decomposition(&sd.qprime, db, &sd.hypertree);
    drop(root);
    assert_eq!(n, count_brute_force(&q, db), "{src}");
    let semijoins = trace::collect(id)
        .iter()
        .filter(|r| r.name == "algebra.semijoin")
        .count();
    let roots = tree.parent.iter().filter(|p| p.is_none()).count();
    (semijoins, tree.len(), roots)
}

#[test]
fn full_counts_skip_the_reducer_and_projected_counts_run_both_sweeps() {
    let chain = db_of(
        "r(a1, b1). r(a2, b2). r(a3, b9).
         s(b1, c1). s(b2, c2). s(b7, c1).
         t(c1, d1). t(c2, d2). t(c8, d1).",
    );
    let tri = graph(10, 30, 7);
    for (src, db) in [
        ("ans(A, B, C, D) :- r(A, B), s(B, C), t(C, D).", &chain),
        ("ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).", &tri),
    ] {
        let (semijoins, bags, _) = traced_semijoins(src, db);
        assert!(bags >= 2, "{src}: a one-bag tree proves nothing");
        assert_eq!(semijoins, 0, "{src}: a full count ran the reducer");
    }
    // `ans(A, C)` over the unary `t` builds one {r, s} bag, and the one-atom
    // bag t(C) beside it is an ear: its semijoin into the s-scan comes on
    // top of the reducer's.
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
        let (semijoins, bags, roots) = traced_semijoins(src, db);
        assert!(bags >= 2, "{src}: a one-bag tree proves nothing");
        assert_eq!(roots, 1, "{src}: the completed tree is connected");
        assert_eq!(
            semijoins,
            2 * (bags - 1) + ears,
            "{src}: one per tree edge and sweep, and one per ear"
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
