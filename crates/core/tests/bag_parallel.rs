//! The count path's one pool call — the per-bag view build in
//! `sharp::bag_views` — is entered only when the bags'
//! λ-relations hold at least 4096 rows in total. These tests count over a
//! seeded graph large enough to cross that gate, heap-backed and loaded
//! from a store image, at several lane counts, against the full-join
//! oracle; and they check from the span tree which side of the gate ran.

use cqcount_arith::prng::Rng;
use cqcount_core::prelude::*;
use cqcount_exec::with_threads;
use cqcount_obs::trace;
use cqcount_query::{parse_query, ConjunctiveQuery};
use cqcount_relational::store::{encode_store, open_store};
use cqcount_relational::Database;
use std::collections::BTreeSet;

const QUERIES: [&str; 3] = [
    "ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).",
    "ans(X, Y) :- e(X, Y), e(Y, Z), e(Z, W), e(W, X).",
    "ans(A, C) :- e(A, B), e(B, C), e(C, D).",
];

/// A directed graph with `edges` distinct random edges over `nodes`
/// vertices, as the binary relation `e`.
fn graph(nodes: u32, edges: usize, seed: u64) -> Database {
    let mut rng = Rng::seed_from_u64(seed);
    let mut set = BTreeSet::new();
    while set.len() < edges {
        set.insert((rng.range_u32(0, nodes), rng.range_u32(0, nodes)));
    }
    let mut db = Database::new();
    for (a, b) in set {
        let t = vec![db.value(&format!("v{a}")), db.value(&format!("v{b}"))];
        db.add_tuple("e", t);
    }
    db
}

/// Counts `q` through its `#`-hypertree decomposition under a trace
/// session, returning the count and how many pool tasks (`exec.task`
/// spans) the count ran.
fn traced_count(q: &ConjunctiveQuery, db: &Database) -> (cqcount_arith::Natural, usize) {
    let _session = trace::TraceSession::begin();
    let root = trace::span("test.count");
    let id = root.id();
    let (n, _) = count_via_sharp_decomposition(q, db, 4).expect("width ≤ 4");
    drop(root);
    let tasks = trace::collect(id)
        .iter()
        .filter(|r| r.name == "exec.task")
        .count();
    (n, tasks)
}

#[test]
fn large_counts_cross_the_bag_gate_and_match_the_full_join() {
    let heap = graph(2000, 5000, 0xB46);
    let path = std::env::temp_dir().join(format!("cqcount-bag-gate-{}.store", std::process::id()));
    std::fs::write(&path, encode_store(&heap, 1, 0)).unwrap();
    let stored = open_store(&path).expect("open store image").db;
    let _ = std::fs::remove_file(&path);

    for src in QUERIES {
        let q = parse_query(src).unwrap();
        let expected = count_via_full_join(&q, &heap);
        assert!(!expected.is_zero(), "{src}: the instance must have answers");
        for (backing, db) in [("heap", &heap), ("store", &stored)] {
            for threads in [1usize, 2, 8] {
                let (n, tasks) = with_threads(threads, || traced_count(&q, db));
                assert_eq!(n, expected, "{src} on {backing} at {threads} threads");
                if threads == 1 {
                    assert_eq!(tasks, 0, "{src}: one lane never enters the pool");
                } else {
                    assert!(tasks > 0, "{src} on {backing}: the gate was not crossed");
                }
            }
        }
    }
}

#[test]
fn small_counts_stay_on_the_calling_thread() {
    let db = graph(8, 16, 0x516);
    for src in QUERIES {
        let q = parse_query(src).unwrap();
        let (n, tasks) = with_threads(8, || traced_count(&q, &db));
        assert_eq!(n, count_via_full_join(&q, &db), "{src}");
        assert_eq!(tasks, 0, "{src}: a 16-tuple count entered the pool");
    }
}
