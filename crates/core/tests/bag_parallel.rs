//! The count path's one parallel call — the per-bag view build in
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
use std::collections::{BTreeSet, HashMap};

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
/// session, returning the count, the number of bags `bag_views` builds
/// (those of the decomposition completed with every atom) and how many
/// `par_map` blocks (`exec.task` spans) the count ran. Every task must hang
/// under the test's root span, even those recorded on lanes that exited
/// before the trace was collected.
fn traced_count(q: &ConjunctiveQuery, db: &Database) -> (cqcount_arith::Natural, usize, usize) {
    let _session = trace::TraceSession::begin();
    let root = trace::span("test.count");
    let id = root.id();
    let (n, sd) = count_via_sharp_decomposition(q, db, 4).expect("width ≤ 4");
    drop(root);
    let records = trace::collect(id);
    let parent_of: HashMap<u64, u64> = records.iter().map(|r| (r.id, r.parent)).collect();
    let tasks: Vec<_> = records.iter().filter(|r| r.name == "exec.task").collect();
    for task in &tasks {
        let mut at = task.parent;
        while at != id.raw() {
            at = *parent_of
                .get(&at)
                .unwrap_or_else(|| panic!("exec.task {} is cut off from the root", task.id));
        }
    }
    let atoms: Vec<cqcount_hypergraph::NodeSet> = sd
        .qprime
        .atoms()
        .iter()
        .map(|a| a.vars().iter().map(|v| v.node()).collect())
        .collect();
    let needed: Vec<usize> = (0..atoms.len()).collect();
    let bags = sd.hypertree.complete(&needed, &atoms).len();
    (n, bags, tasks.len())
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
                let (n, bags, tasks) = with_threads(threads, || traced_count(&q, db));
                assert_eq!(n, expected, "{src} on {backing} at {threads} threads");
                if threads == 1 {
                    assert_eq!(tasks, 0, "{src}: one lane never spawns a lane");
                } else {
                    assert_eq!(
                        tasks,
                        (4 * threads).min(bags),
                        "{src} on {backing} at {threads} lanes: one task per block"
                    );
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
        let (n, _, tasks) = with_threads(8, || traced_count(&q, &db));
        assert_eq!(n, count_via_full_join(&q, &db), "{src}");
        assert_eq!(tasks, 0, "{src}: a 16-tuple count ran par_map blocks");
    }
}
