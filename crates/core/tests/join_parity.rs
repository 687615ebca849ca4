//! Parity of the one bag-join path, the fold of binary hash join-projects
//! over a bag's λ-atoms, on cyclic λ. Each query is counted through its
//! `#`-hypertree decomposition and through a one-vertex tree holding every
//! atom, whose λ-atoms form a cyclic hypergraph; both run on the heap
//! database and on its store round-trip (frozen pages), and every count
//! must equal brute-force enumeration. The ring queries are the shapes
//! whose own plan has a bag with a cyclic λ; they are counted through
//! `prepare_plan` + `count_prepared` at one lane and at eight. Seeded
//! loops per the in-repo convention; `exhaustive-tests` raises the seed
//! count.

use cqcount_core::prelude::*;
use cqcount_decomp::Hypertree;
use cqcount_exec::with_threads;
use cqcount_hypergraph::{is_acyclic, Hypergraph};
use cqcount_query::canonical::atom_bindings;
use cqcount_query::{parse_program, parse_query, ConjunctiveQuery};
use cqcount_relational::store::{encode_store, load_store_bytes};
use cqcount_relational::Database;
use cqcount_workloads::random::{random_cyclic_query, random_database, RandomDbConfig};

const SEEDS: u64 = if cfg!(feature = "exhaustive-tests") {
    24
} else {
    4
};

/// `db` reloaded from its store image: every relation on a frozen page.
fn store_round_trip(db: &Database) -> Database {
    load_store_bytes(&encode_store(db, 1, 0))
        .expect("store round-trip")
        .db
}

/// Do these atoms of `q` form a cyclic hypergraph?
fn cyclic(q: &ConjunctiveQuery, lam: &[usize]) -> bool {
    !is_acyclic(&Hypergraph::from_edges(lam.iter().map(|&ai| {
        q.atoms()[ai]
            .vars()
            .iter()
            .map(|v| v.node())
            .collect::<Vec<_>>()
    })))
}

/// Counts `q` through its `#`-hypertree decomposition and through a
/// one-vertex tree whose λ is every atom (one cyclic bag), on `db` and on
/// its store round-trip, and checks all four against brute force.
fn assert_both_trees_agree(q: &ConjunctiveQuery, db: &Database, tag: &str) {
    let sd = sharp_hypertree_decomposition(q, 3).expect("cyclic test query fits width 3");
    let chi = q.atoms().iter().flat_map(|a| a.vars()).map(|v| v.node());
    let all_atoms: Vec<usize> = (0..q.atoms().len()).collect();
    assert!(cyclic(q, &all_atoms), "{tag}: the one bag must be cyclic");
    let whole = Hypertree::from_parts(vec![chi.collect()], vec![all_atoms], vec![None]);
    let frozen = store_round_trip(db);
    let brute = count_brute_force(q, db);
    for (backing, d) in [("heap", db), ("frozen", &frozen)] {
        assert_eq!(
            count_with_decomposition(&sd.qprime, d, &sd.hypertree),
            brute,
            "{tag}: decomposition on {backing}"
        );
        assert_eq!(
            count_with_decomposition(q, d, &whole),
            brute,
            "{tag}: one cyclic bag on {backing}"
        );
    }
}

#[test]
fn one_cyclic_bag_and_decomposition_count_identically() {
    for seed in 0..SEEDS {
        let q = random_cyclic_query(6, seed);
        let db = random_database(
            &q,
            &RandomDbConfig {
                tuples_per_rel: 40,
                domain: 6,
            },
            seed ^ 0x9e37,
        );
        assert_both_trees_agree(&q, &db, &format!("seed {seed}"));
    }
}

#[test]
fn triangles_with_shared_and_constant_atoms() {
    // A cyclic bag mixing plain atoms with repeated-variable and constant
    // atoms: every scan must canonicalize before the fold joins it.
    let (q, db) = parse_program(
        "e(a, b). e(b, c). e(c, a). e(a, a). p(a). p(b).
         ans(X, Y) :- e(X, Y), e(Y, Z), e(Z, X), e(X, X), p(X).",
    )
    .unwrap();
    assert_both_trees_agree(&q.unwrap(), &db, "triangle");
}

#[test]
fn nullary_atom_in_a_cyclic_bag() {
    for truth in [true, false] {
        let fact = if truth { "p()." } else { "" };
        let src = format!(
            "e(a, b). e(b, c). e(c, a). e(a, c). {fact}
             ans(X, Y) :- p(), e(X, Y), e(Y, Z), e(Z, X)."
        );
        let (q, mut db) = parse_program(&src).unwrap();
        let q = q.unwrap();
        db.ensure_relation("p", 0);
        let frozen = store_round_trip(&db);
        // The scan of a frozen nullary atom reads its truth off the row
        // count, and joining it keeps or empties the other side.
        let p = atom_bindings(&q.atoms()[0], &frozen);
        let e = atom_bindings(&q.atoms()[1], &frozen);
        assert_eq!(p.len(), usize::from(truth));
        assert_eq!(p.join(&e).len(), if truth { e.len() } else { 0 });
        assert_both_trees_agree(&q, &db, &format!("p() = {truth}"));
    }
}

/// The three-atom ring and its four-atom analogue: every free variable
/// hangs off one existential cycle, so the frontier needs one bag holding
/// every atom, and that bag's λ is cyclic.
const RINGS: [(&str, usize); 2] = [
    ("ans(X, Y, Z) :- r(A, B, X), s(B, C, Y), t(C, A, Z).", 3),
    (
        "ans(W, X, Y, Z) :- r(A, B, W), s(B, C, X), t(C, D, Y), u(D, A, Z).",
        4,
    ),
];

#[test]
fn ring_plans_count_through_a_cyclic_bag() {
    for (src, cap) in RINGS {
        let q = parse_query(src).unwrap();
        let plan = prepare_plan(&q, cap);
        let sd = plan.sharp.as_ref().expect("ring plans within its cap");
        assert!(
            sd.hypertree
                .lambda
                .iter()
                .any(|lam| cyclic(&sd.qprime, lam)),
            "{src}: the plan must have a bag with a cyclic λ"
        );
        for seed in 0..SEEDS {
            let db = random_database(
                &q,
                &RandomDbConfig {
                    tuples_per_rel: 60,
                    domain: 5,
                },
                seed,
            );
            let frozen = store_round_trip(&db);
            let brute = count_brute_force(&q, &db);
            for (backing, d) in [("heap", &db), ("frozen", &frozen)] {
                for lanes in [1, 8] {
                    let (n, chosen) = with_threads(lanes, || {
                        count_prepared(&q, d, &plan, &Budget::unlimited()).unwrap()
                    });
                    assert_eq!(
                        chosen,
                        Plan::SharpPipeline { width: cap },
                        "{src}: {backing}, {lanes} lanes"
                    );
                    assert_eq!(n, brute, "{src}: seed {seed} on {backing}, {lanes} lanes");
                }
            }
        }
    }
}
