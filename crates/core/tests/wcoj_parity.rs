//! Join-path parity property tests. Each seeded cyclic query is counted
//! through two trees: its `#`-hypertree decomposition, whose bags are
//! acyclic and so take the binary sort-merge fold, and a one-bag tree
//! holding every atom, whose λ-atoms are cyclic and so take the leapfrog
//! worst-case-optimal kernel. Both run on the heap database and on its
//! store round-trip (frozen pages, intersected in place by leapfrog), and
//! all four counts must equal brute-force enumeration. Seeded loops per
//! the in-repo convention; `exhaustive-tests` raises the seed count.

use cqcount_core::prelude::*;
use cqcount_core::sharp::wcoj_applies;
use cqcount_decomp::Hypertree;
use cqcount_query::ConjunctiveQuery;
use cqcount_relational::store::{encode_store, load_store_bytes};
use cqcount_relational::Database;
use cqcount_workloads::random::{random_cyclic_query, random_database, RandomDbConfig};

const SEEDS: u64 = if cfg!(feature = "exhaustive-tests") {
    24
} else {
    4
};

/// Counts `q` through its `#`-hypertree decomposition (sort-merge bags)
/// and through a one-vertex tree whose λ is every atom (one leapfrog bag),
/// on `db` and on its store round-trip, and checks all four against brute
/// force.
fn assert_both_paths_agree(q: &ConjunctiveQuery, db: &Database, tag: &str) {
    let sd = sharp_hypertree_decomposition(q, 3).expect("cyclic test query fits width 3");
    let acyclic_bags = |lam: &Vec<usize>| !wcoj_applies(&sd.qprime, lam);
    assert!(sd.hypertree.lambda.iter().all(acyclic_bags), "{tag}");
    let chi = q.atoms().iter().flat_map(|a| a.vars()).map(|v| v.node());
    let all_atoms: Vec<usize> = (0..q.atoms().len()).collect();
    assert!(wcoj_applies(q, &all_atoms), "{tag}: one bag must be cyclic");
    let whole = Hypertree::from_parts(vec![chi.collect()], vec![all_atoms], vec![None]);
    let frozen = load_store_bytes(&encode_store(db, 1, 0))
        .expect("store round-trip")
        .db;
    let brute = count_brute_force(q, db);
    for (backing, d) in [("heap", db), ("frozen", &frozen)] {
        assert_eq!(
            count_with_decomposition(&sd.qprime, d, &sd.hypertree),
            brute,
            "{tag}: sort-merge path on {backing}"
        );
        assert_eq!(
            count_with_decomposition(q, d, &whole),
            brute,
            "{tag}: leapfrog path on {backing}"
        );
    }
}

#[test]
fn leapfrog_and_sort_merge_paths_count_identically_on_cyclic_queries() {
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
        assert_both_paths_agree(&q, &db, &format!("seed {seed}"));
    }
}

#[test]
fn wcoj_handles_triangles_with_shared_and_constant_atoms() {
    // A cyclic query whose bag joins mix plain atoms (frozen-trie
    // eligible after a store round-trip) with repeated-variable and
    // constant atoms (bindings path): the kernel must canonicalize both.
    let (q, db) = cqcount_query::parse_program(
        "e(a, b). e(b, c). e(c, a). e(a, a). p(a). p(b).
         ans(X, Y) :- e(X, Y), e(Y, Z), e(Z, X), e(X, X), p(X).",
    )
    .unwrap();
    assert_both_paths_agree(&q.unwrap(), &db, "triangle");
}
