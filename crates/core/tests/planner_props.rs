//! Seeded property tests for the planner: on random queries, counting
//! through the width sweep's witness must agree with brute-force
//! enumeration, at any pool size the *counting* stage runs on (planning
//! itself is single-lane and makes no pool calls).
//!
//! Gated behind `exhaustive-tests` (they decompose and brute-force dozens
//! of random instances): `cargo test -p cqcount-core --features
//! exhaustive-tests --test planner_props`.
#![cfg(feature = "exhaustive-tests")]

use cqcount_core::prelude::*;
use cqcount_core::width_search::WidthSearch;
use cqcount_exec::with_threads;
use cqcount_workloads::random::{
    random_cyclic_query, random_database, random_query, RandomCqConfig, RandomDbConfig,
};

#[test]
fn counts_through_either_witness_match_brute_force() {
    let qcfg = RandomCqConfig {
        atoms: 5,
        vars: 5,
        max_arity: 2,
        rels: 3,
        free_prob: 0.5,
    };
    let dbcfg = RandomDbConfig {
        domain: 4,
        tuples_per_rel: 8,
    };
    let mut decomposed = 0usize;
    for seed in 0..40u64 {
        let q = random_query(&qcfg, seed);
        if q.free().is_empty() {
            continue;
        }
        let db = random_database(&q, &dbcfg, seed ^ 0xdead);
        let expected = count_brute_force(&q, &db);
        let Some((_, sd)) = WidthSearch::new(&q).find_up_to(3) else {
            continue;
        };
        decomposed += 1;
        for threads in [1usize, 8] {
            let n = with_threads(threads, || {
                count_with_decomposition(&sd.qprime, &db, &sd.hypertree)
            });
            assert_eq!(n, expected, "seed = {seed}, threads = {threads}");
        }
    }
    assert!(
        decomposed > 10,
        "too few decomposable instances: {decomposed}"
    );
}

#[test]
fn cyclic_counts_agree_across_thread_counts() {
    let dbcfg = RandomDbConfig {
        domain: 3,
        tuples_per_rel: 6,
    };
    for seed in 0..4u64 {
        let q = random_cyclic_query(8, seed);
        let db = random_database(&q, &dbcfg, seed.wrapping_mul(31) + 1);
        let expected = count_brute_force(&q, &db);
        for threads in [1usize, 8] {
            let (n, sd) = with_threads(threads, || {
                count_via_sharp_decomposition(&q, &db, 4).expect("cycle+chords fits width 4")
            });
            assert_eq!(n, expected, "seed = {seed}, threads = {threads}");
            assert!(sd.width <= 4);
        }
    }
}
