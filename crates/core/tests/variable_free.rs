//! A query whose body has no variable is a yes/no question about ground
//! facts: it counts 1 when every fact holds and 0 otherwise. Its core has
//! no node, so its decomposition is one bag with an empty `χ`, and every
//! ground atom hangs off that bag after completion. These tests hold the
//! three structural entries to brute force on such queries, with every
//! fact present, with a relation empty, and with a relation holding only
//! other constants.

use cqcount_arith::Natural;
use cqcount_core::planner::WIDTH_CAP;
use cqcount_core::prelude::*;
use cqcount_query::{parse_database, parse_query};

const QUERIES: [&str; 2] = ["ans() :- p(a).", "ans() :- p(a), q(b)."];

/// The facts of each database, and what each query counts over it.
const DATABASES: [(&str, [u64; 2]); 3] = [
    ("p(a). q(b).", [1, 1]),
    // `q` is empty.
    ("p(a).", [1, 0]),
    // `p` and `q` hold, but not the asked-for constants.
    ("p(c). q(c).", [0, 0]),
];

#[test]
fn variable_free_queries_count_like_brute_force() {
    for (facts, expected) in DATABASES {
        let db = parse_database(facts).unwrap();
        for (src, want) in QUERIES.iter().zip(expected) {
            let q = parse_query(src).unwrap();
            let want = Natural::from(want);
            assert_eq!(count_brute_force(&q, &db), want, "{src} over {facts}");
            assert_eq!(count_auto(&q, &db), want, "{src} over {facts}: auto");

            let plan = prepare_plan(&q, WIDTH_CAP);
            let sd = plan
                .sharp
                .as_ref()
                .expect("a variable-free query decomposes");
            assert_eq!(sd.hypertree.len(), 1, "{src}: one bag");
            assert!(sd.hypertree.chi[0].is_empty(), "{src}: with an empty χ");
            let (n, _) = count_prepared(&q, &db, &plan, &Budget::unlimited()).unwrap();
            assert_eq!(n, want, "{src} over {facts}: prepared");

            let mut answers = 0u64;
            assert!(for_each_answer(&q, &db, WIDTH_CAP, |answer| {
                assert!(answer.is_empty(), "{src}: an answer binds nothing");
                answers += 1;
                true
            }));
            assert_eq!(Natural::from(answers), want, "{src} over {facts}: answers");
        }
    }
}
