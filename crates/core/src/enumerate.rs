//! Answer enumeration with polynomial delay (Section 1.1's companion
//! problem, \[43\]).
//!
//! The same structure that makes counting tractable makes *enumeration of
//! the projected answers* tractable: after the Theorem 3.7 pipeline
//! (materialize bag views, reduce to global consistency, project onto the
//! free variables) the projected instance is acyclic and globally
//! consistent, so a pre-order walk of the decomposition tree emits each
//! answer with polynomial delay — every partial choice is guaranteed to
//! extend, so no backtracking dead-ends occur.

use crate::sharp::SharpDecomposition;
use crate::width_search::WidthSearch;
use cqcount_query::{ConjunctiveQuery, Var};
use cqcount_relational::{Bindings, Database, FxHashMap, Tuple, Value};
use std::collections::BTreeMap;

/// Enumerates the distinct answers `π_free(Q)(Q^D)` with polynomial delay,
/// calling `visit` for each; stop early by returning `false`. Requires a
/// `#`-hypertree decomposition of width ≤ `max_k`; returns `false` if none
/// exists (and visits nothing), `true` otherwise.
pub fn for_each_answer<F>(q: &ConjunctiveQuery, db: &Database, max_k: usize, visit: F) -> bool
where
    F: FnMut(&BTreeMap<Var, Value>) -> bool,
{
    let Some((_, sd)) = WidthSearch::new(q).find_up_to(max_k) else {
        return false;
    };
    for_each_answer_with(q, db, &sd, visit);
    true
}

/// Like [`for_each_answer`] with a precomputed decomposition (amortize the
/// structural search over many databases).
pub fn for_each_answer_with<F>(
    q: &ConjunctiveQuery,
    db: &Database,
    sd: &SharpDecomposition,
    mut visit: F,
) where
    F: FnMut(&BTreeMap<Var, Value>) -> bool,
{
    let plan = crate::sharp::BagPlan::count(&sd.qprime, &sd.hypertree);
    let complete = &plan.tree;
    let projected = plan.free_views(db).views;
    if projected.iter().any(Bindings::is_empty) {
        return;
    }

    // Pre-order over the tree (roots in sequence = product of components).
    let mut pre_order = Vec::with_capacity(projected.len());
    let mut stack: Vec<usize> = complete.roots.iter().rev().copied().collect();
    while let Some(v) = stack.pop() {
        pre_order.push(v);
        for &c in complete.children[v].iter().rev() {
            stack.push(c);
        }
    }

    // Per-vertex index: rows grouped by the projection onto the columns
    // shared with the parent. By the join-tree property those are exactly
    // the columns already assigned when the pre-order reaches the vertex.
    struct VertexPlan {
        /// positions (in this vertex's column list) of parent-shared cols
        key_positions: Vec<usize>,
        /// row groups by key
        index: FxHashMap<Tuple, Vec<Tuple>>,
        /// this vertex's columns
        cols: Vec<u32>,
    }
    let plans: Vec<VertexPlan> = (0..projected.len())
        .map(|v| {
            let cols: Vec<u32> = projected[v].cols().to_vec();
            let parent_cols: Vec<u32> = match complete.parent[v] {
                Some(p) => projected[p].cols().to_vec(),
                None => Vec::new(),
            };
            let key_positions: Vec<usize> = (0..cols.len())
                .filter(|&i| parent_cols.contains(&cols[i]))
                .collect();
            let mut index: FxHashMap<Tuple, Vec<Tuple>> = FxHashMap::default();
            for row in projected[v].rows() {
                let key: Tuple = key_positions.iter().map(|&p| row[p]).collect();
                index.entry(key).or_default().push(row.clone());
            }
            VertexPlan {
                key_positions,
                index,
                cols,
            }
        })
        .collect();

    // DFS with an explicit assignment col -> value.
    let var_of: BTreeMap<u32, Var> = q.free().into_iter().map(|v| (v.node(), v)).collect();
    let mut assignment: FxHashMap<u32, Value> = FxHashMap::default();

    fn rec(
        depth: usize,
        pre_order: &[usize],
        plans: &[VertexPlan],
        assignment: &mut FxHashMap<u32, Value>,
        var_of: &BTreeMap<u32, Var>,
        visit: &mut dyn FnMut(&BTreeMap<Var, Value>) -> bool,
    ) -> bool {
        let Some(&v) = pre_order.get(depth) else {
            let answer: BTreeMap<Var, Value> = var_of
                .iter()
                .map(|(&col, &var)| (var, assignment[&col]))
                .collect();
            return visit(&answer);
        };
        let plan = &plans[v];
        let key: Tuple = plan
            .key_positions
            .iter()
            .map(|&p| assignment[&plan.cols[p]])
            .collect();
        let Some(rows) = plan.index.get(&key) else {
            // Cannot happen after global consistency; defensive.
            return true;
        };
        for row in rows {
            let mut added = Vec::new();
            for (i, &col) in plan.cols.iter().enumerate() {
                if let std::collections::hash_map::Entry::Vacant(e) = assignment.entry(col) {
                    e.insert(row[i]);
                    added.push(col);
                }
            }
            let keep_going = rec(depth + 1, pre_order, plans, assignment, var_of, visit);
            for col in added {
                assignment.remove(&col);
            }
            if !keep_going {
                return false;
            }
        }
        true
    }

    rec(0, &pre_order, &plans, &mut assignment, &var_of, &mut visit);
}

/// Materializes all answers (ordered by the enumeration).
pub fn enumerate_answers(
    q: &ConjunctiveQuery,
    db: &Database,
    max_k: usize,
) -> Option<Vec<BTreeMap<Var, Value>>> {
    let mut out = Vec::new();
    let ok = for_each_answer(q, db, max_k, |a| {
        out.push(a.clone());
        true
    });
    ok.then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::count_brute_force;
    use cqcount_arith::Natural;
    use cqcount_query::parse_program;
    use std::collections::BTreeSet;

    fn brute_answers(q: &ConjunctiveQuery, db: &Database) -> BTreeSet<Vec<Value>> {
        let free: Vec<Var> = q.free().into_iter().collect();
        let mut out = BTreeSet::new();
        cqcount_query::hom::for_each_homomorphism_to_db(q, db, |h| {
            out.insert(free.iter().map(|v| h[v]).collect());
            true
        });
        out
    }

    fn check(src: &str) {
        let (q, db) = parse_program(src).unwrap();
        let q = q.unwrap();
        let enumerated = enumerate_answers(&q, &db, q.atoms().len().max(1)).unwrap();
        let free: Vec<Var> = q.free().into_iter().collect();
        let as_set: BTreeSet<Vec<Value>> = enumerated
            .iter()
            .map(|a| free.iter().map(|v| a[v]).collect())
            .collect();
        assert_eq!(as_set, brute_answers(&q, &db), "answer sets equal");
        assert_eq!(
            Natural::from(enumerated.len()),
            count_brute_force(&q, &db),
            "no duplicates emitted"
        );
    }

    #[test]
    fn enumerates_with_projection() {
        check(
            "r(a, x). r(a, y). r(b, z). s(x, 1). s(y, 2).
             ans(X) :- r(X, Y), s(Y, Z).",
        );
    }

    #[test]
    fn enumerates_q0() {
        check(
            "mw(m1, w1, 10). mw(m2, w1, 20). mw(m1, w2, 30).
             wt(w1, t1). wt(w2, t2).
             wi(w1, i1). wi(w2, i2).
             pt(p1, t1). pt(p1, t2). pt(p2, t1).
             st(t1, u1). st(t2, u2).
             rr(u1, res1). rr(t1, res1). rr(u2, res2). rr(t2, res2).
             ans(A, B, C) :- mw(A, B, I), wt(B, D), wi(B, E), pt(C, D),
                             st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H).",
        );
    }

    #[test]
    fn enumerates_disconnected_product() {
        check(
            "r(a). r(b). s(x). s(y). s(z).
             ans(X, Y) :- r(X), s(Y).",
        );
    }

    #[test]
    fn empty_answers() {
        check("r(a, b). ans(X) :- r(X, Y), s(Y).");
    }

    #[test]
    fn boolean_query_emits_single_empty_answer() {
        let (q, db) = parse_program("r(a, b). ans() :- r(X, Y).").unwrap();
        let q = q.unwrap();
        let answers = enumerate_answers(&q, &db, 2).unwrap();
        assert_eq!(answers.len(), 1);
        assert!(answers[0].is_empty());
    }

    #[test]
    fn early_termination() {
        let (q, db) = parse_program(
            "r(a). r(b). r(c). r(d).
             ans(X) :- r(X).",
        )
        .unwrap();
        let q = q.unwrap();
        let mut seen = 0;
        for_each_answer(&q, &db, 2, |_| {
            seen += 1;
            seen < 2
        });
        assert_eq!(seen, 2);
    }

    #[test]
    fn decomposition_reuse_across_databases() {
        let (q, _) = parse_program("ans(X) :- r(X, Y), s(Y, Z).").unwrap();
        let q = q.unwrap();
        let sd = crate::sharp::sharp_hypertree_decomposition(&q, 2).unwrap();
        for facts in [
            "r(a, x). s(x, 1).",
            "r(a, x). r(b, y). s(y, 1).",
            "r(a, x).",
        ] {
            let db = cqcount_query::parse_database(facts).unwrap();
            let mut n = 0u64;
            for_each_answer_with(&q, &db, &sd, |_| {
                n += 1;
                true
            });
            assert_eq!(Natural::from(n), count_brute_force(&q, &db), "{facts}");
        }
    }
}
