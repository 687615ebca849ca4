//! The counting pipeline of Theorems 3.7 and 1.3.
//!
//! Given a sub-query `Q'` (a core of `color(Q)`, uncolored — or `Q` itself)
//! and a decomposition covering both `H_{Q'}` and the frontier hypergraph
//! `FH(Q', free(Q))`:
//!
//! 1. materialize the per-vertex views `r_p = π_{χ(p)}(⋈ λ(p))` (after
//!    *completing* the decomposition so every atom is enforced) — each a
//!    fold of binary hash join-projects over the bag's λ-atoms. A bag
//!    keeps only the columns some other bag or the output reads: an
//!    existential variable of one bag alone is projected out in the scan or
//!    the join, and a one-atom neighbour inside a λ-atom (an *ear*) is
//!    semijoined into that atom's scan before the join ([`BagPlan::count`],
//!    built once per prepared plan);
//! 2. run the full reducer along the decomposition tree — on the acyclic
//!    bag schema this achieves global consistency, so afterwards
//!    `r_p = π_{keep(p)}(Q'^D)` exactly. A *full* query (`free(Q') =
//!    vars(Q')`) skips this step and the next: it projects nothing away,
//!    and the step-4 DP is exact on unreduced views (a dangling row finds
//!    no child key and contributes 0);
//! 3. project every view (and the tree) onto the free variables — because
//!    all frontiers are covered, the projected acyclic instance's join is
//!    exactly `π_free(Q'^D)` (each `[free]`-component of existential
//!    variables re-extends independently through its frontier). Steps 1–3
//!    are [`BagPlan::free_views`], which the hybrid rung and the enumerator
//!    share;
//! 4. count the join of the projected instance with the quantifier-free
//!    acyclic DP.

use crate::acyclic::count_over_tree;
use crate::sharp::{BagPlan, BagViews, SharpDecomposition};
use cqcount_arith::Natural;
use cqcount_decomp::Hypertree;
use cqcount_query::ConjunctiveQuery;
use cqcount_relational::{Bindings, Database};

/// Counts `|π_free(Q')(Q'^D)|` given a decomposition of `Q'` whose bags
/// cover every frontier of `FH(Q', free(Q'))` and whose `λ` indexes
/// `Q'`'s atoms. This is the algorithm inside Theorem 3.7.
pub fn count_with_decomposition(
    qprime: &ConjunctiveQuery,
    db: &Database,
    ht: &Hypertree,
) -> Natural {
    count_decomposed(&BagPlan::count(qprime, ht), db).0
}

/// [`count_with_decomposition`] over a count's [`BagPlan`], also returning
/// the bag views it counted over (for their `ear_rows_dropped`).
pub(crate) fn count_decomposed(plan: &BagPlan, db: &Database) -> (Natural, BagViews) {
    // A full query projects nothing away, and the DP is exact on unreduced
    // views: it skips steps 2 and 3.
    let bv = if plan.query().existential().is_empty() {
        plan.views(db)
    } else {
        plan.free_views(db)
    };
    if bv.views.iter().any(Bindings::is_empty) {
        return (Natural::ZERO, bv);
    }
    let tree = &plan.tree;
    let n = count_over_tree(&bv.views, &tree.parent, &tree.children, &tree.order);
    (n, bv)
}

/// Theorem 1.3 end to end: computes a width-≤`max_k` `#`-hypertree
/// decomposition of `q` (core of the coloring, frontier hypergraph,
/// width-`k` GHD) and counts through it. Returns `None` when `q` has no
/// `#`-hypertree decomposition of width ≤ `max_k`.
pub fn count_via_sharp_decomposition(
    q: &ConjunctiveQuery,
    db: &Database,
    max_k: usize,
) -> Option<(Natural, SharpDecomposition)> {
    let (_, sd) = crate::width_search::WidthSearch::new(q).find_up_to(max_k)?;
    let count = count_with_decomposition(&sd.qprime, db, &sd.hypertree);
    Some((count, sd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::count_brute_force;
    use cqcount_query::parse_program;

    fn setup(src: &str) -> (ConjunctiveQuery, Database) {
        let (q, db) = parse_program(src).unwrap();
        (q.unwrap(), db)
    }

    #[test]
    fn q0_counts_match() {
        let (q, db) = setup(
            "mw(m1, w1, 10). mw(m2, w1, 20). mw(m1, w2, 30).
             wt(w1, t1). wt(w2, t2).
             wi(w1, i1). wi(w2, i2).
             pt(p1, t1). pt(p1, t2). pt(p2, t1).
             st(t1, u1). st(t2, u2).
             rr(u1, res1). rr(t1, res1). rr(u2, res2). rr(t2, res2).
             ans(A, B, C) :- mw(A, B, I), wt(B, D), wi(B, E), pt(C, D),
                             st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H).",
        );
        let (n, sd) = count_via_sharp_decomposition(&q, &db, 3).unwrap();
        assert_eq!(sd.width, 2);
        assert_eq!(n, count_brute_force(&q, &db));
        assert_eq!(n, 5u64.into());
    }

    #[test]
    fn cycle_q1() {
        let (q, db) = setup(
            "s1(a1, b1). s1(a1, b2). s1(a2, b1).
             s2(b1, c1). s2(b2, c2).
             s3(c1, d1). s3(c2, d1).
             s4(d1, a1). s4(d1, a2).
             ans(A, C) :- s1(A, B), s2(B, C), s3(C, D), s4(D, A).",
        );
        let (n, sd) = count_via_sharp_decomposition(&q, &db, 3).unwrap();
        assert_eq!(sd.width, 2);
        assert_eq!(n, count_brute_force(&q, &db));
    }

    #[test]
    fn chain_a2_width_1_counting() {
        let (q, db) = setup(
            "r(a, b). r(b, c). r(c, a). r(a, a).
             ans(X1, X2, X3) :- r(X1, Y1), r(X2, Y2), r(X3, Y3),
                                r(X1, X2), r(X2, X3), r(Y1, Y2), r(Y2, Y3).",
        );
        let (n, sd) = count_via_sharp_decomposition(&q, &db, 2).unwrap();
        assert_eq!(sd.width, 1, "Example A.2 has #-htw 1");
        assert_eq!(n, count_brute_force(&q, &db));
    }

    #[test]
    fn boolean_biclique() {
        let (q, db) = setup(
            "r(u1, v1). r(u1, v2). r(u2, v1).
             ans() :- r(X0, Y0), r(X0, Y1), r(X1, Y0), r(X1, Y1).",
        );
        let (n, sd) = count_via_sharp_decomposition(&q, &db, 1).unwrap();
        assert_eq!(sd.width, 1, "biclique core collapses to one atom");
        assert_eq!(n, Natural::ONE);
        assert_eq!(n, count_brute_force(&q, &db));
    }

    #[test]
    fn empty_relations_count_zero() {
        let (q, db) = setup("r(a, b). ans(X) :- r(X, Y), s(Y, Z).");
        let (n, _) = count_via_sharp_decomposition(&q, &db, 2).unwrap();
        assert_eq!(n, Natural::ZERO);
        assert_eq!(count_brute_force(&q, &db), Natural::ZERO);
    }

    #[test]
    fn width_cap_respected() {
        // Example C.1 with h = 2 has #-htw 3: cap 2 must return None.
        let (q, db) = setup(
            "r(x, y1, y2). s(y0, y1, y2). w1(x1, y1). w2(x2, y2).
             ans(X0, X1, X2) :- r(X0, Y1, Y2), s(Y0, Y1, Y2), w1(X1, Y1), w2(X2, Y2).",
        );
        assert!(count_via_sharp_decomposition(&q, &db, 2).is_none());
        let (n, sd) = count_via_sharp_decomposition(&q, &db, 3).unwrap();
        assert_eq!(sd.width, 3);
        assert_eq!(n, count_brute_force(&q, &db));
    }

    #[test]
    fn free_variable_in_single_atom() {
        let (q, db) = setup(
            "r(a, x). r(b, x). r(b, y). s(x). s(y).
             ans(X) :- r(X, Y), s(Y).",
        );
        let (n, _) = count_via_sharp_decomposition(&q, &db, 2).unwrap();
        assert_eq!(n, 2u64.into());
    }
}
