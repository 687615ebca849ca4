//! The Pichler–Skritek `#`-relation algorithm (Figure 13 of the paper),
//! counting answers of queries *with* existential variables over a
//! (complete) hypertree decomposition.
//!
//! Each decomposition vertex `p` holds a `#`-relation: a set of
//! *sets of substitutions* `S ⊆ r_p`, each with a multiplicity `c(S)`. `S`
//! collects the surviving extensions of a group of assignments to the free
//! variables seen so far, and `c(S)` counts how many distinct free
//! assignments lead to exactly that extension set. Upward semijoins combine
//! children with the `⋉#` operator; the root's multiplicities sum to
//! `|π_free(Q)(Q^D)|`.
//!
//! Theorem 6.2: with width `k`, maximum relation size `m` and degree bound
//! `h = bound(D, HD)`, the run time is `O(|vertices| · m^{2k} · 4^h)` — the
//! degree, not the database size, drives the exponential part.

use crate::sharp::BagPlan;
use cqcount_arith::Natural;
use cqcount_decomp::Hypertree;
use cqcount_query::ConjunctiveQuery;
use cqcount_relational::{Bindings, Database, FxHashMap};

/// A `#`-relation: canonical bindings-sets with multiplicities.
type SharpRelation = FxHashMap<Bindings, Natural>;

/// The `⋉#` operator: `R ⋉# R' = { S ⋉ S' | S ∈ R, S' ∈ R', S ⋉ S' ≠ ∅ }`
/// with `c(T) = Σ_{S ⋉ S' = T} c(S)·c(S')`.
fn sharp_semijoin(r: &SharpRelation, r2: &SharpRelation) -> SharpRelation {
    let mut out = SharpRelation::default();
    for (s, c) in r {
        for (s2, c2) in r2 {
            let t = s.semijoin(s2);
            if !t.is_empty() {
                let prod = c * c2;
                *out.entry(t).or_insert(Natural::ZERO) += &prod;
            }
        }
    }
    out
}

/// Runs the `#`-relation algorithm directly on materialized views: `views`
/// are the per-vertex relations `r_p` (over the decomposition's `χ(p)`
/// columns), the tree is given by `parent`/`children`/`order` (children
/// before parents), and `free_cols` are the output columns. Views must form
/// a join tree w.r.t. the given tree structure.
pub fn count_sharp_relations_views(
    views: &[Bindings],
    parent: &[Option<usize>],
    children: &[Vec<usize>],
    order: &[usize],
    free_cols: &[u32],
) -> Natural {
    if views.is_empty() {
        return Natural::ONE;
    }
    // Initialization: R_p^0 = { σ_θ(r_p) | θ ∈ π_free(r_p) }, c = 1.
    let mut sharp: Vec<SharpRelation> = views
        .iter()
        .map(|v| {
            v.partition_by(free_cols)
                .into_iter()
                .map(|(_, group)| (group, Natural::ONE))
                .collect()
        })
        .collect();

    // Bottom-up: fold children into parents with ⋉#.
    let mut answer = Natural::ONE;
    for &v in order {
        for &c in &children[v] {
            let child = std::mem::take(&mut sharp[c]);
            sharp[v] = sharp_semijoin(&sharp[v], &child);
        }
        if parent[v].is_none() {
            // Finalization per root; independent components multiply.
            let total: Natural = sharp[v].values().sum();
            answer *= total;
        }
    }
    answer
}

/// Counts `|π_free(Q)(Q^D)|` with the `#`-relation algorithm over the given
/// hypertree decomposition of `Q`'s hypergraph (with `λ` holding atom
/// indices). The decomposition is completed first (every atom placed in
/// some `λ` with its variables inside `χ`, Theorem 6.2's preprocessing).
pub fn count_pichler_skritek(q: &ConjunctiveQuery, db: &Database, ht: &Hypertree) -> Natural {
    let plan = BagPlan::textbook(q, ht);
    let free_cols: Vec<u32> = q.free().iter().map(|v| v.node()).collect();
    count_sharp_relations_views(
        &plan.views(db).views,
        &plan.tree.parent,
        &plan.tree.children,
        &plan.tree.order,
        &free_cols,
    )
}

/// `bound(D, HD)` (Definition 6.1): the maximum degree of the free columns
/// across the vertex relations of the (completed) decomposition.
pub fn degree_bound(q: &ConjunctiveQuery, db: &Database, ht: &Hypertree) -> usize {
    let free_cols: Vec<u32> = q.free().iter().map(|v| v.node()).collect();
    BagPlan::textbook(q, ht)
        .views(db)
        .views
        .iter()
        .map(|v| v.degree_wrt(&free_cols))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::count_brute_force;
    use cqcount_decomp::ghw_exact;
    use cqcount_query::parse_program;

    fn setup(src: &str) -> (ConjunctiveQuery, Database) {
        let (q, db) = parse_program(src).unwrap();
        (q.unwrap(), db)
    }

    fn ps_count(q: &ConjunctiveQuery, db: &Database) -> Natural {
        let h = q.hypergraph();
        let atoms: Vec<cqcount_hypergraph::NodeSet> = q
            .atoms()
            .iter()
            .map(|a| a.vars().iter().map(|v| v.node()).collect())
            .collect();
        let (_, ht) = ghw_exact(&h, &atoms, q.atoms().len()).expect("ghw exists");
        count_pichler_skritek(q, db, &ht)
    }

    #[test]
    fn acyclic_with_projection() {
        let (q, db) = setup(
            "r(a, x). r(a, y). r(b, z).
             s(x, 1). s(y, 2).
             ans(X) :- r(X, Y), s(Y, Z).",
        );
        // X = a only (b's y=z has no s fact).
        assert_eq!(ps_count(&q, &db), count_brute_force(&q, &db));
        assert_eq!(ps_count(&q, &db), 1u64.into());
    }

    #[test]
    fn star_query_hard_case() {
        // The Pichler–Skritek #P-hardness shape: ans(X1,X2) :- r(Y,X1), r(Y,X2);
        // counting pairs (X1,X2) sharing a common Y.
        let (q, db) = setup(
            "r(y1, a). r(y1, b). r(y2, b). r(y2, c).
             ans(X1, X2) :- r(Y, X1), r(Y, X2).",
        );
        // pairs: via y1 {a,b}x{a,b}, via y2 {b,c}x{b,c} → distinct:
        // (a,a),(a,b),(b,a),(b,b),(b,c),(c,b),(c,c) = 7.
        assert_eq!(count_brute_force(&q, &db), 7u64.into());
        assert_eq!(ps_count(&q, &db), 7u64.into());
    }

    #[test]
    fn counts_match_brute_force_on_q0() {
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
        assert_eq!(ps_count(&q, &db), count_brute_force(&q, &db));
    }

    #[test]
    fn boolean_query_via_ps() {
        let (q, db) = setup("r(a, b). s(b). ans() :- r(X, Y), s(Y).");
        assert_eq!(ps_count(&q, &db), 1u64.into());
        let (q2, db2) = setup("r(a, b). s(c). ans() :- r(X, Y), s(Y).");
        assert_eq!(ps_count(&q2, &db2), 0u64.into());
    }

    #[test]
    fn all_free_matches_join_count() {
        let (q, db) = setup(
            "r(a, b). r(b, c). r(c, d).
             ans(X, Y, Z) :- r(X, Y), r(Y, Z).",
        );
        assert_eq!(ps_count(&q, &db), 2u64.into());
    }

    #[test]
    fn degree_bound_reflects_keys() {
        // s(X, Y) with X a key: bound = 1. With X non-key: bound grows.
        let (q, db) = setup(
            "s(a, p). s(b, q). s(c, r).
             ans(X) :- s(X, Y).",
        );
        let h = q.hypergraph();
        let atoms: Vec<cqcount_hypergraph::NodeSet> = q
            .atoms()
            .iter()
            .map(|a| a.vars().iter().map(|v| v.node()).collect())
            .collect();
        let (_, ht) = ghw_exact(&h, &atoms, 2).unwrap();
        assert_eq!(degree_bound(&q, &db, &ht), 1);
        let (q2, db2) = setup(
            "s(a, p). s(a, q). s(a, r). s(b, q).
             ans(X) :- s(X, Y).",
        );
        let (_, ht2) = ghw_exact(&q2.hypergraph(), &atoms, 2).unwrap();
        assert_eq!(degree_bound(&q2, &db2, &ht2), 3);
    }

    #[test]
    fn disconnected_query() {
        let (q, db) = setup(
            "r(a). r(b). s(x). s(y). s(z).
             ans(X) :- r(X), s(Y).",
        );
        assert_eq!(ps_count(&q, &db), 2u64.into());
        let (q2, db2) = setup(
            "r(a). r(b). s(x). s(y). s(z).
             ans(X, Y) :- r(X), s(Y).",
        );
        assert_eq!(ps_count(&q2, &db2), 6u64.into());
    }
}
