//! Hybrid `#ᵦ`-hypertree decompositions (Section 6, Definition 6.4,
//! Theorems 6.6 and 6.7).
//!
//! The hybrid method promotes a set `S̄ ⊇ free(Q)` of variables to
//! *pseudo-free*: variables outside `S̄` are handled purely structurally
//! (their frontiers must be covered, as in a `#`-hypertree decomposition of
//! `Q[S̄]`), while the pseudo-free existential variables are handled by the
//! `#`-relation algorithm, whose cost is exponential only in the *degree*
//! `bound_free(D, ⟨T, χ_S̄, λ⟩)` — which keys and quasi-keys in the data
//! keep small (Example 1.5: degree 1 when the promoted variables are
//! functionally determined by the free ones).

use crate::ps::count_sharp_relations_views;
use crate::sharp::{BagPlan, SharpDecomposition};
use crate::width_search::WidthSearch;
use cqcount_arith::Natural;
use cqcount_query::{ConjunctiveQuery, Var};
use cqcount_relational::{Bindings, Database};
use std::collections::BTreeSet;

/// A width-`k` `#ᵦ`-hypertree decomposition `⟨HD, S̄⟩` of `Q` w.r.t. `D`.
#[derive(Clone, Debug)]
pub struct HybridDecomposition {
    /// The pseudo-free set `S̄ ⊇ free(Q)`.
    pub sbar: BTreeSet<Var>,
    /// The `#`-hypertree decomposition of `Q[S̄]` (condition (1) of
    /// Definition 6.4).
    pub sharp: SharpDecomposition,
    /// `bound_free(D, ⟨T, χ_S̄, λ⟩)` (condition (2)).
    pub bound: usize,
}

/// Computes the degree value of a candidate `⟨HD, S̄⟩` w.r.t. the *original*
/// free variables: the maximum, over the decomposition vertices, of the
/// number of extensions of a free-variable assignment within
/// `π_{χ(p) ∩ S̄}(r_p)` — the views of `Q[S̄]` after the structural
/// elimination of the variables outside `S̄` (Theorem 6.6 step 1). Every
/// view is projected onto `S̄`, also when the answer is empty.
fn degree_of(sd: &SharpDecomposition, db: &Database, free_cols: &[u32]) -> usize {
    let sbar: Vec<u32> = sd.qprime.free().iter().map(|v| v.node()).collect();
    BagPlan::count(&sd.qprime, &sd.hypertree)
        .reduced_views(db)
        .views
        .into_iter()
        .map(|v| v.into_project(&sbar).degree_wrt(free_cols))
        .max()
        .unwrap_or(0)
}

/// Theorem 6.7: searches for a width-`k` `#ᵦ`-hypertree decomposition of
/// `Q` w.r.t. `D` with the *minimum* degree value, over all pseudo-free
/// extensions `S̄ ⊇ free(Q)`. Returns `None` if no candidate achieves
/// degree ≤ `b` (pass `usize::MAX` for the unconditional optimum).
///
/// FPT in the query size: `2^{|existential|}` candidate sets, each with a
/// polynomial data pass.
pub fn hybrid_decomposition(
    q: &ConjunctiveQuery,
    db: &Database,
    k: usize,
    b: usize,
) -> Option<HybridDecomposition> {
    let free: Vec<Var> = q.free().into_iter().collect();
    let free_cols: Vec<u32> = free.iter().map(|v| v.node()).collect();
    let existential: Vec<Var> = q.existential().into_iter().collect();
    let mut best: Option<HybridDecomposition> = None;
    assert!(
        existential.len() < 20,
        "hybrid search: too many existential variables"
    );
    for mask in 0u32..(1 << existential.len()) {
        let mut sbar: BTreeSet<Var> = free.iter().copied().collect();
        for (i, &v) in existential.iter().enumerate() {
            if mask & (1 << i) != 0 {
                sbar.insert(v);
            }
        }
        let qs = q.requantify(sbar.iter().copied());
        // Minimal width first: better witnesses and cheaper evaluation.
        let Some((_, sd)) = WidthSearch::new(&qs).find_up_to(k) else {
            continue;
        };
        let bound = degree_of(&sd, db, &free_cols);
        if bound <= b && best.as_ref().is_none_or(|cur| bound < cur.bound) {
            let done = bound <= 1;
            best = Some(HybridDecomposition {
                sbar,
                sharp: sd,
                bound,
            });
            if done {
                break; // cannot do better than degree ≤ 1
            }
        }
    }
    best
}

/// Example 1.5's data-driven heuristic: the existential variables
/// functionally determined — transitively — by the free variables through
/// relation keys. Fixpoint: a variable becomes *determined* when some atom
/// over relation `r` has all of its other variables determined (or
/// constant) at positions forming a key of `r^D`.
pub fn key_determined_variables(q: &ConjunctiveQuery, db: &Database) -> BTreeSet<Var> {
    use cqcount_query::Term;
    let mut known: BTreeSet<Var> = q.free();
    loop {
        let mut grew = false;
        for atom in q.atoms() {
            let Some(rel) = db.relation(&atom.rel) else {
                continue;
            };
            if rel.arity() != atom.terms.len() {
                continue;
            }
            let known_positions: Vec<usize> = atom
                .terms
                .iter()
                .enumerate()
                .filter(|(_, t)| match t {
                    Term::Var(v) => known.contains(v),
                    Term::Const(_) => true,
                })
                .map(|(i, _)| i)
                .collect();
            if known_positions.len() == atom.terms.len() {
                continue; // nothing left to determine
            }
            if cqcount_relational::keys::positions_are_key(rel, &known_positions) {
                for t in &atom.terms {
                    if let Term::Var(v) = t {
                        grew |= known.insert(*v);
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    known.difference(&q.free()).copied().collect()
}

/// Like [`hybrid_decomposition`], but tries the key-guided pseudo-free set
/// `S̄ = free(Q) ∪ key_determined_variables(Q, D)` (Example 1.5) before
/// falling back to the exhaustive Theorem 6.7 search. On key-structured
/// data this avoids the `2^{existential}` sweep entirely.
pub fn hybrid_decomposition_guided(
    q: &ConjunctiveQuery,
    db: &Database,
    k: usize,
    b: usize,
) -> Option<HybridDecomposition> {
    let determined = key_determined_variables(q, db);
    if !determined.is_empty() {
        let mut sbar: BTreeSet<Var> = q.free();
        sbar.extend(determined.iter().copied());
        let qs = q.requantify(sbar.iter().copied());
        if let Some((_, sd)) = WidthSearch::new(&qs).find_up_to(k) {
            let free_cols: Vec<u32> = q.free().iter().map(|v| v.node()).collect();
            let bound = degree_of(&sd, db, &free_cols);
            if bound <= b {
                return Some(HybridDecomposition {
                    sbar,
                    sharp: sd,
                    bound,
                });
            }
        }
    }
    hybrid_decomposition(q, db, k, b)
}

/// Theorem 6.6: counts `|π_free(Q)(Q^D)|` through a `#ᵦ`-hypertree
/// decomposition — eliminate the non-`S̄` variables with the Theorem 3.7
/// pipeline, then run the `#`-relation algorithm over the projected views
/// with the original free variables (cost exponential in the degree bound
/// only).
pub fn count_hybrid_with(q: &ConjunctiveQuery, db: &Database, hd: &HybridDecomposition) -> Natural {
    let plan = BagPlan::count(&hd.sharp.qprime, &hd.sharp.hypertree);
    let bv = plan.free_views(db);
    if bv.views.iter().any(Bindings::is_empty) {
        return Natural::ZERO;
    }
    let free_cols: Vec<u32> = q.free().iter().map(|v| v.node()).collect();
    let tree = &plan.tree;
    count_sharp_relations_views(
        &bv.views,
        &tree.parent,
        &tree.children,
        &tree.order,
        &free_cols,
    )
}

/// Convenience: search (width `k`, degree threshold `b`) and count.
pub fn count_hybrid(
    q: &ConjunctiveQuery,
    db: &Database,
    k: usize,
    b: usize,
) -> Option<(Natural, HybridDecomposition)> {
    let hd = hybrid_decomposition(q, db, k, b)?;
    let n = count_hybrid_with(q, db, &hd);
    Some((n, hd))
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

    /// Example 6.3's family at h = 2, m = 4: relations r̄ and s encode the
    /// binary counters; every answer extends uniquely to the Y's but m ways
    /// to Z.
    fn hybrid_family() -> (ConjunctiveQuery, Database) {
        let h = 2usize;
        let m = 1usize << h;
        let mut src = String::new();
        for n in 0..m {
            let bits: Vec<String> = (0..h).map(|j| format!("b{}", (n >> j) & 1)).collect();
            // r̄(X0, Y1..Yh, Z): X0 = n, bits, Z arbitrary
            for z in 0..m {
                src.push_str(&format!("r(x{n}, {}, z{z}).\n", bits.join(", ")));
            }
            // s(Y0..Yh): parity-ish companion — Y0 = n mod 2 tag
            src.push_str(&format!("s(y{n}, {}).\n", bits.join(", ")));
            // w_i(X_i, Y_i)
            for j in 0..h {
                src.push_str(&format!("w{}(u{n}_{j}, b{}).\n", j + 1, (n >> j) & 1));
            }
            src.push_str(&format!("v(z{n}, u{n}_0).\n"));
        }
        src.push_str(
            "ans(X0, X1, X2) :- r(X0, Y1, Y2, Z), s(Y0, Y1, Y2), \
             w1(X1, Y1), w2(X2, Y2), v(Z, X1).\n",
        );
        setup(&src)
    }

    #[test]
    fn example_6_3_hybrid_counts() {
        let (q, db) = hybrid_family();
        let brute = count_brute_force(&q, &db);
        let (n, hd) = count_hybrid(&q, &db, 2, usize::MAX).expect("hybrid exists");
        assert_eq!(n, brute);
        // The promoted set includes the Y's, and the degree is small.
        assert!(hd.bound <= 2, "bound was {}", hd.bound);
    }

    #[test]
    fn sbar_equals_free_degenerates_to_sharp() {
        // When S̄ = free suffices structurally, hybrid = #-pipeline.
        let (q, db) = setup(
            "r(a, x). r(b, x). s(x, 1). s(x, 2).
             ans(X) :- r(X, Y), s(Y, Z).",
        );
        let (n, _) = count_hybrid(&q, &db, 2, usize::MAX).unwrap();
        assert_eq!(n, count_brute_force(&q, &db));
    }

    #[test]
    fn keys_give_degree_one() {
        // wt(B, D): each worker has exactly one task (a key) — promoting D
        // must reach degree 1 (Example 1.5).
        let (q, db) = setup(
            "wt(w1, t1). wt(w2, t2). wt(w3, t1).
             pt(p1, t1). pt(p2, t2).
             ans(B, C) :- wt(B, D), pt(C, D).",
        );
        let hd = hybrid_decomposition(&q, &db, 1, usize::MAX).expect("width 1 hybrid");
        assert_eq!(hd.bound, 1);
        let n = count_hybrid_with(&q, &db, &hd);
        assert_eq!(n, count_brute_force(&q, &db));
    }

    #[test]
    fn threshold_b_filters() {
        // Demand b = 0-ish: with tuples present the minimum degree is ≥ 1,
        // so b = 0 must fail while b = 1 succeeds on a key-like instance.
        let (q, db) = setup(
            "wt(w1, t1). wt(w2, t2). pt(p1, t1).
             ans(B, C) :- wt(B, D), pt(C, D).",
        );
        assert!(hybrid_decomposition(&q, &db, 1, 0).is_none());
        assert!(hybrid_decomposition(&q, &db, 1, 1).is_some());
    }

    #[test]
    fn key_determination_finds_the_paper_sbar() {
        // Example 6.3: the w_i relations key Y_i by X_i, and s keys Y0 by
        // the bit columns — exactly the paper's promoted set {Y0..Yh}.
        let h = 3;
        let q = cqcount_workloads::paper::hybrid_query(h);
        let db = cqcount_workloads::paper::hybrid_database(h);
        let det = key_determined_variables(&q, &db);
        let names: Vec<&str> = det.iter().map(|v| q.var_name(*v)).collect();
        assert_eq!(names, vec!["Y0", "Y1", "Y2", "Y3"]);
        // Z is never determined (every answer has m extensions to Z).
        assert!(!names.contains(&"Z"));
    }

    #[test]
    fn guided_hybrid_matches_exhaustive() {
        let h = 2;
        let q = cqcount_workloads::paper::hybrid_query(h);
        let db = cqcount_workloads::paper::hybrid_database(h);
        let guided = hybrid_decomposition_guided(&q, &db, 2, usize::MAX).unwrap();
        assert_eq!(guided.bound, 1);
        let n = count_hybrid_with(&q, &db, &guided);
        assert_eq!(n, count_brute_force(&q, &db));
    }

    #[test]
    fn guided_falls_back_without_keys() {
        // No key structure: guided must still work via the exhaustive path.
        let (q, db) = setup(
            "r(a, b). r(a, c). r(b, b). s(b, 1). s(c, 1). s(b, 2).
             ans(X) :- r(X, Y), s(Y, Z).",
        );
        let hd = hybrid_decomposition_guided(&q, &db, 2, usize::MAX).unwrap();
        let n = count_hybrid_with(&q, &db, &hd);
        assert_eq!(n, count_brute_force(&q, &db));
    }

    #[test]
    fn hybrid_matches_brute_on_varied_instances() {
        let cases = [
            "r(a, b). r(b, a). s(a, 1). s(b, 1). s(b, 2).
             ans(X) :- r(X, Y), s(Y, Z).",
            "e(a, b). e(b, c). e(c, a). e(a, c).
             ans(X, Z) :- e(X, Y), e(Y, Z), e(Z, W).",
            "p(a, b, c). p(a, b, d). p(e, b, c). q(c, x). q(d, x).
             ans(A) :- p(A, B, C), q(C, D).",
        ];
        for src in cases {
            let (q, db) = setup(src);
            let (n, _) = count_hybrid(&q, &db, 3, usize::MAX).unwrap();
            assert_eq!(n, count_brute_force(&q, &db), "case: {src}");
        }
    }
}
