//! The view framework of Section 3: view sets, legal databases and
//! counting from materialized views.
//!
//! A *view set* `V` for `Q` contains, for each query atom, a *query view*
//! over the same variables, plus arbitrary further views. A database for
//! the views is *legal* w.r.t. `Q` when (i) every query view is at most its
//! atom's relation and (ii) every view is at least the projection of the
//! answer set onto its variables — "all original constraints are there, and
//! views are not more restrictive than the query".
//!
//! Given a legal database and a `#`-decomposition w.r.t. `V`
//! (Definition 1.4), [`count_with_view_set`] counts the answers in
//! polynomial time (Theorem 3.7 / Corollary 3.8), *without touching the
//! base relations beyond the query views*.

use crate::acyclic::count_over_tree;
use crate::sharp::{sharp_decomposition_wrt_views, SharpDecomposition};
use cqcount_arith::Natural;
use cqcount_hypergraph::{Hypergraph, NodeSet};
use cqcount_query::canonical::atom_bindings;
use cqcount_query::hom::for_each_homomorphism_to_db;
use cqcount_query::{ConjunctiveQuery, Var};
use cqcount_relational::consistency::full_reduce;
use cqcount_relational::{Bindings, Database};

/// A view set for a query: named views over variable scopes. Query views
/// (one per atom, same scope) are created automatically by
/// [`ViewSet::for_query`].
#[derive(Clone, Debug)]
pub struct ViewSet {
    views: Vec<(String, Vec<Var>)>,
}

impl ViewSet {
    /// The minimal view set of `q`: one query view `w#i` per atom, over the
    /// atom's variables.
    pub fn for_query(q: &ConjunctiveQuery) -> ViewSet {
        let views = q
            .atoms()
            .iter()
            .enumerate()
            .map(|(i, a)| (format!("w#{i}"), a.vars()))
            .collect();
        ViewSet { views }
    }

    /// Adds a view over the given variables; returns its name.
    pub fn add_view(&mut self, name: &str, vars: Vec<Var>) {
        self.views.push((name.to_owned(), vars));
    }

    /// The views (name, scope).
    pub fn views(&self) -> &[(String, Vec<Var>)] {
        &self.views
    }

    /// The view hypergraph `H_V`.
    pub fn hypergraph(&self) -> Hypergraph {
        let mut h = Hypergraph::new();
        for (_, vars) in &self.views {
            h.add_edge(vars.iter().map(|v| v.node()).collect());
        }
        h
    }

    /// The *standard view extension* of `db` (Section 4): every query view
    /// `w#i` gets its atom's relation; every other view over scope `S` gets
    /// `π_S(⋈ of a greedy atom cover of S)` — sound and complete, hence
    /// legal.
    pub fn standard_extension(&self, q: &ConjunctiveQuery, db: &Database) -> Vec<Bindings> {
        let atom_views: Vec<Bindings> = q.atoms().iter().map(|a| atom_bindings(a, db)).collect();
        let atom_scopes: Vec<NodeSet> = q
            .atoms()
            .iter()
            .map(|a| a.vars().iter().map(|v| v.node()).collect())
            .collect();
        self.views
            .iter()
            .map(|(name, vars)| {
                if let Some(idx) = name
                    .strip_prefix("w#")
                    .and_then(|s| s.parse::<usize>().ok())
                {
                    if idx < atom_views.len() && q.atoms()[idx].vars() == *vars {
                        return atom_views[idx].clone();
                    }
                }
                // greedy cover of the scope by atoms
                let scope: NodeSet = vars.iter().map(|v| v.node()).collect();
                let mut need = scope.clone();
                let mut acc = Bindings::unit();
                while !need.is_empty() {
                    let best = (0..atom_scopes.len())
                        .max_by_key(|&i| atom_scopes[i].intersection(&need).len())
                        .expect("query has atoms");
                    if atom_scopes[best].intersection(&need).is_empty() {
                        break; // scope variable in no atom: view stays partial
                    }
                    acc = acc.join(&atom_views[best]);
                    need = need.difference(&atom_scopes[best]);
                }
                let cols: Vec<u32> = scope.to_vec();
                acc.project(&cols)
            })
            .collect()
    }

    /// Checks legality (Section 3) of view relations w.r.t. `q` on `db`:
    /// (i) each query view is contained in its atom's evaluation;
    /// (ii) each view contains `π_scope(Q^D)`.
    ///
    /// Condition (ii) is verified by enumerating the solutions — this is a
    /// *testing* facility (legality is semantic), not part of the counting
    /// path.
    pub fn is_legal(&self, q: &ConjunctiveQuery, db: &Database, relations: &[Bindings]) -> bool {
        assert_eq!(relations.len(), self.views.len());
        // (i) query views ⊆ atom evaluations
        for (i, (name, vars)) in self.views.iter().enumerate() {
            if let Some(idx) = name
                .strip_prefix("w#")
                .and_then(|s| s.parse::<usize>().ok())
            {
                if idx < q.atoms().len() && q.atoms()[idx].vars() == *vars {
                    let atom_rel = atom_bindings(&q.atoms()[idx], db);
                    for row in relations[i].rows() {
                        if !atom_rel.contains(row) {
                            return false;
                        }
                    }
                }
            }
        }
        // (ii) views ⊇ projections of the answer-extension set
        let mut ok = true;
        for_each_homomorphism_to_db(q, db, |h| {
            for ((_, vars), rel) in self.views.iter().zip(relations) {
                let row: Vec<_> = rel.cols().iter().map(|c| h[&Var(*c)]).collect();
                let _ = vars;
                if !rel.contains(&row) {
                    ok = false;
                    return false;
                }
            }
            true
        });
        ok
    }
}

/// Corollary 3.8 with explicit view relations: searches for a
/// `#`-decomposition of `q` w.r.t. the view set (over *some* core of
/// `color(q)`, Theorem 3.6) and counts from the given (legal) view
/// relations alone — semijoin reduction to global consistency along the
/// decomposition tree, projection onto the free variables, acyclic DP.
/// Returns `None` if `q` is not `#`-covered w.r.t. `V`.
pub fn count_with_view_set(
    q: &ConjunctiveQuery,
    views: &ViewSet,
    relations: &[Bindings],
) -> Option<(Natural, SharpDecomposition)> {
    assert_eq!(relations.len(), views.views().len());
    let sd = sharp_decomposition_wrt_views(q, &views.hypergraph())?;
    // λ of the tree projection indexes view hyperedges (in ViewSet order).
    let mut bag_views: Vec<Bindings> = sd
        .hypertree
        .chi
        .iter()
        .zip(&sd.hypertree.lambda)
        .map(|(bag, lam)| {
            let cols: Vec<u32> = bag.to_vec();
            let src = &relations[lam[0]];
            src.project(&cols)
        })
        .collect();
    // Enforce the *query views* too: semijoin every bag with each query
    // view it covers (the proof's pairwise-consistency enforcement uses all
    // views; along the acyclic tree the full reducer finishes the job).
    for (i, (name, _)) in views.views().iter().enumerate() {
        if !name.starts_with("w#") {
            continue;
        }
        for bag_view in bag_views.iter_mut() {
            let qcols: &[u32] = relations[i].cols();
            if qcols.iter().all(|c| bag_view.cols().contains(c)) {
                bag_view.semijoin_in_place(&relations[i]);
            }
        }
    }
    full_reduce(&mut bag_views, &sd.hypertree.parent, &sd.hypertree.order);
    if bag_views.iter().any(Bindings::is_empty) {
        return Some((Natural::ZERO, sd));
    }
    let free_cols: Vec<u32> = q.free().iter().map(|v| v.node()).collect();
    let projected: Vec<Bindings> = bag_views
        .into_iter()
        .map(|v| v.into_project(&free_cols))
        .collect();
    let n = count_over_tree(
        &projected,
        &sd.hypertree.parent,
        &sd.hypertree.children,
        &sd.hypertree.order,
    );
    Some((n, sd))
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
    fn standard_extension_is_legal() {
        let (q, db) = setup(
            "r(a, x). r(b, y). s(x, 1). s(y, 2). s(y, 3).
             ans(X) :- r(X, Y), s(Y, Z).",
        );
        let mut vs = ViewSet::for_query(&q);
        let x = q.find_var("X").unwrap();
        let y = q.find_var("Y").unwrap();
        vs.add_view("xy", vec![x, y]);
        let rels = vs.standard_extension(&q, &db);
        assert!(vs.is_legal(&q, &db, &rels));
    }

    #[test]
    fn illegal_when_view_too_restrictive() {
        let (q, db) = setup(
            "r(a, x). r(b, y). s(x, 1). s(y, 2).
             ans(X) :- r(X, Y), s(Y, Z).",
        );
        let vs = ViewSet::for_query(&q);
        let mut rels = vs.standard_extension(&q, &db);
        // Drop a tuple from the first query view: misses solutions.
        let keep: Vec<Vec<cqcount_relational::Value>> =
            rels[0].rows().iter().skip(1).map(|t| t.to_vec()).collect();
        rels[0] = Bindings::from_rows(rels[0].cols().to_vec(), keep);
        assert!(!vs.is_legal(&q, &db, &rels));
    }

    #[test]
    fn counting_from_views_matches_brute_force() {
        // Q0 with the Example 3.5 view scopes.
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
        let var = |n: &str| q.find_var(n).unwrap();
        let mut vs = ViewSet::for_query(&q);
        vs.add_view("bcd", vec![var("B"), var("C"), var("D")]);
        vs.add_view("dfh", vec![var("D"), var("F"), var("H")]);
        let rels = vs.standard_extension(&q, &db);
        assert!(vs.is_legal(&q, &db, &rels));
        let (n, sd) = count_with_view_set(&q, &vs, &rels).expect("#-covered");
        assert_eq!(n, count_brute_force(&q, &db));
        assert!(sd.width >= 1);
    }

    #[test]
    fn not_covered_without_frontier_view() {
        // The star query's frontier is {X1, X2}; with only the query views
        // (all containing Y), no view covers the frontier edge... actually
        // the frontier {X1,X2} must fit in a single view: r(Y,X1), s(Y,X2)
        // scopes don't contain both X1 and X2.
        let (q, _) = setup("ans(X1, X2) :- r(Y, X1), s(Y, X2).");
        let vs = ViewSet::for_query(&q);
        let rels: Vec<Bindings> = vs
            .views()
            .iter()
            .map(|(_, vars)| Bindings::empty(vars.iter().map(|v| v.node()).collect()))
            .collect();
        assert!(count_with_view_set(&q, &vs, &rels).is_none());
    }

    #[test]
    fn covered_after_adding_frontier_view() {
        let (q, db) = setup(
            "r(y1, a). r(y1, b). r(y2, c). s(y1, u). s(y2, v).
             ans(X1, X2) :- r(Y, X1), s(Y, X2).",
        );
        let mut vs = ViewSet::for_query(&q);
        let x1 = q.find_var("X1").unwrap();
        let x2 = q.find_var("X2").unwrap();
        let y = q.find_var("Y").unwrap();
        vs.add_view("big", vec![y, x1, x2]);
        let rels = vs.standard_extension(&q, &db);
        let (n, _) = count_with_view_set(&q, &vs, &rels).expect("#-covered now");
        assert_eq!(n, count_brute_force(&q, &db));
    }

    #[test]
    fn zero_count_flows_through() {
        let (q, db) = setup("r(a, b). ans(X) :- r(X, Y), s(Y, Z).");
        let mut vs = ViewSet::for_query(&q);
        let x = q.find_var("X").unwrap();
        let y = q.find_var("Y").unwrap();
        let z = q.find_var("Z").unwrap();
        vs.add_view("all", vec![x, y, z]);
        let rels = vs.standard_extension(&q, &db);
        let (n, _) = count_with_view_set(&q, &vs, &rels).expect("covered");
        assert_eq!(n, Natural::ZERO);
    }
}
