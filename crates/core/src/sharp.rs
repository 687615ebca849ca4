//! `#`-hypertree decompositions (Definition 1.2) and `#`-decompositions
//! w.r.t. arbitrary view sets (Definition 1.4, Theorem 3.6).

use cqcount_decomp::{tree_projection, Hypertree};
use cqcount_hypergraph::{frontier_hypergraph, is_acyclic, Hypergraph, NodeSet};
use cqcount_query::canonical::atom_bindings;
use cqcount_query::color::{color, uncolor};
use cqcount_query::hom::has_homomorphism;
use cqcount_query::{Atom, ConjunctiveQuery, Term};
use cqcount_relational::{wcoj_join, Bindings, Database, Relation, WcojInput};

/// A `#`-hypertree decomposition (or a `#`-decomposition w.r.t. views):
/// a decomposition covering both the hypergraph of (the uncolored version
/// of) a core of `color(Q)` and its frontier hypergraph.
#[derive(Clone, Debug)]
pub struct SharpDecomposition {
    /// The chosen core of `color(Q)` (with coloring atoms).
    pub colored_core: ConjunctiveQuery,
    /// Its uncolored version `Q'` — a sub-query of `Q` with
    /// `π_free(Q'^D) = π_free(Q^D)`.
    pub qprime: ConjunctiveQuery,
    /// The frontier hypergraph `FH(Q', free(Q))`.
    pub frontier: Hypergraph,
    /// The witness hypertree; `λ` indexes `qprime.atoms()` (width-`k` GHD
    /// case) or the external view list (tree-projection case).
    pub hypertree: Hypertree,
    /// `max_p |λ(p)|`.
    pub width: usize,
}

/// The hyperedge node-sets of a query's atoms (skipping nothing).
pub(crate) fn atom_nodesets(q: &ConjunctiveQuery) -> Vec<NodeSet> {
    q.atoms()
        .iter()
        .map(|a| a.vars().iter().map(|v| v.node()).collect())
        .collect()
}

/// The combined cover hypergraph `H' = H_{Q'} ∪ FH(Q', free)` whose
/// decompositions are exactly the `#`-decompositions (proof of Theorem 3.6).
pub(crate) fn sharp_cover(qprime: &ConjunctiveQuery, free: &NodeSet) -> (Hypergraph, Hypergraph) {
    let hq = qprime.hypergraph();
    let fh = frontier_hypergraph(&hq, free);
    (hq.merge(&fh), fh)
}

/// Searches for a width-`k` `#`-hypertree decomposition of `q`
/// (Definition 1.2): a width-`k` normal-form hypertree decomposition —
/// guarded by at most `k` of the core's atoms — of both the core's
/// hypergraph and its frontier hypergraph. Every such decomposition is a
/// GHD over the view set `V_{Q'}^k`, so counting through it is exact.
///
/// The core of `color(q)` is computed exactly; all cores are isomorphic, so
/// for the atom-based view set any one of them decides the width.
pub fn sharp_hypertree_decomposition(q: &ConjunctiveQuery, k: usize) -> Option<SharpDecomposition> {
    crate::width_search::WidthSearch::new(q).decomposition_at(k)
}

/// The `#`-hypertree width of `q`, searched up to `max_k`, taken over
/// normal-form hypertree decompositions. It is at least the width over
/// all GHDs (Definition 1.2) and equals it on every query of the test
/// corpus; counts are exact either way. A single
/// [`crate::width_search::WidthSearch`] drives the whole sweep, so the core
/// is computed once.
pub fn sharp_hypertree_width(q: &ConjunctiveQuery, max_k: usize) -> Option<usize> {
    crate::width_search::WidthSearch::new(q)
        .find_up_to(max_k)
        .map(|(k, _)| k)
}

/// Enumerates all cores of `q` *as substructures* (atom-index subsets).
/// Cores are pairwise isomorphic but, as substructures, distinct cores can
/// behave differently w.r.t. an external view set (Definition 1.4 speaks of
/// "some core"); the tree-projection search must try them all.
pub fn all_cores(q: &ConjunctiveQuery) -> Vec<ConjunctiveQuery> {
    let n = q.atoms().len();
    let full: Vec<usize> = (0..n).collect();
    let mut visited: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();
    let mut cores = Vec::new();
    let mut stack = vec![full];
    while let Some(atoms) = stack.pop() {
        if !visited.insert(atoms.clone()) {
            continue;
        }
        let sub = q.sub_query(&atoms);
        let mut minimal = true;
        for drop in 0..atoms.len() {
            let smaller: Vec<usize> = atoms
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, &a)| a)
                .collect();
            let candidate = q.sub_query(&smaller);
            if has_homomorphism(&sub, &candidate) {
                minimal = false;
                stack.push(smaller);
            }
        }
        if minimal
            && !cores
                .iter()
                .any(|c: &ConjunctiveQuery| c.atoms() == sub.atoms())
        {
            cores.push(sub);
        }
    }
    cores
}

/// Searches for a `#`-decomposition of `q` w.r.t. an arbitrary view set
/// given as a hypergraph over `q`'s variables (Definition 1.4 / Theorem
/// 3.6): a tree projection of `(H_{Q'}, H_V)` covering `FH(Q', free(Q))`,
/// for *some* core `Q'` of `color(q)`. `λ` in the result indexes the view
/// hyperedges.
pub fn sharp_decomposition_wrt_views(
    q: &ConjunctiveQuery,
    views: &Hypergraph,
) -> Option<SharpDecomposition> {
    let free = q.free_nodes();
    for colored_core in all_cores(&color(q)) {
        let qprime = uncolor(&colored_core);
        let (cover, frontier) = sharp_cover(&qprime, &free);
        if let Some(hypertree) = tree_projection(&cover, views) {
            let width = hypertree.width();
            return Some(SharpDecomposition {
                colored_core,
                qprime,
                frontier,
                hypertree,
                width,
            });
        }
    }
    None
}

/// Total rows in the bags' λ-relations below which [`bag_views`]
/// builds every bag on the calling thread: on small inputs spawning lanes
/// costs more than the bags it would overlap.
const PAR_MIN_ROWS: usize = 4096;

/// Materializes the per-vertex relations `r_p = π_{χ(p)}(⋈_{a ∈ λ(p)} a^D)`
/// of a decomposition whose `λ` indexes `q`'s atoms. Each bag is joined by
/// the leapfrog multiway intersection when [`wcoj_applies`], else by a fold
/// of binary sort-merge joins.
pub fn bag_views(q: &ConjunctiveQuery, db: &Database, ht: &Hypertree) -> Vec<Bindings> {
    let build = |&p: &usize| {
        let chi_cols: Vec<u32> = ht.chi[p].to_vec();
        let lam = &ht.lambda[p];
        if wcoj_applies(q, lam) {
            return wcoj_bag(q, db, lam).into_project(&chi_cols);
        }
        // The fold starts from the first λ-atom itself, so a one-atom bag
        // is its scan, moved through a projection that drops nothing.
        let scan = |&ai: &usize| atom_bindings(&q.atoms()[ai], db);
        let mut atoms = lam.iter();
        let first = atoms.next().map_or_else(Bindings::unit, scan);
        atoms
            .fold(first, |acc, ai| acc.join(&scan(ai)))
            .into_project(&chi_cols)
    };
    // One independent join-then-project per tree vertex. This is the count
    // path's only parallel call, and only large inputs take it; results come
    // back in vertex order either way.
    let vertices: Vec<usize> = (0..ht.len()).collect();
    let lambda_rows: usize = ht
        .lambda
        .iter()
        .flatten()
        .map(|&ai| db.relation(&q.atoms()[ai].rel).map_or(0, Relation::len))
        .sum();
    if lambda_rows >= PAR_MIN_ROWS {
        cqcount_exec::par_map(&vertices, build)
    } else {
        vertices.iter().map(build).collect()
    }
}

/// Does [`bag_views`] join this bag's λ-atoms with the leapfrog kernel?
/// Exactly when they form a cyclic hypergraph — where a binary join order
/// must materialize an intermediate larger than the AGM-bounded output.
/// Acyclic bags take the binary sort-merge fold.
pub fn wcoj_applies(q: &ConjunctiveQuery, lam: &[usize]) -> bool {
    lam.len() >= 2 && {
        let h = Hypergraph::from_edges(lam.iter().map(|&ai| {
            q.atoms()[ai]
                .vars()
                .iter()
                .map(|v| v.node())
                .collect::<Vec<_>>()
        }));
        !is_acyclic(&h)
    }
}

/// A frozen relation usable directly as a leapfrog trie for `atom`: the
/// atom's terms are pairwise-distinct variables whose column ids ascend
/// with position (so the page's lexicographic row order *is* the trie
/// order), and the stored relation is frozen with a matching arity.
fn frozen_direct<'a>(atom: &Atom, db: &'a Database) -> Option<(&'a Relation, Vec<u32>)> {
    let mut cols = Vec::with_capacity(atom.terms.len());
    for t in &atom.terms {
        match t {
            Term::Var(v) if cols.last().is_none_or(|&c| c < v.node()) => cols.push(v.node()),
            _ => return None,
        }
    }
    let rel = db.relation(&atom.rel)?;
    (rel.arity() == cols.len() && rel.sorted_values().is_some()).then_some((rel, cols))
}

/// Joins a bag's λ-atoms with the leapfrog kernel. Atoms whose relations
/// sit on frozen store pages in trie order are intersected *in place on the
/// page* (zero materialization); the rest are evaluated to canonical
/// [`Bindings`] first (which also handles constants and repeated
/// variables).
fn wcoj_bag(q: &ConjunctiveQuery, db: &Database, lam: &[usize]) -> Bindings {
    enum Part<'a> {
        Frozen(&'a Relation, Vec<u32>),
        Materialized(Bindings),
    }
    let parts: Vec<Part> = lam
        .iter()
        .map(|&ai| {
            let atom = &q.atoms()[ai];
            match frozen_direct(atom, db) {
                Some((rel, cols)) => Part::Frozen(rel, cols),
                None => Part::Materialized(atom_bindings(atom, db)),
            }
        })
        .collect();
    let inputs: Vec<WcojInput> = parts
        .iter()
        .map(|part| match part {
            Part::Frozen(rel, cols) => {
                WcojInput::from_frozen(rel, cols).expect("frozen_direct checked trie order")
            }
            Part::Materialized(b) => WcojInput::from_bindings(b),
        })
        .collect();
    wcoj_join(&inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcount_query::parse_query;

    fn q0() -> ConjunctiveQuery {
        parse_query(
            "ans(A, B, C) :- mw(A, B, I), wt(B, D), wi(B, E), pt(C, D), \
             st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H).",
        )
        .unwrap()
    }

    #[test]
    fn q0_sharp_width_is_2() {
        // Figure 3(c): width-2 #-hypertree decomposition exists; width 1
        // cannot (the core is cyclic and the frontier {B,C} is uncovered).
        assert!(sharp_hypertree_decomposition(&q0(), 1).is_none());
        let sd = sharp_hypertree_decomposition(&q0(), 2).expect("width 2 works");
        assert_eq!(sd.width, 2);
        assert_eq!(sharp_hypertree_width(&q0(), 4), Some(2));
        // the decomposition covers the frontier hypergraph
        for e in sd.frontier.edges() {
            assert!(sd.hypertree.chi.iter().any(|bag| e.is_subset(bag)));
        }
        // and the core's hypergraph
        assert!(sd.hypertree.covers_all_edges(&sd.qprime.hypergraph()));
    }

    #[test]
    fn cycle_q1_sharp_width_2() {
        // Example 4.1: Q1 = s1(A,B), s2(B,C), s3(C,D), s4(D,A),
        // free {A,C}; frontier contains {A,C}; #-htw = 2.
        let q = parse_query("ans(A, C) :- s1(A, B), s2(B, C), s3(C, D), s4(D, A).").unwrap();
        assert_eq!(sharp_hypertree_width(&q, 4), Some(2));
        let sd = sharp_hypertree_decomposition(&q, 2).unwrap();
        // the frontier hyperedge {A,C} is present and covered
        let a = q.find_var("A").unwrap().node();
        let c = q.find_var("C").unwrap().node();
        assert!(sd.frontier.edges().contains(&NodeSet::from([a, c])));
    }

    #[test]
    fn chain_a2_sharp_width_1() {
        // Example A.2: #-hypertree width 1 for every n (after coring).
        for n in 2..=4usize {
            let mut src = String::from("ans(");
            src.push_str(
                &(1..=n)
                    .map(|i| format!("X{i}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            src.push_str(") :- ");
            let mut atoms = Vec::new();
            for i in 1..=n {
                atoms.push(format!("r(X{i}, Y{i})"));
            }
            for i in 1..n {
                atoms.push(format!("r(X{i}, X{})", i + 1));
                atoms.push(format!("r(Y{i}, Y{})", i + 1));
            }
            src.push_str(&atoms.join(", "));
            src.push('.');
            let q = parse_query(&src).unwrap();
            assert_eq!(sharp_hypertree_width(&q, 3), Some(1), "n = {n}");
        }
    }

    #[test]
    fn biclique_sharp_width_1_despite_unbounded_ghw() {
        // Appendix A, Q2^n: free = ∅, core is a single atom → #-htw 1.
        let mut src = String::from("ans() :- ");
        let mut atoms = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                atoms.push(format!("r(X{i}, Y{j})"));
            }
        }
        src.push_str(&atoms.join(", "));
        src.push('.');
        let q = parse_query(&src).unwrap();
        assert_eq!(sharp_hypertree_width(&q, 2), Some(1));
    }

    #[test]
    fn star_c1_needs_full_width() {
        // Example C.1: Q2^h is acyclic but its frontier is {X0..Xh}; it is
        // not #-covered w.r.t. V^k for k < h+1... with h = 2: width 3 needed.
        let q =
            parse_query("ans(X0, X1, X2) :- r(X0, Y1, Y2), s(Y0, Y1, Y2), w1(X1, Y1), w2(X2, Y2).")
                .unwrap();
        assert_eq!(sharp_hypertree_width(&q, 5), Some(3));
    }

    #[test]
    fn all_cores_finds_symmetric_cores() {
        // color(Q0) has two cores: drop {st(D,G), rr(G,H)} or
        // {st(D,F), rr(F,H)}.
        let cores = all_cores(&color(&q0()));
        assert_eq!(cores.len(), 2);
        for c in &cores {
            assert_eq!(
                c.atoms()
                    .iter()
                    .filter(|a| !cqcount_query::color::is_coloring_atom(a))
                    .count(),
                7
            );
        }
    }

    #[test]
    fn views_variant_example_3_5() {
        // The view set V0 of Example 3.5 (Figure 7(d)) #-covers Q0 —
        // but only via the core that keeps F (V0 has no view covering the
        // triangle {D,G,H}).
        let q = q0();
        let var = |n: &str| q.find_var(n).unwrap().node();
        let mut views = Hypergraph::new();
        views.add_edge([var("A"), var("B"), var("I")].into());
        views.add_edge([var("B"), var("E")].into());
        views.add_edge([var("B"), var("C"), var("D")].into());
        views.add_edge([var("D"), var("F"), var("H")].into());
        let sd = sharp_decomposition_wrt_views(&q, &views).expect("Q0 is #-covered wrt V0");
        // The chosen core must not contain G.
        let g = q.find_var("G").unwrap();
        assert!(!sd.qprime.vars_in_atoms().contains(&g));
        // Sanity: removing the {B,C,D} view breaks coverage of frontier {B,C}.
        let mut weak = Hypergraph::new();
        weak.add_edge([var("A"), var("B"), var("I")].into());
        weak.add_edge([var("B"), var("E")].into());
        weak.add_edge([var("B"), var("D")].into());
        weak.add_edge([var("C"), var("D")].into());
        weak.add_edge([var("D"), var("F"), var("H")].into());
        assert!(sharp_decomposition_wrt_views(&q, &weak).is_none());
    }

    #[test]
    fn bag_views_materialize() {
        use cqcount_query::parse_program;
        let (q, db) = parse_program(
            "r(a, b). r(b, c). s(b, x). s(c, y).
             ans(X) :- r(X, Y), s(Y, Z).",
        )
        .unwrap();
        let q = q.unwrap();
        let sd = sharp_hypertree_decomposition(&q, 2).unwrap();
        let views = bag_views(&sd.qprime, &db, &sd.hypertree);
        assert_eq!(views.len(), sd.hypertree.len());
        for (v, bag) in views.iter().zip(&sd.hypertree.chi) {
            assert_eq!(
                v.cols(),
                bag.to_vec().as_slice(),
                "view columns must equal χ"
            );
        }
    }
}
