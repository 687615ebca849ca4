//! *Hypertree decompositions* proper (\[36\]; Appendix C of the paper):
//! generalized hypertree decompositions that additionally satisfy the
//! descendant condition `vars(λ(p)) ∩ χ(T_p) ⊆ χ(p)` — the class for which
//! width-`k` membership is decidable in polynomial time and over whose
//! normal forms D-optimal decompositions are computable (Theorem C.5).
//!
//! The search is det-k-decomp-style: in the block recursion, the bag of a
//! vertex handling block `(C, conn)` is *forced* to
//! `χ(p) = vars(λ(p)) ∩ (conn ∪ C)` for a guard `λ(p)` of at most `k`
//! resource edges with `conn ⊆ χ(p)`. Because every bag below the vertex
//! stays inside `C ∪ conn`, the descendant condition holds by construction;
//! normal-form completeness is the classical result of \[36\].
//!
//! This is the search that plans: `WidthSearch` in `cqcount-core` runs it
//! at each width. Its guards come from the exact-GHW search's combo table
//! ([`crate::ghw`]) and are tried in that search's order — connected
//! guards first, then larger bags, then fewer atoms, repeated bags dropped
//! first-wins. The order decides which witness is found, and so what
//! counting joins: the 4-cycle taken fewest-atoms-first gets
//! `λ = {e(X,Y), e(Z,W)}`, a cross product, where connected-first gets
//! two atoms that share a variable. On every query the planner has been
//! measured on, the normal-form witness equals the exact-GHW one.

use crate::ghw::{search_at, UnionSpace};
use crate::weighted::decompose_min_cost;
use crate::Hypertree;
use cqcount_arith::Natural;
use cqcount_hypergraph::{Hypergraph, NodeSet};
use std::cmp::Reverse;

/// Searches for a width-`k` hypertree decomposition (normal form, with the
/// descendant condition) of `cover` using `resources` as guards.
pub fn hypertree_width_at_most(
    cover: &Hypergraph,
    resources: &[NodeSet],
    k: usize,
) -> Option<Hypertree> {
    let ht = search_at(cover, resources, k, true)?;
    debug_assert!(ht.satisfies_descendant_condition(resources));
    Some(ht)
}

/// The exact hypertree width of `cover` w.r.t. `resources`, searched up to
/// `max_k`, with a witness.
pub fn hypertree_width_exact(
    cover: &Hypergraph,
    resources: &[NodeSet],
    max_k: usize,
) -> Option<(usize, Hypertree)> {
    (1..=max_k).find_map(|k| hypertree_width_at_most(cover, resources, k).map(|ht| (k, ht)))
}

/// D-optimal decompositions over the normal-form class `C_k^nf`
/// (Theorem C.5): finds the width-≤`k` normal-form hypertree decomposition
/// minimizing the additive vertex cost `cost(χ(p), λ(p))` — with the
/// paper's weight `v_D(p) = (w+1)^{deg_D(F, p)}`, the result minimizes the
/// maximum degree `bound(D, HD)`.
pub fn d_optimal_decomposition<G>(
    cover: &Hypergraph,
    resources: &[NodeSet],
    k: usize,
    cost: G,
) -> Option<(Hypertree, Natural)>
where
    G: FnMut(&NodeSet, &[usize]) -> Natural,
{
    // Every guard, repeated bags included: the cost sees `λ`, so two guards
    // of one bag are two different vertices. Fewer guard atoms first
    // (cheaper bags), then larger coverage; ties keep the first.
    let space = UnionSpace::new(resources, k, true);
    let guards = |conn: &NodeSet, comp: &NodeSet| {
        let mut out: Vec<_> = space.guards(conn, comp).collect();
        out.sort_by_key(|(bag, lam)| (lam.len(), Reverse(bag.len())));
        out
    };
    decompose_min_cost(cover, guards, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghw::ghw_exact;

    fn h(edges: &[&[u32]]) -> Hypergraph {
        Hypergraph::from_edges(edges.iter().map(|e| e.iter().copied()))
    }

    #[test]
    fn acyclic_has_hw_1() {
        let g = h(&[&[0, 1], &[1, 2], &[1, 3, 4]]);
        let (w, ht) = hypertree_width_exact(&g, g.edges(), 3).unwrap();
        assert_eq!(w, 1);
        assert!(ht.verify_ghd(&g, g.edges()));
        assert!(ht.satisfies_descendant_condition(g.edges()));
    }

    #[test]
    fn cycle_has_hw_2() {
        let g = h(&[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]);
        let (w, ht) = hypertree_width_exact(&g, g.edges(), 3).unwrap();
        assert_eq!(w, 2);
        assert!(ht.satisfies_descendant_condition(g.edges()));
    }

    #[test]
    fn q0_has_hw_2() {
        let g = h(&[
            &[0, 1, 8],
            &[1, 3],
            &[1, 4],
            &[2, 3],
            &[3, 5],
            &[3, 6],
            &[6, 7],
            &[5, 7],
            &[3, 7],
        ]);
        let (w, ht) = hypertree_width_exact(&g, g.edges(), 3).unwrap();
        assert_eq!(w, 2);
        assert!(ht.verify_ghd(&g, g.edges()));
        assert!(ht.satisfies_descendant_condition(g.edges()));
    }

    #[test]
    fn hw_at_least_ghw() {
        // hw ≥ ghw on a batch of deterministic hypergraphs.
        let cases = [
            h(&[&[0, 1], &[1, 2], &[2, 3], &[3, 0], &[0, 2]]),
            h(&[&[0, 1, 2], &[2, 3, 4], &[4, 5, 0]]),
            h(&[&[0, 1], &[1, 2], &[2, 0], &[2, 3], &[3, 4], &[4, 2]]),
        ];
        for (i, g) in cases.iter().enumerate() {
            let (ghw, _) = ghw_exact(g, g.edges(), 6).unwrap();
            let (hw, ht) = hypertree_width_exact(g, g.edges(), 6).unwrap();
            assert!(hw >= ghw, "case {i}: hw {hw} < ghw {ghw}");
            assert!(hw <= 3 * ghw + 1, "case {i}: hw way beyond the 3k+1 bound");
            assert!(ht.satisfies_descendant_condition(g.edges()));
        }
    }

    #[test]
    fn d_optimal_prefers_cheap_guards() {
        // Path 0-1-2: cost = index of the guard atom + 1 summed; minimizing
        // prefers single-atom guards.
        let g = h(&[&[0, 1], &[1, 2]]);
        let (ht, cost) = d_optimal_decomposition(&g, g.edges(), 2, |_, lam| {
            lam.iter().map(|&i| Natural::from(i as u64 + 1)).sum()
        })
        .unwrap();
        assert!(ht.covers_all_edges(&g));
        // best: one vertex guarded by atom0 + one by atom1 = 1 + 2 = 3,
        // or a single vertex guarded by both = 3; either way cost 3.
        assert_eq!(cost, Natural::from(3u64));
    }

    #[test]
    fn infeasible_bound() {
        let g = h(&[&[0, 1], &[1, 2], &[2, 0]]);
        assert!(hypertree_width_at_most(&g, g.edges(), 1).is_none());
    }
}
