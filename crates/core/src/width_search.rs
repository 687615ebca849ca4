//! The `#`-hypertree width sweep.
//!
//! Every width-`k` probe of a query needs the same expensive preamble: the
//! exact core of `color(Q)` (NP-hard), its uncolored version `Q'`, the
//! frontier hypergraph and the combined cover. A [`WidthSearch`] computes
//! it **once** (under the `plan.core` span); each width is then one
//! normal-form hypertree decomposition search
//! ([`cqcount_decomp::hypertree_width_at_most`]), polynomial for a fixed
//! width, over the core's atoms as guards. No state carries from one width
//! to the next, so a sweep's witness at `k` is the one a single probe at
//! `k` finds.
//!
//! [`sharp_hypertree_decomposition`](crate::sharp::sharp_hypertree_decomposition),
//! [`sharp_hypertree_width`](crate::sharp::sharp_hypertree_width),
//! [`count_via_sharp_decomposition`](crate::pipeline::count_via_sharp_decomposition),
//! the hybrid rung's per-`S̄` search, [`for_each_answer`](crate::enumerate::for_each_answer)
//! and [`prepare_plan`](crate::planner::prepare_plan) all go through this
//! type; budgeted planning checks its budget between widths, so the budget
//! meters the whole sweep.

use crate::sharp::{atom_nodesets, sharp_cover, SharpDecomposition};
use cqcount_decomp::hypertree_width_at_most;
use cqcount_hypergraph::{Hypergraph, NodeSet};
use cqcount_query::color::{color, uncolor};
use cqcount_query::core_of::core_exact;
use cqcount_query::ConjunctiveQuery;

/// One query's width sweep: core, cover and frontier computed once.
pub struct WidthSearch {
    colored_core: ConjunctiveQuery,
    qprime: ConjunctiveQuery,
    frontier: Hypergraph,
    /// `H_{Q'} ∪ FH(Q', free)`: every edge must fit in a bag.
    cover: Hypergraph,
    /// The atoms of `Q'`, the guards `λ` indexes.
    resources: Vec<NodeSet>,
}

impl WidthSearch {
    /// Runs the width-independent preamble: exact core of `color(q)`,
    /// uncoloring, frontier hypergraph and the combined cover.
    pub fn new(q: &ConjunctiveQuery) -> WidthSearch {
        let sp = cqcount_obs::trace::span("plan.core");
        let colored_core = core_exact(&color(q));
        let qprime = uncolor(&colored_core);
        let free = q.free_nodes();
        let (cover, frontier) = sharp_cover(&qprime, &free);
        let resources = atom_nodesets(&qprime);
        if sp.is_armed() {
            sp.add("core_atoms", qprime.atoms().len() as u64);
            sp.add("cover_edges", cover.edges().len() as u64);
            sp.add("frontier_edges", frontier.edges().len() as u64);
        }
        drop(sp);
        WidthSearch {
            colored_core,
            qprime,
            frontier,
            cover,
            resources,
        }
    }

    /// The core's uncolored sub-query `Q'`.
    pub fn qprime(&self) -> &ConjunctiveQuery {
        &self.qprime
    }

    /// Probes width exactly `k`.
    pub fn decomposition_at(&mut self, k: usize) -> Option<SharpDecomposition> {
        let hypertree = hypertree_width_at_most(&self.cover, &self.resources, k)?;
        let sp = cqcount_obs::trace::span("plan.witness");
        let width = hypertree.width();
        if sp.is_armed() {
            sp.add("width", width as u64);
            sp.add("vertices", hypertree.len() as u64);
        }
        Some(SharpDecomposition {
            colored_core: self.colored_core.clone(),
            qprime: self.qprime.clone(),
            frontier: self.frontier.clone(),
            hypertree,
            width,
        })
    }

    /// Sweeps `k = 1..=max_k`; returns the first admitting width and its
    /// witness.
    pub fn find_up_to(&mut self, max_k: usize) -> Option<(usize, SharpDecomposition)> {
        (1..=max_k).find_map(|k| self.decomposition_at(k).map(|sd| (k, sd)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcount_query::parse_query;

    #[test]
    fn sweep_matches_single_width_probes() {
        let q = parse_query("ans(A, C) :- s1(A, B), s2(B, C), s3(C, D), s4(D, A).").unwrap();
        let mut ws = WidthSearch::new(&q);
        assert!(ws.decomposition_at(1).is_none());
        let sd = ws.decomposition_at(2).expect("Q1 has #-htw 2");
        assert_eq!(sd.width, 2);
        let fresh = crate::sharp::sharp_hypertree_decomposition(&q, 2).unwrap();
        assert_eq!(sd.hypertree.chi, fresh.hypertree.chi);
        assert_eq!(sd.hypertree.lambda, fresh.hypertree.lambda);
    }

    #[test]
    fn find_up_to_reports_the_admitting_width() {
        let q =
            parse_query("ans(X0, X1, X2) :- r(X0, Y1, Y2), s(Y0, Y1, Y2), w1(X1, Y1), w2(X2, Y2).")
                .unwrap();
        let mut ws = WidthSearch::new(&q);
        let (k, sd) = ws.find_up_to(5).expect("C.1 has #-htw 3");
        assert_eq!(k, 3);
        assert_eq!(sd.width, 3);
    }

    /// Whether the guard atoms `lam` are connected through shared
    /// variables, so that their join is no cross product.
    fn guard_connected(lam: &[usize], resources: &[NodeSet]) -> bool {
        let Some((&first, rest)) = lam.split_first() else {
            return true;
        };
        let mut reached = resources[first].clone();
        let mut left = rest.to_vec();
        while let Some(i) = left.iter().position(|&a| resources[a].intersects(&reached)) {
            reached.union_with(&resources[left.swap_remove(i)]);
        }
        left.is_empty()
    }

    /// The normal-form witness must be the exact-GHW witness over the same
    /// cover and guards: the same width, the same `χ` and the same `λ`,
    /// or no decomposition from either within the cap. With
    /// `require_connected`, no guard of the witness may be a cross
    /// product. Returns the width.
    fn hd_matches_ghw(q: &ConjunctiveQuery, require_connected: bool) -> Option<usize> {
        let cap = crate::planner::WIDTH_CAP;
        let mut ws = WidthSearch::new(q);
        let ghw = cqcount_decomp::ghw_exact(&ws.cover, &ws.resources, cap);
        match (ws.find_up_to(cap), ghw) {
            (None, None) => None,
            (Some((k, sd)), Some((w, ht))) => {
                assert_eq!(k, w, "{q}: width");
                assert_eq!(sd.hypertree.chi, ht.chi, "{q}: χ");
                assert_eq!(sd.hypertree.lambda, ht.lambda, "{q}: λ");
                if require_connected {
                    for lam in &ht.lambda {
                        assert!(guard_connected(lam, &ws.resources), "{q}: λ {lam:?}");
                    }
                }
                Some(k)
            }
            (hd, ghw) => panic!(
                "{q}: normal form {:?}, exact GHW {:?}",
                hd.map(|(k, _)| k),
                ghw.map(|(w, _)| w)
            ),
        }
    }

    #[test]
    fn normal_form_witness_matches_exact_ghw() {
        const Q0_BODY: &str = "mw(A, B, I), wt(B, D), wi(B, E), pt(C, D), \
                               st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H)";
        const Q0_VARS: [&str; 9] = ["A", "B", "C", "D", "E", "F", "G", "H", "I"];
        let exhaustive = cfg!(feature = "exhaustive-tests");
        let mut queries: Vec<ConjunctiveQuery> = Vec::new();
        // Q0's heads: every eighth, or all 511.
        for mask in (1u32..1 << Q0_VARS.len()).filter(|m| exhaustive || m % 8 == 1) {
            let head: Vec<&str> = (0..Q0_VARS.len())
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| Q0_VARS[i])
                .collect();
            queries.push(parse_query(&format!("ans({}) :- {Q0_BODY}.", head.join(", "))).unwrap());
        }
        // The benchmark's shapes: chain heads, triangle, 4-cycle, and the
        // `pt` cycles of 4 to 10 atoms. The cycles' witnesses join
        // neighbouring atoms: taken fewest-atoms-first, the 4-cycle would
        // get `λ = {e(X, Y), e(Z, W)}`, a cross product.
        let mut cycles: Vec<ConjunctiveQuery> = Vec::new();
        for head in ["A, B, C", "A", "B", "C", "A, C"] {
            let src = format!("ans({head}) :- r(A, B), s(B, C), t(C).");
            queries.push(parse_query(&src).unwrap());
        }
        queries.push(parse_query("ans(X) :- u(X, Y), v(Y).").unwrap());
        for src in [
            "ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).",
            "ans(X) :- e(X, Y), e(Y, Z), e(Z, X).",
            "ans(X, Y) :- e(X, Y), e(Y, Z), e(Z, W), e(W, X).",
        ] {
            cycles.push(parse_query(src).unwrap());
        }
        for len in [4usize, 6, 8, 10] {
            let half = len / 2;
            let atoms: Vec<String> = (0..len)
                .map(|i| format!("pt(X{}, Y{})", i.div_ceil(2) % half, i / 2))
                .collect();
            let src = format!("ans(X0, Y0) :- {}.", atoms.join(", "));
            cycles.push(parse_query(&src).unwrap());
        }
        let seeds = if exhaustive { 12 } else { 2 };
        for atoms in 6..=12 {
            for seed in 0..seeds {
                queries.push(cqcount_workloads::random::random_cyclic_query(atoms, seed));
            }
        }
        let widths: Vec<Option<usize>> = (queries.iter().map(|q| hd_matches_ghw(q, false)))
            .chain(cycles.iter().map(|q| hd_matches_ghw(q, true)))
            .collect();
        // The corpus reaches every width within the cap, and beyond it.
        for w in [Some(1), Some(2), Some(3), None] {
            assert!(widths.contains(&w), "no query of width {w:?}");
        }
    }
}
