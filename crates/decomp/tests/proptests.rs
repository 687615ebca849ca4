//! Property tests for the decomposition solvers.
//!
//! Treewidth is cross-checked against an independent brute-force reference:
//! the minimum over all elimination orderings of the maximum clique created
//! during elimination (exact for the tiny instances generated here).
//! Instances come from the workspace PRNG under fixed seeds;
//! `exhaustive-tests` raises the case count.

use cqcount_arith::prng::Rng;
use cqcount_decomp::{
    ghw_at_most, ghw_exact, hypertree_width_exact, treewidth_at_most, treewidth_exact,
};
use cqcount_hypergraph::{Hypergraph, NodeSet};

const CASES: usize = if cfg!(feature = "exhaustive-tests") {
    512
} else {
    64
};

fn arb_hypergraph(rng: &mut Rng) -> Hypergraph {
    let edges = rng.range_usize(1, 7);
    Hypergraph::from_edges((0..edges).map(|_| {
        let size = rng.range_usize(1, 4);
        (0..size).map(|_| rng.range_u32(0, 6)).collect::<Vec<_>>()
    }))
}

/// Reference treewidth: min over elimination orders (exponential, n ≤ 6).
fn treewidth_reference(h: &Hypergraph) -> usize {
    let nodes: Vec<u32> = h.nodes().to_vec();
    let n = nodes.len();
    if n == 0 {
        return 0;
    }
    // adjacency matrix of the primal graph
    let index = |v: u32| nodes.iter().position(|&x| x == v).unwrap();
    let mut adj = vec![vec![false; n]; n];
    for e in h.edges() {
        let vs: Vec<usize> = e.iter().map(index).collect();
        for (i, &a) in vs.iter().enumerate() {
            for &b in &vs[i + 1..] {
                adj[a][b] = true;
                adj[b][a] = true;
            }
        }
    }
    let mut best = usize::MAX;
    let mut perm: Vec<usize> = (0..n).collect();
    permute(&mut perm, 0, &mut |order| {
        let mut g = adj.clone();
        let mut alive = vec![true; n];
        let mut width = 0usize;
        for &v in order {
            let nbrs: Vec<usize> = (0..n).filter(|&u| alive[u] && g[v][u]).collect();
            width = width.max(nbrs.len());
            for (i, &a) in nbrs.iter().enumerate() {
                for &b in &nbrs[i + 1..] {
                    g[a][b] = true;
                    g[b][a] = true;
                }
            }
            alive[v] = false;
        }
        best = best.min(width);
    });
    best
}

fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[test]
fn treewidth_matches_elimination_reference() {
    let mut rng = Rng::seed_from_u64(0x41);
    for _ in 0..CASES {
        let h = arb_hypergraph(&mut rng);
        let reference = treewidth_reference(&h);
        let (w, ht) = treewidth_exact(&h, 6).expect("treewidth ≤ n always exists");
        assert_eq!(w, reference);
        assert!(ht.covers_all_edges(&h));
        assert!(ht.is_connected());
        assert!(ht.bags_acyclic());
        assert!(ht.chi.iter().all(|b| b.len() <= w + 1));
    }
}

#[test]
fn treewidth_monotone_in_k() {
    let mut rng = Rng::seed_from_u64(0x42);
    for _ in 0..CASES {
        let h = arb_hypergraph(&mut rng);
        let k = rng.range_usize(0, 6);
        if treewidth_at_most(&h, k).is_some() {
            assert!(treewidth_at_most(&h, k + 1).is_some());
        }
    }
}

#[test]
fn ghw_witnesses_verify() {
    let mut rng = Rng::seed_from_u64(0x43);
    for _ in 0..CASES {
        let h = arb_hypergraph(&mut rng);
        let k = rng.range_usize(1, 4);
        if let Some(ht) = ghw_at_most(&h, h.edges(), k) {
            assert!(ht.verify_ghd(&h, h.edges()));
            assert!(ht.width() <= k);
            assert!(ht.bags_acyclic());
        }
    }
}

#[test]
fn ghw_monotone_and_bounded_by_edge_count() {
    let mut rng = Rng::seed_from_u64(0x44);
    for _ in 0..CASES {
        let h = arb_hypergraph(&mut rng);
        let m = h.num_edges();
        let (w, _) = ghw_exact(&h, h.edges(), m.max(1)).expect("ghw ≤ m");
        assert!(w <= m);
        for k in w..m.max(1) {
            assert!(ghw_at_most(&h, h.edges(), k).is_some());
        }
        if w > 1 {
            assert!(ghw_at_most(&h, h.edges(), w - 1).is_none());
        }
    }
}

/// ghw ≤ tw + 1 is false in general, but tw ≤ (ghw)·(max edge size) - 1
/// and ghw = 1 iff acyclic; check the acyclicity characterization.
#[test]
fn ghw_one_iff_acyclic() {
    let mut rng = Rng::seed_from_u64(0x45);
    for _ in 0..CASES {
        let h = arb_hypergraph(&mut rng);
        let acyclic = cqcount_hypergraph::is_acyclic(&h);
        let w1 = ghw_at_most(&h, h.edges(), 1).is_some();
        assert_eq!(acyclic, w1);
    }
}

/// Hypertree width (descendant condition) dominates generalized
/// hypertree width, witnesses are genuine HDs, and ghw ≤ hw ≤ 3·ghw+1
/// ([40]'s approximation bound).
#[test]
fn hw_between_ghw_and_3ghw_plus_1() {
    let mut rng = Rng::seed_from_u64(0x46);
    for _ in 0..CASES {
        let h = arb_hypergraph(&mut rng);
        let m = h.num_edges().max(1);
        let (ghw, _) = ghw_exact(&h, h.edges(), m).expect("ghw ≤ m");
        let (hw, ht) = hypertree_width_exact(&h, h.edges(), m).expect("hw ≤ m");
        assert!(hw >= ghw, "hw {hw} < ghw {ghw}");
        assert!(hw <= 3 * ghw + 1, "hw {hw} > 3·{ghw}+1");
        assert!(ht.verify_ghd(&h, h.edges()));
        assert!(ht.satisfies_descendant_condition(h.edges()));
    }
}

/// Normalization keeps witnesses valid and never grows them.
#[test]
fn normalization_preserves_validity() {
    let mut rng = Rng::seed_from_u64(0x47);
    for _ in 0..CASES {
        let h = arb_hypergraph(&mut rng);
        let k = rng.range_usize(1, 4);
        if let Some(ht) = ghw_at_most(&h, h.edges(), k) {
            let n = ht.normalize();
            assert!(n.len() <= ht.len());
            assert!(n.covers_all_edges(&h));
            assert!(n.is_connected());
            assert!(n.lambda_covers_chi(h.edges()));
            assert!(n.bags_acyclic());
            // idempotent
            assert_eq!(n.normalize().len(), n.len());
        }
    }
}

/// The decomposition hypergraph of any witness is a tree projection:
/// covered by unions of ≤ k edges and covering h.
#[test]
fn witness_is_sandwich() {
    let mut rng = Rng::seed_from_u64(0x48);
    for _ in 0..CASES {
        let h = arb_hypergraph(&mut rng);
        if let Some(ht) = ghw_at_most(&h, h.edges(), 2) {
            let ha = ht.to_hypergraph();
            assert!(h.reduced().covered_by(&ha));
            // every bag within the union of its λ edges
            for (bag, lam) in ht.chi.iter().zip(&ht.lambda) {
                let mut u = NodeSet::new();
                for &r in lam {
                    u.union_with(&h.edges()[r]);
                }
                assert!(bag.is_subset(&u));
                assert!(lam.len() <= 2);
            }
        }
    }
}
