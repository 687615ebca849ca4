//! The tree-projection search engine (Theorem 3.6's FPT computation).
//!
//! A tree projection of `(H₁, H₂)` exists iff the primal graph of `H₁` has a
//! tree decomposition whose bags each fit inside a hyperedge of `H₂`: every
//! hyperedge of `H₁` is a clique of the primal graph, and any tree
//! decomposition puts every clique inside some bag (the clique-containment
//! lemma), so covering `H₁` comes for free.
//!
//! The search is the classical block recursion over connected components:
//! `solve(C)` asks whether the block `(C, N(C))` can be decomposed; it tries
//! every candidate bag `B` with `N(C) ⊆ B ⊆ C ∪ N(C)` and `B ∩ C ≠ ∅`, and
//! recurses into the connected components of `C \ B`. Results are memoized
//! per component, so the search is fixed-parameter tractable in
//! `|nodes(H₁)|` — exactly the guarantee of Theorem 3.6.
//!
//! # One lane, deterministic witnesses
//!
//! The search runs on the calling thread and makes no pool calls: at
//! serving sizes a block costs microseconds, less than one pool task (see
//! DESIGN.md §Planner, "One lane"). Candidates are pulled one at a time,
//! sibling components of `C \ B` are solved in order with short-circuit on
//! the first undecomposable one, and the memo is a plain map from block to
//! verdict. One engine serves one search: `solve(C)` is a pure function of
//! `C` (candidates derive from the block alone), so the witness is the
//! first success in candidate order at every level.
//!
//! Candidate bags are supplied by a [`CandidateSource`] (or a plain closure
//! through [`decompose`]), which is how the same engine serves tree
//! projections w.r.t. arbitrary view sets ([`crate::ghw`]), plain treewidth
//! ([`crate::treedec`]) and fractional hypertree width
//! ([`crate::fractional`]).

use crate::Hypertree;
use cqcount_hypergraph::primal::PrimalGraph;
use cqcount_hypergraph::{Hypergraph, NodeSet};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// A candidate bag: the bag node set plus an opaque payload (resource
/// indices) recorded into `λ` of the produced [`Hypertree`].
pub type Candidate = (NodeSet, Vec<usize>);

/// Supplies candidate bags for blocks `(comp, conn = N(comp))`, in
/// decreasing priority order, pulled lazily.
pub(crate) trait CandidateSource {
    fn open<'a>(
        &'a self,
        conn: &NodeSet,
        comp: &NodeSet,
    ) -> Box<dyn Iterator<Item = Candidate> + 'a>;
}

/// A subtree of bags (pre-flattening). Shared, not cloned: sibling blocks
/// frequently reuse identical memoized subtrees.
#[derive(Debug)]
struct BagNode {
    bag: NodeSet,
    lambda: Vec<usize>,
    children: Vec<Rc<BagNode>>,
}

/// A point-in-time copy of the engine's search counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SearchStats {
    /// Blocks actually computed (memo fills, positive or negative).
    pub blocks_solved: u64,
    /// Memo hits.
    pub memo_hits: u64,
    /// Candidate bags pulled from streams and attempted.
    pub candidates_tried: u64,
}

/// FxHash — the multiply-xor hash FxHashMap uses; `NodeSet` keys are short
/// `u64` block vectors, where this beats SipHash by a wide margin. Local
/// because this workspace takes no external crates.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// The block-search engine of one decomposition search.
pub(crate) struct Engine {
    h1: Hypergraph,
    primal: PrimalGraph,
    memo: HashMap<NodeSet, Option<Rc<BagNode>>, FxBuild>,
    stats: SearchStats,
}

impl Engine {
    pub(crate) fn new(h1: &Hypergraph) -> Engine {
        Engine {
            h1: h1.clone(),
            primal: PrimalGraph::of(h1),
            memo: HashMap::default(),
            stats: SearchStats::default(),
        }
    }

    /// Runs the decomposition search over `source`'s candidates.
    pub(crate) fn decompose<S: CandidateSource>(&mut self, source: &S) -> Option<Hypertree> {
        let roots = self.components_within(self.h1.nodes());
        if roots.is_empty() {
            // No node means no block to solve. A tree still needs one
            // vertex, and every node-free hyperedge fits its empty bag.
            return Some(Hypertree::from_parts(
                vec![NodeSet::new()],
                vec![Vec::new()],
                vec![None],
            ));
        }
        let forest = self.solve_all(&roots, source)?;
        let ht = flatten(&forest);
        debug_assert!(ht.covers_all_edges(&self.h1), "clique lemma violated: bug");
        debug_assert!(ht.is_connected(), "connectedness violated: bug");
        Some(ht)
    }

    /// The engine's search counters so far.
    pub(crate) fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Open neighborhood of `set` in the primal graph.
    fn neighborhood(&self, set: &NodeSet) -> NodeSet {
        let mut out = NodeSet::new();
        for x in set.iter() {
            out.union_with(self.primal.neighbours(x));
        }
        out.difference_with(set);
        out
    }

    /// Connected components of the primal graph induced on `nodes`,
    /// ascending by smallest node. This sits on the innermost loop of the
    /// search (once per candidate attempt), so the BFS works a whole
    /// frontier *set* per round through two reused buffers instead of
    /// allocating per visited vertex.
    fn components_within(&self, nodes: &NodeSet) -> Vec<NodeSet> {
        let mut remaining = nodes.clone();
        let mut out = Vec::new();
        let mut frontier = NodeSet::new();
        let mut next = NodeSet::new();
        while let Some(start) = remaining.first() {
            let mut comp = NodeSet::singleton(start);
            remaining.remove(start);
            frontier.copy_from(&comp);
            while !frontier.is_empty() {
                next.clear();
                for v in frontier.iter() {
                    next.union_with(self.primal.neighbours(v));
                }
                next.intersect_with(&remaining);
                remaining.difference_with(&next);
                comp.union_with(&next);
                std::mem::swap(&mut frontier, &mut next);
            }
            out.push(comp);
        }
        out
    }

    /// Decides decomposability of the block `(comp, N(comp))`.
    fn solve<S: CandidateSource>(&mut self, comp: &NodeSet, source: &S) -> Option<Rc<BagNode>> {
        if let Some(verdict) = self.memo.get(comp) {
            self.stats.memo_hits += 1;
            return verdict.clone();
        }
        let conn = self.neighborhood(comp);
        let result = self.search_block(comp, &conn, source.open(&conn, comp), source);
        self.stats.blocks_solved += 1;
        self.memo.insert(comp.clone(), result.clone());
        result
    }

    /// Pulls candidates one at a time until one decomposes the block or
    /// the stream runs dry.
    fn search_block<S: CandidateSource>(
        &mut self,
        comp: &NodeSet,
        conn: &NodeSet,
        stream: Box<dyn Iterator<Item = Candidate> + '_>,
        source: &S,
    ) -> Option<Rc<BagNode>> {
        let allowed = conn.union(comp);
        for (bag, lambda) in stream {
            if !(conn.is_subset(&bag) && bag.is_subset(&allowed) && bag.intersects(comp)) {
                continue;
            }
            self.stats.candidates_tried += 1;
            // The bag decomposes the block iff every component of
            // `comp \ bag` solves.
            let subs = self.components_within(&comp.difference(&bag));
            if let Some(children) = self.solve_all(&subs, source) {
                return Some(Rc::new(BagNode {
                    bag,
                    lambda,
                    children,
                }));
            }
        }
        None
    }

    /// Solves sibling blocks in order; `None` as soon as any block is
    /// undecomposable.
    fn solve_all<S: CandidateSource>(
        &mut self,
        comps: &[NodeSet],
        source: &S,
    ) -> Option<Vec<Rc<BagNode>>> {
        comps.iter().map(|sub| self.solve(sub, source)).collect()
    }
}

fn flatten(forest: &[Rc<BagNode>]) -> Hypertree {
    let mut chi = Vec::new();
    let mut lambda = Vec::new();
    let mut parent = Vec::new();
    let mut stack: Vec<(&BagNode, Option<usize>)> =
        forest.iter().map(|t| (t.as_ref(), None)).collect();
    while let Some((node, par)) = stack.pop() {
        let idx = chi.len();
        chi.push(node.bag.clone());
        lambda.push(node.lambda.clone());
        parent.push(par);
        for c in &node.children {
            stack.push((c.as_ref(), Some(idx)));
        }
    }
    Hypertree::from_parts(chi, lambda, parent)
}

/// Adapts a (possibly stateful) candidate closure to [`CandidateSource`].
/// The borrow ends before `open` returns (candidates are materialized), so
/// the engine's recursion never re-enters it.
struct ClosureSource<F>(RefCell<F>);

impl<F> CandidateSource for ClosureSource<F>
where
    F: FnMut(&NodeSet, &NodeSet) -> Vec<Candidate>,
{
    fn open<'a>(
        &'a self,
        conn: &NodeSet,
        comp: &NodeSet,
    ) -> Box<dyn Iterator<Item = Candidate> + 'a> {
        Box::new((self.0.borrow_mut())(conn, comp).into_iter())
    }
}

/// Searches for a tree projection / constrained tree decomposition of `h1`
/// with bags drawn from `candidates(conn, comp)`.
///
/// The candidate closure receives the connector `conn` (which the bag must
/// contain) and the current component `comp` (the bag must stay within
/// `conn ∪ comp` and intersect `comp`); it may return candidates violating
/// these side conditions — they are filtered — but returning fewer saves
/// work. Returns a [`Hypertree`] whose `λ` holds the candidate payloads, or
/// `None` if no decomposition exists.
pub fn decompose<F>(h1: &Hypergraph, candidates: F) -> Option<Hypertree>
where
    F: FnMut(&NodeSet, &NodeSet) -> Vec<Candidate>,
{
    Engine::new(h1).decompose(&ClosureSource(RefCell::new(candidates)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(edges: &[&[u32]]) -> Hypergraph {
        Hypergraph::from_edges(edges.iter().map(|e| e.iter().copied()))
    }

    /// Candidate provider: all subsets of the given resource edges that
    /// contain `conn` (the generic "tree projection w.r.t. H2" provider).
    fn subsets_of(resources: Vec<NodeSet>) -> impl FnMut(&NodeSet, &NodeSet) -> Vec<Candidate> {
        move |conn, comp| {
            let allowed = conn.union(comp);
            let mut out = Vec::new();
            for (i, r) in resources.iter().enumerate() {
                let avail = r.intersection(&allowed);
                if !conn.is_subset(&avail) {
                    continue;
                }
                // enumerate conn ∪ X for X ⊆ (avail ∩ comp), X ≠ ∅
                let free: Vec<u32> = avail.intersection(comp).to_vec();
                for mask in 1u32..(1 << free.len()) {
                    let mut bag = conn.clone();
                    for (j, &x) in free.iter().enumerate() {
                        if mask & (1 << j) != 0 {
                            bag.insert(x);
                        }
                    }
                    out.push((bag, vec![i]));
                }
            }
            out
        }
    }

    #[test]
    fn acyclic_hypergraph_projects_onto_itself() {
        let g = h(&[&[0, 1], &[1, 2], &[2, 3]]);
        let ht = decompose(&g, subsets_of(g.edges().to_vec())).unwrap();
        assert!(ht.verify_ghd(&g, g.edges()));
    }

    #[test]
    fn cycle_needs_bigger_resources() {
        // 4-cycle: no tree projection onto its own edges…
        let g = h(&[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]);
        assert!(decompose(&g, subsets_of(g.edges().to_vec())).is_none());
        // …but adding pairwise unions (width 2) suffices.
        let mut resources = g.edges().to_vec();
        for i in 0..4 {
            for j in i + 1..4 {
                resources.push(g.edges()[i].union(&g.edges()[j]));
            }
        }
        let ht = decompose(&g, subsets_of(resources.clone())).unwrap();
        assert!(ht.covers_all_edges(&g));
        assert!(ht.is_connected());
        assert!(ht.bags_acyclic());
    }

    #[test]
    fn triangle_with_big_edge() {
        let g = h(&[&[0, 1], &[1, 2], &[0, 2]]);
        // resource {0,1,2} covers the whole triangle
        let resources: Vec<NodeSet> = vec![[0, 1, 2].into()];
        let ht = decompose(&g, subsets_of(resources)).unwrap();
        assert!(ht.covers_all_edges(&g));
    }

    #[test]
    fn disconnected_components() {
        let g = h(&[&[0, 1], &[5, 6]]);
        let ht = decompose(&g, subsets_of(g.edges().to_vec())).unwrap();
        assert_eq!(ht.roots.len(), 2);
        assert!(ht.verify_ghd(&g, g.edges()));
    }

    #[test]
    fn infeasible_when_an_edge_is_uncoverable() {
        let g = h(&[&[0, 1, 2]]);
        let resources: Vec<NodeSet> = vec![[0, 1].into(), [1, 2].into()];
        assert!(decompose(&g, subsets_of(resources)).is_none());
    }

    #[test]
    fn q0_example_3_5_views() {
        // Figure 7(d): views over {A,B,I}, {B,E}, {B,C,D}, {D,F,H},
        // {D,G,H} … we use the view set V0 of Example 3.5 — check the core
        // hypergraph H_{Q0'} has a tree projection w.r.t. it (Figure 7(c)).
        // Q0' (core): mw{A,B,I}, wt{B,D}, wi{B,E}, pt{C,D}, st{D,F},
        // rr{F,H}, rr{D,H}; A=0,B=1,C=2,D=3,E=4,F=5,H=7,I=8.
        let q0_core = h(&[
            &[0, 1, 8],
            &[1, 3],
            &[1, 4],
            &[2, 3],
            &[3, 5],
            &[5, 7],
            &[3, 7],
        ]);
        let views: Vec<NodeSet> = vec![
            [0, 1, 8].into(),
            [1, 4].into(),
            [1, 2, 3].into(),
            [3, 5, 7].into(),
        ];
        let ht = decompose(&q0_core, subsets_of(views.clone())).unwrap();
        assert!(ht.verify_ghd(&q0_core, &views));
    }

    #[test]
    fn memoization_handles_repeated_blocks() {
        // A long path reuses many identical sub-blocks when resources allow
        // multiple decompositions; this is a smoke test that it stays fast.
        let edges: Vec<Vec<u32>> = (0..16u32).map(|i| vec![i, i + 1]).collect();
        let g = Hypergraph::from_edges(edges);
        let ht = decompose(&g, subsets_of(g.edges().to_vec())).unwrap();
        assert!(ht.verify_ghd(&g, g.edges()));
    }
}
