//! Generalized hypertree decompositions and tree projections w.r.t. explicit
//! view sets (Section 4).
//!
//! A width-`k` generalized hypertree decomposition of a hypergraph `H` with
//! resource edges `R` (the atoms of the query) is a tree projection of `H`
//! w.r.t. the view set `V^k` whose hyperedges are the unions of `k` resource
//! edges — the two notions are interchangeable (Section 4). `λ` labels in
//! the produced [`Hypertree`] are resource indices.
//!
//! # Lazy candidate streams
//!
//! Candidates for a block are subsets of *candidate universes*: for each
//! union `U` of ≤ `k` resources, the universe is `U ∩ (conn ∪ comp)`,
//! deduplicated first-wins across combos, and every bag `conn ∪ X` for
//! non-empty `X ⊆ universe \ conn` is a candidate. The search wants them in
//! priority order — connected λ-sets before disconnected, large bags before
//! small, few resources before many — and takes the *first* witness, so
//! materializing and sorting all `Σ 2^f` bags up front (the pre-PR-5
//! engine, kept as this module's test oracle) wastes almost all of that work.
//! [`UnionSpace`] instead streams each universe's subsets in descending
//! size via Gosper's hack (fixed-popcount masks in ascending numeric
//! order) and merges the per-universe streams through a binary heap whose
//! key reproduces the eager engine's sort exactly — including its
//! stable-sort tie-breaking — so the two engines try candidates in the
//! *identical* order and find identical witnesses.
//!
//! # One combo table, two searches
//!
//! The normal-form hypertree search ([`crate::hd`]) draws its guards from
//! the same table: a universe's only normal-form bag is the universe
//! itself, its maximal bag, so the normal form is the same stream with every
//! universe cut to that bag. Both searches run one width through
//! [`search_at`], which holds the planner's spans and counters. Each width
//! builds a fresh table and engine; nothing carries from one width to the
//! next.

use crate::tp::{Candidate, CandidateSource, Engine};
use crate::Hypertree;
use cqcount_hypergraph::{Hypergraph, NodeSet};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// All `k`-element index combinations of `0..n` for `k ≤ max_k`, in
/// ascending size.
pub(crate) fn combinations_upto(n: usize, max_k: usize) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![vec![]];
    let mut result = Vec::new();
    for _ in 0..max_k {
        let mut next = Vec::new();
        for combo in &out {
            let start = combo.last().map_or(0, |&l| l + 1);
            for i in start..n {
                let mut c = combo.clone();
                c.push(i);
                next.push(c);
            }
        }
        result.extend(next.iter().cloned());
        out = next;
    }
    result
}

/// Exhaustive sub-bag enumeration is only attempted up to this many free
/// vertices per candidate universe (2^f bags); beyond it, only the maximal
/// bag is emitted so wide atoms degrade gracefully instead of overflowing.
const MAX_ENUM_FREE: usize = 20;

/// Whether the resource edges indexed by `combo` form a connected
/// hypergraph (via pairwise intersections).
fn is_connected_combo(combo: &[usize], resources: &[NodeSet]) -> bool {
    if combo.len() <= 1 {
        return true;
    }
    let mut reached = vec![false; combo.len()];
    reached[0] = true;
    let mut frontier = vec![0usize];
    while let Some(i) = frontier.pop() {
        for j in 0..combo.len() {
            if !reached[j] && resources[combo[i]].intersects(&resources[combo[j]]) {
                reached[j] = true;
                frontier.push(j);
            }
        }
    }
    reached.into_iter().all(|r| r)
}

/// One analyzed resource combination: its union and λ-connectivity.
struct ComboEntry {
    union: NodeSet,
    combo: Vec<usize>,
    connected: bool,
}

/// The combo table of one width-`k` search: every combo of ≤ `k`
/// resources with its union and connectivity, in [`combinations_upto`]
/// order.
pub(crate) struct UnionSpace {
    entries: Vec<ComboEntry>,
    /// Normal form: every universe yields only its maximal bag.
    maximal_only: bool,
}

impl UnionSpace {
    pub(crate) fn new(resources: &[NodeSet], k: usize, maximal_only: bool) -> UnionSpace {
        let entries = combinations_upto(resources.len(), k)
            .into_iter()
            .map(|combo| {
                let mut union = NodeSet::new();
                for &i in &combo {
                    union.union_with(&resources[i]);
                }
                // Connected λ-sets materialize as joins with shared
                // columns; disconnected ones are cross products. Preferring
                // connected combos does not affect completeness, only which
                // witness is found first — and its evaluation cost.
                let connected = is_connected_combo(&combo, resources);
                ComboEntry {
                    union,
                    combo,
                    connected,
                }
            })
            .collect();
        UnionSpace {
            entries,
            maximal_only,
        }
    }

    /// The guard bag `union ∩ (conn ∪ comp)` of every combo whose union
    /// covers `conn` and meets `comp`, in table order, duplicates kept.
    pub(crate) fn guards<'a>(
        &'a self,
        conn: &'a NodeSet,
        comp: &'a NodeSet,
    ) -> impl Iterator<Item = Candidate> + 'a {
        let allowed = conn.union(comp);
        self.entries.iter().filter_map(move |e| {
            let bag = e.union.intersection(&allowed);
            (conn.is_subset(&bag) && bag.intersects(comp)).then(|| (bag, e.combo.clone()))
        })
    }
}

/// The lazy per-universe subset stream: yields the masks of one candidate
/// universe in descending popcount, ascending numeric order within a
/// popcount (Gosper's hack) — the same order the eager engine's stable
/// sort produced.
struct UniState<'a> {
    combo: &'a [usize],
    connected: bool,
    free: Vec<u32>,
    /// Current subset size (popcount), descending from `free.len()` to 1.
    size: usize,
    /// Current mask over `free`, popcount == `size`.
    mask: u64,
    /// Emit only the maximal bag: the normal form, or more than
    /// [`MAX_ENUM_FREE`] free vertices.
    maximal_only: bool,
}

/// Next mask with the same popcount (Gosper's hack); caller checks overflow.
fn next_same_popcount(v: u64) -> u64 {
    let c = v & v.wrapping_neg();
    let r = v + c;
    (((r ^ v) >> 2) / c) | r
}

impl UniState<'_> {
    fn bag(&self, conn: &NodeSet) -> NodeSet {
        let mut bag = conn.clone();
        for (j, &x) in self.free.iter().enumerate() {
            if self.maximal_only || self.mask & (1 << j) != 0 {
                bag.insert(x);
            }
        }
        bag
    }

    /// Move to the next mask; `false` when the stream is exhausted.
    fn advance(&mut self) -> bool {
        if self.maximal_only {
            return false;
        }
        let next = next_same_popcount(self.mask);
        if next < (1u64 << self.free.len()) {
            self.mask = next;
            return true;
        }
        if self.size > 1 {
            self.size -= 1;
            self.mask = (1u64 << self.size) - 1;
            return true;
        }
        false
    }
}

/// Heap key for the candidate merge, matching the eager sort key
/// `(!connected, Reverse(bag.len()), combo.len())` plus the universe's
/// kept-index as the stable-sort tie-break. `BinaryHeap` is a max-heap, so
/// items are wrapped in `Reverse`.
type MergeKey = (bool, Reverse<usize>, usize, usize);

struct LazyCandidates<'a> {
    conn: NodeSet,
    unis: Vec<UniState<'a>>,
    heap: BinaryHeap<Reverse<MergeKey>>,
}

impl LazyCandidates<'_> {
    fn key(&self, idx: usize) -> MergeKey {
        let u = &self.unis[idx];
        (
            !u.connected,
            Reverse(self.conn.len() + u.size),
            u.combo.len(),
            idx,
        )
    }
}

impl Iterator for LazyCandidates<'_> {
    type Item = Candidate;

    fn next(&mut self) -> Option<Candidate> {
        let Reverse((_, _, _, idx)) = self.heap.pop()?;
        let bag = self.unis[idx].bag(&self.conn);
        let lambda = self.unis[idx].combo.to_vec();
        if self.unis[idx].advance() {
            let key = self.key(idx);
            self.heap.push(Reverse(key));
        }
        Some((bag, lambda))
    }
}

impl CandidateSource for UnionSpace {
    fn open<'a>(
        &'a self,
        conn: &NodeSet,
        comp: &NodeSet,
    ) -> Box<dyn Iterator<Item = Candidate> + 'a> {
        let allowed = conn.union(comp);
        // Dedup the available-universe sets sequentially, connected combos
        // first, each group in ascending size (the `seen` state is
        // order-dependent by design: first — most connected — wins).
        let connected_first = self
            .entries
            .iter()
            .filter(|e| e.connected)
            .chain(self.entries.iter().filter(|e| !e.connected));
        let mut seen: HashSet<NodeSet> = HashSet::new();
        let mut unis: Vec<UniState<'a>> = Vec::new();
        for e in connected_first {
            // Zero-alloc pre-filter: most combos fail the connector test,
            // so don't materialize their available sets at all.
            if !conn.subset_of_intersection(&e.union, &allowed) {
                continue;
            }
            let avail = e.union.intersection(&allowed);
            let free = avail.difference(conn);
            if !seen.insert(avail) || free.is_empty() {
                // A repeat, or exactly `conn`: no bag intersects `comp`.
                continue;
            }
            let free: Vec<u32> = free.to_vec();
            let size = free.len();
            let maximal_only = self.maximal_only || size > MAX_ENUM_FREE;
            unis.push(UniState {
                combo: &e.combo,
                connected: e.connected,
                mask: if maximal_only { 0 } else { (1u64 << size) - 1 },
                size,
                free,
                maximal_only,
            });
        }
        let mut stream = LazyCandidates {
            conn: conn.clone(),
            unis,
            heap: BinaryHeap::new(),
        };
        for idx in 0..stream.unis.len() {
            let key = stream.key(idx);
            stream.heap.push(Reverse(key));
        }
        Box::new(stream)
    }
}

/// One width-`k` search of `cover` whose bags are drawn from the unions of
/// ≤ `k` `resources`: every subset of a universe for the exact GHW search,
/// its maximal bag only for the normal form. The one place both searches
/// emit the `plan.candidates` and `plan.blocks` spans and feed the
/// process-wide planner counters.
pub(crate) fn search_at(
    cover: &Hypergraph,
    resources: &[NodeSet],
    k: usize,
    maximal_only: bool,
) -> Option<Hypertree> {
    let counters = cqcount_obs::planner::counters();
    counters.widths_searched.inc();
    let space = {
        let sp = cqcount_obs::trace::span("plan.candidates");
        let space = UnionSpace::new(resources, k, maximal_only);
        if sp.is_armed() {
            sp.add("combos", space.entries.len() as u64);
            sp.add("width", k as u64);
        }
        space
    };
    let sp = cqcount_obs::trace::span("plan.blocks");
    let mut engine = Engine::new(cover);
    let ht = engine.decompose(&space);
    let stats = engine.stats();
    counters.blocks_solved.add(stats.blocks_solved);
    counters.memo_hits.add(stats.memo_hits);
    counters.candidates_yielded.add(stats.candidates_tried);
    if sp.is_armed() {
        sp.add("width", k as u64);
        sp.add("blocks_solved", stats.blocks_solved);
        sp.add("memo_hits", stats.memo_hits);
        sp.add("candidates", stats.candidates_tried);
        sp.tag("found", if ht.is_some() { "yes" } else { "no" });
    }
    ht
}

/// Searches for a width-`k` generalized hypertree decomposition of `cover`
/// using `resources` as the `λ`-candidates.
///
/// `cover` may contain *more* hyperedges than the resources generate (e.g.
/// the frontier hyperedges of a #-hypertree decomposition, Definition 1.2):
/// every hyperedge of `cover` must fit in some bag, while bags must be
/// covered by at most `k` resources.
pub fn ghw_at_most(cover: &Hypergraph, resources: &[NodeSet], k: usize) -> Option<Hypertree> {
    search_at(cover, resources, k, false)
}

/// The exact generalized hypertree width of `cover` w.r.t. `resources`,
/// bounded by `max_k`. Returns the width and a witness.
pub fn ghw_exact(
    cover: &Hypergraph,
    resources: &[NodeSet],
    max_k: usize,
) -> Option<(usize, Hypertree)> {
    (1..=max_k).find_map(|k| ghw_at_most(cover, resources, k).map(|ht| (k, ht)))
}

/// Searches for a tree projection of `(h1, h2)`: bags are subsets of single
/// `h2` hyperedges; `λ` holds the covering `h2` edge index.
pub fn tree_projection(h1: &Hypergraph, h2: &Hypergraph) -> Option<Hypertree> {
    ghw_at_most(h1, h2.edges(), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tp::decompose;

    fn h(edges: &[&[u32]]) -> Hypergraph {
        Hypergraph::from_edges(edges.iter().map(|e| e.iter().copied()))
    }

    /// The pre-PR-5 eager candidate provider: materializes every candidate
    /// bag of every universe and stable-sorts them globally. The ordering
    /// and witness oracle for the lazy stream.
    fn eager_union_candidates(
        resources: Vec<NodeSet>,
        k: usize,
    ) -> impl FnMut(&NodeSet, &NodeSet) -> Vec<Candidate> {
        let mut combos: Vec<(NodeSet, Vec<usize>, bool)> = combinations_upto(resources.len(), k)
            .into_iter()
            .map(|combo| {
                let mut u = NodeSet::new();
                for &i in &combo {
                    u.union_with(&resources[i]);
                }
                let connected = is_connected_combo(&combo, &resources);
                (u, combo, connected)
            })
            .collect();
        combos.sort_by_key(|(_, combo, connected)| (!connected, combo.len()));
        move |conn, comp| {
            let allowed = conn.union(comp);
            let mut seen: HashSet<NodeSet> = HashSet::new();
            let mut out = Vec::new();
            for (union, combo, connected) in &combos {
                let avail = union.intersection(&allowed);
                if !conn.is_subset(&avail) || !seen.insert(avail.clone()) {
                    continue;
                }
                let mut push = |bag: NodeSet| {
                    let key = (!*connected, Reverse(bag.len()), combo.len());
                    out.push((key, (bag, combo.clone())));
                };
                let free: Vec<u32> = avail.difference(conn).to_vec();
                if free.len() > MAX_ENUM_FREE {
                    push(avail);
                    continue;
                }
                for mask in 1u32..(1u32 << free.len()) {
                    let mut bag = conn.clone();
                    for (j, &x) in free.iter().enumerate() {
                        if mask & (1 << j) != 0 {
                            bag.insert(x);
                        }
                    }
                    push(bag);
                }
            }
            // Stable: ties keep materialization order.
            out.sort_by_key(|(key, _)| *key);
            out.into_iter().map(|(_, cand)| cand).collect()
        }
    }

    /// The eager (materialize-and-sort) engine `ghw_at_most` used before
    /// the lazy streams landed: identical witnesses, more work per block.
    fn ghw_at_most_eager(cover: &Hypergraph, resources: &[NodeSet], k: usize) -> Option<Hypertree> {
        decompose(cover, eager_union_candidates(resources.to_vec(), k))
    }

    #[test]
    fn combinations() {
        assert_eq!(combinations_upto(3, 1), vec![vec![0], vec![1], vec![2]]);
        let c2 = combinations_upto(3, 2);
        assert_eq!(c2.len(), 3 + 3);
        assert!(c2.contains(&vec![0, 2]));
        assert_eq!(combinations_upto(0, 2).len(), 0);
    }

    #[test]
    fn acyclic_has_ghw_1() {
        let g = h(&[&[0, 1], &[1, 2], &[1, 3, 4]]);
        let (w, ht) = ghw_exact(&g, g.edges(), 3).unwrap();
        assert_eq!(w, 1);
        assert!(ht.verify_ghd(&g, g.edges()));
    }

    #[test]
    fn cycle_has_ghw_2() {
        let g = h(&[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]);
        let (w, ht) = ghw_exact(&g, g.edges(), 3).unwrap();
        assert_eq!(w, 2);
        assert!(ht.verify_ghd(&g, g.edges()));
        assert!(ht.width() <= 2);
    }

    #[test]
    fn q0_has_ghw_2() {
        // Example 1.1 / Figure 2: hypertree width 2.
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
        let (w, ht) = ghw_exact(&g, g.edges(), 3).unwrap();
        assert_eq!(w, 2);
        assert!(ht.verify_ghd(&g, g.edges()));
    }

    #[test]
    fn sharp_cover_extra_edges() {
        // Example 4.1 / Figure 8: the 4-cycle Q1 with the frontier edge
        // {A,C} = {0,2} added; still width 2 w.r.t. the cycle's atoms.
        let atoms: Vec<NodeSet> = vec![[0, 1].into(), [1, 2].into(), [2, 3].into(), [3, 0].into()];
        let mut cover = Hypergraph::from_edges(atoms.iter().map(|e| e.iter()));
        cover.add_edge([0, 2].into()); // frontier {A,C}
        let (w, ht) = ghw_exact(&cover, &atoms, 3).unwrap();
        assert_eq!(w, 2);
        assert!(ht.covers_all_edges(&cover));
        assert!(ht.lambda_covers_chi(&atoms));
    }

    #[test]
    fn clique_needs_half_width() {
        // K4 as binary edges: ghw(K4) = 2.
        let mut edges = Vec::new();
        for i in 0..4u32 {
            for j in i + 1..4 {
                edges.push(vec![i, j]);
            }
        }
        let g = Hypergraph::from_edges(edges);
        let (w, _) = ghw_exact(&g, g.edges(), 4).unwrap();
        assert_eq!(w, 2);
    }

    #[test]
    fn width_bound_respected() {
        let g = h(&[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]);
        assert!(ghw_at_most(&g, g.edges(), 1).is_none());
    }

    #[test]
    fn tree_projection_wrapper() {
        let g = h(&[&[0, 1], &[1, 2], &[0, 2]]);
        let views = h(&[&[0, 1, 2]]);
        let ht = tree_projection(&g, &views).unwrap();
        assert!(ht.covers_all_edges(&g));
        let no_views = h(&[&[0, 1], &[1, 2]]);
        assert!(tree_projection(&g, &no_views).is_none());
    }

    #[test]
    fn biclique_has_ghw_n() {
        // K_{2,2} as binary edges r(x_i, y_j): ghw = 2 (it is the 4-cycle);
        // K_{3,3} has ghw 3 — checked as "not ≤ 2".
        let mut edges = Vec::new();
        for i in 0..3u32 {
            for j in 0..3u32 {
                edges.push(vec![i, 3 + j]);
            }
        }
        let g = Hypergraph::from_edges(edges);
        assert!(ghw_at_most(&g, g.edges(), 2).is_none());
        assert!(ghw_at_most(&g, g.edges(), 3).is_some());
    }

    /// The lazy stream must yield candidates in the *exact* order the eager
    /// engine materialized them — the search witness depends on it.
    #[test]
    fn lazy_stream_matches_eager_order() {
        let g = h(&[&[0, 1], &[1, 2], &[2, 3], &[3, 0], &[1, 3], &[0, 2, 4]]);
        let resources = g.edges().to_vec();
        for k in 1..=3 {
            let mut eager = eager_union_candidates(resources.clone(), k);
            let space = UnionSpace::new(&resources, k, false);
            // Representative blocks: the whole graph, a sub-component with
            // a non-trivial connector, and a singleton.
            let blocks: Vec<(NodeSet, NodeSet)> = vec![
                (NodeSet::new(), g.nodes().clone()),
                ([1, 3].into(), [2, 4].into()),
                ([0, 2].into(), NodeSet::singleton(1)),
            ];
            for (conn, comp) in &blocks {
                let want = eager(conn, comp);
                let got: Vec<Candidate> = space.open(conn, comp).collect();
                assert_eq!(got, want, "k={k} conn={conn:?} comp={comp:?}");
            }
        }
    }

    /// The lazy sweep and the eager oracle agree bag-for-bag on the paper's
    /// Q0.
    #[test]
    fn lazy_witness_matches_eager_oracle() {
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
        let (width, lazy) = ghw_exact(&g, g.edges(), 3).unwrap();
        let eager = ghw_at_most_eager(&g, g.edges(), width).unwrap();
        assert_eq!(lazy.chi, eager.chi);
        assert_eq!(lazy.lambda, eager.lambda);
    }
}
