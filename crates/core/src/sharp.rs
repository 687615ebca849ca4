//! `#`-hypertree decompositions (Definition 1.2) and `#`-decompositions
//! w.r.t. arbitrary view sets (Definition 1.4, Theorem 3.6).

use cqcount_decomp::{tree_projection, Hypertree};
use cqcount_hypergraph::{frontier_hypergraph, Hypergraph, NodeSet};
use cqcount_query::canonical::{atom_bindings, atom_bindings_projected};
use cqcount_query::color::{color, uncolor};
use cqcount_query::hom::has_homomorphism;
use cqcount_query::ConjunctiveQuery;
use cqcount_relational::consistency::reduce_downward;
use cqcount_relational::{Bindings, Database, Relation};

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

/// `ht` completed for `q`: every atom sits in some bag's `λ` with its
/// variables inside that bag's `χ` (Theorem 6.2's preprocessing).
fn complete(q: &ConjunctiveQuery, ht: &Hypertree) -> Hypertree {
    ht.complete(&(0..q.atoms().len()).collect::<Vec<_>>(), &atom_nodesets(q))
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

/// Total rows in the bags' λ-relations below which the bag builder
/// builds every bag on the calling thread: on small inputs spawning lanes
/// costs more than the bags it would overlap.
const PAR_MIN_ROWS: usize = 4096;

/// How every vertex's view of a decomposition, completed for its query, is
/// built: its λ-atoms are scanned in order and folded with
/// [`Bindings::join_project`], and the plan fixes which columns each scan
/// and join keeps, which ears each λ-scan absorbs and which children filter
/// the bag's last step. It reads the query alone, so a prepared plan builds
/// it once and every count of that plan reuses it.
///
/// [`BagPlan::textbook`] builds the textbook per-vertex relations
/// `r_p = π_{χ(p)}(⋈_{a ∈ λ(p)} a^D)`, which the #-relations of
/// [`crate::ps`] and the degree bound of Definition 6.1 read.
/// [`BagPlan::count`] builds the narrower views a count reads.
#[derive(Clone, Debug)]
pub struct BagPlan {
    /// The query whose atoms `λ` indexes.
    q: ConjunctiveQuery,
    /// The decomposition completed so every atom sits in some bag.
    pub tree: Hypertree,
    /// Per vertex, how its view is built.
    bags: Vec<Bag>,
    /// Bag-local existential columns that are never materialized.
    pub cols_dropped: usize,
}

/// One vertex's build.
#[derive(Clone, Debug)]
struct Bag {
    /// Its λ-atoms' scans in join order.
    scans: Vec<Scan>,
    /// The children whose views filter the bag's last step in
    /// [`BagPlan::upward_views`]: every child but a leaf absorbed as an
    /// ear, which a λ-scan already semijoined exactly.
    filters: Vec<usize>,
}

/// One λ-atom of a bag. A scan keeps every column another λ-atom of the
/// bag shares, so the fold applies every equality of `⋈ λ(p)` whether or
/// not the λ-atoms form a cyclic hypergraph.
#[derive(Clone, Debug)]
struct Scan {
    atom: usize,
    /// The columns the scan keeps: what the bag, a later λ-atom, an
    /// earlier one's join or an ear reads.
    cols: Vec<u32>,
    /// One-atom neighbours semijoined into the scan before it joins.
    ears: Vec<usize>,
    /// The columns the join-project with the views so far keeps: what the
    /// bag or a later λ-atom reads.
    keep: Vec<u32>,
}

/// A plan's views, one per vertex of its tree.
#[derive(Debug)]
pub struct BagViews {
    /// One view per vertex of the plan's tree.
    pub views: Vec<Bindings>,
    /// Scan rows removed by absorbed ears before any join.
    pub ear_rows_dropped: usize,
    /// Rows removed by the children's filters while the views were built:
    /// emitted rows of a last join-project (before its dedup), and rows of
    /// a one-atom bag semijoined with its children. Zero for
    /// [`BagPlan::views`].
    pub filtered_rows: usize,
}

/// A bag's independent part: the fold of its λ-scans (the unit when there
/// is none) and, when its last join-project waits for the children's
/// filters, the last λ-scan, not yet folded in.
struct Partial {
    acc: Bindings,
    last: Option<Bindings>,
    ear_rows: usize,
}

impl BagPlan {
    /// Every bag of `ht`, completed for `q`, keeps χ and absorbs nothing:
    /// the textbook `r_p`.
    pub fn textbook(q: &ConjunctiveQuery, ht: &Hypertree) -> BagPlan {
        let tree = complete(q, ht);
        let keep = tree.chi.iter().map(NodeSet::to_vec).collect();
        BagPlan::new(q, tree, keep, false)
    }

    /// Step 1 of Theorem 3.7 over `ht` completed for `q`: every bag `p`
    /// keeps only `keep(p) = χ(p) ∩ (free(q) ∪ ⋃_{o≠p} χ(o))`, dropping each
    /// variable that occurs in `p` alone and is existential — in the scan
    /// of a one-atom bag, in the join-projects of a larger one. Before a
    /// bag of two or more λ-atoms joins, each λ-scan is also semijoined
    /// with every adjacent one-atom bag (an *ear*) whose variables lie
    /// inside that λ-atom.
    ///
    /// Both are sound: the reducer's semijoins read only `χ(p) ∩ χ(o) ⊆
    /// keep(p)`, and an ear removes only rows no answer extends. So after
    /// [`full_reduce`] and the projection onto `free(q)` every view is the
    /// same set as from the textbook plan. A full query keeps every `χ(p)`.
    ///
    /// [`full_reduce`]: cqcount_relational::consistency::full_reduce
    pub fn count(q: &ConjunctiveQuery, ht: &Hypertree) -> BagPlan {
        let tree = complete(q, ht);
        let free = q.free_nodes();
        let keep = (0..tree.len())
            .map(|p| {
                tree.chi[p]
                    .iter()
                    .filter(|&x| {
                        free.contains(x)
                            || tree
                                .chi
                                .iter()
                                .enumerate()
                                .any(|(o, other)| o != p && other.contains(x))
                    })
                    .collect()
            })
            .collect();
        BagPlan::new(q, tree, keep, true)
    }

    /// The plan keeping `keep[p]` of every bag `p`; with `absorb_ears`, each
    /// λ-scan of a bag of two or more λ-atoms absorbs the adjacent one-atom
    /// bags whose variables lie inside its atom.
    fn new(
        q: &ConjunctiveQuery,
        tree: Hypertree,
        keep: Vec<Vec<u32>>,
        absorb_ears: bool,
    ) -> BagPlan {
        let atom_nodes = atom_nodesets(q);
        let vars = |ai: usize| atom_nodes[ai].iter();
        let cols_dropped = tree
            .chi
            .iter()
            .zip(&keep)
            .map(|(chi, k)| chi.len() - k.len())
            .sum();
        let bags = keep
            .into_iter()
            .enumerate()
            .map(|(p, keep)| {
                let lam = &tree.lambda[p];
                let mut ears: Vec<Vec<usize>> = vec![Vec::new(); lam.len()];
                let mut absorbed = Vec::new();
                if absorb_ears && lam.len() >= 2 {
                    for &o in tree.parent[p].iter().chain(&tree.children[p]) {
                        let &[ear] = tree.lambda[o].as_slice() else {
                            continue;
                        };
                        let ev = &atom_nodes[ear];
                        if lam.contains(&ear) || ev.is_empty() {
                            continue;
                        }
                        if let Some(i) = lam.iter().position(|&ai| ev.is_subset(&atom_nodes[ai])) {
                            absorbed.push(o);
                            if !ears[i].contains(&ear) {
                                ears[i].push(ear);
                            }
                        }
                    }
                }
                let scans = lam
                    .iter()
                    .zip(ears)
                    .enumerate()
                    .map(|(i, (&atom, ears))| {
                        let mut step = keep.clone();
                        step.extend(lam[i + 1..].iter().flat_map(|&aj| vars(aj)));
                        step.sort_unstable();
                        step.dedup();
                        let mut cols = step.clone();
                        cols.extend(lam[..i].iter().flat_map(|&aj| vars(aj)));
                        cols.extend(ears.iter().flat_map(|&e| vars(e)));
                        cols.sort_unstable();
                        cols.dedup();
                        Scan {
                            atom,
                            cols,
                            ears,
                            keep: step,
                        }
                    })
                    .collect();
                // A leaf ear's view is its atom projected, and a λ-scan
                // already kept only the rows matching that atom.
                let filters = tree.children[p]
                    .iter()
                    .copied()
                    .filter(|&c| !(absorbed.contains(&c) && tree.children[c].is_empty()))
                    .collect();
                Bag { scans, filters }
            })
            .collect();
        BagPlan {
            q: q.clone(),
            tree,
            bags,
            cols_dropped,
        }
    }

    /// The query the plan builds views of.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.q
    }

    /// Builds every vertex's view unfiltered: step 1 of Theorem 3.7 for a
    /// count plan, and the textbook `r_p` that [`crate::ps`] and the degree
    /// bound read for a textbook plan. One independent build per tree
    /// vertex, the whole fold of each bag in one `par_map` (large inputs
    /// only); the count path reads [`BagPlan::upward_views`] instead.
    pub fn views(&self, db: &Database) -> BagViews {
        self.build(db, false)
    }

    /// Step 1 of Theorem 3.7 with the full reducer's upward sweep run where
    /// the rows are born. The bags are built children-first: each bag's
    /// last join-project emits only rows whose key is in every filtering
    /// child's view (a one-atom bag is semijoined with them after its
    /// scan), so no dangling row of a bag is materialized. Every view is
    /// the one [`full_reduce`]'s upward sweep leaves of [`BagPlan::views`].
    /// A full query counts over these.
    ///
    /// Every bag's λ-scans, ears and join-projects but the last still run
    /// as one independent build per tree vertex: that `par_map` is the
    /// count path's only parallel call, and only large inputs take it.
    ///
    /// [`full_reduce`]: cqcount_relational::consistency::full_reduce
    pub fn upward_views(&self, db: &Database) -> BagViews {
        self.build(db, true)
    }

    /// Builds every view; with `filtered`, children-first with the upward
    /// sweep fused in. Each bag's scans, ears and every join-project but
    /// the last are independent of the other bags, and run in the
    /// `par_map` above [`PAR_MIN_ROWS`]. A bag that no child filters joins
    /// its last step there too; the others run it afterwards, bottom-up in
    /// `tree.order`. Results come back in vertex order either way.
    fn build(&self, db: &Database, filtered: bool) -> BagViews {
        let q = &self.q;
        let atom = |ai: usize| &q.atoms()[ai];
        let partial = |&p: &usize| -> Partial {
            let Bag { scans, filters } = &self.bags[p];
            let defer = filtered && !filters.is_empty();
            let mut ear_rows = 0;
            let mut acc: Option<Bindings> = None;
            let mut last = None;
            for (i, scan) in scans.iter().enumerate() {
                let mut rows = atom_bindings_projected(atom(scan.atom), db, &scan.cols);
                for &e in &scan.ears {
                    let before = rows.len();
                    rows.semijoin_in_place(&atom_bindings(atom(e), db));
                    ear_rows += before - rows.len();
                }
                acc = Some(match acc {
                    None => rows,
                    Some(acc) if defer && i + 1 == scans.len() => {
                        last = Some(rows);
                        acc
                    }
                    Some(acc) => acc.join_project(&rows, &scan.keep, &[]).0,
                });
            }
            Partial {
                acc: acc.unwrap_or_else(Bindings::unit),
                last,
                ear_rows,
            }
        };
        let vertices: Vec<usize> = (0..self.tree.len()).collect();
        let lambda_rows: usize = self
            .tree
            .lambda
            .iter()
            .flatten()
            .map(|&ai| db.relation(&atom(ai).rel).map_or(0, Relation::len))
            .sum();
        let partials = if lambda_rows >= PAR_MIN_ROWS {
            cqcount_exec::par_map(&vertices, partial)
        } else {
            vertices.iter().map(partial).collect()
        };
        let ear_rows_dropped = partials.iter().map(|b| b.ear_rows).sum();
        if !filtered {
            return BagViews {
                views: partials.into_iter().map(|b| b.acc).collect(),
                ear_rows_dropped,
                filtered_rows: 0,
            };
        }
        let mut partials: Vec<Option<Partial>> = partials.into_iter().map(Some).collect();
        let mut views: Vec<Option<Bindings>> = vec![None; vertices.len()];
        let mut filtered_rows = 0;
        for &p in &self.tree.order {
            let Partial { mut acc, last, .. } = partials[p].take().expect("one build per vertex");
            let filters: Vec<&Bindings> = self.bags[p]
                .filters
                .iter()
                .map(|&c| views[c].as_ref().expect("children are built first"))
                .collect();
            let view = match last {
                Some(rows) => {
                    let keep = &self.bags[p].scans.last().expect("a last scan").keep;
                    let (view, dropped) = acc.join_project(&rows, keep, &filters);
                    filtered_rows += dropped;
                    view
                }
                None => {
                    for child in filters {
                        let before = acc.len();
                        acc.semijoin_in_place(child);
                        filtered_rows += before - acc.len();
                    }
                    acc
                }
            };
            views[p] = Some(view);
        }
        BagViews {
            views: views
                .into_iter()
                .map(|v| v.expect("`tree.order` lists every vertex"))
                .collect(),
            ear_rows_dropped,
            filtered_rows,
        }
    }

    /// Steps 1–2 of Theorem 3.7: [`BagPlan::upward_views`], whose build ran
    /// the full reducer's upward sweep, completed by its downward sweep
    /// ([`reduce_downward`]). Each view is the one [`full_reduce`] leaves
    /// of [`BagPlan::views`].
    ///
    /// [`full_reduce`]: cqcount_relational::consistency::full_reduce
    pub fn reduced_views(&self, db: &Database) -> BagViews {
        let mut bv = self.upward_views(db);
        reduce_downward(&mut bv.views, &self.tree.parent, &self.tree.order);
        bv
    }

    /// Steps 1–3 of Theorem 3.7: [`BagPlan::reduced_views`] projected onto
    /// the query's free variables. The pipeline, the hybrid count and the
    /// enumerator read these. When the reducer leaves a view empty the
    /// answer is empty, and the views come back unprojected: every reader
    /// takes an empty view for an empty answer.
    pub fn free_views(&self, db: &Database) -> BagViews {
        let mut bv = self.reduced_views(db);
        if !bv.views.iter().any(Bindings::is_empty) {
            let free: Vec<u32> = self.q.free().iter().map(|v| v.node()).collect();
            bv.views = bv
                .views
                .into_iter()
                .map(|v| v.into_project(&free))
                .collect();
        }
        bv
    }
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
        let plan = BagPlan::textbook(&sd.qprime, &sd.hypertree);
        let views = plan.views(&db).views;
        assert_eq!(views.len(), plan.tree.len());
        for (v, bag) in views.iter().zip(&plan.tree.chi) {
            assert_eq!(
                v.cols(),
                bag.to_vec().as_slice(),
                "view columns must equal χ"
            );
        }
    }
}
