//! Local consistency: the pairwise-consistency fixpoint and the join-tree
//! full reducer.
//!
//! Pairwise consistency (every view agrees with every other view on shared
//! columns) is the engine behind Lemma 4.3 (polynomial-time cores) and
//! Theorem 3.7: by the classical Beeri–Fagin–Maier–Yannakakis theorem, on an
//! acyclic schema pairwise consistency implies *global* consistency, i.e.
//! every view tuple extends to a full solution. The full reducer achieves
//! the same along a join tree with two semijoin sweeps.
//!
//! Both procedures only ever shrink views, so both run the in-place hash
//! semijoin ([`Bindings::semijoin_in_place`]): each step hashes the probe
//! view's shared-column keys once and `retain`s the target's matching
//! rows — no view is cloned and no row is copied.

use crate::Bindings;

/// Enforces pairwise consistency on a set of views by semijoining every pair
/// until a fixpoint is reached. Returns `true` if all views are nonempty at
/// the fixpoint (the emptiness test used by Lemma 4.3's homomorphism check).
///
/// Runs in-place Gauss–Seidel sweeps on the calling thread: each view is
/// semijoined with every other view's *current* contents, and sweeps repeat
/// until one changes nothing. Semijoins only ever *shrink* views and the
/// greatest pairwise-consistent subinstance is unique, so the views left
/// behind on a `true` return do not depend on the sweep order.
pub fn pairwise_consistency(views: &mut [Bindings]) -> bool {
    let n = views.len();
    loop {
        let mut changed = false;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let (target, probe) = pair_mut(views, i, j);
                    let before = target.len();
                    target.semijoin_in_place(probe);
                    changed |= target.len() != before;
                }
            }
        }
        if views.iter().any(Bindings::is_empty) {
            // By definition the fixpoint answer is already "no".
            return false;
        }
        if !changed {
            return true;
        }
    }
}

/// Borrows `views[target]` mutably and `views[probe]` shared, disjointly.
fn pair_mut(views: &mut [Bindings], target: usize, probe: usize) -> (&mut Bindings, &Bindings) {
    assert_ne!(target, probe, "a view is never semijoined with itself");
    if target < probe {
        let (lo, hi) = views.split_at_mut(probe);
        (&mut lo[target], &hi[0])
    } else {
        let (lo, hi) = views.split_at_mut(target);
        (&mut hi[0], &lo[probe])
    }
}

/// Full reducer over a rooted join forest: one upward sweep (parents
/// semijoined with children, bottom-up) and then [`reduce_downward`].
///
/// `parent[i]` is the parent of vertex `i` (`None` for roots) and `order`
/// must list children before parents (as produced by
/// `cqcount_hypergraph::join_forest`). On an acyclic schema the result is
/// globally consistent. Counting a *full* join along the same tree does
/// not need it — the join-tree DP is exact on unreduced views, a dangling
/// row simply finds no child key — but projecting a view does.
///
/// The count path (`cqcount_core::sharp::BagPlan`) runs the upward sweep
/// while it builds the views, as filters of each bag's last join, and
/// calls [`reduce_downward`] alone afterwards.
pub fn full_reduce(views: &mut [Bindings], parent: &[Option<usize>], order: &[usize]) {
    assert_eq!(views.len(), parent.len());
    assert_eq!(views.len(), order.len());
    // Upward: process children before parents.
    for &v in order {
        if let Some(p) = parent[v] {
            let (parent_view, child) = pair_mut(views, p, v);
            parent_view.semijoin_in_place(child);
        }
    }
    reduce_downward(views, parent, order);
}

/// The full reducer's downward sweep: every child semijoined with its
/// parent, parents first (`order` lists children before parents, as for
/// [`full_reduce`]). On views every parent of which is already
/// semijoined with its children, bottom-up, it completes the full reducer.
pub fn reduce_downward(views: &mut [Bindings], parent: &[Option<usize>], order: &[usize]) {
    assert_eq!(views.len(), parent.len());
    assert_eq!(views.len(), order.len());
    for &v in order.iter().rev() {
        if let Some(p) = parent[v] {
            let (child, parent_view) = pair_mut(views, v, p);
            child.semijoin_in_place(parent_view);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use cqcount_arith::prng::Rng;

    fn v(id: u32) -> Value {
        Value(id)
    }

    fn b(cols: &[u32], rows: &[&[u32]]) -> Bindings {
        Bindings::from_rows(
            cols.to_vec(),
            rows.iter()
                .map(|r| r.iter().map(|&x| v(x)).collect())
                .collect(),
        )
    }

    #[test]
    fn pairwise_removes_dangling() {
        // R(1,2) = {(1,10),(2,20)}, S(2,3) = {(10,100)}: (2,20) dangles.
        let mut views = vec![b(&[1, 2], &[&[1, 10], &[2, 20]]), b(&[2, 3], &[&[10, 100]])];
        assert!(pairwise_consistency(&mut views));
        assert_eq!(views[0].len(), 1);
        assert!(views[0].contains(&[v(1), v(10)]));
    }

    #[test]
    fn pairwise_detects_emptiness() {
        let mut views = vec![b(&[1], &[&[1]]), b(&[1], &[&[2]])];
        assert!(!pairwise_consistency(&mut views));
    }

    #[test]
    fn pairwise_propagates_transitively() {
        // Chain R(1,2) - S(2,3) - T(3,4); T constrains S which constrains R.
        let mut views = vec![
            b(&[1, 2], &[&[1, 10], &[2, 20]]),
            b(&[2, 3], &[&[10, 100], &[20, 200]]),
            b(&[3, 4], &[&[100, 7]]),
        ];
        assert!(pairwise_consistency(&mut views));
        assert_eq!(views[0].len(), 1);
        assert_eq!(views[1].len(), 1);
    }

    #[test]
    fn full_reduce_on_path() {
        // Join tree: 0 - 1 - 2 rooted at 0 (parent[1]=0, parent[2]=1).
        let mut views = vec![
            b(&[1, 2], &[&[1, 10], &[2, 20]]),
            b(&[2, 3], &[&[10, 100], &[20, 200], &[30, 300]]),
            b(&[3, 4], &[&[100, 7]]),
        ];
        let parent = vec![None, Some(0), Some(1)];
        let order = vec![2, 1, 0];
        full_reduce(&mut views, &parent, &order);
        assert_eq!(views[0].len(), 1);
        assert_eq!(views[1].len(), 1);
        assert_eq!(views[2].len(), 1);
        // Global consistency on this acyclic instance: the single surviving
        // tuples join into the unique solution (1,10,100,7).
        let sol = views[0].join(&views[1]).join(&views[2]);
        assert_eq!(sol.len(), 1);
        assert!(sol.contains(&[v(1), v(10), v(100), v(7)]));
    }

    #[test]
    fn full_reduce_matches_pairwise_on_tree_schemas() {
        // On an acyclic schema both procedures yield the same reduced views.
        let make = || {
            vec![
                b(&[1, 2], &[&[1, 10], &[2, 20], &[3, 30]]),
                b(&[2, 3], &[&[10, 5], &[20, 6]]),
                b(&[2, 4], &[&[10, 9], &[30, 9]]),
            ]
        };
        let mut a = make();
        // star rooted at 0: children 1 and 2
        full_reduce(&mut a, &[None, Some(0), Some(0)], &[1, 2, 0]);
        let mut b2 = make();
        pairwise_consistency(&mut b2);
        assert_eq!(a, b2);
    }

    /// Random views over a join tree given by `parent` (every parent index
    /// below its child's): each child shares a random subset of its
    /// parent's columns and adds fresh ones, so every column's holders stay
    /// connected.
    fn random_tree_views(parent: &[Option<usize>], rng: &mut Rng) -> Vec<Bindings> {
        let mut next_col = 0u32;
        let mut fresh = |k: usize| -> Vec<u32> {
            next_col += k as u32;
            (next_col - k as u32..next_col).collect()
        };
        let mut cols: Vec<Vec<u32>> = Vec::with_capacity(parent.len());
        for p in parent {
            let mut c: Vec<u32> = match p {
                Some(p) => cols[*p]
                    .iter()
                    .copied()
                    .filter(|_| rng.chance(0.6))
                    .collect(),
                None => Vec::new(),
            };
            c.extend(fresh(rng.range_usize(1, 3)));
            cols.push(c);
        }
        cols.iter()
            .map(|c| {
                let n = rng.range_usize(0, 16);
                let rows = (0..n)
                    .map(|_| c.iter().map(|_| v(rng.range_u32(0, 3))).collect())
                    .collect();
                Bindings::from_rows(c.clone(), rows)
            })
            .collect()
    }

    #[test]
    fn full_reduce_matches_pairwise_on_random_trees() {
        let cases = if cfg!(feature = "exhaustive-tests") {
            600
        } else {
            80
        };
        let mut rng = Rng::seed_from_u64(0x7EE5);
        let mut consistent = 0;
        for case in 0..cases {
            let n = if case % 3 == 2 {
                rng.range_usize(4, 9)
            } else {
                rng.range_usize(2, 8)
            };
            let parent: Vec<Option<usize>> = (0..n)
                .map(|i| match (i, case % 3) {
                    (0, _) => None,
                    (_, 0) => Some(i - 1),            // path
                    (_, 1) => Some(0),                // star
                    (1..=3, _) => Some(i - 1),        // depth ≥ 3 ...
                    _ => Some(rng.range_usize(0, i)), // ... then random
                })
                .collect();
            let order: Vec<usize> = (0..n).rev().collect();
            let views = random_tree_views(&parent, &mut rng);
            let mut reduced = views.clone();
            full_reduce(&mut reduced, &parent, &order);
            let mut pairwise = views.clone();
            if pairwise_consistency(&mut pairwise) {
                consistent += 1;
                assert_eq!(reduced, pairwise, "case {case}: {views:?}");
            } else {
                // One empty view empties a connected tree under the reducer.
                assert!(reduced.iter().all(Bindings::is_empty), "case {case}");
            }
        }
        // Both outcomes occur, so neither branch is vacuous.
        assert!(
            0 < consistent && consistent < cases,
            "{consistent} of {cases}"
        );
    }

    #[test]
    fn empty_inputs() {
        let mut none: Vec<Bindings> = vec![];
        assert!(pairwise_consistency(&mut none));
        full_reduce(&mut none, &[], &[]);
    }
}
