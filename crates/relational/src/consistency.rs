//! Local consistency: the pairwise-consistency fixpoint and the join-tree
//! full reducer.
//!
//! Pairwise consistency (every view agrees with every other view on shared
//! columns) is the engine behind Lemma 4.3 (polynomial-time cores) and
//! Theorem 3.7: by the classical Beeri–Fagin–Maier–Yannakakis theorem, on an
//! acyclic schema pairwise consistency implies *global* consistency, i.e.
//! every view tuple extends to a full solution. The full reducer achieves
//! the same along a join tree with two semijoin sweeps.

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
                    let r = views[i].semijoin(&views[j]);
                    if r.len() != views[i].len() {
                        views[i] = r;
                        changed = true;
                    }
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

/// Full reducer over a rooted join forest: one upward sweep (parents
/// semijoined with children, bottom-up) and one downward sweep (children
/// semijoined with parents, top-down).
///
/// `parent[i]` is the parent of vertex `i` (`None` for roots) and `order`
/// must list children before parents (as produced by
/// `cqcount_hypergraph::join_forest`). On an acyclic schema the result is
/// globally consistent.
pub fn full_reduce(views: &mut [Bindings], parent: &[Option<usize>], order: &[usize]) {
    assert_eq!(views.len(), parent.len());
    assert_eq!(views.len(), order.len());
    // Upward: process children before parents.
    for &v in order {
        if let Some(p) = parent[v] {
            views[p] = views[p].semijoin(&views[v]);
        }
    }
    // Downward: process parents before children.
    for &v in order.iter().rev() {
        if let Some(p) = parent[v] {
            views[v] = views[v].semijoin(&views[p]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

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

    #[test]
    fn empty_inputs() {
        let mut none: Vec<Bindings> = vec![];
        assert!(pairwise_consistency(&mut none));
        full_reduce(&mut none, &[], &[]);
    }
}
