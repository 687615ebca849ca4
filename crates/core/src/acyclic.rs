//! Counting over quantifier-free acyclic instances (the classical
//! subroutine, \[57\]/\[63\]): a Yannakakis-style dynamic program over a join
//! tree, multiplying child counts and summing per shared-column key.

use cqcount_arith::Natural;
use cqcount_hypergraph::{join_forest, Hypergraph};
use cqcount_relational::{Bindings, FxHashMap, Tuple, Value};
use std::borrow::Cow;

/// Counts the number of tuples in the natural join of the given views —
/// i.e. the number of assignments over the union of their columns — in time
/// polynomial in the total view size, provided the views' column sets form
/// an α-acyclic hypergraph. Returns `None` if they do not.
///
/// All columns are treated as output columns; to count with projection, run
/// the Theorem 3.7 pipeline ([`crate::pipeline`]) or the `#`-relation
/// algorithm ([`crate::ps`]) instead.
pub fn count_acyclic_full(views: &[Bindings]) -> Option<Natural> {
    // Column hypergraph (views with no columns become isolated "unit"
    // factors — they contribute factor 1 if nonempty, 0 if empty).
    let mut h = Hypergraph::new();
    for v in views {
        h.add_edge(v.cols().iter().copied().collect());
    }
    if views.iter().any(|v| v.is_empty()) {
        return Some(Natural::ZERO);
    }
    let forest = join_forest(&h)?;
    // The DP is exact on unreduced views, so nothing is reduced or copied
    // — unless columnless views must be dropped to match `h`'s edges.
    let colful: Cow<[Bindings]> = if views.iter().all(|v| !v.cols().is_empty()) {
        Cow::Borrowed(views)
    } else {
        Cow::Owned(
            views
                .iter()
                .filter(|v| !v.cols().is_empty())
                .cloned()
                .collect(),
        )
    };
    // `h` only has edges for col-ful views; align indices.
    debug_assert_eq!(forest.len(), colful.len());
    count_over_tree(&colful, &forest.parent, &forest.children, &forest.order).into()
}

/// The DP core, reusable with an externally supplied tree (the pipeline
/// hands in decomposition trees directly). Counts the join size of views
/// whose column sets satisfy the join-tree property along the given tree.
/// The count is exact on any such views, reduced or not: a dangling row
/// finds no child key and contributes 0. Only *projecting* views first
/// needs them globally consistent (`full_reduce`), or the projection would
/// keep tuples that extend to no solution.
pub fn count_over_tree(
    views: &[Bindings],
    parent: &[Option<usize>],
    children: &[Vec<usize>],
    order: &[usize],
) -> Natural {
    if views.is_empty() {
        return Natural::ONE;
    }
    if views.iter().any(Bindings::is_empty) {
        return Natural::ZERO;
    }
    // For each vertex, after processing: a map from the projection of its
    // tuples onto the columns shared with the parent, to the summed count.
    let mut up_maps: Vec<FxHashMap<Tuple, Natural>> = vec![FxHashMap::default(); views.len()];
    let mut root_product = Natural::ONE;

    for &v in order {
        let shared_with_parent: Vec<u32> = match parent[v] {
            Some(p) => views[v]
                .cols()
                .iter()
                .copied()
                .filter(|c| views[p].cols().contains(c))
                .collect(),
            None => Vec::new(),
        };
        let key_positions: Vec<usize> = (0..views[v].cols().len())
            .filter(|&i| shared_with_parent.contains(&views[v].cols()[i]))
            .collect();

        // Child maps keyed on cols shared between v and each child.
        let child_info: Vec<(Vec<usize>, &FxHashMap<Tuple, Natural>)> = children[v]
            .iter()
            .map(|&c| {
                let shared: Vec<u32> = views[v]
                    .cols()
                    .iter()
                    .copied()
                    .filter(|col| views[c].cols().contains(col))
                    .collect();
                let pos: Vec<usize> = (0..views[v].cols().len())
                    .filter(|&i| shared.contains(&views[v].cols()[i]))
                    .collect();
                (pos, &up_maps[c])
            })
            .collect();

        let mut my_map: FxHashMap<Tuple, Natural> = FxHashMap::default();
        let mut my_total = Natural::ZERO;
        // Keys are probed through one reusable buffer; a key is copied
        // into the map only the first time it is seen.
        let mut key: Vec<Value> = Vec::new();
        for row in views[v].rows() {
            let mut cnt = Natural::ONE;
            for (pos, cmap) in &child_info {
                key.clear();
                key.extend(pos.iter().map(|&p| row[p]));
                match cmap.get(key.as_slice()) {
                    Some(c) => cnt *= c,
                    None => {
                        cnt = Natural::ZERO;
                        break;
                    }
                }
            }
            if cnt.is_zero() {
                continue;
            }
            if parent[v].is_some() {
                key.clear();
                key.extend(key_positions.iter().map(|&p| row[p]));
                match my_map.get_mut(key.as_slice()) {
                    Some(sum) => *sum += &cnt,
                    None => {
                        my_map.insert(key.as_slice().into(), cnt);
                    }
                }
            } else {
                my_total += &cnt;
            }
        }
        if parent[v].is_none() {
            root_product *= my_total;
        }
        up_maps[v] = my_map;
    }
    root_product
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(cols: &[u32], rows: &[&[u32]]) -> Bindings {
        Bindings::from_rows(
            cols.to_vec(),
            rows.iter()
                .map(|r| r.iter().map(|&x| Value(x)).collect())
                .collect(),
        )
    }

    fn brute_join_count(views: &[Bindings]) -> Natural {
        let mut acc = Bindings::unit();
        for v in views {
            acc = acc.join(v);
        }
        Natural::from(acc.len())
    }

    #[test]
    fn path_join() {
        let views = vec![
            b(&[1, 2], &[&[1, 10], &[2, 20]]),
            b(&[2, 3], &[&[10, 100], &[10, 101], &[20, 200]]),
        ];
        assert_eq!(count_acyclic_full(&views), Some(3u64.into()));
        assert_eq!(
            count_acyclic_full(&views).unwrap(),
            brute_join_count(&views)
        );
    }

    #[test]
    fn star_join_multiplies() {
        // center {1}, three satellites each with 2 extensions: 1 * 2^3 = 8
        let views = vec![
            b(&[1], &[&[7]]),
            b(&[1, 2], &[&[7, 1], &[7, 2]]),
            b(&[1, 3], &[&[7, 1], &[7, 2]]),
            b(&[1, 4], &[&[7, 1], &[7, 2]]),
        ];
        assert_eq!(count_acyclic_full(&views), Some(8u64.into()));
    }

    #[test]
    fn dangling_tuples_do_not_count() {
        let views = vec![
            b(&[1, 2], &[&[1, 10], &[2, 20], &[3, 30]]),
            b(&[2, 3], &[&[10, 5]]),
        ];
        assert_eq!(count_acyclic_full(&views), Some(1u64.into()));
    }

    #[test]
    fn empty_view_gives_zero() {
        let views = vec![b(&[1], &[&[1]]), Bindings::empty(vec![1])];
        assert_eq!(count_acyclic_full(&views), Some(Natural::ZERO));
    }

    #[test]
    fn cyclic_views_rejected() {
        let views = vec![
            b(&[1, 2], &[&[0, 0]]),
            b(&[2, 3], &[&[0, 0]]),
            b(&[1, 3], &[&[0, 0]]),
        ];
        assert_eq!(count_acyclic_full(&views), None);
    }

    #[test]
    fn disconnected_components_multiply() {
        let views = vec![b(&[1], &[&[1], &[2]]), b(&[9], &[&[5], &[6], &[7]])];
        assert_eq!(count_acyclic_full(&views), Some(6u64.into()));
    }

    #[test]
    fn no_views_counts_one() {
        assert_eq!(count_acyclic_full(&[]), Some(Natural::ONE));
    }

    #[test]
    fn matches_brute_force_on_random_trees() {
        // A few deterministic pseudo-random acyclic schemas.
        let cases = vec![
            vec![
                b(&[1, 2], &[&[1, 1], &[1, 2], &[2, 1]]),
                b(&[2, 3], &[&[1, 1], &[2, 2], &[2, 3]]),
                b(&[2, 4], &[&[1, 9], &[2, 9], &[2, 8]]),
                b(&[4, 5], &[&[9, 0], &[8, 0], &[8, 1]]),
            ],
            vec![
                b(&[1, 2, 3], &[&[1, 1, 1], &[1, 2, 1], &[2, 2, 2]]),
                b(&[3, 4], &[&[1, 5], &[2, 5], &[2, 6]]),
            ],
        ];
        for views in cases {
            assert_eq!(
                count_acyclic_full(&views).unwrap(),
                brute_join_count(&views)
            );
        }
    }
}
