//! Key discovery (functional dependencies by position), the data-side
//! signal behind Example 1.5 / Section 6: "if some (often all) existential
//! variables are functionally determined by keys ... the technique may
//! freely use them as if they were free variables".

use crate::fxhash::FxHashMap;
use crate::{Relation, Tuple, Value};

/// Returns `true` iff the positions `key` functionally determine the whole
/// tuple in `rel` (no two tuples agree on `key` but differ elsewhere).
pub fn positions_are_key(rel: &Relation, key: &[usize]) -> bool {
    let mut seen: FxHashMap<Tuple, &[Value]> = FxHashMap::default();
    for t in rel.iter() {
        let k: Tuple = key.iter().map(|&p| t[p]).collect();
        match seen.get(&k) {
            Some(prev) if *prev != t => return false,
            Some(_) => {}
            None => {
                seen.insert(k, t);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn rel(rows: &[&[u32]]) -> Relation {
        Relation::from_rows(
            rows.iter()
                .map(|r| r.iter().map(|&x| Value(x)).collect())
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn single_column_key() {
        // first column determines the rest
        let r = rel(&[&[1, 10], &[2, 20], &[3, 10]]);
        assert!(positions_are_key(&r, &[0]));
        assert!(!positions_are_key(&r, &[1])); // 10 maps to 1 and 3
        assert!(positions_are_key(&r, &[0, 1]));
    }

    #[test]
    fn composite_key() {
        // third column constant, so only {0,1} determines the tuple
        let r = rel(&[&[1, 1, 5], &[1, 2, 5], &[2, 1, 5]]);
        assert!(!positions_are_key(&r, &[0]));
        assert!(!positions_are_key(&r, &[1]));
        assert!(!positions_are_key(&r, &[2]));
        assert!(!positions_are_key(&r, &[0, 2]));
        assert!(!positions_are_key(&r, &[1, 2]));
        assert!(positions_are_key(&r, &[0, 1]));
        assert!(positions_are_key(&r, &[1, 0]));
    }

    #[test]
    fn several_minimal_keys() {
        // both columns are keys independently
        let r = rel(&[&[1, 10], &[2, 20]]);
        assert!(positions_are_key(&r, &[0]));
        assert!(positions_are_key(&r, &[1]));
        assert!(!positions_are_key(&r, &[]));
    }

    #[test]
    fn degenerate_cases() {
        // empty relation: the empty set is a key
        let empty = Relation::new(2);
        assert!(positions_are_key(&empty, &[]));
        // single tuple: empty key again
        let single = rel(&[&[5, 6]]);
        assert!(positions_are_key(&single, &[]));
        // whole tuple needed
        let r = rel(&[&[1, 1], &[1, 2], &[2, 1]]);
        assert!(!positions_are_key(&r, &[]));
        assert!(!positions_are_key(&r, &[0]));
        assert!(!positions_are_key(&r, &[1]));
        assert!(positions_are_key(&r, &[0, 1]));
    }
}
