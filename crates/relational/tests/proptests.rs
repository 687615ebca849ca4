//! Property tests for the relational algebra, checked against naive
//! nested-loop reference implementations. Cases come from the workspace
//! PRNG under fixed seeds; `exhaustive-tests` raises the case count.

use cqcount_arith::prng::Rng;
use cqcount_relational::{Bindings, Value};
use std::collections::{BTreeMap, BTreeSet};

const CASES: usize = if cfg!(feature = "exhaustive-tests") {
    2048
} else {
    256
};

type Row = BTreeMap<u32, u32>; // col -> value, the reference model

/// A random bindings set over the given columns (values in 0..4, up to 12
/// rows) plus its reference model.
fn arb_bindings(cols: &[u32], rng: &mut Rng) -> (Bindings, BTreeSet<Vec<u32>>) {
    let n = cols.len();
    let count = rng.range_usize(0, 13);
    let mut set: BTreeSet<Vec<u32>> = BTreeSet::new();
    for _ in 0..count {
        set.insert((0..n).map(|_| rng.range_u32(0, 4)).collect());
    }
    let b = Bindings::from_rows(
        cols.to_vec(),
        set.iter()
            .map(|r| r.iter().map(|&x| Value(x)).collect())
            .collect(),
    );
    (b, set)
}

fn to_model(cols: &[u32], rows: &BTreeSet<Vec<u32>>) -> BTreeSet<Row> {
    rows.iter()
        .map(|r| cols.iter().copied().zip(r.iter().copied()).collect())
        .collect()
}

fn model_of(b: &Bindings) -> BTreeSet<Row> {
    b.rows()
        .iter()
        .map(|r| {
            b.cols()
                .iter()
                .copied()
                .zip(r.iter().map(|v| v.0))
                .collect()
        })
        .collect()
}

fn compatible(a: &Row, b: &Row) -> bool {
    a.iter().all(|(k, v)| b.get(k).is_none_or(|w| w == v))
}

fn merge(a: &Row, b: &Row) -> Row {
    let mut out = a.clone();
    for (k, v) in b {
        out.insert(*k, *v);
    }
    out
}

/// The nested-loop join of two reference models.
fn nested_loop_join(l: &BTreeSet<Row>, r: &BTreeSet<Row>) -> BTreeSet<Row> {
    let mut out = BTreeSet::new();
    for a in l {
        for b in r {
            if compatible(a, b) {
                out.insert(merge(a, b));
            }
        }
    }
    out
}

#[test]
fn join_matches_nested_loop() {
    let mut rng = Rng::seed_from_u64(0x11);
    for _ in 0..CASES {
        let (l, lm) = arb_bindings(&[0, 1], &mut rng);
        let (r, rm) = arb_bindings(&[1, 2], &mut rng);
        let expect = nested_loop_join(&to_model(&[0, 1], &lm), &to_model(&[1, 2], &rm));
        assert_eq!(model_of(&l.join(&r)), expect);
    }
}

#[test]
fn join_disjoint_is_product() {
    let mut rng = Rng::seed_from_u64(0x12);
    for _ in 0..CASES {
        let (l, lm) = arb_bindings(&[0], &mut rng);
        let (r, rm) = arb_bindings(&[5], &mut rng);
        assert_eq!(l.join(&r).len(), lm.len() * rm.len());
    }
}

#[test]
fn semijoin_is_projected_join() {
    let mut rng = Rng::seed_from_u64(0x13);
    for _ in 0..CASES {
        let (l, _) = arb_bindings(&[0, 1], &mut rng);
        let (r, _) = arb_bindings(&[1, 2], &mut rng);
        assert_eq!(l.semijoin(&r), l.join(&r).project(l.cols()));
    }
}

#[test]
fn join_commutative_associative() {
    let mut rng = Rng::seed_from_u64(0x14);
    for _ in 0..CASES {
        let (a, _) = arb_bindings(&[0, 1], &mut rng);
        let (b, _) = arb_bindings(&[1, 2], &mut rng);
        let (c, _) = arb_bindings(&[0, 2], &mut rng);
        assert_eq!(a.join(&b), b.join(&a));
        assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
    }
}

#[test]
fn join_matches_nested_loop_on_non_prefix_keys() {
    // Shared columns that are not a row prefix send the kernel down its
    // general (sorting) path on one or both sides.
    let mut rng = Rng::seed_from_u64(0x15);
    for _ in 0..CASES {
        let (a, am) = arb_bindings(&[0, 1, 3], &mut rng);
        let (b, bm) = arb_bindings(&[1, 2, 3], &mut rng);
        let (c, cm) = arb_bindings(&[3], &mut rng);
        let amod = to_model(&[0, 1, 3], &am);
        let expect_ab = nested_loop_join(&amod, &to_model(&[1, 2, 3], &bm));
        assert_eq!(model_of(&a.join(&b)), expect_ab);
        let expect_ac = nested_loop_join(&amod, &to_model(&[3], &cm));
        assert_eq!(model_of(&a.join(&c)), expect_ac);
    }
}

#[test]
fn project_is_idempotent_and_monotone() {
    let mut rng = Rng::seed_from_u64(0x16);
    for _ in 0..CASES {
        let (a, _) = arb_bindings(&[0, 1, 2], &mut rng);
        let p = a.project(&[0, 2]);
        assert_eq!(p.project(&[0, 2]), p.clone());
        assert!(p.len() <= a.len());
        let pp = p.project(&[0]);
        assert_eq!(a.project(&[0]), pp);
    }
}

#[test]
fn partition_reassembles() {
    let mut rng = Rng::seed_from_u64(0x17);
    for _ in 0..CASES {
        let (a, _) = arb_bindings(&[0, 1], &mut rng);
        let parts = a.partition_by(&[0]);
        let total: usize = parts.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total, a.len());
        // every part selects to itself
        for (key, part) in &parts {
            let key_vals: Vec<Value> = key.to_vec();
            assert_eq!(&part.select_theta(&[0], &key_vals), part);
        }
    }
}

#[test]
fn degree_bounds() {
    let mut rng = Rng::seed_from_u64(0x18);
    for _ in 0..CASES {
        let (a, _) = arb_bindings(&[0, 1], &mut rng);
        let d = a.degree_wrt(&[0]);
        assert!(d <= a.len());
        let groups = a.partition_by(&[0]);
        let max = groups.iter().map(|(_, g)| g.len()).max().unwrap_or(0);
        assert_eq!(d, max);
    }
}

#[test]
fn pairwise_consistency_sound() {
    let mut rng = Rng::seed_from_u64(0x19);
    for _ in 0..CASES {
        let (a, _) = arb_bindings(&[0, 1], &mut rng);
        let (b, _) = arb_bindings(&[1, 2], &mut rng);
        // After the fixpoint, every surviving tuple of each view joins with
        // some tuple of the other view (pairwise consistency definition).
        let mut views = vec![a.clone(), b.clone()];
        let ok = cqcount_relational::consistency::pairwise_consistency(&mut views);
        if ok {
            for t in views[0].rows() {
                let single = Bindings::from_rows(views[0].cols().to_vec(), vec![t.to_vec()]);
                assert!(!single.join(&views[1]).is_empty());
            }
        }
        // And it never changes the join result.
        assert_eq!(a.join(&b), views[0].join(&views[1]));
    }
}
