//! Property tests for the canonical query fingerprint: renaming variables,
//! reordering atoms, and duplicating conjuncts must leave the fingerprint
//! unchanged, while adding/removing an atom or editing a constant must
//! change it. Every other case is a one-relation self-join body of up to
//! 12 variables, whose tied color classes make the labeling search branch
//! and prune interchangeable variables. Seeded loops per the in-repo
//! convention; `exhaustive-tests` raises the case count.

use cqcount_arith::prng::Rng;
use cqcount_query::fingerprint::{fingerprint, fingerprint_with_stats};
use cqcount_query::{ConjunctiveQuery, Term, Var};

const CASES: usize = if cfg!(feature = "exhaustive-tests") {
    512
} else {
    96
};

/// A random small query: ≤ 5 vars, ≤ 5 atoms, arity ≤ 3, occasional
/// constants, random free set.
fn random_query(rng: &mut Rng) -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::new();
    let nvars = rng.range_usize(1, 6);
    let vars: Vec<Var> = (0..nvars).map(|i| q.var(&format!("V{i}"))).collect();
    let natoms = rng.range_usize(1, 6);
    for _ in 0..natoms {
        let rel = format!("r{}", rng.range_usize(0, 3));
        let arity = rng.range_usize(1, 4);
        let terms: Vec<Term> = (0..arity)
            .map(|_| {
                if rng.range_u32(0, 5) == 0 {
                    Term::Const(format!("c{}", rng.range_usize(0, 3)))
                } else {
                    Term::Var(vars[rng.range_usize(0, nvars)])
                }
            })
            .collect();
        q.add_atom(&rel, terms);
    }
    let occurring = q.vars_in_atoms();
    let mask = rng.range_u32(0, 1 << nvars);
    let free: Vec<Var> = vars
        .iter()
        .enumerate()
        .filter(|(i, v)| mask & (1 << i) != 0 && occurring.contains(v))
        .map(|(_, &v)| v)
        .collect();
    q.set_free(free);
    q
}

/// A random self-join body of up to 12 variables over one binary relation:
/// 2 to 6 copies of a small random motif, either disjoint or glued at a
/// shared hub, sometimes plus one stray atom, and a free set of at most
/// two variables — so most bodies keep interchangeable variables or
/// interchangeable copies.
fn self_join_query(rng: &mut Rng) -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::new();
    let motif_vars = rng.range_usize(1, 5);
    let copies = rng.range_usize(2, 12 / motif_vars + 1).min(6);
    let hub = (rng.range_u32(0, 2) == 0).then(|| q.var("H"));
    // Motif atom ends index the copy's variables 0..motif_vars; index
    // motif_vars is the hub.
    let ends = motif_vars + usize::from(hub.is_some());
    let motif: Vec<(usize, usize)> = (0..rng.range_usize(1, 5))
        .map(|_| (rng.range_usize(0, ends), rng.range_usize(0, ends)))
        .collect();
    let mut vars: Vec<Var> = hub.into_iter().collect();
    for c in 0..copies {
        let copy: Vec<Var> = (0..motif_vars)
            .map(|i| q.var(&format!("V{c}_{i}")))
            .collect();
        let term = |i: usize| {
            Term::Var(if i < motif_vars {
                copy[i]
            } else {
                hub.unwrap()
            })
        };
        for &(a, b) in &motif {
            q.add_atom("s", vec![term(a), term(b)]);
        }
        vars.extend(copy);
    }
    if rng.range_u32(0, 3) == 0 {
        let a = vars[rng.range_usize(0, vars.len())];
        let b = vars[rng.range_usize(0, vars.len())];
        q.add_atom("s", vec![Term::Var(a), Term::Var(b)]);
    }
    let occurring: Vec<Var> = q.vars_in_atoms().into_iter().collect();
    let free: Vec<Var> = (0..rng.range_usize(0, 3))
        .map(|_| occurring[rng.range_usize(0, occurring.len())])
        .collect();
    q.set_free(free);
    q
}

/// The query of case `case`: the small mixed generator on even cases, a
/// self-join body on odd ones.
fn case_query(rng: &mut Rng, case: usize) -> ConjunctiveQuery {
    if case.is_multiple_of(2) {
        random_query(rng)
    } else {
        self_join_query(rng)
    }
}

/// Rebuilds `q` with variables renamed by `rename` and atoms reordered by
/// `order` (a permutation of atom indices).
fn transformed(
    q: &ConjunctiveQuery,
    rename: &dyn Fn(&str) -> String,
    order: &[usize],
) -> ConjunctiveQuery {
    let mut out = ConjunctiveQuery::new();
    for &i in order {
        let a = &q.atoms()[i];
        let terms = a
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => Term::Var(out.var(&rename(q.var_name(*v)))),
                Term::Const(c) => Term::Const(c.clone()),
            })
            .collect();
        out.add_atom(&a.rel, terms);
    }
    let free: Vec<Var> = q
        .free()
        .iter()
        .map(|v| out.var(&rename(q.var_name(*v))))
        .collect();
    out.set_free(free);
    out
}

fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.range_usize(0, i + 1);
        order.swap(i, j);
    }
    order
}

#[test]
fn renaming_and_reordering_preserve_fingerprint() {
    let mut rng = Rng::seed_from_u64(0x51);
    let (mut branched, mut pruned) = (0, 0);
    for case in 0..CASES {
        let q = case_query(&mut rng, case);
        let (f0, stats) = fingerprint_with_stats(&q);
        assert!(!stats.capped, "case {case}: q = {q}");
        branched += usize::from(stats.leaves > 1);
        pruned += usize::from(stats.pruned > 0);
        // fresh names in a scrambled interning order, atoms shuffled
        let offset = rng.range_usize(10, 1000);
        let order = shuffled(&mut rng, q.atoms().len());
        let q2 = transformed(&q, &|name: &str| format!("W{offset}{name}"), &order);
        assert_eq!(f0, fingerprint(&q2), "case {case}: q = {q}");
        // identity rename, different order only
        let order2 = shuffled(&mut rng, q.atoms().len());
        let q3 = transformed(&q, &|name: &str| name.to_owned(), &order2);
        assert_eq!(f0, fingerprint(&q3), "case {case}: q = {q}");
    }
    // The self-join bodies make the labeling search branch and prune.
    assert!(branched >= CASES / 8, "only {branched} cases branched");
    assert!(pruned >= CASES / 8, "only {pruned} cases pruned twins");
}

#[test]
fn duplicated_conjuncts_preserve_fingerprint() {
    let mut rng = Rng::seed_from_u64(0x52);
    for case in 0..CASES {
        let q = case_query(&mut rng, case);
        let f0 = fingerprint(&q);
        let mut q2 = q.clone();
        let i = rng.range_usize(0, q.atoms().len());
        let dup = q.atoms()[i].clone();
        q2.add_atom(&dup.rel, dup.terms);
        assert_eq!(f0, fingerprint(&q2), "case {case}: q = {q}");
    }
}

#[test]
fn structural_edits_change_fingerprint() {
    let mut rng = Rng::seed_from_u64(0x53);
    for case in 0..CASES {
        let q = case_query(&mut rng, case);
        let f0 = fingerprint(&q);

        // Adding an atom over a fresh relation symbol must be visible.
        let mut added = q.clone();
        let extra = match q.vars_in_atoms().into_iter().next() {
            Some(v) => Term::Var(v),
            None => Term::Const("c0".into()),
        };
        added.add_atom("zz_new_rel", vec![extra]);
        assert_ne!(f0, fingerprint(&added), "case {case}: q = {q}");

        // Changing a constant (or a variable into a fresh constant) must be
        // visible.
        let edited = q.clone();
        let i = rng.range_usize(0, q.atoms().len());
        let j = rng.range_usize(0, q.atoms()[i].terms.len());
        let atoms = edited.atoms().to_vec();
        let mut rebuilt = ConjunctiveQuery::new();
        for (k, a) in atoms.iter().enumerate() {
            let terms: Vec<Term> = a
                .terms
                .iter()
                .enumerate()
                .map(|(l, t)| {
                    if k == i && l == j {
                        Term::Const("zz_fresh_const".into())
                    } else {
                        match t {
                            Term::Var(w) => Term::Var(rebuilt.var(edited.var_name(*w))),
                            Term::Const(c) => Term::Const(c.clone()),
                        }
                    }
                })
                .collect();
            rebuilt.add_atom(&a.rel, terms);
        }
        let free: Vec<Var> = edited
            .free()
            .iter()
            .filter_map(|w| rebuilt.find_var(edited.var_name(*w)))
            .collect();
        rebuilt.set_free(free);
        assert_ne!(f0, fingerprint(&rebuilt), "case {case}: q = {q}");
    }
}

#[test]
fn removing_an_atom_changes_fingerprint() {
    let mut rng = Rng::seed_from_u64(0x54);
    for case in 0..CASES {
        let q = case_query(&mut rng, case);
        // Only meaningful when the removed atom is not a duplicate of a
        // remaining one (conjunction is idempotent, and the fingerprint
        // treats it as such on purpose).
        if q.atoms().len() < 2 {
            continue;
        }
        let i = rng.range_usize(0, q.atoms().len());
        let removed = &q.atoms()[i];
        let duplicate = q
            .atoms()
            .iter()
            .enumerate()
            .any(|(k, a)| k != i && a == removed);
        if duplicate {
            continue;
        }
        let keep: Vec<usize> = (0..q.atoms().len()).filter(|&k| k != i).collect();
        let smaller = q.sub_query(&keep);
        assert_ne!(
            fingerprint(&q),
            fingerprint(&smaller),
            "case {case}: q = {q}"
        );
    }
}
