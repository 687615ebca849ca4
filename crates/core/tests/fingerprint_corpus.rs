//! The canonical fingerprint over a fixed corpus of the query families the
//! system plans: every query gives one text under seeded variable renamings
//! (which also permute the variables' interning order), atom shuffles and
//! duplicated conjuncts, and the corpus's symmetric members stay under the
//! search's leaf cap, where that invariance is guaranteed. Unions of
//! directed cycles tie variables that no automorphism relates, so a search
//! that skipped members of a tied cell without proof would show here. The 511 heads of
//! the paper's `Q0` give 383 texts: exactly the heads that differ by the
//! `F ↔ G` automorphism of its body share a key.

use cqcount_arith::prng::Rng;
use cqcount_query::fingerprint::{fingerprint, fingerprint_with_stats};
use cqcount_query::{parse_query, ConjunctiveQuery, Term, Var};
use cqcount_workloads::graphs::clique_query;
use cqcount_workloads::paper::q0_query;
use cqcount_workloads::random::random_cyclic_query;
use std::collections::BTreeSet;

const RENAMINGS: usize = if cfg!(feature = "exhaustive-tests") {
    64
} else {
    20
};

/// `q` with its variables interned in a random order under fresh names,
/// its atoms shuffled, and sometimes one atom duplicated.
fn renamed(q: &ConjunctiveQuery, rng: &mut Rng) -> ConjunctiveQuery {
    let mut out = ConjunctiveQuery::new();
    let mut vars: Vec<Var> = q.vars_in_atoms().into_iter().collect();
    shuffle(rng, &mut vars);
    let tag = rng.range_usize(0, 1000);
    let name = |v: Var| format!("R{tag}_{}", q.var_name(v));
    for &v in &vars {
        out.var(&name(v));
    }
    let mut order: Vec<usize> = (0..q.atoms().len()).collect();
    shuffle(rng, &mut order);
    if rng.range_u32(0, 4) == 0 {
        order.push(order[0]);
    }
    for i in order {
        let a = &q.atoms()[i];
        let terms = (a.terms.iter())
            .map(|t| match t {
                Term::Var(v) => Term::Var(out.var(&name(*v))),
                Term::Const(c) => Term::Const(c.clone()),
            })
            .collect();
        out.add_atom(&a.rel, terms);
    }
    let free: Vec<Var> = q.free().iter().map(|&v| out.var(&name(v))).collect();
    out.set_free(free);
    out
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_usize(0, i + 1));
    }
}

/// The 511 non-empty heads of `Q0`'s body.
fn q0_heads() -> Vec<ConjunctiveQuery> {
    let q0 = q0_query();
    let vars: Vec<Var> = q0.vars_in_atoms().into_iter().collect();
    (1u32..1 << vars.len())
        .map(|mask| {
            let head = (0..vars.len()).filter(|i| mask >> i & 1 == 1);
            q0.requantify(head.map(|i| vars[i]))
        })
        .collect()
}

/// `ans(X) :- e(X, Y1), …, e(X, Yn)`: all `n` leaves are interchangeable.
fn star(n: usize) -> ConjunctiveQuery {
    let legs: Vec<String> = (1..=n).map(|i| format!("e(X, Y{i})")).collect();
    parse_query(&format!("ans(X) :- {}.", legs.join(", "))).unwrap()
}

/// The circulant digraph on `n` vertices with connection set `steps`
/// (edges `i → i + s mod n`), with vertex 0 free or none.
fn circulant(n: usize, steps: &[usize], pin: bool) -> ConjunctiveQuery {
    let edges: Vec<String> = (0..n)
        .flat_map(|i| {
            steps
                .iter()
                .map(move |s| format!("e(V{i}, V{})", (i + s) % n))
        })
        .collect();
    let head = if pin { "V0" } else { "" };
    parse_query(&format!("ans({head}) :- {}.", edges.join(", "))).unwrap()
}

/// Disjoint directed cycles of the given lengths over one relation. Every
/// vertex has one in- and one out-edge, so refinement cannot tell a vertex
/// of one cycle length from another's, though no automorphism maps one to
/// the other: the search must try both.
fn cycles(lengths: &[usize], pin: bool) -> ConjunctiveQuery {
    let edges: Vec<String> = (lengths.iter().enumerate())
        .flat_map(|(c, &n)| (0..n).map(move |i| format!("e(C{c}_{i}, C{c}_{})", (i + 1) % n)))
        .collect();
    let head = if pin { "C0_0" } else { "" };
    parse_query(&format!("ans({head}) :- {}.", edges.join(", "))).unwrap()
}

fn corpus() -> Vec<ConjunctiveQuery> {
    let mut queries = Vec::new();
    for atoms in 6..=12 {
        for seed in 0..4 {
            queries.push(random_cyclic_query(atoms, seed));
        }
    }
    queries.extend(q0_heads());
    queries.extend((1..=32).map(star));
    for n in 8usize..=16 {
        let mut sets = vec![vec![1], vec![1, 2], vec![1, 3], vec![2, 3]];
        sets.extend([vec![1, n - 1], vec![1, 2, n - 1]]);
        if n.is_multiple_of(2) {
            sets.push(vec![1, n / 2]);
        }
        for steps in &sets {
            for pin in [false, true] {
                queries.push(circulant(n, steps, pin));
            }
        }
    }
    queries.extend((2..=6).map(clique_query));
    for lengths in [
        &[4, 4][..],
        &[5, 3],
        &[6, 2],
        &[3, 3, 2],
        &[4, 2, 2],
        &[6, 3, 3],
        &[4, 4, 4],
    ] {
        for pin in [false, true] {
            queries.push(cycles(lengths, pin));
        }
    }
    queries
}

#[test]
fn every_corpus_query_has_one_text_across_renamings() {
    let mut rng = Rng::seed_from_u64(0xF1A6);
    for q in corpus() {
        let (fp, stats) = fingerprint_with_stats(&q);
        assert!(!stats.capped, "{q}: the search hit its cap ({stats:?})");
        for r in 0..RENAMINGS {
            let q2 = renamed(&q, &mut rng);
            assert_eq!(fingerprint(&q2).text, fp.text, "renaming {r} of {q}: {q2}");
        }
    }
}

#[test]
fn q0_heads_give_383_keys() {
    let texts: BTreeSet<String> = q0_heads().iter().map(|q| fingerprint(q).text).collect();
    assert_eq!(texts.len(), 383);
}
