//! Counting answers to *unions* of conjunctive queries — the extension the
//! paper's follow-up work tackles ([18, 19] in its bibliography): the same
//! answer may satisfy several disjuncts, so overcounting must be avoided.
//!
//! We implement the classical inclusion–exclusion solution: for disjuncts
//! `Q₁ ∪ ... ∪ Q_r` over the *same* output schema,
//! `|⋃ᵢ Aᵢ| = Σ_{∅≠S} (-1)^{|S|+1} |⋂_{i∈S} Aᵢ|`, and each intersection of
//! answer sets is itself the answer set of a conjunctive query: conjoin the
//! disjuncts after renaming their existential variables apart (the output
//! variables are shared positionally). Every intersection is counted with
//! the planner, so bounded `#`-hypertree width of the closure under
//! conjunctions gives polynomial counting — with a `2^r` factor in the
//! (fixed) number of disjuncts.

use crate::planner::count_auto;
use cqcount_arith::{Int, Natural};
use cqcount_query::{ConjunctiveQuery, Term, Var};
use cqcount_relational::Database;

/// A union of conjunctive queries with a shared output schema.
///
/// Each disjunct must have the same number of free variables; the output
/// schema is positional (the i-th free variable of every disjunct is the
/// same output column). Free variables are ordered by their `Var` id within
/// each disjunct, i.e. by first-interning order — use the same naming
/// pattern across disjuncts (the parser interns head variables first, in
/// head order, which does the right thing).
#[derive(Clone, Debug)]
pub struct UnionQuery {
    disjuncts: Vec<ConjunctiveQuery>,
    arity: usize,
}

impl UnionQuery {
    /// Builds a union; panics if the disjuncts disagree on output arity or
    /// if the union is empty.
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> UnionQuery {
        assert!(!disjuncts.is_empty(), "empty union");
        let arity = disjuncts[0].free().len();
        assert!(
            disjuncts.iter().all(|q| q.free().len() == arity),
            "disjuncts must share the output arity"
        );
        UnionQuery { disjuncts, arity }
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[ConjunctiveQuery] {
        &self.disjuncts
    }

    /// Output arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The conjunction of a subset of disjuncts: output variables unified
    /// positionally, existential variables renamed apart.
    pub fn conjoin(&self, subset: &[usize]) -> ConjunctiveQuery {
        assert!(!subset.is_empty());
        let mut out = ConjunctiveQuery::new();
        // Shared output variables O0..O{arity-1}.
        let outs: Vec<Var> = (0..self.arity).map(|i| out.var(&format!("O{i}"))).collect();
        for (si, &qi) in subset.iter().enumerate() {
            let q = &self.disjuncts[qi];
            let free: Vec<Var> = q.free().into_iter().collect();
            let map_var = |v: Var, out: &mut ConjunctiveQuery| -> Var {
                if let Some(pos) = free.iter().position(|&f| f == v) {
                    outs[pos]
                } else {
                    out.var(&format!("E{si}_{}", q.var_name(v)))
                }
            };
            for atom in q.atoms() {
                let terms: Vec<Term> = atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => Term::Var(map_var(*v, &mut out)),
                        Term::Const(c) => Term::Const(c.clone()),
                    })
                    .collect();
                out.add_atom(&atom.rel, terms);
            }
        }
        out.set_free(outs);
        out
    }
}

/// Counts `|⋃ᵢ π_free(Qᵢ)(Qᵢ^D)|` by inclusion–exclusion over the
/// disjuncts, counting every intersection with the automatic planner.
pub fn count_union(u: &UnionQuery, db: &Database) -> Natural {
    let r = u.disjuncts().len();
    assert!(r < 20, "too many disjuncts for inclusion–exclusion");
    let mut total = Int::ZERO;
    for mask in 1u32..(1 << r) {
        let subset: Vec<usize> = (0..r).filter(|i| mask & (1 << i) != 0).collect();
        let count = Int::from(count_auto(&u.conjoin(&subset), db));
        total += if subset.len() % 2 == 1 { count } else { -count };
    }
    assert!(
        !total.is_negative(),
        "inclusion–exclusion went negative: bug"
    );
    total.into_magnitude()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcount_query::hom::for_each_homomorphism_to_db;
    use cqcount_query::parse_program;
    use cqcount_relational::Value;
    use std::collections::BTreeSet;

    fn brute_union(u: &UnionQuery, db: &Database) -> Natural {
        let mut set: BTreeSet<Vec<Value>> = BTreeSet::new();
        for q in u.disjuncts() {
            let free: Vec<Var> = q.free().into_iter().collect();
            for_each_homomorphism_to_db(q, db, |h| {
                set.insert(free.iter().map(|v| h[v]).collect());
                true
            });
        }
        Natural::from(set.len())
    }

    fn q(src: &str) -> ConjunctiveQuery {
        parse_program(src).unwrap().0.unwrap()
    }

    #[test]
    fn union_of_two_overlapping() {
        let db = cqcount_query::parse_database("r(a, x). r(b, y). s(b, u). s(c, v).").unwrap();
        let u = UnionQuery::new(vec![q("ans(X) :- r(X, Y)."), q("ans(X) :- s(X, Y).")]);
        // answers: {a, b} ∪ {b, c} = {a, b, c}
        assert_eq!(count_union(&u, &db), 3u64.into());
        assert_eq!(count_union(&u, &db), brute_union(&u, &db));
    }

    #[test]
    fn union_with_identical_disjuncts() {
        let db = cqcount_query::parse_database("r(a, x). r(b, y).").unwrap();
        let d = q("ans(X) :- r(X, Y).");
        let u = UnionQuery::new(vec![d.clone(), d]);
        assert_eq!(count_union(&u, &db), 2u64.into());
    }

    #[test]
    fn binary_output_positional_alignment() {
        let db = cqcount_query::parse_database("e(a, b). e(b, c). f(a, b). f(c, d).").unwrap();
        let u = UnionQuery::new(vec![q("ans(X, Y) :- e(X, Y)."), q("ans(U, V) :- f(U, V).")]);
        // {(a,b),(b,c)} ∪ {(a,b),(c,d)} = 3
        assert_eq!(count_union(&u, &db), 3u64.into());
        assert_eq!(count_union(&u, &db), brute_union(&u, &db));
    }

    #[test]
    fn three_way_union_inclusion_exclusion() {
        let db =
            cqcount_query::parse_database("r(a). r(b). s(b). s(c). t(c). t(a). t(d).").unwrap();
        let u = UnionQuery::new(vec![
            q("ans(X) :- r(X)."),
            q("ans(X) :- s(X)."),
            q("ans(X) :- t(X)."),
        ]);
        // {a,b} ∪ {b,c} ∪ {a,c,d} = {a,b,c,d}
        assert_eq!(count_union(&u, &db), 4u64.into());
        assert_eq!(count_union(&u, &db), brute_union(&u, &db));
    }

    #[test]
    fn union_with_existentials_and_projection() {
        let db = cqcount_query::parse_database("r(a, x). r(a, y). r(b, x). s(x, 1). p(b). p(c).")
            .unwrap();
        let u = UnionQuery::new(vec![q("ans(X) :- r(X, Y), s(Y, Z)."), q("ans(X) :- p(X).")]);
        // first: X with r(X,Y),s(Y,_): {a, b}; second: {b, c} → 3
        assert_eq!(count_union(&u, &db), 3u64.into());
        assert_eq!(count_union(&u, &db), brute_union(&u, &db));
    }

    #[test]
    fn randomized_unions_agree_with_brute() {
        use cqcount_workloads::random::{
            random_database, random_query, RandomCqConfig, RandomDbConfig,
        };
        for seed in 0..10u64 {
            // Two random disjuncts forced to 1 output variable.
            let mut d1 = random_query(
                &RandomCqConfig {
                    atoms: 3,
                    vars: 4,
                    max_arity: 2,
                    rels: 2,
                    free_prob: 0.0,
                },
                seed,
            );
            let mut d2 = random_query(
                &RandomCqConfig {
                    atoms: 3,
                    vars: 4,
                    max_arity: 2,
                    rels: 2,
                    free_prob: 0.0,
                },
                seed + 100,
            );
            let v1 = d1.vars_in_atoms().into_iter().next().unwrap();
            let v2 = d2.vars_in_atoms().into_iter().next().unwrap();
            d1.set_free([v1]);
            d2.set_free([v2]);
            let mut db = random_database(&d1, &RandomDbConfig::default(), seed);
            // merge d2's relations into the same db
            let db2 = random_database(&d2, &RandomDbConfig::default(), seed + 7);
            for (name, rel) in db2.relations() {
                if db.relation(name).is_none() {
                    db.ensure_relation(name, rel.arity());
                    for t in rel.iter() {
                        let names: Vec<String> = t
                            .iter()
                            .map(|v| db2.interner().name(*v).to_owned())
                            .collect();
                        let vals = names.iter().map(|n| db.value(n)).collect();
                        db.add_tuple(name, vals);
                    }
                }
            }
            let u = UnionQuery::new(vec![d1, d2]);
            assert_eq!(count_union(&u, &db), brute_union(&u, &db), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "output arity")]
    fn arity_mismatch_rejected() {
        UnionQuery::new(vec![q("ans(X) :- r(X, Y)."), q("ans(X, Y) :- r(X, Y).")]);
    }
}
