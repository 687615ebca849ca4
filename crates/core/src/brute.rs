//! Baseline counting by enumeration — the paper's "straightforward
//! approach" (Section 1.1), kept as the always-correct oracle every other
//! algorithm is validated against.

use crate::budget::Budget;
use crate::error::PlanError;
use cqcount_arith::Natural;
use cqcount_query::canonical::atom_bindings;
use cqcount_query::hom::for_each_homomorphism_to_db;
use cqcount_query::ConjunctiveQuery;
use cqcount_relational::{Bindings, Database, FxHashSet, Value};

/// Counts `|π_free(Q)(Q^D)|` by backtracking over all homomorphisms and
/// collecting the distinct projections onto the free variables. Exponential
/// in general; exact always.
pub fn count_brute_force(q: &ConjunctiveQuery, db: &Database) -> Natural {
    count_brute_force_budgeted(q, db, &Budget::unlimited()).expect("unlimited budget never trips")
}

/// How many homomorphisms the brute-force loop visits between budget
/// checks. Small enough that cancellation latency stays in the
/// microseconds, large enough that `Instant::now` never shows up in a
/// profile.
const BUDGET_STRIDE: u32 = 256;

/// [`count_brute_force`] with a cooperative wall-clock budget: the
/// enumeration loop checks the budget every `BUDGET_STRIDE`
/// homomorphisms and aborts with [`PlanError::BudgetExceeded`] instead of
/// running to completion. This is the serving layer's defense against
/// adversarially expensive requests.
pub fn count_brute_force_budgeted(
    q: &ConjunctiveQuery,
    db: &Database,
    budget: &Budget,
) -> Result<Natural, PlanError> {
    budget.check()?;
    let free: Vec<cqcount_query::Var> = q.free().into_iter().collect();
    let mut seen: FxHashSet<Box<[Value]>> = FxHashSet::default();
    let mut boolean_hit = false;
    let mut tripped = false;
    let mut since_check: u32 = 0;
    for_each_homomorphism_to_db(q, db, |h| {
        since_check += 1;
        if since_check >= BUDGET_STRIDE {
            since_check = 0;
            if budget.is_exceeded() {
                tripped = true;
                return false;
            }
        }
        if free.is_empty() {
            boolean_hit = true;
            return false; // any single solution settles a Boolean query
        }
        let key: Box<[Value]> = free.iter().map(|v| h[v]).collect();
        seen.insert(key);
        true
    });
    if tripped {
        return Err(PlanError::BudgetExceeded {
            elapsed_ms: budget.elapsed_ms().max(1),
        });
    }
    Ok(if free.is_empty() {
        if boolean_hit {
            Natural::ONE
        } else {
            Natural::ZERO
        }
    } else {
        Natural::from(seen.len())
    })
}

/// Counts by materializing the full join of all atoms and projecting — the
/// textbook evaluation with exponential intermediate results. A second,
/// structurally different baseline used to cross-check the first.
pub fn count_via_full_join(q: &ConjunctiveQuery, db: &Database) -> Natural {
    let mut acc = Bindings::unit();
    // Greedy connected order: join next the atom sharing most columns.
    let mut remaining: Vec<Bindings> = q.atoms().iter().map(|a| atom_bindings(a, db)).collect();
    while !remaining.is_empty() {
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, b)| b.cols().iter().filter(|c| acc.cols().contains(c)).count())
            .expect("nonempty");
        let next = remaining.swap_remove(idx);
        acc = acc.join(&next);
        if acc.is_empty() {
            return Natural::ZERO;
        }
    }
    let free_cols: Vec<u32> = q.free().iter().map(|v| v.node()).collect();
    Natural::from(acc.project(&free_cols).len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcount_query::parse_program;

    fn setup(src: &str) -> (ConjunctiveQuery, Database) {
        let (q, db) = parse_program(src).unwrap();
        (q.unwrap(), db)
    }

    #[test]
    fn simple_projection_count() {
        let (q, db) = setup(
            "r(a, x). r(a, y). r(b, z).
             ans(X) :- r(X, Y).",
        );
        // X ∈ {a, b}: 2 distinct answers from 3 homomorphisms.
        assert_eq!(count_brute_force(&q, &db), 2u64.into());
        assert_eq!(count_via_full_join(&q, &db), 2u64.into());
    }

    #[test]
    fn boolean_query() {
        let (q, db) = setup("r(a, b). ans() :- r(X, Y).");
        assert_eq!(count_brute_force(&q, &db), 1u64.into());
        assert_eq!(count_via_full_join(&q, &db), 1u64.into());
        let (q2, db2) = setup("s(a). ans() :- r(X, Y).");
        assert_eq!(count_brute_force(&q2, &db2), 0u64.into());
        assert_eq!(count_via_full_join(&q2, &db2), 0u64.into());
    }

    #[test]
    fn all_vars_free_counts_homomorphisms() {
        let (q, db) = setup(
            "e(a, b). e(b, c). e(a, c).
             ans(X, Y, Z) :- e(X, Y), e(Y, Z).",
        );
        // paths of length 2: a->b->c only.
        assert_eq!(count_brute_force(&q, &db), 1u64.into());
        assert_eq!(count_via_full_join(&q, &db), 1u64.into());
    }

    #[test]
    fn cartesian_blowup_counted_without_duplicates() {
        let (q, db) = setup(
            "r(a). r(b). s(x). s(y). s(z).
             ans(X) :- r(X), s(Y).",
        );
        assert_eq!(count_brute_force(&q, &db), 2u64.into());
        assert_eq!(count_via_full_join(&q, &db), 2u64.into());
    }

    #[test]
    fn disconnected_free_components() {
        let (q, db) = setup(
            "r(a). r(b). s(x). s(y). s(z).
             ans(X, Y) :- r(X), s(Y).",
        );
        assert_eq!(count_brute_force(&q, &db), 6u64.into());
        assert_eq!(count_via_full_join(&q, &db), 6u64.into());
    }

    #[test]
    fn empty_answer_set() {
        let (q, db) = setup("r(a, a). ans(X) :- r(X, Y), s(Y).");
        assert_eq!(count_brute_force(&q, &db), 0u64.into());
        assert_eq!(count_via_full_join(&q, &db), 0u64.into());
    }

    #[test]
    fn q0_example_1_1_small_instance() {
        let (q, db) = setup(
            "mw(m1, w1, 10). mw(m2, w1, 20). mw(m1, w2, 30).
             wt(w1, t1). wt(w2, t2).
             wi(w1, i1). wi(w2, i2).
             pt(p1, t1). pt(p1, t2). pt(p2, t1).
             st(t1, u1). st(t2, u2).
             rr(u1, res1). rr(t1, res1). rr(u2, res2). rr(t2, res2).
             ans(A, B, C) :- mw(A, B, I), wt(B, D), wi(B, E), pt(C, D),
                             st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H).",
        );
        let n = count_brute_force(&q, &db);
        assert_eq!(count_via_full_join(&q, &db), n);
        // (m1,w1,p1), (m2,w1,p1), (m1,w1,p2), (m2,w1,p2), (m1,w2,p1)
        assert_eq!(n, 5u64.into());
    }
}
