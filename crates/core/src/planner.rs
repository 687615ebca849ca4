//! Width analysis and automatic algorithm selection — the front door a
//! downstream user calls.
//!
//! Every count picks its algorithm in one place: [`prepare_plan`] does the
//! query-only work (the `#`-hypertree decomposition search), and
//! [`count_prepared`] walks the paper's ladder over the data — Theorem
//! 1.3's pipeline, then Theorem 6.6's hybrid decomposition, then
//! enumeration. [`count_auto`], the CLI and the serving layer all go
//! through these two functions.

use crate::brute::count_brute_force_budgeted;
use crate::budget::Budget;
use crate::error::PlanError;
use crate::hybrid::count_hybrid;
use crate::pipeline::count_with_decomposition;
use crate::sharp::SharpDecomposition;
use crate::width_search::WidthSearch;

use cqcount_arith::Natural;
use cqcount_query::{quantified_star_size, ConjunctiveQuery};
use cqcount_relational::Database;

/// Structural measurements of a query, for explainability and planning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WidthReport {
    /// Is the query hypergraph α-acyclic?
    pub acyclic: bool,
    /// Generalized hypertree width of `H_Q` (searched up to the cap).
    pub ghw: Option<usize>,
    /// `#`-hypertree width (Definition 1.2), searched up to the cap.
    pub sharp_width: Option<usize>,
    /// Quantified star size (Appendix A).
    pub star_size: usize,
    /// Number of atoms / variables / free variables.
    pub atoms: usize,
    /// Number of variables.
    pub vars: usize,
    /// Number of free variables.
    pub free: usize,
    /// The cap used for the width searches.
    pub cap: usize,
}

impl WidthReport {
    /// Analyzes `q`, searching widths up to `cap`.
    pub fn analyze(q: &ConjunctiveQuery, cap: usize) -> WidthReport {
        let h = q.hypergraph();
        let resources = crate::sharp::atom_nodesets(q);
        // Both width sweeps run incrementally: ghw_exact reuses one
        // GhwSearch across k and WidthSearch shares the core/cover setup.
        let ghw = cqcount_decomp::ghw_exact(&h, &resources, cap).map(|(w, _)| w);
        let sharp_width = WidthSearch::new(q).find_up_to(cap).map(|(k, _)| k);
        WidthReport {
            acyclic: cqcount_hypergraph::is_acyclic(&h),
            ghw,
            sharp_width,
            star_size: quantified_star_size(q),
            atoms: q.atoms().len(),
            vars: q.vars_in_atoms().len(),
            free: q.free().len(),
            cap,
        }
    }
}

/// The algorithm the planner chose, with the evidence that justified it —
/// returned by [`count_prepared`] so callers (and the CLI) can show *why*.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    /// Bounded `#`-hypertree width: Theorem 1.3's polynomial pipeline.
    SharpPipeline {
        /// The witnessing `#`-hypertree width.
        width: usize,
    },
    /// A hybrid `#ᵦ`-hypertree decomposition (Theorem 6.6).
    Hybrid {
        /// Structural width of the `Q[S̄]` decomposition.
        width: usize,
        /// The achieved degree bound.
        bound: usize,
        /// Names of the promoted (pseudo-free) variables.
        promoted: Vec<String>,
    },
    /// No structural handle within the caps: enumeration.
    BruteForce {
        /// Human-readable reason.
        reason: String,
    },
}

/// Counts `|π_free(Q)(Q^D)|` with the cheapest applicable algorithm:
///
/// 1. bounded `#`-hypertree width (cap 3) → the Theorem 1.3 pipeline;
/// 2. otherwise, a hybrid `#ᵦ`-decomposition with a small degree bound
///    (Theorem 6.6) when one exists;
/// 3. otherwise, brute-force enumeration.
///
/// Shorthand for [`prepare_plan`] then [`count_prepared`] without a budget.
pub fn count_auto(q: &ConjunctiveQuery, db: &Database) -> Natural {
    count_prepared(q, db, &prepare_plan(q, WIDTH_CAP), &Budget::unlimited())
        .expect("an unlimited budget never trips")
        .0
}

/// Default structural width cap for the planner's decomposition searches.
pub const WIDTH_CAP: usize = 3;
/// Default degree cap for the hybrid (`#ᵦ`) search.
pub const DEGREE_CAP: usize = 8;
/// Above this many existential variables the hybrid subset search is
/// skipped (it enumerates subsets of the existential variables).
pub const HYBRID_EXISTENTIAL_LIMIT: usize = 16;

/// The data-independent half of a plan: everything the planner can decide
/// from the query alone. Produced by [`prepare_plan`], consumed by
/// [`count_prepared`], and cached by the serving layer keyed on the
/// query's canonical fingerprint — a prepared plan stays valid across
/// data reloads because it never looks at the database.
#[derive(Clone, Debug)]
pub struct PreparedPlan {
    /// A `#`-hypertree decomposition within `width_cap`, if one exists.
    /// `None` means the (expensive) search already failed up to the cap,
    /// so [`count_prepared`] goes straight to the hybrid/brute fallbacks.
    pub sharp: Option<SharpDecomposition>,
    /// The width cap the decomposition search ran up to.
    pub width_cap: usize,
    /// True when the decomposition search was cut short by its budget
    /// ([`prepare_plan_budgeted`]): `sharp == None` then means "not found
    /// *so far*", not "proven absent up to the cap". Degraded plans should
    /// not be cached.
    pub degraded: bool,
}

/// Runs the query-only planning work (core computation + `#`-hypertree
/// decomposition search up to `width_cap`) once, so repeated counts of the
/// same query — the serving layer's hot path — skip it.
pub fn prepare_plan(q: &ConjunctiveQuery, width_cap: usize) -> PreparedPlan {
    prepare_plan_budgeted(q, width_cap, &Budget::unlimited())
}

/// [`prepare_plan`] under a cooperative [`Budget`]: the width search is
/// checked between candidate widths, and a tripped budget stops it early
/// with `degraded: true` instead of stalling — [`count_prepared`] then
/// degrades to the acyclic/brute fallback rather than holding a worker
/// hostage on an adversarial query.
pub fn prepare_plan_budgeted(
    q: &ConjunctiveQuery,
    width_cap: usize,
    budget: &Budget,
) -> PreparedPlan {
    let sp = cqcount_obs::trace::span("plan.decompose");
    let mut degraded = false;
    let mut sharp = None;
    // The WidthSearch is built lazily so a budget tripped before planning
    // even starts degrades without paying for the core computation.
    let mut search: Option<WidthSearch> = None;
    for k in 1..=width_cap {
        if budget.is_exceeded() {
            degraded = true;
            break;
        }
        if sp.is_armed() {
            sp.add("widths_tried", 1);
        }
        let search = search.get_or_insert_with(|| WidthSearch::new(q));
        if let Some(sd) = search.decomposition_at(k) {
            sharp = Some(sd);
            break;
        }
    }
    if sp.is_armed() {
        match &sharp {
            Some(sd) => {
                sp.add("width", sd.width as u64);
                sp.tag("outcome", "found");
            }
            None => sp.tag("outcome", if degraded { "cut-short" } else { "absent" }),
        }
    }
    PreparedPlan {
        sharp,
        width_cap,
        degraded,
    }
}

/// Counts `q` over `db` reusing the decomposition from a [`PreparedPlan`],
/// under a cooperative [`Budget`]. This is the one place a count picks its
/// algorithm, in the paper's order:
///
/// 1. a `#`-hypertree decomposition in the plan → the Theorem 1.3 pipeline;
/// 2. otherwise a hybrid `#ᵦ`-decomposition (Theorem 6.6) when one exists
///    within the width cap and [`DEGREE_CAP`];
/// 3. otherwise budgeted brute-force enumeration.
///
/// On a degraded plan (the width search was cut short) the count
/// **degrades instead of stalling**: the (even costlier) hybrid search is
/// skipped, a full acyclic query takes the Yannakakis-style fast path,
/// and anything else is enumerated. The count is exact either way; budget
/// trips surface as [`PlanError::BudgetExceeded`], never as a panic.
pub fn count_prepared(
    q: &ConjunctiveQuery,
    db: &Database,
    plan: &PreparedPlan,
    budget: &Budget,
) -> Result<(Natural, Plan), PlanError> {
    budget.check()?;
    if let Some(sd) = &plan.sharp {
        let sp = cqcount_obs::trace::span("count.sharp");
        if sp.is_armed() {
            sp.add("width", sd.width as u64);
        }
        let n = count_with_decomposition(&sd.qprime, db, &sd.hypertree);
        budget.check()?;
        return Ok((n, Plan::SharpPipeline { width: sd.width }));
    }
    let hybrid_feasible = q.existential().len() < HYBRID_EXISTENTIAL_LIMIT;
    // On a degraded plan the width search was cut short; the hybrid
    // search is strictly more work, so go straight down the ladder.
    if !plan.degraded && hybrid_feasible {
        let sp = cqcount_obs::trace::span("count.hybrid");
        if let Some((n, hd)) = count_hybrid(q, db, plan.width_cap, DEGREE_CAP) {
            budget.check()?;
            if sp.is_armed() {
                sp.add("width", hd.sharp.width as u64);
                sp.add("bound", hd.bound as u64);
            }
            let promoted = hd
                .sbar
                .iter()
                .filter(|v| !q.free().contains(v))
                .map(|v| q.var_name(*v).to_owned())
                .collect();
            return Ok((
                n,
                Plan::Hybrid {
                    width: hd.sharp.width,
                    bound: hd.bound,
                    promoted,
                },
            ));
        }
    }
    // Degradation rung: a full (quantifier-free) acyclic query counts in
    // polynomial time with the Yannakakis-style DP, no decomposition
    // search needed. (On a non-degraded plan a missing sharp decomposition
    // means the planner *decided* on brute force.)
    if plan.degraded && q.existential().is_empty() {
        let sp = cqcount_obs::trace::span("count.acyclic");
        if sp.is_armed() {
            sp.add("atoms", q.atoms().len() as u64);
        }
        let views: Vec<cqcount_relational::Bindings> = q
            .atoms()
            .iter()
            .map(|a| cqcount_query::canonical::atom_bindings(a, db))
            .collect();
        if let Some(n) = crate::acyclic::count_acyclic_full(&views) {
            budget.check()?;
            return Ok((
                n,
                Plan::BruteForce {
                    reason: "degraded: planning cut short; acyclic full-query fast path".into(),
                },
            ));
        }
    }
    let n = {
        let _sp = cqcount_obs::trace::span("count.brute");
        count_brute_force_budgeted(q, db, budget)?
    };
    let reason = if plan.degraded {
        format!(
            "degraded: decomposition search cut short by its budget (cap {})",
            plan.width_cap
        )
    } else if hybrid_feasible {
        format!(
            "#-hypertree width > {} and no hybrid decomposition with degree ≤ {DEGREE_CAP}",
            plan.width_cap
        )
    } else {
        format!(
            "#-hypertree width > {}; too many existential variables for the hybrid search",
            plan.width_cap
        )
    };
    Ok((n, Plan::BruteForce { reason }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::count_brute_force;
    use cqcount_query::parse_program;

    #[test]
    fn report_on_q0() {
        let (q, _) = parse_program(
            "ans(A, B, C) :- mw(A, B, I), wt(B, D), wi(B, E), pt(C, D), \
             st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H).",
        )
        .unwrap();
        let r = WidthReport::analyze(&q.unwrap(), 3);
        assert!(!r.acyclic);
        assert_eq!(r.ghw, Some(2));
        assert_eq!(r.sharp_width, Some(2));
        assert_eq!(r.atoms, 9);
        assert_eq!(r.vars, 9);
        assert_eq!(r.free, 3);
    }

    #[test]
    fn auto_agrees_with_brute_force() {
        let cases = [
            "r(a, b). r(b, c). ans(X) :- r(X, Y).",
            "e(a, b). e(b, c). e(c, a). ans(X, Y) :- e(X, Y), e(Y, Z), e(Z, X).",
            "r(y1, a). r(y1, b). r(y2, b). ans(X1, X2) :- r(Y, X1), r(Y, X2).",
        ];
        for src in cases {
            let (q, db) = parse_program(src).unwrap();
            let q = q.unwrap();
            assert_eq!(count_auto(&q, &db), count_brute_force(&q, &db), "{src}");
        }
    }

    /// The one ladder, unbudgeted: what `count_auto` and `--explain` run.
    fn plan_and_count(q: &ConjunctiveQuery, db: &Database) -> (Natural, Plan) {
        count_prepared(q, db, &prepare_plan(q, WIDTH_CAP), &Budget::unlimited())
            .expect("an unlimited budget never trips")
    }

    #[test]
    fn picks_the_pipeline_for_bounded_width() {
        let (q, db) = parse_program("r(a, b). r(b, c). ans(X) :- r(X, Y).").unwrap();
        let (n, plan) = plan_and_count(&q.unwrap(), &db);
        assert_eq!(n, 2u64.into());
        assert_eq!(plan, Plan::SharpPipeline { width: 1 });
    }

    #[test]
    fn reports_hybrid_promotion() {
        use cqcount_workloads::paper::{hybrid_database, hybrid_query};
        // h = 3: #-htw = 4 > cap 3, hybrid width 2 with promoted Y's.
        let q = hybrid_query(3);
        let db = hybrid_database(3);
        let plan = prepare_plan(&q, WIDTH_CAP);
        assert!(plan.sharp.is_none(), "width 4 query must not fit cap 3");
        assert!(!plan.degraded);
        let (n, chosen) = count_prepared(&q, &db, &plan, &Budget::unlimited()).unwrap();
        assert_eq!(n, 8u64.into());
        let Plan::Hybrid {
            width,
            bound,
            promoted,
        } = chosen
        else {
            panic!("expected hybrid plan, got {chosen:?}");
        };
        // the search minimizes the degree bound, not the width:
        // any width ≤ cap with bound 1 is a valid outcome
        assert!(width <= 3, "width {width}");
        assert_eq!(bound, 1);
        assert!(!promoted.is_empty());
    }

    #[test]
    fn brute_force_reason_names_the_failed_rungs() {
        // A triangle is cyclic, so neither rung fits a width-1 cap.
        let (q, db) =
            parse_program("e(a, b). e(b, c). e(c, a). ans(X, Y) :- e(X, Y), e(Y, Z), e(Z, X).")
                .unwrap();
        let q = q.unwrap();
        let plan = prepare_plan(&q, 1);
        assert!(plan.sharp.is_none() && !plan.degraded);
        let (n, chosen) = count_prepared(&q, &db, &plan, &Budget::unlimited()).unwrap();
        assert_eq!(n, count_brute_force(&q, &db));
        let Plan::BruteForce { reason } = chosen else {
            panic!("expected brute force, got {chosen:?}");
        };
        assert_eq!(
            reason,
            "#-hypertree width > 1 and no hybrid decomposition with degree ≤ 8"
        );
    }

    #[test]
    fn count_prepared_respects_a_tripped_budget() {
        let (q, db) = parse_program("r(a, b). r(b, c). ans(X) :- r(X, Y).").unwrap();
        let q = q.unwrap();
        let tripped = crate::budget::Budget::with_deadline(std::time::Duration::from_millis(0));
        // Both a found decomposition and a degraded plan's ladder give up.
        let degraded = prepare_plan_budgeted(&q, WIDTH_CAP, &tripped);
        assert!(degraded.degraded);
        for plan in [prepare_plan(&q, WIDTH_CAP), degraded] {
            assert!(matches!(
                count_prepared(&q, &db, &plan, &tripped),
                Err(crate::error::PlanError::BudgetExceeded { .. })
            ));
        }
    }

    #[test]
    fn budgeted_prepare_degrades_instead_of_searching() {
        let (q, _) = parse_program(
            "ans(A, B, C) :- mw(A, B, I), wt(B, D), wi(B, E), pt(C, D), \
             st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H).",
        )
        .unwrap();
        let q = q.unwrap();
        let tripped = crate::budget::Budget::with_deadline(std::time::Duration::from_millis(0));
        let plan = prepare_plan_budgeted(&q, WIDTH_CAP, &tripped);
        assert!(plan.degraded, "a tripped budget must cut the search short");
        assert!(plan.sharp.is_none());
        // The unlimited path is unchanged.
        assert!(!prepare_plan(&q, WIDTH_CAP).degraded);
    }

    #[test]
    fn count_prepared_on_degraded_plan_is_exact_and_flagged() {
        let cases = [
            // full acyclic: the ladder's Yannakakis rung
            "r(a, b). r(b, c). ans(X, Y) :- r(X, Y).",
            // projection: budgeted brute-force rung
            "r(a, b). r(b, c). ans(X) :- r(X, Y).",
            // cyclic full query: brute rung again
            "e(a, b). e(b, c). e(c, a). ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).",
        ];
        for src in cases {
            let (q, db) = parse_program(src).unwrap();
            let q = q.unwrap();
            let tripped = crate::budget::Budget::with_deadline(std::time::Duration::from_millis(0));
            let plan = prepare_plan_budgeted(&q, WIDTH_CAP, &tripped);
            assert!(plan.degraded, "{src}");
            // Fresh budget for the count itself: planning degraded, the
            // count still completes.
            let (n, chosen) = count_prepared(&q, &db, &plan, &Budget::unlimited()).expect(src);
            assert_eq!(n, count_brute_force(&q, &db), "{src}");
            let Plan::BruteForce { reason } = chosen else {
                panic!("{src}: degraded plan chose {chosen:?}");
            };
            assert!(reason.starts_with("degraded"), "{src}: {reason}");
        }
    }

    #[test]
    fn report_star_size() {
        let (q, _) = parse_program("ans(X1, X2) :- r(Y, X1), r(Y, X2).").unwrap();
        let r = WidthReport::analyze(&q.unwrap(), 3);
        assert!(r.acyclic);
        assert_eq!(r.star_size, 2);
        assert_eq!(r.sharp_width, Some(2)); // frontier {X1,X2} needs 2 atoms
    }
}
