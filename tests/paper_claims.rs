//! End-to-end checks of the paper's headline claims, on the paper's own
//! instance families (integration across all crates).

use cqcount::core::planner::WIDTH_CAP;
use cqcount::prelude::*;
use cqcount::workloads::paper::*;
use cqcount::workloads::random::{random_database, random_query, RandomCqConfig, RandomDbConfig};

/// Theorem 3.7 steps 1–3 under `plan`: its views over the completed tree,
/// the full reducer, then the projection onto `free(Q')` of every view,
/// as the hybrid search's degree reads them.
fn free_projected(plan: &BagPlan, db: &Database) -> Vec<Bindings> {
    let free: Vec<u32> = plan.query().free().iter().map(|v| v.node()).collect();
    let views = plan.reduced_views(db).views;
    views.iter().map(|v| v.project(&free)).collect()
}

/// Every candidate `S̄` of Theorem 6.7's search on the Q0 heads that fall
/// back past the width cap reads the same views, and so the same degree,
/// from the count's projecting view builder as from the textbook views;
/// the search then picks the same `(S̄, width, bound)`, and the count
/// reports the same `hybrid(width, bound)` plan. The first 5 of the 51
/// heads (all of them under `exhaustive-tests`).
#[test]
fn q0_fallback_hybrid_degrees_match_the_textbook_views() {
    use cqcount::core::planner::DEGREE_CAP;
    use std::collections::BTreeSet;
    const BODY: &str = "mw(A, B, I), wt(B, D), wi(B, E), pt(C, D), \
                        st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H)";
    const VARS: [&str; 9] = ["A", "B", "C", "D", "E", "F", "G", "H", "I"];
    const CHECKED: usize = if cfg!(feature = "exhaustive-tests") {
        51
    } else {
        5
    };
    let db = parse_database(include_str!("../crates/server/fixtures/example11.cq")).unwrap();
    let mut checked = 0;
    for mask in 1u32..1 << VARS.len() {
        if checked == CHECKED {
            break;
        }
        let head: Vec<&str> = (0..VARS.len())
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| VARS[i])
            .collect();
        let q = parse_query(&format!("ans({}) :- {BODY}.", head.join(", "))).unwrap();
        let plan = prepare_plan(&q, WIDTH_CAP);
        if plan.sharp.is_some() {
            continue;
        }
        checked += 1;
        // Theorem 6.7's search over the textbook views, in
        // `hybrid_decomposition`'s order and with its tie-break.
        let free_cols: Vec<u32> = q.free().iter().map(|v| v.node()).collect();
        let existential: Vec<Var> = q.existential().into_iter().collect();
        let mut best: Option<(BTreeSet<Var>, usize, usize)> = None;
        for sub in 0u32..1 << existential.len() {
            let mut sbar: BTreeSet<Var> = q.free();
            sbar.extend(
                (0..existential.len())
                    .filter(|i| sub >> i & 1 == 1)
                    .map(|i| existential[i]),
            );
            let qs = q.requantify(sbar.iter().copied());
            let Some((_, sd)) = WidthSearch::new(&qs).find_up_to(WIDTH_CAP) else {
                continue;
            };
            let textbook = free_projected(&BagPlan::textbook(&sd.qprime, &sd.hypertree), &db);
            let counted = free_projected(&BagPlan::count(&sd.qprime, &sd.hypertree), &db);
            assert_eq!(counted, textbook, "head {head:?}, S̄ {sbar:?}");
            let bound = textbook
                .iter()
                .map(|v| v.degree_wrt(&free_cols))
                .max()
                .unwrap_or(0);
            if bound <= DEGREE_CAP && best.as_ref().is_none_or(|b| bound < b.2) {
                best = Some((sbar, sd.width, bound));
                if bound <= 1 {
                    break;
                }
            }
        }
        let (sbar, width, bound) = best.expect("every Q0 fallback head has a hybrid plan");
        let hd = hybrid_decomposition(&q, &db, WIDTH_CAP, DEGREE_CAP).unwrap();
        assert_eq!(
            (&hd.sbar, hd.sharp.width, hd.bound),
            (&sbar, width, bound),
            "head {head:?}"
        );
        let (n, chosen) = count_prepared(&q, &db, &plan, &Budget::unlimited()).unwrap();
        assert_eq!(n, count_brute_force(&q, &db), "head {head:?}");
        let Plan::Hybrid {
            width: w, bound: b, ..
        } = chosen
        else {
            panic!("head {head:?} left the hybrid rung: {chosen:?}");
        };
        assert_eq!(
            (w, b),
            (width, bound),
            "head {head:?}: hybrid(width, bound)"
        );
    }
    assert_eq!(checked, CHECKED, "Q0 fallback heads checked");
}

/// Definition 1.2 / Figure 3: Q0 has #-hypertree width exactly 2.
#[test]
fn q0_width_claims() {
    let q = q0_query();
    let report = WidthReport::analyze(&q, 4);
    assert!(!report.acyclic);
    assert_eq!(report.ghw, Some(2));
    assert_eq!(report.sharp_width, Some(2));
}

/// Example 4.1 / Figure 8: Q1 (the 4-cycle) has #-hypertree width 2,
/// witnessed by a decomposition covering the frontier edge {A, C}.
#[test]
fn q1_cycle_width() {
    let q = q1_cycle_query();
    assert_eq!(sharp_hypertree_width(&q, 4), Some(2));
}

/// Theorem A.3 separation (Example A.2): the chain family has unbounded
/// quantified star size but #-hypertree width 1; the Durand–Mengel width
/// grows while the paper's stays constant.
#[test]
fn chain_family_separation() {
    for n in 2..=5 {
        let q = chain_query(n);
        assert_eq!(quantified_star_size(&q), n.div_ceil(2), "star size, n={n}");
        assert_eq!(sharp_hypertree_width(&q, 2), Some(1), "#-htw, n={n}");
        let (dm_w, _) =
            cqcount::core::durand_mengel::durand_mengel_width(&q, 8).expect("DM width exists");
        assert!(dm_w >= n.div_ceil(2), "DM width must grow, n={n}");
    }
}

/// Appendix A (Q2ⁿ): unbounded generalized hypertree width, #-htw 1.
#[test]
fn biclique_family_separation() {
    for n in 2..=3 {
        let q = biclique_query(n);
        let resources: Vec<NodeSet> = q
            .atoms()
            .iter()
            .map(|a| a.vars().iter().map(|v| v.node()).collect())
            .collect();
        let (w, _) = ghw_exact(&q.hypergraph(), &resources, n).expect("ghw = n");
        assert_eq!(w, n, "ghw of K_{{{n},{n}}}");
        assert_eq!(sharp_hypertree_width(&q, 1), Some(1));
    }
}

/// Example C.1: the star family is acyclic yet has #-hypertree width h+1 —
/// the frontier of the existential variables spans all free variables.
#[test]
fn star_family_width_h_plus_1() {
    for h in 1..=3 {
        let q = star_query(h);
        assert!(is_acyclic(&q.hypergraph()), "Q2^{h} is acyclic");
        assert_eq!(sharp_hypertree_width(&q, h + 2), Some(h + 1), "h = {h}");
    }
}

/// Theorem 6.2 / Example C.2: on the star instance the counting works and
/// matches the closed form 2^h; the degree bound of the width-1
/// decomposition is the full 2^h, dropping to 1 when r and s share a bag.
#[test]
fn star_counting_and_degree() {
    for h in 1..=3 {
        let q = star_query(h);
        let db = star_database(h);
        assert_eq!(count_auto(&q, &db), star_expected_count(h).into());
        assert_eq!(count_brute_force(&q, &db), star_expected_count(h).into());
    }
}

/// Example 6.3/6.5: the hybrid family — width-2 #₁-hypertree decomposition
/// exists with the Y's promoted, and hybrid counting is exact.
#[test]
fn hybrid_family_counts() {
    for h in 1..=3 {
        let q = hybrid_query(h);
        let db = hybrid_database(h);
        let (n, hd) = count_hybrid(&q, &db, 2, usize::MAX).expect("hybrid width 2");
        assert_eq!(n, hybrid_expected_count(h).into(), "h = {h}");
        assert_eq!(hd.bound, 1, "keys give degree 1 at h = {h}");
        assert_eq!(hd.sharp.width, 2);
        // For h ≥ 2 the frontier clique exceeds width 2, so the promoted
        // set must strictly extend the free variables (at h = 1 the purely
        // structural width-2 decomposition already suffices).
        if h >= 2 {
            assert!(hd.sbar.len() > q.free().len(), "h = {h}");
        }
    }
}

/// Example 6.3's negative side: the family's #-hypertree width grows
/// (h + 1), so no fixed width suffices structurally.
#[test]
fn hybrid_family_needs_growing_structural_width() {
    for h in 1..=3usize {
        let q = hybrid_query(h);
        assert!(
            sharp_hypertree_width(&q, h).is_none(),
            "width {h} must not suffice at h = {h}"
        );
        assert_eq!(sharp_hypertree_width(&q, h + 1), Some(h + 1));
    }
}

/// The planner agrees with brute force across random instances (wider than
/// the per-crate proptests: uses the workloads generators).
#[test]
fn planner_agreement_sweep() {
    for seed in 0..30 {
        let q = random_query(
            &RandomCqConfig {
                atoms: 4,
                vars: 5,
                max_arity: 3,
                rels: 3,
                free_prob: 0.4,
            },
            seed,
        );
        let db = random_database(
            &q,
            &RandomDbConfig {
                domain: 4,
                tuples_per_rel: 8,
            },
            seed.wrapping_mul(31),
        );
        assert_eq!(
            count_auto(&q, &db),
            count_brute_force(&q, &db),
            "seed {seed}"
        );
    }
}

/// Every head of Q0 over the paper's Example 1.1 instance goes through the
/// one planner entry — `prepare_plan` then `count_prepared`, the pair
/// `count_auto` runs — and must agree with brute force. All 460 heads with
/// a `#`-hypertree decomposition within the width cap are counted, plus
/// the first 4 of the 51 that fall back to the hybrid/enumeration rungs
/// (all of them under `exhaustive-tests`).
#[test]
fn q0_head_sweep_through_the_one_entry() {
    const BODY: &str = "mw(A, B, I), wt(B, D), wi(B, E), pt(C, D), \
                        st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H)";
    const VARS: [&str; 9] = ["A", "B", "C", "D", "E", "F", "G", "H", "I"];
    const FALLBACKS_CHECKED: usize = if cfg!(feature = "exhaustive-tests") {
        usize::MAX
    } else {
        4
    };
    let db = parse_database(include_str!("../crates/server/fixtures/example11.cq")).unwrap();
    let (mut sharp, mut fallback) = (0usize, 0usize);
    for mask in 1u32..1 << VARS.len() {
        let head: Vec<&str> = (0..VARS.len())
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| VARS[i])
            .collect();
        let q = parse_query(&format!("ans({}) :- {BODY}.", head.join(", "))).unwrap();
        let plan = prepare_plan(&q, WIDTH_CAP);
        match &plan.sharp {
            Some(_) => sharp += 1,
            None => {
                fallback += 1;
                if fallback > FALLBACKS_CHECKED {
                    continue;
                }
            }
        }
        let (n, chosen) = count_prepared(&q, &db, &plan, &Budget::unlimited()).unwrap();
        assert_eq!(n, count_brute_force(&q, &db), "head {head:?}");
        if let Some(sd) = &plan.sharp {
            assert_eq!(
                chosen,
                Plan::SharpPipeline { width: sd.width },
                "head {head:?}"
            );
        }
    }
    assert_eq!(
        (sharp, fallback),
        (460, 51),
        "heads planned within / beyond the cap"
    );
}
