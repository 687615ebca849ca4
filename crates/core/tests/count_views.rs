//! The count's bag views against the textbook ones. `BagPlan::count` drops
//! every bag-local existential column while it scans and joins, and
//! semijoins one-atom ears into a bag's λ-scans before the join; after the
//! full reducer and the projection onto the free variables, every view
//! must be the very set that the textbook `r_p = π_χ(p)(⋈ λ(p))` gives
//! (`BagPlan::textbook` → `full_reduce` → project). The bags are built
//! children-first with the reducer's upward sweep fused into each bag's
//! last step, so `reduced_views` runs only the downward sweep: its views
//! must equal `full_reduce` over the unfiltered `views`, vertex by vertex.
//! These tests hold both to that on chain, cyclic, Q0, constant,
//! repeated-variable, nullary, empty and cross-product shapes, heap-backed
//! and loaded from a store image, at one and two lanes, and hold every
//! count to brute force on a small instance and to the full join on one
//! whose bags cross the parallel gate.

use cqcount_arith::prng::Rng;
use cqcount_arith::Natural;
use cqcount_core::acyclic::count_over_tree;
use cqcount_core::prelude::*;
use cqcount_exec::with_threads;
use cqcount_query::{parse_database, parse_query, ConjunctiveQuery};
use cqcount_relational::consistency::full_reduce;
use cqcount_relational::store::{encode_store, open_store};
use cqcount_relational::{Bindings, Database};
use cqcount_workloads::intro::{intro_instance, IntroScale};
use std::fmt::Write;

/// The free variables of `q`, as columns.
fn free_cols(q: &ConjunctiveQuery) -> Vec<u32> {
    q.free().iter().map(|v| v.node()).collect()
}

/// `plan`'s unfiltered views reduced by the two-sweep full reducer.
fn full_reduced(plan: &BagPlan, db: &Database) -> Vec<Bindings> {
    let mut views = plan.views(db).views;
    full_reduce(&mut views, &plan.tree.parent, &plan.tree.order);
    views
}

/// Steps 1–3 the textbook way, over the same completed tree.
fn textbook_free_views(sd: &SharpDecomposition, db: &Database) -> Vec<Bindings> {
    let views = full_reduced(&BagPlan::textbook(&sd.qprime, &sd.hypertree), db);
    let free = free_cols(&sd.qprime);
    views.iter().map(|v| v.project(&free)).collect()
}

/// The same facts loaded back from a store image.
fn stored(db: &Database, tag: &str) -> Database {
    let path = std::env::temp_dir().join(format!(
        "cqcount-count-views-{tag}-{}.store",
        std::process::id()
    ));
    std::fs::write(&path, encode_store(db, 1, 0)).unwrap();
    let loaded = open_store(&path).expect("open store image").db;
    let _ = std::fs::remove_file(&path);
    loaded
}

/// What one query's count built, for the callers that check more.
struct Built {
    cols_dropped: usize,
    ear_rows_dropped: usize,
}

/// The instances of one shape: a small one, counted against brute force,
/// and a large one whose bags cross the parallel gate, counted against the
/// full join; each heap-backed and loaded from its store image.
struct Instances {
    small: (Database, Database),
    large: (Database, Database),
}

impl Instances {
    fn new(tag: &str, build: impl Fn(bool) -> Database) -> Instances {
        let (small, large) = (build(false), build(true));
        Instances {
            small: (stored(&small, &format!("{tag}-small")), small),
            large: (stored(&large, &format!("{tag}-large")), large),
        }
    }
}

/// Checks `src` on both instances, heap-backed and store-loaded, at one and
/// two lanes: the count's reduced views equal the full reducer over its
/// unfiltered ones, its free views equal the textbook ones, and the count
/// equals the oracle. Returns what the large heap-backed count built.
fn check(src: &str, inst: &Instances) -> Built {
    let q: ConjunctiveQuery = parse_query(src).unwrap();
    let (_, sd) = WidthSearch::new(&q).find_up_to(4).expect("width ≤ 4");
    let small = check_on(src, &sd, &inst.small, count_brute_force(&q, &inst.small.1));
    let large = check_on(
        src,
        &sd,
        &inst.large,
        count_via_full_join(&q, &inst.large.1),
    );
    assert_eq!(
        small.cols_dropped, large.cols_dropped,
        "{src}: the columns dropped depend on the query alone"
    );
    large
}

fn check_on(
    src: &str,
    sd: &SharpDecomposition,
    (store, heap): &(Database, Database),
    expected: Natural,
) -> Built {
    let mut built = None;
    for (backing, db) in [("heap", heap), ("store", store)] {
        for threads in [1, 2] {
            let at = format!("{src} on {backing} at {threads} lanes");
            let plan = BagPlan::count(&sd.qprime, &sd.hypertree);
            let (reduced, full, free, textbook, n) = with_threads(threads, || {
                (
                    plan.reduced_views(db),
                    full_reduced(&plan, db),
                    plan.free_views(db),
                    textbook_free_views(sd, db),
                    count_with_decomposition(&sd.qprime, db, &sd.hypertree),
                )
            });
            assert_eq!(reduced.views, full, "{at}: fused against two sweeps");
            if sd.qprime.existential().is_empty() {
                // A full query counts over the views of the fused build.
                let upward = with_threads(threads, || plan.upward_views(db)).views;
                let tree = &plan.tree;
                let m = if upward.iter().any(Bindings::is_empty) {
                    Natural::ZERO
                } else {
                    count_over_tree(&upward, &tree.parent, &tree.children, &tree.order)
                };
                assert_eq!(m, expected, "{at}: count over the filtered views");
            }
            let projected: Vec<Bindings> = reduced
                .views
                .iter()
                .map(|v| v.project(&free_cols(&sd.qprime)))
                .collect();
            assert_eq!(projected, textbook, "{at}: views");
            if textbook.iter().any(Bindings::is_empty) {
                // An empty answer: the views come back unprojected.
                assert!(free.views.iter().any(Bindings::is_empty), "{at}: empty");
                assert!(expected.is_zero(), "{at}: an empty view, yet answers");
            } else {
                assert_eq!(free.views, textbook, "{at}: free views");
            }
            assert_eq!(n, expected, "{at}: count");
            built.get_or_insert(Built {
                cols_dropped: plan.cols_dropped,
                ear_rows_dropped: free.ear_rows_dropped,
            });
        }
    }
    built.unwrap()
}

/// `n` random facts `rel(v{x}, v{y})` over the given domains.
fn pairs(text: &mut String, rng: &mut Rng, rel: &str, n: usize, domains: (u32, u32)) {
    for _ in 0..n {
        let (x, y) = (rng.range_u32(0, domains.0), rng.range_u32(0, domains.1));
        let _ = writeln!(text, "{rel}(v{x}, v{y}).");
    }
}

/// The chain `r(A,B), s(B,C), t(C)` with `t` on half the `C` values; the
/// large one crosses the bag build's parallel gate.
fn chain(seed: u64, large: bool) -> Database {
    let (n, a, bc) = if large {
        (2500, 1000, 500)
    } else {
        (50, 24, 12)
    };
    let mut rng = Rng::seed_from_u64(seed);
    let mut text = String::new();
    pairs(&mut text, &mut rng, "r", n, (a, bc));
    pairs(&mut text, &mut rng, "s", n, (bc, bc));
    for c in (0..bc).step_by(2) {
        let _ = writeln!(text, "t(v{c}).");
    }
    text.push_str("flag(). r(v3, v3). s(v3, v3).\n");
    parse_database(&text).unwrap()
}

#[test]
fn chain_heads_keep_the_textbook_views() {
    let chains = Instances::new("chain", |large| chain(0xC0, large));
    for head in ["A, B, C", "A", "B", "C"] {
        check(&format!("ans({head}) :- r(A, B), s(B, C), t(C)."), &chains);
    }
    // The ear-bearing head: B lives in the {r, s} bag alone, and t(C)
    // is a one-atom neighbour inside s(B, C).
    let built = check("ans(A, C) :- r(A, B), s(B, C), t(C).", &chains);
    assert!(built.cols_dropped >= 1, "ans(A, C) must drop B");
    assert!(
        built.ear_rows_dropped > 0,
        "t(C) must be absorbed into the s-scan"
    );
    // Constants, repeated variables, nullary atoms, a missing relation.
    for src in [
        "ans(A) :- r(A, B), s(B, v4), t(v4).",
        "ans(A, C) :- r(A, B), s(B, C), t(C), flag().",
        "ans(A) :- r(A, A), s(A, C), t(C).",
        "ans(A, C) :- r(A, B), s(B, B), s(B, C).",
        "ans(A, C) :- r(A, B), s(B, C), t(C), missing().",
        "ans(A, C) :- r(A, B), s(B, C), none(C).",
        "ans() :- r(A, B), s(B, C), t(C).",
    ] {
        check(src, &chains);
    }
}

#[test]
fn cyclic_heads_keep_the_textbook_views() {
    let graphs = Instances::new("graph", |large| {
        let (edges, nodes) = if large { (1400, 200) } else { (60, 12) };
        let mut rng = Rng::seed_from_u64(0x3C);
        let mut text = String::new();
        pairs(&mut text, &mut rng, "e", edges, (nodes, nodes));
        parse_database(&text).unwrap()
    });
    for src in [
        "ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).",
        "ans(X) :- e(X, Y), e(Y, Z), e(Z, X).",
        "ans(X, Y) :- e(X, Y), e(Y, Z), e(Z, W), e(W, X).",
        "ans(X, Z) :- e(X, Y), e(Y, Z), e(Z, W), e(W, X).",
        "ans(X) :- e(X, Y), e(Y, Z), e(Z, X), e(X, X).",
    ] {
        check(src, &graphs);
    }
}

#[test]
fn cross_product_bags_keep_the_textbook_views() {
    // {B, D} is one existential component with frontier {A, C}: a bag
    // must hold A, B, C, D, and r and s cover it sharing no variable.
    let cross = Instances::new("cross", |large| {
        let (n, d) = if large { (1500, 60) } else { (40, 10) };
        let mut rng = Rng::seed_from_u64(0xC9);
        let mut text = String::new();
        for rel in ["r", "s", "m"] {
            pairs(&mut text, &mut rng, rel, n, (d, d));
        }
        parse_database(&text).unwrap()
    });
    for src in [
        "ans(A, C) :- r(A, B), s(D, C), m(B, D).",
        "ans(A) :- r(A, B), s(D, C), m(B, D).",
        "ans(A, C) :- r(A, B), s(D, C).",
    ] {
        check(src, &cross);
    }
}

#[test]
fn q0_heads_keep_the_textbook_views() {
    const BODY: &str = "mw(A, B, I), wt(B, D), wi(B, E), pt(C, D), \
                        st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H)";
    const VARS: [&str; 9] = ["A", "B", "C", "D", "E", "F", "G", "H", "I"];
    // Every 16th head (all 511 under `exhaustive-tests`).
    let step = if cfg!(feature = "exhaustive-tests") {
        1
    } else {
        16
    };
    // The large side is the introduction's scenario at a size whose full
    // join stays cheap; it does not reach the parallel gate.
    let q0 = Instances::new("q0", |large| {
        if !large {
            return parse_database(include_str!("../../server/fixtures/example11.cq")).unwrap();
        }
        let scale = IntroScale {
            workers: 10,
            machines: 5,
            projects: 4,
            tasks: 8,
            subtasks_per_task: 2,
            resources: 4,
        };
        intro_instance(&scale, 7).1
    });
    let mut checked = 0;
    for mask in (1u32..1 << VARS.len()).step_by(step) {
        let head: Vec<&str> = (0..VARS.len())
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| VARS[i])
            .collect();
        let src = format!("ans({}) :- {BODY}.", head.join(", "));
        let q = parse_query(&src).unwrap();
        if WidthSearch::new(&q).find_up_to(4).is_none() {
            continue;
        }
        check(&src, &q0);
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} Q0 heads checked");
}

#[test]
fn full_queries_keep_every_column() {
    let chains = Instances::new("full", |large| chain(0xF0, large));
    let src = "ans(A, B, C) :- r(A, B), s(B, C), t(C).";
    let built = check(src, &chains);
    assert_eq!(built.cols_dropped, 0, "a full query drops nothing");
    let n = count_via_full_join(&parse_query(src).unwrap(), &chains.large.1);
    assert!(!n.is_zero(), "the chain instance must have answers");
}

#[test]
fn the_triangle_root_bag_builds_no_dangling_wedge() {
    // A seeded 2 000-edge graph: the root bag {X, Y, Z} joins two λ-atoms
    // into wedges, and its child e(Z, X) closes few of them. The bag the
    // count builds must hold exactly the rows of its fully reduced view.
    let mut rng = Rng::seed_from_u64(0x7A1);
    let mut text = String::new();
    pairs(&mut text, &mut rng, "e", 2000, (150, 150));
    let db = parse_database(&text).unwrap();
    let q = parse_query("ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).").unwrap();
    let (_, sd) = WidthSearch::new(&q).find_up_to(2).expect("width 2");
    let plan = BagPlan::count(&sd.qprime, &sd.hypertree);
    let root = *plan.tree.roots.first().expect("a root");
    assert_eq!(plan.tree.lambda[root].len(), 2, "the root bag joins");
    let built = plan.upward_views(&db);
    let reduced = full_reduced(&plan, &db);
    let wedges = plan.views(&db).views[root].len();
    assert_eq!(built.views[root], reduced[root], "the root bag is reduced");
    assert!(
        !reduced[root].is_empty(),
        "the instance must have triangles"
    );
    assert!(
        wedges > 10 * reduced[root].len(),
        "{wedges} wedges against {} triangles: the instance has no dangling wedges",
        reduced[root].len()
    );
    assert!(built.filtered_rows >= wedges - reduced[root].len());
    assert_eq!(
        count_with_decomposition(&sd.qprime, &db, &sd.hypertree),
        count_via_full_join(&q, &db)
    );
}
