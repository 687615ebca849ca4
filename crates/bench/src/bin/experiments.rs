//! The experiment harness: regenerates every figure/example/claim of the
//! paper as a table (see DESIGN.md's experiment index and EXPERIMENTS.md
//! for the paper-vs-measured discussion).
//!
//! Run all: `cargo run --release -p cqcount-bench --bin experiments`
//! Run some: `cargo run --release -p cqcount-bench --bin experiments e3 e6`

use cqcount_bench::{banner, fmt_duration, print_table, timed};
use cqcount_core::prelude::*;
use cqcount_decomp::Hypertree;
use cqcount_hypergraph::NodeSet;
use cqcount_query::{quantified_star_size, ConjunctiveQuery, Var};
use cqcount_reductions::{count_fullcolor_via_oracle, simple_to_general, CountOracle};
use cqcount_relational::Database;
use cqcount_workloads::graphs::{count_cliques_direct, random_graph};
use cqcount_workloads::intro::{intro_instance, IntroScale};
use cqcount_workloads::paper::*;
use cqcount_workloads::random::{random_database, RandomDbConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |id: &str| all || args.iter().any(|a| a.eq_ignore_ascii_case(id));

    println!("# cqcount experiment harness");
    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("e6") {
        e6();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("e9") {
        e9();
    }
    if want("e10") {
        e10();
    }
    if want("e11") {
        e11();
    }
    if want("e12") {
        e12();
    }
    if want("e13") {
        e13();
    }
}

fn named_edges(q: &ConjunctiveQuery, h: &cqcount_hypergraph::Hypergraph) -> String {
    let mut parts: Vec<String> = h
        .edges()
        .iter()
        .map(|e| {
            let names: Vec<&str> = e.iter().map(|n| q.var_name(Var(n))).collect();
            format!("{{{}}}", names.join(","))
        })
        .collect();
    parts.sort();
    parts.join(" ")
}

/// E1 — Figures 1–4/7, Examples 1.1 & 3.x: Q0's frontier hypergraph, core,
/// width, and algorithm agreement on a realistic instance.
fn e1() {
    banner(
        "E1",
        "Q0: frontier hypergraph, colored core, #-htw (Figures 1-4, 7)",
    );
    let q = q0_query();
    let sd = sharp_hypertree_decomposition(&q, 2).expect("width 2");
    println!("query: {q}");
    println!("paper: frontier hyperedges {{A,B}} {{B}} {{B,C}} (Figure 1b)");
    println!(
        "ours:  frontier hyperedges {}",
        named_edges(&q, &sd.frontier)
    );
    println!("paper: core of color(Q0) drops the redundant st/rr branch (7 of 9 atoms remain)");
    println!(
        "ours:  core keeps {} of {} atoms; vars {} of {}",
        sd.qprime.atoms().len(),
        q.atoms().len(),
        sd.qprime.vars_in_atoms().len(),
        q.vars_in_atoms().len()
    );
    println!("paper: #-hypertree width of Q0 = 2 (Figure 3c)");
    println!(
        "ours:  width-1 exists: {}, width-2 exists: true (witness verified: {})",
        sharp_hypertree_decomposition(&q, 1).is_some(),
        sd.hypertree.covers_all_edges(&sd.qprime.hypergraph())
            && sd.frontier.edges().iter().all(|e| sd
                .hypertree
                .chi
                .iter()
                .any(|bag| e.is_subset(bag)))
    );
    let (q, db) = intro_instance(&IntroScale::default(), 2026);
    let mut rows = Vec::new();
    let (n_bf, t) = timed(|| count_brute_force(&q, &db));
    rows.push(vec![
        "brute force".into(),
        n_bf.to_string(),
        fmt_duration(t),
    ]);
    let (n_fj, t) = timed(|| count_via_full_join(&q, &db));
    rows.push(vec!["full join".into(), n_fj.to_string(), fmt_duration(t)]);
    let (res, t) = timed(|| count_via_sharp_decomposition(&q, &db, 2).unwrap());
    rows.push(vec![
        "#-pipeline (Thm 1.3)".into(),
        res.0.to_string(),
        fmt_duration(t),
    ]);
    let (res2, t) = timed(|| count_hybrid(&q, &db, 2, usize::MAX).unwrap());
    rows.push(vec![
        format!("hybrid (bound {})", res2.1.bound),
        res2.0.to_string(),
        fmt_duration(t),
    ]);
    println!(
        "\ncounts on the intro instance ({} tuples):",
        db.total_tuples()
    );
    print_table(&["algorithm", "count", "time"], &rows);
    assert!(n_bf == n_fj && n_bf == res.0 && n_bf == res2.0);
}

/// E2 — Example 4.1 / Figure 8: the 4-cycle Q1.
fn e2() {
    banner(
        "E2",
        "Q1 (4-cycle): frontier {A,C}, #-htw = 2 (Example 4.1, Figure 8)",
    );
    let q = q1_cycle_query();
    let sd = sharp_hypertree_decomposition(&q, 2).expect("width 2");
    println!("query: {q}");
    println!("paper: FH(Q1, {{A,C}}) contains the hyperedge {{A,C}}; #-htw = 2");
    println!("ours:  frontier edges {}", named_edges(&q, &sd.frontier));
    println!(
        "ours:  width-1: {}, width-2: true",
        sharp_hypertree_decomposition(&q, 1).is_some()
    );
    // counts on a random cycle instance
    let mut db = Database::new();
    let mut rng = cqcount_arith::prng::Rng::seed_from_u64(7);
    for rel in ["s1", "s2", "s3", "s4"] {
        for _ in 0..40 {
            let u = rng.range_u32(0, 12);
            let v = rng.range_u32(0, 12);
            let uu = db.value(&format!("v{u}"));
            let vv = db.value(&format!("v{v}"));
            db.add_tuple(rel, vec![uu, vv]);
        }
    }
    let brute = count_brute_force(&q, &db);
    let (n, _) = count_via_sharp_decomposition(&q, &db, 2).unwrap();
    println!("counts agree on a random instance: {n} (= brute {brute})");
    assert_eq!(n, brute);
}

/// E3 — Example A.2 / Figure 11 / Theorem A.3: chain family — star size
/// grows, Durand–Mengel width grows, #-htw stays 1; timing comparison.
fn e3() {
    banner(
        "E3",
        "Chain family Q1^n: Durand–Mengel vs #-hypertree (Example A.2, Figure 11)",
    );
    println!("paper: star size ⌈n/2⌉ (unbounded), #-htw = 1; DM width ≥ star size\n");
    let g = random_graph(14, 0.35, 5);
    let mut db = Database::new();
    for &(u, v) in &g.edges {
        let uu = db.value(&format!("n{u}"));
        let vv = db.value(&format!("n{v}"));
        db.add_tuple("r", vec![uu, vv]);
        db.add_tuple("r", vec![vv, uu]);
    }
    let mut rows = Vec::new();
    for n in 2..=5usize {
        let q = chain_query(n);
        let star = quantified_star_size(&q);
        let sharp_w = sharp_hypertree_width(&q, 2).unwrap();
        let (dm_w, _) = durand_mengel_width(&q, 8).unwrap();
        let (dm_n, t_dm) = timed(|| count_durand_mengel(&q, &db, 8).unwrap());
        let ((sn, _), t_sharp) = timed(|| count_via_sharp_decomposition(&q, &db, 2).unwrap());
        assert_eq!(dm_n, sn);
        rows.push(vec![
            n.to_string(),
            star.to_string(),
            dm_w.to_string(),
            sharp_w.to_string(),
            fmt_duration(t_dm),
            fmt_duration(t_sharp),
            sn.to_string(),
        ]);
    }
    print_table(
        &[
            "n",
            "star size",
            "DM width",
            "#-htw",
            "t(DM)",
            "t(#-pipeline)",
            "count",
        ],
        &rows,
    );
}

/// E4 — Appendix A: bicliques Q2^n — ghw = n, #-htw = 1.
fn e4() {
    banner(
        "E4",
        "Biclique family Q2^n: ghw = n, #-htw = 1 (Appendix A)",
    );
    let mut rows = Vec::new();
    for n in 1..=3usize {
        let q = biclique_query(n);
        let resources: Vec<NodeSet> = q
            .atoms()
            .iter()
            .map(|a| a.vars().iter().map(|v| v.node()).collect())
            .collect();
        let (ghw, _) = cqcount_decomp::ghw_exact(&q.hypergraph(), &resources, n).unwrap();
        let sharp = sharp_hypertree_width(&q, 1).unwrap();
        rows.push(vec![n.to_string(), ghw.to_string(), sharp.to_string()]);
    }
    print_table(&["n", "ghw (paper: n)", "#-htw (paper: 1)"], &rows);
}

/// Width-1 hypertree decomposition HD2 of the star query (Figure 12c) and
/// the merged HD2' of Example C.2.
fn star_decompositions(h: usize) -> (Hypertree, Hypertree) {
    let q = star_query(h);
    let atom_sets: Vec<NodeSet> = q
        .atoms()
        .iter()
        .map(|a| a.vars().iter().map(|v| v.node()).collect())
        .collect();
    // HD2: root r (atom 0), children: s (atom 1) and each w_i (atoms 2..).
    let mut chi = vec![atom_sets[0].clone(), atom_sets[1].clone()];
    let mut lambda = vec![vec![0usize], vec![1]];
    let mut parent = vec![None, Some(0)];
    for i in 0..h {
        chi.push(atom_sets[2 + i].clone());
        lambda.push(vec![2 + i]);
        parent.push(Some(0));
    }
    let hd2 = Hypertree::from_parts(chi, lambda, parent);
    // HD2': r and s merged into one width-2 root.
    let mut chi = vec![atom_sets[0].union(&atom_sets[1])];
    let mut lambda = vec![vec![0usize, 1]];
    let mut parent = vec![None];
    for i in 0..h {
        chi.push(atom_sets[2 + i].clone());
        lambda.push(vec![2 + i]);
        parent.push(Some(0));
    }
    let hd2p = Hypertree::from_parts(chi, lambda, parent);
    (hd2, hd2p)
}

/// E5 — Example C.1/C.2, Figures 12-13, Theorem 6.2: the degree bound
/// drives the Pichler–Skritek cost, not the database size.
fn e5() {
    banner(
        "E5",
        "Star family: bound(D, HD) drives the #-relation cost (Theorem 6.2, Figures 12-13)",
    );
    println!("paper: bound(D2, HD2) = m = 2^h for the width-1 decomposition;");
    println!("       merging r and s (HD2') drops it to 1 (Example C.2)\n");
    let mut rows = Vec::new();
    for h in 1..=7usize {
        let q = star_query(h);
        let db = star_database(h);
        let (hd2, hd2p) = star_decompositions(h);
        let b1 = degree_bound(&q, &db, &hd2);
        let b2 = degree_bound(&q, &db, &hd2p);
        let (n1, t1) = timed(|| count_pichler_skritek(&q, &db, &hd2));
        let (n2, t2) = timed(|| count_pichler_skritek(&q, &db, &hd2p));
        assert_eq!(n1, n2);
        assert_eq!(n1, star_expected_count(h).into());
        rows.push(vec![
            h.to_string(),
            (1u64 << h).to_string(),
            b1.to_string(),
            b2.to_string(),
            fmt_duration(t1),
            fmt_duration(t2),
            n1.to_string(),
        ]);
    }
    print_table(
        &[
            "h",
            "m",
            "bound(HD2)",
            "bound(HD2')",
            "t(PS, HD2)",
            "t(PS, HD2')",
            "count",
        ],
        &rows,
    );
}

/// E6 — Example 6.3/6.5, Theorems 6.6/6.7: hybrid decompositions beat both
/// the structural method (width grows) and enumeration.
fn e6() {
    banner(
        "E6",
        "Hybrid family Q̄2^h: #_1-width 2 despite unbounded #-htw (Example 6.3/6.5)",
    );
    println!("paper: #-htw = h+1 (frontier = clique on the free variables);");
    println!("       a width-2 #_1-decomposition exists with S̄ = free ∪ {{Y·}}\n");
    println!("structural width grows with h:");
    let mut rows = Vec::new();
    for h in 1..=4usize {
        let q = hybrid_query(h);
        let sharp_w = sharp_hypertree_width(&q, h + 1).unwrap();
        let db = hybrid_database(h);
        let hd = hybrid_decomposition(&q, &db, 2, usize::MAX).expect("hybrid width 2");
        rows.push(vec![
            h.to_string(),
            sharp_w.to_string(),
            format!("2 (bound {})", hd.bound),
        ]);
    }
    print_table(
        &[
            "h",
            "#-htw (paper: h+1)",
            "hybrid width (paper: 2, bound 1)",
        ],
        &rows,
    );

    // Data scaling at fixed h: the query is fixed, so the decomposition
    // search is a one-time cost; compare per-instance counting.
    let h = 3;
    let q = hybrid_query(h);
    println!("\ndata scaling at fixed h = {h} (search amortized once per query class):");
    let db0 = hybrid_database(h);
    let (hd, t_search) = timed(|| hybrid_decomposition(&q, &db0, 2, usize::MAX).expect("hybrid"));
    let (_, t_guided) = timed(|| {
        cqcount_core::hybrid::hybrid_decomposition_guided(&q, &db0, 2, usize::MAX)
            .expect("guided hybrid")
    });
    println!(
        "one-time decomposition search: {} exhaustive (Thm 6.7), {} key-guided (Ex. 1.5)\n",
        fmt_duration(t_search),
        fmt_duration(t_guided)
    );
    let mut rows = Vec::new();
    for z_count in [8usize, 32, 128, 512, 2048] {
        let db = hybrid_database_scaled(h, z_count);
        let (n_hy, t_hy) = timed(|| cqcount_core::hybrid::count_hybrid_with(&q, &db, &hd));
        let (n_bf, t_bf) = timed(|| count_brute_force(&q, &db));
        assert_eq!(n_hy, n_bf);
        assert_eq!(n_hy, hybrid_expected_count(h).into());
        rows.push(vec![
            db.total_tuples().to_string(),
            fmt_duration(t_hy),
            fmt_duration(t_bf),
            n_hy.to_string(),
        ]);
    }
    print_table(&["|D|", "t(hybrid count)", "t(brute)", "count"], &rows);
}

/// E7 — Section 5: the #Clique → #CQ reduction in action.
fn e7() {
    banner(
        "E7",
        "#Clique via #CQ (Theorem 1.6 hardness direction, Section 5)",
    );
    let g = random_graph(14, 0.5, 2026);
    println!("G(14, 0.5): {} edges\n", g.edges.len());
    let mut rows = Vec::new();
    for k in 2..=5usize {
        let (direct, t_d) = timed(|| count_cliques_direct(&g, k));
        let (via, t_r) =
            timed(|| cqcount_reductions::count_cliques_via_cq_with(&g, k, count_brute_force));
        assert_eq!(direct, via);
        let q = cqcount_workloads::graphs::clique_query(k);
        let w = WidthReport::analyze(&q, 4);
        rows.push(vec![
            k.to_string(),
            direct.to_string(),
            via.to_string(),
            fmt_duration(t_d),
            fmt_duration(t_r),
            w.sharp_width.map_or("> 4".into(), |x| x.to_string()),
        ]);
    }
    print_table(
        &[
            "k",
            "#cliques",
            "via #CQ",
            "t(direct)",
            "t(reduction)",
            "#-htw of clique query",
        ],
        &rows,
    );
}

/// E8 — Lemma 5.10 (+ Claim 5.16): the counting slice reduction executed.
fn e8() {
    banner(
        "E8",
        "Lemma 5.10 executable: fullcolor counts from a count(Q,·) oracle",
    );
    let cases = [
        "ans(X) :- r(X, Y).",
        "ans(X, Z) :- r(X, Y), r(Y, Z).",
        "ans(X1, X2) :- r(X1, Y), r(X2, Y).",
        "ans(X) :- r(X, Y), r(Y, Z), r(Z, X).",
    ];
    let mut rows = Vec::new();
    for src in cases {
        let q = cqcount_query::parse_query(src).unwrap();
        let qs = q.to_simple();
        let b = random_database(
            &qs,
            &RandomDbConfig {
                domain: 3,
                tuples_per_rel: 6,
            },
            11,
        );
        let (_, bhat) = simple_to_general(&q, &qs, &b).expect("aligned by construction");
        let direct = count_brute_force(&qs, &b);
        let mut oracle = CountOracle::new(count_brute_force);
        let (via, t) = timed(|| count_fullcolor_via_oracle(&q, &bhat, &mut oracle));
        assert_eq!(via, direct);
        rows.push(vec![
            src.into(),
            direct.to_string(),
            via.to_string(),
            oracle.stats().calls.to_string(),
            fmt_duration(t),
        ]);
    }
    print_table(
        &[
            "query Q̂ (counting simple(Q̂))",
            "direct",
            "via oracle",
            "oracle calls",
            "time",
        ],
        &rows,
    );
}

/// E9 — Lemma 4.3 and Theorem C.5: polynomial cores and D-optimal
/// decompositions.
fn e9() {
    banner(
        "E9",
        "Poly-time cores (Lemma 4.3) and D-optimal decompositions (Thm C.5)",
    );
    println!("cores of color(Q) for the chain family — exact vs local-consistency:\n");
    let mut rows = Vec::new();
    for n in 2..=5usize {
        let q = cqcount_query::color(&chain_query(n));
        let (exact, t_e) = timed(|| cqcount_query::core_exact(&q));
        let (lemma, t_c) = timed(|| cqcount_query::core_via_consistency(&q, 2));
        assert_eq!(exact.atoms().len(), lemma.atoms().len());
        rows.push(vec![
            n.to_string(),
            q.atoms().len().to_string(),
            exact.atoms().len().to_string(),
            fmt_duration(t_e),
            fmt_duration(t_c),
        ]);
    }
    print_table(
        &["n", "atoms", "core atoms", "t(exact)", "t(Lemma 4.3)"],
        &rows,
    );

    println!("\nD-optimal decomposition on the star instance (Example C.2):");
    println!("paper: every width-1 HD has bound m; widening to width 2 reaches bound 1\n");
    let mut rows = Vec::new();
    for h in 1..=4usize {
        let q = star_query(h);
        let db = star_database(h);
        let (hd2, _) = star_decompositions(h);
        let fixed = degree_bound(&q, &db, &hd2);
        // Weighted search: minimize Σ (w+1)^{deg} over width-≤2 candidates.
        let free_cols: Vec<u32> = q.free().iter().map(|v| v.node()).collect();
        let atom_sets: Vec<NodeSet> = q
            .atoms()
            .iter()
            .map(|a| a.vars().iter().map(|v| v.node()).collect())
            .collect();
        let w = q.atoms().len() as u64;
        let q2 = q.clone();
        let db2 = db.clone();
        // The Theorem C.5 weight: v_D(p) = (w+1)^{deg_D(F, p)}.
        let cost = move |bag: &NodeSet, lam: &[usize]| {
            let mut acc = cqcount_relational::Bindings::unit();
            for &a in lam {
                acc = acc.join(&cqcount_query::canonical::atom_bindings(
                    &q2.atoms()[a],
                    &db2,
                ));
            }
            let view = acc.project(&bag.to_vec());
            let deg = view.degree_wrt(&free_cols) as u32;
            cqcount_arith::Natural::from(w + 1).pow(deg)
        };
        let ((opt_ht, _), t) = timed(|| {
            cqcount_decomp::d_optimal_decomposition(&q.hypergraph(), &atom_sets, 2, cost)
                .expect("decomposition exists")
        });
        let optimal = degree_bound(&q, &db, &opt_ht);
        rows.push(vec![
            h.to_string(),
            (1u64 << h).to_string(),
            fixed.to_string(),
            optimal.to_string(),
            opt_ht.width().to_string(),
            fmt_duration(t),
        ]);
    }
    print_table(
        &[
            "h",
            "m",
            "bound (width-1 HD2)",
            "bound (D-optimal)",
            "opt width",
            "t(search)",
        ],
        &rows,
    );
}

fn combos_upto(sets: &[NodeSet], k: usize) -> Vec<(NodeSet, Vec<usize>)> {
    let mut out = Vec::new();
    for (i, s) in sets.iter().enumerate() {
        out.push((s.clone(), vec![i]));
    }
    if k >= 2 {
        for i in 0..sets.len() {
            for j in i + 1..sets.len() {
                out.push((sets[i].union(&sets[j]), vec![i, j]));
            }
        }
    }
    out
}

/// E10 — the Theorem 1.3 headline: fixed bounded-#-htw query, growing data.
fn e10() {
    banner(
        "E10",
        "Headline scaling: #-pipeline vs enumeration as |D| grows (Theorem 1.3)",
    );
    let mut rows = Vec::new();
    for factor in [1usize, 2, 4, 8, 16] {
        let scale = IntroScale {
            workers: 25 * factor,
            machines: 10 * factor,
            projects: 6 * factor,
            tasks: 15 * factor,
            subtasks_per_task: 4,
            resources: 8 * factor,
        };
        let (q, db) = intro_instance(&scale, 2026);
        let ((n, _), t_pipe) = timed(|| count_via_sharp_decomposition(&q, &db, 2).unwrap());
        let (n_b, t_brute) = timed(|| count_brute_force(&q, &db));
        let (n_j, t_join) = timed(|| count_via_full_join(&q, &db));
        assert!(n == n_b && n == n_j);
        rows.push(vec![
            db.total_tuples().to_string(),
            n.to_string(),
            fmt_duration(t_pipe),
            fmt_duration(t_brute),
            fmt_duration(t_join),
        ]);
    }
    print_table(
        &[
            "|D| (tuples)",
            "count",
            "t(#-pipeline)",
            "t(brute)",
            "t(full join)",
        ],
        &rows,
    );
}

/// E11 — ablations of design choices called out in DESIGN.md: the
/// connected-λ candidate ordering in the GHW search, and hypertree
/// normalization before evaluation.
fn e11() {
    banner(
        "E11",
        "Ablations: candidate ordering and decomposition normalization",
    );
    // (a) connected-λ-first ordering vs naive ordering: both find a width-2
    // witness for Q0; the witness quality differs, which shows up in the
    // pipeline's evaluation time (bag views built from disconnected λ are
    // cross products).
    let (q, db) = intro_instance(
        &IntroScale {
            workers: 100,
            machines: 40,
            projects: 24,
            tasks: 60,
            subtasks_per_task: 4,
            resources: 32,
        },
        2026,
    );
    let sd = sharp_hypertree_decomposition(&q, 2).expect("width 2");
    let atom_sets: Vec<NodeSet> = sd
        .qprime
        .atoms()
        .iter()
        .map(|a| a.vars().iter().map(|v| v.node()).collect())
        .collect();
    // naive ordering: big bags first regardless of λ-connectivity
    let cover = {
        let hq = sd.qprime.hypergraph();
        hq.merge(&sd.frontier)
    };
    let combos = combos_upto(&atom_sets, 2);
    let naive_provider = move |conn: &NodeSet, comp: &NodeSet| {
        let allowed = conn.union(comp);
        let mut out = Vec::new();
        for (u, c) in &combos {
            let avail = u.intersection(&allowed);
            if !conn.is_subset(&avail) {
                continue;
            }
            let free: Vec<u32> = avail.difference(conn).to_vec();
            for mask in 1u32..(1 << free.len()) {
                let mut bag = conn.clone();
                for (j, &x) in free.iter().enumerate() {
                    if mask & (1 << j) != 0 {
                        bag.insert(x);
                    }
                }
                out.push((bag, c.clone()));
            }
        }
        out.sort_by_key(|(bag, _)| std::cmp::Reverse(bag.len()));
        out
    };
    let naive_ht = cqcount_decomp::decompose(&cover, naive_provider).expect("width 2 naive");
    let (n1, t_tuned) = timed(|| count_with_decomposition(&sd.qprime, &db, &sd.hypertree));
    let (n2, t_naive) = timed(|| {
        let mut qn = sd.clone();
        qn.hypertree = naive_ht.clone();
        count_with_decomposition(&sd.qprime, &db, &qn.hypertree)
    });
    assert_eq!(n1, n2);
    // (b) normalization: fewer vertices, same answer.
    let normalized = sd.hypertree.normalize();
    let (n3, t_norm) = timed(|| count_with_decomposition(&sd.qprime, &db, &normalized));
    assert_eq!(n1, n3);
    print_table(
        &["variant", "decomp vertices", "eval time", "count"],
        &[
            vec![
                "connected-λ ordering (default)".into(),
                sd.hypertree.len().to_string(),
                fmt_duration(t_tuned),
                n1.to_string(),
            ],
            vec![
                "naive size-first ordering".into(),
                naive_ht.len().to_string(),
                fmt_duration(t_naive),
                n2.to_string(),
            ],
            vec![
                "default + normalization".into(),
                normalized.len().to_string(),
                fmt_duration(t_norm),
                n3.to_string(),
            ],
        ],
    );
}

/// E12 — the extension features: answer enumeration with polynomial delay
/// (Section 1.1's companion problem) and union-of-CQ counting (the
/// follow-up line \[18,19\] in the paper's bibliography).
fn e12() {
    banner(
        "E12",
        "Extensions: polynomial-delay enumeration and union counting",
    );
    let (q, db) = intro_instance(&IntroScale::default(), 2026);
    let sd = sharp_hypertree_decomposition(&q, 2).unwrap();
    // Delay measurement: time to the first answer vs total enumeration.
    let mut first = None;
    let mut total_answers = 0u64;
    let (_, t_total) = timed(|| {
        let t0 = std::time::Instant::now();
        cqcount_core::enumerate::for_each_answer_with(&q, &db, &sd, |_| {
            if first.is_none() {
                first = Some(t0.elapsed());
            }
            total_answers += 1;
            true
        });
    });
    println!(
        "enumeration: {total_answers} answers, first after {}, all after {}",
        fmt_duration(first.unwrap_or_default()),
        fmt_duration(t_total)
    );
    let brute = count_brute_force(&q, &db);
    assert_eq!(cqcount_arith::Natural::from(total_answers), brute);
    println!("enumerated count equals brute-force count: {brute} ✓");

    // Union counting with inclusion–exclusion.
    let d1 = cqcount_query::parse_query("ans(B) :- wt(B, D), pt(C, D).").unwrap();
    let d2 = cqcount_query::parse_query("ans(B) :- mw(A, B, I).").unwrap();
    let u = cqcount_core::ucq::UnionQuery::new(vec![d1.clone(), d2.clone()]);
    let (n_union, t_union) = timed(|| cqcount_core::ucq::count_union(&u, &db));
    let c1 = count_brute_force(&d1, &db);
    let c2 = count_brute_force(&d2, &db);
    println!(
        "\nunion counting: |Q1| = {c1}, |Q2| = {c2}, |Q1 ∪ Q2| = {n_union} (in {})",
        fmt_duration(t_union)
    );
    assert!(n_union <= c1.clone() + c2.clone());
    assert!(n_union >= c1.clone().max(c2.clone()));
    println!("inclusion–exclusion bounds hold ✓");
}

/// E13 — the three classes of the trichotomy (Theorem 1.6), side by side:
/// (1) bounded #-htw (FPT/poly counting), (2) unbounded #-htw with bounded
/// frontier width (W\[1\]-equivalent — counting collapses to the decision
/// problem), (3) unbounded frontier width (#W\[1\]-hard).
fn e13() {
    banner(
        "E13",
        "The trichotomy's three classes side by side (Theorem 1.6)",
    );
    let g = random_graph(13, 0.5, 99);
    let db = g.to_database();
    println!("class 1 — chains Q1^n (bounded #-htw = 1): poly counting\n");
    let mut rows = Vec::new();
    for k in 2..=4usize {
        // class 1 representative: chain query (bounded #-htw)
        let q1 = chain_query(k);
        let w1 = sharp_hypertree_width(&q1, 2);
        // class 2 representative: BOOLEAN clique query (free = ∅): core is
        // the clique itself, frontier hypergraph is empty → bounded; #-htw
        // grows with k. Counting = deciding clique existence (0/1).
        let mut q2 = cqcount_workloads::graphs::clique_query(k);
        q2.set_free([]);
        let w2 = sharp_hypertree_width(&q2, k);
        let fh2 = cqcount_hypergraph::frontier_hypergraph(&q2.hypergraph(), &q2.free_nodes());
        // class 3 representative: free clique query: frontier hypergraph =
        // the clique itself → unbounded width; counting is #W[1]-hard.
        let q3 = cqcount_workloads::graphs::clique_query(k);
        let fh3 = cqcount_hypergraph::frontier_hypergraph(&q3.hypergraph(), &q3.free_nodes());
        let fh3_tw = cqcount_decomp::treewidth_exact(&fh3, k).map(|(w, _)| w);
        let (c2, t2) = timed(|| count_brute_force(&q2, &db));
        let (c3, t3) = timed(|| count_brute_force(&q3, &db));
        rows.push(vec![
            k.to_string(),
            format!("{w1:?}"),
            format!("{w2:?}"),
            fh2.num_edges().to_string(),
            format!("{c2} ({})", fmt_duration(t2)),
            format!("{fh3_tw:?}"),
            format!("{c3} ({})", fmt_duration(t3)),
        ]);
    }
    print_table(
        &[
            "k",
            "#-htw chain (cls 1)",
            "#-htw bool-clique (cls 2)",
            "frontier edges (cls 2)",
            "bool count (cls 2)",
            "frontier tw (cls 3)",
            "#answers (cls 3)",
        ],
        &rows,
    );
    println!(
        "\nclass 2's counts are always 0/1 (the decision problem); class 3's grow —\n\
         exactly the qualitative split the trichotomy proves."
    );
}
