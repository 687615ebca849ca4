//! Seeded input generators. Everything the daemon sees is `.cq` text made
//! here from `--seed`: the same seed gives byte-identical text, another
//! seed gives different text of the same size and shape, so run-to-run
//! spread measures the system and not the draw.

use std::fmt::Write as _;

/// xorshift64* over a splitmix-scrambled seed (a zero state would stick).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below what any
    /// generator here could notice.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A 4-character lowercase tag that makes every relation and constant
    /// name of one seed differ from every other seed's.
    pub fn tag(&mut self) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..4)
            .map(|_| ALPHABET[self.below(ALPHABET.len())] as char)
            .collect()
    }
}

/// One tuple the mutation clients insert and delete, and the full acyclic
/// query whose count the server maintains incrementally across it.
#[derive(Clone, Debug)]
pub struct Mutation {
    pub rel: String,
    pub values: Vec<String>,
    pub query: String,
}

/// What one workload feeds the daemon.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Datalog facts, one relation block after another.
    pub db_text: String,
    /// The timed `COUNT` mix, in pass order.
    pub queries: Vec<String>,
    pub mutation: Mutation,
}

/// The paper's Example 1.1 instance (16 tuples), names suffixed by `tag`.
fn example11(tag: &str) -> String {
    const FACTS: &[(&str, &[&[&str]])] = &[
        (
            "mw",
            &[
                &["m1", "w1", "10"],
                &["m2", "w1", "20"],
                &["m1", "w2", "30"],
            ],
        ),
        ("wt", &[&["w1", "t1"], &["w2", "t2"]]),
        ("wi", &[&["w1", "i1"], &["w2", "i2"]]),
        ("pt", &[&["p1", "t1"], &["p1", "t2"], &["p2", "t1"]]),
        ("st", &[&["t1", "u1"], &["t2", "u2"]]),
        (
            "rr",
            &[
                &["u1", "res1"],
                &["t1", "res1"],
                &["u2", "res2"],
                &["t2", "res2"],
            ],
        ),
    ];
    let mut out = String::new();
    for (rel, rows) in FACTS {
        for row in *rows {
            let args: Vec<String> = row.iter().map(|c| format!("c{c}_{tag}")).collect();
            let _ = writeln!(out, "{rel}_{tag}({}).", args.join(", "));
        }
    }
    out
}

/// The body of the paper's Q0 over the `tag`ged Example 1.1 relations.
fn q0_body(tag: &str) -> String {
    format!(
        "mw_{tag}(A, B, I), wt_{tag}(B, D), wi_{tag}(B, E), pt_{tag}(C, D), st_{tag}(D, F), \
         st_{tag}(D, G), rr_{tag}(G, H), rr_{tag}(F, H), rr_{tag}(D, H)"
    )
}

/// The mutation every Example 1.1 workload uses: a new `wt` tuple under
/// the full two-atom query it extends.
fn example11_mutation(tag: &str) -> Mutation {
    Mutation {
        rel: format!("wt_{tag}"),
        values: vec![format!("cw1_{tag}"), format!("ct9_{tag}")],
        query: format!("ans(A, B, I, D) :- mw_{tag}(A, B, I), wt_{tag}(B, D)."),
    }
}

/// `warm_hit`: 4 head variants of Q0 and alternating `pt` cycles of 4, 6,
/// 8 and 10 atoms over the Example 1.1 fixture.
pub fn warm_hit(seed: u64) -> Inputs {
    let tag = Rng::new(seed).tag();
    let mut queries: Vec<String> = ["A, B, C", "A", "A, B", "B, C"]
        .iter()
        .map(|head| format!("ans({head}) :- {}.", q0_body(&tag)))
        .collect();
    for len in [4usize, 6, 8, 10] {
        let half = len / 2;
        let atoms: Vec<String> = (0..len)
            .map(|i| {
                // Atom i joins X_{ceil(i/2)} with Y_{floor(i/2)}, closing on X0.
                let x = i.div_ceil(2) % half;
                format!("pt_{tag}(X{x}, Y{})", i / 2)
            })
            .collect();
        queries.push(format!("ans(X0, Y0) :- {}.", atoms.join(", ")));
    }
    Inputs {
        db_text: example11(&tag),
        queries,
        mutation: example11_mutation(&tag),
    }
}

/// Atom counts of the random-cyclic shapes of `plan_cold`; plain cycles of
/// 12 and more atoms are excluded (README, "Excluded inputs").
const PLAN_COLD_ATOMS: [usize; 4] = [6, 8, 10, 12];
const PLAN_COLD_SHAPES_PER_SIZE: usize = 12;

/// One query shaped like `workloads::random_cyclic_query`: a 4-cycle of
/// binary atoms plus `atoms - 4` satellites of arity 6 to 8, each anchored
/// on two adjacent cycle variables; every other cycle variable is free.
/// Relation names carry `prefix`, so no two queries share a plan.
fn random_cyclic(atoms: usize, prefix: &str, rng: &mut Rng) -> String {
    const CYCLE: usize = 4;
    let mut body: Vec<String> = (0..CYCLE)
        .map(|i| format!("{prefix}e{i}(X{i}, X{})", (i + 1) % CYCLE))
        .collect();
    for t in 0..atoms - CYCLE {
        let a = rng.below(CYCLE);
        let arity = 6 + rng.below(3);
        let mut terms = vec![format!("X{a}"), format!("X{}", (a + 1) % CYCLE)];
        terms.extend((0..arity - 2).map(|j| format!("P{t}_{j}")));
        body.push(format!("{prefix}t{t}({})", terms.join(", ")));
    }
    format!("ans(X0, X2) :- {}.", body.join(", "))
}

/// Seed of the shape draws of `plan_cold`. The 48 shapes are part of the
/// workload's definition, the same under every `--seed`: planning cost
/// varies 6x between shapes, so shapes drawn from `--seed` would make two
/// seeds two workloads. `--seed` renames every relation instead (and the
/// reader reshuffles the mix every pass).
const PLAN_COLD_SHAPE_SEED: u64 = 0x5AFE_C0DE;

/// 16 heads of Q0 that plan as a #-hypertree decomposition within the
/// daemon's width cap of 3: eight of width 2, eight of width 3. (51 of
/// the 511 possible heads exceed the cap and would be counted by the
/// hybrid or brute-force fallback, which is data work, not planning.)
const PLAN_COLD_Q0_HEADS: [&str; 16] = [
    "A",
    "A, B",
    "A, B, C",
    "B, C, D",
    "D, E",
    "A, D, F",
    "B, C, D, E",
    "C, F",
    "A, C, E",
    "A, D, E",
    "B, C, F",
    "C, E, F",
    "A, C, G",
    "A, F, G",
    "E, F, G",
    "A, C, D, E, F, G",
];

/// `plan_cold`: 48 random-cyclic shapes and 16 head variants of Q0 over
/// the 16-tuple fixture. The cyclic queries name relations the database
/// does not have, so their counts are 0 and all the time is planning.
pub fn plan_cold(seed: u64) -> Inputs {
    let tag = Rng::new(seed).tag();
    let mut shapes = Rng::new(PLAN_COLD_SHAPE_SEED);
    let mut queries = Vec::new();
    for atoms in PLAN_COLD_ATOMS {
        for s in 0..PLAN_COLD_SHAPES_PER_SIZE {
            let prefix = format!("q{atoms}x{s}_{tag}_");
            queries.push(random_cyclic(atoms, &prefix, &mut shapes));
        }
    }
    // Each head is its own canonical query, hence its own cold plan.
    for head in PLAN_COLD_Q0_HEADS {
        queries.push(format!("ans({head}) :- {}.", q0_body(&tag)));
    }
    Inputs {
        db_text: example11(&tag),
        queries,
        mutation: example11_mutation(&tag),
    }
}

/// Sizes of the chain database (`count_acyclic`, `mutate_recount`):
/// 100 000 tuples in all.
const CHAIN_R: usize = 44_000;
const CHAIN_S: usize = 44_000;
const CHAIN_T: usize = 5_000;
const CHAIN_U: usize = 6_000;
const CHAIN_V: usize = 1_000;
const CHAIN_A_DOMAIN: usize = 20_000;
const CHAIN_B_DOMAIN: usize = 10_000;
const CHAIN_C_DOMAIN: usize = 10_000;

fn distinct_pairs(rng: &mut Rng, n: usize, left: usize, right: usize) -> Vec<(usize, usize)> {
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let pair = (rng.below(left), rng.below(right));
        if seen.insert(pair) {
            out.push(pair);
        }
    }
    out
}

/// The chain database: `r(A,B)`, `s(B,C)`, `t(C)` with random distinct
/// tuples, plus the small `u(X,Y)`, `v(Y)` pair that only the reader of
/// `mutate_recount` queries.
fn chain_db(tag: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(3 << 20);
    for (a, b) in distinct_pairs(rng, CHAIN_R, CHAIN_A_DOMAIN, CHAIN_B_DOMAIN) {
        let _ = writeln!(out, "r_{tag}(a{a}, b{b}).");
    }
    for (b, c) in distinct_pairs(rng, CHAIN_S, CHAIN_B_DOMAIN, CHAIN_C_DOMAIN) {
        let _ = writeln!(out, "s_{tag}(b{b}, c{c}).");
    }
    // t holds every other c: distinct by construction.
    for c in 0..CHAIN_T {
        let _ = writeln!(out, "t_{tag}(c{}).", 2 * c);
    }
    for (x, y) in distinct_pairs(rng, CHAIN_U, 3_000, 2_000) {
        let _ = writeln!(out, "u_{tag}(x{x}, y{y}).");
    }
    for y in 0..CHAIN_V {
        let _ = writeln!(out, "v_{tag}(y{}).", 2 * y);
    }
    out
}

fn chain_body(tag: &str) -> String {
    format!("r_{tag}(A, B), s_{tag}(B, C), t_{tag}(C)")
}

/// The chain mutation: a new `t` constant that `s` already points at, so
/// the maintained full count moves.
fn chain_mutation(tag: &str) -> Mutation {
    Mutation {
        rel: format!("t_{tag}"),
        values: vec!["c1".into()],
        query: format!("ans(A, B, C) :- {}.", chain_body(tag)),
    }
}

/// `count_acyclic`: the chain query with and without projection. Five
/// heads, not four: with an even number of equally frequent query types
/// the median op sits on the boundary between two of them and jumps from
/// run to run.
pub fn count_acyclic(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let tag = rng.tag();
    let queries = ["A, B, C", "A", "B", "C", "A, C"]
        .iter()
        .map(|head| format!("ans({head}) :- {}.", chain_body(&tag)))
        .collect();
    Inputs {
        db_text: chain_db(&tag, &mut rng),
        queries,
        mutation: chain_mutation(&tag),
    }
}

/// `mutate_recount`: the same chain database; the reader's one query
/// touches only `u` and `v`, which the writer never mutates.
pub fn mutate_recount(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let tag = rng.tag();
    Inputs {
        db_text: chain_db(&tag, &mut rng),
        queries: vec![format!("ans(X) :- u_{tag}(X, Y), v_{tag}(Y).")],
        mutation: chain_mutation(&tag),
    }
}

/// Size of the random directed graph of `count_cyclic`.
const GRAPH_NODES: usize = 2_000;
const GRAPH_EDGES: usize = 16_000;

/// `count_cyclic`: triangle and 4-cycle counts over a random directed
/// graph without self-loops.
pub fn count_cyclic(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let tag = rng.tag();
    let mut db_text = String::with_capacity(1 << 19);
    let mut seen = std::collections::HashSet::with_capacity(GRAPH_EDGES);
    while seen.len() < GRAPH_EDGES {
        let (x, y) = (rng.below(GRAPH_NODES), rng.below(GRAPH_NODES));
        if x != y && seen.insert((x, y)) {
            let _ = writeln!(db_text, "e_{tag}(n{x}, n{y}).");
        }
    }
    let e = format!("e_{tag}");
    let queries = vec![
        format!("ans(X, Y, Z) :- {e}(X, Y), {e}(Y, Z), {e}(Z, X)."),
        format!("ans(X) :- {e}(X, Y), {e}(Y, Z), {e}(Z, X)."),
        format!("ans(X, Y) :- {e}(X, Y), {e}(Y, Z), {e}(Z, W), {e}(W, X)."),
    ];
    Inputs {
        db_text,
        queries,
        mutation: Mutation {
            rel: e.clone(),
            values: vec!["nnew".into(), "n0".into()],
            query: format!("ans(X, Y, Z) :- {e}(X, Y), {e}(Y, Z)."),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let all: [fn(u64) -> Inputs; 5] = [
            warm_hit,
            plan_cold,
            count_acyclic,
            count_cyclic,
            mutate_recount,
        ];
        for make in all {
            let (a, b, c) = (make(7), make(7), make(8));
            assert_eq!(a.db_text, b.db_text);
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.mutation.values, b.mutation.values);
            assert_ne!(a.db_text, c.db_text);
            assert_ne!(a.queries, c.queries);
        }
    }

    #[test]
    fn sizes_are_the_documented_ones() {
        assert_eq!(warm_hit(1).queries.len(), 8);
        assert_eq!(warm_hit(1).db_text.lines().count(), 16);
        let pc = plan_cold(1);
        assert_eq!(pc.queries.len(), 64);
        let distinct: std::collections::HashSet<_> = pc.queries.iter().collect();
        assert_eq!(distinct.len(), 64);
        assert_eq!(count_acyclic(1).db_text.lines().count(), 100_000);
        assert_eq!(mutate_recount(1).db_text.lines().count(), 100_000);
        assert_eq!(count_cyclic(1).db_text.lines().count(), GRAPH_EDGES);
    }

    #[test]
    fn cycle_queries_close_on_x0() {
        let q = &warm_hit(3).queries[4];
        assert_eq!(q.matches("pt_").count(), 4);
        assert!(q.contains("(X0, Y0)") && q.contains("(X1, Y0)"));
        assert!(q.contains("(X1, Y1)") && q.contains("(X0, Y1)"));
    }
}
