//! Incremental maintenance of join-tree counts under single-tuple
//! mutations — the `delta` subsystem.
//!
//! The Yannakakis-style dynamic program of
//! `cqcount_core::acyclic::count_over_tree` computes, per join-tree
//! vertex, a map from the projection of the vertex's rows onto the
//! columns shared with its parent to the summed partial count, and
//! multiplies the root totals. That DP is naturally incrementalizable: a
//! single tuple change perturbs one row of each vertex whose atom
//! mentions the touched relation, and the perturbation propagates only
//! along the path from that vertex to its root — every other partial
//! count is untouched.
//!
//! [`MaterializedCount`] pins that DP state as a first-class value: per
//! vertex, the row → partial-count map, the parent-shared projection
//! (`up_map`), a per-child index from child-shared keys back to the
//! rows carrying them, and the root totals.
//! [`MaterializedCount::apply_delta`] then re-aggregates in
//! O(path · affected rows) instead of recounting from scratch.
//!
//! Two properties make the state cheap to keep *exact*:
//!
//! * **No reduction.** The DP is correct on *unreduced* views: a
//!   dangling row simply finds no key in some child's `up_map` and
//!   contributes a zero partial count. Maintaining semijoin-reduced
//!   bindings under deletion would require counting support; maintaining
//!   the unreduced DP requires nothing but the deltas themselves.
//! * **No division.** A changed row is re-derived by re-multiplying its
//!   child `up_map` lookups (O(#children) hash probes), never by
//!   dividing a stored product — so zero factors cost nothing special
//!   and the arithmetic stays in [`Natural`].
//!
//! **Maintainable shape.** A query qualifies iff it is *full* (every
//! variable occurring in the body is free — projections break the
//! per-tuple delta mapping), every atom binds at least one variable, and
//! the atoms' variable sets admit a join forest (α-acyclicity).
//! [`MaterializedCount::maintainable`] decides this from the query alone,
//! and [`MaterializedCount::build`] returns `None` otherwise before it
//! scans anything; the serving layer's fallback ladder degrades to
//! targeted cache invalidation, never a wrong count.

use cqcount_arith::Natural;
use cqcount_hypergraph::{join_forest, Hypergraph, JoinForest};
use cqcount_query::canonical::atom_bindings;
use cqcount_query::{ConjunctiveQuery, Term};
use cqcount_relational::{Bindings, Col, Database, FxHashMap, FxHashSet, Tuple, Value};

/// The join forest over `q`'s atoms (vertex `i` is atom `i`) when `q` is
/// full and non-empty, every atom binds a variable, and the atoms'
/// variable sets are α-acyclic; `None` otherwise.
fn maintainable_forest(q: &ConjunctiveQuery) -> Option<JoinForest> {
    if q.atoms().is_empty() || q.free() != q.vars_in_atoms() {
        return None;
    }
    if q.atoms().iter().any(|a| a.vars().is_empty()) {
        return None;
    }
    let mut h = Hypergraph::new();
    for a in q.atoms() {
        h.add_edge(a.vars().iter().map(|v| v.node()).collect());
    }
    join_forest(&h)
}

/// What a single [`MaterializedCount::apply_delta`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Join-tree vertices whose stored state changed (the mutated
    /// vertices plus every ancestor whose partial counts moved).
    pub bags_touched: u64,
}

/// The materialization noticed its stored state disagrees with the
/// mutation stream (a row inserted twice, or deleted while absent). The
/// caller must discard the materialization and fall back to recounting —
/// the invariant "state mirrors the database" no longer holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaFault {
    /// Which relation's delta exposed the inconsistency.
    pub rel: String,
}

impl std::fmt::Display for DeltaFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "materialized state diverged on relation {}", self.rel)
    }
}

impl std::error::Error for DeltaFault {}

/// One join-tree vertex: the atom's matching pattern plus the pinned DP
/// state.
#[derive(Clone, Debug)]
struct Vertex {
    /// The atom's term count (a mutation with a different width cannot
    /// match this atom — `atom_bindings` yields the empty view on arity
    /// mismatch, and the maintained state mirrors that).
    arity: usize,
    /// `(term position, constant name)` filters.
    const_checks: Vec<(usize, String)>,
    /// `(first position, later position)` equalities for repeated
    /// variables.
    eq_checks: Vec<(usize, usize)>,
    /// For each view column (sorted order), the term position that
    /// supplies its value.
    extract: Vec<usize>,
    /// Row positions forming the key shared with the parent.
    up_pos: Vec<usize>,
    /// Per child (aligned with `children[v]`): row positions forming the
    /// key shared with that child.
    child_pos: Vec<Vec<usize>>,
    /// Row → its current partial count (product of child `up_map`
    /// lookups; absent child key ⇒ zero).
    rows: FxHashMap<Tuple, Natural>,
    /// Parent-shared key → Σ partial counts of the rows carrying it.
    /// Entries that sum to zero are dropped (absent ≡ zero).
    up_map: FxHashMap<Tuple, Natural>,
    /// Per child: child-shared key → this vertex's rows carrying it.
    child_index: Vec<FxHashMap<Tuple, Vec<Tuple>>>,
    /// Σ partial counts (roots only; [`Natural::ZERO`] elsewhere).
    total: Natural,
}

impl Vertex {
    /// Maps a base tuple of `rel` through the atom's pattern into a view
    /// row, or `None` when the tuple does not satisfy the atom's
    /// constant/equality filters. The mapping is injective: the row plus
    /// the pattern reconstruct the base tuple, so one base mutation is at
    /// most one row per atom.
    fn map_tuple(&self, db: &Database, tuple: &[Value]) -> Option<Tuple> {
        if tuple.len() != self.arity {
            return None;
        }
        for (pos, name) in &self.const_checks {
            if db.interner().get(name) != Some(tuple[*pos]) {
                return None;
            }
        }
        for &(a, b) in &self.eq_checks {
            if tuple[a] != tuple[b] {
                return None;
            }
        }
        Some(self.extract.iter().map(|&p| tuple[p]).collect())
    }
}

/// A prepared plan's join tree with every bag's partial-count state
/// pinned, maintained exactly under single-tuple mutations.
#[derive(Clone, Debug)]
pub struct MaterializedCount {
    vertices: Vec<Vertex>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    /// Atom (vertex) indices grouped by relation symbol.
    by_rel: FxHashMap<String, Vec<usize>>,
}

impl MaterializedCount {
    /// Is `q` delta-maintainable? Decided from the query alone, without
    /// touching any data: [`MaterializedCount::build`] succeeds on every
    /// database exactly when this holds.
    pub fn maintainable(q: &ConjunctiveQuery) -> bool {
        maintainable_forest(q).is_some()
    }

    /// Builds the materialized DP for `q` over `db`, or `None` when the
    /// query is not delta-maintainable (not full, a variable-free atom,
    /// or a cyclic atom hypergraph) — refused before any scan.
    pub fn build(q: &ConjunctiveQuery, db: &Database) -> Option<MaterializedCount> {
        let forest = maintainable_forest(q)?;
        let views: Vec<Bindings> = q.atoms().iter().map(|a| atom_bindings(a, db)).collect();

        // Static pattern info per atom.
        let mut vertices: Vec<Vertex> = Vec::with_capacity(views.len());
        let mut by_rel: FxHashMap<String, Vec<usize>> = FxHashMap::default();
        for (i, atom) in q.atoms().iter().enumerate() {
            let mut first: FxHashMap<Col, usize> = FxHashMap::default();
            let mut const_checks = Vec::new();
            let mut eq_checks = Vec::new();
            for (pos, t) in atom.terms.iter().enumerate() {
                match t {
                    Term::Var(v) => match first.get(&v.node()) {
                        Some(&f) => eq_checks.push((f, pos)),
                        None => {
                            first.insert(v.node(), pos);
                        }
                    },
                    Term::Const(name) => const_checks.push((pos, name.clone())),
                }
            }
            let cols = views[i].cols();
            debug_assert_eq!(cols.len(), first.len());
            let extract: Vec<usize> = cols.iter().map(|c| first[c]).collect();
            let shared_pos = |other: &Bindings| -> Vec<usize> {
                (0..cols.len())
                    .filter(|&p| other.cols().contains(&cols[p]))
                    .collect()
            };
            let up_pos = match forest.parent[i] {
                Some(p) => shared_pos(&views[p]),
                None => Vec::new(),
            };
            let child_pos: Vec<Vec<usize>> = forest.children[i]
                .iter()
                .map(|&c| shared_pos(&views[c]))
                .collect();
            by_rel.entry(atom.rel.clone()).or_default().push(i);
            vertices.push(Vertex {
                arity: atom.terms.len(),
                const_checks,
                eq_checks,
                extract,
                up_pos,
                child_pos,
                rows: FxHashMap::default(),
                up_map: FxHashMap::default(),
                child_index: vec![FxHashMap::default(); forest.children[i].len()],
                total: Natural::ZERO,
            });
        }

        let mut mc = MaterializedCount {
            vertices,
            parent: forest.parent,
            children: forest.children,
            by_rel,
        };

        // Bottom-up initial fill, mirroring `count_over_tree` but keeping
        // every intermediate (rows stay in, even with a zero count — a
        // later insert below them can revive them).
        for &v in &forest.order {
            let mut rows = FxHashMap::default();
            let mut up_map: FxHashMap<Tuple, Natural> = FxHashMap::default();
            let mut child_index: Vec<FxHashMap<Tuple, Vec<Tuple>>> =
                vec![FxHashMap::default(); mc.children[v].len()];
            let mut total = Natural::ZERO;
            let is_root = mc.parent[v].is_none();
            for row in views[v].rows() {
                let cnt = mc.row_count(v, row);
                for (j, pos) in mc.vertices[v].child_pos.iter().enumerate() {
                    let key: Tuple = pos.iter().map(|&p| row[p]).collect();
                    child_index[j].entry(key).or_default().push(row.clone());
                }
                if is_root {
                    total += &cnt;
                } else if !cnt.is_zero() {
                    let key: Tuple = mc.vertices[v].up_pos.iter().map(|&p| row[p]).collect();
                    *up_map.entry(key).or_insert(Natural::ZERO) += &cnt;
                }
                rows.insert(row.clone(), cnt);
            }
            let vert = &mut mc.vertices[v];
            vert.rows = rows;
            vert.up_map = up_map;
            vert.child_index = child_index;
            vert.total = total;
        }
        Some(mc)
    }

    /// The current count — a product of root totals, read in O(#roots).
    pub fn count(&self) -> Natural {
        let mut out = Natural::ONE;
        for (v, p) in self.parent.iter().enumerate() {
            if p.is_none() {
                out *= &self.vertices[v].total;
            }
        }
        out
    }

    /// Does the materialized query mention `rel`? Mutations to other
    /// relations cannot move the count.
    pub fn mentions(&self, rel: &str) -> bool {
        self.by_rel.contains_key(rel)
    }

    /// The distinct relation symbols the query mentions.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.by_rel.keys().map(String::as_str)
    }

    /// Total rows pinned across all bags (diagnostics / memory accounting).
    pub fn pinned_rows(&self) -> usize {
        self.vertices.iter().map(|v| v.rows.len()).sum()
    }

    /// Applies a single-tuple delta: `tuple` was inserted into
    /// (`insert == true`) or deleted from (`insert == false`) relation
    /// `rel` of `db`, which has *already* absorbed the change and
    /// reported it effective. Only bags whose atoms mention `rel` and
    /// their ancestors are re-aggregated.
    ///
    /// Errors with [`DeltaFault`] when the stored state contradicts the
    /// delta (double insert / absent delete) — the caller must discard
    /// the materialization.
    pub fn apply_delta(
        &mut self,
        db: &Database,
        rel: &str,
        tuple: &[Value],
        insert: bool,
    ) -> Result<DeltaOutcome, DeltaFault> {
        let span = cqcount_obs::trace::span("delta.apply");
        let mut outcome = DeltaOutcome::default();
        let verts = match self.by_rel.get(rel) {
            Some(v) => v.clone(),
            None => return Ok(outcome),
        };
        for v in verts {
            let Some(row) = self.vertices[v].map_tuple(db, tuple) else {
                continue;
            };
            outcome.bags_touched +=
                self.apply_row_delta(v, row, insert)
                    .map_err(|()| DeltaFault {
                        rel: rel.to_owned(),
                    })?;
        }
        span.add("bags_touched", outcome.bags_touched);
        Ok(outcome)
    }

    /// The DP partial count of `row` at vertex `v`: the product of its
    /// child `up_map` lookups (absent key ⇒ zero).
    fn row_count(&self, v: usize, row: &[Value]) -> Natural {
        let mut cnt = Natural::ONE;
        for (j, &c) in self.children[v].iter().enumerate() {
            let key: Tuple = self.vertices[v].child_pos[j]
                .iter()
                .map(|&p| row[p])
                .collect();
            match self.vertices[c].up_map.get(&key) {
                Some(m) => cnt *= m,
                None => return Natural::ZERO,
            }
        }
        cnt
    }

    /// Inserts or removes one view row at vertex `v` and propagates the
    /// perturbation up to `v`'s root. Returns the number of bags whose
    /// state changed.
    fn apply_row_delta(&mut self, v: usize, row: Tuple, insert: bool) -> Result<u64, ()> {
        let (old, new) = if insert {
            if self.vertices[v].rows.contains_key(&row) {
                return Err(()); // double insert: state has diverged
            }
            let cnt = self.row_count(v, &row);
            for (j, pos) in self.vertices[v].child_pos.clone().iter().enumerate() {
                let key: Tuple = pos.iter().map(|&p| row[p]).collect();
                self.vertices[v].child_index[j]
                    .entry(key)
                    .or_default()
                    .push(row.clone());
            }
            self.vertices[v].rows.insert(row.clone(), cnt.clone());
            (Natural::ZERO, cnt)
        } else {
            let Some(old) = self.vertices[v].rows.remove(&row) else {
                return Err(()); // absent delete: state has diverged
            };
            for (j, pos) in self.vertices[v].child_pos.clone().iter().enumerate() {
                let key: Tuple = pos.iter().map(|&p| row[p]).collect();
                if let Some(bucket) = self.vertices[v].child_index[j].get_mut(&key) {
                    if let Some(at) = bucket.iter().position(|r| *r == row) {
                        bucket.swap_remove(at);
                    }
                    if bucket.is_empty() {
                        self.vertices[v].child_index[j].remove(&key);
                    }
                }
            }
            (old, Natural::ZERO)
        };

        // Fold the changed rows into each level's aggregate and walk the
        // changed parent-shared keys toward the root.
        let mut touched = 1u64;
        let mut cur = v;
        let mut changed_rows: Vec<(Tuple, Natural, Natural)> = vec![(row, old, new)];
        loop {
            let is_root = self.parent[cur].is_none();
            let mut changed_keys: FxHashSet<Tuple> = FxHashSet::default();
            for (row, old, new) in changed_rows.drain(..) {
                if old == new {
                    continue;
                }
                if is_root {
                    let vert = &mut self.vertices[cur];
                    vert.total += &new;
                    vert.total -= &old;
                } else {
                    let key: Tuple = self.vertices[cur].up_pos.iter().map(|&p| row[p]).collect();
                    let vert = &mut self.vertices[cur];
                    let e = vert.up_map.entry(key.clone()).or_insert(Natural::ZERO);
                    *e += &new;
                    *e -= &old;
                    if e.is_zero() {
                        vert.up_map.remove(&key);
                    }
                    changed_keys.insert(key);
                }
            }
            if is_root || changed_keys.is_empty() {
                break;
            }
            let p = self.parent[cur].expect("non-root has a parent");
            let j = self.children[p]
                .iter()
                .position(|&c| c == cur)
                .expect("child lists mirror parents");
            let mut next: Vec<(Tuple, Natural, Natural)> = Vec::new();
            for key in changed_keys {
                let Some(bucket) = self.vertices[p].child_index[j].get(&key) else {
                    continue;
                };
                for r in bucket.clone() {
                    let new = self.row_count(p, &r);
                    let old = self.vertices[p]
                        .rows
                        .insert(r.clone(), new.clone())
                        .expect("indexed row is stored");
                    if old != new {
                        next.push((r, old, new));
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            touched += 1;
            changed_rows = next;
            cur = p;
        }
        Ok(touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcount_arith::prng::Rng;
    use cqcount_core::acyclic::count_acyclic_full;
    use cqcount_query::parser::parse_program;

    /// Parses a facts+rule program into (db, query).
    fn load(text: &str) -> (Database, ConjunctiveQuery) {
        let (q, db) = parse_program(text).expect("parse");
        (db, q.expect("rule"))
    }

    /// From-scratch reference: rebuild the atom views and recount.
    fn recount(q: &ConjunctiveQuery, db: &Database) -> Natural {
        let views: Vec<Bindings> = q.atoms().iter().map(|a| atom_bindings(a, db)).collect();
        count_acyclic_full(&views).expect("acyclic")
    }

    #[test]
    fn path_query_tracks_mutations() {
        let (mut db, q) = load(
            "r(a, b). r(b, c). s(b, x). s(c, y).\n\
             ans(X, Y, Z) :- r(X, Y), s(Y, Z).",
        );
        let mut mc = MaterializedCount::build(&q, &db).expect("maintainable");
        assert_eq!(mc.count(), recount(&q, &db));
        assert!(mc.mentions("r") && mc.mentions("s") && !mc.mentions("t"));

        // Insert a matching tuple: count grows.
        assert_eq!(db.insert_tuple("s", &["b", "z"]), Ok(true));
        let vals: Vec<Value> = ["b", "z"]
            .iter()
            .map(|n| db.interner().get(n).unwrap())
            .collect();
        let out = mc.apply_delta(&db, "s", &vals, true).unwrap();
        assert!(out.bags_touched >= 1);
        assert_eq!(mc.count(), recount(&q, &db));

        // Delete the r-tuple feeding it: count shrinks.
        assert_eq!(db.delete_tuple("r", &["a", "b"]), Ok(true));
        let vals: Vec<Value> = ["a", "b"]
            .iter()
            .map(|n| db.interner().get(n).unwrap())
            .collect();
        mc.apply_delta(&db, "r", &vals, false).unwrap();
        assert_eq!(mc.count(), recount(&q, &db));
    }

    #[test]
    fn non_maintainable_shapes_are_rejected() {
        // Projection (existential variable).
        let (db, q) = load("r(a, b).\nans(X) :- r(X, Y).");
        assert!(MaterializedCount::build(&q, &db).is_none());
        // Cyclic hypergraph (triangle).
        let (db, q) = load(
            "r(a, b). s(b, c). t(c, a).\n\
             ans(X, Y, Z) :- r(X, Y), s(Y, Z), t(Z, X).",
        );
        assert!(MaterializedCount::build(&q, &db).is_none());
        // Variable-free atom.
        let (db, q) = load("r(a). s(b).\nans(X) :- r(X), s(b).");
        assert!(MaterializedCount::build(&q, &db).is_none());
    }

    /// The query-only shape check agrees with `build` on every query of
    /// the corpus: Q0's 511 heads, the chain heads, the cycles and the
    /// edge shapes (constants, repeated variables, nullary and
    /// variable-free atoms, an empty body).
    #[test]
    fn maintainable_agrees_with_build() {
        use cqcount_query::parser::{parse_database, parse_query};
        let db = parse_database(include_str!("../../server/fixtures/example11.cq")).unwrap();
        let agree = |q: &ConjunctiveQuery| {
            let built = MaterializedCount::build(q, &db).is_some();
            assert_eq!(MaterializedCount::maintainable(q), built, "{q}");
            built
        };

        const BODY: &str = "mw(A, B, I), wt(B, D), wi(B, E), pt(C, D), \
                            st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H)";
        const VARS: [&str; 9] = ["A", "B", "C", "D", "E", "F", "G", "H", "I"];
        for mask in 1u32..1 << VARS.len() {
            let head: Vec<&str> = (0..VARS.len())
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| VARS[i])
                .collect();
            let q = parse_query(&format!("ans({}) :- {BODY}.", head.join(", "))).unwrap();
            // Q0's body is cyclic (st(D, F), rr(F, H), rr(D, H)).
            assert!(!agree(&q), "head {head:?}");
        }

        let chain = "r(A, B), s(B, C), t(C)";
        for head in ["A, B, C", "A", "B", "C", "A, C"] {
            let q = parse_query(&format!("ans({head}) :- {chain}.")).unwrap();
            assert_eq!(agree(&q), head == "A, B, C", "head {head}");
        }

        for (text, maintainable) in [
            ("ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).", false),
            (
                "ans(A, B, C, D) :- e(A, B), e(B, C), e(C, D), e(D, A).",
                false,
            ),
            ("ans(X, Y) :- mw(m1, X, Y), wt(X, t1).", true),
            ("ans(X) :- mw(X, X, X).", true),
            ("ans(X, Y) :- rr(X, X), st(X, Y), rr(Y, Y).", true),
            ("ans(X) :- wt(X, t1), p().", false),
            ("ans() :- p().", false),
            ("ans(X) :- wt(X, t1), pt(p1, t1).", false),
            ("ans() :- pt(p1, t1).", false),
        ] {
            let q = parse_query(text).unwrap();
            assert_eq!(agree(&q), maintainable, "{text}");
        }
        assert!(!agree(&ConjunctiveQuery::new()), "empty body");
    }

    #[test]
    fn constants_and_repeated_vars_filter_deltas() {
        let (mut db, q) = load(
            "e(a, a). e(a, b). f(a, c).\n\
             ans(X, Y) :- e(X, X), f(X, Y).",
        );
        let mut mc = MaterializedCount::build(&q, &db).expect("maintainable");
        assert_eq!(mc.count(), recount(&q, &db));
        // e(b, c) fails the X = X filter: no bag should change.
        db.insert_tuple("e", &["b", "c"]).unwrap();
        let vals: Vec<Value> = ["b", "c"]
            .iter()
            .map(|n| db.interner().get(n).unwrap())
            .collect();
        let out = mc.apply_delta(&db, "e", &vals, true).unwrap();
        assert_eq!(out.bags_touched, 0);
        assert_eq!(mc.count(), recount(&q, &db));
        // e(b, b) passes it.
        db.insert_tuple("e", &["b", "b"]).unwrap();
        let vals: Vec<Value> = ["b", "b"]
            .iter()
            .map(|n| db.interner().get(n).unwrap())
            .collect();
        mc.apply_delta(&db, "e", &vals, true).unwrap();
        assert_eq!(mc.count(), recount(&q, &db));

        // An atom with a constant: only matching tuples perturb it.
        let (mut db2, q2) = load(
            "g(a, b). h(b, c).\n\
             ans(X, Y) :- g(a, X), h(X, Y).",
        );
        let mut mc2 = MaterializedCount::build(&q2, &db2).expect("maintainable");
        db2.insert_tuple("g", &["z", "b"]).unwrap();
        let vals: Vec<Value> = ["z", "b"]
            .iter()
            .map(|n| db2.interner().get(n).unwrap())
            .collect();
        let out = mc2.apply_delta(&db2, "g", &vals, true).unwrap();
        assert_eq!(out.bags_touched, 0);
        assert_eq!(mc2.count(), recount(&q2, &db2));
    }

    #[test]
    fn same_relation_in_two_atoms() {
        let (mut db, q) = load(
            "r(a, b). r(b, c). r(c, d).\n\
             ans(X, Y, Z) :- r(X, Y), r(Y, Z).",
        );
        let mut mc = MaterializedCount::build(&q, &db).expect("maintainable");
        assert_eq!(mc.count(), recount(&q, &db));
        // One base insert perturbs both atom views.
        db.insert_tuple("r", &["d", "a"]).unwrap();
        let vals: Vec<Value> = ["d", "a"]
            .iter()
            .map(|n| db.interner().get(n).unwrap())
            .collect();
        let out = mc.apply_delta(&db, "r", &vals, true).unwrap();
        assert!(out.bags_touched >= 2);
        assert_eq!(mc.count(), recount(&q, &db));
        db.delete_tuple("r", &["b", "c"]).unwrap();
        let vals: Vec<Value> = ["b", "c"]
            .iter()
            .map(|n| db.interner().get(n).unwrap())
            .collect();
        mc.apply_delta(&db, "r", &vals, false).unwrap();
        assert_eq!(mc.count(), recount(&q, &db));
    }

    #[test]
    fn relation_created_after_build() {
        // The atom's relation does not exist yet: the view starts empty
        // and the count is zero; a later insert revives it.
        let (mut db, q) = load("r(a, b).\nans(X, Y, Z) :- r(X, Y), s(Y, Z).");
        let mut mc = MaterializedCount::build(&q, &db).expect("maintainable");
        assert!(mc.count().is_zero());
        db.insert_tuple("s", &["b", "q"]).unwrap();
        let vals: Vec<Value> = ["b", "q"]
            .iter()
            .map(|n| db.interner().get(n).unwrap())
            .collect();
        mc.apply_delta(&db, "s", &vals, true).unwrap();
        assert_eq!(mc.count(), recount(&q, &db));
        assert_eq!(mc.count(), Natural::from(1u64));
    }

    #[test]
    fn diverged_state_faults() {
        let (mut db, q) = load("r(a, b).\nans(X, Y) :- r(X, Y).");
        let mut mc = MaterializedCount::build(&q, &db).expect("maintainable");
        db.insert_tuple("r", &["c", "d"]).unwrap();
        let vals: Vec<Value> = ["c", "d"]
            .iter()
            .map(|n| db.interner().get(n).unwrap())
            .collect();
        mc.apply_delta(&db, "r", &vals, true).unwrap();
        // Replaying the same insert is a double apply: must fault, not
        // silently double-count.
        assert!(mc.apply_delta(&db, "r", &vals, true).is_err());
        // Deleting a tuple that was never applied also faults.
        let vals: Vec<Value> = ["a", "never"]
            .iter()
            .map(|n| db.interner_mut().intern(n))
            .collect();
        assert!(mc.apply_delta(&db, "r", &vals, false).is_err());
    }

    /// Seeded random mutation stream over a star-shaped full acyclic
    /// query; every step must match a from-scratch recount.
    #[test]
    fn random_stream_matches_recount() {
        let (mut db, q) = load(
            "hub(c0, c0).\n\
             ans(X, Y, Z, W) :- hub(X, Y), sp1(Y, Z), sp2(Y, W).",
        );
        let mut mc = MaterializedCount::build(&q, &db).expect("maintainable");
        let mut rng = Rng::seed_from_u64(0xDE17A);
        let rels = ["hub", "sp1", "sp2"];
        let steps = if cfg!(feature = "exhaustive-tests") {
            2_000
        } else {
            400
        };
        for step in 0..steps {
            let rel = rels[rng.range_usize(0, rels.len())];
            let a = format!("c{}", rng.range_usize(0, 6));
            let b = format!("c{}", rng.range_usize(0, 6));
            let insert = rng.chance(0.6);
            let changed = if insert {
                db.insert_tuple(rel, &[&a, &b]).unwrap()
            } else {
                db.delete_tuple(rel, &[&a, &b]).unwrap()
            };
            if !changed {
                continue;
            }
            let vals: Vec<Value> = [&a, &b]
                .iter()
                .map(|n| db.interner().get(n).unwrap())
                .collect();
            mc.apply_delta(&db, rel, &vals, insert).unwrap();
            assert_eq!(mc.count(), recount(&q, &db), "step {step}");
        }
    }

    /// Deeper tree: a 4-node path query under churn, checking that
    /// propagation crosses multiple levels correctly.
    #[test]
    fn path4_stream_matches_recount() {
        let (mut db, q) = load(
            "r1(c0, c1).\n\
             ans(A, B, C, D) :- r1(A, B), r2(B, C), r3(C, D).",
        );
        let mut mc = MaterializedCount::build(&q, &db).expect("maintainable");
        let mut rng = Rng::seed_from_u64(0xBEEF);
        let rels = ["r1", "r2", "r3"];
        for step in 0..300 {
            let rel = rels[rng.range_usize(0, rels.len())];
            let a = format!("c{}", rng.range_usize(0, 4));
            let b = format!("c{}", rng.range_usize(0, 4));
            let insert = rng.chance(0.65);
            let changed = if insert {
                db.insert_tuple(rel, &[&a, &b]).unwrap()
            } else {
                db.delete_tuple(rel, &[&a, &b]).unwrap()
            };
            if !changed {
                continue;
            }
            let vals: Vec<Value> = [&a, &b]
                .iter()
                .map(|n| db.interner().get(n).unwrap())
                .collect();
            mc.apply_delta(&db, rel, &vals, insert).unwrap();
            assert_eq!(mc.count(), recount(&q, &db), "step {step}");
        }
        assert!(mc.pinned_rows() <= db.total_tuples() * 2);
    }
}
