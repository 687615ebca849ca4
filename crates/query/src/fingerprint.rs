//! Canonical query fingerprints — the cache key of the serving layer.
//!
//! Two conjunctive queries that differ only by a renaming of variables, a
//! reordering of atoms, or duplicated conjuncts denote the same counting
//! problem, so a plan or a count computed for one is valid for the other.
//! This module computes a **canonical text form** that is invariant under
//! exactly those changes: variables are renumbered by an
//! individualization–refinement search (Weisfeiler–Leman color refinement
//! with branching on tied color classes, the standard graph-canonization
//! scheme), atoms are sorted and deduplicated, and the free set is recorded
//! as canonical indices. The canonical text *determines the query up to
//! variable renaming*, so using it as a cache key can never conflate two
//! inequivalent queries — unlike a bare hash, a collision is impossible.
//!
//! The companion 64-bit digest (stable FNV-1a over the text, independent of
//! process and platform) is what travels in protocol frames and `STATS`
//! output; caches key on the full text.
//!
//! Cost: refinement hashes `(relation, position, term colors)` tuples with a
//! 64-bit mixer into reusable buffers and stops when a round no longer
//! raises the number of color classes (refinement only splits classes).
//! Colors only steer the search — which cell to branch on, which order to
//! label in — so a hash collision can cost branching but never soundness:
//! every choice is a function of the query's structure, and the text is
//! serialized from the query itself. Once every unlabeled variable sits in
//! a class of its own, the partition is discrete and the node is a single
//! leaf: the variables are labeled by color rank and serialized once, so a
//! query that refines to a discrete partition (most practical queries) costs
//! one refinement and one serialization. On a tied cell the search branches
//! on each member but skips a member `j` when swapping it with an
//! already-explored member `i` maps the atom set and the free set onto
//! themselves: the swap is an automorphism fixing the node, so both subtrees
//! yield the same serializations (the leaves of a self-join star drop from
//! `n!` to one). [`LEAF_CAP`] is only a guard against symmetric queries that
//! have no such twins (disjoint copies of one cycle, say); a trip is
//! reported by [`fingerprint_with_stats`]. Past the cap the search keeps
//! the minimum over the explored prefix, which is still a *sound* cache key
//! (it still determines the query), merely no longer guaranteed invariant
//! under renaming — the failure mode is a spurious cache miss, never a
//! wrong answer.

use crate::{ConjunctiveQuery, Term, Var};
use std::collections::{BTreeMap, BTreeSet};

/// Branching budget for the individualization search (leaf labelings).
pub const LEAF_CAP: usize = 4096;

/// A canonical fingerprint: the exact canonical text plus a stable digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryFingerprint {
    /// Canonical text form — determines the query up to variable renaming.
    /// Collision-free as a cache key.
    pub text: String,
    /// Stable 64-bit FNV-1a digest of `text` (for wire frames and display).
    pub hash: u64,
}

/// What one canonicalization's search did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Leaf labelings serialized.
    pub leaves: usize,
    /// Tied-cell members skipped as twins of an explored member.
    pub pruned: usize,
    /// The search stopped at [`LEAF_CAP`] with branches unexplored: the
    /// text is still a sound key but may differ between renamings.
    pub capped: bool,
}

/// Computes the canonical fingerprint of `q`.
pub fn fingerprint(q: &ConjunctiveQuery) -> QueryFingerprint {
    fingerprint_with_stats(q).0
}

/// [`fingerprint`], plus the statistics of the search that produced it.
pub fn fingerprint_with_stats(q: &ConjunctiveQuery) -> (QueryFingerprint, SearchStats) {
    let (text, stats) = Canonicalizer::new(q).run();
    let hash = fnv1a(text.as_bytes());
    (QueryFingerprint { text, hash }, stats)
}

/// Stable FNV-1a (64-bit) — deterministic across processes and platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-sensitive 64-bit combiner (a splitmix64 finalizer over `h ⊕ v`).
fn mix(h: u64, v: u64) -> u64 {
    let mut x = h.rotate_left(23) ^ v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Salts keeping variable colors, constants and individualized variables
/// apart in the hash space.
const VAR_SALT: u64 = 0x5641_5200;
const CONST_SALT: u64 = 0x434f_4e53;
const FIXED_SALT: u64 = 0x4649_5845;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum AtomTerm {
    /// Index into the canonicalizer's variables.
    Var(usize),
    /// Index into the canonicalizer's constants.
    Const(usize),
}

/// Refinement buffers, reused across rounds and search nodes.
#[derive(Default)]
struct Scratch {
    shapes: Vec<u64>,
    contexts: Vec<u64>,
    next: Vec<u64>,
    sorted: Vec<u64>,
}

struct Canonicalizer<'q> {
    free: Vec<bool>,
    rels: Vec<&'q str>,
    consts: Vec<&'q str>,
    rel_hash: Vec<u64>,
    const_hash: Vec<u64>,
    /// Deduplicated atoms, sorted, as (relation index, terms).
    atoms: Vec<(usize, Vec<AtomTerm>)>,
    /// Per variable: its occurrences as (atom index, position).
    occurrences: Vec<Vec<(usize, usize)>>,
    scratch: Scratch,
    stats: SearchStats,
    best: Option<String>,
}

impl<'q> Canonicalizer<'q> {
    fn new(q: &'q ConjunctiveQuery) -> Canonicalizer<'q> {
        let vars: Vec<Var> = q.vars_in_atoms().into_iter().collect();
        let index_of: BTreeMap<Var, usize> =
            vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let free_set = q.free();
        let free = vars.iter().map(|v| free_set.contains(v)).collect();
        let rels: Vec<&str> = (q.atoms().iter().map(|a| a.rel.as_str()))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let consts: Vec<&str> = (q.atoms().iter().flat_map(|a| &a.terms))
            .filter_map(|t| match t {
                Term::Const(c) => Some(c.as_str()),
                Term::Var(_) => None,
            })
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let position = |names: &[&str], name: &str| names.binary_search(&name).unwrap();
        // Dedup exact duplicate conjuncts *before* refinement: conjunction
        // is idempotent, and a duplicate would otherwise skew the
        // occurrence multisets that drive the variable colors.
        let atoms: Vec<(usize, Vec<AtomTerm>)> = q
            .atoms()
            .iter()
            .map(|a| {
                let terms: Vec<AtomTerm> = a
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => AtomTerm::Var(index_of[v]),
                        Term::Const(c) => AtomTerm::Const(position(&consts, c)),
                    })
                    .collect();
                (position(&rels, &a.rel), terms)
            })
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut occurrences = vec![Vec::new(); vars.len()];
        for (a, (_, terms)) in atoms.iter().enumerate() {
            for (pos, t) in terms.iter().enumerate() {
                if let AtomTerm::Var(i) = *t {
                    occurrences[i].push((a, pos));
                }
            }
        }
        Canonicalizer {
            free,
            rel_hash: rels.iter().map(|r| fnv1a(r.as_bytes())).collect(),
            const_hash: consts.iter().map(|c| fnv1a(c.as_bytes())).collect(),
            rels,
            consts,
            atoms,
            occurrences,
            scratch: Scratch::default(),
            stats: SearchStats::default(),
            best: None,
        }
    }

    /// WL refinement to a stable partition: each round, a variable's new
    /// color hashes its old color, its freeness and the sorted multiset of
    /// its occurrence contexts `(atom shape, position)`, where an atom's
    /// shape hashes its relation and its terms' current colors — so one
    /// round propagates structure one hop.
    fn refine(&mut self, colors: &mut Vec<u64>) {
        let Scratch {
            shapes,
            contexts,
            next,
            sorted,
        } = &mut self.scratch;
        let mut classes = class_count(colors, sorted);
        loop {
            shapes.clear();
            shapes.extend(self.atoms.iter().map(|(rel, terms)| {
                terms.iter().fold(self.rel_hash[*rel], |h, t| match *t {
                    AtomTerm::Var(i) => mix(mix(h, VAR_SALT), colors[i]),
                    AtomTerm::Const(c) => mix(mix(h, CONST_SALT), self.const_hash[c]),
                })
            }));
            next.clear();
            next.extend(self.occurrences.iter().enumerate().map(|(i, occ)| {
                contexts.clear();
                contexts.extend(occ.iter().map(|&(a, pos)| mix(shapes[a], pos as u64)));
                contexts.sort_unstable();
                let h = mix(colors[i], self.free[i] as u64);
                contexts.iter().fold(h, |h, &c| mix(h, c))
            }));
            std::mem::swap(colors, next);
            // The new color hashes the old one, so the new partition refines
            // the old: it is stable once the class count stops rising.
            let refined = class_count(colors, sorted);
            if refined <= classes {
                return;
            }
            classes = refined;
        }
    }

    /// Whether swapping variables `i` and `j` maps the atom set and the
    /// free set onto themselves (an automorphism of the query).
    fn are_twins(&self, i: usize, j: usize) -> bool {
        let swap = |t: &AtomTerm| match *t {
            AtomTerm::Var(v) if v == i => AtomTerm::Var(j),
            AtomTerm::Var(v) if v == j => AtomTerm::Var(i),
            t => t,
        };
        let mut image = Vec::new();
        self.free[i] == self.free[j]
            && (self.occurrences[i].iter().chain(&self.occurrences[j])).all(|&(a, _)| {
                let (rel, terms) = &self.atoms[a];
                image.clear();
                image.extend(terms.iter().map(swap));
                (self.atoms)
                    .binary_search_by(|(r, ts)| (r, ts.as_slice()).cmp(&(rel, image.as_slice())))
                    .is_ok()
            })
    }

    /// Serializes the query under a complete variable numbering.
    fn serialize(&self, order: &[usize]) -> String {
        // order[i] = canonical index of variable i
        let mut rendered: Vec<String> = self
            .atoms
            .iter()
            .map(|(rel, terms)| {
                let body: Vec<String> = terms
                    .iter()
                    .map(|t| match *t {
                        AtomTerm::Var(i) => format!("${}", order[i]),
                        AtomTerm::Const(c) => format!("={}", self.consts[c]),
                    })
                    .collect();
                format!("{}({})", self.rels[*rel], body.join(","))
            })
            .collect();
        rendered.sort_unstable();
        rendered.dedup(); // conjunction is idempotent
        let mut frees: Vec<usize> = (0..self.free.len())
            .filter(|&i| self.free[i])
            .map(|i| order[i])
            .collect();
        frees.sort_unstable();
        format!(
            "free{{{}}}|{}",
            frees
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
            rendered.join("&")
        )
    }

    /// Individualization–refinement search for the minimal serialization.
    /// `labels[i] = Some(d)` once variable i was individualized at depth d.
    fn search(&mut self, colors: &[u64], labels: &mut [Option<usize>], depth: usize) {
        let mut unlabeled: Vec<(u64, usize)> = (0..colors.len())
            .filter(|&i| labels[i].is_none())
            .map(|i| (colors[i], i))
            .collect();
        unlabeled.sort_unstable();
        // Target cell: among tied color classes of unlabeled variables, the
        // one with the smallest (size, color) — an isomorphism-invariant
        // choice.
        let target = (unlabeled.chunk_by(|a, b| a.0 == b.0))
            .filter(|cell| cell.len() > 1)
            .min_by_key(|cell| (cell.len(), cell[0].0));
        let Some(cell) = target else {
            // Discrete: one leaf, the rest labeled by color rank.
            self.stats.leaves += 1;
            let mut order: Vec<usize> = labels.iter().map(|l| l.unwrap_or(0)).collect();
            for (rank, &(_, i)) in unlabeled.iter().enumerate() {
                order[i] = depth + rank;
            }
            let s = self.serialize(&order);
            if self.best.as_ref().is_none_or(|b| s < *b) {
                self.best = Some(s);
            }
            return;
        };
        let members: Vec<usize> = cell.iter().map(|&(_, i)| i).collect();
        let mut explored: Vec<usize> = Vec::new();
        for j in members {
            if explored.iter().any(|&i| self.are_twins(i, j)) {
                self.stats.pruned += 1;
                continue;
            }
            if self.stats.leaves >= LEAF_CAP {
                self.stats.capped = true;
                return;
            }
            let mut child = colors.to_vec();
            child[j] = mix(FIXED_SALT, depth as u64);
            self.refine(&mut child);
            labels[j] = Some(depth);
            self.search(&child, labels, depth + 1);
            labels[j] = None;
            explored.push(j);
        }
    }

    fn run(mut self) -> (String, SearchStats) {
        let mut colors = vec![0; self.free.len()];
        self.refine(&mut colors);
        let mut labels = vec![None; colors.len()];
        self.search(&colors, &mut labels, 0);
        let text = self.best.expect("search visited at least one leaf");
        (text, self.stats)
    }
}

/// The number of distinct colors (`sorted` is a reusable buffer).
fn class_count(colors: &[u64], sorted: &mut Vec<u64>) -> usize {
    sorted.clear();
    sorted.extend_from_slice(colors);
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// The canonical text form of `q`: invariant under variable renaming, atom
/// reordering and duplicated conjuncts; determines the query up to
/// renaming (so it is collision-free as a cache key).
pub fn canonical_text(q: &ConjunctiveQuery) -> String {
    Canonicalizer::new(q).run().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn fp(src: &str) -> QueryFingerprint {
        fingerprint(&parse_query(src).unwrap())
    }

    /// The search's (leaves, capped) on `src`.
    fn leaves_and_cap(src: &str) -> (usize, bool) {
        let stats = fingerprint_with_stats(&parse_query(src).unwrap()).1;
        (stats.leaves, stats.capped)
    }

    #[test]
    fn renaming_is_invisible() {
        let a = fp("ans(X) :- r(X, Y), s(Y, Z).");
        let b = fp("ans(A) :- r(A, B), s(B, C).");
        assert_eq!(a, b);
    }

    #[test]
    fn atom_order_is_invisible() {
        let a = fp("ans(X) :- r(X, Y), s(Y, Z).");
        let b = fp("ans(X) :- s(Y, Z), r(X, Y).");
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_conjuncts_are_invisible() {
        let a = fp("ans(X) :- r(X, Y).");
        let b = fp("ans(X) :- r(X, Y), r(X, Y).");
        assert_eq!(a, b);
    }

    #[test]
    fn structure_changes_are_visible() {
        let base = fp("ans(X) :- r(X, Y), s(Y, Z).");
        assert_ne!(base, fp("ans(X) :- r(X, Y), s(Y, Z), t(Z)."));
        assert_ne!(base, fp("ans(X) :- r(X, Y)."));
        assert_ne!(base, fp("ans(X, Y) :- r(X, Y), s(Y, Z)."));
        assert_ne!(base, fp("ans(X) :- r(X, Y), s(Y, alice)."));
    }

    #[test]
    fn constants_are_compared_by_name() {
        assert_ne!(fp("ans(X) :- r(X, alice)."), fp("ans(X) :- r(X, bob)."));
        assert_eq!(fp("ans(X) :- r(X, alice)."), fp("ans(Q) :- r(Q, alice)."));
    }

    #[test]
    fn symmetric_variables_canonicalize() {
        // X1/X2 are automorphic: any renaming must agree.
        let a = fp("ans(X1, X2) :- r(Y, X1), r(Y, X2).");
        let b = fp("ans(U2, U1) :- r(W, U2), r(W, U1).");
        assert_eq!(a, b);
    }

    #[test]
    fn triangle_rotations_agree() {
        let a = fp("ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).");
        let b = fp("ans(A, B, C) :- e(C, A), e(A, B), e(B, C).");
        assert_eq!(a, b);
    }

    #[test]
    fn free_set_matters() {
        assert_ne!(fp("ans(X) :- r(X, Y)."), fp("ans(Y) :- r(X, Y)."));
    }

    #[test]
    fn empty_and_boolean_queries() {
        let b = fp("ans() :- r(X, Y).");
        assert!(b.text.starts_with("free{}"));
        assert_eq!(b, fp("ans() :- r(U, V)."));
        assert_eq!(fp("ans() :- p(a).").text, "free{}|p(=a)");
    }

    #[test]
    fn digest_matches_text() {
        let f = fp("ans(X) :- r(X, Y).");
        assert_eq!(f.hash, fnv1a(f.text.as_bytes()));
    }

    fn star(n: usize) -> String {
        let legs: Vec<String> = (1..=n).map(|i| format!("e(X, Y{i})")).collect();
        format!("ans(X) :- {}.", legs.join(", "))
    }

    #[test]
    fn discrete_refinement_is_one_leaf() {
        // Every variable has its own color after refinement: no branching.
        let s = leaves_and_cap("ans(A, C) :- r(A, B), s(B, C), t(C, D), u(D, A), v(A, E, F).");
        assert_eq!(s, (1, false));
        assert_eq!(leaves_and_cap("ans() :- p(a)."), (1, false));
    }

    #[test]
    fn twin_pruning_collapses_stars() {
        for n in [1, 2, 4, 7, 12, 32] {
            let stats = fingerprint_with_stats(&parse_query(&star(n)).unwrap()).1;
            assert_eq!((stats.leaves, stats.capped), (1, false), "star {n}");
            assert_eq!(stats.pruned, (1..n).sum::<usize>(), "star {n}");
        }
        // Twins under each of two interchangeable hubs (which are not
        // twins themselves): one leaf per hub.
        let s = leaves_and_cap(
            "ans() :- h(X1, Y1), h(X1, Y2), h(X1, Y3), h(X2, Z1), h(X2, Z2), h(X2, Z3).",
        );
        assert_eq!(s, (2, false));
    }

    #[test]
    fn swaps_that_move_an_atom_are_not_twins() {
        // X and Y share a color class on a directed triangle, but (X Y)
        // reverses an edge: all three rotations are explored.
        assert_eq!(
            leaves_and_cap("ans() :- e(X, Y), e(Y, Z), e(Z, X)."),
            (3, false)
        );
        // A free and a bound twin-shaped pair: freeness breaks the swap.
        let q = parse_query("ans(Y1) :- e(X, Y1), e(X, Y2).").unwrap();
        let c = Canonicalizer::new(&q);
        for i in 0..3 {
            for j in i + 1..3 {
                assert!(!c.are_twins(i, j), "({i} {j})");
            }
        }
    }

    #[test]
    fn twin_free_symmetry_trips_the_cap() {
        // Six disjoint directed triangles over one relation: every vertex
        // is alike, no two are twins, and the tree has 18·15·12·9·6·3
        // leaves.
        let mut atoms = Vec::new();
        for t in 0..6 {
            for k in 0..3 {
                atoms.push(format!("e(V{t}_{k}, V{t}_{})", (k + 1) % 3));
            }
        }
        let s = leaves_and_cap(&format!("ans() :- {}.", atoms.join(", ")));
        assert_eq!(s, (LEAF_CAP, true));
    }
}
