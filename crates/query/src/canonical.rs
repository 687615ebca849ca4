//! The query ↔ relational-structure bridge.
//!
//! A conjunctive query *is* a relational structure (Section 2): its canonical
//! database has one constant per term and one tuple per atom. Homomorphisms
//! `Q → Q'` are exactly the solutions of `Q` over the canonical database of
//! `Q'`, which is what Lemma 4.3 exploits. This module also provides atom
//! evaluation against ordinary databases.

use crate::{Atom, ConjunctiveQuery, Term};
use cqcount_relational::{Bindings, ColTerm, Database};

/// The name of the canonical constant representing a variable. The `$`
/// prefix keeps variable-constants disjoint from user constants (the parser
/// never produces identifiers containing `$`).
pub fn canonical_constant(q: &ConjunctiveQuery, v: crate::Var) -> String {
    format!("${}", q.var_name(v))
}

/// Builds the canonical database `D_Q`: each atom `r(t̄)` becomes the ground
/// tuple obtained by replacing every variable `X` with the constant `$X`.
pub fn canonical_database(q: &ConjunctiveQuery) -> Database {
    let mut db = Database::new();
    for atom in q.atoms() {
        let tuple = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => db.value(&canonical_constant(q, *v)),
                Term::Const(c) => db.value(c),
            })
            .collect();
        db.add_tuple(&atom.rel, tuple);
    }
    db
}

/// Evaluates an atom against a database, yielding the set of substitutions
/// over the atom's variables (constants filtered, repeated variables forced
/// equal). A missing relation, an arity mismatch with the stored relation,
/// or an unknown constant yields the empty set.
pub fn atom_bindings(atom: &Atom, db: &Database) -> Bindings {
    scan_atom(atom, db, None)
}

/// [`atom_bindings`] projected onto the columns in `keep`, in the same
/// scan: the dropped columns are never materialized.
pub fn atom_bindings_projected(atom: &Atom, db: &Database, keep: &[u32]) -> Bindings {
    scan_atom(atom, db, Some(keep))
}

fn scan_atom(atom: &Atom, db: &Database, keep: Option<&[u32]>) -> Bindings {
    let cols: Vec<u32> = atom
        .vars()
        .iter()
        .map(|v| v.node())
        .filter(|c| keep.is_none_or(|keep| keep.contains(c)))
        .collect();
    let Some(rel) = db.relation(&atom.rel) else {
        return Bindings::empty(cols);
    };
    if rel.arity() != atom.terms.len() {
        return Bindings::empty(cols);
    }
    let mut col_terms = Vec::with_capacity(atom.terms.len());
    for t in &atom.terms {
        match t {
            Term::Var(v) => col_terms.push(ColTerm::Var(v.node())),
            Term::Const(c) => match db.interner().get(c) {
                Some(val) => col_terms.push(ColTerm::Const(val)),
                None => return Bindings::empty(cols),
            },
        }
    }
    match keep {
        Some(keep) => Bindings::from_atom_projected(rel, &col_terms, keep),
        None => Bindings::from_atom(rel, &col_terms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::{enumerate_homomorphisms_to_db, has_homomorphism};
    use crate::Var;

    fn t(v: Var) -> Term {
        Term::Var(v)
    }

    fn triangle() -> ConjunctiveQuery {
        let mut q = ConjunctiveQuery::new();
        let (x, y, z) = (q.var("X"), q.var("Y"), q.var("Z"));
        q.add_atom("r", vec![t(x), t(y)]);
        q.add_atom("r", vec![t(y), t(z)]);
        q.add_atom("r", vec![t(z), t(x)]);
        q
    }

    #[test]
    fn canonical_db_shape() {
        let q = triangle();
        let db = canonical_database(&q);
        let r = db.relation("r").unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(db.interner().len(), 3); // $X, $Y, $Z
    }

    #[test]
    fn homs_to_query_equal_solutions_on_canonical_db() {
        // Chandra–Merlin: hom(Q1 -> Q2) iff Q1 has a solution on D_{Q2}.
        let q1 = {
            let mut q = ConjunctiveQuery::new();
            let (a, b) = (q.var("A"), q.var("B"));
            q.add_atom("r", vec![t(a), t(b)]);
            q
        };
        let q2 = triangle();
        let db2 = canonical_database(&q2);
        assert_eq!(
            has_homomorphism(&q1, &q2),
            !enumerate_homomorphisms_to_db(&q1, &db2).is_empty()
        );
        // and count: edges of the triangle = 3 homomorphisms
        assert_eq!(enumerate_homomorphisms_to_db(&q1, &db2).len(), 3);
    }

    #[test]
    fn constants_survive_canonically() {
        let mut q = ConjunctiveQuery::new();
        let x = q.var("X");
        q.add_atom("r", vec![t(x), Term::Const("alice".into())]);
        let db = canonical_database(&q);
        assert!(db.interner().get("alice").is_some());
        assert!(db.interner().get("$X").is_some());
    }

    #[test]
    fn atom_bindings_evaluates() {
        let mut db = Database::new();
        db.add_fact("r", &["a", "b"]);
        db.add_fact("r", &["a", "a"]);
        let mut q = ConjunctiveQuery::new();
        let x = q.var("X");
        // r(X, X)
        q.add_atom("r", vec![t(x), t(x)]);
        let b = atom_bindings(&q.atoms()[0], &db);
        assert_eq!(b.len(), 1);
        // r(X, 'b')
        let mut q2 = ConjunctiveQuery::new();
        let y = q2.var("Y");
        q2.add_atom("r", vec![t(y), Term::Const("b".into())]);
        assert_eq!(atom_bindings(&q2.atoms()[0], &db).len(), 1);
        // unknown relation / constant
        let mut q3 = ConjunctiveQuery::new();
        let z = q3.var("Z");
        q3.add_atom("nope", vec![t(z)]);
        assert!(atom_bindings(&q3.atoms()[0], &db).is_empty());
        let mut q4 = ConjunctiveQuery::new();
        let w = q4.var("W");
        q4.add_atom("r", vec![t(w), Term::Const("zz".into())]);
        assert!(atom_bindings(&q4.atoms()[0], &db).is_empty());
    }
}
