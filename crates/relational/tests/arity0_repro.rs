//! A nullary relation read off a store page has no values whether it holds
//! the empty tuple (true) or nothing (false); scanning it as an atom must
//! tell the two apart by the relation's row count, so that joining it is a
//! no-op filter when true and empties the join when false.

use cqcount_relational::{store, Bindings, ColTerm, Database};

/// Rows of `p() ⋈ e(X, Y)` over frozen pages, `p` holding the empty tuple
/// iff `p_true`: each atom scanned with [`Bindings::from_atom`] (the scan
/// under the query crate's `atom_bindings`), then joined.
fn frozen_nullary_join_rows(p_true: bool) -> usize {
    let mut db = Database::new();
    if p_true {
        db.add_fact("p", &[]);
    } else {
        db.ensure_relation("p", 0);
    }
    db.add_fact("e", &["a", "b"]);
    let loaded = store::load_store_bytes(&store::encode_store(&db, 0, 0)).unwrap();
    let p = loaded.db.relation("p").unwrap();
    let e = loaded.db.relation("e").unwrap();
    assert_eq!(p.len(), usize::from(p_true));
    assert!(p.is_frozen() && e.is_frozen());
    let p_scan = Bindings::from_atom(p, &[]);
    let e_scan = Bindings::from_atom(e, &[ColTerm::Var(0), ColTerm::Var(1)]);
    assert_eq!(p_scan.len(), usize::from(p_true));
    assert_eq!(e_scan.len(), 1);
    let forward = p_scan.join(&e_scan);
    assert_eq!(forward, e_scan.join(&p_scan), "join order must not matter");
    forward.len()
}

#[test]
fn frozen_arity0_atom_join() {
    assert_eq!(
        frozen_nullary_join_rows(true),
        1,
        "a true nullary atom is a no-op filter: the join equals e"
    );
}

#[test]
fn frozen_empty_arity0_atom_join() {
    assert_eq!(
        frozen_nullary_join_rows(false),
        0,
        "a false nullary atom empties the join"
    );
}
