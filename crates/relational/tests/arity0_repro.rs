//! A nullary relation read off a store page has no values whether it holds
//! the empty tuple (true) or nothing (false); the leapfrog kernel must tell
//! the two apart by the relation's row count.

use cqcount_relational::{store, wcoj_join, Database, WcojInput};

/// Rows of `p() ⋈ e(a,b)` joined over frozen pages, `p` holding the empty
/// tuple iff `p_true`.
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
    assert!(p.is_frozen());
    let cols_p: [u32; 0] = [];
    let cols_e = [0u32, 1];
    let views = [
        WcojInput::from_frozen(p, &cols_p).unwrap(),
        WcojInput::from_frozen(e, &cols_e).unwrap(),
    ];
    wcoj_join(&views).rows().len()
}

#[test]
fn frozen_arity0_wcoj() {
    assert_eq!(
        frozen_nullary_join_rows(true),
        1,
        "a true nullary atom is a no-op filter: the join equals e"
    );
}

#[test]
fn frozen_empty_arity0_wcoj() {
    assert_eq!(
        frozen_nullary_join_rows(false),
        0,
        "a false nullary atom empties the join"
    );
}
