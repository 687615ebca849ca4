//! Positional relations: sets of tuples of a fixed arity.

use crate::fxhash::FxHashSet;
use crate::fxhash::FxHasher;
use crate::store::FrozenPage;
use crate::Value;
use std::hash::Hasher;

/// Sentinel for an unoccupied slot in the open-addressed index.
pub(crate) const EMPTY: u32 = u32::MAX;

/// A relation instance `r^D ⊆ D^ρ` (Section 2): a *set* of tuples of a fixed
/// arity, stored row-major in one flat value array.
///
/// A relation is backed either by heap vectors (live, mutable — the only
/// form mutations ever see) or by a *frozen* store page borrowed from an
/// mmap'd snapshot region ([`crate::store`]). Both backings expose the same
/// borrowed-slice row view ([`Relation::row`] / [`Relation::values`]), so
/// the algebra kernels run directly over mapped bytes with no copy. The
/// first `insert`/`remove` on a frozen relation thaws it to heap form;
/// cloning a frozen relation just bumps the region refcount, which is how
/// consecutive epochs share unchanged pages copy-on-write.
///
/// Heap iteration order is insertion order of the first occurrence (keeps
/// generated workloads deterministic); frozen pages iterate in ascending
/// lexicographic row order (the store sorts on freeze — that order is what
/// makes a page double as a trie for the wcoj kernel).
///
/// Deduplication uses an open-addressed table of `u32` offsets into the
/// row array (linear probing, power-of-two capacity, ≤ 7/8 load) instead
/// of a second hash set of cloned tuples: the index costs 4 bytes per slot
/// — under 10 bytes per tuple at steady state. The exact same table layout
/// is persisted in store pages (the hash is position-independent and
/// deterministic), so a mapped relation probes with zero rebuild cost.
#[derive(Clone, Debug)]
pub struct Relation {
    arity: usize,
    /// Number of tuples. Explicit because `values.len() / arity` is
    /// undefined at arity 0, and zero-arity relations are real (boolean
    /// queries).
    len: usize,
    backing: Backing,
}

#[derive(Clone, Debug)]
enum Backing {
    Heap {
        /// Row-major values, `len * arity` long.
        values: Vec<Value>,
        slots: Vec<u32>,
    },
    Frozen(FrozenPage),
}

impl Default for Relation {
    fn default() -> Relation {
        Relation::new(0)
    }
}

pub(crate) fn hash_tuple(t: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in t {
        h.write_u32(v.0);
    }
    h.finish()
}

/// The slot where `tuple` lives, or the empty slot where it would be
/// inserted. Requires a non-empty table.
fn probe(values: &[Value], arity: usize, slots: &[u32], tuple: &[Value]) -> usize {
    debug_assert!(!slots.is_empty());
    let mask = slots.len() - 1;
    let mut i = hash_tuple(tuple) as usize & mask;
    loop {
        let s = slots[i];
        if s == EMPTY || &values[s as usize * arity..(s as usize + 1) * arity] == tuple {
            return i;
        }
        i = (i + 1) & mask;
    }
}

/// Builds the open-addressed index over `len` (deduplicated) rows fetched
/// through `row`, at the smallest power-of-two size that keeps the load
/// under 7/8. The store writer persists exactly this table.
pub(crate) fn build_slot_index<'a>(row: impl Fn(usize) -> &'a [Value], len: usize) -> Vec<u32> {
    if len == 0 {
        return Vec::new();
    }
    let mut cap = 8usize;
    while len * 8 > cap * 7 {
        cap *= 2;
    }
    fill_slots(row, len, cap)
}

/// A `cap`-slot table (a power of two) indexing rows `0..len` fetched
/// through `row` — the one fill loop behind both [`build_slot_index`] and
/// heap growth, so their tables agree slot for slot at equal sizes.
fn fill_slots<'a>(row: impl Fn(usize) -> &'a [Value], len: usize, cap: usize) -> Vec<u32> {
    let mut slots = vec![EMPTY; cap];
    let mask = cap - 1;
    for n in 0..len {
        let mut i = hash_tuple(row(n)) as usize & mask;
        while slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        slots[i] = n as u32;
    }
    slots
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            len: 0,
            backing: Backing::Heap {
                values: Vec::new(),
                slots: Vec::new(),
            },
        }
    }

    /// Builds a relation from rows (arity taken from the first row).
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows<I>(rows: I) -> Relation
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        let mut it = rows.into_iter().peekable();
        let arity = it.peek().map_or(0, Vec::len);
        let mut r = Relation::new(arity);
        for row in it {
            r.insert(row);
        }
        r
    }

    /// Wraps a validated store page (see [`crate::store`]).
    pub(crate) fn from_frozen(page: FrozenPage) -> Relation {
        Relation {
            arity: page.arity(),
            len: page.len(),
            backing: Backing::Frozen(page),
        }
    }

    /// The arity `ρ`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The flat row-major value array (`len() * arity()` values). For a
    /// frozen relation this is a window into the mapped region.
    pub fn values(&self) -> &[Value] {
        match &self.backing {
            Backing::Heap { values, .. } => values,
            Backing::Frozen(page) => page.values(),
        }
    }

    fn slots(&self) -> &[u32] {
        match &self.backing {
            Backing::Heap { slots, .. } => slots,
            Backing::Frozen(page) => page.slots(),
        }
    }

    /// Row `i` as a borrowed slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        debug_assert!(i < self.len);
        &self.values()[i * self.arity..(i + 1) * self.arity]
    }

    /// `true` iff this relation is a borrowed store page (no heap tuples).
    pub fn is_frozen(&self) -> bool {
        matches!(self.backing, Backing::Frozen(_))
    }

    /// The rows in ascending lexicographic order, if this backing stores
    /// them that way (frozen pages always do). The wcoj trie cursor and
    /// the store writer's copy-through path rely on this.
    pub fn sorted_values(&self) -> Option<&[Value]> {
        match &self.backing {
            Backing::Frozen(page) => Some(page.values()),
            Backing::Heap { .. } => None,
        }
    }

    /// Bytes of this relation owned by the process allocator: heap
    /// vectors, or the page span when a frozen page sits in the
    /// read-into-heap fallback region.
    pub fn resident_bytes(&self) -> usize {
        match &self.backing {
            Backing::Heap { values, slots } => {
                values.capacity() * std::mem::size_of::<Value>()
                    + slots.capacity() * std::mem::size_of::<u32>()
            }
            Backing::Frozen(page) if !page.is_mapped() => page.page_bytes(),
            Backing::Frozen(_) => 0,
        }
    }

    /// Bytes this relation borrows from an actual `mmap` region (shared
    /// page cache, evictable) — the complement of [`resident_bytes`](Relation::resident_bytes).
    pub fn mapped_bytes(&self) -> usize {
        match &self.backing {
            Backing::Frozen(page) if page.is_mapped() => page.page_bytes(),
            _ => 0,
        }
    }

    /// Copies a frozen page into heap form so it can be mutated. No-op on
    /// heap backings. The persisted index is copied verbatim: it is the
    /// same table the heap path would have built.
    fn thaw(&mut self) {
        if let Backing::Frozen(page) = &self.backing {
            self.backing = Backing::Heap {
                values: page.values().to_vec(),
                slots: page.slots().to_vec(),
            };
        }
    }

    /// Grows the slot table (or builds it for the first insert) and
    /// re-indexes every stored tuple. Heap backing only.
    fn grow(values: &[Value], arity: usize, len: usize, slots: &mut Vec<u32>) {
        let cap = (slots.len() * 2).max(8);
        *slots = fill_slots(|n| &values[n * arity..(n + 1) * arity], len, cap);
    }

    /// Inserts a tuple; returns `true` if it was new. Panics on arity
    /// mismatch. Thaws a frozen backing first.
    pub fn insert(&mut self, tuple: Vec<Value>) -> bool {
        assert_eq!(tuple.len(), self.arity, "arity mismatch");
        self.thaw();
        let arity = self.arity;
        let len = self.len;
        let Backing::Heap { values, slots } = &mut self.backing else {
            unreachable!("thawed above");
        };
        if (len + 1) * 8 > slots.len() * 7 {
            Relation::grow(values, arity, len, slots);
        }
        let i = probe(values, arity, slots, &tuple);
        if slots[i] != EMPTY {
            return false;
        }
        slots[i] = len as u32;
        values.extend_from_slice(&tuple);
        self.len += 1;
        true
    }

    /// Removes a tuple; returns `true` if it was present. Panics on arity
    /// mismatch. Thaws a frozen backing first.
    ///
    /// The last tuple is swapped into the vacated position (so row order
    /// is *not* stable across deletion) and the index is patched in
    /// place: the moved tuple's slot is repointed, and the vacated slot is
    /// closed with backward-shift deletion so linear-probe chains stay
    /// unbroken without tombstones. The slot table never shrinks; the load
    /// check in [`insert`](Relation::insert) is driven by the live tuple
    /// count, so a delete-heavy relation simply runs under-loaded.
    pub fn remove(&mut self, tuple: &[Value]) -> bool {
        assert_eq!(tuple.len(), self.arity, "arity mismatch");
        if self.len == 0 {
            return false;
        }
        self.thaw();
        let arity = self.arity;
        let len = self.len;
        let Backing::Heap { values, slots } = &mut self.backing else {
            unreachable!("thawed above");
        };
        if slots.is_empty() {
            return false;
        }
        let slot = probe(values, arity, slots, tuple);
        let idx = slots[slot];
        if idx == EMPTY {
            return false;
        }
        let idx = idx as usize;
        let mask = slots.len() - 1;
        let last = len - 1;
        // Swap-remove the flat row.
        if idx != last {
            let (head, tail) = values.split_at_mut(last * arity);
            head[idx * arity..(idx + 1) * arity].copy_from_slice(&tail[..arity]);
            // The old last tuple now lives at `idx`; walk its probe chain
            // for the slot still holding the stale end-of-vector offset.
            let mut i = hash_tuple(&head[idx * arity..(idx + 1) * arity]) as usize & mask;
            while slots[i] != last as u32 {
                i = (i + 1) & mask;
            }
            slots[i] = idx as u32;
        }
        values.truncate(last * arity);
        self.len = last;
        // Backward-shift deletion: pull every displaced successor in the
        // chain back over the hole so future probes never stop early.
        let mut hole = slot;
        let mut i = slot;
        loop {
            i = (i + 1) & mask;
            let s = slots[i];
            if s == EMPTY {
                break;
            }
            let ideal =
                hash_tuple(&values[s as usize * arity..(s as usize + 1) * arity]) as usize & mask;
            if (i.wrapping_sub(ideal) & mask) >= (i.wrapping_sub(hole) & mask) {
                slots[hole] = s;
                hole = i;
            }
        }
        slots[hole] = EMPTY;
        true
    }

    /// Membership test (works on both backings without thawing).
    pub fn contains(&self, tuple: &[Value]) -> bool {
        let slots = self.slots();
        if slots.is_empty() {
            return false;
        }
        slots[probe(self.values(), self.arity, slots, tuple)] != EMPTY
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` iff the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes spent on the dedup index (diagnostics; see the memory test
    /// below).
    pub fn index_bytes(&self) -> usize {
        std::mem::size_of_val(self.slots())
    }

    /// Iterates over the tuples as borrowed row slices.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> {
        let values = self.values();
        let arity = self.arity;
        (0..self.len).map(move |i| &values[i * arity..(i + 1) * arity])
    }

    /// The set of values occurring anywhere in the relation (its active
    /// domain contribution).
    pub fn active_domain(&self) -> FxHashSet<Value> {
        self.values().iter().copied().collect()
    }

    /// Intersection with another relation of the same arity.
    pub fn intersect(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity, "arity mismatch");
        let mut out = Relation::new(self.arity);
        for t in self.iter() {
            if other.contains(t) {
                out.insert(t.to_vec());
            }
        }
        out
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity && self.len == other.len && self.iter().all(|t| other.contains(t))
    }
}
impl Eq for Relation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store;
    use crate::Database;

    fn v(id: u32) -> Value {
        Value(id)
    }

    #[test]
    fn insert_dedup() {
        let mut r = Relation::new(2);
        assert!(r.insert(vec![v(1), v(2)]));
        assert!(!r.insert(vec![v(1), v(2)]));
        assert!(r.insert(vec![v(2), v(1)]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[v(1), v(2)]));
        assert!(!r.contains(&[v(3), v(3)]));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut r = Relation::new(2);
        r.insert(vec![v(1)]);
    }

    #[test]
    fn from_rows() {
        let r = Relation::from_rows(vec![vec![v(1), v(2)], vec![v(1), v(2)], vec![v(3), v(4)]]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn set_equality_ignores_order() {
        let a = Relation::from_rows(vec![vec![v(1)], vec![v(2)]]);
        let b = Relation::from_rows(vec![vec![v(2)], vec![v(1)]]);
        assert_eq!(a, b);
        let c = Relation::from_rows(vec![vec![v(2)], vec![v(4)]]);
        assert_ne!(a, c);
        assert_ne!(a, Relation::from_rows(vec![vec![v(1)]]));
    }

    #[test]
    fn intersect() {
        let a = Relation::from_rows(vec![vec![v(1)], vec![v(2)], vec![v(3)]]);
        let b = Relation::from_rows(vec![vec![v(2)], vec![v(3)], vec![v(4)]]);
        let i = a.intersect(&b);
        assert_eq!(i.len(), 2);
        assert!(i.contains(&[v(2)]) && i.contains(&[v(3)]));
    }

    #[test]
    fn active_domain() {
        let r = Relation::from_rows(vec![vec![v(1), v(2)], vec![v(2), v(3)]]);
        let dom = r.active_domain();
        assert_eq!(dom.len(), 3);
    }

    #[test]
    fn dedup_survives_growth_and_collisions() {
        // Enough inserts (with duplicates interleaved) to force several
        // table growths and long probe chains.
        let mut r = Relation::new(2);
        for round in 0..3u32 {
            for i in 0..5_000u32 {
                let fresh = r.insert(vec![v(i), v(i.wrapping_mul(2654435761))]);
                assert_eq!(fresh, round == 0, "i = {i}, round = {round}");
            }
        }
        assert_eq!(r.len(), 5_000);
        for i in 0..5_000u32 {
            assert!(r.contains(&[v(i), v(i.wrapping_mul(2654435761))]));
        }
        assert!(!r.contains(&[v(0), v(1)]));
    }

    #[test]
    fn index_memory_is_a_fraction_of_the_tuples() {
        // The point of the offset index: 4 bytes per slot, at most 2×
        // over-provisioned (power-of-two growth at 7/8 load), so ≤ ~9.4
        // bytes per tuple. The clone-based FxHashSet<Tuple> it replaced
        // paid ≥ 24 bytes per tuple (16-byte Box header + 8 bytes of
        // values for arity 2) before bucket overhead.
        let r = Relation::from_rows((0..10_000u32).map(|i| vec![v(i), v(i + 1)]));
        let tuple_payload = r.len() * (16 + 2 * std::mem::size_of::<Value>());
        assert!(r.index_bytes() <= r.len() * 10, "{} bytes", r.index_bytes());
        assert!(
            r.index_bytes() * 2 < tuple_payload,
            "index {} vs old clone set ≥ {}",
            r.index_bytes(),
            tuple_payload
        );
    }

    #[test]
    fn remove_basics() {
        let mut r = Relation::from_rows(vec![vec![v(1), v(2)], vec![v(3), v(4)], vec![v(5), v(6)]]);
        assert!(!r.remove(&[v(9), v(9)]));
        assert!(r.remove(&[v(3), v(4)]));
        assert!(!r.remove(&[v(3), v(4)]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[v(1), v(2)]));
        assert!(r.contains(&[v(5), v(6)]));
        assert!(!r.contains(&[v(3), v(4)]));
        // Removing from an empty/unindexed relation is a no-op.
        let mut e = Relation::new(1);
        assert!(!e.remove(&[v(1)]));
    }

    #[test]
    fn remove_last_and_reinsert() {
        let mut r = Relation::from_rows(vec![vec![v(1)], vec![v(2)]]);
        assert!(r.remove(&[v(2)])); // last index: no swap fixup needed
        assert_eq!(r.len(), 1);
        assert!(r.insert(vec![v(2)]));
        assert!(!r.insert(vec![v(2)]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn remove_matches_reference_model_under_churn() {
        // Interleaved insert/remove stress against a BTreeSet reference,
        // with keys dense enough to force collisions and growth.
        let mut r = Relation::new(2);
        let mut model = std::collections::BTreeSet::new();
        let mut x: u32 = 0x243F_6A88;
        for step in 0..20_000u32 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let a = v(x >> 24);
            let b = v((x >> 16) & 0xFF);
            let t = vec![a, b];
            if step % 3 == 0 && !model.is_empty() {
                // Remove an existing tuple about a third of the time.
                let pick = *model.iter().nth(x as usize % model.len()).unwrap();
                let pick_t = vec![v(pick / 1000), v(pick % 1000)];
                assert!(r.remove(&pick_t), "step {step}");
                model.remove(&pick);
            } else {
                let key = a.0 * 1000 + b.0;
                assert_eq!(r.insert(t), model.insert(key), "step {step}");
            }
            if step % 977 == 0 {
                assert_eq!(r.len(), model.len(), "step {step}");
            }
        }
        assert_eq!(r.len(), model.len());
        for key in &model {
            assert!(r.contains(&[v(key / 1000), v(key % 1000)]));
        }
        // Everything removed: the relation drains to empty and dedup
        // still works afterwards.
        for key in model {
            assert!(r.remove(&[v(key / 1000), v(key % 1000)]));
        }
        assert!(r.is_empty());
        assert!(r.insert(vec![v(1), v(2)]));
        assert!(!r.insert(vec![v(1), v(2)]));
    }

    #[test]
    fn zero_arity_relation() {
        let mut r = Relation::new(0);
        assert!(!r.contains(&[]));
        assert!(r.insert(vec![]));
        assert!(!r.insert(vec![]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
        assert!(r.remove(&[]));
        assert!(r.is_empty());
    }

    /// Round-trips a database through the store and hands back its frozen
    /// `e` relation.
    fn frozen_pair_relation(pairs: &[(u32, u32)]) -> (Database, String) {
        let mut db = Database::new();
        for &(x, y) in pairs {
            db.add_fact("e", &[&x.to_string(), &y.to_string()]);
        }
        let bytes = store::encode_store(&db, 0, 0);
        let loaded = store::load_store_bytes(&bytes).unwrap();
        (loaded.db, "e".into())
    }

    #[test]
    fn frozen_membership_and_iteration() {
        let (db, name) = frozen_pair_relation(&[(5, 6), (1, 2), (3, 4)]);
        let r = db.relation(&name).unwrap();
        assert!(r.is_frozen());
        assert_eq!(r.len(), 3);
        // Frozen probing answers through the persisted index.
        for t in r.iter() {
            assert!(r.contains(t));
        }
        assert_eq!(r.iter().count(), 3);
        // The page is accounted somewhere: heap fallback region counts as
        // resident, a real mmap as mapped.
        assert!(r.mapped_bytes() + r.resident_bytes() > 0);
    }

    #[test]
    fn frozen_thaws_on_insert_and_remove() {
        let (db, name) = frozen_pair_relation(&[(1, 2), (3, 4)]);
        let mut r = db.relation(&name).unwrap().clone();
        assert!(r.is_frozen());
        let existing: Vec<Value> = r.iter().next().unwrap().to_vec();
        assert!(!r.insert(existing.clone())); // duplicate: thaws, then dedups
        assert!(!r.is_frozen());
        assert!(r.remove(&existing));
        assert_eq!(r.len(), 1);
        assert!(!r.contains(&existing));
        // A fresh clone of the original still sees the frozen page.
        assert!(db.relation(&name).unwrap().is_frozen());
        assert_eq!(db.relation(&name).unwrap().len(), 2);
    }

    #[test]
    fn frozen_clone_shares_the_page() {
        let (db, name) = frozen_pair_relation(&[(1, 2), (3, 4), (5, 6)]);
        let r = db.relation(&name).unwrap();
        let copy = r.clone();
        // Cloning a frozen relation is an Arc bump: both views point at
        // the exact same page bytes.
        assert!(copy.is_frozen());
        assert!(std::ptr::eq(
            r.sorted_values().unwrap().as_ptr(),
            copy.sorted_values().unwrap().as_ptr(),
        ));
        assert_eq!(copy, *r);
    }
}
