//! Worst-case-optimal multiway join: a leapfrog-triejoin kernel over
//! sorted row sets.
//!
//! The binary sort-merge kernel in [`crate::algebra`] materializes every
//! pairwise intermediate; on cyclic bags (triangle λ-sets and up) those
//! intermediates can be quadratically larger than the bag's output, which
//! is exactly the blowup worst-case-optimal joins avoid. This kernel
//! intersects *all* atoms of a bag at once, variable by variable.
//!
//! The trick that makes it free here: [`Bindings`] rows are canonically
//! sorted — lexicographically over ascending column ids — and frozen store
//! pages are persisted in the same order. Picking the *global variable
//! order to be ascending column id* therefore makes every input already a
//! valid trie: each bound prefix is a contiguous row range, and descending
//! one level is a pair of binary searches. No per-query re-sorting, no trie
//! construction, and for frozen relations the searches run directly over
//! the mapped bytes.
//!
//! Output rows are produced in ascending lexicographic order over the
//! sorted union of columns, so the resulting [`Bindings`] needs no
//! canonicalizing sort either.
//!
//! The counting pipeline hands a bag to this kernel exactly when the bag's
//! λ-atoms form a cyclic hypergraph (`cqcount_core::sharp::wcoj_applies`);
//! acyclic bags keep the binary fold.

use crate::{Bindings, Col, Relation, Tuple, Value};

/// A sorted row set the kernel can descend: boxed [`Bindings`] rows or a
/// flat frozen page viewed in place.
#[derive(Clone, Copy)]
enum RowsView<'a> {
    Boxed(&'a [Tuple]),
    /// `rows` is the relation's own count: a nullary page has no values
    /// whether it holds the empty tuple or nothing.
    Flat {
        values: &'a [Value],
        arity: usize,
        rows: usize,
    },
}

impl<'a> RowsView<'a> {
    fn len(&self) -> usize {
        match self {
            RowsView::Boxed(rows) => rows.len(),
            RowsView::Flat { rows, .. } => *rows,
        }
    }

    #[inline]
    fn get(&self, row: usize, pos: usize) -> Value {
        match self {
            RowsView::Boxed(rows) => rows[row][pos],
            RowsView::Flat { values, arity, .. } => values[row * arity + pos],
        }
    }
}

/// One input to [`wcoj_join`]: sorted rows plus the (strictly ascending)
/// column each position binds.
pub struct WcojInput<'a> {
    rows: RowsView<'a>,
    cols: &'a [Col],
}

impl<'a> WcojInput<'a> {
    /// Any canonical [`Bindings`] is a valid trie for the ascending
    /// global order.
    pub fn from_bindings(b: &'a Bindings) -> WcojInput<'a> {
        WcojInput {
            rows: RowsView::Boxed(b.rows()),
            cols: b.cols(),
        }
    }

    /// A frozen relation joined directly over its mapped page. Usable when
    /// the page's position order matches the global order: `cols[i]` is
    /// the column bound by position `i` and must be strictly ascending.
    /// Returns `None` for heap-backed relations (no sorted page) or a
    /// non-ascending binding pattern — callers fall back to
    /// [`Bindings::from_atom`].
    pub fn from_frozen(rel: &'a Relation, cols: &'a [Col]) -> Option<WcojInput<'a>> {
        let values = rel.sorted_values()?;
        if cols.len() != rel.arity() || !cols.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        Some(WcojInput {
            rows: RowsView::Flat {
                values,
                arity: rel.arity(),
                rows: rel.len(),
            },
            cols,
        })
    }
}

struct Cursor<'a> {
    rows: RowsView<'a>,
    /// Local position bound at each global depth (`None` = column absent).
    pos: Vec<Option<usize>>,
    /// Row ranges: `stack[d]` is the candidate range while searching depth
    /// `d`; pushed down to the value run on descent.
    stack: Vec<(usize, usize)>,
}

impl Cursor<'_> {
    /// First row in `[lo, hi)` whose value at `pos` is ≥ `target` (the
    /// range is sorted at `pos`: earlier positions are constant in it).
    fn lower_bound(&self, mut lo: usize, mut hi: usize, pos: usize, target: Value) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.rows.get(mid, pos) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// End of the run of rows equal to `v` at `pos`, starting at `lo`.
    fn run_end(&self, mut lo: usize, mut hi: usize, pos: usize, v: Value) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.rows.get(mid, pos) <= v {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Joins all inputs simultaneously with leapfrog intersection, returning
/// the natural join over the sorted union of their columns — semantically
/// identical to folding [`Bindings::join`], without the pairwise
/// intermediates. Runtime is worst-case optimal in the AGM sense for the
/// fixed ascending variable order.
pub fn wcoj_join(inputs: &[WcojInput]) -> Bindings {
    // Sorted union of columns = the global variable order.
    let mut vars: Vec<Col> = inputs.iter().flat_map(|i| i.cols.iter().copied()).collect();
    vars.sort_unstable();
    vars.dedup();

    // A nullary input (all-constant atom) is a filter: empty kills the
    // join, the unit row is a no-op.
    if inputs.iter().any(|i| i.rows.len() == 0) {
        return Bindings::from_sorted_rows(vars, Vec::new());
    }
    if vars.is_empty() {
        return Bindings::unit();
    }

    let mut cursors: Vec<Cursor> = inputs
        .iter()
        .filter(|i| !i.cols.is_empty())
        .map(|i| {
            debug_assert!(i.cols.windows(2).all(|w| w[0] < w[1]));
            let pos = vars
                .iter()
                .map(|v| i.cols.iter().position(|c| c == v))
                .collect();
            Cursor {
                rows: i.rows,
                pos,
                stack: vec![(0, i.rows.len())],
            }
        })
        .collect();
    // Which cursors participate at each depth.
    let active: Vec<Vec<usize>> = (0..vars.len())
        .map(|d| {
            (0..cursors.len())
                .filter(|&c| cursors[c].pos[d].is_some())
                .collect()
        })
        .collect();

    let mut out: Vec<Tuple> = Vec::new();
    let mut current = vec![Value(0); vars.len()];
    descend(0, &active, &mut cursors, &mut current, &mut out);
    Bindings::from_sorted_rows(vars, out)
}

fn descend(
    depth: usize,
    active: &[Vec<usize>],
    cursors: &mut [Cursor],
    current: &mut Vec<Value>,
    out: &mut Vec<Tuple>,
) {
    // Work on a *copy* of each participating cursor's current range: the
    // level loop advances its frame destructively, and the same range must
    // be re-enterable from a sibling branch one level up.
    for &c in &active[depth] {
        let top = *cursors[c].stack.last().unwrap();
        cursors[c].stack.push(top);
    }
    level_loop(depth, active, cursors, current, out);
    for &c in &active[depth] {
        cursors[c].stack.pop();
    }
}

fn level_loop(
    depth: usize,
    active: &[Vec<usize>],
    cursors: &mut [Cursor],
    current: &mut Vec<Value>,
    out: &mut Vec<Tuple>,
) {
    let level = &active[depth];
    debug_assert!(!level.is_empty(), "a union column belongs to some input");
    // Initial candidate: the max of the cursors' first values.
    let mut val = Value(0);
    for &c in level {
        let (lo, hi) = *cursors[c].stack.last().unwrap();
        if lo == hi {
            return;
        }
        let p = cursors[c].pos[depth].unwrap();
        val = val.max(cursors[c].rows.get(lo, p));
    }
    let mut ends = vec![0usize; level.len()];
    'level: loop {
        // Leapfrog: align every cursor on `val`, raising `val` whenever a
        // seek overshoots, until all agree (or one exhausts).
        let mut aligned = 0;
        let mut k = 0;
        while aligned < level.len() {
            let c = level[k % level.len()];
            let p = cursors[c].pos[depth].unwrap();
            let (lo, hi) = *cursors[c].stack.last().unwrap();
            let nlo = cursors[c].lower_bound(lo, hi, p, val);
            if nlo == hi {
                return;
            }
            cursors[c].stack.last_mut().unwrap().0 = nlo;
            let v = cursors[c].rows.get(nlo, p);
            if v == val {
                aligned += 1;
            } else {
                val = v;
                aligned = 1;
            }
            k += 1;
        }
        // Match: push each cursor's value run and go one level deeper.
        for (i, &c) in level.iter().enumerate() {
            let p = cursors[c].pos[depth].unwrap();
            let (lo, hi) = *cursors[c].stack.last().unwrap();
            let end = cursors[c].run_end(lo, hi, p, val);
            ends[i] = end;
            cursors[c].stack.push((lo, end));
        }
        current[depth] = val;
        if depth + 1 == current.len() {
            out.push(current.clone().into_boxed_slice());
        } else {
            descend(depth + 1, active, cursors, current, out);
        }
        // Pop the runs and advance past `val`. Pop *every* cursor before
        // returning on exhaustion — a mid-loop return would leave sibling
        // runs pushed and corrupt the parent's range stack.
        let mut exhausted = false;
        for (i, &c) in level.iter().enumerate() {
            cursors[c].stack.pop();
            let top = cursors[c].stack.last_mut().unwrap();
            top.0 = ends[i];
            exhausted |= top.0 == top.1;
        }
        if exhausted {
            return;
        }
        val = Value(0);
        for &c in level {
            let (lo, _) = *cursors[c].stack.last().unwrap();
            let p = cursors[c].pos[depth].unwrap();
            val = val.max(cursors[c].rows.get(lo, p));
        }
        continue 'level;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColTerm;

    fn b(cols: &[Col], rows: &[&[u32]]) -> Bindings {
        Bindings::from_rows(
            cols.to_vec(),
            rows.iter()
                .map(|r| r.iter().map(|&v| Value(v)).collect())
                .collect(),
        )
    }

    fn fold_join(inputs: &[&Bindings]) -> Bindings {
        let mut acc = Bindings::unit();
        for i in inputs {
            acc = acc.join(i);
        }
        acc
    }

    fn check_parity(inputs: &[&Bindings]) {
        let views: Vec<WcojInput> = inputs.iter().map(|b| WcojInput::from_bindings(b)).collect();
        assert_eq!(wcoj_join(&views), fold_join(inputs));
    }

    #[test]
    fn triangle() {
        let r = b(&[0, 1], &[&[1, 2], &[2, 3], &[1, 3], &[3, 1]]);
        let s = b(&[1, 2], &[&[2, 3], &[3, 1], &[3, 4]]);
        let t = b(&[0, 2], &[&[1, 3], &[2, 1], &[1, 4]]);
        check_parity(&[&r, &s, &t]);
        let views = [
            WcojInput::from_bindings(&r),
            WcojInput::from_bindings(&s),
            WcojInput::from_bindings(&t),
        ];
        let out = wcoj_join(&views);
        assert_eq!(out.cols(), &[0, 1, 2]);
        assert!(!out.rows().is_empty());
    }

    #[test]
    fn disjoint_columns_cross_product() {
        let r = b(&[0], &[&[1], &[2]]);
        let s = b(&[3], &[&[5], &[6], &[7]]);
        check_parity(&[&r, &s]);
    }

    #[test]
    fn empty_input_empties_the_join() {
        let r = b(&[0, 1], &[&[1, 2]]);
        let s = b(&[1, 2], &[]);
        let views = [WcojInput::from_bindings(&r), WcojInput::from_bindings(&s)];
        assert!(wcoj_join(&views).rows().is_empty());
    }

    #[test]
    fn nullary_inputs_are_filters() {
        let unit = Bindings::unit();
        let r = b(&[0], &[&[1], &[2]]);
        let views = [
            WcojInput::from_bindings(&unit),
            WcojInput::from_bindings(&r),
        ];
        assert_eq!(wcoj_join(&views), r);
    }

    #[test]
    fn single_input_is_identity() {
        let r = b(&[2, 5], &[&[1, 2], &[3, 4]]);
        let views = [WcojInput::from_bindings(&r)];
        assert_eq!(wcoj_join(&views), r);
    }

    #[test]
    fn skewed_multiplicities() {
        // Repeated join values exercise the run ranges (non-unit runs at
        // inner depths).
        let r = b(&[0, 1], &[&[1, 1], &[1, 2], &[1, 3], &[2, 1]]);
        let s = b(&[1, 2], &[&[1, 9], &[2, 9], &[3, 9], &[3, 8]]);
        let t = b(&[0, 2], &[&[1, 9], &[2, 9], &[1, 8]]);
        check_parity(&[&r, &s, &t]);
    }

    #[test]
    fn four_cycle_parity() {
        // X0-X1-X2-X3-X0: the shape random_cyclic_query generates.
        let mut e = Vec::new();
        let mut x = 7u32;
        for _ in 0..50 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            e.push([x % 8, (x >> 8) % 8]);
        }
        let rows: Vec<&[u32]> = e.iter().map(|r| &r[..]).collect();
        let e01 = b(&[0, 1], &rows);
        let e12 = b(&[1, 2], &rows);
        let e23 = b(&[2, 3], &rows);
        let e03 = b(&[0, 3], &rows);
        check_parity(&[&e01, &e12, &e23, &e03]);
    }

    #[test]
    fn frozen_page_join_runs_on_mapped_bytes() {
        use crate::{store, Database};
        let mut db = Database::new();
        for (x, y) in [(1u32, 2u32), (2, 3), (3, 1), (1, 3), (3, 4)] {
            db.add_fact("e", &[&x.to_string(), &y.to_string()]);
        }
        let loaded = store::load_store_bytes(&store::encode_store(&db, 0, 0)).unwrap();
        let rel = loaded.db.relation("e").unwrap();
        assert!(rel.is_frozen());
        // Triangle over the frozen page directly (cols ascending per atom
        // pattern) must match evaluating through Bindings::from_atom.
        let (c01, c12, c02) = ([0u32, 1], [1u32, 2], [0u32, 2]);
        let views = [
            WcojInput::from_frozen(rel, &c01).unwrap(),
            WcojInput::from_frozen(rel, &c12).unwrap(),
            WcojInput::from_frozen(rel, &c02).unwrap(),
        ];
        let direct = wcoj_join(&views);
        let atom = |cols: [u32; 2]| {
            Bindings::from_atom(rel, &[ColTerm::Var(cols[0]), ColTerm::Var(cols[1])])
        };
        let folded = atom(c01).join(&atom(c12)).join(&atom(c02));
        assert_eq!(direct, folded);
        // Heap relations have no sorted page to borrow.
        let mut heap = Relation::new(2);
        heap.insert(vec![Value(1), Value(2)]);
        assert!(WcojInput::from_frozen(&heap, &c01).is_none());
    }
}
