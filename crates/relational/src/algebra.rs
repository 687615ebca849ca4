//! Sets of substitutions and the relational algebra of Section 2.
//!
//! A [`Bindings`] value is a set of substitutions `θ : cols → Values` over a
//! fixed, sorted column list — the paper's sets `S` of substitutions with
//! domain `W`. The operations are exactly those the paper uses: natural join
//! `S₁ ⋈ S₂`, semijoin `S₁ ⋉ S₂ = π_{W₁}(S₁ ⋈ S₂)`, projection `π_W`, and
//! selection `σ_θ`.
//!
//! The representation is canonical (columns ascending, rows sorted and
//! deduplicated), so `Bindings` values can be compared, hashed and used as
//! the `#`-relation elements of the Pichler–Skritek algorithm (Figure 13).
//!
//! # Kernel design
//!
//! The join and grouping kernels never materialize per-row keys. Each
//! operation first builds a small *plan* from the two (sorted) column lists
//! — shared positions, output layout — and then works on the rows through
//! position-indexed comparators over borrowed slices. Joins run as
//! sort-merge over key-grouped row indices; when the shared columns are a
//! prefix of a side's column list, the canonical row order *is* key order
//! and the grouping sort is skipped entirely (the sort-merge fast path).
//!
//! Semijoins hash instead: the probe side's shared-column key is hashed
//! once — packed into one `u128` for up to four columns, materialized
//! exactly beyond that — and each kept-side row is a single set lookup.
//! The in-place form [`Bindings::semijoin_in_place`] `retain`s the
//! matching rows, so the full reducer shrinks views without copying a row.
//! Every kernel runs sequentially on the calling thread: counting
//! parallelizes across decomposition bags (`cqcount_core::sharp`), never
//! inside one operator, so there is no chunking and nothing to stitch.

use crate::fxhash::FxHashSet;
use crate::{Col, Relation, Tuple, Value};
use cqcount_obs as obs;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Total size in bytes of the tuples a result materializes, for the
/// `bytes_out` span counter.
fn bytes_of(b: &Bindings) -> u64 {
    (b.rows.len() * b.cols.len() * std::mem::size_of::<Value>()) as u64
}

/// A term in an atom evaluation: a column (variable) or a constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColTerm {
    /// A variable, identified by its column id.
    Var(Col),
    /// A constant value.
    Const(Value),
}

/// A set of substitutions over a sorted column list.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Bindings {
    cols: Vec<Col>,
    /// Sorted, deduplicated rows; `rows[i][j]` is the value of `cols[j]`.
    rows: Vec<Tuple>,
}

/// Compares two rows by their values at the given position lists
/// (`a[apos[k]]` vs `b[bpos[k]]`), without materializing either key.
#[inline]
fn cmp_keys(a: &[Value], apos: &[usize], b: &[Value], bpos: &[usize]) -> Ordering {
    debug_assert_eq!(apos.len(), bpos.len());
    for (&pa, &pb) in apos.iter().zip(bpos) {
        match a[pa].cmp(&b[pb]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// True iff `positions` is exactly `0..positions.len()` — the key columns
/// are a prefix of the row, so canonical (lexicographic) row order is
/// already key order.
#[inline]
fn is_prefix(positions: &[usize]) -> bool {
    positions.iter().enumerate().all(|(i, &p)| i == p)
}

/// Row indices of `rows` arranged so equal keys (values at `positions`)
/// are contiguous and key-ascending, plus the `(start, end)` group bounds.
/// Skips the sort when the key is a row prefix (canonical order suffices).
fn key_groups(rows: &[Tuple], positions: &[usize]) -> (Vec<u32>, Vec<(u32, u32)>) {
    let mut order: Vec<u32> = (0..rows.len() as u32).collect();
    if !is_prefix(positions) {
        // Stable: rows are globally sorted, so equal-key runs stay in
        // canonical row order, which partition_by relies on.
        order
            .sort_by(|&a, &b| cmp_keys(&rows[a as usize], positions, &rows[b as usize], positions));
    }
    let mut groups = Vec::new();
    let mut start = 0u32;
    for i in 1..=order.len() as u32 {
        let boundary = i == order.len() as u32
            || cmp_keys(
                &rows[order[start as usize] as usize],
                positions,
                &rows[order[i as usize] as usize],
                positions,
            ) != Ordering::Equal;
        if boundary {
            groups.push((start, i));
            start = i;
        }
    }
    (order, groups)
}

/// Precomputed layout for `self ⋈ other`: shared key positions on both
/// sides and, for every output column (sorted union), which side and
/// position it is read from.
struct JoinPlan {
    lpos: Vec<usize>,
    rpos: Vec<usize>,
    out_cols: Vec<Col>,
    /// `(from_left, position)` per output column, in output order.
    emit: Vec<(bool, usize)>,
}

impl JoinPlan {
    fn new(lcols: &[Col], rcols: &[Col]) -> JoinPlan {
        let mut plan = JoinPlan {
            lpos: Vec::new(),
            rpos: Vec::new(),
            out_cols: Vec::with_capacity(lcols.len() + rcols.len()),
            emit: Vec::with_capacity(lcols.len() + rcols.len()),
        };
        let (mut i, mut j) = (0, 0);
        while i < lcols.len() && j < rcols.len() {
            match lcols[i].cmp(&rcols[j]) {
                Ordering::Less => {
                    plan.out_cols.push(lcols[i]);
                    plan.emit.push((true, i));
                    i += 1;
                }
                Ordering::Greater => {
                    plan.out_cols.push(rcols[j]);
                    plan.emit.push((false, j));
                    j += 1;
                }
                Ordering::Equal => {
                    plan.lpos.push(i);
                    plan.rpos.push(j);
                    plan.out_cols.push(lcols[i]);
                    plan.emit.push((true, i));
                    i += 1;
                    j += 1;
                }
            }
        }
        for (p, &c) in lcols.iter().enumerate().skip(i) {
            plan.out_cols.push(c);
            plan.emit.push((true, p));
        }
        for (p, &c) in rcols.iter().enumerate().skip(j) {
            plan.out_cols.push(c);
            plan.emit.push((false, p));
        }
        plan
    }

    /// Emits the combined tuple for a matched row pair, directly in output
    /// column order — one allocation per output row, nothing else.
    #[inline]
    fn emit_row(&self, lrow: &[Value], rrow: &[Value]) -> Tuple {
        self.emit
            .iter()
            .map(|&(from_left, p)| if from_left { lrow[p] } else { rrow[p] })
            .collect()
    }
}

/// Both projection forms under the one `algebra.project` span.
fn project_traced(src: Cow<'_, Bindings>, keep: &[Col]) -> Bindings {
    let sp = obs::trace::span("algebra.project");
    if sp.is_armed() {
        sp.add("rows_in", src.rows.len() as u64);
    }
    let out = Bindings::project_map(src, keep);
    if sp.is_armed() {
        sp.add("rows_out", out.rows.len() as u64);
        sp.add("bytes_out", bytes_of(&out));
    }
    out
}

/// Packs up to four key values into one integer: a `Value` is a `u32`, so
/// four fit a `u128` exactly and the packing is injective for a fixed key
/// width.
#[inline]
fn pack_key(row: &[Value], positions: &[usize]) -> u128 {
    positions
        .iter()
        .fold(0, |key, &p| (key << 32) | u128::from(row[p].0))
}

/// The probe side of a semijoin, hashed once on its shared-column key.
enum KeySet {
    /// No shared columns: a left row matches iff the probe side is nonempty.
    Disjoint(bool),
    /// At most four shared columns, packed by [`pack_key`].
    Packed(FxHashSet<u128>),
    /// Wider keys, materialized exactly.
    Wide(FxHashSet<Tuple>),
}

/// A semijoin's probe plan: the key positions on the kept side and the
/// hashed keys of the other side, built and used under the one
/// `algebra.semijoin` span both semijoin forms share.
struct SemijoinProbe {
    lpos: Vec<usize>,
    keys: KeySet,
    probes: usize,
    sp: obs::trace::Span,
}

impl SemijoinProbe {
    fn new(left: &Bindings, right: &Bindings) -> SemijoinProbe {
        let sp = obs::trace::span("algebra.semijoin");
        if sp.is_armed() {
            sp.add("rows_left", left.rows.len() as u64);
            sp.add("rows_right", right.rows.len() as u64);
        }
        let (lpos, rpos) = left.shared_positions(right);
        let keys = if lpos.is_empty() {
            KeySet::Disjoint(!right.is_empty())
        } else if lpos.len() <= 4 {
            let mut set = FxHashSet::default();
            let mut last = None;
            for row in &right.rows {
                // Equal keys sit side by side when the key is a row prefix.
                let key = pack_key(row, &rpos);
                if last.replace(key) != Some(key) {
                    set.insert(key);
                }
            }
            KeySet::Packed(set)
        } else {
            KeySet::Wide(
                right
                    .rows
                    .iter()
                    .map(|r| rpos.iter().map(|&p| r[p]).collect())
                    .collect(),
            )
        };
        SemijoinProbe {
            lpos,
            keys,
            probes: left.rows.len(),
            sp,
        }
    }

    /// Closes the span on the semijoin's result.
    fn finish(self, out: &Bindings) {
        if self.sp.is_armed() {
            self.sp.add("probes", self.probes as u64);
            self.sp.add("rows_out", out.rows.len() as u64);
            self.sp.add("bytes_out", bytes_of(out));
        }
    }

    /// Does `row`'s key occur on the probe side?
    #[inline]
    fn matches(&self, row: &[Value]) -> bool {
        match &self.keys {
            KeySet::Disjoint(nonempty) => *nonempty,
            KeySet::Packed(set) => set.contains(&pack_key(row, &self.lpos)),
            KeySet::Wide(set) => {
                set.contains(&self.lpos.iter().map(|&p| row[p]).collect::<Tuple>())
            }
        }
    }
}

impl Bindings {
    /// The unit: zero columns, one (empty) substitution. Identity for ⋈.
    pub fn unit() -> Bindings {
        Bindings {
            cols: vec![],
            rows: vec![Box::new([])],
        }
    }

    /// No substitutions at all over the given columns.
    pub fn empty(mut cols: Vec<Col>) -> Bindings {
        cols.sort_unstable();
        cols.dedup();
        Bindings { cols, rows: vec![] }
    }

    /// Builds a bindings set from a column list and rows (one value per
    /// column, in the order given). Columns are sorted, rows permuted
    /// accordingly, then sorted and deduplicated.
    ///
    /// Panics on duplicate columns or row arity mismatch.
    pub fn from_rows(cols: Vec<Col>, rows: Vec<Vec<Value>>) -> Bindings {
        let mut order: Vec<usize> = (0..cols.len()).collect();
        order.sort_unstable_by_key(|&i| cols[i]);
        let sorted_cols: Vec<Col> = order.iter().map(|&i| cols[i]).collect();
        assert!(
            sorted_cols.windows(2).all(|w| w[0] < w[1]),
            "duplicate columns in Bindings::from_rows"
        );
        let out: Vec<Tuple> = rows
            .into_iter()
            .map(|r| {
                assert_eq!(r.len(), order.len(), "row arity mismatch");
                order.iter().map(|&i| r[i]).collect()
            })
            .collect();
        Bindings::from_parts(sorted_cols, out)
    }

    /// Wraps rows the caller guarantees are already sorted, distinct, and
    /// in sorted column order — the wcoj kernel emits in exactly that
    /// order, so canonicalization is free there.
    pub(crate) fn from_sorted_rows(cols: Vec<Col>, rows: Vec<Tuple>) -> Bindings {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        Bindings { cols, rows }
    }

    /// Canonicalizes pre-permuted rows: sort + dedup over sorted columns.
    fn from_parts(cols: Vec<Col>, mut rows: Vec<Tuple>) -> Bindings {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        rows.sort_unstable();
        rows.dedup();
        Bindings { cols, rows }
    }

    /// Evaluates an atom `r(t₁, ..., tρ)` against a stored relation:
    /// constants are matched, repeated variables force equality, and the
    /// result is the set of substitutions over the atom's distinct columns.
    ///
    /// Panics if `terms.len() != relation.arity()`.
    pub fn from_atom(relation: &Relation, terms: &[ColTerm]) -> Bindings {
        assert_eq!(terms.len(), relation.arity(), "atom arity mismatch");
        let sp = obs::trace::span("algebra.scan");
        if sp.is_armed() {
            sp.add("rows_in", relation.len() as u64);
        }
        // Per-position action, precomputed once (not per tuple): constants
        // to match, repeated variables to check against their first
        // occurrence, and nothing for first occurrences themselves.
        enum Check {
            Const(Value),
            EqPos(usize),
            None,
        }
        let mut cols: Vec<Col> = Vec::new();
        let mut first_pos: Vec<usize> = Vec::new();
        let mut checks: Vec<Check> = Vec::with_capacity(terms.len());
        for (i, t) in terms.iter().enumerate() {
            match t {
                ColTerm::Const(v) => checks.push(Check::Const(*v)),
                ColTerm::Var(c) => match cols.iter().position(|x| x == c) {
                    Some(k) => checks.push(Check::EqPos(first_pos[k])),
                    None => {
                        cols.push(*c);
                        first_pos.push(i);
                        checks.push(Check::None);
                    }
                },
            }
        }
        // Emit rows directly in sorted column order.
        let mut order: Vec<usize> = (0..cols.len()).collect();
        order.sort_unstable_by_key(|&i| cols[i]);
        let sorted_cols: Vec<Col> = order.iter().map(|&i| cols[i]).collect();
        let emit_pos: Vec<usize> = order.iter().map(|&i| first_pos[i]).collect();
        // The scan reads borrowed row slices straight out of the
        // relation's flat value array — for a frozen relation that is the
        // mapped page itself, no copy.
        let rows: Vec<Tuple> = (0..relation.len())
            .map(|i| relation.row(i))
            .filter(|tup| {
                checks.iter().enumerate().all(|(i, c)| match c {
                    Check::Const(v) => tup[i] == *v,
                    Check::EqPos(p) => tup[i] == tup[*p],
                    Check::None => true,
                })
            })
            .map(|tup| emit_pos.iter().map(|&p| tup[p]).collect())
            .collect();
        let out = Bindings::from_parts(sorted_cols, rows);
        if sp.is_armed() {
            sp.add("rows_out", out.rows.len() as u64);
            sp.add("bytes_out", bytes_of(&out));
        }
        out
    }

    /// The (sorted) column list.
    pub fn cols(&self) -> &[Col] {
        &self.cols
    }

    /// The canonical (sorted) rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Number of substitutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` iff there are no substitutions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Returns `true` iff the given row (in column order) is present.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.rows.binary_search_by(|t| t.as_ref().cmp(row)).is_ok()
    }

    /// Positions in `self.cols` / `other.cols` of the shared columns.
    fn shared_positions(&self, other: &Bindings) -> (Vec<usize>, Vec<usize>) {
        let mut left = Vec::new();
        let mut right = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.cols.len() && j < other.cols.len() {
            match self.cols[i].cmp(&other.cols[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    left.push(i);
                    right.push(j);
                    i += 1;
                    j += 1;
                }
            }
        }
        (left, right)
    }

    /// Natural join `self ⋈ other` — sort-merge over key-grouped row
    /// indices. No per-row key tuples are ever allocated: grouping and the
    /// merge compare values in place through the position plans, and each
    /// output row is built in one shot in canonical column order.
    pub fn join(&self, other: &Bindings) -> Bindings {
        let sp = obs::trace::span("algebra.join");
        if sp.is_armed() {
            sp.add("rows_left", self.rows.len() as u64);
            sp.add("rows_right", other.rows.len() as u64);
        }
        let out = self.join_merge(other, &sp);
        if sp.is_armed() {
            sp.add("rows_out", out.rows.len() as u64);
            sp.add("bytes_out", bytes_of(&out));
        }
        out
    }

    fn join_merge(&self, other: &Bindings, sp: &obs::trace::Span) -> Bindings {
        let plan = JoinPlan::new(&self.cols, &other.cols);
        if plan.lpos.is_empty() {
            return self.cross_product(other, &plan);
        }
        let (lorder, lgroups) = key_groups(&self.rows, &plan.lpos);
        let (rorder, rgroups) = key_groups(&other.rows, &plan.rpos);
        // Merge the two key-sorted group lists into matched group pairs.
        let mut matches: Vec<((u32, u32), (u32, u32))> = Vec::new();
        let mut comparisons = 0u64;
        let (mut gi, mut gj) = (0, 0);
        while gi < lgroups.len() && gj < rgroups.len() {
            let lrow = &self.rows[lorder[lgroups[gi].0 as usize] as usize];
            let rrow = &other.rows[rorder[rgroups[gj].0 as usize] as usize];
            comparisons += 1;
            match cmp_keys(lrow, &plan.lpos, rrow, &plan.rpos) {
                Ordering::Less => gi += 1,
                Ordering::Greater => gj += 1,
                Ordering::Equal => {
                    matches.push((lgroups[gi], rgroups[gj]));
                    gi += 1;
                    gj += 1;
                }
            }
        }
        if sp.is_armed() {
            sp.add("merge_comparisons", comparisons);
        }
        // Emit the per-pair products of every matched group pair.
        let mut rows = Vec::new();
        for ((ls, le), (rs, re)) in matches {
            for &li in &lorder[ls as usize..le as usize] {
                let lrow = &self.rows[li as usize];
                for &ri in &rorder[rs as usize..re as usize] {
                    rows.push(plan.emit_row(lrow, &other.rows[ri as usize]));
                }
            }
        }
        Bindings::from_parts(plan.out_cols, rows)
    }

    /// Cartesian product (a join with no shared columns).
    fn cross_product(&self, other: &Bindings, plan: &JoinPlan) -> Bindings {
        let mut rows = Vec::with_capacity(self.rows.len() * other.rows.len());
        for lrow in &self.rows {
            for rrow in &other.rows {
                rows.push(plan.emit_row(lrow, rrow));
            }
        }
        Bindings::from_parts(plan.out_cols.clone(), rows)
    }

    /// Semijoin `self ⋉ other = π_{cols(self)}(self ⋈ other)`.
    ///
    /// The same hash probe as [`Bindings::semijoin_in_place`]; kept rows
    /// are a subsequence of the canonical rows, so the result needs no
    /// re-sort.
    pub fn semijoin(&self, other: &Bindings) -> Bindings {
        let probe = SemijoinProbe::new(self, other);
        let out = Bindings {
            cols: self.cols.clone(),
            rows: self
                .rows
                .iter()
                .filter(|row| probe.matches(row))
                .cloned()
                .collect(),
        };
        probe.finish(&out);
        out
    }

    /// In-place semijoin `self ← self ⋉ other`: drops the rows of `self`
    /// whose shared-column key does not occur in `other`. No row is cloned
    /// and the survivors keep canonical order.
    pub fn semijoin_in_place(&mut self, other: &Bindings) {
        let probe = SemijoinProbe::new(self, other);
        self.rows.retain(|row| probe.matches(row));
        probe.finish(self);
    }

    /// Positions of `self.cols` entries present in `keep`, via a sorted
    /// merge walk (O(|cols| + |keep| log |keep|), not O(|cols|·|keep|)).
    fn keep_positions(&self, keep: &[Col]) -> Vec<usize> {
        let mut sorted_keep = keep.to_vec();
        sorted_keep.sort_unstable();
        sorted_keep.dedup();
        let mut positions = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.cols.len() && j < sorted_keep.len() {
            match self.cols[i].cmp(&sorted_keep[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    positions.push(i);
                    i += 1;
                    j += 1;
                }
            }
        }
        positions
    }

    /// Projection `π_keep(self)` (columns not present are ignored).
    pub fn project(&self, keep: &[Col]) -> Bindings {
        project_traced(Cow::Borrowed(self), keep)
    }

    /// Projection by value: like [`Bindings::project`], but hands `self`
    /// back untouched, with no copy, when it keeps every column.
    pub fn into_project(self, keep: &[Col]) -> Bindings {
        project_traced(Cow::Owned(self), keep)
    }

    fn project_map(src: Cow<'_, Bindings>, keep: &[Col]) -> Bindings {
        let positions = src.keep_positions(keep);
        if positions.len() == src.cols.len() {
            return src.into_owned(); // projecting onto all columns: no-op
        }
        let out_cols: Vec<Col> = positions.iter().map(|&p| src.cols[p]).collect();
        if is_prefix(&positions) {
            // Prefix projection preserves canonical order: equal prefixes
            // are adjacent, so each distinct one is copied once.
            let k = positions.len();
            let mut rows: Vec<Tuple> = Vec::new();
            for r in &src.rows {
                if rows.last().is_none_or(|last| **last != r[..k]) {
                    rows.push(r[..k].into());
                }
            }
            return Bindings {
                cols: out_cols,
                rows,
            };
        }
        let rows: Vec<Tuple> = src
            .rows
            .iter()
            .map(|r| positions.iter().map(|&p| r[p]).collect())
            .collect();
        Bindings::from_parts(out_cols, rows)
    }

    /// Selection `σ_{col = value}`.
    pub fn select_eq(&self, col: Col, value: Value) -> Bindings {
        let Ok(pos) = self.cols.binary_search(&col) else {
            return self.clone();
        };
        Bindings {
            cols: self.cols.clone(),
            rows: self
                .rows
                .iter()
                .filter(|r| r[pos] == value)
                .cloned()
                .collect(),
        }
    }

    /// Selection by a full sub-tuple over a set of columns: keeps the rows
    /// whose projection onto `sel.cols` equals `sel`'s single row. This is
    /// the paper's `σ_θ(S)`.
    pub fn select_theta(&self, theta_cols: &[Col], theta: &[Value]) -> Bindings {
        let positions: Vec<usize> = theta_cols
            .iter()
            .map(|c| {
                self.cols
                    .binary_search(c)
                    .expect("theta column not present")
            })
            .collect();
        Bindings {
            cols: self.cols.clone(),
            rows: self
                .rows
                .iter()
                .filter(|r| positions.iter().zip(theta).all(|(&p, v)| r[p] == *v))
                .cloned()
                .collect(),
        }
    }

    /// Groups the rows by their projection onto `group_cols ∩ cols`,
    /// returning `(key, σ_key(self))` pairs in key order — the
    /// initialization step `R_p⁰ = { σ_θ(r_p) | θ ∈ π_F(r_p) }` of
    /// Figure 13. Group keys are materialized once per *group* (not per
    /// row); when the group columns are a prefix, the canonical row order
    /// is already grouped and nothing is sorted or hashed at all.
    pub fn partition_by(&self, group_cols: &[Col]) -> Vec<(Tuple, Bindings)> {
        let positions = self.keep_positions(group_cols);
        let (order, groups) = key_groups(&self.rows, &positions);
        groups
            .into_iter()
            .map(|(start, end)| {
                let rows: Vec<Tuple> = order[start as usize..end as usize]
                    .iter()
                    .map(|&i| self.rows[i as usize].clone())
                    .collect();
                let first = &rows[0];
                let key: Tuple = positions.iter().map(|&p| first[p]).collect();
                debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
                (
                    key,
                    Bindings {
                        cols: self.cols.clone(),
                        rows,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u32) -> Value {
        Value(id)
    }

    /// The straw-man hash join, kept as a test oracle for the sort-merge
    /// kernel: hashes a materialized `Vec<Value>` key per row into a per-call
    /// table, then permutes each output row through a column order.
    fn join_hash_baseline(left: &Bindings, right: &Bindings) -> Bindings {
        let (lpos, rpos) = left.shared_positions(right);
        let key_of = |row: &Tuple, positions: &[usize]| -> Vec<Value> {
            positions.iter().map(|&p| row[p]).collect()
        };
        let mut index: crate::fxhash::FxHashMap<Vec<Value>, Vec<&Tuple>> = Default::default();
        for row in &right.rows {
            index.entry(key_of(row, &rpos)).or_default().push(row);
        }
        let mut out_cols: Vec<Col> = left.cols.clone();
        let extra_positions: Vec<usize> = (0..right.cols.len())
            .filter(|p| !rpos.contains(p))
            .collect();
        out_cols.extend(extra_positions.iter().map(|&p| right.cols[p]));
        let col_order: Vec<usize> = {
            let mut order: Vec<usize> = (0..out_cols.len()).collect();
            order.sort_unstable_by_key(|&i| out_cols[i]);
            order
        };
        let mut rows = Vec::new();
        for lrow in &left.rows {
            if let Some(matches) = index.get(&key_of(lrow, &lpos)) {
                for rrow in matches {
                    let combined: Vec<Value> = lrow
                        .iter()
                        .copied()
                        .chain(extra_positions.iter().map(|&p| rrow[p]))
                        .collect();
                    let tuple: Tuple = col_order.iter().map(|&i| combined[i]).collect();
                    rows.push(tuple);
                }
            }
        }
        rows.sort_unstable();
        rows.dedup();
        let sorted_cols: Vec<Col> = col_order.iter().map(|&i| out_cols[i]).collect();
        Bindings {
            cols: sorted_cols,
            rows,
        }
    }

    /// The sort-and-binary-search semijoin the hash kernel replaced, kept
    /// as a test oracle: sorts a row-index permutation of `right` by its
    /// shared key (identity when the key is a prefix) and binary-searches
    /// it once per row of `left`.
    fn semijoin_sort_probe(left: &Bindings, right: &Bindings) -> Bindings {
        let (lpos, rpos) = left.shared_positions(right);
        if lpos.is_empty() {
            let rows = if right.is_empty() {
                vec![]
            } else {
                left.rows.clone()
            };
            return Bindings {
                cols: left.cols.clone(),
                rows,
            };
        }
        let mut rorder: Vec<u32> = (0..right.rows.len() as u32).collect();
        if !is_prefix(&rpos) {
            rorder.sort_unstable_by(|&a, &b| {
                cmp_keys(
                    &right.rows[a as usize],
                    &rpos,
                    &right.rows[b as usize],
                    &rpos,
                )
            });
        }
        let rows = left
            .rows
            .iter()
            .filter(|row| {
                rorder
                    .binary_search_by(|&ri| cmp_keys(&right.rows[ri as usize], &rpos, row, &lpos))
                    .is_ok()
            })
            .cloned()
            .collect();
        Bindings {
            cols: left.cols.clone(),
            rows,
        }
    }

    fn b(cols: &[Col], rows: &[&[u32]]) -> Bindings {
        Bindings::from_rows(
            cols.to_vec(),
            rows.iter()
                .map(|r| r.iter().map(|&x| v(x)).collect())
                .collect(),
        )
    }

    #[test]
    fn canonicalization() {
        // Columns get sorted and rows permuted to match.
        let x = Bindings::from_rows(vec![2, 1], vec![vec![v(20), v(10)]]);
        assert_eq!(x.cols(), &[1, 2]);
        assert_eq!(x.rows()[0].as_ref(), &[v(10), v(20)]);
        // Duplicate rows collapse.
        let y = b(&[1], &[&[5], &[5], &[6]]);
        assert_eq!(y.len(), 2);
    }

    #[test]
    fn unit_and_empty() {
        let u = Bindings::unit();
        assert_eq!(u.len(), 1);
        let r = b(&[1, 2], &[&[1, 2], &[3, 4]]);
        assert_eq!(u.join(&r), r);
        let e = Bindings::empty(vec![1]);
        assert!(e.is_empty());
        assert!(e.join(&r).is_empty());
    }

    #[test]
    fn join_on_shared_column() {
        let l = b(&[1, 2], &[&[1, 10], &[2, 20]]);
        let r = b(&[2, 3], &[&[10, 100], &[10, 101], &[30, 300]]);
        let j = l.join(&r);
        assert_eq!(j.cols(), &[1, 2, 3]);
        assert_eq!(j.len(), 2);
        assert!(j.contains(&[v(1), v(10), v(100)]));
        assert!(j.contains(&[v(1), v(10), v(101)]));
    }

    #[test]
    fn join_is_commutative() {
        let l = b(&[1, 2], &[&[1, 10], &[2, 20], &[3, 10]]);
        let r = b(&[2, 3], &[&[10, 100], &[20, 200]]);
        assert_eq!(l.join(&r), r.join(&l));
    }

    #[test]
    fn join_prefix_fast_path_matches_general() {
        // Shared column 1 is a prefix of the left (cols [1,2]) and of the
        // right (cols [1,3]): both sides take the no-sort fast path.
        let l = b(&[1, 2], &[&[1, 10], &[1, 11], &[2, 20]]);
        let r = b(&[1, 3], &[&[1, 7], &[2, 8], &[2, 9]]);
        let j = l.join(&r);
        assert_eq!(j.cols(), &[1, 2, 3]);
        assert_eq!(j.len(), 4);
        // Shared column 3 is a suffix on the left (cols [1,3]): general path.
        let l2 = b(&[1, 3], &[&[1, 7], &[2, 7], &[3, 8]]);
        let r2 = b(&[3], &[&[7]]);
        let j2 = l2.join(&r2);
        assert_eq!(j2.len(), 2);
        assert_eq!(j2, join_hash_baseline(&l2, &r2));
    }

    #[test]
    fn join_matches_hash_baseline() {
        let l = b(&[1, 2, 4], &[&[1, 10, 5], &[2, 20, 5], &[3, 10, 6]]);
        let r = b(&[2, 3], &[&[10, 100], &[10, 101], &[20, 200]]);
        assert_eq!(l.join(&r), join_hash_baseline(&l, &r));
        assert_eq!(r.join(&l), join_hash_baseline(&r, &l));
    }

    #[test]
    fn cartesian_product_when_disjoint() {
        let l = b(&[1], &[&[1], &[2]]);
        let r = b(&[2], &[&[10], &[20], &[30]]);
        assert_eq!(l.join(&r).len(), 6);
    }

    #[test]
    fn semijoin() {
        let l = b(&[1, 2], &[&[1, 10], &[2, 20], &[3, 30]]);
        let r = b(&[2], &[&[10], &[30]]);
        let s = l.semijoin(&r);
        assert_eq!(s.cols(), &[1, 2]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(&[v(1), v(10)]) && s.contains(&[v(3), v(30)]));
        // ⋉ equals π(⋈)
        assert_eq!(s, l.join(&r).project(&[1, 2]));
    }

    #[test]
    fn semijoin_no_shared_cols() {
        let l = b(&[1], &[&[1]]);
        assert_eq!(l.semijoin(&b(&[2], &[&[9]])), l);
        assert!(l.semijoin(&Bindings::empty(vec![2])).is_empty());
    }

    #[test]
    fn project() {
        let x = b(&[1, 2, 3], &[&[1, 10, 100], &[1, 10, 101], &[2, 20, 200]]);
        let p = x.project(&[1, 2]);
        assert_eq!(p.cols(), &[1, 2]);
        assert_eq!(p.len(), 2);
        // non-prefix projection exercises the re-sorting path
        let q = x.project(&[3]);
        assert_eq!(q.cols(), &[3]);
        assert_eq!(q.len(), 3);
        // projecting to nothing yields unit iff nonempty
        let all = x.project(&[]);
        assert_eq!(all, Bindings::unit());
        assert_eq!(Bindings::empty(vec![1]).project(&[]).len(), 0);
    }

    #[test]
    fn select() {
        let x = b(&[1, 2], &[&[1, 10], &[2, 20]]);
        assert_eq!(x.select_eq(1, v(1)).len(), 1);
        assert_eq!(x.select_eq(9, v(1)), x); // absent column: no-op
        let t = x.select_theta(&[1, 2], &[v(2), v(20)]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn from_atom_with_constants_and_repeats() {
        let r = Relation::from_rows(vec![
            vec![v(1), v(1), v(5)],
            vec![v(1), v(2), v(5)],
            vec![v(2), v(2), v(7)],
        ]);
        // r(X, X, 5): repeated variable + constant
        let out = Bindings::from_atom(
            &r,
            &[ColTerm::Var(0), ColTerm::Var(0), ColTerm::Const(v(5))],
        );
        assert_eq!(out.cols(), &[0]);
        assert_eq!(out.len(), 1);
        assert!(out.contains(&[v(1)]));
    }

    #[test]
    fn from_atom_emits_sorted_columns_for_unsorted_terms() {
        let r = Relation::from_rows(vec![vec![v(1), v(2)], vec![v(3), v(4)]]);
        // r(Y, X) with X < Y: output columns must still come back sorted.
        let out = Bindings::from_atom(&r, &[ColTerm::Var(7), ColTerm::Var(2)]);
        assert_eq!(out.cols(), &[2, 7]);
        assert!(out.contains(&[v(2), v(1)]));
        assert!(out.contains(&[v(4), v(3)]));
    }

    #[test]
    fn partition_by_groups() {
        let x = b(&[1, 2], &[&[1, 10], &[1, 11], &[2, 20]]);
        let parts = x.partition_by(&[1]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0.as_ref(), &[v(1)]);
        assert_eq!(parts[0].1.len(), 2);
        assert_eq!(parts[1].1.len(), 1);
        // partitioning by no columns returns one group with everything
        let whole = x.partition_by(&[]);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].1, x);
    }

    #[test]
    fn partition_by_non_prefix_keys_sorted() {
        let x = b(&[1, 2], &[&[1, 20], &[2, 10], &[3, 20]]);
        let parts = x.partition_by(&[2]);
        assert_eq!(parts.len(), 2);
        // Keys ascend even though column 2 is not a row prefix.
        assert_eq!(parts[0].0.as_ref(), &[v(10)]);
        assert_eq!(parts[1].0.as_ref(), &[v(20)]);
        assert_eq!(parts[1].1.len(), 2);
        // Rows within each group stay canonically sorted.
        for (_, g) in &parts {
            assert!(g.rows().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn large_join_matches_hash_baseline() {
        use cqcount_arith::prng::Rng;
        let mut rng = Rng::seed_from_u64(0xA11E);
        let mut lrows = Vec::new();
        let mut rrows = Vec::new();
        for _ in 0..6000 {
            lrows.push(vec![v(rng.range_u32(0, 50)), v(rng.range_u32(0, 50))]);
            rrows.push(vec![v(rng.range_u32(0, 50)), v(rng.range_u32(0, 50))]);
        }
        let l = Bindings::from_rows(vec![1, 2], lrows);
        let r = Bindings::from_rows(vec![2, 3], rrows);
        assert_eq!(l.join(&r), join_hash_baseline(&l, &r));
    }

    /// Random rows over `cols`, each value one of the first `domain`
    /// entries of a palette that sets the high and the low bits of a
    /// `u32`, so a key packing that drops or overlaps bits collides.
    fn random_bindings(
        rng: &mut cqcount_arith::prng::Rng,
        cols: &[Col],
        rows: usize,
        domain: u32,
    ) -> Bindings {
        const PALETTE: [u32; 3] = [0, u32::MAX, 1 << 31];
        let rows = (0..rows)
            .map(|_| {
                cols.iter()
                    .map(|_| v(PALETTE[rng.range_usize(0, domain as usize)]))
                    .collect()
            })
            .collect();
        Bindings::from_rows(cols.to_vec(), rows)
    }

    /// Both semijoin forms, the sort-probe oracle and `π(⋈)` must agree.
    fn assert_semijoin_parity(l: &Bindings, r: &Bindings) {
        let expect = semijoin_sort_probe(l, r);
        assert_eq!(l.semijoin(r), expect, "pinned form on {l:?} ⋉ {r:?}");
        let mut in_place = l.clone();
        in_place.semijoin_in_place(r);
        assert_eq!(in_place, expect, "in-place form on {l:?} ⋉ {r:?}");
        assert_eq!(l.join(r).project(l.cols()), expect, "π(⋈) on {l:?} ⋉ {r:?}");
    }

    #[test]
    fn semijoin_kernels_match_sort_probe_at_every_key_width() {
        use cqcount_arith::prng::Rng;
        let cases = if cfg!(feature = "exhaustive-tests") {
            400
        } else {
            60
        };
        let mut rng = Rng::seed_from_u64(0x5E41);
        // Widths 0..=4 take the packed key, 5 and 6 the wide fallback.
        for width in 0..=6u32 {
            let shared: Vec<Col> = (0..width).map(|i| 10 + 2 * i).collect();
            for _ in 0..cases {
                // A private column 0 / 1 in front makes the shared key a
                // non-prefix of that side's rows.
                let mut lcols = shared.clone();
                lcols.push(100);
                if rng.chance(0.5) {
                    lcols.push(0);
                }
                let mut rcols = shared.clone();
                rcols.push(101);
                if rng.chance(0.5) {
                    rcols.push(1);
                }
                let domain = rng.range_u32(1, 4);
                let (ln, rn) = (rng.range_usize(0, 40), rng.range_usize(0, 40));
                let l = random_bindings(&mut rng, &lcols, ln, domain);
                let r = random_bindings(&mut rng, &rcols, rn, domain);
                assert_semijoin_parity(&l, &r);
                assert_semijoin_parity(&r, &l);
            }
        }
    }

    #[test]
    fn semijoin_kernels_on_empty_unit_and_duplicate_keys() {
        use cqcount_arith::prng::Rng;
        let mut rng = Rng::seed_from_u64(0xD0B);
        let x = random_bindings(&mut rng, &[1, 2, 3], 30, 3);
        let unit = Bindings::unit();
        for side in [
            Bindings::empty(vec![2]),
            Bindings::empty(vec![1, 2, 3]),
            Bindings::empty(vec![7]),
            Bindings::empty(vec![]),
            unit.clone(),
        ] {
            assert_semijoin_parity(&x, &side);
            assert_semijoin_parity(&side, &x);
        }
        assert_eq!(x.semijoin(&unit), x);
        assert_eq!(unit.semijoin(&x), unit);
        assert_semijoin_parity(&unit, &unit);
        // Heavy duplicate keys: thousands of rows over a two-value key.
        for width in [1u32, 4, 5] {
            let shared: Vec<Col> = (0..width).map(|i| 10 + i).collect();
            let mut lcols = shared.clone();
            lcols.extend([0, 50]);
            let mut rcols = shared.clone();
            rcols.push(60);
            let l = random_bindings(&mut rng, &lcols, 3000, 2);
            let r = random_bindings(&mut rng, &rcols, 5, 2);
            assert_semijoin_parity(&l, &r);
            assert_semijoin_parity(&r, &l);
        }
    }

    #[test]
    fn into_project_hands_back_the_view_when_nothing_is_dropped() {
        let x = b(&[1, 2, 3], &[&[1, 10, 100], &[1, 10, 101], &[2, 20, 200]]);
        let rows = x.rows().as_ptr();
        let kept = x.clone().into_project(&[3, 2, 1, 9]);
        assert_eq!(kept, x);
        let moved = x.clone();
        let moved_rows = moved.rows().as_ptr();
        assert_ne!(moved_rows, rows);
        assert_eq!(moved.into_project(&[1, 2, 3]).rows().as_ptr(), moved_rows);
        assert_eq!(x.clone().into_project(&[1]), x.project(&[1]));
        assert_eq!(x.clone().into_project(&[3]), x.project(&[3]));
    }
}
