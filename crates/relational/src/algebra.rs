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
//! Every kernel keys rows through position plans built once from the two
//! (sorted) column lists, and packs a key of up to four columns into one
//! `u128` — a `Value` is a `u32`, so the packing is exact — falling back
//! to a materialized `Tuple` key beyond that.
//!
//! There is one binary join, [`Bindings::join_project`]: it hashes the
//! smaller side on the shared-column key (grouping its row indices by key,
//! with no per-key allocation), streams the larger side through that
//! index, and emits only the columns the caller keeps. When at most four
//! columns survive, each emitted row is one packed `u128`; a
//! `sort_unstable` + `dedup` of those integers is then the canonical row
//! order, whatever order the hash probe produced them in, and they unpack
//! into tuples once per distinct row. Wider outputs are canonicalized as
//! tuples. The join-project also takes *filters*: views whose keys on the
//! kept columns each output row must hit, so `π_keep(l ⋈ r) ⋉ f₁ ⋉ … ⋉ fₙ`
//! is one pass. Each filter is hashed once, the way a semijoin hashes its
//! probe side, and each matched pair reads its filter keys straight off
//! the two input rows, so a row a filter drops is never built, sorted or
//! deduplicated. This is how a bag's build runs the full reducer's upward
//! sweep (`cqcount_core::sharp::BagPlan::upward_views`).
//! [`Bindings::join`] is the same kernel keeping every column, with no
//! filter.
//!
//! Semijoins hash the probe side's key once, and each kept-side row is a
//! single set lookup. The in-place form [`Bindings::semijoin_in_place`]
//! `retain`s the matching rows, so the reducer shrinks views without
//! copying a row. Every kernel runs sequentially on the calling thread:
//! counting parallelizes across decomposition bags (`cqcount_core::sharp`),
//! never inside one operator, so there is no chunking and nothing to
//! stitch.

use crate::fxhash::{FxHashMap, FxHashSet};
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

/// Positions in `a` / `b` (both ascending) of the columns they share.
fn shared_positions(a: &[Col], b: &[Col]) -> (Vec<usize>, Vec<usize>) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
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

/// Packs up to four values, the `k`-th being `value(k)`, into one
/// integer: a `Value` is a `u32`, so four fit a `u128` exactly and the
/// packing is injective for a fixed width. The first value takes the
/// highest bits, so integer order is lexicographic order.
#[inline]
fn pack(width: usize, value: impl Fn(usize) -> Value) -> u128 {
    (0..width).fold(0, |key, k| (key << 32) | u128::from(value(k).0))
}

/// [`pack`] of the values of `row` at `positions`.
#[inline]
fn pack_key(row: &[Value], positions: &[usize]) -> u128 {
    pack(positions.len(), |k| row[positions[k]])
}

/// One side of a semijoin or a join filter, hashed once on its key.
enum KeySet {
    /// No key columns: a row matches iff the side is nonempty.
    Disjoint(bool),
    /// At most four key columns, packed by [`pack_key`].
    Packed(FxHashSet<u128>),
    /// Wider keys, materialized exactly.
    Wide(FxHashSet<Tuple>),
}

impl KeySet {
    /// Hashes the keys of `side` at `positions`.
    fn of(side: &Bindings, positions: &[usize]) -> KeySet {
        if positions.is_empty() {
            KeySet::Disjoint(!side.is_empty())
        } else if positions.len() <= 4 {
            let mut set = FxHashSet::default();
            let mut last = None;
            for row in &side.rows {
                // Equal keys sit side by side when the key is a row prefix.
                let key = pack_key(row, positions);
                if last.replace(key) != Some(key) {
                    set.insert(key);
                }
            }
            KeySet::Packed(set)
        } else {
            KeySet::Wide(
                side.rows
                    .iter()
                    .map(|r| positions.iter().map(|&p| r[p]).collect())
                    .collect(),
            )
        }
    }

    /// Does the key of `width` values, the `k`-th being `value(k)`, occur?
    #[inline]
    fn contains(&self, width: usize, value: impl Fn(usize) -> Value) -> bool {
        match self {
            KeySet::Disjoint(nonempty) => *nonempty,
            KeySet::Packed(set) => set.contains(&pack(width, value)),
            KeySet::Wide(set) => set.contains(&(0..width).map(value).collect::<Tuple>()),
        }
    }
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
        let (lpos, rpos) = shared_positions(&left.cols, &right.cols);
        SemijoinProbe {
            keys: KeySet::of(right, &rpos),
            lpos,
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
        self.keys.contains(self.lpos.len(), |k| row[self.lpos[k]])
    }
}

/// Which side and position each kept output column of a join is read
/// from, in output (ascending column) order. A shared column is read from
/// the build side.
struct JoinEmit {
    cols: Vec<Col>,
    /// `(from_build, position)` per output column.
    from: Vec<(bool, usize)>,
}

impl JoinEmit {
    /// Walks the two ascending column lists in step, keeping the columns in
    /// `keep` (every column when it is `None`).
    fn new(bcols: &[Col], pcols: &[Col], keep: Option<&[Col]>) -> JoinEmit {
        let mut emit = JoinEmit {
            cols: Vec::with_capacity(bcols.len() + pcols.len()),
            from: Vec::with_capacity(bcols.len() + pcols.len()),
        };
        let (mut i, mut j) = (0, 0);
        loop {
            let (col, side) = match (bcols.get(i), pcols.get(j)) {
                (Some(&b), Some(&p)) if b <= p => {
                    j += usize::from(b == p);
                    i += 1;
                    (b, (true, i - 1))
                }
                (_, Some(&p)) => {
                    j += 1;
                    (p, (false, j - 1))
                }
                (Some(&b), None) => {
                    i += 1;
                    (b, (true, i - 1))
                }
                (None, None) => break,
            };
            if keep.is_none_or(|keep| keep.contains(&col)) {
                emit.cols.push(col);
                emit.from.push(side);
            }
        }
        emit
    }

    #[inline]
    fn value(&self, k: usize, brow: &[Value], prow: &[Value]) -> Value {
        match self.from[k] {
            (true, p) => brow[p],
            (false, p) => prow[p],
        }
    }
}

/// A filter of a join-project: which kept output columns its key reads,
/// and its rows hashed once on that key.
struct JoinFilter {
    /// Output column index (into [`JoinEmit::from`]) per key column.
    at: Vec<usize>,
    keys: KeySet,
}

impl JoinFilter {
    /// The filters that can drop an emitted row: a nonempty filter sharing
    /// no kept column keeps every row, so it is left out.
    fn plan(emit: &JoinEmit, filters: &[&Bindings]) -> Vec<JoinFilter> {
        filters
            .iter()
            .filter_map(|f| {
                let (at, fpos) = shared_positions(&emit.cols, &f.cols);
                let keys = KeySet::of(f, &fpos);
                (!matches!(keys, KeySet::Disjoint(true))).then_some(JoinFilter { at, keys })
            })
            .collect()
    }

    /// Does the output row of the pair `(brow, prow)` match the filter?
    /// The key is read off the pair, before the row is built.
    #[inline]
    fn keeps(&self, emit: &JoinEmit, brow: &[Value], prow: &[Value]) -> bool {
        self.keys
            .contains(self.at.len(), |k| emit.value(self.at[k], brow, prow))
    }
}

/// A join's output rows as they are emitted: packed into one `u128` each
/// when at most four columns are kept, else as tuples.
enum Emitted {
    Packed(Vec<u128>),
    Wide(Vec<Tuple>),
}

impl Emitted {
    fn new(width: usize) -> Emitted {
        if width <= 4 {
            Emitted::Packed(Vec::new())
        } else {
            Emitted::Wide(Vec::new())
        }
    }

    fn len(&self) -> usize {
        match self {
            Emitted::Packed(keys) => keys.len(),
            Emitted::Wide(rows) => rows.len(),
        }
    }

    #[inline]
    fn push(&mut self, emit: &JoinEmit, brow: &[Value], prow: &[Value]) {
        let n = emit.from.len();
        match self {
            Emitted::Packed(keys) => keys.push(pack(n, |k| emit.value(k, brow, prow))),
            Emitted::Wide(rows) => rows.push((0..n).map(|k| emit.value(k, brow, prow)).collect()),
        }
    }

    /// Canonicalizes the emitted rows. Packing puts the first column in the
    /// highest bits, so integer order is lexicographic row order.
    fn finish(self, cols: Vec<Col>) -> Bindings {
        match self {
            Emitted::Packed(mut keys) => {
                keys.sort_unstable();
                keys.dedup();
                let n = cols.len();
                let rows = keys
                    .into_iter()
                    .map(|key| {
                        (0..n)
                            .map(|k| Value((key >> (32 * (n - 1 - k))) as u32))
                            .collect()
                    })
                    .collect();
                Bindings::from_sorted_rows(cols, rows)
            }
            Emitted::Wide(rows) => Bindings::from_parts(cols, rows),
        }
    }
}

/// The hash probe behind [`Bindings::join_project`]: groups `build`'s row
/// indices by key in one flat array (a key → group map, then per-group
/// offsets), streams `probe` through the groups and calls `emit` on every
/// matched pair. Returns the number of pairs.
fn hash_join<K: std::hash::Hash + Eq>(
    build: &Bindings,
    probe: &Bindings,
    build_key: impl Fn(&[Value]) -> K,
    probe_key: impl Fn(&[Value]) -> K,
    mut emit: impl FnMut(&[Value], &[Value]),
) -> u64 {
    if build.rows.is_empty() || probe.rows.is_empty() {
        return 0;
    }
    let mut group_of: FxHashMap<K, u32> = FxHashMap::default();
    let mut row_group: Vec<u32> = Vec::with_capacity(build.rows.len());
    let mut sizes: Vec<u32> = Vec::new();
    for row in &build.rows {
        let next = sizes.len() as u32;
        let g = *group_of.entry(build_key(row)).or_insert(next);
        if g == next {
            sizes.push(0);
        }
        sizes[g as usize] += 1;
        row_group.push(g);
    }
    // starts[g]..starts[g + 1] are group g's rows in `members`.
    let mut starts: Vec<u32> = Vec::with_capacity(sizes.len() + 1);
    let mut at = 0;
    starts.push(at);
    for &n in &sizes {
        at += n;
        starts.push(at);
    }
    let mut fill = starts.clone();
    let mut members = vec![0u32; build.rows.len()];
    for (i, &g) in row_group.iter().enumerate() {
        members[fill[g as usize] as usize] = i as u32;
        fill[g as usize] += 1;
    }
    let mut pairs = 0u64;
    for prow in &probe.rows {
        let Some(&g) = group_of.get(&probe_key(prow)) else {
            continue;
        };
        let group = &members[starts[g as usize] as usize..starts[g as usize + 1] as usize];
        pairs += group.len() as u64;
        for &bi in group {
            emit(&build.rows[bi as usize], prow);
        }
    }
    pairs
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
    /// in sorted column order — the packed join-project emits in exactly
    /// that order, so canonicalization is free there.
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
        Bindings::scan(relation, terms, None)
    }

    /// The scan `π_keep` of [`Bindings::from_atom`] in one pass: a column
    /// outside `keep` is matched and checked like any other but never
    /// emitted.
    pub fn from_atom_projected(relation: &Relation, terms: &[ColTerm], keep: &[Col]) -> Bindings {
        Bindings::scan(relation, terms, Some(keep))
    }

    fn scan(relation: &Relation, terms: &[ColTerm], keep: Option<&[Col]>) -> Bindings {
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
        // Emit the kept columns directly in sorted column order.
        let mut order: Vec<usize> = (0..cols.len())
            .filter(|&i| keep.is_none_or(|keep| keep.contains(&cols[i])))
            .collect();
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

    /// Natural join `self ⋈ other`: [`Bindings::join_project`] keeping
    /// every column, with no filter.
    pub fn join(&self, other: &Bindings) -> Bindings {
        self.join_keeping(other, None, &[]).0
    }

    /// Join-project `π_keep(self ⋈ other) ⋉ f₁ ⋉ … ⋉ fₙ` in one pass
    /// (columns of `keep` present on neither side are ignored). The smaller
    /// side is grouped by its shared-column key, the larger side streams
    /// through the groups, and each matched pair emits only its kept
    /// columns, so a column the caller drops is never materialized. Each
    /// filter is hashed once on the kept columns it shares, and a pair
    /// whose key misses one emits nothing. The rows come back canonical
    /// whatever the hash order.
    ///
    /// Also returns how many emitted rows the filters dropped, counted
    /// before the kept-column dedup.
    pub fn join_project(
        &self,
        other: &Bindings,
        keep: &[Col],
        filters: &[&Bindings],
    ) -> (Bindings, usize) {
        self.join_keeping(other, Some(keep), filters)
    }

    fn join_keeping(
        &self,
        other: &Bindings,
        keep: Option<&[Col]>,
        filters: &[&Bindings],
    ) -> (Bindings, usize) {
        let sp = obs::trace::span("algebra.join");
        if sp.is_armed() {
            sp.add("rows_left", self.rows.len() as u64);
            sp.add("rows_right", other.rows.len() as u64);
        }
        // Build on the smaller side; the output does not depend on which.
        let (build, probe) = if self.rows.len() <= other.rows.len() {
            (self, other)
        } else {
            (other, self)
        };
        let (bpos, ppos) = shared_positions(&build.cols, &probe.cols);
        let emit = JoinEmit::new(&build.cols, &probe.cols, keep);
        let filters = JoinFilter::plan(&emit, filters);
        let mut out = Emitted::new(emit.from.len());
        let mut push = |b: &[Value], p: &[Value]| {
            if filters.iter().all(|f| f.keeps(&emit, b, p)) {
                out.push(&emit, b, p);
            }
        };
        let pairs = if bpos.len() <= 4 {
            hash_join(
                build,
                probe,
                |r| pack_key(r, &bpos),
                |r| pack_key(r, &ppos),
                &mut push,
            )
        } else {
            let key = |r: &[Value], pos: &[usize]| -> Tuple { pos.iter().map(|&i| r[i]).collect() };
            hash_join(
                build,
                probe,
                |r| key(r, &bpos),
                |r| key(r, &ppos),
                &mut push,
            )
        };
        let filtered = pairs as usize - out.len();
        let out = out.finish(emit.cols);
        if sp.is_armed() {
            sp.add("pairs", pairs);
            sp.add("filtered", filtered as u64);
            sp.add("rows_out", out.rows.len() as u64);
            sp.add("bytes_out", bytes_of(&out));
        }
        (out, filtered)
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

    /// The straw-man hash join, kept as a test oracle for the join-project
    /// kernel: hashes a materialized `Vec<Value>` key per row into a per-call
    /// table, then permutes each output row through a column order.
    fn join_hash_baseline(left: &Bindings, right: &Bindings) -> Bindings {
        let (lpos, rpos) = shared_positions(&left.cols, &right.cols);
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
        let (lpos, rpos) = shared_positions(&left.cols, &right.cols);
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
    fn join_on_prefix_and_suffix_keys() {
        // Shared column 1 is a prefix of the left (cols [1,2]) and of the
        // right (cols [1,3]).
        let l = b(&[1, 2], &[&[1, 10], &[1, 11], &[2, 20]]);
        let r = b(&[1, 3], &[&[1, 7], &[2, 8], &[2, 9]]);
        let j = l.join(&r);
        assert_eq!(j.cols(), &[1, 2, 3]);
        assert_eq!(j.len(), 4);
        // Shared column 3 is a suffix on the left (cols [1,3]).
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
    fn from_atom_projected_equals_scan_then_project() {
        let r = Relation::from_rows(vec![
            vec![v(1), v(1), v(5)],
            vec![v(1), v(2), v(5)],
            vec![v(2), v(2), v(7)],
            vec![v(3), v(2), v(5)],
        ]);
        for terms in [
            [ColTerm::Var(4), ColTerm::Var(2), ColTerm::Var(9)],
            [ColTerm::Var(4), ColTerm::Var(4), ColTerm::Var(9)],
            [ColTerm::Var(4), ColTerm::Var(2), ColTerm::Const(v(5))],
        ] {
            let full = Bindings::from_atom(&r, &terms);
            for keep in [&[2, 4, 9][..], &[2], &[9, 4], &[7], &[]] {
                let projected = Bindings::from_atom_projected(&r, &terms, keep);
                assert_eq!(projected, full.project(keep), "{terms:?} kept to {keep:?}");
            }
        }
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

    /// `join_project` in both argument orders, and `join`, against the
    /// hash baseline followed by `project`; every result is also computed
    /// again at 1, 2 and 8 lanes and must come back row for row the same.
    fn assert_join_parity(l: &Bindings, r: &Bindings, keep: &[Col]) {
        let joined = join_hash_baseline(l, r);
        let expect = joined.project(keep);
        let (got, filtered) = l.join_project(r, keep, &[]);
        assert_eq!(got, expect, "{l:?} ⋈ {r:?} kept to {keep:?}");
        assert_eq!(filtered, 0, "no filter drops nothing");
        assert_eq!(r.join_project(l, keep, &[]).0, expect, "swapped sides");
        assert_eq!(l.join(r), joined, "join of {l:?} ⋈ {r:?}");
        for threads in [1, 2, 8] {
            let again = cqcount_exec::with_threads(threads, || l.join_project(r, keep, &[]).0);
            assert_eq!(again.rows(), got.rows(), "rerun at {threads} lanes");
        }
    }

    /// `join_project` with `filters`, in both argument orders, against
    /// `join_project` without them followed by `semijoin_in_place` per
    /// filter; its `filtered` count against the matched pairs whose kept
    /// row a filter drops. Every result is also computed again at 1, 2 and
    /// 8 lanes and must come back row for row the same.
    /// Returns the rows filtered.
    fn assert_filtered_join_parity(
        l: &Bindings,
        r: &Bindings,
        keep: &[Col],
        filters: &[&Bindings],
    ) -> usize {
        let mut expect = l.join_project(r, keep, &[]).0;
        for f in filters {
            expect.semijoin_in_place(f);
        }
        // Each row of the full join is one matched pair.
        let pairs = join_hash_baseline(l, r);
        let at = pairs.keep_positions(keep);
        let dropped = pairs
            .rows()
            .iter()
            .filter(|row| !expect.contains(&at.iter().map(|&p| row[p]).collect::<Vec<_>>()))
            .count();
        let at = format!("{l:?} ⋈ {r:?} kept to {keep:?}, filtered by {filters:?}");
        let (got, filtered) = l.join_project(r, keep, filters);
        assert_eq!(got, expect, "{at}");
        assert_eq!(filtered, dropped, "{at}: rows filtered");
        assert_eq!(
            r.join_project(l, keep, filters),
            (expect, dropped),
            "{at}: swapped sides"
        );
        for threads in [1, 2, 8] {
            let again = cqcount_exec::with_threads(threads, || l.join_project(r, keep, filters).0);
            assert_eq!(again.rows(), got.rows(), "{at}: rerun at {threads} lanes");
        }
        filtered
    }

    /// `width` shared columns, and three private columns on either side
    /// (so up to `width + 6` columns to keep).
    fn join_sides(width: u32) -> (Vec<Col>, Vec<Col>) {
        let shared: Vec<Col> = (0..width).map(|i| 10 + 2 * i).collect();
        let mut lcols = shared.clone();
        lcols.extend([0, 100, 102]);
        let mut rcols = shared;
        rcols.extend([1, 101, 103]);
        (lcols, rcols)
    }

    #[test]
    fn join_project_matches_hash_baseline_at_every_key_and_kept_width() {
        use cqcount_arith::prng::Rng;
        let cases = if cfg!(feature = "exhaustive-tests") {
            120
        } else {
            12
        };
        let mut rng = Rng::seed_from_u64(0x101E);
        // Key widths 0..=4 pack the key, 5 takes the wide key; kept widths
        // 1..=4 pack the output rows, 5 and 6 take the wide output. Sides
        // hold 0 to 40 rows.
        for width in 0..=5u32 {
            let (lcols, rcols) = join_sides(width);
            let mut all: Vec<Col> = lcols.iter().chain(&rcols).copied().collect();
            all.sort_unstable();
            all.dedup();
            for kept in 1..=6 {
                for _ in 0..cases {
                    let mut keep = all.clone();
                    for i in (1..keep.len()).rev() {
                        keep.swap(i, rng.range_usize(0, i + 1));
                    }
                    keep.truncate(kept);
                    if rng.chance(0.3) {
                        keep.push(999); // absent columns are ignored
                    }
                    let domain = rng.range_u32(1, 4);
                    let (ln, rn) = (rng.range_usize(0, 40), rng.range_usize(0, 40));
                    let l = random_bindings(&mut rng, &lcols, ln, domain);
                    let r = random_bindings(&mut rng, &rcols, rn, domain);
                    assert_join_parity(&l, &r, &keep);
                }
            }
        }
    }

    #[test]
    fn join_project_on_empty_unit_and_duplicate_keys() {
        use cqcount_arith::prng::Rng;
        let mut rng = Rng::seed_from_u64(0x7E57);
        let x = random_bindings(&mut rng, &[1, 2, 3], 30, 3);
        let unit = Bindings::unit();
        for side in [
            Bindings::empty(vec![2]),
            Bindings::empty(vec![1, 2, 3]),
            Bindings::empty(vec![7]),
            Bindings::empty(vec![]),
            unit.clone(),
        ] {
            for keep in [&[1, 2, 3, 7][..], &[2], &[3, 7], &[]] {
                assert_join_parity(&x, &side, keep);
            }
        }
        assert_eq!(x.join_project(&unit, &[2, 3], &[]).0, x.project(&[2, 3]));
        assert_eq!(unit.join_project(&unit, &[], &[]).0, unit);
        assert_join_parity(&unit, &unit, &[]);
        // Heavy duplicate keys: thousands of rows over a two-value domain,
        // against a small side and against an equally large one, at a
        // packed and a wide key and output.
        for width in [0u32, 1, 4, 5] {
            let (lcols, rcols) = join_sides(width);
            let big = random_bindings(&mut rng, &lcols, 3000, 2);
            for (rows, keep) in [(5, vec![0, 1]), (3000, vec![0, 1, 100, 101, 102, 103])] {
                let other = random_bindings(&mut rng, &rcols, rows, 2);
                assert_join_parity(&big, &other, &keep);
            }
        }
    }

    #[test]
    fn filtered_join_project_matches_join_then_semijoins() {
        use cqcount_arith::prng::Rng;
        let cases = if cfg!(feature = "exhaustive-tests") {
            60
        } else {
            6
        };
        let mut rng = Rng::seed_from_u64(0xF117);
        let (mut filtered, mut runs) = (0, 0);
        // Join key widths 0..=5 and kept widths 1..=6 as above; 0, 1 and 2
        // filters, each one of: no rows, no shared column, exactly the
        // kept columns (a wide filter key at 5 and 6), or a random part of
        // them beside a column of its own.
        for width in 0..=5u32 {
            let (lcols, rcols) = join_sides(width);
            let mut all: Vec<Col> = lcols.iter().chain(&rcols).copied().collect();
            all.sort_unstable();
            all.dedup();
            for kept in 1..=6 {
                for n_filters in 0..=2 {
                    for _ in 0..cases {
                        let mut keep = all.clone();
                        for i in (1..keep.len()).rev() {
                            keep.swap(i, rng.range_usize(0, i + 1));
                        }
                        keep.truncate(kept);
                        let domain = rng.range_u32(1, 4);
                        let filters: Vec<Bindings> = (0..n_filters)
                            .map(|_| {
                                let (cols, rows) = match rng.range_usize(0, 4) {
                                    0 => (keep.clone(), 0),
                                    1 => (vec![500, 501], rng.range_usize(1, 4)),
                                    2 => (keep.clone(), rng.range_usize(1, 40)),
                                    _ => {
                                        let mut cols: Vec<Col> = keep
                                            .iter()
                                            .copied()
                                            .filter(|_| rng.chance(0.6))
                                            .collect();
                                        cols.push(502);
                                        (cols, rng.range_usize(1, 40))
                                    }
                                };
                                random_bindings(&mut rng, &cols, rows, domain)
                            })
                            .collect();
                        let filters: Vec<&Bindings> = filters.iter().collect();
                        let (ln, rn) = (rng.range_usize(0, 40), rng.range_usize(0, 40));
                        let l = random_bindings(&mut rng, &lcols, ln, domain);
                        let r = random_bindings(&mut rng, &rcols, rn, domain);
                        let dropped = assert_filtered_join_parity(&l, &r, &keep, &filters);
                        filtered += usize::from(dropped > 0);
                        runs += usize::from(n_filters > 0);
                    }
                }
            }
        }
        // Filters drop rows in some runs and not in others.
        assert!(0 < filtered && filtered < runs, "{filtered} of {runs}");
    }

    #[test]
    fn filtered_join_project_on_heavy_keys_and_unit() {
        use cqcount_arith::prng::Rng;
        let mut rng = Rng::seed_from_u64(0xF11E);
        // Thousands of pairs over a two-value domain, a filter on one side's
        // column and one reading both sides, at a packed and a wide key.
        for width in [0u32, 1, 5] {
            let (lcols, rcols) = join_sides(width);
            let l = random_bindings(&mut rng, &lcols, 300, 2);
            let r = random_bindings(&mut rng, &rcols, 300, 2);
            let keep = [0, 1, 100, 101];
            let one = random_bindings(&mut rng, &[0], 1, 2);
            let both = random_bindings(&mut rng, &[0, 1, 101], 3, 2);
            assert!(assert_filtered_join_parity(&l, &r, &keep, &[&one]) > 0);
            assert_filtered_join_parity(&l, &r, &keep, &[&one, &both]);
        }
        // A zero-column join keeps the unit row unless a filter is empty.
        let unit = Bindings::unit();
        let some = b(&[1], &[&[1]]);
        let none = Bindings::empty(vec![1]);
        assert_eq!(unit.join_project(&unit, &[], &[&some]), (unit.clone(), 0));
        assert_eq!(
            unit.join_project(&unit, &[], &[&none]),
            (Bindings::empty(vec![]), 1)
        );
    }

    #[test]
    fn join_span_counts_pairs_and_rows() {
        let l = b(&[1, 2], &[&[1, 10], &[2, 10], &[3, 20]]);
        let r = b(&[2, 3], &[&[10, 100], &[10, 101], &[30, 300]]);
        let _session = obs::trace::TraceSession::begin();
        let root = obs::trace::span("test.join");
        let id = root.id();
        let out = l.join_project(&r, &[3], &[]).0;
        drop(root);
        assert_eq!(out, b(&[3], &[&[100], &[101]]));
        let records = obs::trace::collect(id);
        let join = records
            .iter()
            .find(|r| r.name == "algebra.join")
            .expect("the join opens its span");
        let counter = |key: &str| {
            join.counters
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, v)| v)
        };
        assert_eq!(counter("pairs"), Some(4), "four matched pairs");
        assert_eq!(counter("rows_out"), Some(2), "two distinct kept rows");
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
