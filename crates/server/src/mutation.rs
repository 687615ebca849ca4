//! Live mutation of loaded databases with incremental count maintenance.
//!
//! Protocol v6's `INSERT`/`DELETE`/`MUTATE` opcodes edit a database *in
//! place* — no reload, no epoch bump. Three layers keep counts fresh and
//! caches honest:
//!
//! * **The database** absorbs the tuple edit under its [`DbState`] write
//!   lock ([`cqcount_relational::Database::insert_tuple`] /
//!   [`cqcount_relational::Database::delete_tuple`]), bumping its
//!   `mutation_seq` once per *effective* op (duplicate inserts and absent
//!   deletes are no-ops).
//! * **Materialized counts** ([`cqcount_delta::MaterializedCount`]) pin a
//!   full acyclic query's join-tree DP state. A fresh count of a
//!   maintainable query only registers a *pending* entry (bounded FIFO
//!   registry, [`MaterializedSet`]); the first batch that touches one of
//!   the query's relations builds the state before its first op, so the
//!   count reply never waits for a build and a query that is never
//!   mutated never pays for one. Each effective op is then pushed through
//!   every built materialization that mentions the touched relation —
//!   O(path × bag-width) per op instead of a recount — and the refreshed
//!   counts are re-published into the count cache, so the next `COUNT` of
//!   a maintained query is a warm hit even though the data just changed.
//! * **The count cache** is swept *surgically*
//!   ([`crate::cache::CountCache::invalidate_relations`]): only entries
//!   whose query mentions a touched relation die. Counts over untouched
//!   relations and every cached plan survive — plans are data-independent.
//!
//! The fallback ladder never yields a wrong count: a materialization that
//! cannot absorb a delta (state divergence, [`cqcount_delta::DeltaFault`])
//! is dropped and counted in `cqcount_delta_fallbacks_total`; its cache
//! entry was already invalidated by the sweep, so the next count simply
//! runs cold. Queries that are not maintainable (cyclic, projections,
//! constants-only atoms) are never registered and always take the sweep
//! path. A reload still bumps the epoch and eagerly purges both the dead
//! cache entries and the database's materializations, pending or built.
//!
//! Locking: the batch runs entirely under the database's write lock —
//! including the pending builds, the cache sweep and re-publish (the
//! builds outside the registry's mutex) — while count workers insert
//! into the cache under the same database's *read* lock. The exclusion
//! means a cached count was either computed before the mutation (then the
//! sweep saw it) or after (then it read post-mutation data); a stale
//! count can never be published past a sweep.

use crate::cache::CountInfo;
use crate::protocol::{ErrorCode, MutationOp, Request, Response};
use crate::server::{lookup_db, Shared};
use cqcount_delta::MaterializedCount;
use cqcount_obs::trace;
use cqcount_query::ConjunctiveQuery;
use cqcount_relational::{Database, Value};
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

/// One registered materialization: a query over a database at a specific
/// epoch, pending until the first mutation that touches it builds its
/// join-tree DP state.
pub(crate) struct Materialized {
    /// Canonical query text (the count-cache key's query component).
    pub(crate) canonical: String,
    /// Database name.
    pub(crate) db: String,
    /// Epoch the entry was registered under; a reload orphans it.
    pub(crate) epoch: u64,
    /// The query, kept so the state can be built when it is first needed.
    pub(crate) q: ConjunctiveQuery,
    /// The maintained DP state; `None` while pending.
    pub(crate) mc: Option<MaterializedCount>,
}

impl Materialized {
    /// Is this an entry of `db_name` at `epoch`?
    fn of(&self, db_name: &str, epoch: u64) -> bool {
        self.epoch == epoch && self.db == db_name
    }

    /// Does the query mention `rel`? Mutations to other relations cannot
    /// move its count.
    fn mentions(&self, rel: &str) -> bool {
        self.q.atoms().iter().any(|a| a.rel == rel)
    }
}

/// A bounded FIFO registry of materializations, pending or built. Small
/// by design: each built entry pins O(total view rows) of memory, so the
/// registry keeps the most recently counted queries and lets old ones age
/// out — an evicted query is still correct, it just recounts cold after
/// the next mutation instead of being patched.
pub(crate) struct MaterializedSet {
    cap: usize,
    entries: Mutex<VecDeque<Materialized>>,
}

impl MaterializedSet {
    /// A registry holding at most `cap` entries (`0` disables
    /// materialization entirely; mutations then invalidate only).
    pub(crate) fn new(cap: usize) -> MaterializedSet {
        MaterializedSet {
            cap,
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Is `(canonical, db)` already registered at `epoch`?
    pub(crate) fn contains(&self, canonical: &str, db: &str, epoch: u64) -> bool {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .any(|m| m.of(db, epoch) && m.canonical == canonical)
    }

    /// Registers an entry, replacing any previous entry for the same
    /// `(canonical, db)` and evicting FIFO beyond the cap.
    pub(crate) fn register(&self, m: Materialized) {
        if self.cap == 0 {
            return;
        }
        let mut entries = self.entries.lock().unwrap();
        entries.retain(|e| !(e.db == m.db && e.canonical == m.canonical));
        entries.push_back(m);
        while entries.len() > self.cap {
            entries.pop_front();
        }
    }

    /// Drops every entry (FLUSH).
    pub(crate) fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }

    /// Drops entries of `db` registered under an epoch older than
    /// `current` (RELOAD).
    pub(crate) fn purge_epochs_below(&self, db: &str, current: u64) {
        self.entries
            .lock()
            .unwrap()
            .retain(|m| m.db != db || m.epoch >= current);
    }
}

/// The relation symbols `q` mentions, sorted and deduped — the
/// invalidation scope stored with every cached count.
pub(crate) fn query_relations(q: &ConjunctiveQuery) -> Vec<String> {
    let set: BTreeSet<&str> = q.atoms().iter().map(|a| a.rel.as_str()).collect();
    set.into_iter().map(str::to_owned).collect()
}

/// Called by the count path after computing a fresh (non-degraded) count:
/// registers a *pending* entry when the query is maintainable and none is
/// registered yet for `(canonical, db)` at this epoch. It reads no data —
/// the DP state is built by the first mutation batch that touches one of
/// the query's relations ([`run_mutation`]), so a query that is never
/// mutated never pays for it.
pub(crate) fn maybe_materialize(
    shared: &Shared,
    q: &ConjunctiveQuery,
    canonical: &str,
    db_name: &str,
    epoch: u64,
) {
    if shared.config.materialize_cap == 0
        || !MaterializedCount::maintainable(q)
        || shared.materialized.contains(canonical, db_name, epoch)
    {
        return;
    }
    shared.materialized.register(Materialized {
        canonical: canonical.to_owned(),
        db: db_name.to_owned(),
        epoch,
        q: q.clone(),
        mc: None,
    });
}

/// Builds every pending entry of `db_name` at `epoch` whose query
/// mentions a relation of `ops`. The caller holds the database write lock
/// and has applied none of the batch yet, so each state mirrors the
/// database just before the batch — what `apply_delta` assumes. The
/// builds run outside the registry's mutex, so counts on other databases
/// never wait behind them; an entry that a FLUSH, a reload or FIFO
/// eviction dropped meanwhile simply discards its state.
fn build_pending(shared: &Shared, db: &Database, db_name: &str, epoch: u64, ops: &[MutationOp]) {
    let pending: Vec<(String, ConjunctiveQuery)> = shared
        .materialized
        .entries
        .lock()
        .unwrap()
        .iter()
        .filter(|m| m.mc.is_none() && m.of(db_name, epoch))
        .filter(|m| ops.iter().any(|op| m.mentions(&op.rel)))
        .map(|m| (m.canonical.clone(), m.q.clone()))
        .collect();
    for (canonical, q) in pending {
        let sp = trace::span("mutate.materialize");
        let mut mc = MaterializedCount::build(&q, db);
        if let Some(mc) = &mc {
            sp.add("pinned_rows", mc.pinned_rows() as u64);
            shared.metrics.delta_builds.inc();
        }
        drop(sp);
        let mut entries = shared.materialized.entries.lock().unwrap();
        // `maybe_materialize` registers maintainable queries only, so a
        // refusal here is unreachable; dropping the entry keeps it honest.
        entries.retain_mut(|m| {
            if m.mc.is_some() || !m.of(db_name, epoch) || m.canonical != canonical {
                return true;
            }
            m.mc = mc.take();
            m.mc.is_some()
        });
    }
}

/// Converts a single-op request into the batch form `run_mutation` takes.
pub(crate) fn ops_of(request: &Request) -> Option<(&str, Vec<MutationOp>)> {
    match request {
        Request::Insert { db, rel, values } => Some((
            db,
            vec![MutationOp {
                insert: true,
                rel: rel.clone(),
                values: values.clone(),
            }],
        )),
        Request::Delete { db, rel, values } => Some((
            db,
            vec![MutationOp {
                insert: false,
                rel: rel.clone(),
                values: values.clone(),
            }],
        )),
        Request::Mutate { db, ops } => Some((db, ops.clone())),
        _ => None,
    }
}

/// Executes one mutation batch on a worker.
///
/// Ops apply strictly in order under the database write lock. An op that
/// fails (arity conflict with the stored relation) aborts the remainder
/// of the batch but leaves earlier ops applied — the propagation phase
/// still runs for them, so caches stay honest, and the error reply names
/// the offending op. The success reply carries the number of *effective*
/// ops and the database's mutation sequence after the batch.
///
/// When the server has a `--data-dir`, the batch's effective ops are
/// appended to the database's WAL (and fsynced per the durability
/// policy) *before* the reply is sent — so an acknowledged batch is on
/// disk. A WAL failure rolls the batch back in memory, flips the
/// database read-only, and answers [`ErrorCode::ReadOnly`]: the reply
/// then truthfully says "nothing happened".
pub(crate) fn run_mutation(shared: &Shared, db_name: &str, ops: &[MutationOp]) -> Response {
    let state = match lookup_db(shared, db_name) {
        Ok(s) => s,
        Err(resp) => return *resp,
    };
    let apply_sp = trace::span("mutate.apply");
    apply_sp.tag("db", db_name);
    apply_sp.add("ops", ops.len() as u64);
    let mut db = state.db.write().unwrap();
    if let Some(d) = &state.durable {
        if d.read_only() {
            return Response::Error {
                code: ErrorCode::ReadOnly,
                message: format!(
                    "database {db_name:?} is read-only: {}",
                    d.read_only_reason()
                ),
                retry_after_ms: 0,
            };
        }
    }
    let seq_before = db.mutation_seq();
    build_pending(shared, &db, db_name, state.epoch, ops);

    let mut changed = 0u64;
    let mut bags_touched = 0u64;
    let mut touched: BTreeSet<String> = BTreeSet::new();
    let mut effective_ops: Vec<MutationOp> = Vec::new();
    let mut failure: Option<Response> = None;
    for (i, op) in ops.iter().enumerate() {
        let values: Vec<&str> = op.values.iter().map(String::as_str).collect();
        let effective = if op.insert {
            db.insert_tuple(&op.rel, &values)
        } else {
            db.delete_tuple(&op.rel, &values)
        };
        match effective {
            Ok(false) => {}
            Ok(true) => {
                changed += 1;
                touched.insert(op.rel.clone());
                let tuple: Vec<Value> = op
                    .values
                    .iter()
                    .map(|v| {
                        db.interner()
                            .get(v)
                            .expect("an effective mutation's constants are interned")
                    })
                    .collect();
                bags_touched +=
                    patch_materializations(shared, &db, db_name, state.epoch, op, &tuple);
                effective_ops.push(op.clone());
            }
            Err(e) => {
                failure = Some(Response::Error {
                    code: ErrorCode::Plan,
                    message: format!("mutation rejected at op {i}: {e}"),
                    retry_after_ms: 0,
                });
                break;
            }
        }
    }

    // Durability: the effective ops (even those preceding a rejected op —
    // they *are* applied) hit the WAL before any acknowledgement leaves
    // this function. On failure the batch is rolled back in memory so
    // the `ReadOnly` reply means "atomically absent".
    if !effective_ops.is_empty() {
        if let Some(d) = &state.durable {
            let record = crate::wal::WalRecord {
                epoch: state.epoch,
                seq_after: db.mutation_seq(),
                ops: effective_ops.clone(),
            };
            match d.log_batch(&db, state.epoch, &record) {
                Ok(out) => {
                    shared.metrics.wal_records.inc();
                    shared.metrics.wal_bytes.add(out.bytes);
                    if out.fsynced {
                        shared.metrics.wal_fsyncs.inc();
                    }
                    if out.snapshotted {
                        shared.metrics.snapshots.inc();
                    }
                }
                Err(e) => {
                    for op in effective_ops.iter().rev() {
                        let values: Vec<&str> = op.values.iter().map(String::as_str).collect();
                        let undone = if op.insert {
                            db.delete_tuple(&op.rel, &values)
                        } else {
                            db.insert_tuple(&op.rel, &values)
                        };
                        debug_assert!(matches!(undone, Ok(true)), "rollback must invert exactly");
                        let inverse = MutationOp {
                            insert: !op.insert,
                            rel: op.rel.clone(),
                            values: op.values.clone(),
                        };
                        let tuple: Vec<Value> = op
                            .values
                            .iter()
                            .map(|v| {
                                db.interner()
                                    .get(v)
                                    .expect("a rolled-back mutation's constants are interned")
                            })
                            .collect();
                        bags_touched += patch_materializations(
                            shared,
                            &db,
                            db_name,
                            state.epoch,
                            &inverse,
                            &tuple,
                        );
                    }
                    db.set_mutation_seq(seq_before);
                    changed = 0;
                    d.set_read_only(format!("WAL append failed: {e}"));
                    failure = Some(Response::Error {
                        code: ErrorCode::ReadOnly,
                        message: format!(
                            "database {db_name:?} is now read-only (batch rolled back): \
                             WAL append failed: {e}"
                        ),
                        retry_after_ms: 0,
                    });
                }
            }
        }
    }
    shared.metrics.mutations.add(changed);
    shared.metrics.delta_bags_touched.add(bags_touched);
    apply_sp.add("changed", changed);
    drop(apply_sp);

    // Propagation: surgically invalidate dependent cache entries, then
    // re-publish the maintained counts (they are fresh). Still under the
    // write lock — see the module docs for why the order is safe.
    if !touched.is_empty() {
        let prop_sp = trace::span("mutate.propagate");
        let rels: Vec<String> = touched.iter().cloned().collect();
        let invalidated = shared
            .counts
            .invalidate_relations(db_name, state.epoch, &rels);
        let republished = republish_counts(shared, db_name, state.epoch, &touched);
        prop_sp.add("bags_touched", bags_touched);
        prop_sp.add("invalidated", invalidated);
        prop_sp.add("republished", republished);
    }

    let mutation_seq = db.mutation_seq();
    drop(db);
    failure.unwrap_or(Response::Mutated {
        changed,
        mutation_seq,
    })
}

/// Executes a `SYNC`: forces an fsync + snapshot cycle so everything up
/// to the current `mutation_seq` is durable, then reports the durable
/// watermark. Runs under the database *read* lock — mutations are
/// excluded, concurrent counts are not. On a server without `--data-dir`
/// it answers honestly with `durable_seq: 0` (nothing is durable).
pub(crate) fn run_sync(shared: &Shared, db_name: &str) -> Response {
    let state = match lookup_db(shared, db_name) {
        Ok(s) => s,
        Err(resp) => return *resp,
    };
    let sp = trace::span("mutate.sync");
    sp.tag("db", db_name);
    let db = state.db.read().unwrap();
    let mutation_seq = db.mutation_seq();
    let Some(d) = &state.durable else {
        return Response::Synced {
            epoch: state.epoch,
            mutation_seq,
            durable_seq: 0,
        };
    };
    match d.sync_and_snapshot(&db, state.epoch) {
        Ok(()) => {
            shared.metrics.snapshots.inc();
            shared.metrics.wal_fsyncs.inc();
            Response::Synced {
                epoch: state.epoch,
                mutation_seq,
                durable_seq: d.durable_seq(),
            }
        }
        Err(e) => {
            d.set_read_only(format!("SYNC snapshot failed: {e}"));
            Response::Error {
                code: ErrorCode::ReadOnly,
                message: format!("database {db_name:?} is now read-only: SYNC failed: {e}"),
                retry_after_ms: 0,
            }
        }
    }
}

/// Pushes one effective op through every live materialization of this
/// database that mentions the touched relation. A materialization whose
/// state diverges ([`cqcount_delta::DeltaFault`]) is dropped on the spot
/// and counted as a fallback — the cache sweep that follows makes its
/// entry cold, never wrong. Returns the bags re-aggregated.
fn patch_materializations(
    shared: &Shared,
    db: &Database,
    db_name: &str,
    epoch: u64,
    op: &MutationOp,
    tuple: &[Value],
) -> u64 {
    let mut entries = shared.materialized.entries.lock().unwrap();
    let mut bags = 0u64;
    entries.retain_mut(|m| {
        if !m.of(db_name, epoch) {
            return true;
        }
        let Some(mc) = m.mc.as_mut().filter(|mc| mc.mentions(&op.rel)) else {
            return true;
        };
        match mc.apply_delta(db, &op.rel, tuple, op.insert) {
            Ok(outcome) => {
                bags += outcome.bags_touched;
                true
            }
            Err(_) => {
                shared.metrics.delta_fallbacks.inc();
                false
            }
        }
    });
    bags
}

/// Re-installs the (fresh) counts of every live materialization of this
/// database that mentions a touched relation, so the next `COUNT` of a
/// maintained query hits the cache instead of recounting. Returns how
/// many counts were published.
fn republish_counts(shared: &Shared, db_name: &str, epoch: u64, touched: &BTreeSet<String>) -> u64 {
    let entries = shared.materialized.entries.lock().unwrap();
    let mut published = 0u64;
    for m in entries.iter() {
        let Some(mc) = &m.mc else { continue };
        if !m.of(db_name, epoch) || !touched.iter().any(|r| mc.mentions(r)) {
            continue;
        }
        shared.counts.insert(
            (m.canonical.clone(), db_name.to_owned(), epoch),
            Arc::new(CountInfo {
                value: mc.count(),
                rels: mc
                    .relations()
                    .map(str::to_owned)
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect(),
            }),
        );
        published += 1;
    }
    published
}
