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
//!   full acyclic query's join-tree DP state. The count-cache entry owns
//!   it ([`crate::cache::CountInfo::maintenance`]): a fresh count of a
//!   maintainable query attaches a *pending* slot holding the query, and
//!   the first batch that touches one of the query's relations builds
//!   the state before its first op, so the count reply never waits for a
//!   build and a query that is never mutated never pays for one. Each
//!   effective op is then pushed through every built state of the batch's
//!   entries — O(path × bag-width) per op instead of a recount.
//! * **The count cache** is swept *surgically*
//!   ([`crate::cache::CountCache::refresh_relations`]): only entries
//!   whose query mentions a touched relation are visited. One with a
//!   healthy built state has its count refreshed in place, so the next
//!   `COUNT` of a maintained query is a warm hit even though the data
//!   just changed; every other one dies. Counts over untouched relations
//!   and every cached plan survive — plans are data-independent.
//!
//! The fallback ladder never yields a wrong count: a state that cannot
//! absorb a delta (state divergence, [`cqcount_delta::DeltaFault`]) is
//! emptied and counted in `cqcount_delta_fallbacks_total`; the sweep then
//! drops its entry, so the next count simply runs cold. Queries that are
//! not maintainable (cyclic, projections, constants-only atoms) never get
//! a slot and always take the drop path. Because the state lives in the
//! entry, whatever ends the entry — FIFO eviction, the epoch purge of a
//! reload, `FLUSH` — ends the state with it. `materialize_cap` bounds the
//! built states the cache holds; past it, pending slots stay unbuilt and
//! their entries are dropped like any other.
//!
//! Locking: the batch runs entirely under the database's write lock —
//! including the builds (outside every cache lock) and the sweep — while
//! count workers insert into the cache under the same database's *read*
//! lock. The exclusion means a cached count was either computed before
//! the mutation (then the sweep saw it) or after (then it read
//! post-mutation data); a stale count can never be published past a
//! sweep.

use crate::cache::{Maintenance, MaintenanceSlot};
use crate::protocol::{ErrorCode, MutationOp, Request, Response};
use crate::server::{lookup_db, Shared};
use cqcount_delta::MaterializedCount;
use cqcount_obs::trace;
use cqcount_query::ConjunctiveQuery;
use cqcount_relational::{Database, Value};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// The relation symbols `q` mentions, sorted and deduped — the
/// invalidation scope stored with every cached count.
pub(crate) fn query_relations(q: &ConjunctiveQuery) -> Vec<String> {
    let set: BTreeSet<&str> = q.atoms().iter().map(|a| a.rel.as_str()).collect();
    set.into_iter().map(str::to_owned).collect()
}

/// The maintenance slot a fresh count attaches to its cache entry: a
/// pending one when the query is maintainable and maintenance is on. It
/// reads no data — the first mutation batch that touches one of the
/// query's relations builds the state ([`run_mutation`]).
pub(crate) fn pending_slot(shared: &Shared, q: &ConjunctiveQuery) -> Option<MaintenanceSlot> {
    (shared.config.materialize_cap > 0 && MaterializedCount::maintainable(q))
        .then(|| Arc::new(Mutex::new(Some(Maintenance::Pending(q.clone())))))
}

/// Collects the maintenance slots of `db_name`'s count entries at `epoch`
/// whose query mentions a relation of `ops`, and builds the pending ones
/// while the cache holds fewer than `materialize_cap` built states. The
/// caller holds the database write lock and has applied none of the batch
/// yet, so each state mirrors the database just before the batch — what
/// `apply_delta` assumes. The builds hold no cache lock, so counts on
/// other databases never wait behind them; a slot whose entry a FLUSH or
/// FIFO eviction dropped meanwhile simply dies with the batch.
fn build_pending(
    shared: &Shared,
    db: &Database,
    db_name: &str,
    epoch: u64,
    ops: &[MutationOp],
) -> Vec<MaintenanceSlot> {
    let rels: Vec<&str> = ops.iter().map(|op| op.rel.as_str()).collect();
    let (slots, mut built) = shared.counts.maintenance_slots(db_name, epoch, &rels);
    for slot in &slots {
        if built >= shared.config.materialize_cap {
            break;
        }
        let q = match &*slot.lock().unwrap() {
            Some(Maintenance::Pending(q)) => q.clone(),
            _ => continue,
        };
        let sp = trace::span("mutate.materialize");
        // Slots are attached to maintainable queries only, so a refusal
        // is unreachable; an emptied slot keeps it honest.
        let mc = MaterializedCount::build(&q, db);
        if let Some(mc) = &mc {
            sp.add("pinned_rows", mc.pinned_rows() as u64);
            shared.metrics.delta_builds.inc();
            built += 1;
        }
        drop(sp);
        *slot.lock().unwrap() = mc.map(Maintenance::Built);
    }
    slots
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
    let slots = build_pending(shared, &db, db_name, state.epoch, ops);

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
                bags_touched += patch_materializations(shared, &slots, &db, op, &tuple);
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
                        bags_touched +=
                            patch_materializations(shared, &slots, &db, &inverse, &tuple);
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

    // Propagation: refresh the maintained counts of dependent cache
    // entries in place and drop the rest. Still under the write lock —
    // see the module docs for why the order is safe.
    if !touched.is_empty() {
        let prop_sp = trace::span("mutate.propagate");
        let rels: Vec<String> = touched.into_iter().collect();
        let (refreshed, invalidated) = shared.counts.refresh_relations(db_name, state.epoch, &rels);
        prop_sp.add("bags_touched", bags_touched);
        prop_sp.add("invalidated", invalidated);
        prop_sp.add("refreshed", refreshed);
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

/// Pushes one effective op through every built state of the batch's
/// slots that mentions the touched relation. A state that diverges
/// ([`cqcount_delta::DeltaFault`]) is emptied on the spot and counted as a
/// fallback — the sweep that follows drops its entry, so the count goes
/// cold, never wrong. Returns the bags re-aggregated.
fn patch_materializations(
    shared: &Shared,
    slots: &[MaintenanceSlot],
    db: &Database,
    op: &MutationOp,
    tuple: &[Value],
) -> u64 {
    let mut bags = 0u64;
    for slot in slots {
        let mut state = slot.lock().unwrap();
        let Some(Maintenance::Built(mc)) = state.as_mut() else {
            continue;
        };
        if !mc.mentions(&op.rel) {
            continue;
        }
        match mc.apply_delta(db, &op.rel, tuple, op.insert) {
            Ok(outcome) => bags += outcome.bags_touched,
            Err(_) => {
                *state = None;
                shared.metrics.delta_fallbacks.inc();
            }
        }
    }
    bags
}
