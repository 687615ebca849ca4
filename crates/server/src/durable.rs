//! The per-database durability coordinator: glues the WAL (`wal`),
//! snapshots (`snapshot`), the fsync policy, and the crash/IO fault hooks
//! ([`crate::faults`]) into the mutation path.
//!
//! Policy matrix (what survives a `kill -9` at each setting):
//!
//! | policy   | per-batch syscalls      | `durable_seq` advances      |
//! |----------|-------------------------|-----------------------------|
//! | `always` | write + fsync           | every acknowledged batch    |
//! | `batch`  | write; fsync every 32   | on each group fsync         |
//! | `off`    | write only              | only on snapshot / `SYNC`   |
//!
//! Under every policy the record is *written* (to the OS) before the
//! acknowledgement, so only an OS/power failure — not a process death —
//! can lose an acked batch under `batch`/`off`; under `always` nothing
//! short of media failure can. `durable_seq` is the highest
//! `mutation_seq` covered by a completed fsync or snapshot: the number a
//! client compares its `Mutated` receipt against to learn whether a
//! non-retried mutation survived (see README's lost-reply procedure).
//!
//! **Read-only degradation.** Any WAL or snapshot I/O error flips the
//! database to read-only: the failed batch is rolled back in memory
//! (mutations answer `ErrorCode::ReadOnly` from then on) while counts
//! keep serving the last consistent state. The flag heals on a
//! successful `RELOAD`/`SYNC` snapshot — deliberately operator-driven,
//! never automatic retry.

use crate::faults::{CrashPlan, CrashPoint};
use crate::snapshot::{decode_db_dir, encode_db_dir, recover_db, write_snapshot, Recovered};
use crate::wal::{wal_path, WalRecord, WalWriter};
use cqcount_obs::trace;
use cqcount_relational::Database;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Under `batch`, fsync once per this many appended records.
pub(crate) const BATCH_FSYNC_EVERY: u64 = 32;

/// When to fsync the WAL relative to acknowledging a mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// fsync before every acknowledgement.
    Always,
    /// fsync once per `BATCH_FSYNC_EVERY` records.
    Batch,
    /// Never fsync on the mutation path (snapshots and `SYNC` still do).
    Off,
}

impl DurabilityPolicy {
    /// Parses a `--durability` name.
    pub fn parse(name: &str) -> Result<DurabilityPolicy, String> {
        match name {
            "always" => Ok(DurabilityPolicy::Always),
            "batch" => Ok(DurabilityPolicy::Batch),
            "off" => Ok(DurabilityPolicy::Off),
            other => Err(format!(
                "unknown durability policy {other:?} (expected always, batch, or off)"
            )),
        }
    }

    /// The `--durability` spelling.
    pub fn name(self) -> &'static str {
        match self {
            DurabilityPolicy::Always => "always",
            DurabilityPolicy::Batch => "batch",
            DurabilityPolicy::Off => "off",
        }
    }
}

/// What one logged batch cost, for the metrics counters.
#[derive(Default)]
pub(crate) struct LogOutcome {
    pub(crate) bytes: u64,
    pub(crate) fsynced: bool,
    pub(crate) snapshotted: bool,
}

/// The data-dir-wide configuration, held by `Shared` when `--data-dir`
/// is set.
pub(crate) struct DurableStore {
    data_dir: PathBuf,
    policy: DurabilityPolicy,
    snapshot_every: u64,
    wal_fail_after: Option<u64>,
    wal_fsync_stall: Option<(u64, u64)>,
    crash: Option<Arc<CrashPlan>>,
}

impl DurableStore {
    pub(crate) fn new(
        data_dir: PathBuf,
        policy: DurabilityPolicy,
        snapshot_every: u64,
        wal_fail_after: Option<u64>,
        crash: Option<Arc<CrashPlan>>,
        wal_fsync_stall: Option<(u64, u64)>,
    ) -> DurableStore {
        DurableStore {
            data_dir,
            policy,
            snapshot_every,
            wal_fail_after,
            wal_fsync_stall,
            crash,
        }
    }

    fn db_dir(&self, name: &str) -> PathBuf {
        self.data_dir.join(encode_db_dir(name))
    }

    /// Opens (creating) the durable state for one database. Infallible
    /// by design: an I/O error here yields a handle that is already
    /// read-only with the error as its reason, so the database still
    /// installs and serves counts.
    pub(crate) fn open_db(&self, name: &str) -> DbDurable {
        let dir = self.db_dir(name);
        let opened = std::fs::create_dir_all(&dir).and_then(|()| {
            WalWriter::open(&wal_path(&dir), self.wal_fail_after, self.wal_fsync_stall)
        });
        let durable = DbDurable::new(self, dir);
        match opened {
            Ok(writer) => *durable.wal.lock().unwrap() = Some(writer),
            Err(e) => durable.set_read_only(format!("cannot open WAL: {e}")),
        }
        durable
    }

    /// Rebuilds every database found under the data dir. Foreign entries
    /// (names that are not valid [`encode_db_dir`] output, plain files)
    /// are skipped. Returns `(name, recovery, durable handle)` triples;
    /// the caller installs them and folds the recovery numbers into the
    /// metrics registry.
    pub(crate) fn recover_all(&self) -> std::io::Result<Vec<(String, Recovered, DbDurable)>> {
        std::fs::create_dir_all(&self.data_dir)?;
        let mut out = Vec::new();
        let mut entries: Vec<_> = std::fs::read_dir(&self.data_dir)?
            .filter_map(Result::ok)
            .collect();
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            if !entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                continue;
            }
            let Some(name) = decode_db_dir(&entry.file_name().to_string_lossy()) else {
                continue;
            };
            let dir = entry.path();
            let recovered = recover_db(&dir)?;
            let mut durable = self.open_db(&name);
            // Everything replay produced came off disk, so the whole
            // recovered state is durable by construction.
            durable
                .durable_seq
                .store(recovered.db.mutation_seq(), Ordering::Relaxed);
            durable.recovered_records = recovered.replayed;
            out.push((name, recovered, durable));
        }
        Ok(out)
    }
}

/// Per-database durable state, shared between the mutation path (under
/// the database write lock), `SYNC` (under the read lock), and `STATS`
/// (lock-free reads of the atomics).
#[derive(Debug)]
pub(crate) struct DbDurable {
    dir: PathBuf,
    policy: DurabilityPolicy,
    snapshot_every: u64,
    crash: Option<Arc<CrashPlan>>,
    /// `None` only when the WAL could not even be opened (the handle is
    /// then read-only from birth).
    wal: Mutex<Option<WalWriter>>,
    /// Highest `mutation_seq` covered by a completed fsync or snapshot.
    durable_seq: AtomicU64,
    read_only: AtomicBool,
    reason: Mutex<String>,
    /// Records appended since the last fsync (`batch` bookkeeping).
    unsynced: AtomicU64,
    /// Records appended since the last snapshot (threshold bookkeeping).
    since_snapshot: AtomicU64,
    /// WAL records replayed when this handle was recovered at startup
    /// (0 for a handle born from `RELOAD`).
    pub(crate) recovered_records: u64,
}

impl DbDurable {
    fn new(store: &DurableStore, dir: PathBuf) -> DbDurable {
        DbDurable {
            dir,
            policy: store.policy,
            snapshot_every: store.snapshot_every,
            crash: store.crash.clone(),
            wal: Mutex::new(None),
            durable_seq: AtomicU64::new(0),
            read_only: AtomicBool::new(false),
            reason: Mutex::new(String::new()),
            unsynced: AtomicU64::new(0),
            since_snapshot: AtomicU64::new(0),
            recovered_records: 0,
        }
    }

    pub(crate) fn durable_seq(&self) -> u64 {
        self.durable_seq.load(Ordering::Relaxed)
    }

    pub(crate) fn read_only(&self) -> bool {
        self.read_only.load(Ordering::Relaxed)
    }

    pub(crate) fn read_only_reason(&self) -> String {
        self.reason.lock().unwrap().clone()
    }

    pub(crate) fn set_read_only(&self, why: String) {
        *self.reason.lock().unwrap() = why;
        self.read_only.store(true, Ordering::Relaxed);
    }

    fn clear_read_only(&self) {
        self.reason.lock().unwrap().clear();
        self.read_only.store(false, Ordering::Relaxed);
    }

    fn crash_hit(&self, point: CrashPoint) {
        if let Some(plan) = &self.crash {
            plan.hit(point);
        }
    }

    /// Appends one effective batch and runs the fsync policy. Called
    /// under the database **write** lock, so appends are serialized per
    /// database and the snapshot threshold sees a consistent `db`. The
    /// caller rolls the batch back and flips read-only on `Err`.
    pub(crate) fn log_batch(
        &self,
        db: &Database,
        epoch: u64,
        record: &WalRecord,
    ) -> std::io::Result<LogOutcome> {
        let mut out = LogOutcome::default();
        self.crash_hit(CrashPoint::PreAppend);
        let mut guard = self.wal.lock().unwrap();
        let wal = guard
            .as_mut()
            .ok_or_else(|| std::io::Error::other("WAL unavailable"))?;
        {
            let span = trace::span("wal.append");
            out.bytes = wal.append(record)?;
            span.add("bytes", out.bytes);
            span.add("ops", record.ops.len() as u64);
        }
        match self.policy {
            DurabilityPolicy::Always => {
                self.crash_hit(CrashPoint::PreFsync);
                {
                    let _span = trace::span("wal.fsync");
                    wal.sync()?;
                }
                self.crash_hit(CrashPoint::PostFsync);
                self.durable_seq.store(record.seq_after, Ordering::Relaxed);
                out.fsynced = true;
            }
            DurabilityPolicy::Batch => {
                wal.flush()?;
                let n = self.unsynced.fetch_add(1, Ordering::Relaxed) + 1;
                if n >= BATCH_FSYNC_EVERY {
                    self.crash_hit(CrashPoint::PreFsync);
                    {
                        let _span = trace::span("wal.fsync");
                        wal.sync()?;
                    }
                    self.crash_hit(CrashPoint::PostFsync);
                    self.durable_seq.store(record.seq_after, Ordering::Relaxed);
                    self.unsynced.store(0, Ordering::Relaxed);
                    out.fsynced = true;
                }
            }
            DurabilityPolicy::Off => {
                wal.flush()?;
            }
        }
        let appended = self.since_snapshot.fetch_add(1, Ordering::Relaxed) + 1;
        if self.snapshot_every > 0 && appended >= self.snapshot_every {
            self.snapshot_locked(wal, db, epoch)?;
            out.snapshotted = true;
        }
        Ok(out)
    }

    /// `SYNC` / `RELOAD` / threshold core: fsync the log, write a
    /// snapshot, truncate the log, advance `durable_seq` to everything.
    /// The caller must hold the database lock (read or write — both
    /// exclude mutations) so the snapshot is a consistent cut.
    fn snapshot_locked(
        &self,
        wal: &mut WalWriter,
        db: &Database,
        epoch: u64,
    ) -> std::io::Result<()> {
        {
            let _span = trace::span("wal.fsync");
            wal.sync()?;
        }
        {
            let span = trace::span("snapshot.write");
            span.add("tuples", db.total_tuples() as u64);
            write_snapshot(&self.dir, db, epoch, || {
                self.crash_hit(CrashPoint::MidSnapshot)
            })?;
        }
        wal.truncate()?;
        self.durable_seq.store(db.mutation_seq(), Ordering::Relaxed);
        self.unsynced.store(0, Ordering::Relaxed);
        self.since_snapshot.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Forces everything durable now (the `SYNC` opcode and the install
    /// path behind `RELOAD`). Success heals a read-only flag — the disk
    /// demonstrably accepted a full snapshot cycle.
    pub(crate) fn sync_and_snapshot(&self, db: &Database, epoch: u64) -> std::io::Result<()> {
        let mut guard = self.wal.lock().unwrap();
        let wal = guard
            .as_mut()
            .ok_or_else(|| std::io::Error::other("WAL unavailable"))?;
        self.snapshot_locked(wal, db, epoch)?;
        self.clear_read_only();
        Ok(())
    }
}
