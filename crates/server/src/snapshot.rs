//! Database snapshots and the startup recovery path.
//!
//! A snapshot is one self-verifying file holding a database's full
//! content plus the `(epoch, mutation_seq)` point it captures. Since the
//! store format landed, snapshots *are* store images
//! ([`cqcount_relational::store`], magic `CQSTORE2`): sorted columnar
//! pages plus the persisted dedup index, CRC-guarded per section.
//! Recovery maps the file read-only and serves straight off the pages —
//! startup is O(mmap) + the WAL tail, not O(data). Relations stay frozen
//! on the mapped region until a mutation thaws them, and consecutive
//! epochs share unchanged pages copy-on-write.
//!
//! A store image is the only snapshot format; a file in any other format
//! (such as the retired pre-store `CQSNAP1` layout) fails to open and is
//! skipped like a corrupt one.
//!
//! Writes are atomic: encode to `snapshot.tmp`, fsync, rename onto
//! `snap-<epoch>-<seq>.cqs` (fixed-width hex, so lexicographic order is
//! recovery order), fsync the directory, prune to the newest
//! [`KEEP_SNAPSHOTS`]. Recovery walks snapshots newest-first, takes the
//! first one whose CRC checks out, then replays the WAL tail strictly
//! above its sequence — see [`recover_db`] for the exact skip/stop rules.

use crate::wal::{scan_wal, truncate_to, wal_path};
use cqcount_relational::store::{encode_store, open_store};
use cqcount_relational::{Database, StoreError};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

const TMP_FILE: &str = "snapshot.tmp";
/// How many generations survive pruning. Two: the newest, plus its
/// predecessor as a fallback if the newest turns out unreadable later.
const KEEP_SNAPSHOTS: usize = 2;

/// Loads one snapshot file: a store image opened through [`open_store`]
/// (mmap when possible). Every failure — including a file in any other
/// format — is a `skip` for the caller; recovery falls back to the
/// previous file.
fn load_snapshot(path: &Path) -> Result<(Database, u64, u64), String> {
    let loaded = open_store(path).map_err(|e: StoreError| e.to_string())?;
    Ok((loaded.db, loaded.epoch, loaded.seq))
}

fn snap_file_name(epoch: u64, seq: u64) -> String {
    format!("snap-{epoch:016x}-{seq:016x}.cqs")
}

/// Atomically writes a snapshot of `db` into `db_dir` and prunes old
/// generations. Returns the encoded size in bytes. `mid_crash` fires
/// between the durable temp file and the rename — the `mid-snapshot`
/// kill-point: a crash there must leave the previous snapshot intact.
///
/// The file is a store image, so the *next* restart maps it instead of
/// parsing it. Frozen relations pass their pages through byte-identical,
/// which is what makes back-to-back snapshots of an idle database cheap.
pub(crate) fn write_snapshot(
    db_dir: &Path,
    db: &Database,
    epoch: u64,
    mid_crash: impl Fn(),
) -> std::io::Result<u64> {
    let seq = db.mutation_seq();
    let image = encode_store(db, epoch, seq);
    let tmp = db_dir.join(TMP_FILE);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&image)?;
        f.sync_data()?;
    }
    mid_crash();
    let dest = db_dir.join(snap_file_name(epoch, seq));
    fs::rename(&tmp, &dest)?;
    if let Ok(dir) = File::open(db_dir) {
        let _ = dir.sync_all();
    }
    prune_snapshots(db_dir);
    Ok(image.len() as u64)
}

fn snapshot_files(db_dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    if let Ok(entries) = fs::read_dir(db_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("snap-") && name.ends_with(".cqs") {
                files.push(entry.path());
            }
        }
    }
    // Fixed-width hex names: lexicographic == (epoch, seq) order.
    files.sort();
    files
}

fn prune_snapshots(db_dir: &Path) {
    let files = snapshot_files(db_dir);
    if files.len() > KEEP_SNAPSHOTS {
        for old in &files[..files.len() - KEEP_SNAPSHOTS] {
            let _ = fs::remove_file(old);
        }
    }
}

/// Everything recovery learned about one database directory.
pub(crate) struct Recovered {
    /// The rebuilt database (empty if nothing valid was on disk).
    pub(crate) db: Database,
    /// Epoch of the recovered instance (1 if starting fresh).
    pub(crate) epoch: u64,
    /// Whether a valid snapshot was loaded.
    pub(crate) snapshot_loaded: bool,
    /// Snapshot files that failed verification before one succeeded.
    pub(crate) snapshots_skipped: u64,
    /// WAL records replayed on top of the snapshot.
    pub(crate) replayed: u64,
    /// Bytes of torn/corrupt WAL tail truncated away.
    pub(crate) truncated_bytes: u64,
    /// The WAL ended in an incomplete record (normal crash residue).
    pub(crate) torn: bool,
    /// A complete WAL record or snapshot failed verification.
    pub(crate) corrupt: bool,
}

/// Rebuilds one database from its directory: newest valid snapshot plus
/// the WAL tail.
///
/// Replay rules, in order per record:
/// * `epoch != snapshot epoch` → stop (a reload superseded the tail;
///   its snapshot is the one we just loaded or a newer one that was
///   lost — either way the tail is not applicable).
/// * `seq_after <= snapshot seq` → skip (already folded in).
/// * apply the ops; if any op fails or the resulting `mutation_seq`
///   disagrees with `seq_after`, the log diverged from its base — stop
///   and treat the rest as corrupt.
///
/// The file is then truncated to the last applied boundary, so the next
/// append starts clean. If *no* valid snapshot exists but snapshot files
/// were present (all corrupt), the WAL has lost its base state: recovery
/// starts empty and does **not** replay, reporting corruption instead of
/// guessing.
pub(crate) fn recover_db(db_dir: &Path) -> std::io::Result<Recovered> {
    let replay_span = cqcount_obs::trace::span("recover.replay");
    let mut skipped = 0u64;
    let mut loaded: Option<(Database, u64, u64)> = None;
    let files = snapshot_files(db_dir);
    let had_snapshots = !files.is_empty();
    for path in files.iter().rev() {
        match load_snapshot(path) {
            Ok(parsed) => {
                loaded = Some(parsed);
                break;
            }
            Err(_) => skipped += 1,
        }
    }
    let snapshot_loaded = loaded.is_some();
    let (mut db, epoch, snap_seq) = loaded.unwrap_or_else(|| (Database::default(), 1, 0));

    let wal = wal_path(db_dir);
    let scan = scan_wal(&wal)?;
    let mut replayed = 0u64;
    let mut corrupt = scan.corrupt || (!snapshot_loaded && had_snapshots);
    let mut valid_len = scan.valid_len;
    if snapshot_loaded || !had_snapshots {
        for (i, rec) in scan.records.iter().enumerate() {
            if rec.epoch != epoch {
                valid_len = scan.ends.get(i.wrapping_sub(1)).copied().unwrap_or(0);
                break;
            }
            if rec.seq_after <= snap_seq {
                continue;
            }
            let mut ok = true;
            for op in &rec.ops {
                let values: Vec<&str> = op.values.iter().map(String::as_str).collect();
                let applied = if op.insert {
                    db.insert_tuple(&op.rel, &values)
                } else {
                    db.delete_tuple(&op.rel, &values)
                };
                if !matches!(applied, Ok(true)) {
                    ok = false;
                    break;
                }
            }
            if !ok || db.mutation_seq() != rec.seq_after {
                corrupt = true;
                valid_len = scan.ends.get(i.wrapping_sub(1)).copied().unwrap_or(0);
                // Roll back to the last consistent point we can name.
                db.set_mutation_seq(rec.seq_after);
                break;
            }
            replayed += 1;
        }
    } else {
        valid_len = 0;
    }

    let mut truncated_bytes = 0u64;
    let file_len = fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
    if file_len > valid_len {
        truncated_bytes = file_len - valid_len;
        truncate_to(&wal, valid_len)?;
    }

    replay_span.add("replayed", replayed);
    replay_span.add("truncated_bytes", truncated_bytes);
    drop(replay_span);
    Ok(Recovered {
        db,
        epoch,
        snapshot_loaded,
        snapshots_skipped: skipped,
        replayed,
        truncated_bytes,
        torn: scan.torn,
        corrupt,
    })
}

/// Encodes a database name into a filesystem-safe directory name.
/// Alphanumerics, `-` and `_` pass through; every other byte becomes
/// `%XX`. Injective, so distinct names never collide on disk.
pub(crate) fn encode_db_dir(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Inverse of [`encode_db_dir`]; `None` for names that are not valid
/// encodings (foreign files in the data dir are skipped, not fatal).
pub(crate) fn decode_db_dir(dir: &str) -> Option<String> {
    let bytes = dir.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = char::from(hex[0]).to_digit(16)?;
                let lo = char::from(hex[1]).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b @ (b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_') => {
                out.push(b);
                i += 1;
            }
            _ => return None,
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cqsnap_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_roundtrip_preserves_content_and_seq() {
        let dir = tmpdir("rt");
        let mut db = Database::default();
        db.add_fact("r", &["a", "b"]);
        db.add_fact("r", &["b", "c"]);
        db.add_fact("s", &["weird value", "has (parens)."]);
        db.insert_tuple("r", &["c", "d"]).unwrap();
        let fp = db.fingerprint();
        write_snapshot(&dir, &db, 3, || {}).unwrap();
        let rec = recover_db(&dir).unwrap();
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.epoch, 3);
        assert_eq!(rec.db.mutation_seq(), 1);
        assert_eq!(rec.db.fingerprint(), fp);
        assert_eq!(rec.replayed, 0);
        assert!(!rec.corrupt && !rec.torn);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_previous_generation() {
        let dir = tmpdir("fallback");
        let mut db = Database::default();
        db.add_fact("r", &["a", "b"]);
        write_snapshot(&dir, &db, 1, || {}).unwrap();
        let old_fp = db.fingerprint();
        db.insert_tuple("r", &["b", "c"]).unwrap();
        write_snapshot(&dir, &db, 1, || {}).unwrap();
        // Mangle the newest snapshot.
        let newest = snapshot_files(&dir).pop().unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&newest, &bytes).unwrap();
        let rec = recover_db(&dir).unwrap();
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.snapshots_skipped, 1);
        assert_eq!(rec.db.fingerprint(), old_fp);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_format_snapshot_is_skipped_for_the_older_image() {
        use crate::protocol::MutationOp;
        use crate::wal::{WalRecord, WalWriter};
        let dir = tmpdir("foreign");
        let mut db = Database::default();
        db.add_fact("r", &["a", "b"]);
        write_snapshot(&dir, &db, 1, || {}).unwrap();
        // Two mutations land in the WAL after the image.
        let mut wal = WalWriter::open(&wal_path(&dir), None, None).unwrap();
        for v in ["c", "d"] {
            db.insert_tuple("r", &["b", v]).unwrap();
            let op = MutationOp {
                insert: true,
                rel: "r".into(),
                values: vec!["b".into(), v.into()],
            };
            let record = WalRecord {
                epoch: 1,
                seq_after: db.mutation_seq(),
                ops: vec![op],
            };
            wal.append(&record).unwrap();
        }
        wal.sync().unwrap();
        // A newer file in the retired pre-store format (magic `CQSNAP1\n`)
        // is not a store image: recovery skips it like any corrupt file.
        let mut foreign = b"CQSNAP1\n".to_vec();
        foreign.extend_from_slice(&[0x01, 0x02, 0x7f, 0xff, 0x00, 0x13, 0x37]);
        fs::write(dir.join(snap_file_name(1, 2)), foreign).unwrap();
        let rec = recover_db(&dir).unwrap();
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.snapshots_skipped, 1);
        assert_eq!(rec.epoch, 1);
        assert_eq!(rec.replayed, 2);
        assert_eq!(rec.db.mutation_seq(), 2);
        assert_eq!(rec.db.fingerprint(), db.fingerprint());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_relations_sit_on_the_snapshot_pages() {
        let dir = tmpdir("frozen");
        let mut db = Database::default();
        db.add_fact("r", &["a", "b"]);
        db.add_fact("r", &["b", "c"]);
        write_snapshot(&dir, &db, 1, || {}).unwrap();
        let rec = recover_db(&dir).unwrap();
        let r = rec.db.relation("r").unwrap();
        assert!(r.is_frozen(), "recovery must not copy pages into the heap");
        assert!(rec.db.resident_bytes() + rec.db.mapped_bytes() > 0);
        // A replayed mutation thaws the touched relation, nothing else.
        let mut db2 = rec.db;
        db2.insert_tuple("r", &["c", "d"]).unwrap();
        assert!(!db2.relation("r").unwrap().is_frozen());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn db_dir_encoding_roundtrips() {
        for name in ["main", "a b", "Ω/δ", "..", "%", "mixed_OK-9 %2F"] {
            let enc = encode_db_dir(name);
            assert!(enc
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'%'));
            assert_eq!(decode_db_dir(&enc).as_deref(), Some(name));
        }
        assert_eq!(decode_db_dir("has space"), None);
        assert_eq!(decode_db_dir("bad%zz"), None);
    }
}
