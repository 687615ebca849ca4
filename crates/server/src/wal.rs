//! Per-database write-ahead log: the durability floor under live
//! mutations.
//!
//! Every *effective* mutation batch is appended here before the client
//! sees its `Mutated` acknowledgement. A record is self-delimiting and
//! self-verifying:
//!
//! ```text
//! uleb body_len | u32 crc32(body) LE | body
//! body = uleb epoch | uleb seq_after | uleb nops
//!        nops × (u8 kind | str rel | uleb arity | arity × str value)
//! ```
//!
//! where `str` is the protocol's length-prefixed UTF-8 encoding and
//! `seq_after` is the database's `mutation_seq` *after* the batch — since
//! only effective ops are logged, replaying a WAL on top of its snapshot
//! reproduces the sequence exactly, and the replay asserts it.
//!
//! The writer buffers in user space ([`BufWriter`]) on purpose: a record
//! that has been appended but not yet flushed/fsynced is genuinely lost
//! when the process dies, which is exactly the "unacknowledged mutations
//! are atomically absent" contract the crash tests pin down. A direct
//! write would park the bytes in the OS page cache where a `kill -9`
//! cannot touch them, silently weakening the test into a tautology.
//!
//! Recovery ([`scan_wal`]) distinguishes two kinds of bad tail:
//!
//! * a **torn tail** — the file ends mid-record. Normal crash residue
//!   (the process died between `write` and durability); truncated
//!   silently and counted in `cqcount_recovery_torn_tails_total`.
//! * a **corrupt record** — a complete frame whose CRC or body does not
//!   check out. Never produced by a clean crash; counted in
//!   `cqcount_recovery_corrupt_records_total`, which CI gates at zero.
//!
//! Either way the scan stops at the last valid record and the recovery
//! path truncates the file there — replay never guesses past a bad
//! frame, so a recovered count is always a count the server once served.

use crate::protocol::{read_str, read_uleb, write_str, write_uleb, MutationOp};
use cqcount_relational::store::crc32;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File name of the per-database log inside its data-dir subdirectory.
pub(crate) const WAL_FILE: &str = "wal.log";

/// Upper bound on a single record body; anything larger is treated as a
/// corrupt length prefix, not an allocation request. Generous: a maximal
/// mutation batch (2^16 ops × 8 KiB strings) stays well below it only in
/// pathological cases, but those arrive via `MAX_PAYLOAD`-capped frames
/// (16 MiB) and can never encode to more than a small multiple of that.
const MAX_RECORD_BODY: u64 = 64 << 20;

/// One WAL record: an effective mutation batch and where it left the
/// database's mutation sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalRecord {
    /// Epoch of the database instance the batch applied to. Replay skips
    /// records from an older epoch than the snapshot (they are already
    /// folded in or superseded by a reload).
    pub(crate) epoch: u64,
    /// `Database::mutation_seq` after the batch.
    pub(crate) seq_after: u64,
    /// The effective ops, in application order.
    pub(crate) ops: Vec<MutationOp>,
}

impl WalRecord {
    /// Encodes the full frame (length prefix + CRC + body).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(32 + self.ops.len() * 16);
        write_uleb(&mut body, self.epoch);
        write_uleb(&mut body, self.seq_after);
        write_uleb(&mut body, self.ops.len() as u64);
        for op in &self.ops {
            body.push(u8::from(op.insert));
            write_str(&mut body, &op.rel);
            write_uleb(&mut body, op.values.len() as u64);
            for v in &op.values {
                write_str(&mut body, v);
            }
        }
        let mut out = Vec::with_capacity(body.len() + 16);
        write_uleb(&mut out, body.len() as u64);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    fn decode_body(body: &[u8]) -> Result<WalRecord, String> {
        let mut pos = 0usize;
        let epoch = read_uleb(body, &mut pos)?;
        let seq_after = read_uleb(body, &mut pos)?;
        let nops = read_uleb(body, &mut pos)?;
        if nops > crate::protocol::MAX_MUTATION_OPS as u64 {
            return Err(format!("record claims {nops} ops"));
        }
        let mut ops = Vec::with_capacity(nops as usize);
        for _ in 0..nops {
            let kind = *body.get(pos).ok_or("truncated op kind")?;
            pos += 1;
            let insert = match kind {
                0 => false,
                1 => true,
                other => return Err(format!("bad op kind {other}")),
            };
            let rel = read_str(body, &mut pos)?;
            let arity = read_uleb(body, &mut pos)?;
            if arity > crate::protocol::MAX_TUPLE_ARITY as u64 {
                return Err(format!("record claims arity {arity}"));
            }
            let mut values = Vec::with_capacity(arity as usize);
            for _ in 0..arity {
                values.push(read_str(body, &mut pos)?);
            }
            ops.push(MutationOp {
                insert,
                rel,
                values,
            });
        }
        if pos != body.len() {
            return Err("trailing bytes in record body".into());
        }
        Ok(WalRecord {
            epoch,
            seq_after,
            ops,
        })
    }
}

/// The append side of the log. All appends go through a [`BufWriter`];
/// see the module docs for why that buffering is load-bearing.
#[derive(Debug)]
pub(crate) struct WalWriter {
    out: BufWriter<File>,
    /// Fault injection: error every append once this many have succeeded
    /// (`--wal-fail-after N`). `None` = healthy disk.
    fail_after: Option<u64>,
    appended: u64,
    /// Fault injection: `(nth, ms)` makes the `nth` fsync (1-based) sleep
    /// `ms` milliseconds before syncing (`--wal-fsync-stall N:MS`) — a
    /// deterministic stand-in for a disk that momentarily seizes up. The
    /// sync still *succeeds*; only its latency is poisoned, which is what
    /// the flight-recorder forensics tests need. `None` = healthy disk.
    fsync_stall: Option<(u64, u64)>,
    synced: u64,
}

impl WalWriter {
    /// Opens (creating if absent) the log at `path` for appending.
    pub(crate) fn open(
        path: &Path,
        fail_after: Option<u64>,
        fsync_stall: Option<(u64, u64)>,
    ) -> std::io::Result<WalWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(WalWriter {
            out: BufWriter::new(file),
            fail_after,
            appended: 0,
            fsync_stall,
            synced: 0,
        })
    }

    /// Buffers one record. Returns the encoded size. Does *not* flush —
    /// the caller's fsync policy decides how far the bytes travel before
    /// the batch is acknowledged.
    pub(crate) fn append(&mut self, record: &WalRecord) -> std::io::Result<u64> {
        if let Some(n) = self.fail_after {
            if self.appended >= n {
                return Err(std::io::Error::other(
                    "injected WAL write error (--wal-fail-after)",
                ));
            }
        }
        let bytes = record.encode();
        self.out.write_all(&bytes)?;
        self.appended += 1;
        Ok(bytes.len() as u64)
    }

    /// Pushes buffered bytes to the OS (no fsync).
    pub(crate) fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }

    /// Flush + fsync: the record survives power loss after this returns.
    pub(crate) fn sync(&mut self) -> std::io::Result<()> {
        self.synced += 1;
        if let Some((nth, ms)) = self.fsync_stall {
            if self.synced == nth {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
        self.out.flush()?;
        self.out.get_ref().sync_data()
    }

    /// Discards the log contents (after a successful snapshot has folded
    /// them in) and makes the truncation itself durable.
    pub(crate) fn truncate(&mut self) -> std::io::Result<()> {
        self.out.flush()?;
        let file = self.out.get_mut();
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        file.sync_data()
    }
}

/// The outcome of scanning a log during recovery.
#[derive(Debug, Default)]
pub(crate) struct WalScan {
    /// Every record up to the first bad frame, in file order.
    pub(crate) records: Vec<WalRecord>,
    /// End offset of each record in `records` — `ends[i]` is the byte
    /// length of the file prefix holding records `0..=i`. Recovery uses
    /// these to truncate at a *semantic* failure boundary, not just a
    /// framing one.
    pub(crate) ends: Vec<u64>,
    /// Byte length of the valid prefix; recovery truncates the file here.
    pub(crate) valid_len: u64,
    /// The file ended mid-record (normal crash residue).
    pub(crate) torn: bool,
    /// A complete frame failed its CRC or body decode (never produced by
    /// a clean crash; CI gates this at zero).
    pub(crate) corrupt: bool,
}

/// Reads and verifies the log at `path`. A missing file is an empty scan.
/// Never errors on bad *content* — damage is reported in the scan flags —
/// only on I/O failure reading the file.
pub(crate) fn scan_wal(path: &Path) -> std::io::Result<WalScan> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(e),
    }
    let mut scan = WalScan::default();
    let mut pos = 0usize;
    while pos < buf.len() {
        let start = pos;
        // Length prefix: a truncated varint is a torn tail.
        let body_len = match read_uleb(&buf, &mut pos) {
            Ok(v) => v,
            Err(_) => {
                scan.torn = true;
                break;
            }
        };
        if body_len > MAX_RECORD_BODY {
            // An insane length is corruption, not a short read: no honest
            // writer produced it, and treating it as torn would make the
            // CI zero-corruption gate blind to mangled length prefixes.
            scan.corrupt = true;
            break;
        }
        let Some(frame_end) = pos.checked_add(4 + body_len as usize) else {
            scan.corrupt = true;
            break;
        };
        if frame_end > buf.len() {
            scan.torn = true;
            break;
        }
        let crc_stored = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes"));
        let body = &buf[pos + 4..frame_end];
        if crc32(body) != crc_stored {
            scan.corrupt = true;
            break;
        }
        match WalRecord::decode_body(body) {
            Ok(rec) => scan.records.push(rec),
            Err(_) => {
                scan.corrupt = true;
                break;
            }
        }
        pos = frame_end;
        scan.ends.push(frame_end as u64);
        scan.valid_len = start as u64 + (frame_end - start) as u64;
    }
    scan.valid_len = scan.valid_len.min(buf.len() as u64);
    Ok(scan)
}

/// Truncates the log to its valid prefix, discarding a torn or corrupt
/// tail so the next append starts on a record boundary.
pub(crate) fn truncate_to(path: &Path, len: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_data()
}

/// The log's path inside a database's data directory.
pub(crate) fn wal_path(db_dir: &Path) -> PathBuf {
    db_dir.join(WAL_FILE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epoch: u64, seq: u64, n: usize) -> WalRecord {
        WalRecord {
            epoch,
            seq_after: seq,
            ops: (0..n)
                .map(|i| MutationOp {
                    insert: i % 2 == 0,
                    rel: format!("r{i}"),
                    values: vec![format!("a{i}"), "b".into()],
                })
                .collect(),
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_roundtrip() {
        for r in [rec(1, 7, 0), rec(3, 99, 1), rec(2, 12, 5)] {
            let bytes = r.encode();
            let mut pos = 0usize;
            let len = read_uleb(&bytes, &mut pos).unwrap() as usize;
            let crc = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            let body = &bytes[pos + 4..pos + 4 + len];
            assert_eq!(crc32(body), crc);
            assert_eq!(WalRecord::decode_body(body).unwrap(), r);
        }
    }

    #[test]
    fn scan_stops_cleanly_at_every_truncation_offset() {
        let dir = std::env::temp_dir().join(format!("cqwal_scan_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let records = [rec(1, 2, 2), rec(1, 4, 2), rec(1, 5, 1)];
        let mut full = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            full.extend_from_slice(&r.encode());
            boundaries.push(full.len());
        }
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_wal(&path).unwrap();
            // The valid prefix is the greatest record boundary <= cut.
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.records.len(), whole, "cut at {cut}");
            assert_eq!(scan.records, records[..whole], "cut at {cut}");
            assert_eq!(scan.valid_len as usize, boundaries[whole]);
            assert_eq!(scan.torn, cut != boundaries[whole], "cut at {cut}");
            assert!(!scan.corrupt);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_flags_corrupt_interior_byte() {
        let dir = std::env::temp_dir().join(format!("cqwal_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let r0 = rec(1, 2, 2);
        let r1 = rec(1, 3, 1);
        let mut bytes = r0.encode();
        let first_len = bytes.len();
        bytes.extend_from_slice(&r1.encode());
        // Flip a byte inside the second record's body.
        bytes[first_len + 6] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records, vec![r0]);
        assert_eq!(scan.valid_len as usize, first_len);
        assert!(scan.corrupt);
        assert!(!scan.torn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_fail_after_injects_errors() {
        let dir = std::env::temp_dir().join(format!("cqwal_fail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::open(&path, Some(2), None).unwrap();
        assert!(w.append(&rec(1, 1, 1)).is_ok());
        assert!(w.append(&rec(1, 2, 1)).is_ok());
        assert!(w.append(&rec(1, 3, 1)).is_err());
        w.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
