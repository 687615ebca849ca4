//! Zero-copy immutable relation store: the on-disk page format behind
//! O(mmap) startup.
//!
//! A store file is one self-verifying little-endian image of a database at
//! a `(epoch, mutation_seq)` point. Every section is 8-byte aligned and
//! fixed-layout, so the reader *casts* instead of deserializing: after an
//! `mmap` (or a read into an aligned heap buffer as fallback) the sorted
//! tuple pages and the open-addressed dedup index are used in place, and a
//! recovered [`Relation`] is just a borrowed window into the region.
//!
//! ```text
//! header (72 bytes):
//!   0..8   magic "CQSTORE2"
//!   8..12  format version   u32 (= 2)
//!   12..16 endian tag       u32 (= 0x0A0B_0C0D as written on LE)
//!   16..24 epoch            u64
//!   24..32 mutation_seq     u64
//!   32..36 nrels            u32
//!   36..40 ninterned        u32
//!   40..48 meta_len         u64
//!   48..56 total_len        u64
//!   56..64 reserved         u64 (0)
//!   64..68 meta_crc         u32   crc32 of the meta section
//!   68..72 header_crc       u32   crc32 of bytes 0..68
//! meta section (at 72, meta_len bytes):
//!   interner table  (ninterned + 1) × u64   blob-relative name bounds
//!   strings blob    interner names then relation names, zero-padded to 8
//!   directory       nrels × 8 × u64 (relations sorted by name):
//!     name_off, name_len, arity, ntuples, data_off, index_off, nslots,
//!     page_crc (low 32 bits)
//! pages (from 72 + meta_len):
//!   per relation: ntuples × arity × u32 sorted row-major values, pad to 8,
//!   then nslots × u32 dedup index (u32::MAX = empty), pad to 8.
//!   page_crc covers [data_off, align8(index_off + nslots·4)).
//! ```
//!
//! Tuple pages are stored in ascending lexicographic row order, so a frozen
//! relation doubles as a trie: every bound prefix is a contiguous row range
//! and the wcoj kernel (see [`crate::wcoj`]) descends it with binary
//! searches. The index page is the same open-addressed u32-offset table the
//! heap [`Relation`] maintains (same hash, same probing), persisted as-is —
//! membership probes work on the mapped bytes with zero rebuild cost.
//!
//! Integrity is CRC-based and fail-closed: header, meta and every relation
//! page carry independent CRC-32s (same polynomial as the WAL), and any
//! mismatch, truncation, foreign endianness or unknown version surfaces as
//! a typed [`StoreError`] before a single tuple is exposed. The CRCs are
//! the integrity boundary — a file that passes them is trusted to satisfy
//! the structural invariants (sorted rows, in-bounds index offsets).

use crate::relation::build_slot_index;
use crate::value::Interner;
use crate::{Database, Relation, Value};
use std::fmt;
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// File magic: `open_store` rejects any file that does not start with it.
pub const STORE_MAGIC: &[u8; 8] = b"CQSTORE2";
/// Current format version.
pub const STORE_VERSION: u32 = 2;
/// Written as a native-endian u32; reads as this value only on a
/// little-endian host looking at a little-endian file.
const ENDIAN_TAG: u32 = 0x0A0B_0C0D;
const HEADER_LEN: usize = 72;
const DIR_ENTRY_U64S: usize = 8;

/// Why a store file was rejected. Every variant fails closed: no partially
/// decoded database ever escapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The file is shorter than a section it declares.
    Truncated { need: u64, have: u64 },
    /// The first 8 bytes are not the store magic.
    BadMagic,
    /// The magic matched but the version is not one this build reads.
    BadVersion { found: u32 },
    /// The endian tag did not read back — the file was written on (or
    /// mangled into) a foreign byte order.
    BadEndian { found: u32 },
    /// A section checksum did not verify.
    CrcMismatch {
        section: &'static str,
        stored: u32,
        computed: u32,
    },
    /// Offsets or lengths are inconsistent (overlap, misalignment,
    /// non-UTF-8 name, impossible slot count).
    Layout(String),
    /// The file could not be opened, read or mapped.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated { need, have } => {
                write!(f, "store truncated: need {need} bytes, have {have}")
            }
            StoreError::BadMagic => write!(f, "bad store magic"),
            StoreError::BadVersion { found } => write!(f, "unsupported store version {found}"),
            StoreError::BadEndian { found } => {
                write!(f, "foreign endianness (tag {found:#010x})")
            }
            StoreError::CrcMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "{section} crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            StoreError::Layout(msg) => write!(f, "store layout error: {msg}"),
            StoreError::Io(msg) => write!(f, "store i/o error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// CRC-32 (IEEE, reflected) — byte-compatible with the WAL's checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    const TABLE: [u32; 256] = table();
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Region: the mapped (or heap-held) bytes behind every frozen relation.
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    // std already links libc on unix; declaring the two symbols we need
    // avoids a dependency while keeping the call sites type-checked.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
}

enum RegionKind {
    /// `mmap`'d read-only; unmapped on drop. Unlinking the backing file
    /// while mapped is fine on unix — the pages stay valid.
    #[cfg(unix)]
    Mapped,
    /// Read into an 8-byte-aligned heap buffer (fallback path and the
    /// `CQCOUNT_NO_MMAP=1` test override). The box never moves once
    /// stored, so `ptr` stays valid.
    Heap(#[allow(dead_code)] Box<[u64]>),
}

/// An immutable byte region all frozen pages borrow from, refcounted so
/// consecutive epochs share unchanged relation pages copy-on-write.
pub struct Region {
    ptr: *const u8,
    len: usize,
    kind: RegionKind,
}

// The region is immutable after construction; sharing `&[u8]` views across
// threads is safe.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Drop for Region {
    fn drop(&mut self) {
        #[cfg(unix)]
        if matches!(self.kind, RegionKind::Mapped) {
            unsafe {
                sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
            }
        }
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            #[cfg(unix)]
            RegionKind::Mapped => "mapped",
            RegionKind::Heap(_) => "heap",
        };
        write!(f, "Region({kind}, {} bytes)", self.len)
    }
}

impl Region {
    fn from_bytes(bytes: &[u8]) -> Region {
        let words = bytes.len().div_ceil(8).max(1);
        let buf = vec![0u64; words].into_boxed_slice();
        let ptr = buf.as_ptr() as *const u8;
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), ptr as *mut u8, bytes.len());
        }
        Region {
            ptr,
            len: bytes.len(),
            kind: RegionKind::Heap(buf),
        }
    }

    #[cfg(unix)]
    fn map_file(file: &File, len: usize) -> Result<Region, StoreError> {
        use std::os::unix::io::AsRawFd;
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(StoreError::Io(format!(
                "mmap failed: {}",
                std::io::Error::last_os_error()
            )));
        }
        Ok(Region {
            ptr: ptr as *const u8,
            len,
            kind: RegionKind::Mapped,
        })
    }

    /// Whether the region is an actual memory mapping (vs. the heap
    /// fallback); surfaced in the per-db memory stats.
    pub fn is_mapped(&self) -> bool {
        match self.kind {
            #[cfg(unix)]
            RegionKind::Mapped => true,
            RegionKind::Heap(_) => false,
        }
    }

    /// The whole region.
    pub fn bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// A `u32` window at `off` (bytes). Offsets come from the validated
    /// directory, so alignment and bounds hold by construction.
    fn u32s(&self, off: usize, n: usize) -> &[u32] {
        debug_assert!(off + n * 4 <= self.len);
        debug_assert_eq!((self.ptr as usize + off) % 4, 0);
        unsafe { std::slice::from_raw_parts(self.ptr.add(off) as *const u32, n) }
    }
}

/// A frozen relation's window into a [`Region`]: sorted tuple page plus
/// the persisted dedup index. Cloning is an `Arc` bump — this is the CoW
/// sharing unit across epochs.
#[derive(Clone)]
pub struct FrozenPage {
    region: Arc<Region>,
    arity: usize,
    ntuples: usize,
    data_off: usize,
    index_off: usize,
    nslots: usize,
}

impl fmt::Debug for FrozenPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FrozenPage(arity {}, {} tuples, {} slots)",
            self.arity, self.ntuples, self.nslots
        )
    }
}

impl FrozenPage {
    /// The sorted row-major tuple values. `Value` is `repr(transparent)`
    /// over `u32`, so the mapped page is viewed in place.
    pub(crate) fn values(&self) -> &[Value] {
        let raw = self.region.u32s(self.data_off, self.ntuples * self.arity);
        unsafe { std::slice::from_raw_parts(raw.as_ptr() as *const Value, raw.len()) }
    }

    /// The persisted open-addressed index.
    pub(crate) fn slots(&self) -> &[u32] {
        self.region.u32s(self.index_off, self.nslots)
    }

    pub(crate) fn len(&self) -> usize {
        self.ntuples
    }

    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    /// Bytes of the backing region this page spans (tuples + index).
    pub(crate) fn page_bytes(&self) -> usize {
        (self.index_off + self.nslots * 4).next_multiple_of(8) - self.data_off
    }

    pub(crate) fn is_mapped(&self) -> bool {
        self.region.is_mapped()
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

/// Encodes `db` at `(epoch, seq)` as a complete store image. Frozen
/// relations are copied page-to-page (already sorted); heap relations are
/// sorted on the way out.
pub fn encode_store(db: &Database, epoch: u64, seq: u64) -> Vec<u8> {
    let interner = db.interner();
    let mut rels: Vec<(&str, &Relation)> = db.relations().collect();
    rels.sort_by_key(|&(name, _)| name);

    // Strings blob + interner bounds table.
    let ninterned = interner.len();
    let mut blob = Vec::new();
    let mut itab: Vec<u64> = Vec::with_capacity(ninterned + 1);
    for v in interner.values() {
        itab.push(blob.len() as u64);
        blob.extend_from_slice(interner.name(v).as_bytes());
    }
    itab.push(blob.len() as u64);
    let mut rel_names: Vec<(usize, usize)> = Vec::with_capacity(rels.len());
    for &(name, _) in &rels {
        rel_names.push((blob.len(), name.len()));
        blob.extend_from_slice(name.as_bytes());
    }

    let itab_off = HEADER_LEN;
    let blob_off = itab_off + itab.len() * 8;
    let dir_off = (blob_off + blob.len()).next_multiple_of(8);
    let pages_off = dir_off + rels.len() * DIR_ENTRY_U64S * 8;
    let meta_len = pages_off - HEADER_LEN;

    // Lay the pages out (sorted values + index per relation) and record
    // directory entries as we go.
    let mut pages = Vec::new();
    let mut dir: Vec<u64> = Vec::with_capacity(rels.len() * DIR_ENTRY_U64S);
    for (i, &(_name, rel)) in rels.iter().enumerate() {
        let arity = rel.arity();
        let data_off = pages_off + pages.len();
        // Sorted row-major values: frozen pages are already in store
        // order; heap relations are sorted on the way out.
        let sorted: Vec<Value>;
        let sorted = match rel.sorted_values() {
            Some(s) => s,
            None => {
                let mut order: Vec<u32> = (0..rel.len() as u32).collect();
                order.sort_unstable_by(|&a, &b| rel.row(a as usize).cmp(rel.row(b as usize)));
                sorted = order
                    .iter()
                    .flat_map(|&r| rel.row(r as usize).iter().copied())
                    .collect();
                &sorted[..]
            }
        };
        for v in sorted {
            pages.extend_from_slice(&v.0.to_le_bytes());
        }
        pad8(&mut pages);
        let index_off = pages_off + pages.len();
        let slots = build_slot_index(|n| &sorted[n * arity..(n + 1) * arity], rel.len());
        for s in &slots {
            pages.extend_from_slice(&s.to_le_bytes());
        }
        pad8(&mut pages);
        let page_end = pages_off + pages.len();
        let page_crc = crc32(&pages[data_off - pages_off..page_end - pages_off]);
        let (name_rel_off, name_len) = rel_names[i];
        dir.extend_from_slice(&[
            (blob_off + name_rel_off) as u64,
            name_len as u64,
            arity as u64,
            rel.len() as u64,
            data_off as u64,
            index_off as u64,
            slots.len() as u64,
            page_crc as u64,
        ]);
    }

    let total_len = pages_off + pages.len();

    // Assemble: header | meta | pages.
    let mut out = Vec::with_capacity(total_len);
    out.extend_from_slice(STORE_MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&ENDIAN_TAG.to_ne_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(rels.len() as u32).to_le_bytes());
    out.extend_from_slice(&(ninterned as u32).to_le_bytes());
    out.extend_from_slice(&(meta_len as u64).to_le_bytes());
    out.extend_from_slice(&(total_len as u64).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    debug_assert_eq!(out.len(), 64);

    let mut meta = Vec::with_capacity(meta_len);
    for o in &itab {
        meta.extend_from_slice(&o.to_le_bytes());
    }
    meta.extend_from_slice(&blob);
    pad8(&mut meta);
    for d in &dir {
        meta.extend_from_slice(&d.to_le_bytes());
    }
    debug_assert_eq!(meta.len(), meta_len);

    out.extend_from_slice(&crc32(&meta).to_le_bytes());
    let header_crc = crc32(&out[..64]);
    out.extend_from_slice(&header_crc.to_le_bytes());
    out.extend_from_slice(&meta);
    out.extend_from_slice(&pages);
    debug_assert_eq!(out.len(), total_len);
    out
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A database recovered from a store image, plus the point it captures.
#[derive(Debug)]
pub struct LoadedStore {
    pub db: Database,
    pub epoch: u64,
    pub seq: u64,
    /// Whether the backing region is an actual mmap (vs. heap fallback).
    pub mapped: bool,
}

/// Opens a store file, mapping it when possible. Set `CQCOUNT_NO_MMAP=1`
/// to force the heap fallback (used by tests to cover both paths).
pub fn open_store(path: &Path) -> Result<LoadedStore, StoreError> {
    let mut file = File::open(path).map_err(|e| StoreError::Io(e.to_string()))?;
    let len = file
        .metadata()
        .map_err(|e| StoreError::Io(e.to_string()))?
        .len();
    if len < HEADER_LEN as u64 {
        return Err(StoreError::Truncated {
            need: HEADER_LEN as u64,
            have: len,
        });
    }
    let no_mmap = std::env::var("CQCOUNT_NO_MMAP").is_ok_and(|v| v == "1");
    #[cfg(unix)]
    let region = if no_mmap {
        read_heap_region(&mut file)?
    } else {
        Region::map_file(&file, len as usize)?
    };
    #[cfg(not(unix))]
    let region = {
        let _ = no_mmap;
        read_heap_region(&mut file)?
    };
    load_region(region)
}

fn read_heap_region(file: &mut File) -> Result<Region, StoreError> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| StoreError::Io(e.to_string()))?;
    Ok(Region::from_bytes(&bytes))
}

/// Loads a store from bytes already in memory (the heap path; tests and
/// the snapshot decoder's byte-level fallback use this).
pub fn load_store_bytes(bytes: &[u8]) -> Result<LoadedStore, StoreError> {
    load_region(Region::from_bytes(bytes))
}

fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

fn load_region(region: Region) -> Result<LoadedStore, StoreError> {
    let region = Arc::new(region);
    let b = region.bytes();
    if b.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            need: HEADER_LEN as u64,
            have: b.len() as u64,
        });
    }
    if &b[0..8] != STORE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    // Endianness before version: on a foreign-endian file the version
    // field itself reads back byte-swapped.
    let endian = u32::from_ne_bytes(b[12..16].try_into().unwrap());
    if endian != ENDIAN_TAG {
        return Err(StoreError::BadEndian { found: endian });
    }
    let version = u32_at(b, 8);
    if version != STORE_VERSION {
        return Err(StoreError::BadVersion { found: version });
    }
    let stored = u32_at(b, 68);
    let computed = crc32(&b[..64]);
    if stored != computed {
        return Err(StoreError::CrcMismatch {
            section: "header",
            stored,
            computed,
        });
    }
    let epoch = u64_at(b, 16);
    let seq = u64_at(b, 24);
    let nrels = u32_at(b, 32) as usize;
    let ninterned = u32_at(b, 36) as usize;
    let meta_len = u64_at(b, 40) as usize;
    let total_len = u64_at(b, 48);
    if total_len != b.len() as u64 {
        return Err(StoreError::Truncated {
            need: total_len,
            have: b.len() as u64,
        });
    }
    let pages_off = HEADER_LEN
        .checked_add(meta_len)
        .filter(|&e| e <= b.len())
        .ok_or(StoreError::Truncated {
            need: HEADER_LEN as u64 + meta_len as u64,
            have: b.len() as u64,
        })?;
    let meta = &b[HEADER_LEN..pages_off];
    let stored = u32_at(b, 64);
    let computed = crc32(meta);
    if stored != computed {
        return Err(StoreError::CrcMismatch {
            section: "meta",
            stored,
            computed,
        });
    }

    // Interner: bounds table + UTF-8 names.
    let itab_len = (ninterned + 1) * 8;
    let dir_len = nrels * DIR_ENTRY_U64S * 8;
    if itab_len + dir_len > meta.len() {
        return Err(StoreError::Layout(format!(
            "meta section too small for {ninterned} names + {nrels} relations"
        )));
    }
    let blob = &meta[itab_len..meta.len() - dir_len];
    let mut names = Vec::with_capacity(ninterned);
    let mut prev = 0u64;
    for i in 0..ninterned {
        let start = u64_at(meta, i * 8);
        let end = u64_at(meta, (i + 1) * 8);
        if start < prev || end < start || end > blob.len() as u64 {
            return Err(StoreError::Layout(format!(
                "interner name {i} out of bounds"
            )));
        }
        prev = end;
        let name = std::str::from_utf8(&blob[start as usize..end as usize])
            .map_err(|_| StoreError::Layout(format!("interner name {i} is not UTF-8")))?;
        names.push(name.to_owned());
    }
    let interner = Interner::from_names(names);
    if interner.len() != ninterned {
        return Err(StoreError::Layout("duplicate interner names".into()));
    }

    // Directory + per-relation page verification.
    let dir = &meta[meta.len() - dir_len..];
    let mut relations = Vec::with_capacity(nrels);
    for r in 0..nrels {
        let e = |k: usize| u64_at(dir, (r * DIR_ENTRY_U64S + k) * 8);
        let (name_off, name_len) = (e(0) as usize, e(1) as usize);
        let arity = e(2) as usize;
        let ntuples = e(3) as usize;
        let (data_off, index_off) = (e(4) as usize, e(5) as usize);
        let nslots = e(6) as usize;
        let page_crc = e(7) as u32;

        let name_end = name_off
            .checked_add(name_len)
            .filter(|&e| e <= pages_off)
            .ok_or_else(|| StoreError::Layout(format!("relation {r} name out of bounds")))?;
        if name_off < HEADER_LEN {
            return Err(StoreError::Layout(format!(
                "relation {r} name out of bounds"
            )));
        }
        let name = std::str::from_utf8(&b[name_off..name_end])
            .map_err(|_| StoreError::Layout(format!("relation {r} name is not UTF-8")))?
            .to_owned();

        let data_len = ntuples
            .checked_mul(arity)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| StoreError::Layout(format!("relation {name}: size overflow")))?;
        let page_end = (index_off + nslots * 4).next_multiple_of(8);
        if data_off % 8 != 0
            || index_off % 8 != 0
            || data_off < pages_off
            || index_off < data_off + data_len
            || page_end > b.len()
        {
            return Err(StoreError::Layout(format!(
                "relation {name}: page offsets out of bounds"
            )));
        }
        if ntuples > 0 && (!nslots.is_power_of_two() || nslots <= ntuples) {
            return Err(StoreError::Layout(format!(
                "relation {name}: {nslots} slots cannot index {ntuples} tuples"
            )));
        }
        let computed = crc32(&b[data_off..page_end]);
        if page_crc != computed {
            return Err(StoreError::CrcMismatch {
                section: "page",
                stored: page_crc,
                computed,
            });
        }
        let page = FrozenPage {
            region: Arc::clone(&region),
            arity,
            ntuples,
            data_off,
            index_off,
            nslots,
        };
        relations.push((name, Relation::from_frozen(page)));
    }

    let mapped = region.is_mapped();
    let db = Database::from_parts(interner, relations, seq);
    Ok(LoadedStore {
        db,
        epoch,
        seq,
        mapped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;

    fn sample_db() -> Database {
        let mut db = Database::new();
        for (x, y) in [(1u64, 2u64), (2, 3), (3, 1), (7, 7)] {
            db.add_fact("e", &[&x.to_string(), &y.to_string()]);
        }
        db.add_fact("color", &["red"]);
        db.ensure_relation("empty", 3);
        db.set_mutation_seq(42);
        db
    }

    #[test]
    fn roundtrip_bytes() {
        let db = sample_db();
        let bytes = encode_store(&db, 9, 42);
        let loaded = load_store_bytes(&bytes).unwrap();
        assert_eq!(loaded.epoch, 9);
        assert_eq!(loaded.seq, 42);
        assert!(!loaded.mapped);
        assert_eq!(loaded.db.fingerprint(), db.fingerprint());
        assert_eq!(loaded.db.mutation_seq(), 42);
        let e = loaded.db.relation("e").unwrap();
        assert_eq!(e.len(), 4);
        assert!(e.is_frozen());
        let i = loaded.db.interner();
        let one = i.get("1").unwrap();
        let two = i.get("2").unwrap();
        let seven = i.get("7").unwrap();
        assert!(e.contains(&[one, two]));
        assert!(e.contains(&[seven, seven]));
        assert!(!e.contains(&[two, two]));
        assert_eq!(loaded.db.relation("empty").unwrap().len(), 0);
        assert!(!loaded
            .db
            .relation("empty")
            .unwrap()
            .contains(&[one, one, one]));
    }

    #[test]
    fn roundtrip_file_mmap() {
        let dir = std::env::temp_dir().join(format!("cqstore-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.cqs");
        let db = sample_db();
        std::fs::write(&path, encode_store(&db, 1, 42)).unwrap();
        let loaded = open_store(&path).unwrap();
        assert_eq!(loaded.db.fingerprint(), db.fingerprint());
        // Deleting the file under the map is safe; the pages stay valid.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.db.relation("e").unwrap().len(), 4);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn frozen_pages_are_sorted() {
        let db = sample_db();
        let loaded = load_store_bytes(&encode_store(&db, 0, 0)).unwrap();
        let e = loaded.db.relation("e").unwrap();
        let rows: Vec<Vec<Value>> = e.iter().map(|r| r.to_vec()).collect();
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted);
        assert!(e.sorted_values().is_some());
    }

    #[test]
    fn reencoding_a_frozen_db_is_stable() {
        let db = sample_db();
        let bytes = encode_store(&db, 3, 42);
        let loaded = load_store_bytes(&bytes).unwrap();
        let again = encode_store(&loaded.db, 3, 42);
        assert_eq!(bytes, again);
    }
}
