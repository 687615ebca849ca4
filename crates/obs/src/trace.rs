//! A lock-cheap span tracer.
//!
//! Design:
//!
//! * Tracing is **globally gated**: spans are only recorded while at least
//!   one [`TraceSession`] is alive (or tracing is forced on, see
//!   [`set_forced`]). Disabled, an instrumented scope costs one relaxed
//!   atomic load and returns an unarmed guard whose every method is a
//!   no-op.
//! * Each thread owns a small **ring buffer** of finished spans plus a
//!   stack of *active* spans. Entering a span pushes onto the thread-local
//!   stack; dropping the guard pops it and moves the finished
//!   [`SpanRecord`] into the ring (drop-oldest on overflow, counted by
//!   [`dropped`]). Counters and tags attach to the active entry without
//!   heap allocation for the keys (`&'static str`).
//! * Spans carry **explicit IDs** ([`SpanId`], from a global monotonic
//!   counter) so work can hop threads: a `par_map` lane opens its span
//!   with [`span_under`]`(parent, ..)` where `parent` was captured on the
//!   submitting thread via [`current`].
//! * A **collector** ([`collect`]) drains every thread ring into a global
//!   pending pool and extracts exactly the records whose parent chain leads
//!   to the requested root. Records belonging to other in-flight roots stay
//!   pending until their own collector runs; orphans age out of the bounded
//!   pool. Children always finish before their parent guard drops, so by
//!   the time a root's guard is gone the whole tree is in the rings.
//!
//! Timestamps are nanoseconds of monotonic [`Instant`] time since the
//! process-wide trace epoch ([`now_ns`]); wall-clock never enters the
//! records, so traces are immune to clock steps.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Finished spans retained per thread before the oldest are dropped.
pub const THREAD_RING_CAP: usize = 8192;
/// Finished spans retained in the global pending pool (records whose
/// collector has not yet run) before the oldest are dropped.
pub const PENDING_CAP: usize = 65536;

/// Identifier of a span, unique within the process lifetime.
///
/// `SpanId::NONE` (zero) is the "no parent" sentinel; real IDs start at 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SpanId(u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);

    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A finished span as drained by [`collect`].
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Accumulated numeric counters (repeated keys are summed on add).
    pub counters: Vec<(&'static str, u64)>,
    /// String tags (repeated keys overwrite).
    pub tags: Vec<(&'static str, String)>,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds of monotonic time since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    let e = epoch();
    Instant::now().duration_since(e).as_nanos() as u64
}

static FORCED: AtomicBool = AtomicBool::new(false);
static SESSIONS: AtomicU64 = AtomicU64::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Whether spans are currently being recorded. This is the only check on
/// the disabled hot path.
#[inline]
pub fn enabled() -> bool {
    FORCED.load(Ordering::Relaxed) || SESSIONS.load(Ordering::Relaxed) > 0
}

/// Force tracing on (or off) regardless of active sessions. Used by the
/// overhead bench and the daemon's `--trace-log` mode; prefer
/// [`TraceSession`] for request-scoped profiling.
pub fn set_forced(on: bool) {
    FORCED.store(on, Ordering::Relaxed);
}

/// Total spans discarded because a thread ring or the pending pool
/// overflowed. Monotonic.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// RAII guard that keeps tracing enabled while alive. Sessions nest; spans
/// record while at least one session exists anywhere in the process.
pub struct TraceSession(u64);

impl TraceSession {
    pub fn begin() -> TraceSession {
        let start = now_ns();
        session_starts().lock().unwrap().push(start);
        SESSIONS.fetch_add(1, Ordering::Relaxed);
        TraceSession(start)
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        SESSIONS.fetch_sub(1, Ordering::Relaxed);
        let mut starts = session_starts().lock().unwrap();
        if let Some(i) = starts.iter().position(|&s| s == self.0) {
            starts.swap_remove(i);
        }
    }
}

/// Start times of the live [`TraceSession`]s. A finished span can only be
/// claimed by a session that was already running when it ended (spans
/// start after their session begins), so anything in the pending pool
/// older than the oldest live session is unclaimable garbage — [`collect`]
/// purges it. Without this, background spans with no collector (e.g. a
/// reactor's own housekeeping spans while request sessions keep tracing
/// globally enabled) would pin the pool at [`PENDING_CAP`] and every
/// collect would rescan all of it.
fn session_starts() -> &'static Mutex<Vec<u64>> {
    static STARTS: OnceLock<Mutex<Vec<u64>>> = OnceLock::new();
    STARTS.get_or_init(|| Mutex::new(Vec::new()))
}

struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    counters: Vec<(&'static str, u64)>,
    tags: Vec<(&'static str, String)>,
}

struct ThreadRing {
    ring: Mutex<VecDeque<SpanRecord>>,
}

// The registry holds *strong* references so a ring outlives its thread:
// `par_map` lanes and other short-lived threads usually exit before the
// collector runs, and their records must survive until drained. Rings of
// dead threads are pruned in `collect` once they have been emptied.
fn registry() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn pending() -> &'static Mutex<VecDeque<SpanRecord>> {
    static PENDING: OnceLock<Mutex<VecDeque<SpanRecord>>> = OnceLock::new();
    PENDING.get_or_init(|| Mutex::new(VecDeque::new()))
}

thread_local! {
    static RING: Arc<ThreadRing> = {
        let ring = Arc::new(ThreadRing {
            ring: Mutex::new(VecDeque::new()),
        });
        registry().lock().unwrap().push(Arc::clone(&ring));
        ring
    };
    static STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
}

fn push_record(rec: SpanRecord) {
    RING.with(|r| {
        let mut ring = r.ring.lock().unwrap();
        if ring.len() >= THREAD_RING_CAP {
            ring.pop_front();
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(rec);
    });
}

/// Guard for an in-progress span. Dropping it finishes the span. An
/// unarmed guard (tracing disabled at creation) ignores every call.
#[must_use = "dropping the guard ends the span"]
pub struct Span {
    id: u64,
}

impl Span {
    /// A guard that records nothing. Useful for conditional tracing.
    pub fn disarmed() -> Span {
        Span { id: 0 }
    }

    pub fn is_armed(&self) -> bool {
        self.id != 0
    }

    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }

    /// Add `v` to the numeric counter `key` on this span.
    pub fn add(&self, key: &'static str, v: u64) {
        if self.id == 0 {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(entry) = stack.iter_mut().rev().find(|e| e.id == self.id) {
                match entry.counters.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, total)) => *total += v,
                    None => entry.counters.push((key, v)),
                }
            }
        });
    }

    /// Set the string tag `key` on this span (overwrites).
    pub fn tag(&self, key: &'static str, value: impl Into<String>) {
        if self.id == 0 {
            return;
        }
        let value = value.into();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(entry) = stack.iter_mut().rev().find(|e| e.id == self.id) {
                match entry.tags.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, old)) => *old = value,
                    None => entry.tags.push((key, value)),
                }
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let Some(pos) = stack.iter().rposition(|e| e.id == self.id) else {
                return;
            };
            // Guards normally drop LIFO; if an inner guard was leaked or
            // dropped out of order, close everything above us too so the
            // stack stays consistent.
            while stack.len() > pos {
                let entry = stack.pop().unwrap();
                push_record(SpanRecord {
                    id: entry.id,
                    parent: entry.parent,
                    name: entry.name,
                    start_ns: entry.start_ns,
                    end_ns,
                    counters: entry.counters,
                    tags: entry.tags,
                });
            }
        });
    }
}

fn enter(name: &'static str, parent: u64) -> Span {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    STACK.with(|s| {
        s.borrow_mut().push(ActiveSpan {
            id,
            parent,
            name,
            start_ns,
            counters: Vec::new(),
            tags: Vec::new(),
        });
    });
    Span { id }
}

/// Open a span as a child of the innermost active span on this thread
/// (or as a root if there is none). Returns an unarmed guard when tracing
/// is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span::disarmed();
    }
    let parent = STACK.with(|s| s.borrow().last().map_or(0, |e| e.id));
    enter(name, parent)
}

/// Open a span under an explicit parent — the cross-thread variant used by
/// `par_map` lanes. Unarmed when tracing is disabled or `parent` is
/// [`SpanId::NONE`].
#[inline]
pub fn span_under(parent: SpanId, name: &'static str) -> Span {
    if parent.is_none() || !enabled() {
        return Span::disarmed();
    }
    enter(name, parent.0)
}

/// The innermost active span on this thread, for handing to [`span_under`]
/// on another thread.
pub fn current() -> SpanId {
    STACK.with(|s| SpanId(s.borrow().last().map_or(0, |e| e.id)))
}

/// Add to a counter on the innermost active span on this thread.
pub fn add_current(key: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(entry) = stack.last_mut() {
            match entry.counters.iter_mut().find(|(k, _)| *k == key) {
                Some((_, total)) => *total += v,
                None => entry.counters.push((key, v)),
            }
        }
    });
}

/// Set a tag on the innermost active span on this thread.
pub fn tag_current(key: &'static str, value: impl Into<String>) {
    if !enabled() {
        return;
    }
    let value = value.into();
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(entry) = stack.last_mut() {
            match entry.tags.iter_mut().find(|(k, _)| *k == key) {
                Some((_, old)) => *old = value,
                None => entry.tags.push((key, value)),
            }
        }
    });
}

/// Drain all thread rings and return every finished span whose parent
/// chain reaches `root` (inclusive). Records belonging to other roots are
/// left in the bounded pending pool for their own collectors.
///
/// Call this after the root span's guard has dropped: children finish
/// before their parent guard, so the full tree is available by then.
pub fn collect(root: SpanId) -> Vec<SpanRecord> {
    let mut pool = pending().lock().unwrap();
    {
        let mut reg = registry().lock().unwrap();
        reg.retain(|ring| {
            let mut r = ring.ring.lock().unwrap();
            pool.extend(r.drain(..));
            // A count of 1 means the owning thread has exited; its (now
            // drained) ring can go.
            Arc::strong_count(ring) > 1
        });
    }
    while pool.len() > PENDING_CAP {
        pool.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    if root.is_none() {
        return Vec::new();
    }

    // Resolve each record's ancestry to the root (or not) with memoization.
    let parent_of: HashMap<u64, u64> = pool.iter().map(|r| (r.id, r.parent)).collect();
    let mut verdict: HashMap<u64, bool> = HashMap::new();
    verdict.insert(root.0, true);
    let mut chain: Vec<u64> = Vec::new();
    for rec in pool.iter() {
        let mut id = rec.id;
        chain.clear();
        let reaches = loop {
            if let Some(&v) = verdict.get(&id) {
                break v;
            }
            chain.push(id);
            match parent_of.get(&id) {
                Some(&p) if p != 0 => id = p,
                _ => break false,
            }
        };
        for &c in &chain {
            verdict.insert(c, reaches);
        }
    }

    // Records kept for other collectors must still be claimable: a span
    // that ended before the oldest live session began belongs to no live
    // session and never will — purge it (see [`session_starts`]).
    let horizon = session_starts()
        .lock()
        .unwrap()
        .iter()
        .min()
        .copied()
        .unwrap_or(u64::MAX);
    let mut out = Vec::new();
    let mut rest = VecDeque::with_capacity(pool.len());
    for rec in pool.drain(..) {
        if verdict.get(&rec.id).copied().unwrap_or(false) {
            out.push(rec);
        } else if rec.end_ns >= horizon {
            rest.push_back(rec);
        }
    }
    *pool = rest;
    out
}

/// A span tree node assembled by [`build_tree`]. Children are ordered by
/// start time.
#[derive(Clone, Debug)]
pub struct TreeNode {
    pub record: SpanRecord,
    pub children: Vec<TreeNode>,
}

/// Assemble the records returned by [`collect`] into a tree rooted at
/// `root`. Returns `None` if the root record is missing (e.g. dropped by a
/// full ring).
pub fn build_tree(records: Vec<SpanRecord>, root: SpanId) -> Option<TreeNode> {
    let mut by_parent: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
    let mut root_rec = None;
    for rec in records {
        if rec.id == root.raw() {
            root_rec = Some(rec);
        } else {
            by_parent.entry(rec.parent).or_default().push(rec);
        }
    }
    fn attach(rec: SpanRecord, by_parent: &mut HashMap<u64, Vec<SpanRecord>>) -> TreeNode {
        let mut children: Vec<TreeNode> = by_parent
            .remove(&rec.id)
            .unwrap_or_default()
            .into_iter()
            .map(|c| attach(c, by_parent))
            .collect();
        children.sort_by_key(|c| c.record.start_ns);
        TreeNode {
            record: rec,
            children,
        }
    }
    root_rec.map(|r| attach(r, &mut by_parent))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_free_and_record_nothing() {
        // No session active in this test (tests sharing the process may
        // have one; tolerate that by using an unreachable root).
        let sp = span_under(SpanId::NONE, "never");
        assert!(!sp.is_armed());
        sp.add("x", 1);
        drop(sp);
        assert!(collect(SpanId::NONE).is_empty());
    }

    #[test]
    fn nested_spans_form_a_tree_with_counters_and_tags() {
        let _session = TraceSession::begin();
        let root = span("root");
        let root_id = root.id();
        root.tag("op", "test");
        {
            let a = span("child-a");
            a.add("rows", 3);
            a.add("rows", 4);
            {
                let _b = span("grandchild");
            }
        }
        {
            let _c = span("child-c");
        }
        drop(root);

        let records = collect(root_id);
        assert_eq!(records.len(), 4, "root + 2 children + 1 grandchild");
        let tree = build_tree(records, root_id).expect("root present");
        assert_eq!(tree.record.name, "root");
        assert_eq!(tree.record.tags, vec![("op", "test".to_string())]);
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.children[0].record.name, "child-a");
        assert_eq!(tree.children[0].record.counters, vec![("rows", 7)]);
        assert_eq!(tree.children[0].children.len(), 1);
        assert_eq!(tree.children[1].record.name, "child-c");
        assert!(tree.children[1].children.is_empty());
    }

    #[test]
    fn cross_thread_spans_attach_to_the_submitting_request() {
        let _session = TraceSession::begin();
        let root = span("request");
        let root_id = root.id();
        let parent = current();
        let handle = std::thread::spawn(move || {
            let sp = span_under(parent, "worker-task");
            sp.add("work", 1);
        });
        handle.join().unwrap();
        drop(root);

        let records = collect(root_id);
        let tree = build_tree(records, root_id).expect("root present");
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].record.name, "worker-task");
        assert_eq!(tree.children[0].record.parent, root_id.raw());
    }

    #[test]
    fn collect_only_takes_the_requested_roots_descendants() {
        let _session = TraceSession::begin();
        let r1 = span("root-one");
        let id1 = r1.id();
        drop(r1);
        let r2 = span("root-two");
        let id2 = r2.id();
        {
            let _c = span("two-child");
        }
        drop(r2);

        let got2 = collect(id2);
        assert_eq!(got2.len(), 2);
        assert!(got2
            .iter()
            .all(|r| r.name.starts_with("two") || r.name == "root-two"));
        // root-one is still pending and retrievable afterwards.
        let got1 = collect(id1);
        assert_eq!(got1.len(), 1);
        assert_eq!(got1[0].name, "root-one");
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let _session = TraceSession::begin();
        let a = span("a");
        let b = span("b");
        let (ida, idb) = (a.id(), b.id());
        assert!(ida.raw() != 0 && idb.raw() != 0);
        assert_ne!(ida, idb);
        drop(b);
        drop(a);
        let _ = collect(ida);
    }
}
