//! The flight recorder: a bounded in-memory "slow query log" with full
//! span attribution and zero pre-selection.
//!
//! Every request is *speculatively* traced into the thread-local span
//! rings (see [`crate::trace`]); when the request finishes, its collected
//! span tree is either **retained** here — because the request landed
//! above a self-calibrating latency threshold or ended in an error,
//! degradation, delta fallback, or read-only flip — or simply dropped.
//! Retention is the exception, so the recorder's two ring buffers stay
//! small and the steady-state cost is the speculative tracing itself
//! (measured by the benchmark's `obs.trace_overhead_pct` row: a traced
//! replay of each workload against the untraced replay before it).
//!
//! The recorder also keeps a second ring of **incidents**: discrete
//! operational events (watchdog stall flags, read-only flips) that are not
//! tied to a single request's span tree but belong in the same forensic
//! timeline.
//!
//! Both rings are drop-oldest: a flood of interesting requests evicts the
//! oldest captures (counted in [`FlightRecorder::evicted`]) instead of
//! growing without bound.

use crate::trace::TreeNode;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Why a request's span tree was retained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetainReason {
    /// Latency above the per-opcode threshold (live p99, floored by the
    /// configured minimum).
    Slow,
    /// The request answered with an error reply.
    Error,
    /// The count was served by a degraded (fallback) plan.
    Degraded,
    /// Incremental maintenance dropped a materialization mid-mutation.
    DeltaFault,
    /// The request flipped (or hit) a read-only database.
    ReadOnly,
    /// Retained on behalf of the stall watchdog.
    Watchdog,
}

impl RetainReason {
    /// Stable wire / display name.
    pub fn name(self) -> &'static str {
        match self {
            RetainReason::Slow => "slow",
            RetainReason::Error => "error",
            RetainReason::Degraded => "degraded",
            RetainReason::DeltaFault => "delta_fault",
            RetainReason::ReadOnly => "read_only",
            RetainReason::Watchdog => "watchdog",
        }
    }
}

/// One retained request: the full span tree plus the retention verdict.
#[derive(Clone, Debug)]
pub struct CapturedTrace {
    /// Monotonic capture sequence (shared with incidents, so the two rings
    /// interleave into one timeline).
    pub seq: u64,
    /// Opcode label (`count`, `mutate`, …).
    pub op: String,
    pub reason: RetainReason,
    /// End-to-end latency (admission to reply-ready), microseconds.
    pub latency_us: u64,
    /// The threshold in force when the verdict was made (0 for non-latency
    /// retentions).
    pub threshold_us: u64,
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The request's collected span tree.
    pub root: TreeNode,
}

/// A discrete operational event retained alongside the traces.
#[derive(Clone, Debug)]
pub struct Incident {
    pub seq: u64,
    /// Short machine-readable kind (`stall`, `read_only`, …).
    pub kind: String,
    pub detail: String,
    pub unix_ms: u64,
}

/// Bounded retention of interesting traces and incidents. All methods are
/// thread-safe; retention takes one short mutex tap (never on the
/// non-retained path, which doesn't call in at all).
pub struct FlightRecorder {
    trace_cap: usize,
    incident_cap: usize,
    traces: Mutex<VecDeque<CapturedTrace>>,
    incidents: Mutex<VecDeque<Incident>>,
    seq: AtomicU64,
    retained: AtomicU64,
    evicted: AtomicU64,
    incidents_total: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding at most `trace_cap` span trees and
    /// `incident_cap` incidents (oldest evicted first).
    pub fn new(trace_cap: usize, incident_cap: usize) -> FlightRecorder {
        FlightRecorder {
            trace_cap: trace_cap.max(1),
            incident_cap: incident_cap.max(1),
            traces: Mutex::new(VecDeque::new()),
            incidents: Mutex::new(VecDeque::new()),
            seq: AtomicU64::new(0),
            retained: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            incidents_total: AtomicU64::new(0),
        }
    }

    /// Must be called with the destination ring's lock held, so each
    /// ring's push order matches its capture-sequence order (concurrent
    /// retentions would otherwise draw a seq and race to the push).
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Retain one request's span tree. Returns the capture sequence.
    pub fn retain(
        &self,
        op: &str,
        reason: RetainReason,
        latency_us: u64,
        threshold_us: u64,
        root: TreeNode,
    ) -> u64 {
        self.retained.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.traces.lock().unwrap();
        let seq = self.next_seq();
        if ring.len() >= self.trace_cap {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(CapturedTrace {
            seq,
            op: op.to_owned(),
            reason,
            latency_us,
            threshold_us,
            unix_ms: unix_ms(),
            root,
        });
        seq
    }

    /// Record a discrete incident. Returns the capture sequence.
    pub fn incident(&self, kind: &str, detail: String) -> u64 {
        self.incidents_total.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.incidents.lock().unwrap();
        let seq = self.next_seq();
        if ring.len() >= self.incident_cap {
            ring.pop_front();
        }
        ring.push_back(Incident {
            seq,
            kind: kind.to_owned(),
            detail,
            unix_ms: unix_ms(),
        });
        seq
    }

    /// The most recent `limit` retained traces, oldest first.
    pub fn traces(&self, limit: usize) -> Vec<CapturedTrace> {
        let ring = self.traces.lock().unwrap();
        let skip = ring.len().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }

    /// The most recent `limit` incidents, oldest first.
    pub fn incidents(&self, limit: usize) -> Vec<Incident> {
        let ring = self.incidents.lock().unwrap();
        let skip = ring.len().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Total traces ever retained (evictions included).
    pub fn retained(&self) -> u64 {
        self.retained.load(Ordering::Relaxed)
    }

    /// Retained traces evicted by the ring bound.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Total incidents ever recorded.
    pub fn incident_count(&self) -> u64 {
        self.incidents_total.load(Ordering::Relaxed)
    }
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanRecord, TreeNode};

    fn leaf(name: &'static str) -> TreeNode {
        TreeNode {
            record: SpanRecord {
                id: 1,
                parent: 0,
                name,
                start_ns: 0,
                end_ns: 10,
                counters: Vec::new(),
                tags: Vec::new(),
            },
            children: Vec::new(),
        }
    }

    #[test]
    fn retention_is_bounded_and_drop_oldest() {
        let rec = FlightRecorder::new(4, 2);
        for i in 0..100u64 {
            rec.retain("count", RetainReason::Slow, 1000 + i, 500, leaf("request"));
        }
        let kept = rec.traces(100);
        assert_eq!(kept.len(), 4);
        // The survivors are the four newest, oldest first.
        assert_eq!(
            kept.iter().map(|t| t.latency_us).collect::<Vec<_>>(),
            vec![1096, 1097, 1098, 1099]
        );
        assert_eq!(rec.retained(), 100);
        assert_eq!(rec.evicted(), 96);

        for i in 0..10 {
            rec.incident("stall", format!("shard {i}"));
        }
        assert_eq!(rec.incidents(100).len(), 2);
        assert_eq!(rec.incident_count(), 10);
    }

    #[test]
    fn sequences_interleave_traces_and_incidents() {
        let rec = FlightRecorder::new(8, 8);
        let a = rec.retain("mutate", RetainReason::Error, 5, 0, leaf("request"));
        let b = rec.incident("stall", "worker-1".into());
        let c = rec.retain("count", RetainReason::Slow, 9, 4, leaf("request"));
        assert!(a < b && b < c, "one timeline across both rings");
        assert_eq!(rec.traces(10)[0].reason.name(), "error");
    }

    #[test]
    fn limit_returns_the_tail() {
        let rec = FlightRecorder::new(16, 16);
        for i in 0..8u64 {
            rec.retain("count", RetainReason::Slow, i, 0, leaf("request"));
        }
        let last2 = rec.traces(2);
        assert_eq!(last2.len(), 2);
        assert_eq!(last2[0].latency_us, 6);
        assert_eq!(last2[1].latency_us, 7);
    }
}
