//! Process-wide planner counters.
//!
//! The decomposition search runs deep inside `cqcount-decomp`, far below
//! any [`crate::metrics::Registry`]; threading a registry handle through
//! every `solve` call would put an argument on the hottest recursion in
//! the planner. Instead the search increments these detached counters
//! (one relaxed atomic add per event, batched per width searched), and any
//! registry that wants them exposed attaches the shared handles via
//! [`crate::metrics::Registry::attach_counter`].
//!
//! The counters are process-wide: two servers in one process report the
//! same planner totals, exactly like allocator or rayon-style pool
//! statistics would.

use crate::metrics::Counter;
use std::sync::OnceLock;

/// Shared handles for the planner's search counters.
pub struct PlannerCounters {
    /// Blocks `(C, N(C))` actually solved (memo fills, positive or negative).
    pub blocks_solved: Counter,
    /// Memo hits, positive or negative.
    pub memo_hits: Counter,
    /// Candidate bags pulled from the lazy streams and tried.
    pub candidates_yielded: Counter,
    /// Width levels searched (one per single-width search).
    pub widths_searched: Counter,
}

/// The process-wide planner counters.
pub fn counters() -> &'static PlannerCounters {
    static GLOBAL: OnceLock<PlannerCounters> = OnceLock::new();
    GLOBAL.get_or_init(|| PlannerCounters {
        blocks_solved: Counter::detached(),
        memo_hits: Counter::detached(),
        candidates_yielded: Counter::detached(),
        widths_searched: Counter::detached(),
    })
}
