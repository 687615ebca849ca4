//! `cqcount-exec`: the lane count and one scoped parallel map.
//!
//! Everything here is safe code on `std` only — no rayon, no crossbeam —
//! so the workspace stays buildable in a sealed container. The public
//! surface is deliberately tiny:
//!
//! * [`par_map`] — map a function over a slice, results in input order.
//!   Counting calls it from exactly one place, the size-gated per-bag view
//!   build in `cqcount_core::sharp`; the kernels themselves are sequential;
//! * [`with_threads`] — force a lane count for the duration of a closure
//!   (used by the seq-vs-par agreement tests);
//! * [`current_threads`] / [`default_thread_count`] — introspection.
//!
//! Lane count resolution: the innermost [`with_threads`] on this thread,
//! else the `CQCOUNT_THREADS` environment variable if set (clamped to ≥ 1),
//! else [`std::thread::available_parallelism`]. With one lane `par_map` is
//! a plain sequential loop on the calling thread, which is the reference
//! semantics the parallel path is required to reproduce.
//!
//! Lanes are [`std::thread::scope`] threads spawned per call and joined
//! before it returns, so closures may borrow the caller's stack. A
//! `par_map` inside a lane runs sequentially: lanes never multiply.
//!
//! Determinism: results are written into per-block slots and reassembled
//! in input order, so the values returned by `par_map` never depend on
//! scheduling.

use cqcount_obs as obs;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Resolves the default lane count: `CQCOUNT_THREADS` if set and ≥ 1,
/// else the machine's available parallelism, else 1.
pub fn default_thread_count() -> usize {
    if let Ok(v) = std::env::var("CQCOUNT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

thread_local! {
    /// Lane counts installed by [`with_threads`] on this thread, innermost
    /// last.
    static LANES: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The number of lanes the *next* [`par_map`] on this thread will use.
pub fn current_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    LANES
        .with(|l| l.borrow().last().copied())
        .unwrap_or_else(|| *DEFAULT.get_or_init(default_thread_count))
}

/// Runs `f` with [`par_map`] on this thread pinned to `threads` lanes
/// (`threads <= 1` is the sequential path). Nested calls restore the outer
/// count when they return or unwind.
///
/// This is how the agreement tests compare `CQCOUNT_THREADS=1` semantics
/// against a parallel run inside a single process.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    LANES.with(|l| l.borrow_mut().push(threads.max(1)));
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            LANES.with(|l| l.borrow_mut().pop());
        }
    }
    let _pop = Pop;
    f()
}

/// Maps `f` over `items` in parallel; `out[i] == f(&items[i])`, always.
///
/// Items are grouped into contiguous blocks (up to four per lane) claimed
/// through one shared cursor, so cheap `f` pays little per-block overhead
/// and a slow block does not hold up the others. The calling thread is one
/// of the lanes. If any item panics, every lane is joined first and then
/// the first captured payload is re-raised on the calling thread.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = current_threads();
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let blocks = (threads * 4).min(items.len());
    let block_len = items.len().div_ceil(blocks);
    let blocks = items.len().div_ceil(block_len);
    let slots: Vec<Mutex<Vec<R>>> = (0..blocks).map(|_| Mutex::new(Vec::new())).collect();
    let cursor = AtomicUsize::new(0);
    // Capture the calling thread's span so blocks running on other lanes
    // attribute their wait and run time to the request that spawned them.
    // `SpanId::NONE` (tracing off / no active span) makes the per-block
    // span a no-op.
    let parent = obs::trace::current();
    let submitted_ns = if parent.is_none() {
        0
    } else {
        obs::trace::now_ns()
    };
    let lane = || {
        with_threads(1, || loop {
            let b = cursor.fetch_add(1, Ordering::Relaxed);
            if b >= blocks {
                return;
            }
            let start = b * block_len;
            let end = ((b + 1) * block_len).min(items.len());
            let sp = obs::trace::span_under(parent, "exec.task");
            if sp.is_armed() {
                sp.add("wait_ns", obs::trace::now_ns().saturating_sub(submitted_ns));
                sp.add("items", (end - start) as u64);
            }
            let out: Vec<R> = items[start..end].iter().map(&f).collect();
            *slots[b].lock().unwrap() = out;
        })
    };
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads.min(blocks)).map(|_| s.spawn(lane)).collect();
        let mut panic = catch_unwind(AssertUnwindSafe(lane)).err();
        for h in others {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    });
    slots
        .into_iter()
        .flat_map(|s| s.into_inner().unwrap())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn par_map_preserves_input_order_with_more_blocks_than_lanes() {
        let items: Vec<u64> = (0..1000).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        for lanes in [2, 8] {
            assert_eq!(with_threads(lanes, || par_map(&items, |x| x * x)), want);
        }
    }

    #[test]
    fn par_map_sequential_override_matches() {
        let items: Vec<u64> = (0..257).collect();
        let seq = with_threads(1, || par_map(&items, |x| x + 7));
        let par = with_threads(8, || par_map(&items, |x| x + 7));
        assert_eq!(seq, par);
    }

    #[test]
    fn nested_par_map_completes_and_matches_the_sequential_map() {
        let outer: Vec<u64> = (0..16).collect();
        let inner: Vec<u64> = (0..64).collect();
        let got = with_threads(4, || {
            par_map(&outer, |&o| {
                assert_eq!(current_threads(), 1, "a lane must not fan out again");
                par_map(&inner, |&i| o * 100 + i)
            })
        });
        let want: Vec<Vec<u64>> = outer
            .iter()
            .map(|&o| inner.iter().map(|&i| o * 100 + i).collect())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_panicking_item_is_reraised_after_every_lane_joined() {
        let items: Vec<usize> = (0..64).collect();
        let done = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                par_map(&items, |&i| {
                    if i == 7 {
                        panic!("injected item failure");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                })
            })
        }));
        let payload = caught.expect_err("par_map re-raises the item panic");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected item failure")
        );
        // 16 blocks of 4: item 7 ends block 1, and the other lanes claim
        // every remaining block, so all 63 other items ran before the
        // panic reached the caller.
        assert_eq!(done.load(Ordering::SeqCst), 63);
        // The unwind restored the lane count, and the next call works.
        assert!(LANES.with(|l| l.borrow().is_empty()));
        let again = with_threads(4, || par_map(&items, |&i| i + 1));
        assert_eq!(again, (1..65).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_on_a_spawned_lane_keeps_its_payload() {
        let me = thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        let spawned_ran = std::sync::atomic::AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_threads(2, || {
                par_map(&items, |_| {
                    if thread::current().id() != me {
                        spawned_ran.store(true, Ordering::SeqCst);
                        panic!("spawned lane failure");
                    }
                    // Hold the calling lane until the spawned one has run an
                    // item, so the panic is certain to happen off-thread.
                    while !spawned_ran.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                })
            })
        }));
        let payload = caught.expect_err("par_map re-raises the lane's panic");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"spawned lane failure")
        );
    }

    #[test]
    fn one_lane_runs_every_item_on_the_calling_thread() {
        let me = thread::current().id();
        let items: Vec<u32> = (0..100).collect();
        let ids = with_threads(1, || par_map(&items, |_| thread::current().id()));
        assert!(ids.iter().all(|&id| id == me));
    }

    #[test]
    fn with_threads_nests_and_restores() {
        with_threads(4, || {
            assert_eq!(current_threads(), 4);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 4);
        });
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(with_threads(4, || par_map(&empty, |x| *x)).is_empty());
    }
}
