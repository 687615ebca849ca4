//! `cqcount-exec`: a dependency-free parallel execution layer.
//!
//! Everything here is built on `std` only — no rayon, no crossbeam — so the
//! workspace stays buildable in a sealed container. The public surface is
//! deliberately tiny:
//!
//! * [`par_map`] — map a function over a slice, results in input order.
//!   Counting calls it from exactly one place, the size-gated per-bag view
//!   build in `cqcount_core::sharp`; the kernels themselves are sequential;
//! * [`with_threads`] — force a thread count for the duration of a closure
//!   (used by the seq-vs-par agreement tests);
//! * [`current_threads`] / [`default_thread_count`] — introspection;
//! * [`BoundedQueue`] — a fixed-capacity MPMC queue with non-blocking
//!   producers, the admission-control primitive of the serving layer;
//! * [`poll`] (unix) — a `libc`-free `poll(2)` wrapper plus a self-wake
//!   pipe, the readiness primitives behind the server's evented front end.
//!
//! Thread count resolution: the `CQCOUNT_THREADS` environment variable if
//! set (clamped to ≥ 1), otherwise [`std::thread::available_parallelism`].
//! With one thread `par_map` degrades to a plain sequential loop on the
//! calling thread — no pool, no locks — which is the reference semantics
//! the parallel path is required to reproduce.
//!
//! Determinism: results are written into pre-allocated per-block slots and
//! reassembled in input order, so the values returned by `par_map` never
//! depend on scheduling.

#[cfg(unix)]
pub mod poll;
mod pool;
pub mod queue;

pub use pool::Pool;
pub use queue::BoundedQueue;

use cqcount_obs as obs;
use std::sync::{Mutex, OnceLock};

/// Resolves the default worker count: `CQCOUNT_THREADS` if set and ≥ 1,
/// else the machine's available parallelism, else 1.
pub fn default_thread_count() -> usize {
    if let Ok(v) = std::env::var("CQCOUNT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process-wide pool, created on first use with [`default_thread_count`].
fn global_pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(default_thread_count()))
}

thread_local! {
    /// Per-thread override installed by [`with_threads`]. A stack so that
    /// nested overrides restore correctly.
    static OVERRIDE: std::cell::RefCell<Vec<OverridePool>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

enum OverridePool {
    Sequential,
    Owned(std::sync::Arc<Pool>),
}

/// The number of execution lanes the *next* parallel call on this thread
/// will use.
pub fn current_threads() -> usize {
    OVERRIDE.with(|o| match o.borrow().last() {
        Some(OverridePool::Sequential) => 1,
        Some(OverridePool::Owned(p)) => p.threads(),
        None => global_pool().threads(),
    })
}

/// Runs `f` with all parallel helpers on this thread pinned to `threads`
/// lanes. `threads == 1` forces the pure sequential path (no pool at all);
/// larger counts spin up a temporary pool torn down when `f` returns.
///
/// This is how the agreement tests compare `CQCOUNT_THREADS=1` semantics
/// against a parallel run inside a single process.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let entry = if threads <= 1 {
        OverridePool::Sequential
    } else {
        OverridePool::Owned(std::sync::Arc::new(Pool::new(threads)))
    };
    OVERRIDE.with(|o| o.borrow_mut().push(entry));
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    let _guard = PopGuard;
    f()
}

fn run_on_current<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
    let over = OVERRIDE.with(|o| match o.borrow().last() {
        Some(OverridePool::Sequential) => Some(None),
        Some(OverridePool::Owned(p)) => Some(Some(std::sync::Arc::clone(p))),
        None => None,
    });
    match over {
        Some(None) => {
            for t in tasks {
                t();
            }
        }
        Some(Some(pool)) => pool.run_scoped(tasks),
        None => global_pool().run_scoped(tasks),
    }
}

/// Maps `f` over `items` in parallel; `out[i] == f(&items[i])`, always.
///
/// Items are grouped into contiguous blocks (a few blocks per lane) so the
/// per-task overhead stays negligible even for cheap `f`.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = current_threads();
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let blocks = (threads * 4).min(items.len());
    let block_len = items.len().div_ceil(blocks);
    let blocks = items.len().div_ceil(block_len);
    let slots: Vec<Mutex<Vec<R>>> = (0..blocks).map(|_| Mutex::new(Vec::new())).collect();
    let f = &f;
    // Capture the submitting thread's span so block tasks executing on
    // pool workers attribute their queue-wait and run time to the request
    // that spawned them. `SpanId::NONE` (tracing off / no active span)
    // makes the per-task span a no-op.
    let parent = obs::trace::current();
    let submitted_ns = if parent.is_none() {
        0
    } else {
        obs::trace::now_ns()
    };
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
        .iter()
        .enumerate()
        .map(|(b, slot)| {
            let start = b * block_len;
            let end = ((b + 1) * block_len).min(items.len());
            Box::new(move || {
                let sp = obs::trace::span_under(parent, "exec.task");
                if sp.is_armed() {
                    sp.add("wait_ns", obs::trace::now_ns().saturating_sub(submitted_ns));
                    sp.add("items", (end - start) as u64);
                }
                let out: Vec<R> = items[start..end].iter().map(f).collect();
                *slot.lock().unwrap() = out;
            }) as _
        })
        .collect();
    run_on_current(tasks);
    slots
        .into_iter()
        .flat_map(|s| s.into_inner().unwrap())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let got = with_threads(4, || par_map(&items, |x| x * x));
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_sequential_override_matches() {
        let items: Vec<u64> = (0..257).collect();
        let seq = with_threads(1, || par_map(&items, |x| x + 7));
        let par = with_threads(8, || par_map(&items, |x| x + 7));
        assert_eq!(seq, par);
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
