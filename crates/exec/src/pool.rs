//! The scoped worker pool: one shared FIFO queue over plain std primitives.
//!
//! Topology: a single injector queue. Every submission lands at its back,
//! and workers and helping callers pop from its front. There are no
//! per-worker queues: the pool's only production caller submits one task
//! per block of decomposition bags, so there is nothing fine-grained to
//! balance.
//!
//! Scoped execution: [`Pool::run_scoped`] erases the lifetime of the
//! submitted closures (they only borrow data owned by the caller's stack
//! frame) and blocks until every task has completed — while blocked, the
//! submitting thread *helps* drain the queue, so nested `par_map` calls from
//! inside a worker cannot deadlock the pool. The completion latch is what
//! makes the lifetime erasure sound: no task outlives `run_scoped`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A captured panic payload, carried from the worker that caught it back
/// to the thread that owns the scope.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// A unit of work. Lifetimes are erased in `run_scoped`; the latch
/// guarantees no task survives the scope that borrowed its environment.
type Task = Box<dyn FnOnce() + Send + 'static>;

struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Arc<Latch> {
        Arc::new(Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        })
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    /// Waits briefly for completion; returns `true` when the latch hit 0.
    fn wait_a_little(&self) -> bool {
        let left = self.remaining.lock().unwrap();
        if *left == 0 {
            return true;
        }
        let (left, _) = self
            .done
            .wait_timeout(left, Duration::from_millis(1))
            .unwrap();
        *left == 0
    }
}

/// The queue and the shutdown flag share one mutex, so a worker that saw
/// "empty, not shut down" is already waiting on `wake` before `Drop` can
/// flip the flag and notify.
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Wakes sleeping workers when work arrives or the pool shuts down.
    wake: Condvar,
    /// Tasks that panicked instead of completing, across all scopes.
    panics: AtomicU64,
}

impl Shared {
    fn pop(&self) -> Option<Task> {
        self.queue.lock().unwrap().tasks.pop_front()
    }
}

/// A fixed-size worker pool. `threads == 1` means "no worker threads":
/// every submission runs inline on the calling thread, in order — the
/// guaranteed-sequential mode behind `CQCOUNT_THREADS=1`.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Builds a pool driving `threads` lanes of execution. One of the lanes
    /// is the submitting thread itself (it helps while waiting), so
    /// `threads - 1` OS worker threads are spawned.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            panics: AtomicU64::new(0),
        });
        let handles = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cqcount-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            threads,
        }
    }

    /// The number of execution lanes (worker threads + the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Tasks that panicked instead of completing, over the pool's lifetime.
    /// Workers survive panicking tasks; the first panic of a scope is
    /// re-raised on the thread that called [`Pool::run_scoped`].
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Runs `tasks` to completion. Tasks may borrow from the caller's
    /// frame: this function does not return until every task has run, and
    /// the calling thread helps execute queued tasks while it waits.
    ///
    /// Completion order is arbitrary; callers get determinism by writing
    /// results into per-task slots (as [`crate::par_map`] does), never by
    /// relying on execution order.
    ///
    /// Panic safety: a panicking task does not kill its worker thread or
    /// wedge the scope. Every task counts down the completion latch even
    /// when it unwinds; the remaining tasks of the scope still run, and the
    /// first captured payload is re-raised here once the scope is drained.
    pub fn run_scoped<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.is_empty() {
            return;
        }
        if self.threads == 1 {
            let mut first_panic: Option<PanicPayload> = None;
            for t in tasks {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(t)) {
                    self.shared.panics.fetch_add(1, Ordering::Relaxed);
                    first_panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = first_panic {
                resume_unwind(payload);
            }
            return;
        }
        let latch = Latch::new(tasks.len());
        let first_panic: Arc<Mutex<Option<PanicPayload>>> = Arc::new(Mutex::new(None));
        // Erase the scope lifetime: sound because we hold the latch open
        // until every task has finished executing.
        let erased: Vec<Task> = tasks
            .into_iter()
            .map(|t| {
                let latch = Arc::clone(&latch);
                let shared = Arc::clone(&self.shared);
                let first_panic = Arc::clone(&first_panic);
                let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                    // Catch unwinds so a panicking task cannot kill its worker
                    // thread or leave the latch hanging; the payload travels
                    // back to the scope owner instead.
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(t)) {
                        shared.panics.fetch_add(1, Ordering::Relaxed);
                        first_panic.lock().unwrap().get_or_insert(payload);
                    }
                    latch.count_down();
                });
                // SAFETY: `wrapped` only borrows data that outlives the wait
                // loop below; `run_scoped` blocks until the latch reports all
                // wrapped tasks done.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(wrapped) }
            })
            .collect();
        self.shared.queue.lock().unwrap().tasks.extend(erased);
        self.shared.wake.notify_all();
        // Help until everything in this scope has completed.
        loop {
            if let Some(task) = self.shared.pop() {
                task();
                continue;
            }
            if latch.wait_a_little() {
                break;
            }
        }
        // The latch is closed, so no task of this scope is still running:
        // taking the payload out of the mutex races with nothing.
        let payload = first_panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut queue = shared.queue.lock().unwrap();
    loop {
        if let Some(task) = queue.tasks.pop_front() {
            drop(queue);
            task();
            queue = shared.queue.lock().unwrap();
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.wake.wait(queue).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn sequential_pool_runs_inline_in_order() {
        let pool = Pool::new(1);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        pool.run_scoped(tasks); // empty is fine
        let log = Mutex::new(Vec::new());
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..5)
            .map(|i| {
                let log = &log;
                Box::new(move || log.lock().unwrap().push(i)) as _
            })
            .collect();
        pool.run_scoped(tasks);
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_pool_completes_all_tasks() {
        let pool = Pool::new(4);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..100)
            .map(|_| {
                let c = &counter;
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as _
            })
            .collect();
        pool.run_scoped(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        let pool = Pool::new(2);
        let hits = AtomicUsize::new(0);
        let outer: Vec<Box<dyn FnOnce() + Send>> = (0..4)
            .map(|_| {
                let pool = &pool;
                let hits = &hits;
                Box::new(move || {
                    let inner: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                        .map(|_| {
                            Box::new(move || {
                                hits.fetch_add(1, Ordering::SeqCst);
                            }) as _
                        })
                        .collect();
                    pool.run_scoped(inner);
                }) as _
            })
            .collect();
        pool.run_scoped(outer);
        assert_eq!(hits.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = Pool::new(3);
        drop(pool); // must not hang
    }

    #[test]
    fn panicking_task_does_not_wedge_the_scope() {
        let pool = Pool::new(4);
        let done = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..16)
            .map(|i| {
                let done = &done;
                Box::new(move || {
                    if i == 7 {
                        panic!("injected task failure");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                }) as _
            })
            .collect();
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run_scoped(tasks)));
        let payload = caught.expect_err("the scope re-raises the task panic");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected task failure")
        );
        // Every non-panicking task still ran, the counter saw the failure,
        // and the pool remains usable for the next scope.
        assert_eq!(done.load(Ordering::SeqCst), 15);
        assert_eq!(pool.panics(), 1);
        let again: Vec<Box<dyn FnOnce() + Send>> = (0..8)
            .map(|_| {
                let done = &done;
                Box::new(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                }) as _
            })
            .collect();
        pool.run_scoped(again);
        assert_eq!(done.load(Ordering::SeqCst), 23);
    }

    #[test]
    fn inline_pool_counts_and_reraises_panics() {
        let pool = Pool::new(1);
        let done = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..4)
            .map(|i| {
                let done = &done;
                Box::new(move || {
                    if i == 1 {
                        panic!("inline failure");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                }) as _
            })
            .collect();
        assert!(catch_unwind(AssertUnwindSafe(|| pool.run_scoped(tasks))).is_err());
        assert_eq!(done.load(Ordering::SeqCst), 3); // later tasks still ran
        assert_eq!(pool.panics(), 1);
    }
}
