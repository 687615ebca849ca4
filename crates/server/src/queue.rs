//! A bounded multi-producer multi-consumer queue for admission control.
//!
//! `std::sync::mpsc` channels are unbounded (or rendezvous), which is the
//! wrong shape for a serving layer: an overloaded daemon must *reject*
//! new work immediately instead of buffering it until memory runs out.
//! [`BoundedQueue`] is the missing piece — `Mutex<VecDeque>` + `Condvar`,
//! non-blocking producers ([`BoundedQueue::try_push_batch`] hands back what
//! does not fit), blocking consumers ([`BoundedQueue::pop`] parks until
//! work or shutdown).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A fixed-capacity FIFO shared between producers and consumers.
///
/// Producers never block: a full (or closed) queue returns the rejected
/// items so the caller can answer "overloaded" right away. Consumers block
/// in [`BoundedQueue::pop`] until an item arrives or [`BoundedQueue::close`]
/// drains the queue, at which point they observe `None` and exit.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (at least 1).
    pub(crate) fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// Enqueues a batch under one lock acquisition: items that fit are
    /// accepted in order, the overflow comes back in the returned `Vec` so
    /// the caller can reject each with an overload reply. One `notify_all`
    /// covers the whole batch — this is the handoff path an event loop uses
    /// to admit every request decoded from one readiness sweep without
    /// `2 × batch` lock round-trips.
    ///
    /// Returns the items that did NOT fit (empty when all were accepted).
    pub(crate) fn try_push_batch(&self, items: impl IntoIterator<Item = T>) -> Vec<T> {
        let mut it = items.into_iter();
        let mut overflow = Vec::new();
        let mut accepted = 0usize;
        {
            let mut s = self.state.lock().unwrap();
            for item in it.by_ref() {
                if s.closed || s.items.len() >= self.capacity {
                    overflow.push(item);
                    break;
                }
                s.items.push_back(item);
                accepted += 1;
            }
        }
        // The rest of the iterator is rejected without re-taking the lock:
        // the queue was full (or closed) at the cut point.
        overflow.extend(it);
        match accepted {
            0 => {}
            1 => self.available.notify_one(),
            _ => self.available.notify_all(),
        }
        overflow
    }

    /// Blocks until an item is available (FIFO) or the queue is closed and
    /// drained, in which case it returns `None`.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.available.wait(s).unwrap();
        }
    }

    /// Closes the queue: future pushes fail, and consumers drain what is
    /// left, then observe `None`. Idempotent.
    pub(crate) fn close(&self) {
        let mut s = self.state.lock().unwrap();
        s.closed = true;
        drop(s);
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_within_capacity() {
        let q = BoundedQueue::new(4);
        assert!(q.try_push_batch(0..4).is_empty());
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn batch_push_accepts_a_prefix_and_returns_the_overflow() {
        let q = BoundedQueue::new(3);
        assert!(q.try_push_batch([0]).is_empty());
        let overflow = q.try_push_batch([1, 2, 3, 4]);
        assert_eq!(overflow, vec![3, 4], "capacity 3: two fit, two bounce");
        assert_eq!(q.capacity(), 3);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.try_push_batch(std::iter::empty::<i32>()).is_empty());
        q.close();
        assert_eq!(q.try_push_batch([9]), vec![9], "closed queue rejects all");
    }

    #[test]
    fn close_drains_then_stops_consumers() {
        let q = BoundedQueue::new(8);
        assert!(q.try_push_batch([1, 2]).is_empty());
        q.close();
        assert_eq!(q.try_push_batch([3]), vec![3]);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // stays None
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..30 {
            while !q.try_push_batch([i]).is_empty() {
                thread::yield_now(); // queue full: wait for a consumer
            }
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());
    }
}
