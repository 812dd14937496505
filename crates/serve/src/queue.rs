//! A bounded MPMC queue with *rejecting* backpressure.
//!
//! The serving layer's load-shedding contract lives here: producers
//! (connection readers) never block and never buffer unboundedly —
//! [`BoundedQueue::try_push`] either enqueues or fails immediately, and
//! the caller turns the failure into an `overloaded` response. Workers
//! block on [`BoundedQueue::pop`] until an item arrives or the queue is
//! closed **and drained**, which is exactly the graceful-shutdown
//! sequence: close, let workers finish the backlog, join.
//!
//! # Shutdown/wakeup audit
//!
//! The invariant under scrutiny: **no item that `try_push` accepted can
//! be stranded by a concurrent `close()`**. It holds because both sides
//! run under the one mutex and the close-side wakeup is `notify_all`:
//!
//! * An accepted push inserts while holding the lock, so it is ordered
//!   against any `close()` — the item is in `items` before `closed`
//!   becomes visible, or the push observed `closed` and was refused.
//! * `pop` re-checks `items` before `closed` on every wakeup inside its
//!   lock-held loop, so a popper can never see `closed == true` yet
//!   skip a non-empty backlog, and spurious wakeups are harmless.
//! * `close()` uses `notify_all`, so every parked popper re-evaluates;
//!   `notify_one` on push is safe because each push adds exactly one
//!   item, and any single woken popper either consumes it or, finding
//!   the queue already emptied by a faster thread, parks again.
//!
//! The residual stranding vector is therefore *outside* the queue: a
//! worker that panics after popping holds the only reference to its
//! job. The server contains that with a catch-unwind guard per job (the
//! request is answered with an `internal` error) plus a post-join drain
//! in `Server::run`. `concurrent_close_never_strands_accepted_items`
//! below pins the queue half of the story.
//!
//! # Poison tolerance
//!
//! Every lock acquisition recovers the guard from a [`PoisonError`]
//! rather than unwrapping it. A thread that panics *while holding the
//! queue mutex* (a popper dying between `lock()` and the guard drop,
//! say) used to poison it, and every later `try_push`/`pop`/`len`/
//! `close` — the reactor and the rest of the worker pool —
//! would then panic in a cascade that no per-job `catch_unwind`
//! downstream could contain. The queue's state is a `VecDeque` plus a
//! `bool`; every mutation (push_back / pop_front / `closed = true`) is
//! a single atomic step with no intermediate invariant to corrupt, so
//! recovering the guard is sound. `poisoned_lock_keeps_serving` below
//! is the regression test.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; shed the load.
    Full,
    /// The queue was closed for shutdown; no new work is accepted.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded queue. All methods take `&self`; share it via `Arc`.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
        }
    }

    /// Acquires the state lock, recovering from poison (see module doc).
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth (racy by nature; telemetry only).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty (telemetry only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without blocking. On success, returns the queue depth
    /// *after* the push, observed under the same lock acquisition —
    /// callers publish this into the depth gauge instead of re-reading
    /// `len()` separately (which races with concurrent ops and used to
    /// publish stale/incoherent depths into stats).
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; the item is returned alongside so the
    /// caller can answer its originator.
    pub fn try_push(&self, item: T) -> Result<usize, (PushError, T)> {
        let mut inner = self.lock();
        if inner.closed {
            return Err((PushError::Closed, item));
        }
        if inner.items.len() >= self.capacity {
            return Err((PushError::Full, item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available, returning `None` only when
    /// the queue is closed **and** the backlog is fully drained — so a
    /// `close()` never drops accepted work. The `usize` alongside the
    /// item is the queue depth *after* the pop, observed under the same
    /// lock acquisition (same coherent-gauge contract as `try_push`).
    pub fn pop(&self) -> Option<(T, usize)> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                let depth = inner.items.len();
                return Some((item, depth));
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: future pushes fail, poppers drain the backlog
    /// then observe the close. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_and_recovers_after_pop() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        let (err, item) = q.try_push(3).unwrap_err();
        assert_eq!((err, item), (PushError::Full, 3));
        assert_eq!(q.pop(), Some((1, 1)));
        assert_eq!(q.try_push(3).unwrap(), 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_backlog_before_ending_poppers() {
        let q = BoundedQueue::new(8);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c").unwrap_err().0, PushError::Closed);
        assert_eq!(q.pop(), Some(("a", 1)));
        assert_eq!(q.pop(), Some(("b", 0)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // idempotent
    }

    #[test]
    fn post_op_depth_is_coherent_under_contention() {
        // The depth returned by try_push/pop is read under the same
        // lock as the mutation, so pushing N items single-threadedly
        // yields depths 1..=N and popping yields N-1..=0 — and under
        // contention every reported depth must stay within [0, cap].
        let q = Arc::new(BoundedQueue::new(16));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let q = Arc::clone(&q);
                scope.spawn(move || {
                    for i in 0..200 {
                        if let Ok(d) = q.try_push(i) {
                            assert!((1..=16).contains(&d), "push depth {d}");
                        }
                    }
                });
            }
            for _ in 0..2 {
                let q = Arc::clone(&q);
                scope.spawn(move || {
                    while let Some((_, d)) = q.pop() {
                        assert!(d < 16, "pop depth {d}");
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(30));
            q.close();
        });
    }

    #[test]
    fn poisoned_lock_keeps_serving() {
        // Regression: a popper panicking while holding the queue mutex
        // used to poison it, cascading panics into every later queue
        // call from the reactor and the remaining worker pool.
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push(1).unwrap();
        let poisoner = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.inner.lock().unwrap();
                panic!("die while holding the queue lock");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(q.inner.is_poisoned(), "test setup: lock must be poisoned");
        // Every entry point keeps working on the recovered guard.
        assert_eq!(q.len(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert_eq!(q.pop(), Some((1, 1)));
        assert_eq!(q.pop(), Some((2, 0)));
        q.close();
        assert_eq!(q.try_push(3).unwrap_err().0, PushError::Closed);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_zero_clamps_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2).unwrap_err().0, PushError::Full);
    }

    #[test]
    fn blocked_popper_wakes_on_push_and_on_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some((v, _)) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        // Give the popper a moment to block, then feed and close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(7).unwrap();
        q.try_push(8).unwrap();
        q.close();
        assert_eq!(popper.join().unwrap(), vec![7, 8]);
    }

    #[test]
    fn concurrent_close_never_strands_accepted_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Stress the shutdown race: producers pushing flat-out, a pool
        // of blocking poppers, and a close() landing mid-stream. Every
        // accepted item must be consumed exactly once — by count, and
        // by value via a per-item consumption tally.
        for round in 0..20 {
            let q = Arc::new(BoundedQueue::new(8));
            let accepted = AtomicUsize::new(0);
            let consumed_flags: Vec<AtomicUsize> =
                (0..4 * 64).map(|_| AtomicUsize::new(0)).collect();
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    let q = Arc::clone(&q);
                    let flags = &consumed_flags;
                    scope.spawn(move || {
                        while let Some((v, _)) = q.pop() {
                            flags[v as usize].fetch_add(1, Ordering::SeqCst);
                        }
                    });
                }
                for t in 0..4 {
                    let q = Arc::clone(&q);
                    let accepted = &accepted;
                    scope.spawn(move || {
                        for i in 0..64 {
                            if q.try_push(t * 64 + i).is_ok() {
                                accepted.fetch_add(1, Ordering::SeqCst);
                            }
                            if i % 16 == 0 {
                                std::thread::yield_now();
                            }
                        }
                    });
                }
                // Close somewhere in the middle of the producer burst.
                let q = Arc::clone(&q);
                scope.spawn(move || {
                    if round % 2 == 0 {
                        std::thread::yield_now();
                    }
                    q.close();
                });
            });
            let consumed: usize = consumed_flags
                .iter()
                .map(|f| f.load(Ordering::SeqCst))
                .sum();
            assert_eq!(
                consumed,
                accepted.load(Ordering::SeqCst),
                "round {round}: accepted items lost or duplicated"
            );
            assert!(
                consumed_flags.iter().all(|f| f.load(Ordering::SeqCst) <= 1),
                "round {round}: an item was consumed twice"
            );
            assert!(q.is_empty(), "round {round}: backlog left behind");
        }
    }

    #[test]
    fn many_producers_one_consumer() {
        let q = Arc::new(BoundedQueue::new(1024));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let q = Arc::clone(&q);
                scope.spawn(move || {
                    for i in 0..100 {
                        q.try_push(t * 1000 + i).unwrap();
                    }
                });
            }
        });
        q.close();
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 400);
    }
}
