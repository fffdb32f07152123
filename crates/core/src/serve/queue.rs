//! The bounded multi-producer multi-consumer request queue feeding
//! the serving workers.
//!
//! `std::sync::mpsc::sync_channel` is bounded but single-consumer and
//! has no timed send, so the dispatcher rolls its own minimal queue: a
//! `Mutex<VecDeque>` with two condvars (`not_empty` for consumers,
//! `not_full` for producers). Three properties the serving layer
//! depends on:
//!
//! * **Bounded admission** — [`BoundedQueue::try_push`] refuses with
//!   [`PushError::Full`] instead of growing, the raw material of the
//!   [`MmmError::Overloaded`](crate::MmmError::Overloaded)
//!   backpressure signal; [`BoundedQueue::push_timeout`] blocks for at
//!   most the caller's budget.
//! * **Drain-then-stop close** — after [`BoundedQueue::close`],
//!   producers are refused ([`PushError::Closed`]) but consumers keep
//!   receiving queued items; [`Pop::Closed`] is only reported once the
//!   queue is *empty*, so accepted requests are never stranded.
//! * **Poison recovery** — every lock site goes through
//!   [`lock_unpoisoned`]: the queue's state is a plain `VecDeque`
//!   (valid at every instant a guard can drop), so a consumer that
//!   panicked while holding the lock must not wedge every producer.
//!
//! Waits use `Condvar::wait_timeout` against caller-supplied
//! deadlines; spurious wakeups simply re-check the predicate.

use crate::pool::lock_unpoisoned;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC FIFO with timed operations and drain-then-stop
/// close semantics. See the module docs.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Why a push was refused; each variant returns the item so the
/// caller can report or retry without cloning.
#[derive(Debug)]
pub(crate) enum PushError<T> {
    /// The queue is at capacity (and `try_push` does not wait).
    Full(T),
    /// The caller's timeout elapsed while the queue stayed full.
    TimedOut(T),
    /// The queue has been closed; no new items are admitted.
    Closed(T),
}

/// The outcome of a timed pop.
#[derive(Debug)]
pub(crate) enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The deadline passed with the queue empty (but still open).
    TimedOut,
    /// The queue is closed **and** empty — the consumer may stop.
    Closed,
}

impl<T> BoundedQueue<T> {
    /// An empty open queue admitting at most `capacity` items
    /// (`capacity ≥ 1`, validated by `EngineConfig::with_queue_bound`).
    pub(crate) fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.min(4096)),
                closed: false,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The configured bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (a racy snapshot — metrics only).
    pub(crate) fn len(&self) -> usize {
        lock_unpoisoned(&self.state).items.len()
    }

    /// True when nothing is queued — the worker's idle test. A racy
    /// snapshot too: an item pushed right after is popped by a worker,
    /// which tests again after filing it.
    pub(crate) fn is_empty(&self) -> bool {
        lock_unpoisoned(&self.state).items.is_empty()
    }

    /// Non-blocking push: refused immediately when full or closed.
    pub(crate) fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = lock_unpoisoned(&self.state);
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push with a caller budget: waits for a slot up to
    /// `timeout`, then gives up with [`PushError::TimedOut`].
    pub(crate) fn push_timeout(&self, item: T, timeout: Duration) -> Result<(), PushError<T>> {
        // `Instant` addition can overflow for absurd timeouts; treat
        // an unrepresentable deadline as "wait indefinitely".
        let deadline = Instant::now().checked_add(timeout);
        let mut st = lock_unpoisoned(&self.state);
        loop {
            if st.closed {
                return Err(PushError::Closed(item));
            }
            if st.items.len() < self.capacity {
                st.items.push_back(item);
                drop(st);
                self.not_empty.notify_one();
                return Ok(());
            }
            st = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(PushError::TimedOut(item));
                    }
                    self.not_full
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Pops the front item, waiting until `deadline` (or indefinitely
    /// when `None`). Items still queued after [`BoundedQueue::close`]
    /// keep being delivered; [`Pop::Closed`] means closed *and* empty.
    pub(crate) fn pop_deadline(&self, deadline: Option<Instant>) -> Pop<T> {
        let mut st = lock_unpoisoned(&self.state);
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Pop::Item(item);
            }
            if st.closed {
                return Pop::Closed;
            }
            st = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Pop::TimedOut;
                    }
                    self.not_empty
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Closes the queue: producers are refused from now on, consumers
    /// drain the remainder and then observe [`Pop::Closed`]. Wakes
    /// every waiter on both sides.
    pub(crate) fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_bound() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        assert_eq!(q.len(), 2);
        assert!(matches!(q.pop_deadline(None), Pop::Item(1)));
        q.try_push(3).unwrap();
        assert!(matches!(q.pop_deadline(None), Pop::Item(2)));
        assert!(!q.is_empty());
        assert!(matches!(q.pop_deadline(None), Pop::Item(3)));
        assert!(q.is_empty());
    }

    #[test]
    fn timed_ops_respect_deadlines() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        let t0 = Instant::now();
        assert!(matches!(
            q.pop_deadline(Some(t0 + Duration::from_millis(20))),
            Pop::TimedOut
        ));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        q.try_push(9).unwrap();
        let t1 = Instant::now();
        assert!(matches!(
            q.push_timeout(10, Duration::from_millis(20)),
            Err(PushError::TimedOut(10))
        ));
        assert!(t1.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert!(matches!(q.try_push(3), Err(PushError::Closed(3))));
        assert!(matches!(
            q.push_timeout(4, Duration::from_millis(5)),
            Err(PushError::Closed(4))
        ));
        // Accepted items survive the close, in order.
        assert!(matches!(q.pop_deadline(None), Pop::Item(1)));
        assert!(matches!(q.pop_deadline(None), Pop::Item(2)));
        assert!(matches!(q.pop_deadline(None), Pop::Closed));
    }

    #[test]
    fn blocked_producer_wakes_on_pop_and_consumer_on_push() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_timeout(1, Duration::from_secs(5)))
        };
        // The producer is blocked on a full queue; popping frees it.
        std::thread::sleep(Duration::from_millis(10));
        assert!(matches!(q.pop_deadline(None), Pop::Item(0)));
        assert!(producer.join().unwrap().is_ok());
        assert!(matches!(q.pop_deadline(None), Pop::Item(1)));
        // And a parked consumer wakes on push.
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.pop_deadline(Some(Instant::now() + Duration::from_secs(5)))
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        q.try_push(7).unwrap();
        assert!(matches!(consumer.join().unwrap(), Pop::Item(7)));
    }

    #[test]
    fn close_wakes_parked_consumers() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_deadline(None))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert!(matches!(consumer.join().unwrap(), Pop::Closed));
    }
}
