//! One-shot response channels with a **delivery guarantee**: every
//! [`Ticket`] is eventually resolved, no matter how its worker dies.
//!
//! A submission splits into a caller-held [`Ticket`] and a
//! worker-held [`Responder`]. The worker normally resolves the pair
//! explicitly via [`Responder::fulfill`]; the robustness property
//! lives in [`Responder`]'s `Drop` impl — a responder that is dropped
//! *unfulfilled* (its request torn down by a panic unwinding through
//! the worker, a length-mismatched flush, or any other bug) resolves
//! the ticket with [`MmmError::WorkerPanicked`]. The caller therefore
//! always observes exactly one outcome: the dispatcher can lose a
//! worker, but it cannot lose a response.
//!
//! The cell also records the [`Instant`] the response landed, so the
//! load generator can measure submit→resolve latency without a side
//! channel.

use crate::pool::lock_unpoisoned;
use crate::MmmError;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The shared slot: `None` until resolved, then the result plus its
/// arrival time.
#[derive(Debug)]
struct Cell<T> {
    slot: Mutex<Option<(Result<T, MmmError>, Instant)>>,
    ready: Condvar,
}

/// The caller's half of a submitted request: a one-shot receiver for
/// its response of type `T`. Obtained from
/// [`Server::try_submit`](super::Server::try_submit) /
/// [`Server::submit`](super::Server::submit); resolved exactly once,
/// even if the serving worker handling the request panics.
#[derive(Debug)]
pub struct Ticket<T> {
    cell: Arc<Cell<T>>,
}

/// The worker's half: fulfills the ticket, or — if dropped unfulfilled
/// — resolves it with [`MmmError::WorkerPanicked`].
#[derive(Debug)]
pub(crate) struct Responder<T> {
    cell: Option<Arc<Cell<T>>>,
}

/// A fresh unresolved ticket/responder pair.
pub(crate) fn channel<T>() -> (Ticket<T>, Responder<T>) {
    let cell = Arc::new(Cell {
        slot: Mutex::new(None),
        ready: Condvar::new(),
    });
    (
        Ticket {
            cell: Arc::clone(&cell),
        },
        Responder { cell: Some(cell) },
    )
}

impl<T> Responder<T> {
    fn fill(cell: &Cell<T>, result: Result<T, MmmError>) {
        let mut slot = lock_unpoisoned(&cell.slot);
        // First write wins; a double-resolve bug must not clobber the
        // answer a caller may already be reading.
        if slot.is_none() {
            *slot = Some((result, Instant::now()));
            drop(slot);
            cell.ready.notify_all();
        }
    }

    /// Resolves the ticket with `result` and consumes the responder.
    pub(crate) fn fulfill(mut self, result: Result<T, MmmError>) {
        if let Some(cell) = self.cell.take() {
            Self::fill(&cell, result);
        }
    }
}

impl<T> Drop for Responder<T> {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            Self::fill(&cell, Err(MmmError::WorkerPanicked));
        }
    }
}

impl<T> Ticket<T> {
    /// True once the response has landed ([`Ticket::wait`] will not
    /// block).
    pub fn is_ready(&self) -> bool {
        lock_unpoisoned(&self.cell.slot).is_some()
    }

    /// Blocks until the response arrives and returns it.
    pub fn wait(self) -> Result<T, MmmError> {
        self.wait_timed().0
    }

    /// Blocks like [`Ticket::wait`] and additionally returns the
    /// [`Instant`] the worker resolved the request — the load
    /// generator's latency probe (latency = resolve instant minus the
    /// caller's own submit timestamp).
    pub fn wait_timed(self) -> (Result<T, MmmError>, Instant) {
        let mut slot = lock_unpoisoned(&self.cell.slot);
        loop {
            if let Some(done) = slot.take() {
                return done;
            }
            slot = self
                .cell
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Waits up to `timeout` for the response. On timeout the ticket
    /// is handed back unresolved (`Err(ticket)`) so the caller can
    /// keep waiting or park it — the response itself is never
    /// discarded by a timeout.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<T, MmmError>, Ticket<T>> {
        let deadline = Instant::now().checked_add(timeout);
        let mut slot = lock_unpoisoned(&self.cell.slot);
        loop {
            if let Some((result, _)) = slot.take() {
                return Ok(result);
            }
            slot = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        drop(slot);
                        return Err(self);
                    }
                    self.cell
                        .ready
                        .wait_timeout(slot, d - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .cell
                    .ready
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_bigint::Ubig;

    #[test]
    fn fulfill_resolves_wait() {
        let (ticket, responder) = channel();
        assert!(!ticket.is_ready());
        let t = std::thread::spawn(move || ticket.wait());
        responder.fulfill(Ok(Ubig::from(42u64)));
        assert_eq!(t.join().unwrap(), Ok(Ubig::from(42u64)));
    }

    #[test]
    fn dropped_responder_resolves_with_worker_panicked() {
        let (ticket, responder) = channel::<Ubig>();
        // Simulate a panic unwinding through a worker that owned the
        // responder: the caller still gets an answer.
        let _ = std::panic::catch_unwind(move || {
            let _moved_in = responder;
            panic!("injected");
        });
        assert!(ticket.is_ready());
        assert_eq!(ticket.wait(), Err(MmmError::WorkerPanicked));
    }

    #[test]
    fn first_resolution_wins() {
        let (ticket, responder) = channel();
        responder.fulfill(Ok(Ubig::from(7u64)));
        // `fulfill` consumed the responder; its Drop ran with the cell
        // already taken, so the value stands.
        assert_eq!(ticket.wait(), Ok(Ubig::from(7u64)));
    }

    #[test]
    fn wait_timeout_returns_the_ticket_then_the_value() {
        let (ticket, responder) = channel();
        let ticket = match ticket.wait_timeout(Duration::from_millis(10)) {
            Err(t) => t,
            Ok(r) => panic!("unresolved ticket returned {r:?}"),
        };
        responder.fulfill(Ok(Ubig::from(3u64)));
        match ticket.wait_timeout(Duration::from_secs(5)) {
            Ok(r) => assert_eq!(r, Ok(Ubig::from(3u64))),
            Err(_) => panic!("resolved ticket must not time out"),
        }
    }
}
