//! Worker threads: pull requests off the shared bounded queue into
//! per-`(key, op)` shards, flush each shard on **fill-or-deadline**,
//! and isolate every failure to the shard that caused it.
//!
//! ## Panic isolation, two layers
//!
//! 1. **Per-flush** — [`ShardOp::run_batch`] runs inside
//!    `catch_unwind`: a panicking engine poisons nothing (every lock
//!    in the serving stack recovers via
//!    [`lock_unpoisoned`](crate::pool::lock_unpoisoned)), the
//!    shard's requests are answered with
//!    [`MmmError::WorkerPanicked`], and the worker keeps serving.
//! 2. **Whole-worker** — [`run`] wraps the serve loop itself in
//!    `catch_unwind` and restarts it on any escape (including
//!    injected panics from the fault plan, which deliberately fire
//!    outside the per-flush net). Requests in flight at that moment
//!    are still answered: their [`Responder`]s resolve the tickets
//!    from `Drop` as the unwind tears the batch down.
//!
//! ## Deadline scheduling
//!
//! A shard's deadline runs from the instant a worker *filed* its
//! oldest request (took it off the queue), not from its submission:
//! anchored at submission, a request that sat behind a queue backlog
//! would already be due when filed and would flush alone.
//! Workers park on the queue with a timeout equal to the earliest
//! pending shard deadline, capped at [`MAX_PARK`] — the cap covers
//! the race where a worker computed "nothing pending" and parked just
//! before a peer filed the first request of a new shard. Any worker
//! that wakes flushes *all* due shards (the take-under-lock makes
//! concurrent flushers safe), so a filed singleton is answered at
//! most `flush_deadline + MAX_PARK` later even if its filing worker
//! then stalls.

use super::queue::{BoundedQueue, Pop};
use super::ticket::Responder;
use super::{ServeStats, ShardOp};
use crate::pool::lock_unpoisoned;
use crate::verify::faults::CorruptionPlan;
use crate::{MmmError, Quarantine};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on how long a worker parks without re-checking shard
/// deadlines (see the module docs).
const MAX_PARK: Duration = Duration::from_millis(25);

/// One accepted request traveling through the queue.
#[derive(Debug)]
pub(crate) struct Request<O: ShardOp> {
    pub(crate) key: usize,
    pub(crate) op: O,
    pub(crate) request: O::Request,
    pub(crate) responder: Responder<O::Response>,
}

/// Requests aggregated toward one flush of one `(key, op)` shard.
#[derive(Debug)]
struct PendingShard<O: ShardOp> {
    requests: Vec<O::Request>,
    responders: Vec<Responder<O::Response>>,
    /// When a worker filed the shard's first request — the anchor of
    /// the fill-or-deadline policy (see the module docs for why it is
    /// not the submission instant).
    oldest: Instant,
}

impl<O: ShardOp> Default for PendingShard<O> {
    fn default() -> Self {
        PendingShard {
            requests: Vec::new(),
            responders: Vec::new(),
            oldest: Instant::now(),
        }
    }
}

/// Diagnostic counters (relaxed atomics — monotone tallies, not a
/// synchronization mechanism).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) submitted: AtomicU64,
    pub(crate) overloaded: AtomicU64,
    pub(crate) submit_timeouts: AtomicU64,
    pub(crate) rejected_invalid: AtomicU64,
    pub(crate) completed_ok: AtomicU64,
    pub(crate) completed_err: AtomicU64,
    pub(crate) fill_flushes: AtomicU64,
    pub(crate) deadline_flushes: AtomicU64,
    pub(crate) drain_flushes: AtomicU64,
    pub(crate) flush_panics: AtomicU64,
    pub(crate) worker_restarts: AtomicU64,
}

impl Counters {
    pub(crate) fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// The single place counters are read for export: folds the serve
    /// tallies and the integrity ledger of `quarantine` into one
    /// [`ServeStats`] value (every load relaxed — these are monotone
    /// diagnostics, not synchronization).
    pub(crate) fn snapshot(&self, quarantine: &Quarantine) -> ServeStats {
        let q = quarantine.stats();
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            submit_timeouts: self.submit_timeouts.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            completed_ok: self.completed_ok.load(Ordering::Relaxed),
            completed_err: self.completed_err.load(Ordering::Relaxed),
            fill_flushes: self.fill_flushes.load(Ordering::Relaxed),
            deadline_flushes: self.deadline_flushes.load(Ordering::Relaxed),
            drain_flushes: self.drain_flushes.load(Ordering::Relaxed),
            flush_panics: self.flush_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            integrity_violations: q.violations,
            integrity_corrected: q.corrected,
            backends_quarantined: q.quarantined_backends,
        }
    }
}

/// Everything the workers and the submit path share.
#[derive(Debug)]
pub(crate) struct Shared<O: ShardOp> {
    pub(crate) queue: BoundedQueue<Request<O>>,
    pub(crate) sessions: Vec<O::Session>,
    shards: Mutex<HashMap<(usize, O), PendingShard<O>>>,
    /// The server config's fault plan (inert unless a test armed it).
    pub(crate) faults: Arc<CorruptionPlan>,
    pub(crate) counters: Counters,
    /// The integrity ledger the sessions' configs dispatch through;
    /// [`Counters::snapshot`] folds its violation/correction/
    /// quarantine tallies into [`ServeStats`].
    pub(crate) quarantine: Arc<Quarantine>,
    pub(crate) shard_lanes: usize,
    pub(crate) flush_deadline: Duration,
}

impl<O: ShardOp> Shared<O> {
    pub(crate) fn new(sessions: Vec<O::Session>, config: &crate::EngineConfig) -> Self {
        Shared {
            queue: BoundedQueue::new(config.queue_bound()),
            sessions,
            shards: Mutex::new(HashMap::new()),
            faults: Arc::clone(config.faults()),
            counters: Counters::default(),
            quarantine: Arc::clone(config.quarantine()),
            shard_lanes: config.shard_lanes(),
            flush_deadline: config.flush_deadline(),
        }
    }

    /// The earliest instant at which some pending shard becomes due.
    fn next_flush_deadline(&self) -> Option<Instant> {
        let shards = lock_unpoisoned(&self.shards);
        shards
            .values()
            .filter(|s| !s.requests.is_empty())
            .map(|s| s.oldest + self.flush_deadline)
            .min()
    }

    /// Requests currently aggregated but not yet flushed (diagnostic).
    pub(crate) fn pending_len(&self) -> usize {
        lock_unpoisoned(&self.shards)
            .values()
            .map(|s| s.requests.len())
            .sum()
    }
}

/// The worker entry point: a supervisor loop that restarts the serve
/// loop whenever a panic escapes it, until clean shutdown.
pub(crate) fn run<O: ShardOp>(shared: &Shared<O>) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| serve_until_closed(shared))) {
            Ok(()) => return,
            Err(_) => shared.counters.bump(&shared.counters.worker_restarts),
        }
    }
}

fn serve_until_closed<O: ShardOp>(shared: &Shared<O>) {
    loop {
        let park_cap = Instant::now() + MAX_PARK;
        let until = match shared.next_flush_deadline() {
            Some(d) => d.min(park_cap),
            None => park_cap,
        };
        match shared.queue.pop_deadline(Some(until)) {
            Pop::Item(req) => accept(shared, req),
            Pop::TimedOut => {}
            Pop::Closed => break,
        }
        flush_due(shared, Instant::now());
    }
    // Drain-then-stop: the queue is closed and (as observed by this
    // worker) empty — `pop_deadline` delivers queued items before ever
    // reporting `Closed`, so everything admitted has been accepted
    // into shards. Answer whatever is still pending, deadline or not.
    flush_remaining(shared);
}

/// Files one request into its `(key, op)` shard and flushes the shard
/// if that filled it.
fn accept<O: ShardOp>(shared: &Shared<O>, req: Request<O>) {
    let filled = {
        let mut shards = lock_unpoisoned(&shared.shards);
        let shard = shards.entry((req.key, req.op)).or_default();
        if shard.requests.is_empty() {
            shard.oldest = Instant::now();
        }
        shard.requests.push(req.request);
        shard.responders.push(req.responder);
        if shard.requests.len() >= shared.shard_lanes {
            Some((req.key, req.op, std::mem::take(shard)))
        } else {
            None
        }
    };
    if let Some((key, op, batch)) = filled {
        shared.counters.bump(&shared.counters.fill_flushes);
        flush_batch(shared, key, op, batch);
    }
}

/// Flushes every shard whose oldest request has sat in it past the
/// deadline. Batches are taken under the lock, flushed outside it.
fn flush_due<O: ShardOp>(shared: &Shared<O>, now: Instant) {
    let due: Vec<_> = {
        let mut shards = lock_unpoisoned(&shared.shards);
        shards
            .iter_mut()
            .filter(|(_, s)| !s.requests.is_empty() && now >= s.oldest + shared.flush_deadline)
            .map(|(&(key, op), s)| (key, op, std::mem::take(s)))
            .collect()
    };
    for (key, op, batch) in due {
        shared.counters.bump(&shared.counters.deadline_flushes);
        flush_batch(shared, key, op, batch);
    }
}

/// Shutdown path: flushes everything still pending, regardless of
/// fill level or deadline. Safe to run from several workers at once —
/// the take-under-lock hands each batch to exactly one flusher.
fn flush_remaining<O: ShardOp>(shared: &Shared<O>) {
    let remaining: Vec<_> = {
        let mut shards = lock_unpoisoned(&shared.shards);
        shards
            .iter_mut()
            .filter(|(_, s)| !s.requests.is_empty())
            .map(|(&(key, op), s)| (key, op, std::mem::take(s)))
            .collect()
    };
    for (key, op, batch) in remaining {
        shared.counters.bump(&shared.counters.drain_flushes);
        flush_batch(shared, key, op, batch);
    }
}

/// Runs one batch through its operation and resolves every ticket.
///
/// The fault hook fires *before* the per-flush `catch_unwind`: an
/// injected panic unwinds the whole worker, and the batch's
/// responders — torn down by the unwind — resolve their tickets from
/// `Drop`. A panic from the computation itself is caught here, turned
/// into per-request [`MmmError::WorkerPanicked`] responses, and the
/// worker carries on without restarting.
fn flush_batch<O: ShardOp>(shared: &Shared<O>, key: usize, op: O, batch: PendingShard<O>) {
    let responders = batch.responders;
    shared.faults.on_flush();
    let session = &shared.sessions[key];
    let outcome = catch_unwind(AssertUnwindSafe(|| op.run_batch(session, &batch.requests)));
    match outcome {
        Ok(Ok(outs)) => {
            // Submission validated every request, so lengths agree; if
            // a future bug breaks that, the zip under-iterates and the
            // leftover responders still answer via Drop.
            debug_assert_eq!(outs.len(), responders.len());
            for (responder, out) in responders.into_iter().zip(outs) {
                shared.counters.bump(&shared.counters.completed_ok);
                responder.fulfill(Ok(out));
            }
        }
        Ok(Err(e)) => {
            for responder in responders {
                shared.counters.bump(&shared.counters.completed_err);
                responder.fulfill(Err(e.clone()));
            }
        }
        Err(_) => {
            shared.counters.bump(&shared.counters.flush_panics);
            for responder in responders {
                shared.counters.bump(&shared.counters.completed_err);
                responder.fulfill(Err(MmmError::WorkerPanicked));
            }
        }
    }
}
