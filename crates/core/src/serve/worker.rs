//! Worker threads: pull requests off the shared bounded queue into
//! per-`(key, op)` shards, flush each shard for one of four causes —
//! **fill, idle, deadline or drain** — and isolate every failure to the
//! shard that caused it.
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
//! ## The flush rule
//!
//! After every pop (a filed request, a timeout or the close), the
//! worker runs one flush pass. [`flush_cause`] decides each pending
//! shard, in this order:
//!
//! 1. **fill** — the shard holds `shard_lanes` requests;
//! 2. **drain** — the queue is closed (and, as `pop_deadline` reports
//!    `Closed` only then, empty): everything left is answered;
//! 3. **deadline** — the shard's oldest request has waited
//!    `flush_deadline`;
//! 4. **idle** — the queue is empty, so the worker is about to park,
//!    and the shard's lanes are at or below the per-lane bound
//!    ([`EngineKind::per_lane_bound`](crate::EngineKind::per_lane_bound))
//!    of the backend the shard will run on ([`Session::run_kind`]: the
//!    configured one unless the quarantine has benched it).
//!    Up to that bound the backend runs one lane at a time, so waiting
//!    for peers costs latency and saves no work per lane.
//!
//! The idle rule never fires while the queue holds requests, so under
//! load shards still grow toward `shard_lanes`, bounded by the
//! deadline; a backend with bound 0 keeps pure fill-or-deadline.
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
use super::{ServeStats, Session, ShardOp};
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
    /// the deadline (see the module docs for why it is not the
    /// submission instant).
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
    pub(crate) idle_flushes: AtomicU64,
    pub(crate) deadline_flushes: AtomicU64,
    pub(crate) drain_flushes: AtomicU64,
    pub(crate) flush_panics: AtomicU64,
    pub(crate) worker_restarts: AtomicU64,
}

impl Counters {
    pub(crate) fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// The counter of flushes with `cause`.
    fn flushes(&self, cause: Cause) -> &AtomicU64 {
        match cause {
            Cause::Fill => &self.fill_flushes,
            Cause::Idle => &self.idle_flushes,
            Cause::Deadline => &self.deadline_flushes,
            Cause::Drain => &self.drain_flushes,
        }
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
            idle_flushes: self.idle_flushes.load(Ordering::Relaxed),
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

/// Why a shard is flushed; every flush counts under exactly one cause
/// in [`ServeStats`].
#[derive(Debug, Clone, Copy)]
enum Cause {
    /// The shard reached its width.
    Fill,
    /// The queue is empty and the shard is within its backend's
    /// per-lane bound.
    Idle,
    /// The shard's oldest request has waited out the deadline.
    Deadline,
    /// The server is closing.
    Drain,
}

/// The flush rule (see the module docs): why a shard of `lanes`
/// requests in a server of shard width `width` flushes now, if it
/// does. `bound` is the per-lane bound of the shard's backend,
/// `queue_empty` whether the worker found the request queue empty,
/// `age` how long the shard's oldest request has waited against the
/// flush `deadline`, and `closing` whether the queue is closed.
fn flush_cause(
    lanes: usize,
    width: usize,
    bound: usize,
    queue_empty: bool,
    age: Duration,
    deadline: Duration,
    closing: bool,
) -> Option<Cause> {
    if lanes == 0 {
        None
    } else if lanes >= width {
        Some(Cause::Fill)
    } else if closing {
        Some(Cause::Drain)
    } else if age >= deadline {
        Some(Cause::Deadline)
    } else if queue_empty && lanes <= bound {
        Some(Cause::Idle)
    } else {
        None
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
        // Drain-then-stop: `pop_deadline` delivers queued items before
        // ever reporting `Closed`, so by then everything admitted has
        // been filed, and the last pass answers whatever is pending.
        let (req, closing) = match shared.queue.pop_deadline(Some(until)) {
            Pop::Item(req) => (Some(req), false),
            Pop::TimedOut => (None, false),
            Pop::Closed => (None, true),
        };
        flush(shared, req, closing);
        if closing {
            return;
        }
    }
}

/// The one flush path. Under one hold of the shard lock it files `req`
/// (when the pop delivered one) into its `(key, op)` shard and takes
/// every shard that [`flush_cause`] gives a cause — so no shard ever
/// grows past its width — then counts and flushes each outside the
/// lock. Safe to run from several workers at once: the take-under-lock
/// hands each batch to exactly one flusher.
fn flush<O: ShardOp>(shared: &Shared<O>, req: Option<Request<O>>, closing: bool) {
    let queue_empty = shared.queue.is_empty();
    let taken: Vec<_> = {
        let mut shards = lock_unpoisoned(&shared.shards);
        let now = Instant::now();
        if let Some(req) = req {
            let shard = shards.entry((req.key, req.op)).or_default();
            if shard.requests.is_empty() {
                shard.oldest = now;
            }
            shard.requests.push(req.request);
            shard.responders.push(req.responder);
        }
        shards
            .iter_mut()
            .filter_map(|(&(key, op), s)| {
                let bound = shared.sessions[key].run_kind().per_lane_bound();
                let cause = flush_cause(
                    s.requests.len(),
                    shared.shard_lanes,
                    bound,
                    queue_empty,
                    now.saturating_duration_since(s.oldest),
                    shared.flush_deadline,
                    closing,
                )?;
                Some((cause, key, op, std::mem::take(s)))
            })
            .collect()
    };
    for (cause, key, op, batch) in taken {
        shared.counters.bump(shared.counters.flushes(cause));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_cause_table() {
        const WIDTH: usize = 64;
        let deadline = Duration::from_millis(2);
        // One letter per (closing, due, queue_empty) combination, in
        // binary order from (no, no, no) to (yes, yes, yes): F fill,
        // I idle, D deadline, R drain, - keep waiting.
        for bound in [0, 32] {
            let rows = [
                (1, if bound == 0 { "--DDRRRR" } else { "-IDDRRRR" }),
                (bound, if bound == 0 { "--------" } else { "-IDDRRRR" }),
                (bound + 1, "--DDRRRR"),
                (WIDTH, "FFFFFFFF"),
            ];
            for (lanes, want) in rows {
                for (i, letter) in want.chars().enumerate() {
                    let (closing, due, queue_empty) = (i & 4 != 0, i & 2 != 0, i & 1 != 0);
                    let age = if due { deadline } else { deadline / 2 };
                    let cause =
                        flush_cause(lanes, WIDTH, bound, queue_empty, age, deadline, closing);
                    let got = match cause {
                        Some(Cause::Fill) => 'F',
                        Some(Cause::Idle) => 'I',
                        Some(Cause::Deadline) => 'D',
                        Some(Cause::Drain) => 'R',
                        None => '-',
                    };
                    assert_eq!(
                        got, letter,
                        "lanes {lanes}, bound {bound}, closing {closing}, due {due}, \
                         queue empty {queue_empty}"
                    );
                }
            }
        }
    }
}
