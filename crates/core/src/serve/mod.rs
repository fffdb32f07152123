//! The serving plane: one fault-tolerant, multi-worker batching
//! front-end that every tenant (RSA in `mmm-rsa`, ECDSA verify and
//! ECDH in `mmm-ecc`) plugs its operations into.
//!
//! A tenant implements [`Session`] (the long-lived state requests run
//! against, e.g. an RSA key's `KeyedSession`) and one [`ShardOp`] per
//! operation. On top sit the two ways to batch: [`Collector`], a
//! single-threaded aggregator flushed by its owner, and [`Server`],
//! modeled on the Quad-Core RSA Processor's shape —
//! several cores fed from one shared request queue, where a free core
//! takes the next request instead of idling. A server owns `N`
//! worker threads ([`EngineConfig::workers`], default = available
//! parallelism) pulling from a **bounded** MPMC queue into per-
//! `(key, op)` shards. A shard goes to [`ShardOp::run_batch`] for one
//! of four causes, each counted in [`ServeStats`]:
//!
//! * **fill** — it holds [`EngineConfig::shard_lanes`] requests;
//! * **idle** — a worker found the queue empty and the shard is at or
//!   below the per-lane bound of the backend it will run on
//!   ([`Session::run_kind`], then
//!   [`EngineKind::per_lane_bound`]):
//!   there the backend runs one lane at a time, so waiting for peers
//!   would add latency and save nothing;
//! * **deadline** — its oldest request has sat there for
//!   [`EngineConfig::flush_deadline`] (counted from when a worker filed
//!   it, not from its submission), which bounds shards above the
//!   per-lane bound and every shard while the workers are busy — so a
//!   singleton request is never parked indefinitely waiting for 63
//!   peers that may not exist;
//! * **drain** — the server is shutting down.
//!
//! The point of the server, though, is what happens when things go
//! wrong. Each failure mode has a designed answer, the same for every
//! tenant, and each is exercised through the config's fault plan
//! ([`crate::verify::faults`]):
//!
//! | failure | behavior |
//! |---|---|
//! | overload | bounded queue; [`Server::try_submit`] returns [`MmmError::Overloaded`], blocking [`Server::submit`] waits at most the caller's timeout then returns [`MmmError::DeadlineExceeded`] — the process never OOMs on a backlog |
//! | invalid request | [`ShardOp::validate`] at admission; the error goes to that caller only and nothing enters a shard |
//! | stalled batch | any free worker flushes any due or idle-flushable shard, so one slow flush delays only its own shard |
//! | worker death | panics are caught per-flush (shard answered with [`MmmError::WorkerPanicked`], worker keeps serving); panics escaping the serve loop restart the worker, and the in-flight shard's tickets are still resolved by [`Ticket`] responder drops |
//! | poisoned global state | every lock in the stack — including the process-wide engine pool — recovers via [`lock_unpoisoned`] instead of cascading the panic |
//! | shutdown | [`Server::shutdown`] (and `Drop`) closes the queue, drains everything already admitted, answers it, then joins the workers — in-flight requests are never dropped |
//!
//! The end-to-end guarantee, asserted per tenant across every
//! [`EngineKind`] backend by `tests/serve_faults.rs`
//! and `tests/serve_stress.rs`: **every admitted request receives
//! exactly one response** — a bit-exact result or a typed
//! [`MmmError`] — under injected panics, stalls, and queue-full
//! storms; never a wrong answer, a deadlock, or a lost response.
//! `mmm_rsa::serve` and `mmm_ecc::serve` show the plane in use.

mod collector;
mod queue;
mod ticket;
mod worker;

pub use collector::Collector;
pub use ticket::Ticket;

use crate::pool::lock_unpoisoned;
use crate::verify::faults::CorruptionPlan;
use crate::{EngineConfig, EngineKind, MmmError};
use queue::PushError;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use worker::{Request, Shared};

/// The long-lived state a tenant's requests run against — one per
/// registered key, built once and shared by every request.
pub trait Session: Debug + Send + Sync + Sized + 'static {
    /// What [`ServerBuilder::add_key`] registers: an RSA key pair, a
    /// curve group.
    type Key;

    /// Builds the session for `key` under `config`.
    fn open(key: Self::Key, config: EngineConfig) -> Result<Self, MmmError>;

    /// The session's engine configuration (its shard width drives
    /// [`Collector::full_shards`]).
    fn config(&self) -> &EngineConfig;

    /// The backend the session's next shard runs on: its config's
    /// [`run_kind`](EngineConfig::run_kind) at its parameters, which is
    /// the configured backend unless the quarantine has benched it.
    /// The idle flush reads this backend's
    /// [`per_lane_bound`](EngineKind::per_lane_bound).
    fn run_kind(&self) -> EngineKind;
}

/// One batched operation of a tenant — the contract the [`Collector`]
/// and the [`Server`] batch through. The value itself names the
/// operation (`Copy + Hash`: a server shards pending requests by
/// `(key, op)`).
pub trait ShardOp: Copy + Eq + Hash + Debug + Send + Sync + 'static {
    /// The session the operation runs against.
    type Session: Session;
    /// One client's request.
    type Request: Debug + Send + 'static;
    /// The answer to one request.
    type Response: Debug + Send + 'static;

    /// The admission check for one request: an invalid request is
    /// bounced with a typed error naming `lane` (the server passes 0,
    /// a collector the id the request would have had) before it can
    /// join a shard.
    fn validate(
        self,
        session: &Self::Session,
        lane: usize,
        request: &Self::Request,
    ) -> Result<(), MmmError>;

    /// Answers one shard: one response per request, in order, or one
    /// error for the whole shard.
    fn run_batch(
        self,
        session: &Self::Session,
        requests: &[Self::Request],
    ) -> Result<Vec<Self::Response>, MmmError>;
}

/// Handle to a key registered with a [`Server`] (returned by
/// [`ServerBuilder::add_key`]); names the key on every submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyId(usize);

/// Diagnostic counters of a running [`Server`] (a relaxed snapshot —
/// counters from in-flight operations may lag by a few units). Every
/// flush counts under exactly one of its four causes: fill, idle,
/// deadline or drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Submissions refused with [`MmmError::Overloaded`].
    pub overloaded: u64,
    /// Blocking submissions that gave up with
    /// [`MmmError::DeadlineExceeded`].
    pub submit_timeouts: u64,
    /// Submissions bounced by [`ShardOp::validate`].
    pub rejected_invalid: u64,
    /// Requests answered with a result.
    pub completed_ok: u64,
    /// Requests answered with a typed error by an explicit fulfill
    /// (responses delivered by `Drop` during a worker restart are
    /// *not* counted here — see `worker_restarts`).
    pub completed_err: u64,
    /// Flushes triggered by a full shard.
    pub fill_flushes: u64,
    /// Flushes by a worker that found the queue empty, of a shard at
    /// or below its backend's
    /// [`per_lane_bound`](EngineKind::per_lane_bound).
    pub idle_flushes: u64,
    /// Flushes triggered by the deadline.
    pub deadline_flushes: u64,
    /// Flushes performed by the shutdown drain.
    pub drain_flushes: u64,
    /// Flush panics caught by the per-flush isolation net.
    pub flush_panics: u64,
    /// Worker serve-loops restarted after an escaped panic.
    pub worker_restarts: u64,
    /// Lanes on which the arithmetic integrity layer detected a
    /// corrupted result before release (see [`crate::verify`]).
    pub integrity_violations: u64,
    /// Detected-then-corrected lanes: answered with a verified retry
    /// instead of an error.
    pub integrity_corrected: u64,
    /// Backends currently benched by the quarantine ledger this
    /// server dispatches through.
    pub backends_quarantined: u64,
}

/// Builds a [`Server`]: collect keys, then spawn the workers.
#[derive(Debug)]
pub struct ServerBuilder<O: ShardOp> {
    config: EngineConfig,
    sessions: Vec<O::Session>,
}

impl<O: ShardOp> ServerBuilder<O> {
    /// Registers a key: opens (and pre-warms) its [`Session`] under
    /// the builder's config. The returned [`KeyId`] names the key on
    /// every submission.
    pub fn add_key(&mut self, key: <O::Session as Session>::Key) -> Result<KeyId, MmmError> {
        let session = O::Session::open(key, self.config.clone())?;
        Ok(self.add_session(session))
    }

    /// Registers a pre-built session (e.g. one configured differently
    /// from the server's own config).
    pub fn add_session(&mut self, session: O::Session) -> KeyId {
        self.sessions.push(session);
        KeyId(self.sessions.len() - 1)
    }

    /// Spawns the worker threads and starts serving. Fails with
    /// [`MmmError::Config`] if no key was registered or a worker
    /// thread cannot be spawned.
    pub fn build(self) -> Result<Server<O>, MmmError> {
        if self.sessions.is_empty() {
            return Err(MmmError::Config(
                "server needs at least one registered key".to_string(),
            ));
        }
        let shared = Arc::new(Shared::new(self.sessions, &self.config));
        let mut handles = Vec::with_capacity(self.config.workers());
        for i in 0..self.config.workers() {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("mmm-serve-{i}"))
                .spawn(move || worker::run(&shared))
                .map_err(|e| MmmError::Config(format!("failed to spawn serving worker: {e}")))?;
            handles.push(handle);
        }
        Ok(Server {
            shared,
            workers: Mutex::new(handles),
        })
    }
}

/// The multi-worker serving front-end for the operations `O`. See the
/// module docs for the dispatch shape and the failure-mode table;
/// construct via [`Server::builder`].
#[derive(Debug)]
pub struct Server<O: ShardOp> {
    shared: Arc<Shared<O>>,
    /// Worker handles, taken (and joined) exactly once at shutdown.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<O: ShardOp> Server<O> {
    /// An empty [`ServerBuilder`] over `config` (which supplies the
    /// backend, window policy, shard width, flush deadline, queue
    /// bound, worker count and fault plan).
    pub fn builder(config: EngineConfig) -> ServerBuilder<O> {
        ServerBuilder {
            config,
            sessions: Vec::new(),
        }
    }

    /// Non-blocking submission: validates the request, then either
    /// admits it (returning the [`Ticket`] its response will arrive
    /// on) or refuses immediately — [`MmmError::Overloaded`] when the
    /// bounded queue is full (the backpressure signal),
    /// [`MmmError::Stopped`] after shutdown, the operation's own
    /// [`ShardOp::validate`] error for a bad request, or
    /// [`MmmError::Config`] for an unknown [`KeyId`].
    pub fn try_submit(
        &self,
        key: KeyId,
        op: O,
        request: O::Request,
    ) -> Result<Ticket<O::Response>, MmmError> {
        self.submit_inner(key, op, request, None)
    }

    /// Blocking submission with a caller budget: like
    /// [`Server::try_submit`] but waits up to `timeout` for a queue
    /// slot, then gives up with [`MmmError::DeadlineExceeded`].
    pub fn submit(
        &self,
        key: KeyId,
        op: O,
        request: O::Request,
        timeout: Duration,
    ) -> Result<Ticket<O::Response>, MmmError> {
        self.submit_inner(key, op, request, Some(timeout))
    }

    fn submit_inner(
        &self,
        key: KeyId,
        op: O,
        request: O::Request,
        timeout: Option<Duration>,
    ) -> Result<Ticket<O::Response>, MmmError> {
        let counters = &self.shared.counters;
        let session =
            self.shared.sessions.get(key.0).ok_or_else(|| {
                MmmError::Config(format!("unknown key id {} on this server", key.0))
            })?;
        // A bad request bounces here, without ever entering a shard.
        if let Err(e) = op.validate(session, 0, &request) {
            counters.bump(&counters.rejected_invalid);
            return Err(e);
        }
        if self.shared.faults.on_submit() {
            counters.bump(&counters.overloaded);
            return Err(MmmError::Overloaded {
                capacity: self.shared.queue.capacity(),
            });
        }
        let (ticket, responder) = ticket::channel();
        let request = Request {
            key: key.0,
            op,
            request,
            responder,
        };
        let pushed = match timeout {
            None => self.shared.queue.try_push(request),
            Some(t) => self.shared.queue.push_timeout(request, t),
        };
        match pushed {
            Ok(()) => {
                counters.bump(&counters.submitted);
                Ok(ticket)
            }
            Err(PushError::Full(_)) => {
                counters.bump(&counters.overloaded);
                Err(MmmError::Overloaded {
                    capacity: self.shared.queue.capacity(),
                })
            }
            Err(PushError::TimedOut(_)) => {
                counters.bump(&counters.submit_timeouts);
                Err(MmmError::DeadlineExceeded)
            }
            Err(PushError::Closed(_)) => Err(MmmError::Stopped),
        }
    }

    /// The session serving `key`, if registered.
    pub fn session(&self, key: KeyId) -> Option<&O::Session> {
        self.shared.sessions.get(key.0)
    }

    /// Requests sitting in the admission queue right now (excludes
    /// requests already aggregated into shards; see
    /// [`Server::pending_depth`]).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Requests accepted into shards but not yet flushed.
    pub fn pending_depth(&self) -> usize {
        self.shared.pending_len()
    }

    /// The fault plan of the config this server was built from (inert
    /// unless armed): its flush-panic, flush-stall and queue-full
    /// switches fire here.
    pub fn faults(&self) -> &CorruptionPlan {
        &self.shared.faults
    }

    /// A snapshot of the diagnostic counters — serve tallies plus the
    /// integrity ledger — read in one place rather than ad-hoc loads.
    pub fn stats(&self) -> ServeStats {
        self.shared.counters.snapshot(&self.shared.quarantine)
    }

    /// Graceful drain-then-stop: refuses new submissions, lets the
    /// workers drain and answer everything already admitted, then
    /// joins them. Dropping the server does the same; the explicit
    /// method exists so callers can sequence "no more traffic" before
    /// the server goes away, and its `self` receiver mirrors the
    /// one-way nature of shutdown. Returns the final counters, read
    /// after every worker has joined, so they include the drain.
    pub fn shutdown(self) -> ServeStats {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&self) {
        self.shared.queue.close();
        let handles = std::mem::take(&mut *lock_unpoisoned(&self.workers));
        for handle in handles {
            // A worker that somehow died with an unjoinable panic has
            // already answered its tickets via responder drops; there
            // is nothing useful to do with the join error.
            let _ = handle.join();
        }
    }
}

impl<O: ShardOp> Drop for Server<O> {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperandBound;

    /// A toy tenant: doubles requests below its session's bound, and
    /// panics inside the computation on the request `PANIC`.
    #[derive(Debug)]
    struct Bounded {
        bound: u64,
        config: EngineConfig,
    }

    const PANIC: u64 = 13;

    impl Session for Bounded {
        type Key = u64;

        fn open(bound: u64, config: EngineConfig) -> Result<Self, MmmError> {
            Ok(Bounded { bound, config })
        }

        fn config(&self) -> &EngineConfig {
            &self.config
        }

        fn run_kind(&self) -> EngineKind {
            self.config.backend()
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Double;

    impl ShardOp for Double {
        type Session = Bounded;
        type Request = u64;
        type Response = u64;

        fn validate(self, s: &Bounded, lane: usize, x: &u64) -> Result<(), MmmError> {
            if *x < s.bound {
                Ok(())
            } else {
                Err(MmmError::OperandOutOfRange {
                    lane,
                    bound: OperandBound::N,
                })
            }
        }

        fn run_batch(self, _: &Bounded, xs: &[u64]) -> Result<Vec<u64>, MmmError> {
            assert!(!xs.contains(&PANIC), "organic flush panic");
            Ok(xs.iter().map(|x| 2 * x).collect())
        }
    }

    fn tiny_config() -> EngineConfig {
        EngineConfig::default()
            .with_workers(2)
            .unwrap()
            .with_flush_deadline(Duration::from_millis(1))
    }

    fn server() -> (Server<Double>, KeyId) {
        let mut builder = Server::builder(tiny_config());
        let id = builder.add_key(100).unwrap();
        (builder.build().unwrap(), id)
    }

    #[test]
    fn builder_rejects_empty_and_unknown_keys() {
        assert!(matches!(
            Server::<Double>::builder(tiny_config()).build(),
            Err(MmmError::Config(_))
        ));
        let (server, id) = server();
        assert_eq!(id, KeyId(0));
        let bogus = KeyId(7);
        assert!(matches!(
            server.try_submit(bogus, Double, 1),
            Err(MmmError::Config(_))
        ));
        server.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_stopped() {
        let (server, id) = server();
        server.shared.queue.close();
        assert_eq!(
            server.try_submit(id, Double, 1).unwrap_err(),
            MmmError::Stopped
        );
        server.shutdown();
    }

    #[test]
    fn organic_flush_panic_answers_its_shard_without_a_restart() {
        // A panic inside `run_batch` is caught by the per-flush net:
        // its shard gets `WorkerPanicked`, the worker keeps serving.
        let (server, id) = server();
        let ticket = server.try_submit(id, Double, PANIC).unwrap();
        assert_eq!(ticket.wait(), Err(MmmError::WorkerPanicked));
        assert_eq!(server.try_submit(id, Double, 21).unwrap().wait(), Ok(42));
        let stats = server.stats();
        assert_eq!(stats.flush_panics, 1);
        assert_eq!(stats.worker_restarts, 0);
        assert_eq!((stats.completed_ok, stats.completed_err), (1, 1));
        server.shutdown();
    }

    #[test]
    fn server_uses_its_config_fault_plan() {
        let config = tiny_config();
        let plan = Arc::clone(config.faults());
        let mut builder = Server::<Double>::builder(config);
        let id = builder.add_key(100).unwrap();
        let server = builder.build().unwrap();
        assert!(std::ptr::eq(server.faults(), &*plan));
        plan.inject_queue_full(1);
        assert!(matches!(
            server.try_submit(id, Double, 1),
            Err(MmmError::Overloaded { .. })
        ));
        assert_eq!(server.try_submit(id, Double, 1).unwrap().wait(), Ok(2));
        server.shutdown();
    }
}
