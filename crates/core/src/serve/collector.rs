//! The single-threaded request aggregator: the batching step between
//! independent clients and one session call, for any [`ShardOp`].

use super::{Session, ShardOp};
use crate::MmmError;

/// Aggregates **individually submitted** requests for one operation
/// on one session: clients call [`Collector::submit`] one request at
/// a time (validated immediately by [`ShardOp::validate`], so a bad
/// request bounces without poisoning the batch), and
/// [`Collector::flush`] answers the whole queue with one
/// [`ShardOp::run_batch`] call, **in submission order** —
/// `results[id]` answers the submit that returned `id`. The
/// [`Server`](super::Server) is the multi-threaded version of the same
/// step, which decides for itself when to flush: on fill, when a
/// worker goes idle, or on the deadline.
#[derive(Debug)]
pub struct Collector<'s, O: ShardOp> {
    session: &'s O::Session,
    op: O,
    pending: Vec<O::Request>,
}

impl<'s, O: ShardOp> Collector<'s, O> {
    /// An empty collector aggregating `op` requests against `session`.
    pub fn new(session: &'s O::Session, op: O) -> Self {
        Collector {
            session,
            op,
            pending: Vec::new(),
        }
    }

    /// The operation this collector aggregates.
    pub fn op(&self) -> O {
        self.op
    }

    /// Queues one request, validating it immediately: a rejected
    /// request's error names the id it *would* have had as its
    /// `lane`, and it leaves the queue untouched. Returns the request
    /// id — the index of this request's result in the next
    /// [`Collector::flush`].
    pub fn submit(&mut self, request: O::Request) -> Result<usize, MmmError> {
        let id = self.pending.len();
        self.op.validate(self.session, id, &request)?;
        self.pending.push(request);
        Ok(id)
    }

    /// Requests queued for the next flush.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// How many **full** shards the queue currently fills at the
    /// session's configured shard width — a scheduling hint: flushing
    /// on a full shard maximizes lane utilization, flushing earlier
    /// trades throughput for latency.
    pub fn full_shards(&self) -> usize {
        self.pending.len() / self.session.config().shard_lanes()
    }

    /// Removes and returns every queued request with its submission
    /// id, leaving the collector empty — the shutdown/error escape
    /// hatch, so no caller is silently dropped. After a drain the next
    /// submit starts from id 0.
    pub fn drain(&mut self) -> Vec<(usize, O::Request)> {
        self.pending.drain(..).enumerate().collect()
    }

    /// Answers the whole queue with one [`ShardOp::run_batch`] call:
    /// one result per request, in submission order. An empty queue is
    /// [`MmmError::EmptyBatch`]. On error the queue is left intact, so
    /// no request is silently dropped.
    pub fn flush(&mut self) -> Result<Vec<O::Response>, MmmError> {
        if self.pending.is_empty() {
            return Err(MmmError::EmptyBatch);
        }
        let result = self.op.run_batch(self.session, &self.pending);
        if result.is_ok() {
            self.pending.clear();
        }
        result
    }
}
