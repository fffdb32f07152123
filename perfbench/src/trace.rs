//! In-memory spans around the calls into each layer, and the
//! self-time arithmetic over them.
//!
//! A span names its parent. Some parents are public functions that are
//! opaque from outside the program (`KeyedSession::decrypt_crt`,
//! `CurveSession::verify_ecdsa`): the probe times the call as the
//! parent span and then calls, right after it and on the same inputs,
//! the public functions that call is built from, each as a child span.
//! A parent's coverage is therefore the union of its children's own
//! intervals — concurrent children, such as the two CRT halves, count
//! once — and its self time is its duration minus that coverage. Self
//! time is negative when the children together took longer than the
//! call they decompose.

use crate::json::Json;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer, in ns from the trace's start.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Kernel calls made inside the span, counted by the wrapper engine.
    pub kernel_calls: u64,
    /// Time spent inside those kernel calls.
    pub kernel_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
            ),
            ("start_ns", Json::Int(self.start_ns)),
            ("end_ns", Json::Int(self.end_ns)),
            ("kernel_calls", Json::Int(self.kernel_calls)),
            ("kernel_ns", Json::Int(self.kernel_ns)),
        ])
    }
}

/// A thread-safe span recorder. Spans stay in memory until the run
/// writes them out; a span's id is its index.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("a probe panicked while recording");
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            kernel_calls: 0,
            kernel_ns: 0,
        });
        spans.len() - 1
    }

    /// Closes span `id` now, recording the kernel work done inside it.
    pub fn close(&self, id: usize, kernel_calls: u64, kernel_ns: u64) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("a probe panicked while recording");
        let span = &mut spans[id];
        span.end_ns = end_ns;
        span.kernel_calls = kernel_calls;
        span.kernel_ns = kernel_ns;
    }

    /// Runs `f` inside a span with no kernel work of its own.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.open(name, parent);
        let out = f();
        self.close(id, 0, 0);
        (id, out)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a probe panicked while recording")
            .clone()
    }
}

/// The length of the union of the intervals of `parent`'s direct
/// children.
pub fn coverage_ns(spans: &[Span], parent: usize) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(parent))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut open: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        open = match open {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    covered + open.map_or(0, |(s, e)| e - s)
}

/// A span's duration minus the part its children cover.
pub fn self_ns(spans: &[Span], id: usize) -> i64 {
    spans[id].duration_ns() as i64 - coverage_ns(spans, id) as i64
}

/// The share of a span its children do not cover (its self time over
/// its duration).
pub fn unattributed_share(spans: &[Span], id: usize) -> f64 {
    self_ns(spans, id) as f64 / spans[id].duration_ns() as f64
}

/// Kernel time recorded on a span and all of its descendants.
pub fn subtree_kernel_ns(spans: &[Span], id: usize) -> u64 {
    spans[id].kernel_ns
        + spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(id))
            .map(|(child, _)| subtree_kernel_ns(spans, child))
            .sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            kernel_calls: 0,
            kernel_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = vec![
            span("root", None, 0, 100),
            // Two concurrent children overlapping on [20, 30) count once.
            span("half", Some(0), 10, 30),
            span("half", Some(0), 20, 50),
            span("garner", Some(0), 60, 70),
            // A grandchild never counts toward the root.
            span("kernel", Some(1), 12, 28),
        ];
        assert_eq!(coverage_ns(&spans, 0), 50);
        assert_eq!(self_ns(&spans, 0), 50);
        assert_eq!(unattributed_share(&spans, 0), 0.5);
        assert_eq!(self_ns(&spans, 1), 4);
        assert_eq!(self_ns(&spans, 4), 16, "a leaf is all self time");

        spans[1].kernel_ns = 16;
        spans[3].kernel_ns = 5;
        assert_eq!(subtree_kernel_ns(&spans, 0), 21);
    }

    #[test]
    fn replica_children_may_outrun_their_parent() {
        // Children timed after the opaque parent call, on the same
        // inputs, that took longer than it: negative self time.
        let spans = vec![
            span("verify", None, 0, 50),
            span("scalar_mul", Some(0), 60, 90),
            span("scalar_mul", Some(0), 90, 120),
        ];
        assert_eq!(coverage_ns(&spans, 0), 60);
        assert_eq!(self_ns(&spans, 0), -10);
        assert!((unattributed_share(&spans, 0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_closes_spans() {
        let trace = Trace::new();
        let root = trace.open("root", None);
        let (child, v) = trace.time("child", Some(root), || 7);
        trace.close(root, 3, 11);
        assert_eq!(v, 7);
        let spans = trace.spans();
        assert_eq!(spans[child].parent, Some(root));
        assert!(spans[root].start_ns <= spans[child].start_ns);
        assert!(spans[child].end_ns <= spans[root].end_ns);
        assert_eq!((spans[root].kernel_calls, spans[root].kernel_ns), (3, 11));
    }
}
