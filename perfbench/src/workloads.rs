//! The three workloads, each driven from one generator thread through
//! the public serving APIs built from `EngineConfig::default()`. Every
//! answer is checked against its known plaintext or expected verdict.

use crate::host;
use crate::inputs::{EcdsaInputs, RsaInputs, ECDSA_CALL};
use crate::stats::{median, percentile};
use mmm_bigint::Ubig;
use mmm_core::pool::{self, PoolStats};
use mmm_core::{EngineConfig, MmmError};
use mmm_ecc::CurveSession;
use mmm_rsa::{BatchOp, KeyId, ServeStats, Server, Ticket};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RsaCrtSparse,
    RsaCrtSaturated,
    EcdsaP256Verify,
}

/// Offered rate of the open-loop workload, requests per second.
pub const SPARSE_RATE: f64 = 50.0;
/// Requests the closed RSA loop keeps in flight: four full shards.
pub const SATURATED_DEPTH: usize = 256;
/// The windows the open loop is cut into; its CPU per operation is the
/// median over them.
pub const SPARSE_WINDOW: Duration = Duration::from_secs(1);
/// The windows the closed RSA loop is cut into, about forty shards
/// each. (The ECDSA loop closes a window after every call.)
pub const SATURATED_WINDOW: Duration = Duration::from_millis(500);

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RsaCrtSparse,
        Workload::RsaCrtSaturated,
        Workload::EcdsaP256Verify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RsaCrtSparse => "rsa-crt-sparse",
            Workload::RsaCrtSaturated => "rsa-crt-saturated",
            Workload::EcdsaP256Verify => "ecdsa-p256-verify",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What the workload offers and why it is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::RsaCrtSparse => {
                "open loop, Poisson 50 req/s of 1024-bit CRT decrypts to one key: shards flush \
                 on the 2 ms deadline with one or two lanes, so per-flush fixed cost dominates"
            }
            Workload::RsaCrtSaturated => {
                "closed loop, 256 CRT decrypts in flight: every flush fills 64 lanes, so kernel, \
                 scan and CRT throughput decide the result"
            }
            Workload::EcdsaP256Verify => {
                "closed loop of 64-request (one-shard) P-256 verify calls, one tampered in eight: \
                 the same kernel and scan at 256 bits plus host-side point arithmetic"
            }
        }
    }

    pub fn is_rsa(self) -> bool {
        self != Workload::EcdsaP256Verify
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Correct,
    Wrong,
    /// A typed error instead of an answer.
    Error,
    /// Refused at admission (`Overloaded` or a submit timeout).
    Refused,
}

/// One request's timestamps in ns from the run's start: when it was
/// due, when the generator started and finished submitting it, and
/// when its answer landed.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    pub due: u64,
    pub sent: u64,
    pub admitted: u64,
    pub resolved: u64,
    pub verdict: Verdict,
}

/// Correct answers, their median latency, and the process CPU time
/// spent, in one window of a run.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub secs: f64,
    pub correct: u64,
    pub cpu_s: f64,
    /// Nearest-rank median latency of the requests answered in the
    /// window, in ms (`+∞` when most of them failed).
    pub p50_ms: f64,
}

impl Window {
    fn rate(&self) -> f64 {
        self.correct as f64 / self.secs
    }

    fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.correct as f64
    }
}

/// Everything one run of a workload measured.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub correct: u64,
    pub wrong: u64,
    /// Per-request latency in ms, `+∞` for a request without a correct
    /// answer. Open loop: from the due time. Closed loop: from the send.
    /// Kept as `f32` so the benchmark's own memory barely moves
    /// `peak_rss_mb`.
    pub latencies_ms: Vec<f32>,
    pub windows: Vec<Window>,
    pub open_loop: bool,
    /// When the last answer landed, in ns from the run's start.
    pub last_ns: u64,
    /// Every request's span (traced runs).
    pub spans: Vec<RequestSpan>,
    /// `ServeStats` before and after (traced RSA runs).
    pub serve: Option<(ServeStats, ServeStats)>,
    /// `PoolStats` before and after (traced runs).
    pub pool: Option<(PoolStats, PoolStats)>,
}

impl Run {
    pub fn failed(&self) -> u64 {
        self.attempted - self.correct
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latencies_ms.iter().map(|&l| f64::from(l)).collect()
    }

    /// How late the generator sent each request, in ms (traced runs).
    pub fn lags_ms(&self) -> Vec<f64> {
        self.spans
            .iter()
            .map(|r| r.sent.saturating_sub(r.due) as f64 / 1e6)
            .collect()
    }

    /// Time each submission took, in µs (traced runs).
    pub fn submit_us(&self) -> Vec<f64> {
        self.spans
            .iter()
            .map(|r| (r.admitted - r.sent) as f64 / 1e3)
            .collect()
    }

    /// Correct answers per second. Open loop, where the offered rate
    /// sets it: over the whole run. Closed loop: the fastest window's.
    ///
    /// Every window of a closed loop offers the same load, so windows
    /// differ only in how much other tenants of a shared host slowed
    /// this process down, and that contention only ever slows. The
    /// fastest window is the least disturbed one; a median moves with
    /// the share of the run the host was busy, by up to twice on a
    /// shared 2-vCPU Xeon virtual machine.
    pub fn throughput_ops_s(&self) -> f64 {
        if self.open_loop {
            return self.whole_run_rate();
        }
        self.windows.iter().map(Window::rate).fold(0.0, f64::max)
    }

    /// Correct answers per second of the whole run.
    pub fn whole_run_rate(&self) -> f64 {
        self.correct as f64 / (self.last_ns as f64 / 1e9)
    }

    /// Median request latency in ms. Open loop: over the whole run.
    /// Closed loop: the lowest window median (see
    /// [`Run::throughput_ops_s`]).
    pub fn latency_p50_ms(&self) -> f64 {
        if self.open_loop {
            return percentile(&self.latencies_ms(), 0.5).value;
        }
        self.windows
            .iter()
            .map(|w| w.p50_ms)
            .fold(f64::INFINITY, f64::min)
    }

    /// Process CPU time per correct answer in ms, over the windows that
    /// saw an answer. Open loop: their median, since its windows differ
    /// in offered load. Closed loop: the lowest.
    pub fn cpu_ms_per_op(&self) -> f64 {
        let per_op = self
            .windows
            .iter()
            .filter(|w| w.correct > 0)
            .map(Window::cpu_ms_per_op);
        if self.open_loop {
            median(&per_op.collect::<Vec<_>>())
        } else {
            per_op.fold(f64::INFINITY, f64::min)
        }
    }
}

/// Builds a [`Run`] as answers land. [`Recorder::tick`] closes the
/// current window once `window` has passed since it opened.
struct Recorder {
    run: Run,
    traced: bool,
    window: Duration,
    window_start: Instant,
    window_cpu_s: f64,
    window_correct: u64,
    window_latencies_ms: Vec<f64>,
    /// Set once a closed loop stops sending: its drain is not a steady
    /// state, so it closes no more windows.
    draining: bool,
}

impl Recorder {
    fn new(start: Instant, open_loop: bool, traced: bool, window: Duration) -> Self {
        Recorder {
            run: Run {
                open_loop,
                ..Run::default()
            },
            traced,
            window,
            window_start: start,
            window_cpu_s: host::process_cpu_s(),
            window_correct: 0,
            window_latencies_ms: Vec::new(),
            draining: false,
        }
    }

    fn record(&mut self, span: RequestSpan) {
        let run = &mut self.run;
        run.attempted += 1;
        let latency = match span.verdict {
            Verdict::Correct => {
                run.correct += 1;
                self.window_correct += 1;
                let from = if run.open_loop { span.due } else { span.sent };
                (span.resolved - from) as f64 / 1e6
            }
            Verdict::Wrong => {
                run.wrong += 1;
                f64::INFINITY
            }
            Verdict::Error | Verdict::Refused => f64::INFINITY,
        };
        run.latencies_ms.push(latency as f32);
        self.window_latencies_ms.push(latency);
        run.last_ns = run.last_ns.max(span.resolved);
        if self.traced {
            run.spans.push(span);
        }
    }

    fn tick(&mut self) {
        let now = Instant::now();
        let open = now.saturating_duration_since(self.window_start);
        if self.draining || open < self.window {
            return;
        }
        let cpu_s = host::process_cpu_s();
        self.run.windows.push(Window {
            secs: open.as_secs_f64(),
            correct: self.window_correct,
            cpu_s: cpu_s - self.window_cpu_s,
            p50_ms: percentile(&self.window_latencies_ms, 0.5).value,
        });
        self.window_start = now;
        self.window_cpu_s = cpu_s;
        self.window_correct = 0;
        self.window_latencies_ms.clear();
    }

    fn finish(
        self,
        before: Option<(ServeStats, PoolStats)>,
        after: Option<(ServeStats, PoolStats)>,
    ) -> Run {
        let mut run = self.run;
        if let (Some((s0, p0)), Some((s1, p1))) = (before, after) {
            run.serve = Some((s0, s1));
            run.pool = Some((p0, p1));
        }
        run
    }
}

fn ns_since(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_nanos() as u64
}

fn pool_stats() -> PoolStats {
    pool::global_stats().expect("the environment was cleared, so the pool initializes")
}

/// A server over the inputs' key, built from `EngineConfig::default()`.
pub fn start_rsa_server(inputs: &RsaInputs) -> Result<(Server, KeyId), MmmError> {
    let mut builder = Server::builder(EngineConfig::default());
    let key = builder.add_key(inputs.key.clone())?;
    Ok((builder.build()?, key))
}

/// Warms the server with one full shard and one deadline flush,
/// checking the answers.
pub fn warm_rsa(server: &Server, key: KeyId, inputs: &RsaInputs) -> Result<(), String> {
    let tickets: Vec<(usize, Ticket)> = (0..65)
        .map(|i| {
            let t = server.try_submit(key, BatchOp::DecryptCrt, inputs.cipher[i].clone());
            t.map(|t| (i, t))
                .map_err(|e| format!("warm-up submit: {e}"))
        })
        .collect::<Result<_, _>>()?;
    for (i, t) in tickets {
        match t.wait() {
            Ok(m) if m == inputs.plain[i] => {}
            other => return Err(format!("warm-up answer {i} wrong: {other:?}")),
        }
    }
    Ok(())
}

/// A submitted request on its way to being checked.
struct Pending {
    idx: usize,
    due: Instant,
    sent: Instant,
    admitted: Instant,
    submitted: Result<Ticket, MmmError>,
}

impl Pending {
    fn submit(
        server: &Server,
        key: KeyId,
        inputs: &RsaInputs,
        idx: usize,
        due: Instant,
        traced: bool,
    ) -> Pending {
        let value = inputs.cipher[idx].clone();
        let sent = if traced { Instant::now() } else { due };
        let submitted = server.try_submit(key, BatchOp::DecryptCrt, value);
        let admitted = if traced { Instant::now() } else { sent };
        Pending {
            idx,
            due,
            sent,
            admitted,
            submitted,
        }
    }

    /// Waits for the answer and checks it against the plaintext.
    fn resolve(self, t0: Instant, plain: &[Ubig]) -> RequestSpan {
        let (verdict, resolved) = match self.submitted {
            Ok(ticket) => {
                let (result, at) = ticket.wait_timed();
                let verdict = match result {
                    Ok(m) if m == plain[self.idx] => Verdict::Correct,
                    Ok(_) => Verdict::Wrong,
                    Err(_) => Verdict::Error,
                };
                (verdict, at)
            }
            Err(MmmError::Overloaded { .. } | MmmError::DeadlineExceeded) => {
                (Verdict::Refused, self.admitted)
            }
            Err(_) => (Verdict::Error, self.admitted),
        };
        RequestSpan {
            due: ns_since(t0, self.due),
            sent: ns_since(t0, self.sent),
            admitted: ns_since(t0, self.admitted),
            resolved: ns_since(t0, resolved),
            verdict,
        }
    }
}

/// `rsa-crt-sparse`: an open loop sending request `i` at `schedule[i]`
/// seconds, timed from that due time. One thread sends; a second one
/// only waits for answers, so a slow answer never delays a send.
/// Untraced runs skip the submit timestamps (`sent = due`).
pub fn run_sparse(
    server: &Server,
    key: KeyId,
    inputs: &RsaInputs,
    schedule: &[f64],
    traced: bool,
) -> Run {
    let before = traced.then(|| (server.stats(), pool_stats()));
    // A short lead so the first request is not already late.
    let t0 = Instant::now() + Duration::from_millis(10);
    let (tx, rx) = mpsc::channel::<Pending>();
    let plain = &inputs.plain;
    let recorder = std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let mut rec = Recorder::new(t0, true, traced, SPARSE_WINDOW);
            for p in rx {
                rec.record(p.resolve(t0, plain));
                rec.tick();
            }
            rec
        });
        for (i, &offset) in schedule.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let idx = i % inputs.cipher.len();
            let p = Pending::submit(server, key, inputs, idx, due, traced);
            tx.send(p).expect("the waiter outlives the generator");
        }
        drop(tx);
        waiter.join().expect("waiter thread panicked")
    });
    let after = traced.then(|| (server.stats(), pool_stats()));
    recorder.finish(before, after)
}

/// `rsa-crt-saturated`: a closed loop keeping [`SATURATED_DEPTH`]
/// requests in flight; each answer frees a slot for the next request.
/// Requests sent until `seconds` have passed are drained and checked.
pub fn run_saturated(
    server: &Server,
    key: KeyId,
    inputs: &RsaInputs,
    seconds: f64,
    traced: bool,
) -> Run {
    let before = traced.then(|| (server.stats(), pool_stats()));
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let mut rec = Recorder::new(t0, false, traced, SATURATED_WINDOW);
    let pool_len = inputs.cipher.len();
    let mut inflight = VecDeque::with_capacity(SATURATED_DEPTH);
    let mut next = 0usize;
    for _ in 0..SATURATED_DEPTH {
        let due = Instant::now();
        inflight.push_back(Pending::submit(
            server,
            key,
            inputs,
            next % pool_len,
            due,
            traced,
        ));
        next += 1;
    }
    while let Some(p) = inflight.pop_front() {
        let span = p.resolve(t0, &inputs.plain);
        rec.record(span);
        rec.tick();
        if Instant::now() < end {
            // The slot freed when the answer landed: that is when the
            // next request became due.
            let due = if traced {
                t0 + Duration::from_nanos(span.resolved)
            } else {
                Instant::now()
            };
            inflight.push_back(Pending::submit(
                server,
                key,
                inputs,
                next % pool_len,
                due,
                traced,
            ));
            next += 1;
        } else {
            rec.draining = true;
        }
    }
    let after = traced.then(|| (server.stats(), pool_stats()));
    rec.finish(before, after)
}

/// `ecdsa-p256-verify`: one caller issuing back-to-back
/// [`ECDSA_CALL`]-request `verify_ecdsa` calls until `seconds` have
/// passed; each request's latency is its call's, and each call is a
/// window. A one-shard call runs on the calling thread, which takes
/// the allowed CPUs in turn (see [`host::pin`]).
pub fn run_ecdsa(session: &CurveSession, inputs: &EcdsaInputs, seconds: f64, traced: bool) -> Run {
    let before = traced.then(pool_stats);
    let cpus = host::allowed_cpus();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let mut rec = Recorder::new(t0, false, traced, Duration::ZERO);
    let mut due = t0;
    let calls = inputs.reqs.chunks(ECDSA_CALL).enumerate().cycle();
    for (cpu, (call, chunk)) in cpus.iter().cycle().zip(calls) {
        host::pin(&[*cpu]);
        let sent = Instant::now();
        if sent >= end {
            break;
        }
        let verdicts = session.verify_ecdsa(chunk);
        let resolved = Instant::now();
        for j in 0..chunk.len() {
            let verdict = match &verdicts {
                Ok(v) if v[j] == inputs.expect[call * ECDSA_CALL + j] => Verdict::Correct,
                Ok(_) => Verdict::Wrong,
                Err(_) => Verdict::Error,
            };
            rec.record(RequestSpan {
                due: ns_since(t0, due),
                sent: ns_since(t0, sent),
                admitted: ns_since(t0, sent),
                resolved: ns_since(t0, resolved),
                verdict,
            });
        }
        rec.tick();
        due = resolved;
    }
    host::pin(&cpus);
    let mut run = rec.run;
    run.pool = before.map(|b| (b, pool_stats()));
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(secs: f64, correct: u64, cpu_s: f64, p50_ms: f64) -> Window {
        Window {
            secs,
            correct,
            cpu_s,
            p50_ms,
        }
    }

    #[test]
    fn closed_loops_report_their_fastest_window_and_open_loops_the_whole_run() {
        let windows = vec![
            window(0.5, 1000, 0.75, 60.0),
            window(0.5, 1500, 0.75, 45.0),
            window(0.625, 1250, 1.25, 50.0),
        ];
        let closed = Run {
            windows: windows.clone(),
            ..Run::default()
        };
        assert_eq!(closed.throughput_ops_s(), 3000.0);
        assert_eq!(closed.latency_p50_ms(), 45.0);
        assert_eq!(closed.cpu_ms_per_op(), 0.5);

        let open = Run {
            open_loop: true,
            correct: 100,
            last_ns: 2_000_000_000,
            latencies_ms: vec![30.0, 10.0, 20.0],
            windows,
            ..Run::default()
        };
        assert_eq!(open.throughput_ops_s(), 50.0);
        assert_eq!(open.latency_p50_ms(), 20.0);
        assert_eq!(open.cpu_ms_per_op(), 0.75);
    }
}
