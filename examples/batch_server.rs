//! Arrival-rate-sweep load generator for the fault-tolerant serving
//! front-end (`mmm_core::serve`, in its RSA instantiation
//! `mmm_rsa::serve`).
//!
//! Independent paced arrivals are submitted to a running [`Server`]
//! at a sweep of offered rates around the host's measured capacity;
//! for each (backend, rate) point the generator records achieved
//! throughput and p50/p99 submit→resolve latency (measured with
//! [`Ticket::wait_timed`]'s resolve timestamps, so waiting for
//! stragglers after the run does not distort the numbers). Every
//! response is checked bit-for-bit against its known plaintext — a
//! load test that does not verify results would happily report a
//! fast wrong server.
//!
//! Modes:
//!
//! ```text
//! cargo run --release --example batch_server              # full sweep, writes BENCH_serving.json
//! cargo run --release --example batch_server -- --quick   # CI smoke: small key, short points, no JSON
//! cargo run --release --example batch_server -- --quick --faults
//!                                                         # fault-injection smoke: panics, stalls,
//!                                                         # queue-full storms under live traffic
//! cargo run --release --example batch_server -- --quick --verify
//!                                                         # integrity smoke: measures the Off-vs-Full
//!                                                         # verify-before-release tax and proves an
//!                                                         # injected corruption is corrected in-flight
//! cargo run --release --example batch_server -- --quick --hardened
//!                                                         # constant-time smoke: measures the
//!                                                         # Off-vs-Hardened serving tax and proves the
//!                                                         # blinded hardened path stays bit-exact
//! ```
//!
//! The full (non-`--quick`) sweep also measures the
//! verify-before-release tax (`VerifyPolicy::Full` vs `Off` CRT
//! throughput at the headline 1024-bit size) and records it in
//! `BENCH_serving.json` under `"verify"`.
//!
//! The full sweep uses 1024-bit keys (the paper's headline RSA size)
//! and sweeps offered load from well below to well above measured
//! capacity, so the saturation knee and the overload behavior
//! (typed `Overloaded` refusals, not collapse) are both visible in
//! the emitted `BENCH_serving.json`.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::cios52::Cios52Kernel;
use montgomery_systolic::core::verify::faults::CorruptionPlan;
use montgomery_systolic::core::verify::{Quarantine, VerifyPolicy};
use montgomery_systolic::core::{EngineConfig, EngineKind, HardeningMode, MmmError};
use montgomery_systolic::rsa::{BatchOp, KeyId, KeyedSession, RsaKeyPair, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured (backend, offered-rate) point of the sweep.
struct PointResult {
    offered_ops_s: f64,
    achieved_ops_s: f64,
    p50_us: f64,
    p99_us: f64,
    submitted: usize,
    dropped_overload: usize,
    errored: usize,
}

struct SweepRow {
    backend: &'static str,
    point: PointResult,
}

fn main() -> Result<(), MmmError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let faults = args.iter().any(|a| a == "--faults");
    let verify = args.iter().any(|a| a == "--verify");
    let hardened = args.iter().any(|a| a == "--hardened");
    if faults {
        return fault_smoke();
    }
    if verify {
        return verify_smoke(quick);
    }
    if hardened {
        return hardened_smoke(quick);
    }
    sweep(quick)
}

/// Seeded (plaintext, ciphertext) pairs under `key`.
fn traffic(key: &RsaKeyPair, seed: u64, count: usize) -> Vec<(Ubig, Ubig)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let m = Ubig::random_below(&mut rng, &key.n);
            let c = m.modpow(&key.e, &key.n);
            (m, c)
        })
        .collect()
}

fn percentile(sorted_us: &[f64], p: usize) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    sorted_us[(sorted_us.len() * p / 100).min(sorted_us.len() - 1)]
}

/// Paces `n ≈ rate × duration` arrivals at `rate` ops/s into the
/// server, then waits out every ticket and reduces to a point.
fn run_point(
    server: &Server,
    id: KeyId,
    pool: &[(Ubig, Ubig)],
    rate: f64,
    duration: Duration,
) -> Result<PointResult, MmmError> {
    let n = ((rate * duration.as_secs_f64()) as usize).clamp(16, 2000);
    let start = Instant::now();
    let mut pending = Vec::with_capacity(n);
    let mut dropped_overload = 0usize;
    for i in 0..n {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if let Some(remaining) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(remaining);
        }
        let (m, c) = &pool[i % pool.len()];
        let submitted_at = Instant::now();
        match server.try_submit(id, BatchOp::DecryptCrt, c.clone()) {
            Ok(ticket) => pending.push((ticket, submitted_at, m)),
            // An open-loop generator drops on backpressure and keeps
            // pacing — that is the saturation signal, not a failure.
            Err(MmmError::Overloaded { .. }) => dropped_overload += 1,
            Err(e) => return Err(e),
        }
    }
    let submitted = pending.len();
    let mut latencies_us = Vec::with_capacity(submitted);
    let mut errored = 0usize;
    let mut last_resolve = start;
    for (ticket, submitted_at, want) in pending {
        let (result, resolved_at) = ticket.wait_timed();
        match result {
            Ok(got) => {
                assert_eq!(&got, want, "served response must match the plaintext");
                latencies_us.push(resolved_at.duration_since(submitted_at).as_secs_f64() * 1e6);
                last_resolve = last_resolve.max(resolved_at);
            }
            Err(_) => errored += 1,
        }
    }
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Achieved throughput over submit-to-last-resolve, so the drain
    // tail of a saturated point counts against it.
    let wall = last_resolve.duration_since(start).as_secs_f64().max(1e-9);
    Ok(PointResult {
        offered_ops_s: rate,
        achieved_ops_s: latencies_us.len() as f64 / wall,
        p50_us: percentile(&latencies_us, 50),
        p99_us: percentile(&latencies_us, 99),
        submitted,
        dropped_overload,
        errored,
    })
}

/// CRT-decrypt throughput (ops/s) of one warm session over a full
/// shard: best of `rounds` interleavable timing rounds of `reps`
/// passes each. Callers interleave rounds across sessions so that
/// background-load drift on a shared host hits every policy equally
/// instead of skewing the ratio; best-of keeps the least-disturbed
/// round, a lower bound on the true cost.
fn crt_round_ops_s(session: &KeyedSession, shard: &[Ubig], reps: usize) -> Result<f64, MmmError> {
    let t0 = Instant::now();
    for _ in 0..reps {
        session.decrypt_crt(shard)?;
    }
    Ok((shard.len() * reps) as f64 / t0.elapsed().as_secs_f64())
}

/// The measured cost of each verification tier (CRT decrypt ops/s
/// and % throughput lost vs `Off`).
struct VerifyTax {
    off_ops: f64,
    /// `VerifyPolicy::sampled()`: the verify-before-release
    /// re-encryption check on every lane plus 1-in-64 residue
    /// sampling — the production posture the ≤15% target applies to.
    sampled_ops: f64,
    sampled_tax_pct: f64,
    /// `VerifyPolicy::Full`: additionally shadow-checks **every**
    /// Montgomery multiplication (~4 extra bigint muls each) — the
    /// belt-and-braces mode, deliberately expensive.
    full_ops: f64,
    full_tax_pct: f64,
}

/// Measures the verification tax: CRT throughput under
/// `VerifyPolicy::Off` vs `sampled()` vs `Full` on the same
/// key/backend.
fn verify_tax(
    key: &RsaKeyPair,
    base: &EngineConfig,
    pool: &[(Ubig, Ubig)],
    reps: usize,
) -> Result<VerifyTax, MmmError> {
    let shard: Vec<Ubig> = pool
        .iter()
        .cycle()
        .take(base.shard_lanes())
        .map(|(_, c)| c.clone())
        .collect();
    let session = |policy| {
        KeyedSession::new(
            key.clone(),
            base.clone()
                .with_verify(policy)
                .with_quarantine(Arc::new(Quarantine::new())),
        )
    };
    let sessions = [
        session(VerifyPolicy::Off)?,
        session(VerifyPolicy::sampled())?,
        session(VerifyPolicy::Full)?,
    ];
    let mut best = [0.0f64; 3];
    for s in &sessions {
        s.decrypt_crt(&shard)?; // warm the pool
    }
    const ROUNDS: usize = 4;
    for _ in 0..ROUNDS {
        for (i, s) in sessions.iter().enumerate() {
            best[i] = best[i].max(crt_round_ops_s(s, &shard, reps)?);
        }
    }
    let [off_ops, sampled_ops, full_ops] = best;
    Ok(VerifyTax {
        off_ops,
        sampled_ops,
        sampled_tax_pct: (1.0 - sampled_ops / off_ops) * 100.0,
        full_ops,
        full_tax_pct: (1.0 - full_ops / off_ops) * 100.0,
    })
}

/// The measured cost of the constant-time serving mode: CRT decrypt
/// ops/s, `HardeningMode::Off` vs `Hardened` (constant-time scans,
/// canonicalizing engines, message + exponent blinding) on the same
/// key/backend.
struct HardeningTax {
    off_ops: f64,
    hardened_ops: f64,
    tax_pct: f64,
}

/// Measures the hardening tax with the same interleaved best-of-round
/// discipline as [`verify_tax`], so host drift hits both modes
/// equally.
fn hardening_tax(
    key: &RsaKeyPair,
    base: &EngineConfig,
    pool: &[(Ubig, Ubig)],
    reps: usize,
) -> Result<HardeningTax, MmmError> {
    let shard: Vec<Ubig> = pool
        .iter()
        .cycle()
        .take(base.shard_lanes())
        .map(|(_, c)| c.clone())
        .collect();
    let sessions = [
        KeyedSession::new(key.clone(), base.clone().with_hardening(HardeningMode::Off))?,
        KeyedSession::new(
            key.clone(),
            base.clone().with_hardening(HardeningMode::Hardened),
        )?,
    ];
    for s in &sessions {
        s.decrypt_crt(&shard)?; // warm the pool
    }
    let mut best = [0.0f64; 2];
    const ROUNDS: usize = 4;
    for _ in 0..ROUNDS {
        for (i, s) in sessions.iter().enumerate() {
            best[i] = best[i].max(crt_round_ops_s(s, &shard, reps)?);
        }
    }
    let [off_ops, hardened_ops] = best;
    Ok(HardeningTax {
        off_ops,
        hardened_ops,
        tax_pct: (1.0 - hardened_ops / off_ops) * 100.0,
    })
}

/// The CI hardened-mode smoke (`--hardened`): measures the
/// Off-vs-Hardened serving tax, then drives live traffic through a
/// fully hardened [`Server`] (constant-time scans + blinding on every
/// flush) asserting bit-exact responses — the constant-time schedule
/// must be invisible in the results.
fn hardened_smoke(quick: bool) -> Result<(), MmmError> {
    let bits = if quick { 256 } else { 1024 };
    let mut rng = StdRng::seed_from_u64(0xC7C7);
    println!("hardened smoke: generating a {bits}-bit RSA key...");
    let key = RsaKeyPair::generate(&mut rng, bits, 16);
    let pool = traffic(&key, 0xC7C8, 64);
    let base = EngineConfig::default();
    let reps = if quick { 2 } else { 3 };
    let tax = hardening_tax(&key, &base, &pool, reps)?;
    println!(
        "hardening tax (l={bits}, backend {}): off {:.0} ops/s, hardened {:.0} ops/s ({:.1}%)",
        base.backend().name(),
        tax.off_ops,
        tax.hardened_ops,
        tax.tax_pct
    );

    let config = base
        .with_hardening(HardeningMode::Hardened)
        .with_flush_deadline(Duration::from_millis(1));
    let mut builder = Server::builder(config);
    let id = builder.add_key(key.clone())?;
    let server = builder.build()?;
    let requests = traffic(&key, 0xC7C9, 24);
    let mut admitted = Vec::new();
    for (m, c) in &requests {
        admitted.push((
            server.submit(id, BatchOp::DecryptCrt, c.clone(), Duration::from_secs(30))?,
            m,
        ));
    }
    for (ticket, m) in admitted {
        assert_eq!(&ticket.wait()?, m, "hardened serving must stay bit-exact");
    }
    let stats = server.stats();
    println!(
        "hardened smoke: contract held — {} served bit-exact through the blinded \
         constant-time path",
        stats.completed_ok
    );
    server.shutdown();
    Ok(())
}

fn sweep(quick: bool) -> Result<(), MmmError> {
    let (bits, point_secs, rate_mults): (usize, f64, &[f64]) = if quick {
        (256, 0.25, &[0.5, 1.5])
    } else {
        (1024, 1.2, &[0.25, 0.5, 1.0, 2.0])
    };
    let mut rng = StdRng::seed_from_u64(0x5E4E4);
    println!("generating a {bits}-bit RSA key...");
    let key = RsaKeyPair::generate(&mut rng, bits, 16);
    let pool = traffic(&key, 0xA11CE, 128);
    let base = EngineConfig::default();
    let workers = base.workers();
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "serving sweep: l={bits}, {workers} worker(s) on {host} host core(s), \
         flush deadline {:?}, queue bound {}, shard width {} lanes, cios52 kernel {}",
        base.flush_deadline(),
        base.queue_bound(),
        base.shard_lanes(),
        Cios52Kernel::active().name()
    );
    println!(
        "{:>10} {:>12} {:>12} {:>10} {:>10} {:>8} {:>8} {:>6}",
        "backend", "offered/s", "achieved/s", "p50 us", "p99 us", "sent", "dropped", "err"
    );

    let mut rows: Vec<SweepRow> = Vec::new();
    for kind in EngineKind::ALL {
        let config = base.clone().with_backend(kind);
        // Capacity probe: one warm full-shard flush through the same
        // session machinery the server uses; the sweep brackets it.
        let capacity = {
            let session = montgomery_systolic::rsa::KeyedSession::new(key.clone(), config.clone())?;
            let shard: Vec<Ubig> = pool
                .iter()
                .cycle()
                .take(config.shard_lanes())
                .map(|(_, c)| c.clone())
                .collect();
            session.decrypt_crt(&shard)?; // warm the pool
            let t0 = Instant::now();
            session.decrypt_crt(&shard)?;
            shard.len() as f64 / t0.elapsed().as_secs_f64()
        };
        for &mult in rate_mults {
            let rate = (capacity * mult).max(8.0);
            let mut builder = Server::builder(config.clone());
            let id = builder.add_key(key.clone())?;
            let server = builder.build()?;
            let point = run_point(
                &server,
                id,
                &pool,
                rate,
                Duration::from_secs_f64(point_secs),
            )?;
            server.shutdown();
            println!(
                "{:>10} {:>12.0} {:>12.0} {:>10.0} {:>10.0} {:>8} {:>8} {:>6}",
                kind.name(),
                point.offered_ops_s,
                point.achieved_ops_s,
                point.p50_us,
                point.p99_us,
                point.submitted,
                point.dropped_overload,
                point.errored
            );
            rows.push(SweepRow {
                backend: kind.name(),
                point,
            });
        }
    }

    if quick {
        println!("\nquick mode: smoke run only, BENCH_serving.json not written");
        return Ok(());
    }

    // The verification tax at the headline size, on the default
    // backend — the numbers DESIGN.md §11's cost table quotes.
    let tax = verify_tax(&key, &base, &pool, 3)?;
    // And the constant-time hardening tax — DESIGN.md §12 / README.
    let htax = hardening_tax(&key, &base, &pool, 3)?;
    println!(
        "\nhardening tax (l={bits}, backend {}): off {:.0} ops/s, hardened {:.0} ops/s ({:.1}%)",
        base.backend().name(),
        htax.off_ops,
        htax.hardened_ops,
        htax.tax_pct
    );
    println!(
        "\nverification tax (l={bits}, backend {}): off {:.0} ops/s, \
         verify-before-release {:.0} ops/s ({:.1}%), full {:.0} ops/s ({:.1}%)",
        base.backend().name(),
        tax.off_ops,
        tax.sampled_ops,
        tax.sampled_tax_pct,
        tax.full_ops,
        tax.full_tax_pct
    );

    let saturation = rows
        .iter()
        .map(|r| r.point.achieved_ops_s)
        .fold(0.0f64, f64::max);
    // Hand-rolled JSON (no serde in the sanctioned dependency set).
    let mut json = String::from("{\n  \"bench\": \"serving_load_sweep\",\n");
    json.push_str(&format!(
        "  \"l\": {bits},\n  \"workers\": {workers},\n  \"host_parallelism\": {host},\n  \
         \"flush_deadline_ms\": {:.3},\n  \"queue_bound\": {},\n  \"shard_lanes\": {},\n  \
         \"cios52_kernel\": \"{}\",\n  \"saturation_ops_s\": {:.0},\n  \
         \"note\": \"open-loop paced arrivals, CRT decrypt; every response verified against its \
         plaintext; measured on a {host}-core host, so saturation is the single-core batch-engine \
         ceiling — higher regimes require the worker/core scaling recorded above\",\n  \"rows\": [\n",
        base.flush_deadline().as_secs_f64() * 1e3,
        base.queue_bound(),
        base.shard_lanes(),
        Cios52Kernel::active().name(),
        saturation,
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"offered_ops_s\": {:.0}, \"achieved_ops_s\": {:.0}, \
             \"p50_us\": {:.0}, \"p99_us\": {:.0}, \"submitted\": {}, \"dropped_overload\": {}, \
             \"errored\": {}}}{}\n",
            r.backend,
            r.point.offered_ops_s,
            r.point.achieved_ops_s,
            r.point.p50_us,
            r.point.p99_us,
            r.point.submitted,
            r.point.dropped_overload,
            r.point.errored,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"verify\": {{\"backend\": \"{}\", \"crt_off_ops_s\": {:.0}, \
         \"crt_sampled_ops_s\": {:.0}, \"sampled_tax_pct\": {:.1}, \
         \"crt_full_ops_s\": {:.0}, \"full_tax_pct\": {:.1}}},\n",
        base.backend().name(),
        tax.off_ops,
        tax.sampled_ops,
        tax.sampled_tax_pct,
        tax.full_ops,
        tax.full_tax_pct
    ));
    json.push_str(&format!(
        "  \"hardening\": {{\"backend\": \"{}\", \"crt_off_ops_s\": {:.0}, \
         \"crt_hardened_ops_s\": {:.0}, \"hardened_tax_pct\": {:.1}}}\n}}\n",
        base.backend().name(),
        htax.off_ops,
        htax.hardened_ops,
        htax.tax_pct
    ));
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("\nwrote BENCH_serving.json (saturation {saturation:.0} ops/s on this host)");
    Ok(())
}

/// The CI integrity smoke (`--verify`): measures the Off-vs-Full
/// verify-before-release tax, then proves the serving path corrects
/// an injected CRT-half corruption in flight — every response
/// bit-exact, the detection visible in [`Server::stats`].
fn verify_smoke(quick: bool) -> Result<(), MmmError> {
    let bits = if quick { 256 } else { 1024 };
    let mut rng = StdRng::seed_from_u64(0x1F7E6);
    println!("verify smoke: generating a {bits}-bit RSA key...");
    let key = RsaKeyPair::generate(&mut rng, bits, 16);
    let pool = traffic(&key, 0x1F7E7, 64);
    let base = EngineConfig::default();
    let reps = if quick { 2 } else { 3 };
    let tax = verify_tax(&key, &base, &pool, reps)?;
    println!(
        "verification tax (l={bits}, backend {}): off {:.0} ops/s, \
         verify-before-release {:.0} ops/s ({:.1}%), full {:.0} ops/s ({:.1}%)",
        base.backend().name(),
        tax.off_ops,
        tax.sampled_ops,
        tax.sampled_tax_pct,
        tax.full_ops,
        tax.full_tax_pct
    );

    // Corruption drill through the full serving path: a private fault
    // plan armed for one CRT-half bit flip, a private quarantine so
    // the drill never benches a backend process-wide.
    let faults = Arc::new(CorruptionPlan::default());
    let config = base
        .with_verify(VerifyPolicy::Full)
        .with_faults(Arc::clone(&faults))
        .with_quarantine(Arc::new(Quarantine::new()))
        .with_flush_deadline(Duration::from_millis(1));
    let mut builder = Server::builder(config);
    let id = builder.add_key(key.clone())?;
    let server = builder.build()?;
    faults.inject_crt_half_fault(2, 11, 1);
    let requests = traffic(&key, 0x1F7E8, 16);
    let mut admitted = Vec::new();
    for (m, c) in &requests {
        admitted.push((
            server.submit(id, BatchOp::DecryptCrt, c.clone(), Duration::from_secs(30))?,
            m,
        ));
    }
    for (ticket, m) in admitted {
        let got = ticket.wait()?;
        assert_eq!(&got, m, "a corrupted lane must never reach a client");
    }
    assert_eq!(faults.half_faults_fired(), 1, "the injection fired");
    let stats = server.stats();
    assert!(
        stats.integrity_violations >= 1 && stats.integrity_corrected >= 1,
        "detection and correction must be visible in ServeStats: {stats:?}"
    );
    println!(
        "verify smoke: contract held — {} served exact, {} violation(s) detected, \
         {} corrected in flight, {} backend(s) quarantined",
        stats.completed_ok,
        stats.integrity_violations,
        stats.integrity_corrected,
        stats.backends_quarantined
    );
    server.shutdown();
    Ok(())
}

/// The CI fault-injection smoke: all three injection shapes armed
/// against live traffic, asserting the serving contract — typed
/// errors, bit-exact successes, nothing lost — then clean recovery.
fn fault_smoke() -> Result<(), MmmError> {
    // Injected panics are the point of this mode; keep the default
    // hook's backtraces for *real* panics but silence the injected
    // marker so the CI log stays readable.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected worker panic"));
        if !injected {
            default_hook(info);
        }
    }));

    let mut rng = StdRng::seed_from_u64(0xFA17);
    println!("fault smoke: generating a 256-bit RSA key...");
    let key = RsaKeyPair::generate(&mut rng, 256, 16);
    let config = EngineConfig::default().with_flush_deadline(Duration::from_millis(1));
    let mut builder = Server::builder(config);
    let id = builder.add_key(key.clone())?;
    let server = builder.build()?;

    server.faults().inject_flush_panics(2);
    server
        .faults()
        .inject_flush_stalls(Duration::from_millis(5), 2);
    server.faults().inject_queue_full(4);

    let requests = traffic(&key, 0xFA2, 32);
    let (mut ok, mut panicked, mut refused) = (0usize, 0usize, 0usize);
    // Waves with a barrier between them force separate flushes, so
    // both armed panics actually fire against distinct shards.
    for (w, wave) in requests.chunks(8).enumerate() {
        let mut admitted = Vec::new();
        for (i, (m, c)) in wave.iter().enumerate() {
            let submitted = if (w + i) % 2 == 0 {
                server.try_submit(id, BatchOp::DecryptCrt, c.clone())
            } else {
                server.submit(id, BatchOp::DecryptCrt, c.clone(), Duration::from_secs(30))
            };
            match submitted {
                Ok(ticket) => admitted.push((ticket, m)),
                Err(MmmError::Overloaded { .. }) => refused += 1,
                Err(e) => return Err(e),
            }
        }
        for (ticket, m) in admitted {
            match ticket.wait() {
                Ok(got) => {
                    assert_eq!(&got, m, "a fault must never corrupt a response");
                    ok += 1;
                }
                Err(MmmError::WorkerPanicked) => panicked += 1,
                Err(e) => return Err(e),
            }
        }
    }
    assert_eq!(ok + panicked + refused, requests.len(), "nothing lost");
    assert_eq!(server.faults().panics_fired(), 2, "both panics fired");
    assert_eq!(server.faults().fulls_fired(), 4, "full storm fired");

    // Bad input still bounces as a typed refusal, mid-recovery.
    match server.try_submit(id, BatchOp::DecryptCrt, key.n.clone()) {
        Err(MmmError::OperandOutOfRange { .. }) => {}
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    // And the server has fully recovered: fresh traffic is exact.
    for (m, c) in traffic(&key, 0xFA3, 4) {
        let ticket = server.try_submit(id, BatchOp::DecryptCrt, c)?;
        assert_eq!(ticket.wait(), Ok(m), "post-fault traffic is exact");
    }
    let stats = server.stats();
    println!(
        "fault smoke: contract held — {ok} ok, {panicked} worker-panicked (typed), \
         {refused} refused (typed), 0 lost, 0 wrong; {} worker restart(s), \
         {} caught flush panic(s)",
        stats.worker_restarts, stats.flush_panics
    );
    server.shutdown();
    Ok(())
}
