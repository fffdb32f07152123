//! The serving-layer fault-injection suite: every production failure
//! shape — worker panics, flush stalls, queue-full storms, shutdown
//! under load — driven through `serve::faults` on **every** backend,
//! asserting the contract the front-end exists for: failures surface
//! as **typed per-request errors**, never as wrong answers,
//! deadlocks, or lost responses.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::config::EngineConfig;
use montgomery_systolic::core::error::MmmError;
use montgomery_systolic::core::EngineKind;
use montgomery_systolic::rsa::{BatchOp, KeyId, RsaKeyPair, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn keypair(bits: usize, seed: u64) -> RsaKeyPair {
    let mut rng = StdRng::seed_from_u64(seed);
    RsaKeyPair::generate(&mut rng, bits, 12)
}

fn server_on(kind: EngineKind, key: &RsaKeyPair) -> (Server, KeyId) {
    let config = EngineConfig::default()
        .with_backend(kind)
        .with_workers(2)
        .unwrap()
        .with_flush_deadline(Duration::from_millis(1));
    let mut builder = Server::builder(config);
    let id = builder.add_key(key.clone()).unwrap();
    (builder.build().unwrap(), id)
}

/// Encrypts `count` seeded plaintexts under `key`.
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

#[test]
fn injected_worker_panic_answers_every_request_and_recovers() {
    let key = keypair(64, 800);
    for kind in EngineKind::ALL {
        let (server, id) = server_on(kind, &key);
        // One armed panic: the next flush panics *outside* the
        // per-flush net, unwinding (and restarting) a whole worker.
        server.faults().inject_flush_panics(1);
        let wave1 = traffic(&key, 801, 8);
        let tickets: Vec<_> = wave1
            .iter()
            .map(|(_, c)| {
                server
                    .try_submit(id, BatchOp::DecryptCrt, c.clone())
                    .unwrap()
            })
            .collect();
        let mut panicked = 0usize;
        for (ticket, (m, _)) in tickets.into_iter().zip(&wave1) {
            // Never a wrong answer, never a lost response: each ticket
            // resolves with either the exact plaintext or the typed
            // panic error.
            match ticket.wait() {
                Ok(got) => assert_eq!(got, *m, "{}", kind.name()),
                Err(MmmError::WorkerPanicked) => panicked += 1,
                Err(other) => panic!("unexpected error {other:?} ({})", kind.name()),
            }
        }
        assert!(panicked >= 1, "the armed panic hit a shard in flight");
        assert_eq!(server.faults().panics_fired(), 1);
        // The panicked shard's tickets resolve while the panic unwinds;
        // the supervisor counts the restart only once the unwind
        // reaches it, so the count may trail the last ticket briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().worker_restarts == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = server.stats();
        assert!(
            stats.worker_restarts >= 1,
            "panic escaped the serve loop and the supervisor restarted it ({})",
            kind.name()
        );
        // The pool survived the unwind: fresh traffic is answered
        // correctly by the recovered worker set.
        for (m, c) in traffic(&key, 802, 4) {
            let ticket = server.try_submit(id, BatchOp::DecryptCrt, c).unwrap();
            assert_eq!(ticket.wait(), Ok(m), "{}", kind.name());
        }
        server.shutdown();
    }
}

#[test]
fn flush_stalls_delay_but_never_corrupt() {
    let key = keypair(64, 810);
    for kind in EngineKind::ALL {
        let (server, id) = server_on(kind, &key);
        server
            .faults()
            .inject_flush_stalls(Duration::from_millis(40), 1);
        let (m, c) = traffic(&key, 811, 1).pop().unwrap();
        let t0 = Instant::now();
        let ticket = server.try_submit(id, BatchOp::DecryptCrt, c).unwrap();
        assert_eq!(ticket.wait(), Ok(m), "{}", kind.name());
        assert!(
            t0.elapsed() >= Duration::from_millis(40),
            "the stall was actually applied ({})",
            kind.name()
        );
        assert_eq!(server.faults().stalls_fired(), 1);
        // And the stall was one-shot: the next request is fast again
        // and equally correct.
        let (m, c) = traffic(&key, 812, 1).pop().unwrap();
        let ticket = server.try_submit(id, BatchOp::DecryptCrt, c).unwrap();
        assert_eq!(ticket.wait(), Ok(m), "{}", kind.name());
        server.shutdown();
    }
}

#[test]
fn queue_full_storm_surfaces_overloaded_then_clears() {
    let key = keypair(64, 820);
    for kind in EngineKind::ALL {
        let (server, id) = server_on(kind, &key);
        let storm = 5usize;
        server.faults().inject_queue_full(storm);
        let requests = traffic(&key, 821, storm + 1);
        for (_, c) in &requests[..storm] {
            assert_eq!(
                server
                    .try_submit(id, BatchOp::DecryptCrt, c.clone())
                    .unwrap_err(),
                MmmError::Overloaded { capacity: 1024 },
                "{}",
                kind.name()
            );
        }
        assert_eq!(server.faults().fulls_fired(), storm);
        // The storm passes; the very next submission is served.
        let (m, c) = requests.into_iter().last().unwrap();
        let ticket = server.try_submit(id, BatchOp::DecryptCrt, c).unwrap();
        assert_eq!(ticket.wait(), Ok(m), "{}", kind.name());
        let stats = server.stats();
        assert_eq!(stats.overloaded, storm as u64);
        assert_eq!(stats.submitted, 1);
        server.shutdown();
    }
}

#[test]
fn real_queue_saturation_backpressures_both_submit_paths() {
    // No injection here: a genuinely wedged worker (armed stall) and a
    // two-slot queue produce the real thing — `try_submit` refuses
    // with `Overloaded`, the blocking path gives up with
    // `DeadlineExceeded` after its budget — and every admitted request
    // is still answered correctly once the stall clears.
    let key = keypair(64, 830);
    let config = EngineConfig::default()
        .with_workers(1)
        .unwrap()
        .with_flush_deadline(Duration::from_micros(100))
        .with_queue_bound(2)
        .unwrap();
    let mut builder = Server::builder(config);
    let id = builder.add_key(key.clone()).unwrap();
    let server = builder.build().unwrap();
    server
        .faults()
        .inject_flush_stalls(Duration::from_millis(300), 1);
    let requests = traffic(&key, 831, 4);
    // First request reaches the worker and its flush stalls 300 ms.
    let t_first = server
        .try_submit(id, BatchOp::DecryptCrt, requests[0].1.clone())
        .unwrap();
    let stall_seen = Instant::now();
    while server.faults().stalls_fired() == 0 {
        assert!(
            stall_seen.elapsed() < Duration::from_secs(10),
            "worker never reached the stalled flush"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // The lone worker is asleep inside the flush: fill both queue
    // slots, then watch both submit paths push back.
    let t_q1 = server
        .try_submit(id, BatchOp::DecryptCrt, requests[1].1.clone())
        .unwrap();
    let t_q2 = server
        .try_submit(id, BatchOp::DecryptCrt, requests[2].1.clone())
        .unwrap();
    assert_eq!(
        server
            .try_submit(id, BatchOp::DecryptCrt, requests[3].1.clone())
            .unwrap_err(),
        MmmError::Overloaded { capacity: 2 }
    );
    assert_eq!(
        server
            .submit(
                id,
                BatchOp::DecryptCrt,
                requests[3].1.clone(),
                Duration::from_millis(20),
            )
            .unwrap_err(),
        MmmError::DeadlineExceeded
    );
    // Backpressure refused the overflow; it never lost the backlog.
    for (ticket, (m, _)) in [t_first, t_q1, t_q2].into_iter().zip(&requests) {
        assert_eq!(ticket.wait(), Ok(m.clone()));
    }
    let stats = server.stats();
    assert_eq!(stats.overloaded, 1);
    assert_eq!(stats.submit_timeouts, 1);
    assert_eq!(stats.submitted, 3);
    server.shutdown();
}

#[test]
fn shutdown_drains_pending_shards_and_answers_in_flight() {
    let key = keypair(64, 840);
    for kind in EngineKind::ALL {
        // A deadline far beyond the test's lifetime: only the shutdown
        // drain can explain these tickets resolving.
        let config = EngineConfig::default()
            .with_backend(kind)
            .with_workers(2)
            .unwrap()
            .with_flush_deadline(Duration::from_secs(600));
        let mut builder = Server::builder(config);
        let id = builder.add_key(key.clone()).unwrap();
        let server = builder.build().unwrap();
        let requests = traffic(&key, 841, 6);
        let tickets: Vec<_> = requests
            .iter()
            .map(|(_, c)| {
                server
                    .try_submit(id, BatchOp::DecryptCrt, c.clone())
                    .unwrap()
            })
            .collect();
        server.shutdown();
        for (ticket, (m, _)) in tickets.into_iter().zip(&requests) {
            assert_eq!(
                ticket.wait(),
                Ok(m.clone()),
                "drained at shutdown ({})",
                kind.name()
            );
        }
    }
}

#[test]
fn combined_storm_never_loses_or_corrupts_a_response() {
    // All three injections armed at once, both submit paths in use:
    // the accounting identity `attempts = refused + admitted` and
    // `admitted = responses` must survive, and every successful
    // response must carry the exact plaintext.
    let key = keypair(64, 850);
    for kind in EngineKind::ALL {
        let (server, id) = server_on(kind, &key);
        server.faults().inject_flush_panics(2);
        server
            .faults()
            .inject_flush_stalls(Duration::from_millis(5), 2);
        server.faults().inject_queue_full(3);
        let requests = traffic(&key, 851, 24);
        let mut refused = 0usize;
        let mut ok = 0usize;
        let mut panicked = 0usize;
        // Submit in waves, waiting out each wave before the next, so
        // the armed panics cannot all collapse into one mega-flush:
        // each wave forces at least one flush of its own.
        for (w, wave) in requests.chunks(6).enumerate() {
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
                    Err(other) => panic!("unexpected refusal {other:?} ({})", kind.name()),
                }
            }
            for (ticket, m) in admitted {
                match ticket.wait() {
                    Ok(got) => {
                        assert_eq!(got, *m, "never a wrong answer ({})", kind.name());
                        ok += 1;
                    }
                    Err(MmmError::WorkerPanicked) => panicked += 1,
                    Err(other) => panic!("unexpected error {other:?} ({})", kind.name()),
                }
            }
        }
        assert_eq!(refused, 3, "exactly the armed storm ({})", kind.name());
        assert_eq!(ok + panicked, 24 - refused, "no lost responses");
        assert_eq!(server.faults().panics_fired(), 2);
        assert!(ok >= 1, "the server made progress through the storm");
        server.shutdown();
    }
}
