//! The serving-layer fault-injection suite: every production failure
//! shape — worker panics, flush stalls, queue-full storms, shutdown
//! under load — driven through the config's fault plan
//! (`verify::faults`) on **every** backend, once per tenant (RSA CRT
//! decryption and ECDSA verify), asserting the contract the front-end
//! exists for: failures surface as **typed per-request errors**, never
//! as wrong answers, deadlocks, or lost responses.

mod common;

use common::{flushes, serve, submit_held, Tenant};
use montgomery_systolic::core::config::EngineConfig;
use montgomery_systolic::core::error::MmmError;
use montgomery_systolic::core::serve::{KeyId, Server};
use montgomery_systolic::core::EngineKind;
use montgomery_systolic::ecc::EcdsaVerify;
use montgomery_systolic::rsa::BatchOp;
use std::time::{Duration, Instant};

fn server_on<T: Tenant>(kind: EngineKind, seed: u64) -> (Server<T>, KeyId) {
    let config = EngineConfig::default()
        .with_backend(kind)
        .with_workers(2)
        .unwrap()
        .with_flush_deadline(Duration::from_millis(1));
    serve(config, seed)
}

/// `count` seeded requests for the server's registered key, each with
/// its expected answer.
fn traffic<T: Tenant>(
    server: &Server<T>,
    id: KeyId,
    seed: u64,
    count: usize,
) -> Vec<(T::Request, T::Response)> {
    T::traffic(server.session(id).unwrap(), seed, count)
}

#[test]
fn injected_worker_panic_answers_every_request_and_recovers() {
    fn scenario<T: Tenant>() {
        for kind in EngineKind::ALL {
            let (server, id) = server_on::<T>(kind, 800);
            let wave1 = traffic(&server, id, 801, 8);
            // One armed panic: the next flush panics *outside* the
            // per-flush net, unwinding (and restarting) a whole worker.
            server.faults().inject_flush_panics(1);
            let tickets: Vec<_> = wave1
                .iter()
                .map(|(req, _)| server.try_submit(id, T::OP, req.clone()).unwrap())
                .collect();
            let mut panicked = 0usize;
            for (ticket, (_, want)) in tickets.into_iter().zip(&wave1) {
                // Never a wrong answer, never a lost response: each
                // ticket resolves with either the exact answer or the
                // typed panic error.
                match ticket.wait() {
                    Ok(got) => assert_eq!(got, *want, "{} {}", T::NAME, kind.name()),
                    Err(MmmError::WorkerPanicked) => panicked += 1,
                    Err(other) => {
                        panic!("unexpected error {other:?} ({} {})", T::NAME, kind.name())
                    }
                }
            }
            assert!(panicked >= 1, "the armed panic hit a shard in flight");
            assert_eq!(server.faults().panics_fired(), 1);
            // The panicked shard's tickets resolve while the panic
            // unwinds; the supervisor counts the restart only once the
            // unwind reaches it, so the count may trail the last
            // ticket briefly.
            let deadline = Instant::now() + Duration::from_secs(5);
            while server.stats().worker_restarts == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(
                server.stats().worker_restarts >= 1,
                "panic escaped the serve loop and the supervisor restarted it ({} {})",
                T::NAME,
                kind.name()
            );
            // The pool survived the unwind: fresh traffic is answered
            // correctly by the recovered worker set.
            for (req, want) in traffic(&server, id, 802, 4) {
                let ticket = server.try_submit(id, T::OP, req).unwrap();
                assert_eq!(ticket.wait(), Ok(want), "{} {}", T::NAME, kind.name());
            }
            server.shutdown();
        }
    }
    scenario::<BatchOp>();
    scenario::<EcdsaVerify>();
}

#[test]
fn flush_stalls_delay_but_never_corrupt() {
    fn scenario<T: Tenant>() {
        for kind in EngineKind::ALL {
            let (server, id) = server_on::<T>(kind, 810);
            let (req, want) = traffic(&server, id, 811, 1).pop().unwrap();
            server
                .faults()
                .inject_flush_stalls(Duration::from_millis(40), 1);
            let t0 = Instant::now();
            let ticket = server.try_submit(id, T::OP, req).unwrap();
            assert_eq!(ticket.wait(), Ok(want), "{} {}", T::NAME, kind.name());
            assert!(
                t0.elapsed() >= Duration::from_millis(40),
                "the stall was actually applied ({} {})",
                T::NAME,
                kind.name()
            );
            assert_eq!(server.faults().stalls_fired(), 1);
            // And the stall was one-shot: the next request is fast
            // again and equally correct.
            let (req, want) = traffic(&server, id, 812, 1).pop().unwrap();
            let ticket = server.try_submit(id, T::OP, req).unwrap();
            assert_eq!(ticket.wait(), Ok(want), "{} {}", T::NAME, kind.name());
            server.shutdown();
        }
    }
    scenario::<BatchOp>();
    scenario::<EcdsaVerify>();
}

#[test]
fn queue_full_storm_surfaces_overloaded_then_clears() {
    fn scenario<T: Tenant>() {
        for kind in EngineKind::ALL {
            let (server, id) = server_on::<T>(kind, 820);
            let storm = 5usize;
            let requests = traffic(&server, id, 821, storm + 1);
            server.faults().inject_queue_full(storm);
            for (req, _) in &requests[..storm] {
                assert_eq!(
                    server.try_submit(id, T::OP, req.clone()).unwrap_err(),
                    MmmError::Overloaded { capacity: 1024 },
                    "{} {}",
                    T::NAME,
                    kind.name()
                );
            }
            assert_eq!(server.faults().fulls_fired(), storm as u64);
            // The storm passes; the very next submission is served.
            let (req, want) = requests.into_iter().last().unwrap();
            let ticket = server.try_submit(id, T::OP, req).unwrap();
            assert_eq!(ticket.wait(), Ok(want), "{} {}", T::NAME, kind.name());
            let stats = server.stats();
            assert_eq!(stats.overloaded, storm as u64);
            assert_eq!(stats.submitted, 1);
            server.shutdown();
        }
    }
    scenario::<BatchOp>();
    scenario::<EcdsaVerify>();
}

#[test]
fn real_queue_saturation_backpressures_both_submit_paths() {
    // No injected refusal here: a genuinely wedged worker (armed
    // stall) and a two-slot queue produce the real thing —
    // `try_submit` refuses with `Overloaded`, the blocking path gives
    // up with `DeadlineExceeded` after its budget — and every admitted
    // request is still answered correctly once the stall clears.
    fn scenario<T: Tenant>() {
        for kind in EngineKind::ALL {
            let config = EngineConfig::default()
                .with_backend(kind)
                .with_workers(1)
                .unwrap()
                .with_flush_deadline(Duration::from_micros(100))
                .with_queue_bound(2)
                .unwrap();
            let (server, id) = serve::<T>(config, 830);
            let requests = traffic(&server, id, 831, 4);
            server
                .faults()
                .inject_flush_stalls(Duration::from_millis(300), 1);
            // First request reaches the worker and its flush stalls
            // 300 ms.
            let t_first = server.try_submit(id, T::OP, requests[0].0.clone()).unwrap();
            let stall_seen = Instant::now();
            while server.faults().stalls_fired() == 0 {
                assert!(
                    stall_seen.elapsed() < Duration::from_secs(10),
                    "worker never reached the stalled flush"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            // The lone worker is asleep inside the flush: fill both
            // queue slots, then watch both submit paths push back.
            let t_q1 = server.try_submit(id, T::OP, requests[1].0.clone()).unwrap();
            let t_q2 = server.try_submit(id, T::OP, requests[2].0.clone()).unwrap();
            assert_eq!(
                server
                    .try_submit(id, T::OP, requests[3].0.clone())
                    .unwrap_err(),
                MmmError::Overloaded { capacity: 2 }
            );
            assert_eq!(
                server
                    .submit(id, T::OP, requests[3].0.clone(), Duration::from_millis(20),)
                    .unwrap_err(),
                MmmError::DeadlineExceeded
            );
            // Backpressure refused the overflow; it never lost the
            // backlog.
            for (ticket, (_, want)) in [t_first, t_q1, t_q2].into_iter().zip(&requests) {
                assert_eq!(
                    ticket.wait(),
                    Ok(want.clone()),
                    "{} {}",
                    T::NAME,
                    kind.name()
                );
            }
            let stats = server.stats();
            assert_eq!(stats.overloaded, 1);
            assert_eq!(stats.submit_timeouts, 1);
            assert_eq!(stats.submitted, 3);
            server.shutdown();
        }
    }
    scenario::<BatchOp>();
    scenario::<EcdsaVerify>();
}

#[test]
fn shutdown_drains_pending_shards_and_answers_in_flight() {
    fn scenario<T: Tenant>() {
        for kind in EngineKind::ALL {
            // A deadline far beyond the test's lifetime, and a pending
            // shard above the backend's per-lane bound, so neither the
            // deadline nor the idle rule can flush it: only the
            // shutdown drain can explain these tickets resolving. Where
            // the bound is 0, any two workers file six requests; where
            // it is not, bound + 1 requests are queued behind one held
            // worker, so it files them all before it finds the queue
            // empty.
            let bound = kind.per_lane_bound();
            let held = bound > 0;
            let config = EngineConfig::default()
                .with_backend(kind)
                .with_workers(if held { 1 } else { 2 })
                .unwrap()
                .with_flush_deadline(Duration::from_secs(600));
            let (server, id) = serve::<T>(config, 840);
            let (tickets, requests) = if held {
                let mut requests = traffic(&server, id, 841, bound + 2);
                let blocker = requests.pop().unwrap();
                (submit_held(&server, id, blocker, &requests), requests)
            } else {
                let requests = traffic(&server, id, 841, 6);
                let tickets = requests
                    .iter()
                    .map(|(req, _)| server.try_submit(id, T::OP, req.clone()).unwrap())
                    .collect();
                (tickets, requests)
            };
            // Wait until every request is filed: two workers could
            // otherwise race the close, one draining the shard while
            // the other files the last request into a second one.
            let t0 = Instant::now();
            while server.pending_depth() < requests.len() {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "requests never filed ({} {})",
                    T::NAME,
                    kind.name()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let stats = server.shutdown();
            for (ticket, (_, want)) in tickets.into_iter().zip(&requests) {
                assert_eq!(
                    ticket.wait(),
                    Ok(want.clone()),
                    "drained at shutdown ({} {})",
                    T::NAME,
                    kind.name()
                );
            }
            // A held schedule's blocker is its one idle flush.
            assert_eq!(
                flushes(&stats),
                (0, u64::from(held), 0, 1),
                "one drain flush ({} {})",
                T::NAME,
                kind.name()
            );
        }
    }
    scenario::<BatchOp>();
    scenario::<EcdsaVerify>();
}

#[test]
fn combined_storm_never_loses_or_corrupts_a_response() {
    // All three injections armed at once, both submit paths in use:
    // the accounting identity `attempts = refused + admitted` and
    // `admitted = responses` must survive, and every successful
    // response must carry the exact answer.
    fn scenario<T: Tenant>() {
        for kind in EngineKind::ALL {
            let (server, id) = server_on::<T>(kind, 850);
            let requests = traffic(&server, id, 851, 24);
            server.faults().inject_flush_panics(2);
            server
                .faults()
                .inject_flush_stalls(Duration::from_millis(5), 2);
            server.faults().inject_queue_full(3);
            let mut refused = 0usize;
            let mut ok = 0usize;
            let mut panicked = 0usize;
            // Submit in waves, waiting out each wave before the next,
            // so the armed panics cannot all collapse into one
            // mega-flush: each wave forces at least one flush of its
            // own.
            for (w, wave) in requests.chunks(6).enumerate() {
                let mut admitted = Vec::new();
                for (i, (req, want)) in wave.iter().enumerate() {
                    let submitted = if (w + i) % 2 == 0 {
                        server.try_submit(id, T::OP, req.clone())
                    } else {
                        server.submit(id, T::OP, req.clone(), Duration::from_secs(30))
                    };
                    match submitted {
                        Ok(ticket) => admitted.push((ticket, want)),
                        Err(MmmError::Overloaded { .. }) => refused += 1,
                        Err(other) => {
                            panic!("unexpected refusal {other:?} ({} {})", T::NAME, kind.name())
                        }
                    }
                }
                for (ticket, want) in admitted {
                    match ticket.wait() {
                        Ok(got) => {
                            assert_eq!(
                                got,
                                *want,
                                "never a wrong answer ({} {})",
                                T::NAME,
                                kind.name()
                            );
                            ok += 1;
                        }
                        Err(MmmError::WorkerPanicked) => panicked += 1,
                        Err(other) => {
                            panic!("unexpected error {other:?} ({} {})", T::NAME, kind.name())
                        }
                    }
                }
            }
            assert_eq!(refused, 3, "exactly the armed storm ({})", T::NAME);
            assert_eq!(ok + panicked, 24 - refused, "no lost responses");
            assert_eq!(server.faults().panics_fired(), 2);
            assert!(ok >= 1, "the server made progress through the storm");
            server.shutdown();
        }
    }
    scenario::<BatchOp>();
    scenario::<EcdsaVerify>();
}
