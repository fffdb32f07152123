//! Multi-threaded stress for the serving front-end: concurrent
//! producers hammering one `Server` over rotating keys and both
//! submit paths, on **every** backend, once per tenant (RSA CRT
//! decryption, ECDSA verify and ECDH).
//!
//! The properties under test are the serving layer's contract:
//!
//! * **bit-identity** — every response equals the tenant's oracle
//!   (the plaintext for RSA, a direct `verify_ecdsa` / `ecdh` call for
//!   ECC), regardless of which worker flushed it, how requests
//!   interleaved across shards, or which submit path admitted them;
//! * **exactly one response** — every admitted request resolves its
//!   ticket exactly once (waiting consumes the ticket, so at most
//!   once is structural; the test proves at least once by joining
//!   every producer);
//! * **order independence** — shards are keyed by `(key, op)`, so
//!   interleaved traffic for different keys must never cross-talk.
//!
//! The flush-cause tests pin each of the four causes (fill, idle,
//! deadline, drain — the last in `serve_faults`) on every backend and
//! tenant, each with a schedule where it is the only cause that can
//! fire.

mod common;

use common::{flushes, serve, submit_held, Tenant};
use montgomery_systolic::core::config::EngineConfig;
use montgomery_systolic::core::serve::{KeyId, Server, Session, Ticket};
use montgomery_systolic::core::verify::QUARANTINE_THRESHOLD;
use montgomery_systolic::core::{EngineKind, Quarantine};
use montgomery_systolic::ecc::{Ecdh, EcdsaVerify};
use montgomery_systolic::rsa::BatchOp;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PRODUCERS: usize = 4;
const PER_PRODUCER: usize = 24;

/// A one-worker server for tenant `T` on backend `kind` with shard
/// width `lanes` and flush `deadline`.
fn one_worker<T: Tenant>(
    kind: EngineKind,
    lanes: usize,
    deadline: Duration,
    seed: u64,
) -> (Server<T>, KeyId) {
    let config = EngineConfig::default()
        .with_backend(kind)
        .with_workers(1)
        .unwrap()
        .with_shard_lanes(lanes)
        .unwrap()
        .with_flush_deadline(deadline);
    serve(config, seed)
}

/// Checks every ticket against its expected answer.
fn check_answers<T: Tenant>(
    tickets: Vec<Ticket<T::Response>>,
    requests: &[(T::Request, T::Response)],
    kind: EngineKind,
) {
    assert_eq!(tickets.len(), requests.len());
    for (ticket, (_, want)) in tickets.into_iter().zip(requests) {
        assert_eq!(
            ticket.wait(),
            Ok(want.clone()),
            "{} {}",
            T::NAME,
            kind.name()
        );
    }
}

#[test]
fn concurrent_producers_rotating_keys_both_paths_all_backends() {
    fn scenario<T: Tenant>() {
        for kind in EngineKind::ALL {
            let config = EngineConfig::default()
                .with_backend(kind)
                .with_workers(2)
                .unwrap()
                .with_flush_deadline(Duration::from_millis(1))
                .with_queue_bound(64)
                .unwrap();
            let mut builder = Server::<T>::builder(config);
            let key_ids: Vec<KeyId> = [700, 701]
                .into_iter()
                .map(|seed| builder.add_key(T::key(seed)).unwrap())
                .collect();
            let server = builder.build().unwrap();
            // Each producer's requests, rotating keys so shards for
            // both keys are live at once.
            let plans: Vec<Vec<_>> = (0..PRODUCERS)
                .map(|p| {
                    let mut per_key: Vec<_> = key_ids
                        .iter()
                        .enumerate()
                        .map(|(k, &id)| {
                            let seed = 7000 + (p * key_ids.len() + k) as u64;
                            T::traffic(server.session(id).unwrap(), seed, PER_PRODUCER).into_iter()
                        })
                        .collect();
                    (0..PER_PRODUCER)
                        .map(|i| {
                            let which = (p + i) % key_ids.len();
                            let (req, want) = per_key[which].next().unwrap();
                            (key_ids[which], req, want)
                        })
                        .collect()
                })
                .collect();

            std::thread::scope(|scope| {
                for (p, plan) in plans.into_iter().enumerate() {
                    let server = &server;
                    scope.spawn(move || {
                        for (i, (id, req, want)) in plan.into_iter().enumerate() {
                            // Alternate the two submit paths.
                            let ticket = if i % 2 == 0 {
                                server
                                    .try_submit(id, T::OP, req)
                                    .expect("queue bound 64 cannot fill with 4 producers")
                            } else {
                                server
                                    .submit(id, T::OP, req, Duration::from_secs(30))
                                    .expect("blocking submit within budget")
                            };
                            // Exactly-one-response: `wait` consumes the
                            // ticket and must deliver the oracle's
                            // answer.
                            assert_eq!(
                                ticket.wait(),
                                Ok(want),
                                "{}: producer {p}, request {i}, backend {}",
                                T::NAME,
                                kind.name()
                            );
                        }
                    });
                }
            });

            let stats = server.stats();
            let total = (PRODUCERS * PER_PRODUCER) as u64;
            let at = format!("{} {}", T::NAME, kind.name());
            assert_eq!(stats.submitted, total, "{at}");
            assert_eq!(stats.completed_ok, total, "{at}");
            assert_eq!(stats.completed_err, 0, "{at}");
            assert_eq!(stats.rejected_invalid, 0, "{at}");
            assert_eq!(stats.worker_restarts, 0, "{at}");
            let (fill, idle, deadline, drain) = flushes(&stats);
            assert!(
                fill + idle + deadline + drain > 0,
                "something must have flushed ({at})"
            );
            server.shutdown();
        }
    }
    scenario::<BatchOp>();
    scenario::<EcdsaVerify>();
    scenario::<Ecdh>();
}

#[test]
fn singleton_is_flushed_by_deadline_not_starved() {
    // One lonely request must not wait for 63 shard peers. Where the
    // backend has a per-lane bound, the idle worker answers it at once:
    // under a 600 s deadline only the idle rule can explain a prompt
    // answer. Where the bound is 0, the deadline flush answers it in
    // deadline + MAX_PARK + epsilon. Either way it is far below the
    // multi-second starvation a fill-only policy would show.
    fn scenario<T: Tenant>() {
        for kind in EngineKind::ALL {
            let idle = kind.per_lane_bound() > 0;
            let deadline = if idle {
                Duration::from_secs(600)
            } else {
                Duration::from_millis(5)
            };
            let (server, id) = one_worker::<T>(kind, 64, deadline, 710);
            let (req, want) = T::traffic(server.session(id).unwrap(), 4242, 1)
                .pop()
                .unwrap();
            let t0 = Instant::now();
            let ticket = server.try_submit(id, T::OP, req).unwrap();
            assert_eq!(ticket.wait(), Ok(want), "{} {}", T::NAME, kind.name());
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "singleton took {:?} ({} {})",
                t0.elapsed(),
                T::NAME,
                kind.name()
            );
            let want = if idle { (0, 1, 0, 0) } else { (0, 0, 1, 0) };
            assert_eq!(
                flushes(&server.stats()),
                want,
                "one {} flush ({} {})",
                if idle { "idle" } else { "deadline" },
                T::NAME,
                kind.name()
            );
            server.shutdown();
        }
    }
    scenario::<BatchOp>();
    scenario::<EcdsaVerify>();
    scenario::<Ecdh>();
}

#[test]
fn full_shard_flushes_on_fill_without_waiting_for_deadline() {
    // With a deliberately huge deadline, only the fill trigger can
    // explain a prompt answer for a full shard of requests. Where the
    // backend has a per-lane bound, the shard is queued behind a held
    // worker: otherwise the worker could catch up with this thread,
    // find the queue empty and idle-flush part of the shard.
    fn scenario<T: Tenant>() {
        let lanes = 4;
        for kind in EngineKind::ALL {
            let held = kind.per_lane_bound() > 0;
            let (server, id) = one_worker::<T>(kind, lanes, Duration::from_secs(600), 711);
            let mut requests = T::traffic(server.session(id).unwrap(), 712, lanes + 1);
            let blocker = requests.pop().unwrap();
            let tickets = if held {
                submit_held(&server, id, blocker, &requests)
            } else {
                requests
                    .iter()
                    .map(|(req, _)| server.try_submit(id, T::OP, req.clone()).unwrap())
                    .collect()
            };
            check_answers::<T>(tickets, &requests, kind);
            // The blocker of a held schedule is one idle flush.
            assert_eq!(
                flushes(&server.stats()),
                (1, u64::from(held), 0, 0),
                "one full-shard flush, deadline never fired ({} {})",
                T::NAME,
                kind.name()
            );
            server.shutdown();
        }
    }
    scenario::<BatchOp>();
    scenario::<EcdsaVerify>();
    scenario::<Ecdh>();
}

#[test]
fn idle_worker_flushes_a_queued_shard_at_or_below_the_bound() {
    // k queued requests, k at most the per-lane bound, under a 600 s
    // deadline and a 64-lane width: the worker files all k, finds the
    // queue empty and answers them with one k-lane idle flush.
    fn scenario<T: Tenant>() {
        for kind in EngineKind::ALL {
            let bound = kind.per_lane_bound();
            if bound == 0 {
                continue;
            }
            for k in [2, bound] {
                let (server, id) = one_worker::<T>(kind, 64, Duration::from_secs(600), 713);
                let mut requests = T::traffic(server.session(id).unwrap(), 714, k + 1);
                let blocker = requests.pop().unwrap();
                let tickets = submit_held(&server, id, blocker, &requests);
                check_answers::<T>(tickets, &requests, kind);
                let stats = server.stats();
                assert_eq!(
                    flushes(&stats),
                    (0, 2, 0, 0),
                    "the blocker's and one {k}-lane idle flush ({} {})",
                    T::NAME,
                    kind.name()
                );
                assert_eq!(stats.completed_ok, k as u64 + 1);
                server.shutdown();
            }
        }
    }
    scenario::<BatchOp>();
    scenario::<EcdsaVerify>();
    scenario::<Ecdh>();
}

#[test]
fn deadline_flushes_a_shard_above_the_per_lane_bound() {
    // bound + 1 queued requests: too many for the idle rule, too few to
    // fill 64 lanes, so the deadline flushes them as one shard. The
    // deadline leaves the worker ample time to file all of them first.
    // (Where the bound is 0, this is the singleton test above.)
    fn scenario<T: Tenant>() {
        for kind in EngineKind::ALL {
            let bound = kind.per_lane_bound();
            if bound == 0 {
                continue;
            }
            let (server, id) = one_worker::<T>(kind, 64, Duration::from_millis(500), 715);
            let mut requests = T::traffic(server.session(id).unwrap(), 716, bound + 2);
            let blocker = requests.pop().unwrap();
            let tickets = submit_held(&server, id, blocker, &requests);
            check_answers::<T>(tickets, &requests, kind);
            assert_eq!(
                flushes(&server.stats()),
                (0, 1, 1, 0),
                "the blocker's idle flush and one deadline flush ({} {})",
                T::NAME,
                kind.name()
            );
            server.shutdown();
        }
    }
    scenario::<BatchOp>();
    scenario::<EcdsaVerify>();
    scenario::<Ecdh>();
}

#[test]
fn idle_flush_reads_the_bound_of_the_backend_the_shard_runs_on() {
    // A private quarantine benches the configured backend, so every
    // shard runs on the next-weaker one (EngineConfig::run_kind), and
    // the idle rule must read that backend's per-lane bound, not the
    // configured one's. Benched Cios52 runs on Cios (bound 32): a
    // singleton under a 600 s deadline is answered by one idle flush.
    // Benched Cios runs on BitSliced (bound 0): the singleton waits for
    // its 5 ms deadline, although Cios itself has a bound of 32.
    fn scenario<T: Tenant>() {
        for benched in [EngineKind::Cios52, EngineKind::Cios] {
            let runs_on = benched.weaker().unwrap();
            let idle = runs_on.per_lane_bound() > 0;
            let quarantine = Arc::new(Quarantine::new());
            for _ in 0..QUARANTINE_THRESHOLD {
                quarantine.record_violation(benched);
            }
            let config = EngineConfig::default()
                .with_backend(benched)
                .with_quarantine(quarantine)
                .with_workers(1)
                .unwrap()
                .with_flush_deadline(if idle {
                    Duration::from_secs(600)
                } else {
                    Duration::from_millis(5)
                });
            let (server, id) = serve::<T>(config, 717);
            let session = server.session(id).unwrap();
            assert_eq!(session.run_kind(), runs_on, "{}", T::NAME);
            let (req, want) = T::traffic(session, 718, 1).pop().unwrap();
            let ticket = server.try_submit(id, T::OP, req).unwrap();
            assert_eq!(ticket.wait(), Ok(want), "{} {}", T::NAME, runs_on.name());
            let want = if idle { (0, 1, 0, 0) } else { (0, 0, 1, 0) };
            assert_eq!(
                flushes(&server.stats()),
                want,
                "one {} flush on {} benched for {} ({})",
                if idle { "idle" } else { "deadline" },
                runs_on.name(),
                benched.name(),
                T::NAME
            );
            server.shutdown();
        }
    }
    scenario::<BatchOp>();
    scenario::<EcdsaVerify>();
    scenario::<Ecdh>();
}
