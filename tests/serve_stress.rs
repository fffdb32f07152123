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

mod common;

use common::Tenant;
use montgomery_systolic::core::config::EngineConfig;
use montgomery_systolic::core::serve::{KeyId, Server};
use montgomery_systolic::core::EngineKind;
use montgomery_systolic::ecc::{Ecdh, EcdsaVerify};
use montgomery_systolic::rsa::BatchOp;
use std::time::{Duration, Instant};

const PRODUCERS: usize = 4;
const PER_PRODUCER: usize = 24;

/// A server for tenant `T` under `config`, with the key `T` derives
/// from `seed`.
fn serve<T: Tenant>(config: EngineConfig, seed: u64) -> (Server<T>, KeyId) {
    let mut builder = Server::builder(config);
    let id = builder.add_key(T::key(seed)).unwrap();
    (builder.build().unwrap(), id)
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
            assert!(
                stats.fill_flushes + stats.deadline_flushes + stats.drain_flushes > 0,
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
    // One lonely request must not wait for 63 shard peers: the
    // deadline flush answers it in deadline + MAX_PARK + epsilon, far
    // below the multi-second starvation a fill-only policy would show.
    fn scenario<T: Tenant>() {
        for kind in EngineKind::ALL {
            let config = EngineConfig::default()
                .with_backend(kind)
                .with_workers(1)
                .unwrap()
                .with_flush_deadline(Duration::from_millis(5));
            let (server, id) = serve::<T>(config, 710);
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
            let stats = server.stats();
            assert_eq!(stats.deadline_flushes, 1, "flushed by deadline");
            assert_eq!(stats.fill_flushes, 0);
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
    // explain a prompt answer for a full shard of requests.
    fn scenario<T: Tenant>() {
        let lanes = 4;
        for kind in EngineKind::ALL {
            let config = EngineConfig::default()
                .with_backend(kind)
                .with_workers(1)
                .unwrap()
                .with_shard_lanes(lanes)
                .unwrap()
                .with_flush_deadline(Duration::from_secs(600));
            let (server, id) = serve::<T>(config, 711);
            let requests = T::traffic(server.session(id).unwrap(), 712, lanes);
            let tickets: Vec<_> = requests
                .iter()
                .map(|(req, _)| server.try_submit(id, T::OP, req.clone()).unwrap())
                .collect();
            for (ticket, (_, want)) in tickets.into_iter().zip(&requests) {
                assert_eq!(
                    ticket.wait(),
                    Ok(want.clone()),
                    "{} {}",
                    T::NAME,
                    kind.name()
                );
            }
            let stats = server.stats();
            assert_eq!(stats.fill_flushes, 1, "one full-shard flush");
            assert_eq!(stats.deadline_flushes, 0, "deadline never fired");
            server.shutdown();
        }
    }
    scenario::<BatchOp>();
    scenario::<EcdsaVerify>();
    scenario::<Ecdh>();
}
