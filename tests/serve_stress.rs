//! Multi-threaded stress for the serving front-end: concurrent
//! producers hammering one `Server` over rotating keys and both
//! submit paths, on **every** backend.
//!
//! The properties under test are the serving layer's contract:
//!
//! * **bit-identity** — every response equals the scalar
//!   `decrypt_crt` oracle's answer for its ciphertext,
//!   regardless of which worker flushed it, how requests interleaved
//!   across shards, or which submit path admitted them;
//! * **exactly one response** — every admitted request resolves its
//!   ticket exactly once (waiting consumes the ticket, so at most
//!   once is structural; the test proves at least once by joining
//!   every producer);
//! * **order independence** — shards are keyed by `(key, op)`, so
//!   interleaved traffic for different keys must never cross-talk.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::config::EngineConfig;
use montgomery_systolic::core::EngineKind;
use montgomery_systolic::rsa::{decrypt_crt, BatchOp, RsaKeyPair, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn keypair(bits: usize, seed: u64) -> RsaKeyPair {
    let mut rng = StdRng::seed_from_u64(seed);
    RsaKeyPair::generate(&mut rng, bits, 12)
}

const PRODUCERS: usize = 4;
const PER_PRODUCER: usize = 24;

#[test]
fn concurrent_producers_rotating_keys_both_paths_all_backends() {
    let keys = [keypair(64, 700), keypair(64, 701)];
    for kind in EngineKind::ALL {
        let config = EngineConfig::default()
            .with_backend(kind)
            .with_workers(2)
            .unwrap()
            .with_flush_deadline(Duration::from_millis(1))
            .with_queue_bound(64)
            .unwrap();
        let mut builder = Server::builder(config);
        let key_ids: Vec<_> = keys
            .iter()
            .map(|k| builder.add_key(k.clone()).unwrap())
            .collect();
        let server = builder.build().unwrap();

        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let server = &server;
                let keys = &keys;
                let key_ids = &key_ids;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(7000 + p as u64);
                    for i in 0..PER_PRODUCER {
                        // Rotate keys so shards for both keys are live
                        // at once, and alternate the two submit paths.
                        let which = (p + i) % keys.len();
                        let key = &keys[which];
                        let m = Ubig::random_below(&mut rng, &key.n);
                        let c = m.modpow(&key.e, &key.n);
                        let want = decrypt_crt(key, &c);
                        assert_eq!(want, m, "oracle roundtrip");
                        let ticket = if i % 2 == 0 {
                            server
                                .try_submit(key_ids[which], BatchOp::DecryptCrt, c)
                                .expect("queue bound 64 cannot fill with 4 producers")
                        } else {
                            server
                                .submit(
                                    key_ids[which],
                                    BatchOp::DecryptCrt,
                                    c,
                                    Duration::from_secs(30),
                                )
                                .expect("blocking submit within budget")
                        };
                        // Exactly-one-response: `wait` consumes the
                        // ticket and must deliver the oracle's bits.
                        assert_eq!(
                            ticket.wait(),
                            Ok(want),
                            "producer {p}, request {i}, backend {}",
                            kind.name()
                        );
                    }
                });
            }
        });

        let stats = server.stats();
        let total = (PRODUCERS * PER_PRODUCER) as u64;
        assert_eq!(stats.submitted, total, "{}", kind.name());
        assert_eq!(stats.completed_ok, total, "{}", kind.name());
        assert_eq!(stats.completed_err, 0, "{}", kind.name());
        assert_eq!(stats.rejected_invalid, 0, "{}", kind.name());
        assert_eq!(stats.worker_restarts, 0, "{}", kind.name());
        assert!(
            stats.fill_flushes + stats.deadline_flushes + stats.drain_flushes > 0,
            "something must have flushed ({})",
            kind.name()
        );
        server.shutdown();
    }
}

#[test]
fn singleton_is_flushed_by_deadline_not_starved() {
    // One lonely request must not wait for 63 shard peers: the
    // deadline flush answers it in deadline + MAX_PARK + epsilon, far
    // below the multi-second starvation a fill-only policy would show.
    let key = keypair(64, 710);
    let config = EngineConfig::default()
        .with_workers(1)
        .unwrap()
        .with_flush_deadline(Duration::from_millis(5));
    let mut builder = Server::builder(config);
    let id = builder.add_key(key.clone()).unwrap();
    let server = builder.build().unwrap();
    let m = Ubig::from(4242u64);
    let c = m.modpow(&key.e, &key.n);
    let t0 = Instant::now();
    let ticket = server.try_submit(id, BatchOp::DecryptCrt, c).unwrap();
    assert_eq!(ticket.wait(), Ok(m));
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "singleton took {:?}",
        t0.elapsed()
    );
    let stats = server.stats();
    assert_eq!(stats.deadline_flushes, 1, "flushed by deadline");
    assert_eq!(stats.fill_flushes, 0);
    server.shutdown();
}

#[test]
fn full_shard_flushes_on_fill_without_waiting_for_deadline() {
    // With a deliberately huge deadline, only the fill trigger can
    // explain a prompt answer for a full shard of requests.
    let key = keypair(64, 711);
    let lanes = 4;
    let config = EngineConfig::default()
        .with_workers(1)
        .unwrap()
        .with_shard_lanes(lanes)
        .unwrap()
        .with_flush_deadline(Duration::from_secs(600));
    let mut builder = Server::builder(config);
    let id = builder.add_key(key.clone()).unwrap();
    let server = builder.build().unwrap();
    let mut rng = StdRng::seed_from_u64(712);
    let ms: Vec<Ubig> = (0..lanes)
        .map(|_| Ubig::random_below(&mut rng, &key.n))
        .collect();
    let tickets: Vec<_> = ms
        .iter()
        .map(|m| {
            let c = m.modpow(&key.e, &key.n);
            server.try_submit(id, BatchOp::DecryptCrt, c).unwrap()
        })
        .collect();
    for (ticket, want) in tickets.into_iter().zip(&ms) {
        assert_eq!(ticket.wait(), Ok(want.clone()));
    }
    let stats = server.stats();
    assert_eq!(stats.fill_flushes, 1, "one full-shard flush");
    assert_eq!(stats.deadline_flushes, 0, "deadline never fired");
    server.shutdown();
}
