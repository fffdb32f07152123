//! The serving layer end to end: `KeyedSession` + the serving plane's
//! `Collector` against the scalar entry points (`decrypt_crt`,
//! `modpow`) — results must be bit-identical in submission order on
//! **every** backend, and the aggregation bookkeeping (ids, shard
//! fill, error recovery) must behave like a server can rely on.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::config::{EngineConfig, WindowPolicy};
use montgomery_systolic::core::error::MmmError;
use montgomery_systolic::core::serve::Collector;
use montgomery_systolic::core::EngineKind;
use montgomery_systolic::rsa::{decrypt_crt, BatchOp, KeyedSession, RsaKeyPair};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn keypair(bits: usize, seed: u64) -> RsaKeyPair {
    let mut rng = StdRng::seed_from_u64(seed);
    RsaKeyPair::generate(&mut rng, bits, 12)
}

/// Scalar signatures: `m ^ D mod N` per message.
fn scalar_signatures(key: &RsaKeyPair, ms: &[Ubig]) -> Vec<Ubig> {
    ms.iter().map(|m| m.modpow(&key.d, &key.n)).collect()
}

#[test]
fn collector_is_bit_identical_to_decrypt_crt_on_every_backend() {
    let key = keypair(64, 601);
    let mut rng = StdRng::seed_from_u64(602);
    // 70 singleton submissions: crosses the 64-lane shard boundary,
    // so the collector must aggregate a full shard plus a remainder.
    let ms: Vec<Ubig> = (0..70)
        .map(|_| Ubig::random_below(&mut rng, &key.n))
        .collect();
    let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&key.e, &key.n)).collect();
    let want: Vec<Ubig> = cs.iter().map(|c| decrypt_crt(&key, c)).collect();
    assert_eq!(want, ms, "oracle roundtrip");
    for kind in EngineKind::ALL {
        let session =
            KeyedSession::new(key.clone(), EngineConfig::default().with_backend(kind)).unwrap();
        let mut collector = Collector::new(&session, BatchOp::DecryptCrt);
        for (want_id, c) in cs.iter().enumerate() {
            assert_eq!(collector.submit(c.clone()).unwrap(), want_id);
        }
        assert_eq!(collector.full_shards(), 1, "70 requests = 1 full shard");
        let got = collector.flush().unwrap();
        assert_eq!(got, want, "submission order, bit for bit ({})", kind.name());
    }
}

#[test]
fn collector_sign_flow_matches_batch_signing() {
    let key = keypair(48, 603);
    let mut rng = StdRng::seed_from_u64(604);
    let ms: Vec<Ubig> = (0..9)
        .map(|_| Ubig::random_below(&mut rng, &key.n))
        .collect();
    for kind in EngineKind::ALL {
        let session =
            KeyedSession::new(key.clone(), EngineConfig::default().with_backend(kind)).unwrap();
        let mut collector = Collector::new(&session, BatchOp::Sign);
        for m in &ms {
            collector.submit(m.clone()).unwrap();
        }
        let sigs = collector.flush().unwrap();
        assert_eq!(sigs, scalar_signatures(&key, &ms), "{}", kind.name());
        assert!(session.verify(&ms, &sigs).unwrap().into_iter().all(|ok| ok));
    }
}

#[test]
fn collector_flush_drains_and_can_refill() {
    let key = keypair(32, 605);
    let session = KeyedSession::new(key.clone(), EngineConfig::default()).unwrap();
    let mut collector = Collector::new(&session, BatchOp::DecryptCrt);
    assert_eq!(collector.flush().unwrap_err(), MmmError::EmptyBatch);
    let m = Ubig::from(12345u64).rem(&key.n);
    let c = m.modpow(&key.e, &key.n);
    // Two rounds through the same collector: ids restart per flush.
    for _ in 0..2 {
        assert_eq!(collector.submit(c.clone()).unwrap(), 0);
        assert_eq!(collector.flush().unwrap(), vec![m.clone()]);
        assert!(collector.is_empty());
    }
}

#[test]
fn session_honors_window_policy_and_shard_width() {
    let key = keypair(48, 606);
    let mut rng = StdRng::seed_from_u64(607);
    let ms: Vec<Ubig> = (0..10)
        .map(|_| Ubig::random_below(&mut rng, &key.n))
        .collect();
    let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&key.e, &key.n)).collect();
    let want: Vec<Ubig> = cs.iter().map(|c| decrypt_crt(&key, c)).collect();
    // Every window width and a narrow shard must change schedule and
    // fan-out, never results.
    for w in [1usize, 2, 4, 6] {
        let config = EngineConfig::default()
            .with_window(WindowPolicy::Fixed(w))
            .unwrap()
            .with_shard_lanes(3)
            .unwrap();
        let session = KeyedSession::new(key.clone(), config).unwrap();
        assert_eq!(session.decrypt_crt(&cs).unwrap(), want, "w={w}");
        assert_eq!(session.sign(&ms).unwrap(), scalar_signatures(&key, &ms));
    }
}

#[test]
fn from_env_config_builds_a_working_session() {
    // In the default CI environment this is the CIOS path; under the
    // MMM_ENGINE=bitsliced job it exercises the override end to end.
    let key = keypair(32, 608);
    let config = EngineConfig::from_env().expect("test environment is clean");
    assert_eq!(config.backend(), EngineKind::default_kind());
    let session = KeyedSession::new(key.clone(), config).unwrap();
    let m = Ubig::from(99u64).rem(&key.n);
    let c = m.modpow(&key.e, &key.n);
    assert_eq!(session.decrypt_crt(&[c]).unwrap(), vec![m]);
}
