//! The serving plane's tenants as test fixtures, shared by the
//! `serve_faults` and `serve_stress` suites: each suite runs every
//! scenario once per tenant, on every backend.
//!
//! * RSA: CRT decryption under a seeded 64-bit key; the expected
//!   answer is the plaintext, which the scalar `decrypt_crt` oracle
//!   reproduces.
//! * ECDSA verify and ECDH on the tiny97 fixture curve
//!   (y² = x³ + 2x + 3 over GF(97), G = (3, 6) of order 5); the
//!   expected answer of every request is what a direct
//!   `verify_ecdsa` / `ecdh` call on the server's session returns.
//!
//! [`submit_held`] queues a whole shard behind a held worker, so a
//! flush-cause test never depends on how fast the test thread submits.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::config::EngineConfig;
use montgomery_systolic::core::serve::{KeyId, ServeStats, Server, Session, ShardOp, Ticket};
use montgomery_systolic::ecc::curves::CurveSpec;
use montgomery_systolic::ecc::serve::{CurveSession, Ecdh, EcdhRequest, EcdsaRequest, EcdsaVerify};
use montgomery_systolic::rsa::{decrypt_crt, BatchOp, KeyedSession, RsaKeyPair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One tenant of the serving plane, as the suites drive it.
pub trait Tenant: ShardOp<Request: Clone, Response: Clone + PartialEq> {
    /// Tenant name for assertion messages.
    const NAME: &'static str;

    /// The operation the suites submit.
    const OP: Self;

    /// The key to register, derived from `seed` where the tenant has
    /// more than one.
    fn key(seed: u64) -> <Self::Session as Session>::Key;

    /// `count` requests drawn from `seed`, each with its expected
    /// answer.
    fn traffic(
        session: &Self::Session,
        seed: u64,
        count: usize,
    ) -> Vec<(Self::Request, Self::Response)>;
}

/// A server for tenant `T` under `config`, with the key `T` derives
/// from `seed`.
pub fn serve<T: Tenant>(config: EngineConfig, seed: u64) -> (Server<T>, KeyId) {
    let mut builder = Server::builder(config);
    let id = builder.add_key(T::key(seed)).unwrap();
    (builder.build().unwrap(), id)
}

/// The flush counts as `(fill, idle, deadline, drain)`.
pub fn flushes(stats: &ServeStats) -> (u64, u64, u64, u64) {
    (
        stats.fill_flushes,
        stats.idle_flushes,
        stats.deadline_flushes,
        stats.drain_flushes,
    )
}

/// Queues `requests` on a one-worker server so that the worker files
/// every one of them before it next finds the queue empty, however
/// fast this thread submits. The worker is first held in a stalled
/// flush of `blocker`: the idle rule flushes that singleton at once,
/// so the key's backend must have a per-lane bound above 0, and the
/// blocker adds one idle flush to the server's stats. The requests are
/// queued while the worker waits there, then `reset` ends the stall.
/// Checks the blocker's answer and returns the tickets of `requests`.
pub fn submit_held<T: Tenant>(
    server: &Server<T>,
    id: KeyId,
    blocker: (T::Request, T::Response),
    requests: &[(T::Request, T::Response)],
) -> Vec<Ticket<T::Response>> {
    let faults = server.faults();
    let fired = faults.stalls_fired();
    faults.inject_flush_stalls(Duration::from_secs(600), 1);
    let blocked = server.try_submit(id, T::OP, blocker.0).unwrap();
    let t0 = Instant::now();
    while faults.stalls_fired() == fired && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let held = faults.stalls_fired() > fired;
    let submitted: Vec<_> = requests
        .iter()
        .map(|(req, _)| server.try_submit(id, T::OP, req.clone()))
        .collect();
    // Release the worker before any assertion can fail: a server
    // dropped with its worker in the stall would wait the stall out.
    faults.reset();
    assert!(
        held,
        "{}: the worker never reached the blocker's flush",
        T::NAME
    );
    assert_eq!(blocked.wait(), Ok(blocker.1), "{}: blocker", T::NAME);
    submitted
        .into_iter()
        .map(|t| t.expect("queued behind the held worker"))
        .collect()
}

impl Tenant for BatchOp {
    const NAME: &'static str = "rsa-decrypt-crt";
    const OP: Self = BatchOp::DecryptCrt;

    fn key(seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(&mut rng, 64, 12)
    }

    fn traffic(session: &KeyedSession, seed: u64, count: usize) -> Vec<(Ubig, Ubig)> {
        let key = session.key();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let m = Ubig::random_below(&mut rng, &key.n);
                let c = m.modpow(&key.e, &key.n);
                assert_eq!(decrypt_crt(key, &c), m, "oracle roundtrip");
                (c, m)
            })
            .collect()
    }
}

/// y² = x³ + 2x + 3 over GF(97), G = (3, 6) of order 5.
fn tiny97() -> CurveSpec {
    CurveSpec {
        name: "tiny97",
        p: Ubig::from(97u64),
        a: Ubig::from(2u64),
        b: Ubig::from(3u64),
        gx: Ubig::from(3u64),
        gy: Ubig::from(6u64),
        order: Ubig::from(5u64),
    }
}

/// `[k]G` in affine coordinates for `k` in `[1, order)`.
fn base_multiple(session: &CurveSession, k: u64) -> (Ubig, Ubig) {
    session.scalar_mul_base(&[Ubig::from(k)]).unwrap()[0]
        .clone()
        .expect("k is not a multiple of the order")
}

impl Tenant for EcdsaVerify {
    const NAME: &'static str = "ecdsa-verify-tiny97";
    const OP: Self = EcdsaVerify;

    fn key(_: u64) -> CurveSpec {
        tiny97()
    }

    /// Signatures under random keys and nonces; every third one has
    /// its `s` nudged, so the verdicts mix `true` and `false`.
    fn traffic(session: &CurveSession, seed: u64, count: usize) -> Vec<(EcdsaRequest, bool)> {
        let n = &session.spec().order;
        let mut rng = StdRng::seed_from_u64(seed);
        let reqs: Vec<EcdsaRequest> = (0..count)
            .map(|i| {
                let d = rng.gen_range(1, 5);
                let k = rng.gen_range(1, 5);
                let z = Ubig::from(rng.gen_range(0, 5));
                let (qx, qy) = base_multiple(session, d);
                let r = base_multiple(session, k).0.rem(n);
                let k_inv = Ubig::from(k).modinv(n).expect("prime order");
                let mut s = k_inv.modmul(&z.modadd(&r.modmul(&Ubig::from(d), n), n), n);
                if i % 3 == 2 {
                    s = s.modadd(&Ubig::one(), n);
                }
                EcdsaRequest { z, r, s, qx, qy }
            })
            .collect();
        let want = session.verify_ecdsa(&reqs).unwrap();
        reqs.into_iter().zip(want).collect()
    }
}

impl Tenant for Ecdh {
    const NAME: &'static str = "ecdh-tiny97";
    const OP: Self = Ecdh;

    fn key(_: u64) -> CurveSpec {
        tiny97()
    }

    /// Random scalars against random peer keys `[j]G`; the order is
    /// prime, so no derivation lands on the identity.
    fn traffic(session: &CurveSession, seed: u64, count: usize) -> Vec<(EcdhRequest, Ubig)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let reqs: Vec<EcdhRequest> = (0..count)
            .map(|_| {
                let (qx, qy) = base_multiple(session, rng.gen_range(1, 5));
                EcdhRequest {
                    scalar: Ubig::from(rng.gen_range(1, 5)),
                    qx,
                    qy,
                }
            })
            .collect();
        let want = session.ecdh(&reqs).unwrap();
        reqs.into_iter().zip(want).collect()
    }
}
