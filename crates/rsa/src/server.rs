//! The typed serving API — the one entry point for batched RSA: a
//! per-key session handle and the operations it serves.
//!
//! Real traffic is *millions of independent clients* each submitting
//! one request against a long-lived key. [`KeyedSession`] is one
//! handle owning the key **and** its pooled Montgomery parameters
//! (`N`, and the CRT primes `p`/`q`) plus the engine configuration,
//! built once and reused for every request. No threading
//! `&RsaKeyPair` + [`EngineKind`] through every call, and no panics:
//! every method returns `Result<_, MmmError>`, so one client's
//! unreduced message bounces that request instead of aborting the
//! process.
//!
//! [`BatchOp`] names the single-input operations; it is the RSA
//! [`ShardOp`](mmm_core::serve::ShardOp), so the serving plane's
//! [`Collector`](mmm_core::serve::Collector) aggregates individually
//! submitted requests into shards and answers them in submission
//! order, bit-identical to calling the session method on the same
//! inputs (asserted by `tests/serving_api.rs` on every backend), and
//! its [`Server`](crate::serve::Server) does the same under real
//! traffic.
//!
//! Backend, window policy, pool capacity and shard width all come
//! from one validated [`EngineConfig`] value; use
//! [`EngineConfig::from_env`] to honor the `MMM_ENGINE` /
//! `MMM_POOL_KEYS` environment overrides.

use crate::batch::decrypt_crt_core;
use crate::blinding::BlindingState;
use crate::keys::RsaKeyPair;
use mmm_bigint::Ubig;
use mmm_core::error::OperandBound;
use mmm_core::expo_batch::try_modexp_many;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::pool;
use mmm_core::{EngineConfig, EngineKind, MmmError, ScalarSet};
use std::sync::Arc;

/// A serving session bound to one RSA key: owns the key, its pooled
/// Montgomery parameters for `N` and both CRT primes, and the engine
/// configuration. Construction pre-warms one engine per modulus in
/// the process-wide pool, so the first request pays no setup.
///
/// ```
/// use mmm_bigint::Ubig;
/// use mmm_core::{EngineConfig, MmmError};
/// use mmm_rsa::{KeyedSession, RsaKeyPair};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), MmmError> {
/// let mut rng = StdRng::seed_from_u64(7);
/// let key = RsaKeyPair::generate(&mut rng, 32, 8);
/// let session = KeyedSession::new(key, EngineConfig::default())?;
///
/// let ms = vec![Ubig::from(42u64), Ubig::from(7u64)];
/// let sigs = session.sign(&ms)?;
/// assert!(session.verify(&ms, &sigs)?.into_iter().all(|ok| ok));
///
/// // Bad input is a value, not a crash — and it names the lane.
/// let huge = session.key().n.clone();
/// let err = session.sign(&[Ubig::from(1u64), huge]).unwrap_err();
/// assert!(matches!(err, MmmError::OperandOutOfRange { lane: 1, .. }));
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct KeyedSession {
    key: RsaKeyPair,
    config: EngineConfig,
    /// Pooled hardware-safe parameters for the public modulus `N`.
    params: MontgomeryParams,
    /// Pooled parameters for the CRT primes.
    pparams: MontgomeryParams,
    qparams: MontgomeryParams,
    /// Message/exponent blinding for CRT decryption — `Some` exactly
    /// when the config runs [`mmm_core::HardeningMode::Hardened`].
    /// Shared across clones so the square-and-refresh schedule
    /// advances globally per session, not per handle.
    blinding: Option<Arc<BlindingState>>,
}

impl KeyedSession {
    /// Builds a session for `key` under `config`: resolves the pooled
    /// parameters for `N`, `p` and `q` (the wide constant divisions
    /// run at most once per key process-wide) and pre-warms one
    /// engine of the configured backend per modulus.
    ///
    /// Fails with [`MmmError::Config`] if the process-wide pool
    /// cannot initialize (a broken `MMM_*` environment), or with
    /// [`MmmError::HardwareUnsafeWidth`] if the configured backend
    /// cannot run this key's parameters — which the pooled
    /// (hardware-safe) widths never trigger, but the check is kept so
    /// a future parameter source cannot turn a misconfiguration into
    /// a first-request crash.
    pub fn new(key: RsaKeyPair, config: EngineConfig) -> Result<Self, MmmError> {
        // A broken MMM_* environment surfaces here as a value — this
        // constructor must not inherit global()'s first-use panic.
        let pool = pool::try_global()?;
        let params = pool.params_for(&key.n);
        let pparams = pool.params_for(&key.p);
        let qparams = pool.params_for(&key.q);
        for ps in [&params, &pparams, &qparams] {
            drop(pool.try_checkout_kind(ps, config.backend())?);
        }
        let blinding = config
            .hardening()
            .is_hardened()
            .then(|| Arc::new(BlindingState::new(key.n.clone(), key.e.clone())));
        Ok(KeyedSession {
            key,
            config,
            params,
            pparams,
            qparams,
            blinding,
        })
    }

    /// The session's key pair.
    pub fn key(&self) -> &RsaKeyPair {
        &self.key
    }

    /// The session's engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The configured multiplier backend (a batch runs on a weaker one
    /// while the quarantine has benched it).
    pub fn backend(&self) -> EngineKind {
        self.config.backend()
    }

    /// The backend the next batch runs on: the configured one unless
    /// the quarantine has benched it. The pooled parameters of `N`,
    /// `p` and `q` are all hardware-safe, so the pick is the same for
    /// every operation; it is read at the CRT primes' parameters, as
    /// `decrypt_crt` does.
    pub(crate) fn run_kind(&self) -> EngineKind {
        self.config.run_kind(&self.pparams)
    }

    /// Signs every message: `s_k = m_k ^ D mod N`. Lanes beyond the
    /// configured shard width fan out across cores on warm pooled
    /// engines. Rejects any message `≥ N` with
    /// [`MmmError::OperandOutOfRange`] naming the lane; empty input
    /// is `Ok(vec![])`.
    pub fn sign(&self, ms: &[Ubig]) -> Result<Vec<Ubig>, MmmError> {
        try_modexp_many(
            &self.params,
            ms,
            ScalarSet::Shared(&self.key.d),
            &self.config,
        )
    }

    /// Verifies every signature: `s_k ^ E mod N == m_k`. Rejects
    /// mismatched slice lengths with [`MmmError::LengthMismatch`] and
    /// any signature `≥ N` with [`MmmError::OperandOutOfRange`].
    pub fn verify(&self, ms: &[Ubig], sigs: &[Ubig]) -> Result<Vec<bool>, MmmError> {
        if ms.len() != sigs.len() {
            return Err(MmmError::LengthMismatch {
                left: ms.len(),
                right: sigs.len(),
            });
        }
        let recovered = try_modexp_many(
            &self.params,
            sigs,
            ScalarSet::Shared(&self.key.e),
            &self.config,
        )?;
        Ok(recovered.iter().zip(ms).map(|(r, m)| r == m).collect())
    }

    /// Decrypts every ciphertext with the full-width scan:
    /// `m_k = c_k ^ D mod N`. Prefer [`KeyedSession::decrypt_crt`] —
    /// it is ~4× cheaper; this entry point exists for keys whose CRT
    /// components are unavailable.
    pub fn decrypt(&self, cs: &[Ubig]) -> Result<Vec<Ubig>, MmmError> {
        try_modexp_many(
            &self.params,
            cs,
            ScalarSet::Shared(&self.key.d),
            &self.config,
        )
    }

    /// CRT-decrypts every ciphertext: per shard, two half-width
    /// shared-exponent windowed batch runs (mod `p`, mod `q`) and a
    /// per-lane Garner recombination — bit-identical to the scalar
    /// [`crate::cipher::decrypt_crt`] lane for lane. Rejects any ciphertext `≥ N` with
    /// [`MmmError::OperandOutOfRange`] naming the lane.
    ///
    /// Under a non-`Off` [`mmm_core::VerifyPolicy`] in this session's
    /// config (builder or `MMM_VERIFY`), the run is
    /// **verify-before-release**: every plaintext is re-encrypted and
    /// checked against its ciphertext before it is returned, a bad
    /// lane is retried once on a weaker backend, and an uncorrectable
    /// lane surfaces as [`MmmError::IntegrityViolation`] instead of a
    /// faulty (key-leaking) plaintext.
    ///
    /// Under [`mmm_core::HardeningMode::Hardened`] (builder or
    /// `MMM_HARDENED=1`) the batch additionally runs **blinded**: each
    /// ciphertext is masked as `c·r^E mod N` before the scans, the CRT
    /// exponents are randomized as `d_p + k_p(p−1)` / `d_q + k_q(q−1)`
    /// (same results, different digit sequences), and plaintexts are
    /// unmasked with `r⁻¹` before return — see [`crate::blinding`].
    /// Results remain bit-identical to the unblinded run.
    pub fn decrypt_crt(&self, cs: &[Ubig]) -> Result<Vec<Ubig>, MmmError> {
        let Some(state) = &self.blinding else {
            return decrypt_crt_core(&self.key, &self.pparams, &self.qparams, cs, &self.config);
        };
        // Validate *before* blinding so OperandOutOfRange still names
        // the offending lane by its original value (blinding would
        // wrap an out-of-range c into range and silently "accept" it).
        if let Some(lane) = cs.iter().position(|c| *c >= self.key.n) {
            return Err(MmmError::OperandOutOfRange {
                lane,
                bound: OperandBound::N,
            });
        }
        let ticket = state.ticket();
        let blinded = ticket.blind(cs, &self.key.n);
        // Exponent-blind a per-flush copy of the key: the masked
        // exponents land in the same residue class mod p−1 / q−1, so
        // Garner recombination and verify-before-release (which
        // re-encrypts with the unchanged public E against the blinded
        // ciphertexts: (m·r)^E = c·r^E = c′) are both untouched.
        let mut bkey = self.key.clone();
        let p1 = &self.key.p - &Ubig::one();
        let q1 = &self.key.q - &Ubig::one();
        bkey.dp = ticket.blinded_exponent(&self.key.dp, &p1, ticket.kp);
        bkey.dq = ticket.blinded_exponent(&self.key.dq, &q1, ticket.kq);
        let mut ms = decrypt_crt_core(&bkey, &self.pparams, &self.qparams, &blinded, &self.config)?;
        ticket.unblind(&mut ms, &self.key.n);
        Ok(ms)
    }
}

/// Which single-input operation a request asks of its
/// [`KeyedSession`] — the RSA [`ShardOp`](mmm_core::serve::ShardOp)
/// (see [`crate::serve`]). Verification takes message *and* signature
/// per request, so it stays on [`KeyedSession::verify`].
///
/// ```
/// use mmm_bigint::Ubig;
/// use mmm_core::serve::Collector;
/// use mmm_core::{EngineConfig, MmmError};
/// use mmm_rsa::{BatchOp, KeyedSession, RsaKeyPair};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), MmmError> {
/// let mut rng = StdRng::seed_from_u64(11);
/// let key = RsaKeyPair::generate(&mut rng, 32, 8);
/// let session = KeyedSession::new(key, EngineConfig::default())?;
///
/// // Independent clients trickle in ciphertexts one at a time...
/// let messages = vec![Ubig::from(5u64), Ubig::from(900u64), Ubig::from(31u64)];
/// let mut collector = Collector::new(&session, BatchOp::DecryptCrt);
/// for m in &messages {
///     let c = m.modpow(&session.key().e, &session.key().n);
///     let id = collector.submit(c)?;
///     assert_eq!(id + 1, collector.len());
/// }
///
/// // ...and one flush answers all of them, in submission order.
/// let decrypted = collector.flush()?;
/// assert_eq!(decrypted, messages);
/// assert!(collector.is_empty());
/// # Ok(()) }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchOp {
    /// `m ^ D mod N` per request ([`KeyedSession::sign`]).
    Sign,
    /// Full-width `c ^ D mod N` per request ([`KeyedSession::decrypt`]).
    Decrypt,
    /// CRT decryption per request ([`KeyedSession::decrypt_crt`]) —
    /// the serving flagship.
    DecryptCrt,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cipher::decrypt_crt;
    use mmm_core::serve::Collector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: usize, seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(&mut rng, bits, 12)
    }

    fn session_for(kind: EngineKind, key: &RsaKeyPair) -> KeyedSession {
        KeyedSession::new(key.clone(), EngineConfig::default().with_backend(kind))
            .expect("pooled params are hardware-safe for every backend")
    }

    #[test]
    fn session_matches_scalar_oracles_on_every_backend() {
        let key = keypair(48, 90);
        let mut rng = StdRng::seed_from_u64(91);
        let ms: Vec<Ubig> = (0..9)
            .map(|_| Ubig::random_below(&mut rng, &key.n))
            .collect();
        let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&key.e, &key.n)).collect();
        // The scalar entry points are the oracle: `modpow` for the
        // full-width exponentiations, `cipher::decrypt_crt` for CRT.
        let want_sigs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&key.d, &key.n)).collect();
        let mut tampered = want_sigs.clone();
        tampered[4] = tampered[4].modadd(&Ubig::one(), &key.n);
        let want_crt: Vec<Ubig> = cs.iter().map(|c| decrypt_crt(&key, c)).collect();
        for kind in EngineKind::ALL {
            let session = session_for(kind, &key);
            let sigs = session.sign(&ms).unwrap();
            assert_eq!(sigs, want_sigs, "{}", kind.name());
            let verdicts = session.verify(&ms, &tampered).unwrap();
            for (k, ok) in verdicts.into_iter().enumerate() {
                assert_eq!(ok, k != 4, "{} lane {k}", kind.name());
            }
            assert_eq!(
                session.decrypt_crt(&cs).unwrap(),
                want_crt,
                "{}",
                kind.name()
            );
            assert_eq!(session.decrypt(&cs).unwrap(), ms, "{}", kind.name());
        }
    }

    #[test]
    fn session_rejects_bad_input_as_values() {
        let key = keypair(32, 92);
        let session = session_for(EngineKind::Cios, &key);
        let n = key.n.clone();
        // The lane index survives sharding: put the bad value last.
        let mut ms = vec![Ubig::from(1u64), Ubig::from(2u64)];
        ms.push(n.clone());
        assert_eq!(
            session.sign(&ms).unwrap_err(),
            MmmError::OperandOutOfRange {
                lane: 2,
                bound: OperandBound::N
            }
        );
        assert_eq!(
            session.verify(&ms[..2], &ms[..1]).unwrap_err(),
            MmmError::LengthMismatch { left: 2, right: 1 }
        );
        assert!(matches!(
            session.decrypt_crt(std::slice::from_ref(&n)).unwrap_err(),
            MmmError::OperandOutOfRange { lane: 0, .. }
        ));
        // Empty input on the slice API is a no-op, not an error.
        assert_eq!(session.sign(&[]).unwrap(), Vec::<Ubig>::new());
    }

    #[test]
    fn collector_orders_results_and_survives_rejections() {
        let key = keypair(32, 93);
        let session = session_for(EngineKind::Cios, &key);
        let mut rng = StdRng::seed_from_u64(94);
        let ms: Vec<Ubig> = (0..5)
            .map(|_| Ubig::random_below(&mut rng, &key.n))
            .collect();
        let mut collector = Collector::new(&session, BatchOp::Sign);
        assert_eq!(collector.op(), BatchOp::Sign);
        for (want_id, m) in ms.iter().enumerate() {
            assert_eq!(collector.submit(m.clone()).unwrap(), want_id);
            // A rejected request never disturbs the queue or the ids.
            let err = collector.submit(key.n.clone()).unwrap_err();
            assert_eq!(
                err,
                MmmError::OperandOutOfRange {
                    lane: want_id + 1,
                    bound: OperandBound::N
                }
            );
        }
        assert_eq!(collector.len(), ms.len());
        let sigs = collector.flush().unwrap();
        let want: Vec<Ubig> = ms.iter().map(|m| m.modpow(&key.d, &key.n)).collect();
        assert_eq!(sigs, want);
        assert!(collector.is_empty());
        assert_eq!(collector.flush().unwrap_err(), MmmError::EmptyBatch);
    }

    #[test]
    fn drain_returns_the_unflushed_tail_with_ids() {
        let key = keypair(32, 96);
        let session = session_for(EngineKind::Cios, &key);
        let mut collector = Collector::new(&session, BatchOp::Sign);
        let ms = [Ubig::from(7u64), Ubig::from(11u64), Ubig::from(13u64)];
        for m in &ms {
            collector.submit(m.clone()).unwrap();
        }
        let drained = collector.drain();
        assert_eq!(
            drained,
            ms.iter()
                .cloned()
                .enumerate()
                .collect::<Vec<(usize, Ubig)>>()
        );
        assert!(collector.is_empty());
        assert_eq!(collector.flush().unwrap_err(), MmmError::EmptyBatch);
        // Ids restart densely after a drain.
        assert_eq!(collector.submit(Ubig::from(1u64)).unwrap(), 0);
        assert_eq!(collector.drain(), vec![(0, Ubig::from(1u64))]);
    }

    #[test]
    fn collector_full_shards_tracks_configured_width() {
        let key = keypair(32, 95);
        let config = EngineConfig::default().with_shard_lanes(2).unwrap();
        let session = KeyedSession::new(key.clone(), config).unwrap();
        let mut collector = Collector::new(&session, BatchOp::Decrypt);
        assert_eq!(collector.full_shards(), 0);
        for i in 0..5 {
            collector.submit(Ubig::from(i as u64)).unwrap();
        }
        assert_eq!(collector.full_shards(), 2);
    }
}
