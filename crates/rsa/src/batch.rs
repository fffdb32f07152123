//! The batched CRT decryption core behind
//! [`KeyedSession::decrypt_crt`](crate::server::KeyedSession::decrypt_crt):
//! each shard of ciphertexts is split into **two half-width batch
//! runs** (mod `p` and mod `q`), each scanned with the shared-exponent
//! fixed-window exponentiator, and the halves are recombined per lane
//! with Garner's formula — the standard ~4× CRT speedup the paper's
//! future-work section alludes to, realized on the batch engine
//! (half-width halves both the wave band per multiplication and the
//! exponent length). Engines come warm from the process-wide per-key
//! pool ([`mmm_core::pool`]), so repeated calls against the same key
//! pay for no setup. Like the scalar [`crate::signing`] API this is
//! textbook RSA — no hash or padding; the exercise is the
//! exponentiator, as in the paper.

use crate::keys::RsaKeyPair;
use mmm_bigint::Ubig;
use mmm_core::error::OperandBound;
use mmm_core::expo_batch::try_modexp_many;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::pool;
use mmm_core::verify::faults::inert_plan;
use mmm_core::{
    BatchModExp, EngineConfig, EngineKind, MmmError, ScalarSet, VerifiedEngine, VerifyContext,
    VerifyPolicy,
};
use rayon::prelude::*;

/// Everything one CRT batch run needs, bundled so the compute and
/// verify helpers share a single signature.
struct CrtPlan<'a> {
    key: &'a RsaKeyPair,
    pparams: &'a MontgomeryParams,
    qparams: &'a MontgomeryParams,
    config: &'a EngineConfig,
    pool: &'a pool::EnginePool,
}

/// The CRT decryption core behind
/// [`crate::server::KeyedSession::decrypt_crt`]: validates inputs as
/// typed errors, runs each CRT half through the
/// **shared-exponent** windowed batch scan (each half's scan reads
/// its digits straight from `d_p`/`d_q`), and — under any
/// [`VerifyPolicy`] other than `Off` — applies the
/// **verify-before-release** Bellcore/Lenstra countermeasure: every
/// recombined plaintext is re-encrypted (`m^e mod N`, cheap since `e`
/// is small) and compared with the submitted ciphertext *before* it
/// leaves this function. A mismatched lane is charged to the backend
/// that produced it and retried once on the next-weaker healthy
/// backend ([`EngineKind::weaker`]); a lane that is still wrong
/// surfaces as [`MmmError::IntegrityViolation`] naming the lane —
/// never as a key-leaking faulty plaintext.
///
/// Dispatch is quarantine-aware: a backend benched by earlier
/// violations is replaced by [`EngineConfig::run_kind`] before the run
/// starts.
pub(crate) fn decrypt_crt_core(
    key: &RsaKeyPair,
    pparams: &MontgomeryParams,
    qparams: &MontgomeryParams,
    cs: &[Ubig],
    config: &EngineConfig,
) -> Result<Vec<Ubig>, MmmError> {
    for (k, c) in cs.iter().enumerate() {
        if c >= &key.n {
            return Err(MmmError::OperandOutOfRange {
                lane: k,
                bound: OperandBound::N,
            });
        }
    }
    let kind = config.backend();
    kind.ensure_supports(pparams)?;
    kind.ensure_supports(qparams)?;
    let pool = pool::try_global()?;
    let plan = CrtPlan {
        key,
        pparams,
        qparams,
        config,
        pool,
    };
    let ctx = config.verify_context();
    let run_kind = config.run_kind(pparams);
    let run_kind = if run_kind.ensure_supports(qparams).is_ok() {
        run_kind
    } else {
        kind
    };
    let mut ms = crt_halves(&plan, cs, run_kind, &ctx)?;
    if ctx.policy == VerifyPolicy::Off {
        return Ok(ms);
    }
    let bad = crt_bad_lanes(&plan, cs, &ms, run_kind)?;
    if bad.is_empty() {
        return Ok(ms);
    }
    for _ in &bad {
        ctx.quarantine.record_violation(run_kind);
    }
    // One verified retry of just the bad lanes on the next-weaker
    // backend (falling back to the portable CIOS scan when the chain
    // runs out or the weaker backend cannot serve these parameters).
    let fallback = run_kind.weaker().unwrap_or(EngineKind::Cios);
    let fallback =
        if fallback.ensure_supports(pparams).is_ok() && fallback.ensure_supports(qparams).is_ok() {
            fallback
        } else {
            EngineKind::Cios
        };
    ctx.quarantine.record_fallback_retry();
    let bad_cs: Vec<Ubig> = bad.iter().map(|&k| cs[k].clone()).collect();
    let retried = crt_halves(&plan, &bad_cs, fallback, &ctx)?;
    let still_bad = crt_bad_lanes(&plan, &bad_cs, &retried, fallback)?;
    if let Some(&j) = still_bad.first() {
        return Err(MmmError::IntegrityViolation { lane: bad[j] });
    }
    for (&k, fixed) in bad.iter().zip(retried) {
        ms[k] = fixed;
        ctx.quarantine.record_correction();
    }
    Ok(ms)
}

/// Computes the CRT plaintexts on `kind` engines: two half-width
/// shared-exponent batch scans (mod `p` and mod `q`), each sharded by
/// [`pool::try_sharded`], and a per-lane Garner recombination. The
/// engine layer runs behind [`VerifiedEngine`] (policy-gated residue
/// self-checks), and the corruption-injection hooks for the
/// pooled-param and CRT-half fault models are applied here — inert
/// outside tests.
fn crt_halves(
    plan: &CrtPlan<'_>,
    cs: &[Ubig],
    kind: EngineKind,
    ctx: &VerifyContext,
) -> Result<Vec<Ubig>, MmmError> {
    // The mod-p and mod-q runs are independent, so they fan out too —
    // a one-lane shard still fills two cores instead of one.
    let halves = vec![(plan.pparams, &plan.key.dp), (plan.qparams, &plan.key.dq)];
    let halves: Vec<Vec<Ubig>> = halves
        .into_par_iter()
        .map(|(params, d)| {
            pool::try_sharded(params, kind, plan.config, cs.len(), |engine, lanes| {
                let mut residues: Vec<Ubig> = cs[lanes].iter().map(|c| c.rem(params.n())).collect();
                ctx.faults.corrupt_param_residue(&mut residues, params.n());
                // Under MMM_HARDENED the half-width scans run the
                // constant-time schedule (full-table sweeps, no skips,
                // canonicalizing engines) — see DESIGN.md §12.
                let mut half = BatchModExp::new(VerifiedEngine::new(engine, kind, ctx.clone()))
                    .try_modexp(&residues, ScalarSet::Shared(d), plan.config.window())?;
                ctx.faults.corrupt_crt_half(&mut half, params.n());
                Ok(half)
            })
        })
        .collect::<Result<_, MmmError>>()?;
    Ok(halves[0]
        .iter()
        .zip(&halves[1])
        .map(|(mp, mq)| crate::cipher::garner(plan.key, mp, mq))
        .collect())
}

/// The verify-before-release pass: re-encrypts every candidate
/// plaintext on `kind` engines and returns the indices (into `ms`)
/// whose `m^e mod N` does not reproduce the submitted ciphertext. The
/// verification pass itself runs with checking `Off` and the inert
/// fault plan — it must neither recurse into another verify pass nor
/// consume a test's armed injections.
fn crt_bad_lanes(
    plan: &CrtPlan<'_>,
    cs: &[Ubig],
    ms: &[Ubig],
    kind: EngineKind,
) -> Result<Vec<usize>, MmmError> {
    let nparams = plan.pool.params_for(&plan.key.n);
    let vconfig = plan
        .config
        .clone()
        .with_backend(kind)
        .with_verify(VerifyPolicy::Off)
        .with_faults(inert_plan());
    // A corrupted lane can in principle exceed N; substitute zero so
    // the probe vector stays a valid input (such lanes are flagged
    // unconditionally below, whatever the probe returns).
    let probe: Vec<Ubig>;
    let inputs: &[Ubig] = if ms.iter().any(|m| m >= &plan.key.n) {
        probe = ms
            .iter()
            .map(|m| {
                if m < &plan.key.n {
                    m.clone()
                } else {
                    Ubig::zero()
                }
            })
            .collect();
        &probe
    } else {
        ms
    };
    let reenc = try_modexp_many(&nparams, inputs, ScalarSet::Shared(&plan.key.e), &vconfig)?;
    Ok((0..ms.len())
        .filter(|&k| ms[k] >= plan.key.n || reenc[k] != cs[k])
        .collect())
}

#[cfg(test)]
mod tests {
    use crate::cipher::decrypt_crt;
    use crate::keys::RsaKeyPair;
    use crate::server::KeyedSession;
    use crate::signing::{sign, verify};
    use mmm_bigint::Ubig;
    use mmm_core::montgomery::MontgomeryParams;
    use mmm_core::traits::SoftwareEngine;
    use mmm_core::{EngineConfig, EngineKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: usize, seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(&mut rng, bits, 12)
    }

    fn session(key: &RsaKeyPair, kind: EngineKind) -> KeyedSession {
        KeyedSession::new(key.clone(), EngineConfig::default().with_backend(kind)).unwrap()
    }

    #[test]
    fn batch_signatures_match_scalar_signing() {
        let kp = keypair(48, 70);
        let params = MontgomeryParams::hardware_safe(&kp.n);
        let mut rng = StdRng::seed_from_u64(71);
        let ms: Vec<Ubig> = (0..9)
            .map(|_| Ubig::random_below(&mut rng, &kp.n))
            .collect();
        let sigs = session(&kp, EngineKind::Cios).sign(&ms).unwrap();
        for (k, (m, s)) in ms.iter().zip(&sigs).enumerate() {
            let scalar = sign(SoftwareEngine::new(params.clone()), &kp, m);
            assert_eq!(*s, scalar, "lane {k}");
        }
    }

    #[test]
    fn batch_verify_accepts_good_and_rejects_tampered() {
        let kp = keypair(40, 72);
        let mut rng = StdRng::seed_from_u64(73);
        let ms: Vec<Ubig> = (0..6)
            .map(|_| Ubig::random_below(&mut rng, &kp.n))
            .collect();
        let session = session(&kp, EngineKind::Cios);
        let mut sigs = session.sign(&ms).unwrap();
        assert!(session.verify(&ms, &sigs).unwrap().into_iter().all(|ok| ok));
        // Tamper with one lane only.
        sigs[3] = sigs[3].modadd(&Ubig::one(), &kp.n);
        let verdicts = session.verify(&ms, &sigs).unwrap();
        for (k, ok) in verdicts.into_iter().enumerate() {
            assert_eq!(ok, k != 3, "lane {k}");
        }
    }

    #[test]
    fn encrypt_then_batch_decrypt_roundtrip_beyond_64_lanes() {
        let kp = keypair(32, 74);
        let mut rng = StdRng::seed_from_u64(75);
        let ms: Vec<Ubig> = (0..70)
            .map(|_| Ubig::random_below(&mut rng, &kp.n))
            .collect();
        let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&kp.e, &kp.n)).collect();
        assert_eq!(session(&kp, EngineKind::Cios).decrypt(&cs).unwrap(), ms);
    }

    #[test]
    fn crt_batch_matches_scalar_crt_and_plain_decrypt() {
        let kp = keypair(64, 77);
        let mut rng = StdRng::seed_from_u64(78);
        let ms: Vec<Ubig> = (0..9)
            .map(|_| Ubig::random_below(&mut rng, &kp.n))
            .collect();
        let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&kp.e, &kp.n)).collect();
        let got = session(&kp, EngineKind::Cios).decrypt_crt(&cs).unwrap();
        assert_eq!(got, ms, "roundtrip");
        for (k, c) in cs.iter().enumerate() {
            assert_eq!(got[k], decrypt_crt(&kp, c), "lane {k} vs scalar CRT");
        }
    }

    #[test]
    fn crt_batch_shards_beyond_64_lanes() {
        let kp = keypair(32, 79);
        let mut rng = StdRng::seed_from_u64(80);
        let ms: Vec<Ubig> = (0..70)
            .map(|_| Ubig::random_below(&mut rng, &kp.n))
            .collect();
        let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&kp.e, &kp.n)).collect();
        assert_eq!(session(&kp, EngineKind::Cios).decrypt_crt(&cs).unwrap(), ms);
    }

    #[test]
    fn crt_batch_edge_ciphertexts() {
        let kp = keypair(32, 81);
        // 0, 1, and multiples of p/q (lanes where one CRT half is 0).
        let cs = vec![
            Ubig::zero(),
            Ubig::one(),
            kp.p.clone(),
            kp.q.clone(),
            (&kp.n - &Ubig::one()),
        ];
        let want: Vec<Ubig> = cs.iter().map(|c| c.modpow(&kp.d, &kp.n)).collect();
        assert_eq!(
            session(&kp, EngineKind::Cios).decrypt_crt(&cs).unwrap(),
            want
        );
    }

    #[test]
    fn every_backend_agrees_on_all_batch_entry_points() {
        let kp = keypair(48, 83);
        let params = MontgomeryParams::hardware_safe(&kp.n);
        let mut rng = StdRng::seed_from_u64(84);
        let ms: Vec<Ubig> = (0..7)
            .map(|_| Ubig::random_below(&mut rng, &kp.n))
            .collect();
        let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&kp.e, &kp.n)).collect();
        let sigs: Vec<Ubig> = ms
            .iter()
            .map(|m| sign(SoftwareEngine::new(params.clone()), &kp, m))
            .collect();
        for kind in EngineKind::ALL {
            let session = session(&kp, kind);
            assert_eq!(session.sign(&ms).unwrap(), sigs, "{}", kind.name());
            assert!(
                session.verify(&ms, &sigs).unwrap().into_iter().all(|ok| ok),
                "{}",
                kind.name()
            );
            assert_eq!(session.decrypt_crt(&cs).unwrap(), ms, "{}", kind.name());
        }
    }

    #[test]
    fn scalar_verify_accepts_batch_signatures() {
        let kp = keypair(40, 76);
        let params = MontgomeryParams::hardware_safe(&kp.n);
        let ms = vec![Ubig::from(123456u64).rem(&kp.n), Ubig::from(42u64)];
        let sigs = session(&kp, EngineKind::Cios).sign(&ms).unwrap();
        for (m, s) in ms.iter().zip(&sigs) {
            assert!(verify(SoftwareEngine::new(params.clone()), &kp, m, s));
        }
    }
}
