//! Textbook-RSA encryption/decryption over any Montgomery engine.
//!
//! "Textbook" deliberately: the paper implements `M^E mod N`, and so do
//! we — padding schemes are orthogonal to the hardware architecture
//! being reproduced.

use crate::keys::RsaKeyPair;
use mmm_bigint::Ubig;
use mmm_core::expo::ModExp;
use mmm_core::traits::MontMul;

/// `C = M^E mod N` on the given engine.
///
/// # Panics
/// Panics if `m ≥ N`.
pub fn encrypt<E: MontMul>(engine: E, key: &RsaKeyPair, m: &Ubig) -> Ubig {
    assert_eq!(engine.params().n(), &key.n, "engine modulus mismatch");
    ModExp::new(engine).modexp(m, &key.e)
}

/// `M = C^D mod N` on the given engine.
pub fn decrypt<E: MontMul>(engine: E, key: &RsaKeyPair, c: &Ubig) -> Ubig {
    assert_eq!(engine.params().n(), &key.n, "engine modulus mismatch");
    ModExp::new(engine).modexp(c, &key.d)
}

/// Garner's recombination: lifts the CRT halves `m_p = m mod p`,
/// `m_q = m mod q` back to `m mod N` via
/// `m = m_q + q·(q⁻¹·(m_p − m_q) mod p)`. Shared by the scalar
/// [`decrypt_crt`] and the batched
/// [`KeyedSession::decrypt_crt`](crate::server::KeyedSession::decrypt_crt),
/// so the two paths can never drift.
pub fn garner(key: &RsaKeyPair, mp: &Ubig, mq: &Ubig) -> Ubig {
    let h = mp.modsub(mq, &key.p).modmul(&key.qinv, &key.p);
    mq + &(&h * &key.q)
}

/// CRT decryption (software arithmetic): two half-size
/// exponentiations recombined with Garner's formula — the standard ~4×
/// speedup the paper's future-work section alludes to for RSA
/// deployments.
pub fn decrypt_crt(key: &RsaKeyPair, c: &Ubig) -> Ubig {
    let mp = c.rem(&key.p).modpow(&key.dp, &key.p);
    let mq = c.rem(&key.q).modpow(&key.dq, &key.q);
    garner(key, &mp, &mq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_core::montgomery::MontgomeryParams;
    use mmm_core::traits::SoftwareEngine;
    use mmm_systolic::wave::WaveMmmc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: usize, seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(&mut rng, bits, 12)
    }

    #[test]
    fn roundtrip_software_engine() {
        let kp = keypair(64, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let params = MontgomeryParams::hardware_safe(&kp.n);
        for _ in 0..3 {
            let m = Ubig::random_below(&mut rng, &kp.n);
            let c = encrypt(SoftwareEngine::new(params.clone()), &kp, &m);
            assert_eq!(c, m.modpow(&kp.e, &kp.n));
            let back = decrypt(SoftwareEngine::new(params.clone()), &kp, &c);
            assert_eq!(back, m);
        }
    }

    #[test]
    fn roundtrip_wave_engine_counts_cycles() {
        let kp = keypair(32, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let params = MontgomeryParams::hardware_safe(&kp.n);
        let m = Ubig::random_below(&mut rng, &kp.n);
        let engine = WaveMmmc::new(params.clone());
        let mut me = ModExp::new(engine);
        let c = me.modexp(&m, &kp.e);
        assert_eq!(c, m.modpow(&kp.e, &kp.n));
        // 65537 = 2^16 + 1: 16 squarings + 1 multiply + pre/post.
        let muls = me.stats().total_mont_muls;
        assert_eq!(muls, 16 + 1 + 2);
        let expected = muls * (3 * params.l() as u64 + 4);
        assert_eq!(me.consumed_cycles(), Some(expected));
    }

    #[test]
    fn crt_matches_plain_decrypt() {
        let kp = keypair(64, 30);
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..5 {
            let m = Ubig::random_below(&mut rng, &kp.n);
            let c = m.modpow(&kp.e, &kp.n);
            assert_eq!(decrypt_crt(&kp, &c), m);
        }
    }

    #[test]
    fn message_zero_and_one() {
        let kp = keypair(32, 40);
        let params = MontgomeryParams::hardware_safe(&kp.n);
        assert_eq!(
            encrypt(SoftwareEngine::new(params.clone()), &kp, &Ubig::zero()),
            Ubig::zero()
        );
        assert_eq!(
            encrypt(SoftwareEngine::new(params), &kp, &Ubig::one()),
            Ubig::one()
        );
    }

    #[test]
    #[should_panic(expected = "modulus mismatch")]
    fn engine_modulus_must_match_key() {
        let kp = keypair(32, 50);
        let wrong = MontgomeryParams::new(&Ubig::from(101u64), 7);
        let _ = encrypt(SoftwareEngine::new(wrong), &kp, &Ubig::one());
    }
}
