//! Textbook RSA signatures and message blinding over the Montgomery
//! engines.
//!
//! * [`sign`]/[`verify`] — `s = m^D mod N`, `m ?= s^E mod N` (no hash
//!   or padding: the exercise is the exponentiator, as in the paper).
//! * [`decrypt_blinded`] — Chaum-style blinding: decrypt
//!   `c' = c·r^E mod N`, then strip `r`. The decryption exponentiation
//!   never sees `c` directly, so its (data-dependent) timing cannot be
//!   correlated with the ciphertext — the protocol-level companion to
//!   the paper's remark about side-channel-sensitive reduction steps.

use crate::keys::RsaKeyPair;
use mmm_bigint::Ubig;
use mmm_core::expo::ModExp;
use mmm_core::traits::MontMul;
use rand::Rng;

/// Signs `m` (a reduced residue): `s = m^D mod N`.
pub fn sign<E: MontMul>(engine: E, key: &RsaKeyPair, m: &Ubig) -> Ubig {
    assert_eq!(engine.params().n(), &key.n, "engine modulus mismatch");
    ModExp::new(engine).modexp(m, &key.d)
}

/// Verifies a signature: `s^E mod N == m`.
pub fn verify<E: MontMul>(engine: E, key: &RsaKeyPair, m: &Ubig, s: &Ubig) -> bool {
    assert_eq!(engine.params().n(), &key.n, "engine modulus mismatch");
    ModExp::new(engine).modexp(s, &key.e) == *m
}

/// Decrypts with multiplicative blinding. `engine_factory` supplies a
/// fresh engine per exponentiation (hardware engines are stateful).
pub fn decrypt_blinded<E, F, R>(
    mut engine_factory: F,
    key: &RsaKeyPair,
    c: &Ubig,
    rng: &mut R,
) -> Ubig
where
    E: MontMul,
    F: FnMut() -> E,
    R: Rng + ?Sized,
{
    // Pick r coprime to N (overwhelmingly likely; retry otherwise).
    let (r, r_inv) = loop {
        let r = Ubig::random_range(rng, &Ubig::from(2u64), &key.n);
        if let Some(inv) = r.modinv(&key.n) {
            break (r, inv);
        }
    };
    // Blind: c' = c · r^E mod N.
    let re = ModExp::new(engine_factory()).modexp(&r, &key.e);
    let c_blind = c.modmul(&re, &key.n);
    // Decrypt the blinded ciphertext.
    let m_blind = ModExp::new(engine_factory()).modexp(&c_blind, &key.d);
    // Unblind: m = m' · r⁻¹ mod N.
    m_blind.modmul(&r_inv, &key.n)
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
    fn sign_verify_roundtrip() {
        let kp = keypair(48, 60);
        let params = MontgomeryParams::hardware_safe(&kp.n);
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..3 {
            let m = Ubig::random_below(&mut rng, &kp.n);
            let s = sign(SoftwareEngine::new(params.clone()), &kp, &m);
            assert!(verify(SoftwareEngine::new(params.clone()), &kp, &m, &s));
            // A tampered signature must not verify.
            let bad = s.modadd(&Ubig::one(), &kp.n);
            assert!(!verify(SoftwareEngine::new(params.clone()), &kp, &m, &bad));
        }
    }

    #[test]
    fn signature_of_product_is_product_of_signatures() {
        // The multiplicative (homomorphic) property of textbook RSA —
        // also why real systems pad.
        let kp = keypair(48, 62);
        let params = MontgomeryParams::hardware_safe(&kp.n);
        let m1 = Ubig::from(12345u64);
        let m2 = Ubig::from(6789u64);
        let s1 = sign(SoftwareEngine::new(params.clone()), &kp, &m1);
        let s2 = sign(SoftwareEngine::new(params.clone()), &kp, &m2);
        let s12 = sign(
            SoftwareEngine::new(params.clone()),
            &kp,
            &m1.modmul(&m2, &kp.n),
        );
        assert_eq!(s1.modmul(&s2, &kp.n), s12);
    }

    #[test]
    fn blinded_decrypt_matches_plain() {
        let kp = keypair(40, 63);
        let params = MontgomeryParams::hardware_safe(&kp.n);
        let mut rng = StdRng::seed_from_u64(64);
        for _ in 0..3 {
            let m = Ubig::random_below(&mut rng, &kp.n);
            let c = m.modpow(&kp.e, &kp.n);
            let got = decrypt_blinded(|| SoftwareEngine::new(params.clone()), &kp, &c, &mut rng);
            assert_eq!(got, m);
        }
    }

    #[test]
    fn blinded_decrypt_on_cycle_accurate_engine() {
        let kp = keypair(32, 65);
        let params = MontgomeryParams::hardware_safe(&kp.n);
        let mut rng = StdRng::seed_from_u64(66);
        let m = Ubig::from(424242u64).rem(&kp.n);
        let c = m.modpow(&kp.e, &kp.n);
        let got = decrypt_blinded(|| WaveMmmc::new(params.clone()), &kp, &c, &mut rng);
        assert_eq!(got, m);
    }
}
