//! Hardened-mode integration properties (DESIGN.md §12): the
//! constant-time schedule is a pure *schedule* change — on every
//! backend, for arbitrary widths/moduli/exponents, `Hardened` and
//! `Off` produce bit-identical modexp results; the blinded CRT
//! decryption path is bit-identical to the unblinded one. (A mistyped
//! `MMM_HARDENED` is a typed `MmmError::Config`, never a silent
//! fallback — pinned by the `config` unit tests, which feed a fake
//! environment instead of writing the process one.)

use montgomery_systolic::core::config::{EngineConfig, HardeningMode};
use montgomery_systolic::core::expo_batch::try_modexp_many;
use montgomery_systolic::core::modgen::random_safe_params;
use montgomery_systolic::core::{EngineKind, MmmError, ScalarSet};
use montgomery_systolic::rsa::{KeyedSession, RsaKeyPair};
use montgomery_systolic::Ubig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(kind: EngineKind, mode: HardeningMode) -> EngineConfig {
    EngineConfig::default()
        .with_backend(kind)
        .with_hardening(mode)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hardened ≡ Off, bit for bit, on every backend: randomized
    /// width, modulus, bases and exponents (including the degenerate
    /// all-zero and single-bit exponents the skip logic loves).
    #[test]
    fn hardened_modexp_is_bit_identical_on_every_backend(
        seed in any::<u64>(),
        l in 16usize..=96,
        lanes in 1usize..=6,
        zero_lane in any::<bool>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let ms: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, params.n()))
            .collect();
        let mut es: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, params.n()))
            .collect();
        if zero_lane {
            es[0] = Ubig::zero();
        }
        for kind in EngineKind::ALL {
            for (shape, es) in [("per-lane", ScalarSet::PerLane(&es)), ("shared", ScalarSet::Shared(&es[0]))] {
                let off = try_modexp_many(&params, &ms, es, &config(kind, HardeningMode::Off))
                    .expect("off runs");
                let hard =
                    try_modexp_many(&params, &ms, es, &config(kind, HardeningMode::Hardened))
                        .expect("hardened runs");
                prop_assert_eq!(&off, &hard, "{} exponents, {}", shape, kind.name());
            }
        }
    }
}

/// The blinded hardened CRT decryption (message + exponent blinding in
/// [`montgomery_systolic::rsa::blinding`]) returns exactly what the
/// unblinded run returns — and both recover the plaintexts. Repeated
/// flushes exercise the square-and-refresh schedule.
#[test]
fn blinded_crt_round_trip_matches_unblinded_on_every_backend() {
    let mut rng = StdRng::seed_from_u64(0xB11D);
    let key = RsaKeyPair::generate(&mut rng, 48, 12);
    let ms: Vec<Ubig> = (0..7)
        .map(|_| Ubig::random_below(&mut rng, &key.n))
        .collect();
    let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&key.e, &key.n)).collect();
    for kind in EngineKind::ALL {
        let off = KeyedSession::new(key.clone(), config(kind, HardeningMode::Off)).unwrap();
        let hard = KeyedSession::new(key.clone(), config(kind, HardeningMode::Hardened)).unwrap();
        for flush in 0..3 {
            let want = off.decrypt_crt(&cs).unwrap();
            let got = hard.decrypt_crt(&cs).unwrap();
            assert_eq!(
                want,
                ms,
                "{} flush {flush}: unblinded decrypts",
                kind.name()
            );
            assert_eq!(got, ms, "{} flush {flush}: blinded decrypts", kind.name());
        }
        // Input validation is unchanged by blinding: an out-of-range
        // ciphertext still bounces with its lane, it is never wrapped
        // into range by the mask.
        assert!(matches!(
            hard.decrypt_crt(&[cs[0].clone(), key.n.clone()])
                .unwrap_err(),
            MmmError::OperandOutOfRange { lane: 1, .. }
        ));
    }
}
