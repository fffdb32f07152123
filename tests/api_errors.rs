//! The typed-error contract of the serving API: every [`MmmError`]
//! variant is reachable through the public `try_*` / session entry
//! points, and every `try_*` Ok path is bit-identical to the per-lane
//! reference oracles — on every backend.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::batch::{try_mont_mul_many, BitSlicedBatch};
use montgomery_systolic::core::cios::CiosBatch;
use montgomery_systolic::core::config::{EngineConfig, WindowPolicy};
use montgomery_systolic::core::error::{MmmError, OperandBound};
use montgomery_systolic::core::expo_batch::{try_modexp_many, BatchModExp};
use montgomery_systolic::core::modgen::{random_operand, random_safe_params};
use montgomery_systolic::core::montgomery::{mont_mul_alg2, MontgomeryParams};
use montgomery_systolic::core::{pool, BatchMontMul, EngineKind, ScalarSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hardware-unsafe parameters: 251 at its tight width l=8 has
/// `3N − 1 = 752 > 2^9`, so the systolic array could drop a carry.
fn unsafe_params() -> MontgomeryParams {
    let p = MontgomeryParams::tight(&Ubig::from(251u64));
    assert!(!p.is_hardware_safe());
    p
}

#[test]
fn oversized_operand_reports_the_offending_lane_on_both_backends() {
    let mut rng = StdRng::seed_from_u64(501);
    let params = random_safe_params(&mut rng, 24);
    let mut xs: Vec<Ubig> = (0..5).map(|_| random_operand(&mut rng, &params)).collect();
    let ys = xs.clone();
    xs[3] = params.two_n(); // lane 3 violates the < 2N bound
    for kind in EngineKind::ALL {
        let mut engine = kind.build(params.clone());
        assert_eq!(
            engine.try_mont_mul_batch(&xs, &ys).unwrap_err(),
            MmmError::OperandOutOfRange {
                lane: 3,
                bound: OperandBound::TwoN
            },
            "{}",
            kind.name()
        );
        // The many-path reports the index in the caller's slice too.
        let config = EngineConfig::default().with_backend(kind);
        assert_eq!(
            try_mont_mul_many(&params, &xs, &ys, &config).unwrap_err(),
            MmmError::OperandOutOfRange {
                lane: 3,
                bound: OperandBound::TwoN
            },
            "{}",
            kind.name()
        );
    }
}

#[test]
fn oversized_lane_index_survives_sharding() {
    // With 2-lane shards, global lane 5 lives in shard 2 at local
    // index 1 — the error must still say 5.
    let mut rng = StdRng::seed_from_u64(502);
    let params = random_safe_params(&mut rng, 16);
    let mut ms: Vec<Ubig> = (0..7)
        .map(|_| Ubig::random_below(&mut rng, params.n()))
        .collect();
    ms[5] = params.n().clone();
    let es: Vec<Ubig> = (0..7).map(|_| Ubig::from(3u64)).collect();
    let config = EngineConfig::default().with_shard_lanes(2).unwrap();
    let three = Ubig::from(3u64);
    for es in [ScalarSet::PerLane(&es), ScalarSet::Shared(&three)] {
        assert_eq!(
            try_modexp_many(&params, &ms, es, &config).unwrap_err(),
            MmmError::OperandOutOfRange {
                lane: 5,
                bound: OperandBound::N
            }
        );
    }
}

#[test]
fn length_mismatch_and_empty_batch() {
    let mut rng = StdRng::seed_from_u64(503);
    let params = random_safe_params(&mut rng, 16);
    let xs: Vec<Ubig> = (0..3).map(|_| random_operand(&mut rng, &params)).collect();
    let mut engine = BitSlicedBatch::new(params.clone());
    assert_eq!(
        engine.try_mont_mul_batch(&xs, &xs[..2]).unwrap_err(),
        MmmError::LengthMismatch { left: 3, right: 2 }
    );
    assert_eq!(
        engine.try_mont_mul_batch(&[], &[]).unwrap_err(),
        MmmError::EmptyBatch
    );
    let mut cios = CiosBatch::new(params.clone());
    assert_eq!(
        cios.try_mont_mul_batch(&[], &[]).unwrap_err(),
        MmmError::EmptyBatch
    );
    let mut me = BatchModExp::new(CiosBatch::new(params.clone()));
    let auto = WindowPolicy::Auto;
    assert_eq!(
        me.try_modexp(&[], ScalarSet::PerLane(&[]), auto)
            .unwrap_err(),
        MmmError::EmptyBatch
    );
    assert_eq!(
        me.try_modexp(&xs[..2], ScalarSet::PerLane(&xs[..1]), auto)
            .unwrap_err(),
        MmmError::LengthMismatch { left: 2, right: 1 }
    );
    // A 65-lane direct batch call is too wide for one engine.
    let wide = vec![Ubig::one(); 65];
    assert_eq!(
        me.try_modexp(&wide, ScalarSet::Shared(&wide[0]), auto)
            .unwrap_err(),
        MmmError::BatchTooWide {
            lanes: 65,
            max_lanes: 64
        }
    );
    // The many-lane path checks per-lane exponent counts too.
    assert_eq!(
        try_modexp_many(
            &params,
            &xs[..2],
            ScalarSet::PerLane(&xs[..1]),
            &EngineConfig::default()
        )
        .unwrap_err(),
        MmmError::LengthMismatch { left: 2, right: 1 }
    );
}

#[test]
fn bitsliced_checkout_on_hardware_unsafe_params_is_rejected() {
    let params = unsafe_params();
    assert!(matches!(
        pool::global().try_checkout_kind(&params, EngineKind::BitSliced),
        Err(MmmError::HardwareUnsafeWidth { l: 8 })
    ));
    assert!(matches!(
        BitSlicedBatch::try_new(params.clone()),
        Err(MmmError::HardwareUnsafeWidth { l: 8 })
    ));
    let ms = vec![Ubig::from(5u64)];
    let three = Ubig::from(3u64);
    let config = EngineConfig::default().with_backend(EngineKind::BitSliced);
    assert_eq!(
        try_modexp_many(&params, &ms, ScalarSet::Shared(&three), &config).unwrap_err(),
        MmmError::HardwareUnsafeWidth { l: 8 }
    );
    // CIOS runs the very same tight parameters happily.
    let cios = EngineConfig::default();
    let got = try_modexp_many(&params, &ms, ScalarSet::Shared(&three), &cios).unwrap();
    assert_eq!(
        got[0],
        Ubig::from(5u64).modpow(&Ubig::from(3u64), params.n())
    );
}

#[test]
fn parameter_construction_rejections_are_typed() {
    assert_eq!(
        MontgomeryParams::try_new(&Ubig::from(100u64), 8).unwrap_err(),
        MmmError::EvenModulus
    );
    assert_eq!(
        MontgomeryParams::try_new(&Ubig::from(257u64), 8).unwrap_err(),
        MmmError::WidthTooNarrow { bits: 9, l: 8 }
    );
    assert_eq!(
        MontgomeryParams::try_new(&Ubig::from(7u64), 2).unwrap_err(),
        MmmError::WidthTooSmall { l: 2 }
    );
    assert_eq!(
        MontgomeryParams::try_new(&Ubig::one(), 4).unwrap_err(),
        MmmError::ModulusTooSmall
    );
    assert!(MontgomeryParams::try_hardware_safe(&Ubig::from(251u64)).is_ok());
}

#[test]
fn bad_config_strings_and_values_are_typed() {
    let err = "coos".parse::<EngineKind>().unwrap_err();
    assert!(matches!(err, MmmError::Config(_)));
    assert!(err.to_string().contains("coos"), "{err}");
    assert_eq!(
        EngineConfig::default()
            .with_window(WindowPolicy::Fixed(9))
            .unwrap_err(),
        MmmError::WindowOutOfRange { window: 9 }
    );
    assert!(matches!(
        EngineConfig::default().with_shard_lanes(65).unwrap_err(),
        MmmError::Config(_)
    ));
    // MmmError is a real std error.
    let boxed: Box<dyn std::error::Error> = Box::new(err);
    assert!(boxed.to_string().contains("invalid configuration"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `try_*` Ok paths are bit-identical to the per-lane reference
    /// oracles (`mont_mul_alg2`, `modpow`), lane for lane, for both
    /// exponent shapes, on every backend and across shard edges — the
    /// sharding and typing layers may add types, never bits.
    #[test]
    fn try_ok_paths_match_legacy_entry_points(
        l in 10usize..60,
        seed in any::<u64>(),
        lane_sel in 0usize..4
    ) {
        let lanes = [1usize, 3, 63, 65][lane_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let n = params.n();
        let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &params)).collect();
        let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &params)).collect();
        let ms: Vec<Ubig> = (0..lanes).map(|_| Ubig::random_below(&mut rng, n)).collect();
        let es: Vec<Ubig> = (0..lanes).map(|_| Ubig::random_bits(&mut rng, l)).collect();
        let e = Ubig::random_bits(&mut rng, l);
        let products: Vec<Ubig> = xs.iter().zip(&ys).map(|(x, y)| mont_mul_alg2(&params, x, y)).collect();
        let powers: Vec<Ubig> = ms.iter().zip(&es).map(|(m, e)| m.modpow(e, n)).collect();
        let shared: Vec<Ubig> = ms.iter().map(|m| m.modpow(&e, n)).collect();
        for kind in EngineKind::ALL {
            // Raw Algorithm-2 outputs (< 2N) are only comparable off
            // the environment: MMM_HARDENED=1 would canonicalize them.
            let config = EngineConfig::default().with_backend(kind);
            prop_assert_eq!(
                &try_mont_mul_many(&params, &xs, &ys, &config).unwrap(),
                &products,
                "mont_mul {}", kind.name()
            );
            prop_assert_eq!(
                &try_modexp_many(&params, &ms, ScalarSet::PerLane(&es), &config).unwrap(),
                &powers,
                "modexp {}", kind.name()
            );
            prop_assert_eq!(
                &try_modexp_many(&params, &ms, ScalarSet::Shared(&e), &config).unwrap(),
                &shared,
                "modexp shared {}", kind.name()
            );
        }
    }
}
