//! Cross-engine property tests for the radix-2⁶⁴ and radix-2⁵² CIOS
//! backends and the backend-dispatch layer: CIOS ≡ CIOS-52 (on every
//! available kernel: portable/avx2/ifma) ≡ bit-sliced ≡
//! `Ubig::modpow`, lane for lane and **bit for bit** (including the
//! non-canonical `< 2N` Montgomery representatives), across
//! word-boundary widths and partial batches; plus round-trip proptests
//! for the word-domain `MontgomeryParams` view and the 64↔52-bit
//! digit-domain conversions.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::batch::{try_mont_mul_many, BitSlicedBatch};
use montgomery_systolic::core::cios::{CiosBatch, CiosMont};
use montgomery_systolic::core::cios52::{
    digits52_to_limbs, limbs_to_digits52, Cios52Batch, Cios52Kernel, DIGIT_BITS, DIGIT_MASK,
};
use montgomery_systolic::core::expo_batch::{try_modexp_many, BatchModExp};
use montgomery_systolic::core::modgen::{random_operand, random_safe_params};
use montgomery_systolic::core::montgomery::MontgomeryParams;
use montgomery_systolic::core::rows::{row_count, ROW_LANES};
use montgomery_systolic::core::{
    AnyBatchEngine, BatchMontMul, EngineConfig, EngineKind, MontMul, ScalarSet, WindowPolicy,
};
use montgomery_systolic::systolic::wave_packed::PackedMmmc;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cios_bit_identical_to_bit_sliced_per_lane(
        l in 30usize..100,
        seed in any::<u64>(),
        lane_sel in 0usize..4
    ) {
        let lanes = [1usize, 3, 63, 64][lane_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &params)).collect();
        let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &params)).collect();

        let mut cios = CiosBatch::new(params.clone());
        let mut bits = BitSlicedBatch::new(params.clone());
        let got = cios.mont_mul_batch(&xs, &ys);
        let want = bits.mont_mul_batch(&xs, &ys);
        prop_assert_eq!(&got, &want, "batch CIOS vs bit-sliced at l={}", l);

        // The radix-2⁵² carry-save engine shares the contract too, on
        // every kernel this host can run.
        for &kernel in Cios52Kernel::available() {
            let mut c52 = Cios52Batch::with_kernel(params.clone(), kernel);
            let got52 = c52.mont_mul_batch(&xs, &ys);
            prop_assert_eq!(&got52, &want, "cios52/{} at l={}", kernel.name(), l);
        }

        // The scalar CIOS engine and the solo packed wave model agree
        // with both, so all four engines share one contract.
        let mut scalar = CiosMont::new(params.clone());
        let mut solo = PackedMmmc::new(params.clone());
        for k in 0..lanes {
            prop_assert_eq!(&got[k], &scalar.mont_mul(&xs[k], &ys[k]), "scalar lane {}", k);
            prop_assert_eq!(&got[k], &solo.mont_mul(&xs[k], &ys[k]), "packed lane {}", k);
        }
    }

    #[test]
    fn windowed_modexp_agrees_across_backends_and_oracle(
        l in 30usize..100,
        seed in any::<u64>(),
        lane_sel in 0usize..4,
        w in 1usize..=5
    ) {
        let lanes = [1usize, 3, 63, 64][lane_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let n = params.n().clone();
        let ms: Vec<Ubig> = (0..lanes).map(|_| Ubig::random_below(&mut rng, &n)).collect();
        // Per-lane exponents of wildly different lengths (including 0).
        let es: Vec<Ubig> = (0..lanes)
            .map(|k| Ubig::random_bits(&mut rng, (k * 17) % (l + 1)))
            .collect();
        let (es, window) = (ScalarSet::PerLane(&es), WindowPolicy::Fixed(w));
        let mut cios = BatchModExp::new(CiosBatch::new(params.clone()));
        let got = cios.try_modexp(&ms, es, window).unwrap();
        let mut bits = BatchModExp::new(BitSlicedBatch::new(params.clone()));
        prop_assert_eq!(&got, &bits.try_modexp(&ms, es, window).unwrap(), "w={}", w);
        let mut c52 = BatchModExp::new(Cios52Batch::new(params.clone()));
        prop_assert_eq!(&got, &c52.try_modexp(&ms, es, window).unwrap(), "cios52 w={}", w);
        for k in 0..lanes {
            prop_assert_eq!(&got[k], &ms[k].modpow(es.get(k), &n), "w={} lane {}", w, k);
        }
    }

    #[test]
    fn dispatch_entry_points_agree_across_kinds(
        l in 10usize..40,
        seed in any::<u64>(),
        count in 1usize..130
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let xs: Vec<Ubig> = (0..count).map(|_| random_operand(&mut rng, &params)).collect();
        let ys: Vec<Ubig> = (0..count).map(|_| random_operand(&mut rng, &params)).collect();
        let ms: Vec<Ubig> = (0..count)
            .map(|_| Ubig::random_below(&mut rng, params.n()))
            .collect();
        let es: Vec<Ubig> = (0..count)
            .map(|_| Ubig::random_bits(&mut rng, l))
            .collect();
        // Sweep *every* backend (not a hardcoded pair) so the next
        // EngineKind addition is covered automatically.
        let config = |kind| EngineConfig::default().with_backend(kind);
        let es = ScalarSet::PerLane(&es);
        let want_mul = try_mont_mul_many(&params, &xs, &ys, &config(EngineKind::ALL[0])).unwrap();
        let want_exp = try_modexp_many(&params, &ms, es, &config(EngineKind::ALL[0])).unwrap();
        for kind in &EngineKind::ALL[1..] {
            prop_assert_eq!(
                try_mont_mul_many(&params, &xs, &ys, &config(*kind)).unwrap(),
                want_mul.clone(),
                "try_mont_mul_many({})",
                kind.name()
            );
            prop_assert_eq!(
                try_modexp_many(&params, &ms, es, &config(*kind)).unwrap(),
                want_exp.clone(),
                "try_modexp_many({})",
                kind.name()
            );
        }
    }

    #[test]
    fn word_domain_conversions_roundtrip(
        l in 5usize..130,
        seed in any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let n = params.n().clone();
        let w = params.word_domain();
        let x = Ubig::random_below(&mut rng, &n);
        // Canonical representatives in both domains, by definition.
        let xb = x.modmul(&params.r_mod_n(), &n);
        let xw = x.modmul(&w.r_mod_n(), &n);
        // Conversions hit the definitional values…
        prop_assert_eq!(&params.bit_to_word_mont(&xb), &xw, "bit→word at l={}", l);
        prop_assert_eq!(&params.word_to_bit_mont(&xw), &xb, "word→bit at l={}", l);
        // …and round-trip in both directions.
        prop_assert_eq!(&params.word_to_bit_mont(&params.bit_to_word_mont(&xb)), &xb);
        prop_assert_eq!(&params.bit_to_word_mont(&params.word_to_bit_mont(&xw)), &xw);
        // Also from a non-canonical (< 2N) bit-domain representative:
        // same residue class, same converted value.
        let xb2 = &xb + &n;
        if params.check_operand(&xb2) {
            prop_assert_eq!(&params.bit_to_word_mont(&xb2), &xw, "non-canonical rep");
        }
    }

    #[test]
    fn digit_domain_conversions_roundtrip_from_limbs(
        ws in prop::collection::vec(any::<u64>(), 1..8)
    ) {
        // 64-bit limbs → 52-bit digits → limbs is the identity, and
        // the digit vector is normalized and value-preserving.
        let digits = (ws.len() * 64).div_ceil(DIGIT_BITS);
        let ds = limbs_to_digits52(&ws, digits);
        prop_assert!(ds.iter().all(|&d| d <= DIGIT_MASK));
        prop_assert_eq!(digits52_to_limbs(&ds, ws.len()), ws.clone());
        // Value check against the big-integer view.
        let v = Ubig::from_limbs(ws.clone());
        let mut back = Ubig::zero();
        for &dig in ds.iter().rev() {
            back = (&back << DIGIT_BITS) + Ubig::from(dig);
        }
        prop_assert_eq!(back, v);
    }

    #[test]
    fn digit_domain_conversions_roundtrip_from_digits(
        raw in prop::collection::vec(any::<u64>(), 1..10)
    ) {
        // Normalized 52-bit digits → limbs → digits is the identity
        // (the other direction of the round trip).
        let ds: Vec<u64> = raw.iter().map(|&v| v & DIGIT_MASK).collect();
        let limbs = (ds.len() * DIGIT_BITS).div_ceil(64);
        let ws = digits52_to_limbs(&ds, limbs);
        prop_assert_eq!(limbs_to_digits52(&ws, ds.len()), ds);
    }
}

/// Deterministic regression at the exact widths the issue calls out:
/// word-boundary widths (63/64/65) and the RSA serving sizes (256,
/// 1024), every partial batch size, mont_mul bit-identity.
#[test]
fn cios_bit_identity_at_word_boundary_and_serving_widths() {
    let mut rng = StdRng::seed_from_u64(0xC105);
    for l in [63usize, 64, 65, 256, 1024] {
        let params = random_safe_params(&mut rng, l);
        let mut cios = CiosBatch::new(params.clone());
        let mut bits = BitSlicedBatch::new(params.clone());
        let mut scalar = CiosMont::new(params.clone());
        // Every radix-2⁵² kernel this host can run joins the grid.
        let mut c52: Vec<Cios52Batch> = Cios52Kernel::available()
            .iter()
            .map(|&k| Cios52Batch::with_kernel(params.clone(), k))
            .collect();
        for lanes in [1usize, 3, 63, 64] {
            let xs: Vec<Ubig> = (0..lanes)
                .map(|_| random_operand(&mut rng, &params))
                .collect();
            let ys: Vec<Ubig> = (0..lanes)
                .map(|_| random_operand(&mut rng, &params))
                .collect();
            let got = cios.mont_mul_batch(&xs, &ys);
            let want = bits.mont_mul_batch(&xs, &ys);
            assert_eq!(got, want, "l={l} lanes={lanes}");
            assert_eq!(
                got[lanes - 1],
                scalar.mont_mul(&xs[lanes - 1], &ys[lanes - 1]),
                "l={l} lanes={lanes} scalar"
            );
            for e in c52.iter_mut() {
                assert_eq!(
                    e.mont_mul_batch(&xs, &ys),
                    want,
                    "cios52/{} l={l} lanes={lanes}",
                    e.kernel().name()
                );
            }
        }
    }
}

/// The per-lane path (narrow batches) and the 64-lane kernels on both
/// sides of their boundary, on `CiosBatch` and on `Cios52Batch` with
/// every kernel: every lane count `1..=64`, alternately wide and narrow
/// on one reused engine, with random operands and the worst cases 0,
/// N−1 and 2N−1. Each lane must equal Algorithm 2 and a 64-lane call —
/// the raw `< 2N` representative when unhardened, the canonical `< N`
/// residue when hardened. The widths straddle the 64-bit word and
/// include (l+2) mod 52 = 0, 1 and 51 (l = 102, 103, 257). The rows
/// entry (`try_mont_mul_rows`) runs the same sweep on every backend and
/// every radix-2⁵² kernel, with its dead columns filled with all-ones
/// limbs that it must ignore.
#[test]
fn cios_per_lane_and_soa_paths_agree_across_the_lane_boundary() {
    use montgomery_systolic::core::montgomery::mont_mul_alg2;
    use montgomery_systolic::core::HardeningMode;
    let mut rng = StdRng::seed_from_u64(0xC108);
    for l in [
        62usize, 63, 64, 65, 102, 103, 126, 254, 256, 257, 510, 512, 1022, 1024,
    ] {
        let params = random_safe_params(&mut rng, l);
        let edges = [
            Ubig::zero(),
            params.n() - &Ubig::one(),
            &params.two_n() - &Ubig::one(),
        ];
        let (mut xs, mut ys): (Vec<Ubig>, Vec<Ubig>) = edges
            .iter()
            .flat_map(|a| edges.iter().map(move |b| (a.clone(), b.clone())))
            .unzip();
        while xs.len() < 64 {
            xs.push(random_operand(&mut rng, &params));
            ys.push(random_operand(&mut rng, &params));
        }
        let alg2: Vec<Ubig> = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| mont_mul_alg2(&params, x, y))
            .collect();
        for mode in [HardeningMode::Off, HardeningMode::Hardened] {
            let want: Vec<Ubig> = if mode.is_hardened() {
                alg2.iter().map(|v| v.rem(params.n())).collect()
            } else {
                alg2.clone()
            };
            // The Vec<Ubig> entry of CiosBatch and of every Cios52Batch
            // kernel.
            let mut vec_engines: Vec<AnyBatchEngine> = rows_engines(&params)
                .into_iter()
                .filter(|e| e.kind() != EngineKind::BitSliced)
                .collect();
            for e in vec_engines.iter_mut() {
                e.set_hardening(mode);
                assert_eq!(
                    e.mont_mul_batch(&xs, &ys),
                    want,
                    "{} l={l} ({mode:?})",
                    e.name()
                );
            }
            let mut rows_engines = rows_engines(&params);
            for e in rows_engines.iter_mut() {
                e.set_hardening(mode);
            }
            let rows = row_count(&params);
            let mut out = Vec::new();
            let mut out_rows = vec![0; rows * ROW_LANES];
            for lanes in (1..=32).flat_map(|i| [65 - i, i]) {
                let idx: Vec<usize> = (0..lanes).map(|k| (7 * lanes + k) % 64).collect();
                let lx: Vec<Ubig> = idx.iter().map(|&i| xs[i].clone()).collect();
                let ly: Vec<Ubig> = idx.iter().map(|&i| ys[i].clone()).collect();
                for e in vec_engines.iter_mut() {
                    e.mont_mul_batch_into(&lx, &ly, &mut out);
                    assert_eq!(out.len(), lanes);
                    for (k, &i) in idx.iter().enumerate() {
                        assert_eq!(
                            out[k],
                            want[i],
                            "{} l={l} lanes={lanes} lane {k} ({mode:?})",
                            e.name()
                        );
                        assert!(!mode.is_hardened() || out[k] < *params.n(), "not canonical");
                    }
                }
                let (rx, ry) = (to_rows(&lx, rows), to_rows(&ly, rows));
                for e in rows_engines.iter_mut() {
                    e.try_mont_mul_rows(&rx, &ry, lanes, &mut out_rows).unwrap();
                    for (k, &i) in idx.iter().enumerate() {
                        assert_eq!(
                            lane_of(&out_rows, rows, k),
                            want[i],
                            "rows on {} l={l} lanes={lanes} lane {k} ({mode:?})",
                            e.name()
                        );
                    }
                }
            }
        }
    }
}

/// Carry headroom at every residue: the rows entry at 64 live lanes on
/// the densest operands there are — the all-ones modulus `N = 2^l − 1`
/// and `x = y = 2N − 1` in every lane.
/// - Radix 2⁵²: every `(l+2) mod 52` residue, twice (l = 250..=301 and
///   1022..=1073); the portable kernel is diffed against `CiosBatch`
///   and every other kernel against the portable one.
/// - Radix 2⁶⁴: every `(l+2) mod 64` residue (l = 254..=317) on both
///   of `CiosBatch`'s paths, one lane (the per-lane scan) and 64 (the
///   SoA kernel).
/// - The per-lane scan at every limb count `s = 1..=18`, at both ends
///   of the partial step: l = 64s − 2 (no partial step) and l = 64s − 3
///   (a 63-bit one), hardened and not, on `CiosBatch` and `Cios52Batch`
///   at 1 and 32 lanes, both as a squaring and on two equal operands,
///   and on `CiosMont`. A width the kernel instantiates at a
///   compile-time limb count is separate code, so each is covered.
///
/// One lane per width is checked against Algorithm 2 and the rest
/// diffed, which keeps the debug-build run short; a debug build also
/// asserts the 2⁵⁵ transient-digit budget inside every radix-2⁵²
/// kernel and that no scan leaves a carry above its `s` limbs.
#[test]
fn carry_headroom_at_every_residue() {
    use montgomery_systolic::core::montgomery::mont_mul_alg2;
    use montgomery_systolic::core::HardeningMode;
    let dense = |l: usize| {
        let n = &Ubig::pow2(l) - &Ubig::one();
        let params = MontgomeryParams::new(&n, l);
        let x = &params.two_n() - &Ubig::one();
        let rows = to_rows(&vec![x.clone(); 64], row_count(&params));
        let want = mont_mul_alg2(&params, &x, &x);
        (params, rows, want)
    };
    let square = |e: &mut dyn BatchMontMul, x: &[u64], lanes: usize| {
        let mut out = vec![0; x.len()];
        e.try_mont_mul_rows(x, x, lanes, &mut out).unwrap();
        out
    };
    for l in (250..=301).chain(1022..=1073) {
        let (params, x, want) = dense(l);
        let cios = square(&mut CiosBatch::new(params.clone()), &x, 64);
        assert_eq!(lane_of(&cios, row_count(&params), 0), want, "l={l}");
        let mut portable = Cios52Batch::with_kernel(params.clone(), Cios52Kernel::Portable);
        let portable = square(&mut portable, &x, 64);
        assert_eq!(portable, cios, "portable l={l}");
        for &kernel in Cios52Kernel::available() {
            let mut e = Cios52Batch::with_kernel(params.clone(), kernel);
            assert_eq!(square(&mut e, &x, 64), portable, "{} l={l}", kernel.name());
        }
    }
    for l in 254..=317 {
        let (params, x, want) = dense(l);
        let rows = row_count(&params);
        let mut cios = CiosBatch::new(params.clone());
        let one = square(&mut cios, &x, 1);
        assert_eq!(lane_of(&one, rows, 0), want, "per-lane l={l}");
        let soa = square(&mut cios, &x, 64);
        for k in 0..64 {
            assert_eq!(lane_of(&soa, rows, k), want, "SoA l={l} lane {k}");
        }
    }
    for l in (1..=18).flat_map(|s| [64 * s - 2, 64 * s - 3]) {
        let (params, x, raw) = dense(l);
        let rows = row_count(&params);
        let twin = x.clone();
        for mode in [HardeningMode::Off, HardeningMode::Hardened] {
            let want = if mode.is_hardened() {
                raw.rem(params.n())
            } else {
                raw.clone()
            };
            let mut cios = CiosBatch::new(params.clone());
            let mut cios52 = Cios52Batch::new(params.clone());
            let engines: [&mut dyn BatchMontMul; 2] = [&mut cios, &mut cios52];
            for e in engines {
                e.set_hardening(mode);
                for (lanes, y) in [(1, &x), (32, &x), (1, &twin), (32, &twin)] {
                    let mut out = vec![0; x.len()];
                    e.try_mont_mul_rows(&x, y, lanes, &mut out).unwrap();
                    let what = format!("{} l={l} lanes={lanes} ({mode:?})", e.name());
                    assert_eq!(lane_of(&out, rows, 0), want, "{what}");
                    for k in 1..lanes {
                        assert_eq!(lane_of(&out, rows, k), want, "{what} lane {k}");
                    }
                }
            }
        }
        let x = lane_of(&x, rows, 0);
        let got = CiosMont::new(params.clone()).mont_mul(&x, &x);
        assert_eq!(got, raw, "CiosMont l={l}");
    }
}

/// One engine per backend and per radix-2⁵² kernel, for the rows-entry
/// sweeps.
fn rows_engines(params: &MontgomeryParams) -> Vec<AnyBatchEngine> {
    let mut engines = vec![
        EngineKind::Cios.build(params.clone()),
        EngineKind::BitSliced.build(params.clone()),
    ];
    engines.extend(
        Cios52Kernel::available()
            .iter()
            .map(|&k| AnyBatchEngine::Cios52(Cios52Batch::with_kernel(params.clone(), k))),
    );
    engines
}

/// `vals` in the rows layout: lane `k`'s limb `j` at `[j·64 + k]`, and
/// all-ones limbs in every dead column.
fn to_rows(vals: &[Ubig], rows: usize) -> Vec<u64> {
    let mut out = vec![u64::MAX; rows * ROW_LANES];
    for (k, v) in vals.iter().enumerate() {
        for j in 0..rows {
            out[j * ROW_LANES + k] = v.limbs().get(j).copied().unwrap_or(0);
        }
    }
    out
}

/// Lane `k` of a rows buffer.
fn lane_of(buf: &[u64], rows: usize, k: usize) -> Ubig {
    Ubig::from_limbs((0..rows).map(|j| buf[j * ROW_LANES + k]).collect())
}

/// The rows entry's typed errors, on every backend, every radix-2⁵²
/// kernel and through the pool: a live lane `≥ 2N` is named (on both
/// sides of the CIOS per-lane bound, in either operand) and `out` is
/// left as it was, a dead one is ignored, a buffer of the wrong length
/// and a lane count outside `1..=64` are rejected.
#[test]
fn rows_entry_reports_typed_errors() {
    use montgomery_systolic::core::{pool, MmmError, OperandBound};
    let mut rng = StdRng::seed_from_u64(0xC109);
    let params = random_safe_params(&mut rng, 130);
    let rows = row_count(&params);
    let good: Vec<Ubig> = (0..64).map(|_| random_operand(&mut rng, &params)).collect();
    let mut engines: Vec<Box<dyn BatchMontMul>> = rows_engines(&params)
        .into_iter()
        .map(|e| Box::new(e) as Box<dyn BatchMontMul>)
        .collect();
    engines.push(Box::new(
        pool::global().checkout_kind(&params, EngineKind::Cios),
    ));
    let out_of_range = |lane| {
        Err(MmmError::OperandOutOfRange {
            lane,
            bound: OperandBound::TwoN,
        })
    };
    for e in engines.iter_mut() {
        let name = e.name();
        let mut out = vec![0; rows * ROW_LANES];
        for (lanes, bad) in [(3usize, 2usize), (40, 37), (64, 63)] {
            let mut xs = good[..lanes].to_vec();
            xs[bad] = params.two_n();
            let (x, y) = (to_rows(&xs, rows), to_rows(&good[..lanes], rows));
            let before = out.clone();
            assert_eq!(
                e.try_mont_mul_rows(&x, &y, lanes, &mut out),
                out_of_range(bad),
                "{name} x"
            );
            assert_eq!(
                e.try_mont_mul_rows(&y, &x, lanes, &mut out),
                out_of_range(bad),
                "{name} y"
            );
            // A rejected call writes no lane, not even the good ones
            // below the bad one.
            assert_eq!(out, before, "{name} out untouched");
            // The same value in a dead column is not an operand.
            assert_eq!(
                e.try_mont_mul_rows(&x, &y, bad, &mut out),
                Ok(()),
                "{name} dead"
            );
        }
        let x = to_rows(&good, rows);
        let short = &x[..x.len() - 1];
        let mismatch = Err(MmmError::LengthMismatch {
            left: x.len() - 1,
            right: x.len(),
        });
        assert_eq!(
            e.try_mont_mul_rows(short, &x, 5, &mut out),
            mismatch,
            "{name}"
        );
        assert_eq!(
            e.try_mont_mul_rows(&x, short, 5, &mut out),
            mismatch,
            "{name}"
        );
        assert_eq!(
            e.try_mont_mul_rows(&x, &x, 5, &mut out[1..]),
            mismatch,
            "{name}"
        );
        assert_eq!(
            e.try_mont_mul_rows(&x, &x, 0, &mut out),
            Err(MmmError::EmptyBatch),
            "{name}"
        );
        assert_eq!(
            e.try_mont_mul_rows(&x, &x, 65, &mut out),
            Err(MmmError::BatchTooWide {
                lanes: 65,
                max_lanes: 64
            }),
            "{name}"
        );
    }
}

/// The `< 2N` range check of a wide call, which the radix-2⁵² engine
/// runs inside its kernel's vector region, on every backend and every
/// radix-2⁵² kernel. One out-of-range operand — `2N`, `2N + 1`,
/// `2^{64s} − 1`, or `2N`'s top limb over all-ones lower limbs — in `x`
/// or in `y`, at each live lane 32..=63 of a 64-lane call and at lane 33
/// of a 48-lane call, is named, and so is the lower lane when the other
/// operand is also bad one lane above it; `out` is left as it was. Clean
/// calls with all-ones dead columns equal `CiosBatch` lane for lane,
/// hardened and unhardened. l = 254 fills its top limb; l = 257 is
/// P-256's width.
#[test]
fn wide_range_check_names_the_lane_on_every_kernel() {
    use montgomery_systolic::core::{HardeningMode, MmmError, OperandBound};
    let mut rng = StdRng::seed_from_u64(0xC10A);
    let out_of_range = |lane| {
        Err(MmmError::OperandOutOfRange {
            lane,
            bound: OperandBound::TwoN,
        })
    };
    for l in [254usize, 257] {
        let params = random_safe_params(&mut rng, l);
        let rows = row_count(&params);
        let two_n = params.two_n();
        let low_ones = &Ubig::pow2(64 * (rows - 1)) - &Ubig::one();
        let top = Ubig::from(two_n.limbs()[rows - 1]);
        let bad = [
            two_n.clone(),
            &two_n + &Ubig::one(),
            &Ubig::pow2(64 * rows) - &Ubig::one(),
            &(&top << (64 * (rows - 1))) + &low_ones,
        ];
        assert!(bad.iter().all(|v| *v >= two_n && v.limbs().len() <= rows));
        let good: Vec<Ubig> = (0..64).map(|_| random_operand(&mut rng, &params)).collect();
        let sentinel: Vec<u64> = (0..(rows * ROW_LANES) as u64)
            .map(|i| 0x5EED_0000 + i)
            .collect();
        let cases: Vec<(usize, usize)> =
            (32..64).map(|lane| (64, lane)).chain([(48, 33)]).collect();
        for mode in [HardeningMode::Off, HardeningMode::Hardened] {
            let mut cios = CiosBatch::new(params.clone());
            cios.set_hardening(mode);
            for mut e in rows_engines(&params) {
                e.set_hardening(mode);
                let name = e.name();
                for &(lanes, lane) in &cases {
                    for v in &bad {
                        for bad_in_x in [true, false] {
                            let (mut xs, mut ys) = (good[..lanes].to_vec(), good[..lanes].to_vec());
                            let (first, other) = if bad_in_x {
                                (&mut xs, &mut ys)
                            } else {
                                (&mut ys, &mut xs)
                            };
                            first[lane] = v.clone();
                            if lane + 1 < lanes {
                                other[lane + 1] = v.clone();
                            }
                            let mut out = sentinel.clone();
                            let (x, y) = (to_rows(&xs, rows), to_rows(&ys, rows));
                            assert_eq!(
                                e.try_mont_mul_rows(&x, &y, lanes, &mut out),
                                out_of_range(lane),
                                "{name} l={l} lanes={lanes} lane {lane} x={bad_in_x} v={v} ({mode:?})"
                            );
                            assert!(out == sentinel, "{name} l={l} lane {lane}: out written");
                        }
                    }
                }
                if e.kind() != EngineKind::Cios52 {
                    continue;
                }
                for lanes in [64, 48] {
                    let (x, y) = (
                        to_rows(&good[..lanes], rows),
                        to_rows(&good[64 - lanes..], rows),
                    );
                    let (mut want, mut got) = (sentinel.clone(), sentinel.clone());
                    cios.try_mont_mul_rows(&x, &y, lanes, &mut want).unwrap();
                    e.try_mont_mul_rows(&x, &y, lanes, &mut got).unwrap();
                    for k in 0..lanes {
                        assert_eq!(
                            lane_of(&got, rows, k),
                            lane_of(&want, rows, k),
                            "{name} l={l} lanes={lanes} lane {k} ({mode:?})"
                        );
                    }
                }
            }
        }
    }
}

/// Deterministic regression: windowed batch exponentiation agrees
/// across backends and with the big-integer oracle at word-boundary
/// widths and at l = 256 (exponents kept short so the bit-sliced
/// oracle stays fast in debug builds).
#[test]
fn windowed_modexp_cross_backend_word_boundary_widths() {
    let mut rng = StdRng::seed_from_u64(0xC106);
    for l in [63usize, 64, 65, 256] {
        let params = random_safe_params(&mut rng, l);
        let n = params.n().clone();
        let ebits = l.min(72);
        for lanes in [1usize, 64] {
            let ms: Vec<Ubig> = (0..lanes)
                .map(|_| Ubig::random_below(&mut rng, &n))
                .collect();
            let es: Vec<Ubig> = (0..lanes)
                .map(|_| Ubig::random_bits(&mut rng, ebits))
                .collect();
            let (es, auto) = (ScalarSet::PerLane(&es), WindowPolicy::Auto);
            let mut cios = BatchModExp::new(CiosBatch::new(params.clone()));
            let got = cios.try_modexp(&ms, es, auto).unwrap();
            let mut bits = BatchModExp::new(BitSlicedBatch::new(params.clone()));
            let want = bits.try_modexp(&ms, es, auto).unwrap();
            assert_eq!(got, want, "l={l} lanes={lanes}");
            for k in 0..lanes {
                assert_eq!(got[k], ms[k].modpow(es.get(k), &n), "l={l} lane {k}");
            }
        }
    }
}

/// The CIOS backend has no hardware-safety constraint: at `tight`
/// widths (where the systolic array would drop its leftmost carry)
/// it must still match Algorithm 2 exactly.
#[test]
fn cios_handles_hardware_unsafe_tight_widths() {
    use montgomery_systolic::core::montgomery::mont_mul_alg2;
    let mut rng = StdRng::seed_from_u64(0xC107);
    for bits in [64usize, 65, 128] {
        // Force a modulus in the unsafe band N ≳ ⅔·2^l.
        let mut n = Ubig::pow2(bits) - Ubig::one();
        if n.is_even() {
            n = n - Ubig::one();
        }
        let params = MontgomeryParams::tight(&n);
        assert!(!params.is_hardware_safe(), "bits={bits}");
        let mut batch = CiosBatch::new(params.clone());
        let xs: Vec<Ubig> = (0..8).map(|_| random_operand(&mut rng, &params)).collect();
        let got = batch.mont_mul_batch(&xs, &xs);
        for k in 0..8 {
            assert_eq!(got[k], mont_mul_alg2(&params, &xs[k], &xs[k]), "lane {k}");
        }
        // The radix-2⁵² engine is equally unconstrained.
        for &kernel in Cios52Kernel::available() {
            let mut c52 = Cios52Batch::with_kernel(params.clone(), kernel);
            assert_eq!(
                c52.mont_mul_batch(&xs, &xs),
                got,
                "cios52/{} bits={bits}",
                kernel.name()
            );
        }
    }
}

/// Every member of `EngineKind::ALL` round-trips through its stable
/// name — so the *next* backend addition is caught automatically if
/// its `FromStr` arm is forgotten.
#[test]
fn every_engine_kind_roundtrips_through_fromstr() {
    for kind in EngineKind::ALL {
        assert_eq!(
            kind.name().parse::<EngineKind>().as_ref(),
            Ok(&kind),
            "{} must parse back to {:?}",
            kind.name(),
            kind
        );
    }
    assert_eq!(EngineKind::ALL.len(), EngineKind::available().len());
}
