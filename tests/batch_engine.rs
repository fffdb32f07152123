//! Cross-engine property tests for the bit-sliced batch engine: every
//! lane of a batch must be **bit-identical** to a solo run of the
//! packed wave model, across random widths spanning `u64` word
//! boundaries and partial batches — the batched exponentiator must
//! agree with the big-integer oracle at every window width (`w = 1`
//! being the binary scan) and make only rows calls — and batched CRT
//! decryption must match the scalar CRT path lane for lane.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::batch::{try_mont_mul_many, BitSlicedBatch, SequentialBatch};
use montgomery_systolic::core::expo_batch::BatchModExp;
use montgomery_systolic::core::modgen::random_safe_params;
use montgomery_systolic::core::{
    BatchMontMul, EngineConfig, EngineKind, MmmError, MontMul, MontgomeryParams, ScalarSet,
    WindowPolicy,
};
use montgomery_systolic::rsa::{decrypt_crt, KeyedSession, RsaKeyPair};
use montgomery_systolic::systolic::wave_packed::PackedMmmc;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_lane_bit_identical_to_solo_packed(
        // Widths spanning the u64 word boundary (position vectors are
        // l + 2 bits, so l = 62 puts the top cell at a word edge).
        l in 30usize..100,
        seed in any::<u64>(),
        lane_sel in 0usize..4
    ) {
        let lanes = [1usize, 3, 63, 64][lane_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let xs: Vec<Ubig> = (0..lanes)
            .map(|_| montgomery_systolic::core::modgen::random_operand(&mut rng, &params))
            .collect();
        let ys: Vec<Ubig> = (0..lanes)
            .map(|_| montgomery_systolic::core::modgen::random_operand(&mut rng, &params))
            .collect();

        let mut batch = BitSlicedBatch::new(params.clone());
        let got = batch.mont_mul_batch(&xs, &ys);

        let mut solo = PackedMmmc::new(params.clone());
        for k in 0..lanes {
            let want = solo.mont_mul(&xs[k], &ys[k]);
            prop_assert_eq!(
                &got[k], &want,
                "lane {} of {} diverged from solo packed run at l={}", k, lanes, l
            );
        }
    }

    #[test]
    fn sharded_many_lanes_match_sequential_adapter(
        l in 10usize..40,
        seed in any::<u64>(),
        count in 1usize..150
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let xs: Vec<Ubig> = (0..count)
            .map(|_| montgomery_systolic::core::modgen::random_operand(&mut rng, &params))
            .collect();
        let ys: Vec<Ubig> = (0..count)
            .map(|_| montgomery_systolic::core::modgen::random_operand(&mut rng, &params))
            .collect();
        // The process-default backend, but not the rest of the
        // environment: MMM_HARDENED=1 would canonicalize the raw
        // Algorithm-2 outputs compared below.
        let config = EngineConfig::default().with_backend(EngineKind::default_kind());
        let got = try_mont_mul_many(&params, &xs, &ys, &config).unwrap();
        let mut seq = SequentialBatch::new(PackedMmmc::new(params.clone()));
        let want = seq.mont_mul_batch(&xs, &ys);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn windowed_batch_modexp_matches_ubig_modpow(
        // Widths spanning the u64 word boundary, every partial batch
        // size, every practical window width (w = 1 is Algorithm 3's
        // binary scan).
        l in 16usize..100,
        seed in any::<u64>(),
        lane_sel in 0usize..5,
        w in 1usize..=6
    ) {
        let lanes = [1usize, 3, 17, 63, 64][lane_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let n = params.n().clone();
        let ms: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, &n))
            .collect();
        // Per-lane exponents of wildly different lengths (including 0).
        let es: Vec<Ubig> = (0..lanes)
            .map(|k| Ubig::random_bits(&mut rng, (k * 17) % (l + 1)))
            .collect();
        let mut me = BatchModExp::new(BitSlicedBatch::new(params.clone()));
        let got = me
            .try_modexp(&ms, ScalarSet::PerLane(&es), WindowPolicy::Fixed(w))
            .unwrap();
        for k in 0..lanes {
            prop_assert_eq!(
                &got[k],
                &ms[k].modpow(&es[k], &n),
                "w={} lane {} (exponent bits {})", w, k, es[k].bit_len()
            );
        }
        // The stats ledger must stay internally consistent.
        let s = me.stats();
        prop_assert_eq!(
            s.total_batch_muls,
            s.squarings + s.multiplications + s.table_muls + 2
        );
    }

    #[test]
    fn crt_batch_decrypt_matches_scalar_crt(
        // Modulus sizes whose half-width engines straddle the u64
        // word boundary (primes of 31–66 bits).
        bits_sel in 0usize..5,
        seed in any::<u64>(),
        lane_sel in 0usize..4
    ) {
        let bits = [62usize, 96, 124, 128, 132][bits_sel];
        let lanes = [1usize, 3, 63, 64][lane_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = RsaKeyPair::generate(&mut rng, bits, 8);
        let cs: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, &kp.n))
            .collect();
        let config = EngineConfig::default().with_backend(EngineKind::default_kind());
        let got = KeyedSession::new(kp.clone(), config).unwrap().decrypt_crt(&cs).unwrap();
        for k in 0..lanes {
            prop_assert_eq!(
                &got[k],
                &decrypt_crt(&kp, &cs[k]),
                "lane {} of {} at {} key bits", k, lanes, bits
            );
        }
    }

    #[test]
    fn batch_modexp_matches_ubig_modpow(
        l in 16usize..48,
        seed in any::<u64>(),
        lanes in 1usize..20
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let n = params.n().clone();
        let ms: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, &n))
            .collect();
        // Per-lane exponents of wildly different lengths (including 0).
        let es: Vec<Ubig> = (0..lanes)
            .map(|k| Ubig::random_bits(&mut rng, (k * 13) % (l + 1)))
            .collect();
        // Algorithm 3's square-and-multiply-always scan.
        let mut me = BatchModExp::new(BitSlicedBatch::new(params.clone()));
        let got = me
            .try_modexp(&ms, ScalarSet::PerLane(&es), WindowPolicy::Fixed(1))
            .unwrap();
        for k in 0..lanes {
            prop_assert_eq!(
                &got[k],
                &ms[k].modpow(&es[k], &n),
                "lane {} (exponent bits {})", k, es[k].bit_len()
            );
        }
    }
}

/// Deterministic regression: the windowed batched exponentiator at
/// the exact word-boundary widths, full-length per-lane exponents,
/// partial and full batches, auto-picked window.
#[test]
fn windowed_modexp_word_boundary_widths() {
    let mut rng = StdRng::seed_from_u64(0xF1D0);
    for l in [62usize, 63, 64, 65, 66, 126, 128] {
        let params = random_safe_params(&mut rng, l);
        let n = params.n().clone();
        for lanes in [1usize, 3, 64] {
            let ms: Vec<Ubig> = (0..lanes)
                .map(|_| Ubig::random_below(&mut rng, &n))
                .collect();
            let es: Vec<Ubig> = (0..lanes).map(|_| Ubig::random_bits(&mut rng, l)).collect();
            let mut me = BatchModExp::new(BitSlicedBatch::new(params.clone()));
            let got = me
                .try_modexp(&ms, ScalarSet::PerLane(&es), WindowPolicy::Auto)
                .unwrap();
            for k in 0..lanes {
                assert_eq!(
                    got[k],
                    ms[k].modpow(&es[k], &n),
                    "l={l} lanes={lanes} lane={k}"
                );
            }
        }
    }
}

/// Deterministic regression: the exact widths where the packed model's
/// word handling historically needed edge patches (62–66 around the
/// `l + 2 = 64` boundary), all four partial batch sizes each.
#[test]
fn word_boundary_widths_all_partial_batch_sizes() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    for l in [62usize, 63, 64, 65, 66, 126, 127, 128] {
        let params = random_safe_params(&mut rng, l);
        let mut batch = BitSlicedBatch::new(params.clone());
        let mut solo = PackedMmmc::new(params.clone());
        for lanes in [1usize, 3, 63, 64] {
            let xs: Vec<Ubig> = (0..lanes)
                .map(|_| montgomery_systolic::core::modgen::random_operand(&mut rng, &params))
                .collect();
            let ys: Vec<Ubig> = (0..lanes)
                .map(|_| montgomery_systolic::core::modgen::random_operand(&mut rng, &params))
                .collect();
            let got = batch.mont_mul_batch(&xs, &ys);
            for k in 0..lanes {
                assert_eq!(
                    got[k],
                    solo.mont_mul(&xs[k], &ys[k]),
                    "l={l} lanes={lanes} lane={k}"
                );
            }
        }
    }
}

/// Batched CRT decryption fanned out from inside a parallel map: each
/// of four ciphertext groups is decrypted by a `decrypt_crt` call that
/// fans its own halves out, nested in the outer `par_iter`, on every
/// backend.
#[test]
fn crt_decrypt_nested_in_par_iter_matches_scalar_crt() {
    use rayon::prelude::*;
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let kp = RsaKeyPair::generate(&mut rng, 128, 8);
    let groups: Vec<Vec<Ubig>> = [1usize, 3, 2, 5]
        .iter()
        .map(|&lanes| {
            (0..lanes)
                .map(|_| Ubig::random_below(&mut rng, &kp.n))
                .collect()
        })
        .collect();
    for &kind in EngineKind::available() {
        let session =
            KeyedSession::new(kp.clone(), EngineConfig::default().with_backend(kind)).unwrap();
        let got: Vec<Vec<Ubig>> = groups
            .par_iter()
            .map(|cs| session.decrypt_crt(cs).unwrap())
            .collect();
        for (g, (cs, ms)) in groups.iter().zip(&got).enumerate() {
            assert_eq!(ms.len(), cs.len(), "{kind:?} group {g}");
            for (k, (c, m)) in cs.iter().zip(ms).enumerate() {
                assert_eq!(m, &decrypt_crt(&kp, c), "{kind:?} group {g} lane {k}");
            }
        }
    }
}

/// Counts the `Vec<Ubig>` and rows calls into the engine it wraps;
/// results pass through unchanged.
struct CallCount<E> {
    inner: E,
    vec_calls: u64,
    rows_calls: u64,
}

impl<E: BatchMontMul> BatchMontMul for CallCount<E> {
    fn params(&self) -> &MontgomeryParams {
        self.inner.params()
    }

    fn max_lanes(&self) -> usize {
        self.inner.max_lanes()
    }

    fn mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Vec<Ubig> {
        self.vec_calls += 1;
        self.inner.mont_mul_batch(xs, ys)
    }

    fn mont_mul_batch_into(&mut self, xs: &[Ubig], ys: &[Ubig], out: &mut Vec<Ubig>) {
        self.vec_calls += 1;
        self.inner.mont_mul_batch_into(xs, ys, out);
    }

    fn try_mont_mul_rows(
        &mut self,
        x: &[u64],
        y: &[u64],
        lanes: usize,
        out: &mut [u64],
    ) -> Result<(), MmmError> {
        self.rows_calls += 1;
        self.inner.try_mont_mul_rows(x, y, lanes, out)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[test]
fn scan_makes_only_rows_calls() {
    // Every engine call of the scan, the domain transforms
    // included, is one rows call: no lane is converted per call.
    let mut rng = StdRng::seed_from_u64(320);
    let p = random_safe_params(&mut rng, 96);
    let e = Ubig::random_bits(&mut rng, 96);
    for kind in EngineKind::ALL {
        for lanes in [1usize, 3, 33, 64] {
            let ms: Vec<Ubig> = (0..lanes)
                .map(|_| Ubig::random_below(&mut rng, p.n()))
                .collect();
            for w in [1usize, 5] {
                let mut me = BatchModExp::new(CallCount {
                    inner: kind.build(p.clone()),
                    vec_calls: 0,
                    rows_calls: 0,
                });
                let got = me
                    .try_modexp(&ms, ScalarSet::Shared(&e), WindowPolicy::Fixed(w))
                    .unwrap();
                let what = format!("{} lanes={lanes} w={w}", kind.name());
                for (k, m) in ms.iter().enumerate() {
                    assert_eq!(got[k], m.modpow(&e, p.n()), "{what} lane {k}");
                }
                assert_eq!(me.engine().vec_calls, 0, "{what}");
                assert_eq!(
                    me.engine().rows_calls,
                    me.stats().total_batch_muls,
                    "{what}"
                );
            }
        }
    }
}
