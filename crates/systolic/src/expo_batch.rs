//! [`mmm_core::expo_batch`] checked lane for lane against
//! [`mmm_core::ModExp`] over [`PackedMmmc`].
//!
//! [`PackedMmmc`]: crate::wave_packed::PackedMmmc

mod tests {
    use crate::wave_packed::PackedMmmc;
    use mmm_bigint::Ubig;
    use mmm_core::batch::BitSlicedBatch;
    use mmm_core::modgen::random_safe_params;
    use mmm_core::{BatchModExp, ModExp, ScalarSet, WindowPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Algorithm 3's square-and-multiply-always scan.
    const BINARY: WindowPolicy = WindowPolicy::Fixed(1);

    #[test]
    fn agrees_with_scalar_modexp_over_packed_engine() {
        let mut rng = StdRng::seed_from_u64(302);
        let p = random_safe_params(&mut rng, 32);
        let ms: Vec<Ubig> = (0..8)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let es: Vec<Ubig> = (0..8).map(|_| Ubig::random_bits(&mut rng, 32)).collect();
        let mut batch = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        let got = batch
            .try_modexp(&ms, ScalarSet::PerLane(&es), BINARY)
            .unwrap();
        for k in 0..8 {
            let mut solo = ModExp::new(PackedMmmc::new(p.clone()));
            assert_eq!(got[k], solo.modexp(&ms[k], &es[k]), "lane {k}");
        }
    }
}
