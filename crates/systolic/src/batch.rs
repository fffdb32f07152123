//! [`mmm_core::batch`] checked lane for lane against [`PackedMmmc`].
//!
//! [`PackedMmmc`]: crate::wave_packed::PackedMmmc

mod tests {
    use crate::wave_packed::PackedMmmc;
    use mmm_bigint::Ubig;
    use mmm_core::batch::{BitSlicedBatch, SequentialBatch};
    use mmm_core::modgen::{random_operand, random_safe_params};
    use mmm_core::traits::{BatchMontMul, MontMul};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_lane_matches_solo_packed_engine() {
        let mut rng = StdRng::seed_from_u64(201);
        for l in [3usize, 8, 31, 63, 64, 65, 130] {
            let p = random_safe_params(&mut rng, l);
            let lanes = 64.min(2 * l);
            let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let mut batch = BitSlicedBatch::new(p.clone());
            let got = batch.mont_mul_batch(&xs, &ys);
            assert_eq!(batch.consumed_cycles(), Some((3 * l + 4) as u64));
            let mut solo = PackedMmmc::new(p.clone());
            for k in 0..lanes {
                assert_eq!(
                    got[k],
                    solo.mont_mul(&xs[k], &ys[k]),
                    "lane {k} diverged at l={l}"
                );
            }
        }
    }

    #[test]
    fn sequential_adapter_agrees_with_batch() {
        let mut rng = StdRng::seed_from_u64(204);
        let p = random_safe_params(&mut rng, 33);
        let xs: Vec<Ubig> = (0..10).map(|_| random_operand(&mut rng, &p)).collect();
        let ys: Vec<Ubig> = (0..10).map(|_| random_operand(&mut rng, &p)).collect();
        let mut seq = SequentialBatch::new(PackedMmmc::new(p.clone()));
        let mut bat = BitSlicedBatch::new(p.clone());
        assert_eq!(seq.mont_mul_batch(&xs, &ys), bat.mont_mul_batch(&xs, &ys));
    }
}
