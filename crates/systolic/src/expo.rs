//! [`mmm_core::expo`] over the cycle-accurate [`WaveMmmc`].
//!
//! [`WaveMmmc`]: crate::wave::WaveMmmc

mod tests {
    use crate::wave::WaveMmmc;
    use mmm_bigint::Ubig;
    use mmm_core::montgomery::MontgomeryParams;
    use mmm_core::ModExp;

    #[test]
    fn wave_engine_cycle_accounting() {
        let p = MontgomeryParams::hardware_safe(&Ubig::from(251u64)); // l = 9
        let mut me = ModExp::new(WaveMmmc::new(p));
        let e = Ubig::from(0b1011u64);
        let _ = me.modexp(&Ubig::from(123u64), &e);
        // 7 Montgomery multiplications at 3·9+4 = 31 cycles each.
        assert_eq!(me.consumed_cycles(), Some(7 * 31));
    }

    #[test]
    fn fermat_little_theorem_via_wave_engine() {
        // p = 65537 (prime): a^(p-1) ≡ 1 for a ≠ 0.
        let n = Ubig::from(65537u64);
        let p = MontgomeryParams::hardware_safe(&n);
        assert_eq!(p.l(), 17); // 3N-1 < 2^18, so width 17 is safe
        let mut me = ModExp::new(WaveMmmc::new(p));
        let e = Ubig::from(65536u64);
        for a in [2u64, 3, 12345, 65535] {
            assert_eq!(me.modexp(&Ubig::from(a), &e), Ubig::one(), "a={a}");
        }
    }
}
