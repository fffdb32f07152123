//! Low-level limb primitives: add-with-carry, subtract-with-borrow,
//! multiply-accumulate. All higher-level arithmetic reduces to these.

/// The limb type. All multi-precision values are little-endian vectors
/// of `Limb`.
pub type Limb = u64;

/// Number of bits in a limb.
pub const LIMB_BITS: usize = 64;

/// `a + b + carry`, returning `(sum, carry_out)`.
#[inline]
pub fn adc(a: Limb, b: Limb, carry: bool) -> (Limb, bool) {
    let (s1, c1) = a.overflowing_add(b);
    let (s2, c2) = s1.overflowing_add(carry as Limb);
    (s2, c1 | c2)
}

/// `a - b - borrow`, returning `(diff, borrow_out)`.
#[inline]
pub fn sbb(a: Limb, b: Limb, borrow: bool) -> (Limb, bool) {
    let (d1, b1) = a.overflowing_sub(b);
    let (d2, b2) = d1.overflowing_sub(borrow as Limb);
    (d2, b1 | b2)
}

/// `a * b + carry` as a double-width result `(lo, hi)` — the widening
/// multiply every scan loop (division, CIOS Montgomery) is built from.
///
/// `max(a)*max(b) + max(carry) = 2^128 - 2^64` never overflows the
/// `u128` intermediate.
#[inline]
pub fn carrying_mul(a: Limb, b: Limb, carry: Limb) -> (Limb, Limb) {
    let wide = (a as u128) * (b as u128) + (carry as u128);
    (wide as Limb, (wide >> LIMB_BITS) as Limb)
}

/// `a * b + acc + carry` as a double-width result `(lo, hi)` — the
/// multiply-accumulate step of schoolbook multiplication and the CIOS
/// Montgomery inner loops.
///
/// The identity `max(a)*max(b) + max(acc) + max(carry) = 2^128 - 1`
/// guarantees this never overflows the `u128` intermediate.
#[inline]
pub fn mac_with_carry(a: Limb, b: Limb, acc: Limb, carry: Limb) -> (Limb, Limb) {
    let wide = (a as u128) * (b as u128) + (acc as u128) + (carry as u128);
    (wide as Limb, (wide >> LIMB_BITS) as Limb)
}

/// Divides the double-width value `(hi, lo)` by `div`, returning
/// `(quotient, remainder)`. Requires `hi < div` so the quotient fits in
/// one limb.
#[inline]
pub fn div2by1(hi: Limb, lo: Limb, div: Limb) -> (Limb, Limb) {
    debug_assert!(hi < div, "quotient would overflow a limb");
    let n = ((hi as u128) << LIMB_BITS) | (lo as u128);
    ((n / div as u128) as Limb, (n % div as u128) as Limb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_no_carry() {
        assert_eq!(adc(1, 2, false), (3, false));
    }

    #[test]
    fn adc_carry_in_and_out() {
        assert_eq!(adc(Limb::MAX, 0, true), (0, true));
        assert_eq!(adc(Limb::MAX, Limb::MAX, true), (Limb::MAX, true));
    }

    #[test]
    fn sbb_underflow() {
        assert_eq!(sbb(0, 1, false), (Limb::MAX, true));
        assert_eq!(sbb(0, 0, true), (Limb::MAX, true));
        assert_eq!(sbb(5, 2, true), (2, false));
    }

    #[test]
    fn mac_extremes_do_not_overflow() {
        let (lo, hi) = mac_with_carry(Limb::MAX, Limb::MAX, Limb::MAX, Limb::MAX);
        // (2^64-1)^2 + 2(2^64-1) = 2^128 - 1
        assert_eq!(lo, Limb::MAX);
        assert_eq!(hi, Limb::MAX);
    }

    #[test]
    fn carrying_mul_matches_u128() {
        for (a, b, c) in [
            (0 as Limb, 0 as Limb, 0 as Limb),
            (3, 5, 7),
            (Limb::MAX, Limb::MAX, Limb::MAX),
            (0x9E37_79B9_7F4A_7C15, 0xDEAD_BEEF_CAFE_F00D, 42),
        ] {
            let (lo, hi) = carrying_mul(a, b, c);
            let wide = (a as u128) * (b as u128) + (c as u128);
            assert_eq!(lo as u128, wide & (u64::MAX as u128), "a={a} b={b}");
            assert_eq!(hi as u128, wide >> LIMB_BITS, "a={a} b={b}");
        }
    }

    #[test]
    fn mac_with_carry_matches_u128() {
        for (a, b, c, d) in [
            (0 as Limb, 0 as Limb, 0 as Limb, 0 as Limb),
            (3, 5, 7, 11),
            (Limb::MAX, Limb::MAX, Limb::MAX, Limb::MAX),
            (1 << 63, 2, 1, 1),
        ] {
            let (lo, hi) = mac_with_carry(a, b, c, d);
            let wide = (a as u128) * (b as u128) + (c as u128) + (d as u128);
            assert_eq!(lo as u128, wide & (u64::MAX as u128), "a={a} b={b}");
            assert_eq!(hi as u128, wide >> LIMB_BITS, "a={a} b={b}");
        }
    }

    #[test]
    fn carrying_mul_is_mac_with_zero_accumulator() {
        let (a, b, c) = (0x0123_4567_89AB_CDEF as Limb, 0xFEDC_BA98_7654_3210, 99);
        assert_eq!(carrying_mul(a, b, c), mac_with_carry(a, b, 0, c));
    }

    #[test]
    fn div2by1_roundtrip() {
        let (q, r) = div2by1(3, 12345, 7);
        let n = (3u128 << 64) | 12345;
        assert_eq!(q as u128, n / 7);
        assert_eq!(r as u128, n % 7);
    }
}
