//! Reference (software) radix-2 Montgomery multiplication: the paper's
//! Algorithm 1 (with final subtraction) and Algorithm 2 (without),
//! together with the parameter bookkeeping around Walter's bound
//! `4N < R = 2^{l+2}`.

use crate::error::MmmError;
use mmm_bigint::limbs::LIMB_BITS;
use mmm_bigint::Ubig;

/// The word-level (radix-2⁶⁴) view of a modulus: everything a CIOS
/// Montgomery scan needs, plus the constants that convert between the
/// **bit domain** (`x̄_b = x·2^{l+2} mod N`, the paper's systolic-array
/// representation) and the **word domain** (`x̄_w = x·2^{64·limbs} mod
/// N`, the natural representation of a pure full-word CIOS pipeline).
///
/// The production [`crate::cios`] engines deliberately implement the
/// *bit-domain* contract (full-word scans plus one partial-word
/// reduction), so they are bit-identical drop-ins for the systolic
/// engines and never need a conversion; this view exists for word-only
/// experiments and for reasoning about the two radices side by side.
/// It is computed on demand by
/// [`MontgomeryParams::word_domain`] — the constants involve wide
/// divisions (and a modular inverse at small widths), and the hot
/// paths never read them, so parameter construction does not pay for
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordDomain {
    /// Number of 64-bit limbs `s` sized to the datapath: `s =
    /// ⌈(l+2)/64⌉`, so every Algorithm-2 operand and result (`< 2N <
    /// 2^{l+1}`) fits.
    limbs: usize,
    /// `n0' = -N⁻¹ mod 2⁶⁴` — the per-word Montgomery quotient
    /// constant (the radix-2⁶⁴ analogue of the paper's `N' = 1`).
    n0_inv: u64,
    /// `R_w mod N` with `R_w = 2^{64·limbs}` (the word-domain one).
    r_mod_n: Ubig,
    /// `R_w² mod N` — the word-domain entry constant.
    r2_mod_n: Ubig,
    /// `2^{2(l+2) − 64·limbs} mod N` — multiplying by this under the
    /// bit-domain `Mont_b` maps a word-domain representative back to
    /// the bit domain.
    to_bit_factor: Ubig,
}

impl WordDomain {
    /// Number of 64-bit limbs `s` (`R_w = 2^{64 s}`).
    pub fn limbs(&self) -> usize {
        self.limbs
    }

    /// `n0' = -N⁻¹ mod 2⁶⁴`.
    pub fn n0_inv(&self) -> u64 {
        self.n0_inv
    }

    /// The word-domain radix `R_w = 2^{64·limbs}`.
    pub fn r(&self) -> Ubig {
        Ubig::pow2(self.limbs * LIMB_BITS)
    }

    /// `R_w mod N` — the word-domain Montgomery one (and the factor
    /// that maps bit-domain representatives into the word domain).
    pub fn r_mod_n(&self) -> Ubig {
        self.r_mod_n.clone()
    }

    /// `R_w² mod N` — the word-domain entry constant.
    pub fn r2_mod_n(&self) -> Ubig {
        self.r2_mod_n.clone()
    }
}

/// The radix-2⁵² (redundant digit) view of a modulus: the geometry a
/// carry-save CIOS scan over 52-bit digits in 64-bit lanes needs
/// ([`crate::cios52`]), derived next to the radix-2⁶⁴ [`WordDomain`]
/// view so the two non-binary radices read side by side.
///
/// The digit width 52 is chosen to fit the vector unit, exactly as the
/// paper chose `r = 2` to fit its systolic cells: a 52-bit digit in a
/// 64-bit lane leaves **12 bits of headroom**, so the 52×52→104-bit
/// multiply-accumulate carries of the inner loop can be *deferred*
/// (carry-save) instead of rippled per digit — and 52×52 MACs are the
/// native shape of the AVX-512-IFMA `vpmadd52lo/hi` instructions.
///
/// Like the word-domain view, the scan still computes the paper's
/// exact Algorithm-2 function over `R = 2^{l+2}`: a reduction by
/// `2^{l+2}` factors into [`Radix52Geometry::full`] full 52-bit steps
/// plus one partial reduction by the remaining
/// [`Radix52Geometry::rem`] bits, so results stay bit-identical to
/// every other engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Radix52Geometry {
    /// Operand/result digit count `s₅₂ = ⌈(l+2)/52⌉` — every
    /// Algorithm-2 operand and result (`< 2N < 2^{l+1}`) fits.
    digits: usize,
    /// Number of full 52-bit reduction steps `⌊(l+2)/52⌋`.
    full: usize,
    /// Remaining shift `(l+2) mod 52` handled by the partial step.
    rem: u32,
    /// `n0' = -N⁻¹ mod 2⁵²` — the per-digit Montgomery quotient
    /// constant (the radix-2⁵² analogue of the paper's `N' = 1` and
    /// the word domain's `n0' mod 2⁶⁴`).
    n0_inv: u64,
}

impl Radix52Geometry {
    /// Operand/result digit count `s₅₂ = ⌈(l+2)/52⌉`.
    pub fn digits(&self) -> usize {
        self.digits
    }

    /// Number of full 52-bit reduction steps `⌊(l+2)/52⌋`.
    pub fn full(&self) -> usize {
        self.full
    }

    /// Remaining shift `(l+2) mod 52` of the final partial step.
    pub fn rem(&self) -> u32 {
        self.rem
    }

    /// `n0' = -N⁻¹ mod 2⁵²`.
    pub fn n0_inv(&self) -> u64 {
        self.n0_inv
    }
}

/// Fixed parameters of a radix-2 Montgomery multiplication instance:
/// the modulus `N` and the circuit width `l` (number of modulus bits
/// the datapath is sized for).
///
/// Invariants enforced at construction:
/// * `N` odd, `N ≥ 3`;
/// * `N < 2^l` (so `R = 2^{l+2} > 4N` — Walter's bound, §2);
/// * `l ≥ 3` (the array needs at least one regular cell).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontgomeryParams {
    n: Ubig,
    l: usize,
    /// `R mod N`, cached at construction (the Montgomery one).
    r_mod_n: Ubig,
    /// `R² mod N`, cached at construction (the domain-entry constant).
    r2_mod_n: Ubig,
    /// `2N`, cached at construction (the Algorithm 2 operand bound —
    /// checked on every batch lane, so it must not allocate).
    two_n: Ubig,
}

impl MontgomeryParams {
    /// Creates parameters for modulus `n` and width `l`, rejecting any
    /// violated invariant as a typed [`MmmError`]
    /// ([`MmmError::WidthTooSmall`], [`MmmError::EvenModulus`],
    /// [`MmmError::ModulusTooSmall`], [`MmmError::WidthTooNarrow`])
    /// instead of panicking.
    pub fn try_new(n: &Ubig, l: usize) -> Result<Self, MmmError> {
        if l < 3 {
            return Err(MmmError::WidthTooSmall { l });
        }
        if !n.is_odd() {
            return Err(MmmError::EvenModulus);
        }
        if *n < Ubig::from(3u64) {
            return Err(MmmError::ModulusTooSmall);
        }
        if n.bit_len() > l {
            return Err(MmmError::WidthTooNarrow {
                bits: n.bit_len(),
                l,
            });
        }
        let r = Ubig::pow2(l + 2);
        let r_mod_n = r.rem(n);
        let r2_mod_n = (&r * &r).rem(n);
        Ok(MontgomeryParams {
            n: n.clone(),
            l,
            r_mod_n,
            r2_mod_n,
            two_n: n.shl_bits(1),
        })
    }

    /// Creates parameters for modulus `n` and width `l`.
    ///
    /// # Panics
    /// Panics if the invariants documented on the type are violated;
    /// [`MontgomeryParams::try_new`] is the fallible variant.
    pub fn new(n: &Ubig, l: usize) -> Self {
        Self::try_new(n, l).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parameters with the tightest width: `l = bitlen(N)`.
    pub fn tight(n: &Ubig) -> Self {
        Self::new(n, n.bit_len().max(3))
    }

    /// Parameters at the smallest width that is **hardware-safe** for
    /// this modulus (see [`MontgomeryParams::is_hardware_safe`]).
    pub fn hardware_safe(n: &Ubig) -> Self {
        Self::new(n, Self::min_hardware_width(n))
    }

    /// Fallible [`MontgomeryParams::hardware_safe`].
    pub fn try_hardware_safe(n: &Ubig) -> Result<Self, MmmError> {
        Self::try_new(n, Self::min_hardware_width(n))
    }

    /// Smallest datapath width `l` at which the systolic array cannot
    /// lose the leftmost carry for modulus `n`: `bitlen(n) ≤ l` and
    /// `3n − 1 ≤ 2^{l+1}` (at most `bitlen(n) + 1`).
    pub fn min_hardware_width(n: &Ubig) -> usize {
        let b = n.bit_len().max(3);
        let limit = (&Ubig::from(3u64) * n) - Ubig::one();
        if limit <= Ubig::pow2(b + 1) {
            b
        } else {
            b + 1
        }
    }

    /// True when the array/MMMC engines can run this modulus at this
    /// width without the leftmost cell ever dropping a carry.
    ///
    /// **Paper erratum.** Intermediate values of Algorithm 2 satisfy
    /// only `T_i < Y + N ≤ 3N − 1`, not `T_i < 2N`; the hardware stores
    /// `U_i = 2·T_i` in `l+2` digit positions, so any `T_i ≥ 2^{l+1}`
    /// overflows the Fig. 1(d) leftmost cell's XOR (Eq. 9's left side
    /// maxes at 3 while its right side can reach 5). Overflow is
    /// reachable whenever `3N − 1 > 2^{l+1}`, i.e. `N ≳ ⅔·2^l` —
    /// verified by exhaustive search at small widths. Running such a
    /// modulus one width wider (`l+1`) removes the problem entirely,
    /// at a cost of 3 cycles and one cell. Software Algorithm 2 is
    /// unaffected.
    pub fn is_hardware_safe(&self) -> bool {
        let limit = (&Ubig::from(3u64) * &self.n) - Ubig::one();
        limit <= Ubig::pow2(self.l + 1)
    }

    /// The largest odd modulus that is hardware-safe at width `l`
    /// (useful for paper-faithful experiments at the published widths).
    pub fn max_safe_modulus(l: usize) -> Ubig {
        // Largest N with 3N − 1 ≤ 2^{l+1}: N = ⌊(2^{l+1} + 1)/3⌋,
        // stepped down to odd.
        let (q, _) = (Ubig::pow2(l + 1) + Ubig::one()).divrem(&Ubig::from(3u64));
        if q.is_even() {
            q - Ubig::one()
        } else {
            q
        }
    }

    /// The modulus `N`.
    pub fn n(&self) -> &Ubig {
        &self.n
    }

    /// The datapath width `l`.
    pub fn l(&self) -> usize {
        self.l
    }

    /// The Montgomery radix `R = 2^{l+2}` (Walter-optimal; the paper's
    /// improvement over Blum–Paar's `2^{l+3}`).
    pub fn r(&self) -> Ubig {
        Ubig::pow2(self.l + 2)
    }

    /// `R mod N` — the Montgomery representation of 1 (cached at
    /// construction; no division per call).
    pub fn r_mod_n(&self) -> Ubig {
        self.r_mod_n.clone()
    }

    /// `R² mod N` — the constant fed to the pre-computation
    /// multiplication that maps an operand into the Montgomery domain
    /// (cached at construction; no division per call).
    pub fn r2_mod_n(&self) -> Ubig {
        self.r2_mod_n.clone()
    }

    /// `2N` — the operand bound of Algorithm 2 (cached).
    pub fn two_n(&self) -> Ubig {
        self.two_n.clone()
    }

    /// Checks the operand precondition of Algorithm 2: `v < 2N`.
    /// Allocation-free — this runs per lane on the batch hot path.
    pub fn check_operand(&self, v: &Ubig) -> bool {
        *v < self.two_n
    }

    /// `n0' = -N⁻¹ mod 2⁶⁴` — the radix-2⁶⁴ CIOS quotient constant.
    /// Cheap (a handful of wrapping u64 multiplies on the low limb);
    /// this is the only word-level constant the production engines
    /// read, so it has a dedicated accessor and
    /// [`MontgomeryParams::word_domain`]'s divisions stay off the
    /// engine-construction path.
    pub fn word_n0_inv(&self) -> u64 {
        self.n
            .neg_inv_pow2(LIMB_BITS)
            .to_u64()
            .expect("-N^{-1} mod 2^64 fits one limb")
    }

    /// The radix-2⁵² digit geometry of this modulus (digit count
    /// `s₅₂`, full/partial step split of the `2^{l+2}` reduction, and
    /// `n0' mod 2⁵²`) — everything the carry-save [`crate::cios52`]
    /// engine needs. Cheap: the only arithmetic is the single-limb
    /// Newton ladder behind `n0'`, so engine construction can call it
    /// freely (mirroring [`MontgomeryParams::word_n0_inv`], not the
    /// division-heavy [`MontgomeryParams::word_domain`]).
    pub fn radix52(&self) -> Radix52Geometry {
        const DIGIT_BITS: usize = 52;
        let k = self.l + 2;
        Radix52Geometry {
            digits: k.div_ceil(DIGIT_BITS),
            full: k / DIGIT_BITS,
            rem: (k % DIGIT_BITS) as u32,
            n0_inv: self
                .n
                .neg_inv_pow2(DIGIT_BITS)
                .to_u64()
                .expect("-N^{-1} mod 2^52 fits one limb"),
        }
    }

    /// The radix-2⁶⁴ view of this modulus: CIOS constants (`limbs`,
    /// `n0'`), the word-domain Montgomery constants (`R_w mod N`,
    /// `R_w² mod N` with `R_w = 2^{64·limbs}`), and the
    /// domain-conversion factor. Computed on demand — it costs wide
    /// divisions (plus a modular inverse at small widths), and only
    /// the word-domain experiment surface reads it.
    pub fn word_domain(&self) -> WordDomain {
        let n = &self.n;
        let l = self.l;
        let word_limbs = (l + 2).div_ceil(LIMB_BITS);
        let rw_mod_n = Ubig::pow2(word_limbs * LIMB_BITS).rem(n);
        let rw2_mod_n = (&rw_mod_n * &rw_mod_n).rem(n);
        // 2^{2(l+2) − 64 s} mod N; the exponent goes negative only at
        // small widths (64 s < 2(l+2) as soon as l ≥ 62), where the
        // power-of-two inverse is cheap.
        let to_bit_factor = if 2 * (l + 2) >= word_limbs * LIMB_BITS {
            Ubig::pow2(2 * (l + 2) - word_limbs * LIMB_BITS).rem(n)
        } else {
            Ubig::pow2(word_limbs * LIMB_BITS - 2 * (l + 2))
                .rem(n)
                .modinv(n)
                .expect("gcd(2^k, N) = 1 since N is odd")
        };
        WordDomain {
            limbs: word_limbs,
            n0_inv: self.word_n0_inv(),
            r_mod_n: rw_mod_n,
            r2_mod_n: rw2_mod_n,
            to_bit_factor,
        }
    }

    /// Maps a **bit-domain** Montgomery representative (`x̄_b = x·2^{l+2}
    /// mod N`) to the canonical **word-domain** representative
    /// (`x̄_w = x·2^{64·limbs} mod N`, fully reduced): one bit-domain
    /// multiplication by `R_w mod N`, since
    /// `Mont_b(x̄_b, R_w) = x·2^{l+2}·R_w·2^{−(l+2)} = x·R_w (mod N)`.
    ///
    /// An experiment-surface helper: it recomputes the word-domain
    /// constants per call (pass a cached [`WordDomain`] through
    /// [`WordDomain::r_mod_n`] + [`mont_mul_alg2`] to amortize).
    ///
    /// # Panics
    /// Panics if `v ≥ 2N` (the Algorithm 2 operand bound).
    pub fn bit_to_word_mont(&self, v: &Ubig) -> Ubig {
        mont_mul_alg2(self, v, &self.word_domain().r_mod_n).rem(&self.n)
    }

    /// Inverse of [`MontgomeryParams::bit_to_word_mont`]: maps a
    /// **word-domain** representative to the canonical **bit-domain**
    /// one via one bit-domain multiplication by
    /// `2^{2(l+2) − 64·limbs} mod N`
    /// (`Mont_b(x̄_w, 2^{2(l+2)−64s}) = x·2^{64s}·2^{2(l+2)−64s}·2^{−(l+2)}
    /// = x·2^{l+2} (mod N)`).
    ///
    /// # Panics
    /// Panics if `v ≥ 2N`.
    pub fn word_to_bit_mont(&self, v: &Ubig) -> Ubig {
        mont_mul_alg2(self, v, &self.word_domain().to_bit_factor).rem(&self.n)
    }
}

/// Algorithm 1: Montgomery modular multiplication **with** final
/// subtraction. `R = 2^l`, requires `x, y ∈ [0, N−1]`; returns
/// `x·y·2^{−l} mod N`, fully reduced (`< N`).
///
/// This is the classical formulation the paper departs from; it is kept
/// as a baseline and oracle.
pub fn mont_mul_alg1(params: &MontgomeryParams, x: &Ubig, y: &Ubig) -> Ubig {
    let n = params.n();
    let l = params.l();
    assert!(x < n && y < n, "Algorithm 1 requires x, y < N");
    let mut t = Ubig::zero();
    for i in 0..l {
        // m_i = (t_0 + x_i·y_0) mod 2   (N' = 1 in radix 2, §3)
        let xi = x.bit(i);
        let m = t.bit(0) ^ (xi & y.bit(0));
        if xi {
            t = &t + y;
        }
        if m {
            t = &t + n;
        }
        debug_assert!(!t.bit(0), "sum must be even before halving");
        t = t.shr_bits(1);
    }
    // Step 6–8: conditional final subtraction.
    if &t >= n {
        t = t - n;
    }
    t
}

/// Algorithm 2: Montgomery modular multiplication **without** final
/// subtraction. `R = 2^{l+2}`, requires `x, y ∈ [0, 2N−1]`; returns
/// `T ≡ x·y·2^{−(l+2)} (mod N)` with `T < 2N`.
///
/// This is the recurrence the systolic array implements; every hardware
/// engine in this workspace is validated against it.
pub fn mont_mul_alg2(params: &MontgomeryParams, x: &Ubig, y: &Ubig) -> Ubig {
    let n = params.n();
    let l = params.l();
    assert!(
        params.check_operand(x) && params.check_operand(y),
        "Algorithm 2 requires x, y < 2N"
    );
    let mut t = Ubig::zero();
    for i in 0..=(l + 1) {
        let xi = x.bit(i);
        let m = t.bit(0) ^ (xi & y.bit(0));
        if xi {
            t = &t + y;
        }
        if m {
            t = &t + n;
        }
        debug_assert!(!t.bit(0), "sum must be even before halving");
        t = t.shr_bits(1);
    }
    debug_assert!(params.check_operand(&t), "Walter bound violated: T >= 2N");
    t
}

/// The mathematical specification `x·y·R⁻¹ mod N` computed directly
/// with a modular inverse — the ground truth both algorithms are tested
/// against.
pub fn mont_spec(params: &MontgomeryParams, x: &Ubig, y: &Ubig, r: &Ubig) -> Ubig {
    let n = params.n();
    let r_inv = r.rem(n).modinv(n).expect("gcd(R, N) = 1 since N is odd");
    (x * y).modmul(&r_inv, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(n: u64, l: usize) -> MontgomeryParams {
        MontgomeryParams::new(&Ubig::from(n), l)
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn rejects_even_modulus() {
        params(100, 8);
    }

    #[test]
    #[should_panic(expected = "datapath width")]
    fn rejects_narrow_width() {
        params(257, 8);
    }

    #[test]
    fn walter_bound_holds_by_construction() {
        let p = params(255, 8);
        // R = 2^10 = 1024 > 4·255 = 1020.
        assert!(p.r() > &Ubig::from(4u64) * p.n());
    }

    #[test]
    fn alg1_matches_spec_exhaustive_small() {
        // N = 13, l = 4, R = 2^4: check every x, y < N.
        let p = params(13, 4);
        let r = Ubig::pow2(4);
        for x in 0u64..13 {
            for y in 0u64..13 {
                let got = mont_mul_alg1(&p, &Ubig::from(x), &Ubig::from(y));
                let want = mont_spec(&p, &Ubig::from(x), &Ubig::from(y), &r);
                assert_eq!(got, want, "x={x} y={y}");
                assert!(got < *p.n(), "Alg 1 output fully reduced");
            }
        }
    }

    #[test]
    fn alg2_matches_spec_exhaustive_small() {
        // N = 13, l = 4, R = 2^6: check every x, y < 2N.
        let p = params(13, 4);
        let r = p.r();
        let n = Ubig::from(13u64);
        for x in 0u64..26 {
            for y in 0u64..26 {
                let got = mont_mul_alg2(&p, &Ubig::from(x), &Ubig::from(y));
                let want = mont_spec(&p, &Ubig::from(x), &Ubig::from(y), &r);
                assert_eq!(got.rem(&n), want, "x={x} y={y}");
                assert!(got < p.two_n(), "Walter bound x={x} y={y}");
            }
        }
    }

    #[test]
    fn alg2_output_feeds_back_without_reduction() {
        // The whole point of the bound: outputs are valid inputs.
        let p = params(0xFFFF_FFFB, 32); // 2^32 - 5 (odd, fits 32 bits)
        let mut rng = StdRng::seed_from_u64(42);
        let mut t = Ubig::random_below(&mut rng, &p.two_n());
        for _ in 0..50 {
            t = mont_mul_alg2(&p, &t, &t);
            assert!(p.check_operand(&t));
        }
    }

    #[test]
    fn alg2_random_widths_match_spec() {
        let mut rng = StdRng::seed_from_u64(7);
        for l in [3usize, 5, 8, 16, 33, 64, 100] {
            let mut n = Ubig::random_exact_bits(&mut rng, l);
            n.set_bit(0, true);
            if n < Ubig::from(3u64) {
                n = Ubig::from(5u64);
            }
            let p = MontgomeryParams::new(&n, l);
            let r = p.r();
            for _ in 0..10 {
                let x = Ubig::random_below(&mut rng, &p.two_n());
                let y = Ubig::random_below(&mut rng, &p.two_n());
                let got = mont_mul_alg2(&p, &x, &y);
                assert_eq!(got.rem(&n), mont_spec(&p, &x, &y, &r), "l={l}");
                assert!(got < p.two_n());
            }
        }
    }

    #[test]
    fn alg1_alg2_agree_modulo_n_after_domain_shift() {
        // Alg1 uses R1 = 2^l; Alg2 uses R2 = 2^{l+2} = 4·R1, so
        // Alg2(x,y) ≡ Alg1(x,y) · 4^{-1}  (mod N).
        let p = params(101, 7);
        let n = p.n().clone();
        let inv4 = Ubig::from(4u64).modinv(&n).unwrap();
        for (x, y) in [(5u64, 7u64), (100, 100), (0, 55), (1, 1)] {
            let a1 = mont_mul_alg1(&p, &Ubig::from(x), &Ubig::from(y));
            let a2 = mont_mul_alg2(&p, &Ubig::from(x), &Ubig::from(y));
            assert_eq!(a2.rem(&n), a1.modmul(&inv4, &n), "x={x} y={y}");
        }
    }

    #[test]
    fn r2_and_r_mod_n_consistent() {
        let p = params(239, 8);
        let n = p.n();
        assert_eq!(p.r_mod_n(), p.r().rem(n));
        assert_eq!(p.r2_mod_n(), (&p.r() * &p.r()).rem(n));
        // Mont(1, R^2) = R mod N.
        let got = mont_mul_alg2(&p, &Ubig::one(), &p.r2_mod_n());
        assert_eq!(got.rem(n), p.r_mod_n());
    }

    #[test]
    fn tight_width_is_bitlen() {
        let p = MontgomeryParams::tight(&Ubig::from(1000003u64));
        assert_eq!(p.l(), 20);
    }

    #[test]
    fn word_domain_constants_are_consistent() {
        let mut rng = StdRng::seed_from_u64(91);
        for l in [3usize, 30, 62, 63, 64, 100, 130] {
            let mut n = Ubig::random_exact_bits(&mut rng, l);
            n.set_bit(0, true);
            if n < Ubig::from(3u64) {
                n = Ubig::from(5u64);
            }
            let p = MontgomeryParams::new(&n, l);
            let w = p.word_domain();
            assert_eq!(w.limbs(), (l + 2).div_ceil(64), "l={l}");
            // N · n0' ≡ -1 (mod 2^64).
            let prod = (&n * &Ubig::from(w.n0_inv())).low_bits(64);
            assert_eq!(prod, Ubig::pow2(64) - Ubig::one(), "l={l}");
            assert_eq!(w.r_mod_n(), w.r().rem(&n), "l={l}");
            assert_eq!(w.r2_mod_n(), (&w.r() * &w.r()).rem(&n), "l={l}");
        }
    }

    #[test]
    fn radix52_geometry_is_consistent() {
        let mut rng = StdRng::seed_from_u64(93);
        for l in [3usize, 30, 50, 62, 63, 64, 100, 102, 1024] {
            let mut n = Ubig::random_exact_bits(&mut rng, l);
            n.set_bit(0, true);
            if n < Ubig::from(3u64) {
                n = Ubig::from(5u64);
            }
            let p = MontgomeryParams::new(&n, l);
            let g = p.radix52();
            assert_eq!(g.digits(), (l + 2).div_ceil(52), "l={l}");
            assert_eq!(g.full(), (l + 2) / 52, "l={l}");
            assert_eq!(g.rem() as usize, (l + 2) % 52, "l={l}");
            // The full/partial split covers the whole 2^{l+2} shift.
            assert_eq!(52 * g.full() + g.rem() as usize, l + 2, "l={l}");
            // N · n0' ≡ -1 (mod 2^52), and n0' < 2^52.
            assert!(g.n0_inv() < 1 << 52, "l={l}");
            let prod = (&n * &Ubig::from(g.n0_inv())).low_bits(52);
            assert_eq!(prod, Ubig::pow2(52) - Ubig::one(), "l={l}");
            // Consistency with the word-domain constant: both are
            // -N⁻¹ in their radix, so they agree modulo 2^52.
            assert_eq!(
                Ubig::from(p.word_n0_inv()).low_bits(52),
                Ubig::from(g.n0_inv()),
                "l={l}"
            );
        }
    }

    #[test]
    fn domain_conversions_roundtrip_and_match_definition() {
        let mut rng = StdRng::seed_from_u64(92);
        for l in [5usize, 62, 63, 64, 65, 100] {
            let mut n = Ubig::random_exact_bits(&mut rng, l);
            n.set_bit(0, true);
            if n < Ubig::from(3u64) {
                n = Ubig::from(5u64);
            }
            let p = MontgomeryParams::new(&n, l);
            let w = p.word_domain();
            for _ in 0..5 {
                let x = Ubig::random_below(&mut rng, &n);
                // Canonical representatives in both domains, by definition.
                let xb = x.modmul(&p.r_mod_n(), &n);
                let xw = x.modmul(&w.r_mod_n(), &n);
                assert_eq!(p.bit_to_word_mont(&xb), xw, "bit→word l={l}");
                assert_eq!(p.word_to_bit_mont(&xw), xb, "word→bit l={l}");
                // Round trips from either side.
                assert_eq!(p.word_to_bit_mont(&p.bit_to_word_mont(&xb)), xb);
                assert_eq!(p.bit_to_word_mont(&p.word_to_bit_mont(&xw)), xw);
            }
        }
    }
}
