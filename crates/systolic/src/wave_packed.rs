//! Bit-parallel (word-packed) implementation of the wave model.
//!
//! [`crate::wave::WaveArray`] updates one `bool` per cell per cycle;
//! this module packs the whole array state into `u64` words and updates
//! **64 cells per machine instruction** using the bitwise form of the
//! cell equations:
//!
//! ```text
//! a   = xp & y          b  = mp & n
//! s1  = t≫1 ^ a ^ b     k1 = maj(t≫1, a, b)
//! t'  = s1 ^ c0≪1       k2 = s1 & (c0≪1)
//! c0' = k1 ^ c1≪1 ^ k2  c1' = maj(k1, c1≪1, k2)
//! ```
//!
//! (`≫1`/`≪1` realize the `t_{i-1,j+1}` and carry-neighbour wiring; the
//! four edge cells are patched scalar-wise after the vector update.)
//! The packed model is validated **bit-identically, every cycle,**
//! against the per-bit model — which is itself trace-equivalent to the
//! gate-level netlist — so all three levels agree by transitivity.
//!
//! At `l = 1024` this turns ~15 k boolean updates per cycle into ~250
//! word operations (see `cargo bench -p mmm-bench` group `hdl`).

use mmm_bigint::Ubig;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::traits::MontMul;

/// A fixed-width bit vector over `u64` words with the shift/logic ops
/// the cell recurrences need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitWords {
    words: Vec<u64>,
    bits: usize,
}

impl BitWords {
    /// All-zero vector of `bits` bits.
    pub fn zeros(bits: usize) -> Self {
        BitWords {
            words: vec![0; bits.div_ceil(64).max(1)],
            bits,
        }
    }

    /// Builds from a little-endian bool slice.
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.bits);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Width in bits.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// True when width is zero.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Logical right shift by one (bit i ← bit i+1).
    pub fn shr1(&self) -> Self {
        let mut out = Self::zeros(self.bits);
        let n = self.words.len();
        for w in 0..n {
            let mut x = self.words[w] >> 1;
            if w + 1 < n {
                x |= self.words[w + 1] << 63;
            }
            out.words[w] = x;
        }
        out
    }

    /// Logical left shift by one (bit i ← bit i−1), truncating at the
    /// width.
    pub fn shl1(&self) -> Self {
        let mut out = Self::zeros(self.bits);
        let n = self.words.len();
        let mut carry = 0u64;
        for w in 0..n {
            out.words[w] = (self.words[w] << 1) | carry;
            carry = self.words[w] >> 63;
        }
        out.mask_top();
        out
    }

    fn mask_top(&mut self) {
        let extra = self.words.len() * 64 - self.bits;
        if extra > 0 && self.bits > 0 {
            let last = self.words.len() - 1;
            self.words[last] &= u64::MAX >> extra;
        }
    }

    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        debug_assert_eq!(self.bits, other.bits);
        BitWords {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            bits: self.bits,
        }
    }

    /// Bitwise AND.
    pub fn and(&self, o: &Self) -> Self {
        self.zip(o, |a, b| a & b)
    }

    /// Bitwise XOR.
    pub fn xor(&self, o: &Self) -> Self {
        self.zip(o, |a, b| a ^ b)
    }

    /// Bitwise OR.
    pub fn or(&self, o: &Self) -> Self {
        self.zip(o, |a, b| a | b)
    }

    /// Bitwise majority of three.
    pub fn maj(a: &Self, b: &Self, c: &Self) -> Self {
        a.and(b).or(&a.and(c)).or(&b.and(c))
    }

    /// Select: `cond ? a : self` per bit.
    pub fn select(&self, cond: &Self, a: &Self) -> Self {
        debug_assert_eq!(self.bits, cond.bits);
        BitWords {
            words: self
                .words
                .iter()
                .zip(&cond.words)
                .zip(&a.words)
                .map(|((&s, &c), &av)| (s & !c) | (av & c))
                .collect(),
            bits: self.bits,
        }
    }

    /// Little-endian bool vector.
    pub fn to_bits(&self) -> Vec<bool> {
        (0..self.bits).map(|i| self.get(i)).collect()
    }
}

/// Word-packed array state. Layout (all vectors `l+2` bits, indexed by
/// cell/digit position; unused slots stay zero):
///
/// * `t` — digit `j` of `U = 2T` at bit `j` (slots `1..=l+1` live);
/// * `c0` — carry out of cell `j` at bit `j` (slots `0..=l-1`);
/// * `c1` — slots `1..=l-1`;
/// * `xp`/`mp`/`vp` — pipeline value *at* cell `j`, slots `1..=l`.
#[derive(Debug, Clone)]
pub struct PackedWaveArray {
    l: usize,
    /// Live words per state vector — hoisted out of [`Self::step`].
    w: usize,
    /// Mask of valid bits in the top word — hoisted out of
    /// [`Self::step`].
    top_mask: u64,
    y: BitWords,
    n: BitWords,
    t: BitWords,
    c0: BitWords,
    c1: BitWords,
    xp: BitWords,
    mp: BitWords,
    vp: BitWords,
}

/// Stack capacity of [`PackedWaveArray::step`]: supports
/// `l + 2 ≤ 64·MAX_W`, i.e. l ≤ 4094.
const MAX_W: usize = 64;

impl PackedWaveArray {
    /// Creates a cleared array for operand `y` (< 2N) and modulus `n`.
    pub fn new(l: usize, y: &Ubig, n: &Ubig) -> Self {
        assert!(l >= 3);
        let nb = l + 2;
        let w = nb.div_ceil(64);
        assert!(w <= MAX_W, "width beyond packed-model stack capacity");
        let top_mask = if nb.is_multiple_of(64) {
            u64::MAX
        } else {
            u64::MAX >> (64 - nb % 64)
        };
        let mut nb_words = BitWords::zeros(nb);
        for (i, b) in n.to_bits_le(l).into_iter().enumerate() {
            nb_words.set(i, b);
        }
        let mut arr = PackedWaveArray {
            l,
            w,
            top_mask,
            y: BitWords::zeros(nb),
            n: nb_words,
            t: BitWords::zeros(nb),
            c0: BitWords::zeros(nb),
            c1: BitWords::zeros(nb),
            xp: BitWords::zeros(nb),
            mp: BitWords::zeros(nb),
            vp: BitWords::zeros(nb),
        };
        arr.load_y(y);
        arr
    }

    /// Loads operand `y` into the y register word-wise (no allocation).
    fn load_y(&mut self, y: &Ubig) {
        assert!(
            y.bit_len() <= self.l + 1,
            "y has {} bits but the operand bound is {} bits",
            y.bit_len(),
            self.l + 1
        );
        let limbs = y.limbs();
        for (i, word) in self.y.words.iter_mut().enumerate() {
            *word = limbs.get(i).copied().unwrap_or(0);
        }
    }

    /// Re-arms the array for a new multiplication with operand `y`
    /// (< 2N), reusing every buffer — the allocation-free counterpart
    /// of building a fresh array per call.
    pub fn reset_with(&mut self, y: &Ubig) {
        self.load_y(y);
        self.clear();
    }

    /// Clears all registers (in place; no allocation).
    pub fn clear(&mut self) {
        self.t.words.fill(0);
        self.c0.words.fill(0);
        self.c1.words.fill(0);
        self.xp.words.fill(0);
        self.mp.words.fill(0);
        self.vp.words.fill(0);
    }

    /// One clock cycle (bit-parallel). The hot path runs entirely on
    /// stack arrays — zero heap allocation per cycle — which is what
    /// actually makes the packed model faster than the per-bit one
    /// (the naive version of this loop spent its time in `malloc`).
    pub fn step(&mut self, x_in: bool, valid_in: bool) {
        let l = self.l;
        let w = self.w;
        let top_mask = self.top_mask;

        let getb = |words: &[u64], i: usize| (words[i / 64] >> (i % 64)) & 1 == 1;
        let setb = |words: &mut [u64], i: usize, v: bool| {
            let m = 1u64 << (i % 64);
            if v {
                words[i / 64] |= m;
            } else {
                words[i / 64] &= !m;
            }
        };

        let t = &self.t.words;
        let c0 = &self.c0.words;
        let c1 = &self.c1.words;
        let xp = &self.xp.words;
        let mp = &self.mp.words;
        let vp = &self.vp.words;
        let y = &self.y.words;
        let n = &self.n.words;

        let mut t_new = [0u64; MAX_W];
        let mut c0_new = [0u64; MAX_W];
        let mut c1_new = [0u64; MAX_W];

        // --- Vector combinational phase over all cells at once. ---
        let mut c0_carry = 0u64;
        let mut c1_carry = 0u64;
        for i in 0..w {
            // t_in = t >> 1 (bit j = t[j+1]).
            let t_in = (t[i] >> 1) | if i + 1 < w { t[i + 1] << 63 } else { 0 };
            // c*_in = c* << 1 (bit j = c*[j-1]).
            let c0_in = (c0[i] << 1) | c0_carry;
            c0_carry = c0[i] >> 63;
            let c1_in = (c1[i] << 1) | c1_carry;
            c1_carry = c1[i] >> 63;

            let a = xp[i] & y[i];
            let b = mp[i] & n[i];
            let s1 = t_in ^ a ^ b;
            let k1 = (t_in & a) | (t_in & b) | (a & b);
            t_new[i] = s1 ^ c0_in;
            let k2 = s1 & c0_in;
            c0_new[i] = k1 ^ c1_in ^ k2;
            c1_new[i] = (k1 & c1_in) | (k1 & k2) | (c1_in & k2);
        }

        // --- Scalar edge patches. ---
        // Cell 0 (rightmost): m and C0[0].
        let (m0, c00) = crate::cells::rightmost_behavior(getb(t, 1), x_in, getb(y, 0));
        setb(&mut c0_new, 0, c00);
        // Cell 1 (first-bit): vector FA2 with c1_in[1] = c1[0] = 0 is
        // already the HA form — nothing to patch.
        debug_assert!(!getb(c1, 0));
        // Cell l (leftmost): recompute both top digits scalar-wise.
        let (tl, tl1) = crate::cells::leftmost_behavior(
            getb(t, l + 1),
            getb(xp, l),
            getb(y, l),
            getb(c0, l - 1),
            getb(c1, l - 1),
        );
        setb(&mut t_new, l, tl);
        setb(&mut t_new, l + 1, tl1);
        // Kill phantom carries beyond the chains.
        setb(&mut c0_new, l, false);
        setb(&mut c0_new, l + 1, false);
        setb(&mut c1_new, l, false);
        setb(&mut c1_new, l + 1, false);

        // --- Clock edge. ---
        // T write-enable = vp, with bit l+1 = vp[l] and bit 0 = 0.
        let mut en = [0u64; MAX_W];
        en[..w].copy_from_slice(&vp[..w]);
        setb(&mut en, l + 1, getb(vp, l));
        setb(&mut en, 0, false);
        let t_words = &mut self.t.words;
        for i in 0..w {
            t_words[i] = (t_words[i] & !en[i]) | (t_new[i] & en[i]);
        }
        self.c0.words[..w].copy_from_slice(&c0_new[..w]);
        self.c1.words[..w].copy_from_slice(&c1_new[..w]);

        // Pipelines shift toward higher cells (<< 1 with injection at
        // slot 1, slot 0 held at zero).
        let shift_in = |state: &mut Vec<u64>, inject: bool| {
            let mut carry = 0u64;
            for word in state.iter_mut().take(w) {
                let next = *word >> 63;
                *word = (*word << 1) | carry;
                carry = next;
            }
            state[w - 1] &= top_mask;
            setb(state, 1, inject);
            setb(state, 0, false);
        };
        shift_in(&mut self.xp.words, x_in);
        shift_in(&mut self.mp.words, m0);
        shift_in(&mut self.vp.words, valid_in);
    }

    /// T-register contents `T[1..=l+1]`, LSB first.
    pub fn t_register(&self) -> Vec<bool> {
        (1..=self.l + 1).map(|j| self.t.get(j)).collect()
    }

    /// The result value.
    pub fn result(&self) -> Ubig {
        Ubig::from_bits_le(&self.t_register())
    }
}

/// A [`MontMul`] engine over the packed array — same cycle counts as
/// the other hardware models, dramatically faster host execution.
#[derive(Debug, Clone)]
pub struct PackedMmmc {
    params: MontgomeryParams,
    /// The array is built once and re-armed per multiplication with
    /// [`PackedWaveArray::reset_with`], keeping the multiplication
    /// path free of heap allocation.
    arr: PackedWaveArray,
    total_cycles: u64,
}

impl PackedMmmc {
    /// Creates the engine (same hardware-safety contract as
    /// [`crate::wave::WaveMmmc`]).
    pub fn new(params: MontgomeryParams) -> Self {
        assert!(
            params.is_hardware_safe(),
            "modulus is not hardware-safe at width l={}",
            params.l()
        );
        let arr = PackedWaveArray::new(params.l(), &Ubig::zero(), params.n());
        PackedMmmc {
            params,
            arr,
            total_cycles: 0,
        }
    }

    /// One multiplication with its cycle count.
    pub fn mont_mul_counted(&mut self, x: &Ubig, y: &Ubig) -> (Ubig, u64) {
        let l = self.params.l();
        assert!(
            self.params.check_operand(x) && self.params.check_operand(y),
            "operands must be < 2N"
        );
        self.arr.reset_with(y);
        for tau in 0..=(3 * l + 2) {
            let injecting = tau % 2 == 0 && tau / 2 <= l + 1;
            self.arr.step(injecting && x.bit(tau / 2), injecting);
        }
        let cycles = (3 * l + 4) as u64;
        self.total_cycles += cycles;
        (self.arr.result(), cycles)
    }
}

impl MontMul for PackedMmmc {
    fn params(&self) -> &MontgomeryParams {
        &self.params
    }

    fn mont_mul(&mut self, x: &Ubig, y: &Ubig) -> Ubig {
        self.mont_mul_counted(x, y).0
    }

    fn consumed_cycles(&self) -> Option<u64> {
        Some(self.total_cycles)
    }

    fn name(&self) -> &'static str {
        "packed wave model"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wave::WaveArray;
    use mmm_core::modgen::{random_operand, random_safe_params};
    use mmm_core::montgomery::mont_mul_alg2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bitwords_shift_semantics() {
        let v = BitWords::from_bits(&[true, false, true, true, false]);
        assert_eq!(v.shr1().to_bits(), [false, true, true, false, false]);
        assert_eq!(v.shl1().to_bits(), [false, true, false, true, true]);
    }

    #[test]
    fn bitwords_shift_across_word_boundary() {
        let mut v = BitWords::zeros(130);
        v.set(63, true);
        v.set(64, true);
        v.set(129, true);
        let r = v.shr1();
        assert!(r.get(62) && r.get(63) && r.get(128));
        let s = v.shl1();
        assert!(s.get(64) && s.get(65));
        assert!(!s.get(129) || v.get(128), "truncation at width");
    }

    #[test]
    fn bitwords_select() {
        let base = BitWords::from_bits(&[true, true, false, false]);
        let cond = BitWords::from_bits(&[true, false, true, false]);
        let alt = BitWords::from_bits(&[false, false, true, true]);
        assert_eq!(
            base.select(&cond, &alt).to_bits(),
            [false, true, true, false]
        );
    }

    #[test]
    fn bitwords_maj_truth_table() {
        for p in 0u8..8 {
            let a = BitWords::from_bits(&[p & 1 == 1]);
            let b = BitWords::from_bits(&[p & 2 == 2]);
            let c = BitWords::from_bits(&[p & 4 == 4]);
            let want = (p & 1 == 1) as u8 + (p & 2 == 2) as u8 + (p & 4 == 4) as u8 >= 2;
            assert_eq!(BitWords::maj(&a, &b, &c).get(0), want, "p={p}");
        }
    }

    #[test]
    fn packed_trace_identical_to_per_bit_model() {
        // The defining test: every cycle, every T bit, across widths
        // spanning word boundaries.
        let mut rng = StdRng::seed_from_u64(91);
        for l in [3usize, 8, 31, 62, 63, 64, 65, 100, 130] {
            let p = random_safe_params(&mut rng, l);
            let x = random_operand(&mut rng, &p);
            let y = random_operand(&mut rng, &p);
            let mut slow = WaveArray::new(l, &y, p.n());
            let mut fast = PackedWaveArray::new(l, &y, p.n());
            slow.clear();
            fast.clear();
            for tau in 0..=(3 * l + 2) {
                let injecting = tau % 2 == 0 && tau / 2 <= l + 1;
                let xi = injecting && x.bit(tau / 2);
                slow.step(xi, injecting);
                fast.step(xi, injecting);
                assert_eq!(
                    slow.t_register(),
                    fast.t_register(),
                    "T trace diverged at l={l} tau={tau}"
                );
            }
            assert_eq!(slow.result(), fast.result());
        }
    }

    #[test]
    fn packed_engine_matches_reference_large() {
        let mut rng = StdRng::seed_from_u64(92);
        for l in [256usize, 512, 1024] {
            let p = random_safe_params(&mut rng, l);
            let x = random_operand(&mut rng, &p);
            let y = random_operand(&mut rng, &p);
            let mut engine = PackedMmmc::new(p.clone());
            let (got, cycles) = engine.mont_mul_counted(&x, &y);
            assert_eq!(got, mont_mul_alg2(&p, &x, &y), "l={l}");
            assert_eq!(cycles, (3 * l + 4) as u64);
        }
    }

    #[test]
    fn reset_with_is_equivalent_to_fresh_array() {
        let mut rng = StdRng::seed_from_u64(94);
        for l in [5usize, 63, 64, 65, 100] {
            let p = random_safe_params(&mut rng, l);
            let y1 = random_operand(&mut rng, &p);
            let y2 = random_operand(&mut rng, &p);
            let x = random_operand(&mut rng, &p);
            // Dirty the reused array with a full multiplication first.
            let mut reused = PackedWaveArray::new(l, &y1, p.n());
            for tau in 0..=(3 * l + 2) {
                let injecting = tau % 2 == 0 && tau / 2 <= l + 1;
                reused.step(injecting && x.bit(tau / 2), injecting);
            }
            reused.reset_with(&y2);
            let mut fresh = PackedWaveArray::new(l, &y2, p.n());
            for tau in 0..=(3 * l + 2) {
                let injecting = tau % 2 == 0 && tau / 2 <= l + 1;
                let xi = injecting && x.bit(tau / 2);
                reused.step(xi, injecting);
                fresh.step(xi, injecting);
                assert_eq!(reused.t_register(), fresh.t_register(), "l={l} tau={tau}");
            }
            assert_eq!(reused.result(), fresh.result(), "l={l}");
        }
    }

    #[test]
    fn engine_reuse_across_many_multiplications() {
        let mut rng = StdRng::seed_from_u64(95);
        let p = random_safe_params(&mut rng, 40);
        let mut engine = PackedMmmc::new(p.clone());
        for _ in 0..10 {
            let x = random_operand(&mut rng, &p);
            let y = random_operand(&mut rng, &p);
            assert_eq!(engine.mont_mul(&x, &y), mont_mul_alg2(&p, &x, &y));
        }
    }

    #[test]
    fn packed_exponentiation_matches_modpow() {
        let mut rng = StdRng::seed_from_u64(93);
        let p = random_safe_params(&mut rng, 128);
        let m = Ubig::random_below(&mut rng, p.n());
        let e = Ubig::random_exact_bits(&mut rng, 128);
        let mut me = mmm_core::expo::ModExp::new(PackedMmmc::new(p.clone()));
        assert_eq!(me.modexp(&m, &e), m.modpow(&e, p.n()));
    }
}
