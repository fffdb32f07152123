//! Constant-time selection and subtraction primitives — the branchless
//! building blocks of the hardened serving mode.
//!
//! Every helper here follows one discipline: **the sequence of executed
//! instructions and memory addresses touched never depends on secret
//! values**. Secrets only influence *data* flowing through ALU
//! operations (`&`, `|`, `^`, wrapping add/sub), never control flow
//! (`if`/`match`/early `return`) and never array indices. The shape is
//! the `subtle`-crate `Choice`/`ConditionallySelectable` idiom: a
//! comparison produces an all-zeros/all-ones [`Choice`] mask, and a
//! selection becomes `(a & mask) | (b & !mask)`.
//!
//! Soundness here means two things, argued per helper in its docs:
//!
//! 1. **Functional** — the branchless form computes the same value as
//!    the naive branchy form (each doctest pins this).
//! 2. **Leakage** — no operand-dependent branch or index. We stay
//!    within safe Rust (this crate is `forbid(unsafe_code)`), so the
//!    guarantee is "no *source-level* secret-dependent branches"; the
//!    timing harness in `mmm-bench` (`tests/timing_variance.rs`)
//!    empirically checks that the compiled artifact kept the property.
//!
//! The callers are the constant-time table sweep
//! `mmm-core::rows::gather` (a [`Choice`] per entry) and the hardened
//! correction path of `mmm-core`'s `VerifiedEngine`
//! ([`ct_reduce_once`]). The engines' hardened final subtractions run
//! their own row-wise borrow chains in `mmm-core::rows` and
//! `mmm-core::batch`.

use crate::limbs::Limb;
use crate::ubig::Ubig;

/// A secret boolean as a full-width mask: `0` (false) or `u64::MAX`
/// (true). Constructing one from a comparison is branchless, and using
/// one costs a couple of ALU ops — never a jump.
///
/// ```
/// use mmm_bigint::ct::Choice;
///
/// let t = Choice::from_bool(true);
/// let f = Choice::from_bool(false);
/// assert_eq!(t.mask(), u64::MAX);
/// assert_eq!(f.mask(), 0);
/// assert_eq!((!t).mask(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice(u64);

impl Choice {
    /// A `Choice` from a bit that is already known to be `0` or `1`:
    /// `-bit` in two's complement is `0` or all-ones. Branchless.
    ///
    /// ```
    /// use mmm_bigint::ct::Choice;
    /// assert_eq!(Choice::from_bit(1).mask(), u64::MAX);
    /// assert_eq!(Choice::from_bit(0).mask(), 0);
    /// ```
    #[inline]
    pub const fn from_bit(bit: u64) -> Self {
        debug_assert!(bit <= 1);
        Choice(bit.wrapping_neg())
    }

    /// A `Choice` from a `bool`. The `as u64` cast is a zero-extension,
    /// not a branch; use this only where the `bool` itself was derived
    /// without secret-dependent branching (e.g. a public condition).
    #[inline]
    pub const fn from_bool(b: bool) -> Self {
        Choice::from_bit(b as u64)
    }

    /// Branchless equality of two indices: true iff `a == b`.
    ///
    /// `x = a ^ b` is zero exactly on equality. `x | -x` has its top
    /// bit set iff `x != 0` (for `x != 0`, either `x` or `-x` is
    /// `≥ 2^63`); shifting that bit down and subtracting from 1 gives
    /// the equality bit with no comparison instruction.
    ///
    /// ```
    /// use mmm_bigint::ct::Choice;
    /// assert_eq!(Choice::ct_eq_usize(5, 5).mask(), u64::MAX);
    /// assert_eq!(Choice::ct_eq_usize(5, 6).mask(), 0);
    /// ```
    #[inline]
    pub const fn ct_eq_usize(a: usize, b: usize) -> Self {
        let x = (a as u64) ^ (b as u64);
        let nonzero_bit = (x | x.wrapping_neg()) >> 63;
        Choice::from_bit(1 ^ nonzero_bit)
    }

    /// The raw mask: `u64::MAX` when true, `0` when false.
    #[inline]
    pub const fn mask(self) -> u64 {
        self.0
    }

    /// Converts to `bool` — for asserts and tests, **not** for
    /// branching on secrets in production paths.
    #[inline]
    pub const fn as_bool(self) -> bool {
        self.0 != 0
    }
}

impl std::ops::Not for Choice {
    type Output = Choice;
    #[inline]
    fn not(self) -> Choice {
        Choice(!self.0)
    }
}

impl std::ops::BitAnd for Choice {
    type Output = Choice;
    #[inline]
    fn bitand(self, rhs: Choice) -> Choice {
        Choice(self.0 & rhs.0)
    }
}

impl std::ops::BitOr for Choice {
    type Output = Choice;
    #[inline]
    fn bitor(self, rhs: Choice) -> Choice {
        Choice(self.0 | rhs.0)
    }
}

/// Branchless two-way select: `a` when `choice` is true, else `b`.
/// With `m` all-ones or all-zeros, `(a & m) | (b & !m)` is exactly one
/// of the operands — a 3-op replacement for `if choice { a } else { b }`.
///
/// ```
/// use mmm_bigint::ct::{ct_select_limb, Choice};
/// assert_eq!(ct_select_limb(Choice::from_bit(1), 7, 9), 7);
/// assert_eq!(ct_select_limb(Choice::from_bit(0), 7, 9), 9);
/// ```
#[inline]
pub const fn ct_select_limb(choice: Choice, a: Limb, b: Limb) -> Limb {
    (a & choice.0) | (b & !choice.0)
}

/// Branchless subtract-with-borrow on one limb, with the borrow carried
/// as a `0`/`1` word instead of a `bool` (no flag-to-branch round
/// trips). Computes `a - b - borrow_in` in 128-bit arithmetic; the
/// wrap-around bit 64 is the borrow-out.
///
/// ```
/// use mmm_bigint::ct::sbb_ct;
/// assert_eq!(sbb_ct(5, 3, 0), (2, 0));
/// assert_eq!(sbb_ct(0, 1, 0), (u64::MAX, 1));
/// assert_eq!(sbb_ct(0, 0, 1), (u64::MAX, 1));
/// ```
#[inline]
pub const fn sbb_ct(a: Limb, b: Limb, borrow_in: u64) -> (Limb, u64) {
    debug_assert!(borrow_in <= 1);
    let d = (a as u128).wrapping_sub((b as u128) + (borrow_in as u128));
    (d as Limb, ((d >> 64) as u64) & 1)
}

/// Whether `a >= b` over equal-length little-endian limb slices,
/// decided by running the full subtraction borrow chain (no early
/// exit, no limb-wise compare-and-branch): `a >= b` iff `a - b` does
/// not borrow out.
///
/// ```
/// use mmm_bigint::ct::ct_ge;
/// assert!(ct_ge(&[5, 1], &[9, 0]).as_bool());  // 2^64+5 >= 9
/// assert!(!ct_ge(&[9, 0], &[5, 1]).as_bool());
/// assert!(ct_ge(&[3, 3], &[3, 3]).as_bool());
/// ```
///
/// # Panics
/// Panics if the slices differ in length (a public shape error).
#[inline]
pub fn ct_ge(a: &[Limb], b: &[Limb]) -> Choice {
    assert_eq!(a.len(), b.len(), "ct_ge: length mismatch");
    let mut borrow = 0u64;
    for (&x, &y) in a.iter().zip(b) {
        let (_, b_out) = sbb_ct(x, y, borrow);
        borrow = b_out;
    }
    Choice::from_bit(1 ^ borrow)
}

/// Masked in-place subtraction: `a -= b` when `choice` is true, else
/// `a` is unchanged — but the subtraction is *executed* either way
/// (`b & mask` is zero when the choice is false, so the borrow chain
/// runs over zeros and writes `a` back unchanged). Same instruction
/// trace for both outcomes.
///
/// The mask passes through [`std::hint::black_box`], so the compiler
/// cannot see that it is all ones or all zeros. Inlined next to the
/// [`ct_ge`] that made the mask (as in [`ct_sub_if_ge`]), it otherwise
/// knows both, and turns the masked pass into a branch on the mask
/// that skips the subtraction.
///
/// ```
/// use mmm_bigint::ct::{ct_sub_assign, Choice};
/// let mut a = [7u64, 1];
/// ct_sub_assign(&mut a, &[9, 0], Choice::from_bit(1));
/// assert_eq!(a, [u64::MAX - 1, 0]); // 2^64+7-9
/// ct_sub_assign(&mut a, &[1, 0], Choice::from_bit(0));
/// assert_eq!(a, [u64::MAX - 1, 0]); // unchanged
/// ```
///
/// # Panics
/// Panics if the slices differ in length (a public shape error).
#[inline]
pub fn ct_sub_assign(a: &mut [Limb], b: &[Limb], choice: Choice) {
    assert_eq!(a.len(), b.len(), "ct_sub_assign: length mismatch");
    let m = std::hint::black_box(choice.mask());
    let mut borrow = 0u64;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d, b_out) = sbb_ct(*x, y & m, borrow);
        *x = d;
        borrow = b_out;
    }
}

/// The branchless conditional final subtraction in one call: subtract
/// `n` from `a` exactly when `a >= n`, leaving `a < n` whenever
/// `a < 2n` on entry. Two fixed passes over the limbs — one borrow
/// chain to decide, one masked subtraction to apply — so the work done
/// is independent of whether the subtraction "happened".
///
/// Returns the decision (true iff the subtraction was applied), which
/// callers may use for *public* bookkeeping only.
///
/// ```
/// use mmm_bigint::ct::ct_sub_if_ge;
/// let mut a = [14u64, 0];
/// assert!(ct_sub_if_ge(&mut a, &[10, 0]).as_bool());
/// assert_eq!(a, [4, 0]);
/// assert!(!ct_sub_if_ge(&mut a, &[10, 0]).as_bool());
/// assert_eq!(a, [4, 0]);
/// ```
#[inline]
pub fn ct_sub_if_ge(a: &mut [Limb], n: &[Limb]) -> Choice {
    let ge = ct_ge(a, n);
    ct_sub_assign(a, n, ge);
    ge
}

/// Canonicalizes a value known to be `< 2n` into `[0, n)` with a
/// branchless conditional subtraction over fixed-width buffers (both
/// operands padded to `n`'s limb count + 1). Used on the slow
/// correction paths of the hardened mode, where the fast engines'
/// in-place subtraction does not apply but the `< N` output contract
/// must still hold.
///
/// The returned [`Ubig`] is normalized (trailing zero limbs dropped) —
/// a value-dependent *length*, which is the documented residual leak
/// of the `Ubig` representation itself (DESIGN.md §12), not of this
/// reduction.
///
/// ```
/// use mmm_bigint::ct::ct_reduce_once;
/// use mmm_bigint::Ubig;
/// let n = Ubig::from(97u64);
/// assert_eq!(ct_reduce_once(&Ubig::from(130u64), &n), Ubig::from(33u64));
/// assert_eq!(ct_reduce_once(&Ubig::from(96u64), &n), Ubig::from(96u64));
/// ```
pub fn ct_reduce_once(v: &Ubig, n: &Ubig) -> Ubig {
    let width = n.limbs().len() + 1;
    let mut a = vec![0 as Limb; width];
    let mut b = vec![0 as Limb; width];
    a[..v.limbs().len()].copy_from_slice(v.limbs());
    b[..n.limbs().len()].copy_from_slice(n.limbs());
    ct_sub_if_ge(&mut a, &b);
    Ubig::from_limbs(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_ops() {
        let t = Choice::from_bool(true);
        let f = Choice::from_bool(false);
        assert_eq!((t & f).mask(), 0);
        assert_eq!((t | f).mask(), u64::MAX);
        assert_eq!((!f).mask(), u64::MAX);
        assert!(t.as_bool());
        assert!(!f.as_bool());
    }

    #[test]
    fn ct_eq_usize_full_range_spot_checks() {
        for (a, b) in [
            (0, 0),
            (0, 1),
            (1, 0),
            (63, 63),
            (64, 63),
            (usize::MAX, usize::MAX),
        ] {
            assert_eq!(Choice::ct_eq_usize(a, b).as_bool(), a == b, "{a} vs {b}");
        }
    }

    #[test]
    fn sbb_ct_matches_limbs_sbb() {
        use crate::limbs::sbb;
        for (a, b, c) in [
            (0u64, 0u64, 0u64),
            (0, 1, 0),
            (0, 0, 1),
            (u64::MAX, u64::MAX, 1),
            (5, 3, 1),
            (0x9E37_79B9_7F4A_7C15, 0xDEAD_BEEF_CAFE_F00D, 0),
        ] {
            let (d1, b1) = sbb_ct(a, b, c);
            let (d2, b2) = sbb(a, b, c == 1);
            assert_eq!((d1, b1 == 1), (d2, b2), "a={a} b={b} c={c}");
        }
    }

    #[test]
    fn ct_ge_agrees_with_ubig_ordering() {
        let cases: Vec<(Vec<Limb>, Vec<Limb>)> = vec![
            (vec![0, 0], vec![0, 0]),
            (vec![1, 0], vec![0, 0]),
            (vec![0, 1], vec![u64::MAX, 0]),
            (vec![u64::MAX, 0], vec![0, 1]),
            (vec![3, 7, 1], vec![3, 7, 1]),
            (vec![2, 7, 1], vec![3, 7, 1]),
        ];
        for (a, b) in cases {
            let ua = Ubig::from_limbs(a.clone());
            let ub = Ubig::from_limbs(b.clone());
            assert_eq!(ct_ge(&a, &b).as_bool(), ua >= ub, "{ua} vs {ub}");
        }
    }

    #[test]
    fn ct_sub_if_ge_canonicalizes_below_2n() {
        // Every value in [0, 2n) lands in [0, n) and keeps its residue.
        let n = 1_000_003u64;
        for v in [0u64, 1, n - 1, n, n + 1, 2 * n - 1] {
            let mut a = [v, 0];
            let applied = ct_sub_if_ge(&mut a, &[n, 0]);
            assert_eq!(a, [v % n, 0], "v={v}");
            assert_eq!(applied.as_bool(), v >= n, "v={v}");
        }
    }

    #[test]
    fn ct_reduce_once_matches_rem_on_values_below_2n() {
        let n = Ubig::from_dec("170141183460469231731687303715884105727").unwrap();
        let two_n = &n + &n;
        let mut v = Ubig::one();
        while v < two_n {
            assert_eq!(ct_reduce_once(&v, &n), v.rem(&n));
            // Stride through the range with a multiplicative step.
            v = &(&v * &Ubig::from(3u64)) + &Ubig::from(12345u64);
        }
    }
}
