//! The struct-of-arrays limb layout the batch engines multiply in
//! place, called "rows": limb `j` of lane `k` sits at `[j·64 + k]`,
//! and an operand of width `l` has `s = ⌈(l+2)/64⌉` rows. This is the
//! layout `CiosBatch` builds inside every `Vec<Ubig>` call.
//!
//! [`BatchMontMul::try_mont_mul_rows`](crate::traits::BatchMontMul::try_mont_mul_rows)
//! multiplies operands that already live in it. A caller that keeps
//! its lanes in rows for a whole computation, like the batched ECC
//! field layer, pays no transpose and no allocation per
//! multiplication. This mirrors the paper's Algorithm 3, where the
//! array's output is the next multiplication's operand as it stands:
//! below 2N, with no conversion.
//!
//! Only lanes `0..lanes` of a call are live. Dead columns of the
//! operands are never read as values, and dead columns of the result
//! are unspecified.

use crate::error::{MmmError, OperandBound};
use crate::montgomery::MontgomeryParams;
use mmm_bigint::ct::sbb_ct;
use mmm_bigint::limbs::{Limb, LIMB_BITS};
use mmm_bigint::transpose::limbs_to_lanes_into;
use mmm_bigint::Ubig;

/// Lanes per row: the stride of the layout.
pub const ROW_LANES: usize = crate::batch::MAX_LANES;

/// The number of rows `s = ⌈(l+2)/64⌉` of an operand under `params`.
pub fn row_count(params: &MontgomeryParams) -> usize {
    (params.l() + 2).div_ceil(LIMB_BITS)
}

/// `v`'s limbs zero-padded to `rows` limbs.
///
/// # Panics
/// Panics if `v` needs more than `rows` limbs.
pub fn padded_limbs(v: &Ubig, rows: usize) -> Vec<Limb> {
    let mut out = v.limbs().to_vec();
    assert!(out.len() <= rows, "value needs more than {rows} limbs");
    out.resize(rows, 0);
    out
}

/// The shape checks of one rows call: `lanes` in `1..=64` and every
/// buffer exactly `rows · 64` limbs long.
pub(crate) fn check_shape(
    rows: usize,
    x: &[Limb],
    y: &[Limb],
    lanes: usize,
    out: &[Limb],
) -> Result<(), MmmError> {
    if lanes == 0 {
        return Err(MmmError::EmptyBatch);
    }
    if lanes > ROW_LANES {
        return Err(MmmError::BatchTooWide {
            lanes,
            max_lanes: ROW_LANES,
        });
    }
    let want = rows * ROW_LANES;
    for len in [x.len(), y.len(), out.len()] {
        if len != want {
            return Err(MmmError::LengthMismatch {
                left: len,
                right: want,
            });
        }
    }
    Ok(())
}

/// Rejects the first live lane of `x` or `y` that is not below
/// `two_n` (the padded `2N`), naming it. One borrow chain per operand,
/// run across the live lanes of each row at once, like pass 1 of the
/// engines' hardened final subtraction.
pub(crate) fn check_below(
    two_n: &[Limb],
    x: &[Limb],
    y: &[Limb],
    lanes: usize,
) -> Result<(), MmmError> {
    let bad = !(below_mask(two_n, x, lanes) & below_mask(two_n, y, lanes)) & live_mask(lanes);
    if bad == 0 {
        Ok(())
    } else {
        Err(MmmError::OperandOutOfRange {
            lane: bad.trailing_zeros() as usize,
            bound: OperandBound::TwoN,
        })
    }
}

/// Bits `0..lanes` set.
fn live_mask(lanes: usize) -> u64 {
    u64::MAX >> (ROW_LANES - lanes)
}

/// Bit `k` is set iff live lane `k` of `v` is below `bound`: the lane
/// borrows out of `v − bound`.
fn below_mask(bound: &[Limb], v: &[Limb], lanes: usize) -> u64 {
    let mut borrow = [0 as Limb; ROW_LANES];
    let borrow = &mut borrow[..lanes];
    for (j, &bj) in bound.iter().enumerate() {
        for (b, &vk) in borrow.iter_mut().zip(&v[j * ROW_LANES..][..lanes]) {
            *b = sbb_ct(vk, bj, *b).1;
        }
    }
    borrow
        .iter()
        .enumerate()
        .fold(0, |mask, (k, &b)| mask | (b << k))
}

/// The default rows entry of engines with no native one: the live
/// lanes go through the engine's `Vec<Ubig>` entry and back. It
/// converts and allocates on every call.
pub(crate) fn via_lanes<E: crate::traits::BatchMontMul + ?Sized>(
    engine: &mut E,
    x: &[Limb],
    y: &[Limb],
    lanes: usize,
    out: &mut [Limb],
) -> Result<(), MmmError> {
    let rows = row_count(engine.params());
    check_shape(rows, x, y, lanes, out)?;
    let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
    limbs_to_lanes_into(x, rows, ROW_LANES, lanes, &mut xs);
    limbs_to_lanes_into(y, rows, ROW_LANES, lanes, &mut ys);
    crate::error::validate_mont_batch(engine.params(), engine.max_lanes(), &xs, &ys)?;
    engine.mont_mul_batch_into(&xs, &ys, &mut zs);
    for (k, z) in zs.iter().enumerate() {
        for j in 0..rows {
            out[j * ROW_LANES + k] = z.limbs().get(j).copied().unwrap_or(0);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_mask_flags_each_lane() {
        // Two rows, bound 2^64 + 5: lanes at, just under and above it.
        let bound = [5, 1];
        let mut v = vec![0; 2 * ROW_LANES];
        let lanes = [(4, 1), (5, 1), (u64::MAX, 0), (0, 2), (6, 1)];
        for (k, &(lo, hi)) in lanes.iter().enumerate() {
            v[k] = lo;
            v[ROW_LANES + k] = hi;
        }
        assert_eq!(below_mask(&bound, &v, lanes.len()), 0b00101);
        assert_eq!(live_mask(64), u64::MAX);
        assert_eq!(live_mask(3), 0b111);
    }
}
