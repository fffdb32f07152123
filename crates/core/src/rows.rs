//! The struct-of-arrays limb layout every batch engine multiplies in,
//! called "rows": limb `j` of lane `k` sits at `[j·64 + k]`, and an
//! operand of width `l` has `s = ⌈(l+2)/64⌉` rows.
//!
//! Rows are the one engine contract:
//! [`BatchMontMul::try_mont_mul_rows`] is the one multiply path of every batch engine, and their
//! `Vec<Ubig>` methods are one adapter here that stages lanes into
//! engine-owned rows. RSA's and ECC's scans keep every lane in a
//! resident [`FeRows`] from one load to one store, and [`gather`] is
//! their one table read — the paper's Algorithm 3, where the array's
//! output is the next operand as it stands, below 2N, unconverted.
//!
//! Only lanes `0..lanes` of a call are live. Dead columns of the
//! operands are never read as values, and dead columns of the result
//! are unspecified. Conversion between `Ubig` lanes and rows lives only
//! in this module.

use crate::error::{validate_mont_batch, MmmError, OperandBound};
use crate::montgomery::MontgomeryParams;
use crate::traits::BatchMontMul;
use mmm_bigint::ct::Choice;
use mmm_bigint::limbs::{self, Limb, LIMB_BITS};
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

/// A resident lane vector: up to 64 lanes in rows, plus the live-lane
/// count. Dead columns hold no value: no operation reads them as an
/// operand. Methods panic on more than 64 lanes, on a lane that is not
/// live, or on a value wider than the rows.
#[derive(Debug, Clone, Default)]
pub struct FeRows {
    limbs: Vec<Limb>,
    lanes: usize,
}

impl FeRows {
    /// A zeroed vector of `rows` rows and `lanes` live lanes.
    pub fn zeros(rows: usize, lanes: usize) -> Self {
        let mut out = FeRows::default();
        out.limbs.resize(rows * ROW_LANES, 0);
        out.set_lanes(lanes);
        out
    }

    /// `vals` in `rows` rows, one value per lane.
    pub fn load(rows: usize, vals: &[Ubig]) -> Self {
        let mut out = FeRows::default();
        out.assign(rows, vals);
        out
    }

    /// Overwrites the vector with `vals` in `rows` rows, one value per
    /// lane, taking `vals.len()` live lanes.
    pub fn assign(&mut self, rows: usize, vals: &[Ubig]) {
        self.limbs.resize(rows * ROW_LANES, 0);
        self.set_lanes(vals.len());
        for (k, v) in vals.iter().enumerate() {
            set_lane_of(&mut self.limbs, k, v);
        }
    }

    /// The live lanes, one value per lane.
    pub fn store(&self) -> Vec<Ubig> {
        let mut out = Vec::with_capacity(self.lanes);
        self.store_into(&mut out);
        out
    }

    /// [`FeRows::store`] into `out`, reusing its lanes' limb buffers.
    pub fn store_into(&self, out: &mut Vec<Ubig>) {
        limbs_to_lanes_into(&self.limbs, self.rows(), ROW_LANES, self.lanes, out);
    }

    /// Number of live lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Sets the number of live lanes; no column changes.
    pub fn set_lanes(&mut self, lanes: usize) {
        assert!(lanes <= ROW_LANES, "at most {ROW_LANES} lanes");
        self.lanes = lanes;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.limbs.len() / ROW_LANES
    }

    /// The rows, `rows() · 64` limbs.
    pub fn limbs(&self) -> &[Limb] {
        &self.limbs
    }

    /// The rows, for writing.
    pub fn limbs_mut(&mut self) -> &mut [Limb] {
        &mut self.limbs
    }

    /// Lane `k` as a value.
    pub fn lane(&self, k: usize) -> Ubig {
        assert!(k < self.lanes, "lane {k} of {}", self.lanes);
        lane_of(&self.limbs, k)
    }

    /// Overwrites lane `k` with `v`.
    pub fn set_lane(&mut self, k: usize, v: &Ubig) {
        assert!(k < self.lanes, "lane {k} of {}", self.lanes);
        set_lane_of(&mut self.limbs, k, v);
    }

    /// Every one of `lanes` live lanes becomes `v`.
    pub fn broadcast(&mut self, v: &Ubig, lanes: usize) {
        self.set_lanes(lanes);
        assert!(v.limbs().len() <= self.rows(), "value wider than the rows");
        for (row, j) in self.limbs.chunks_exact_mut(ROW_LANES).zip(0..) {
            row[..lanes].fill(v.limbs().get(j).copied().unwrap_or(0));
        }
    }

    /// Copies column `col` of `src` into lane `k`.
    pub fn copy_lane(&mut self, k: usize, src: &FeRows, col: usize) {
        let rows = self.limbs.chunks_exact_mut(ROW_LANES);
        for (dst, src) in rows.zip(src.limbs.chunks_exact(ROW_LANES)) {
            dst[k] = src[col];
        }
    }

    /// Row `j` as [`gather`] reads a table entry: all 64 columns, or
    /// just column 0 for a one-lane vector, which gather broadcasts.
    pub fn gather_row(&self, j: usize) -> &[Limb] {
        &self.limbs[j * ROW_LANES..][..if self.lanes == 1 { 1 } else { ROW_LANES }]
    }

    /// Zeroes lanes `0..lanes` and takes them as the live lanes.
    pub fn clear(&mut self, lanes: usize) {
        self.set_lanes(lanes);
        for row in self.limbs.chunks_exact_mut(ROW_LANES) {
            row[..lanes].fill(0);
        }
    }
}

/// Lane `k` of the rows `buf` as a value.
pub(crate) fn lane_of(buf: &[Limb], k: usize) -> Ubig {
    Ubig::from_limbs(buf.iter().skip(k).step_by(ROW_LANES).copied().collect())
}

/// Overwrites lane `k` of the rows `buf` with `v`.
pub(crate) fn set_lane_of(buf: &mut [Limb], k: usize, v: &Ubig) {
    let limbs = v.limbs();
    assert!(
        limbs.len() * ROW_LANES <= buf.len(),
        "value wider than the rows"
    );
    for (slot, j) in buf.iter_mut().skip(k).step_by(ROW_LANES).zip(0..) {
        *slot = limbs.get(j).copied().unwrap_or(0);
    }
}

/// `out = a · b` on `a`'s live lanes: one call of `engine`'s rows
/// entry. Lane counts that differ are a [`MmmError::LengthMismatch`].
pub fn try_mont_mul<E: BatchMontMul + ?Sized>(
    engine: &mut E,
    a: &FeRows,
    b: &FeRows,
    out: &mut FeRows,
) -> Result<(), MmmError> {
    if a.lanes != b.lanes {
        return Err(MmmError::LengthMismatch {
            left: a.lanes,
            right: b.lanes,
        });
    }
    out.lanes = a.lanes;
    engine.try_mont_mul_rows(&a.limbs, &b.limbs, a.lanes, &mut out.limbs)
}

/// The scans' one table read: lane `k` of `out` becomes lane `k` of
/// table entry `digits[k]`, whose row `j` is `row_of(d, j)` with lane
/// `k` at `[k]` — or at `[0]` for every lane when the row is one limb
/// long (a one-lane entry, broadcast). When `hardened`, every entry is
/// read for every lane and the wanted one is kept by a lane mask —
/// `subtle`'s `ConditionallySelectable` pattern, across lanes — so
/// which memory the gather touches does not depend on the secret
/// digits.
pub fn gather<'t>(
    entries: usize,
    row_of: impl Fn(usize, usize) -> &'t [Limb],
    digits: &[usize],
    hardened: bool,
    out: &mut FeRows,
) {
    let lanes = digits.len();
    let pick = |src: &[Limb], k: usize| src[if src.len() == 1 { 0 } else { k }];
    if !hardened {
        out.set_lanes(lanes);
        for (j, dst) in out.limbs.chunks_exact_mut(ROW_LANES).enumerate() {
            for (k, (o, &d)) in dst.iter_mut().zip(digits).enumerate() {
                *o = pick(row_of(d, j), k);
            }
        }
        return;
    }
    out.clear(lanes);
    let mut mask = [0 as Limb; ROW_LANES];
    for d in 0..entries {
        for (m, &dk) in mask.iter_mut().zip(digits) {
            *m = Choice::ct_eq_usize(d, dk).mask();
        }
        for (j, dst) in out.limbs.chunks_exact_mut(ROW_LANES).enumerate() {
            let src = row_of(d, j);
            for (k, (o, &m)) in dst[..lanes].iter_mut().zip(&mask).enumerate() {
                *o |= pick(src, k) & m;
            }
        }
    }
}

/// The one branchless conditional subtraction over rows: every column
/// of the first `n.len()` rows of `t` at or above `n` (the lane-shared
/// modulus, padded to that many limbs) becomes itself less `n`. One
/// full borrow chain per column decides and one masked subtraction
/// applies, so both passes execute the same instructions whatever the
/// values are (the [`mmm_bigint::ct`] discipline, vectorized across
/// columns).
///
/// Columns below `2N` land in `[0, N)` with their residue unchanged;
/// dead columns are transformed too and stay unspecified.
/// Allocation-free: the per-column borrow and mask state are two
/// stack rows.
///
/// # Panics
/// Panics if `t` holds fewer than `n.len()` rows.
#[inline(never)]
pub fn cond_sub_rows(n: &[Limb], t: &mut [Limb]) {
    cond_sub_rows_inline(n, t);
}

/// The one source of [`cond_sub_rows`], inlined into its callers so
/// that a `#[target_feature]` region (the radix-2⁵² engine's wide call)
/// compiles both passes at the region's vector width.
#[inline(always)]
pub(crate) fn cond_sub_rows_inline(n: &[Limb], t: &mut [Limb]) {
    // Pass 1: full borrow chain per column — t < N iff it borrows out.
    let mut borrow: LaneRow = [0; ROW_LANES];
    for (j, &nj) in n.iter().enumerate() {
        let tj = row(t, j);
        for k in 0..ROW_LANES {
            borrow[k] = sbb(tj[k], nj, borrow[k]).1;
        }
    }
    // borrow = 0 → t ≥ N → all-ones mask (two's-complement decrement).
    let mut mask: LaneRow = [0; ROW_LANES];
    for k in 0..ROW_LANES {
        mask[k] = borrow[k].wrapping_sub(1);
    }
    // Pass 2: recompute the subtraction with the modulus masked to
    // zero in columns that keep their value — same trace either way.
    borrow = [0; ROW_LANES];
    for (j, &nj) in n.iter().enumerate() {
        let tj = row_mut(t, j);
        for k in 0..ROW_LANES {
            let (d, b) = sbb(tj[k], nj & mask[k], borrow[k]);
            tj[k] = d;
            borrow[k] = b;
        }
    }
}

/// The one-lane form of [`cond_sub_rows`], for the per-lane path: `t`
/// (one lane's limbs) becomes `t − n` when `t ≥ n`, with the same two
/// passes on the same borrow step. The mask passes through
/// [`std::hint::black_box`], so the compiler cannot see that it is all
/// ones or all zeros: knowing that, it turns the masked pass into a
/// branch on the mask that skips loading `n`. [`mmm_bigint::ct::ct_sub_assign`]
/// holds its mask behind the same barrier.
#[inline(always)]
pub(crate) fn cond_sub_lane(n: &[Limb], t: &mut [Limb]) {
    let borrow = t.iter().zip(n).fold(0, |b, (&tj, &nj)| sbb(tj, nj, b).1);
    let mask = std::hint::black_box(borrow.wrapping_sub(1));
    let mut borrow = 0;
    for (tj, &nj) in t.iter_mut().zip(n) {
        (*tj, borrow) = sbb(*tj, nj & mask, borrow);
    }
}

/// One limb of a row-wise borrow chain: `a − b − borrow_in` and its
/// borrow out, as [`sbb_ct`](mmm_bigint::ct::sbb_ct) computes them but
/// without `u128`. The borrow out of bit 63 is
/// `(¬a ∧ b) ∨ ((¬a ∨ b) ∧ d)` on the top bit
/// of the difference `d` (Hacker's Delight §2-13), so a loop of these
/// over a row is plain 64-bit lane arithmetic that vectorizes at any
/// vector width, with no branch and no compare.
#[inline(always)]
fn sbb(a: Limb, b: Limb, borrow_in: Limb) -> (Limb, Limb) {
    debug_assert!(borrow_in <= 1);
    let d = a.wrapping_sub(b).wrapping_sub(borrow_in);
    (d, ((!a & b) | ((!a | b) & d)) >> (LIMB_BITS - 1))
}

/// One row of a rows buffer: fixed-size, so the engines' per-lane
/// loops have a compile-time trip count (64) for the vectorizer.
pub(crate) type LaneRow = [Limb; ROW_LANES];

/// Borrows row `j` of a rows buffer.
#[inline(always)]
pub(crate) fn row(buf: &[Limb], j: usize) -> &LaneRow {
    buf[j * ROW_LANES..][..ROW_LANES]
        .try_into()
        .expect("a row is 64 limbs")
}

/// Mutable variant of [`row`].
#[inline(always)]
pub(crate) fn row_mut(buf: &mut [Limb], j: usize) -> &mut LaneRow {
    (&mut buf[j * ROW_LANES..][..ROW_LANES])
        .try_into()
        .expect("a row is 64 limbs")
}

/// The engine-owned staging rows (`x`, `y`, result) of the
/// `Vec<Ubig>` adapter, [`mont_mul_lanes`]; sized by its first call.
pub(crate) type LaneStage = [FeRows; 3];

/// The one `Vec<Ubig>` adapter: an engine's `mont_mul_batch_into`
/// through its rows entry. The lanes are validated as
/// [`BatchMontMul::try_mont_mul_batch`] documents (a rejection panics
/// with its text), staged into the rows `stage` lends out of the
/// engine, multiplied by one rows call and stored into `out`, reusing
/// its limb buffers, so a warm call allocates nothing.
pub(crate) fn mont_mul_lanes<E: BatchMontMul>(
    engine: &mut E,
    stage: fn(&mut E) -> &mut LaneStage,
    xs: &[Ubig],
    ys: &[Ubig],
    out: &mut Vec<Ubig>,
) {
    let [mut x, mut y, mut z] = std::mem::take(stage(engine));
    let rows = row_count(engine.params());
    let done = validate_mont_batch(engine.params(), engine.max_lanes(), xs, ys).and_then(|()| {
        x.assign(rows, xs);
        y.assign(rows, ys);
        z.limbs.resize(rows * ROW_LANES, 0);
        try_mont_mul(engine, &x, &y, &mut z)
    });
    if done.is_ok() {
        z.store_into(out);
    }
    *stage(engine) = [x, y, z];
    done.unwrap_or_else(|e| panic!("{e}"));
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
/// `two_n` (the padded `2N`), naming it: one row of constant-time
/// borrow chains per operand ([`below_rows`]), inlined so that a
/// `#[target_feature]` region (the radix-2⁵² engine's wide call)
/// compiles them at the region's vector width. The per-lane path checks
/// its lanes as it stages them instead ([`stage_below`]).
#[inline(always)]
pub(crate) fn check_below(
    two_n: &[Limb],
    x: &[Limb],
    y: &[Limb],
    lanes: usize,
) -> Result<(), MmmError> {
    first_not_below(below_rows(two_n, x) & below_rows(two_n, y), lanes)
}

/// The range check's verdict: the lowest live lane whose bit in
/// `below` is clear is out of range.
#[inline(always)]
pub(crate) fn first_not_below(below: u64, lanes: usize) -> Result<(), MmmError> {
    let bad = !below & live_mask(lanes);
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

/// Copies the column of each live lane `k` of `v` to
/// `stage[k·s..][..s]`, with `s = bound.len()`, and returns the lanes
/// below `bound` as bits: bit `k` is set iff lane `k` borrows out of
/// `v − bound`. One pass per lane reads its column once, for the copy
/// and for one constant-time borrow chain on the carry flag
/// ([`limbs::sbb`]) — the per-lane path's range check, cheaper for a
/// narrow call than a row of vectorized chains.
pub(crate) fn stage_below(bound: &[Limb], v: &[Limb], lanes: usize, stage: &mut [Limb]) -> u64 {
    let stage = stage.chunks_exact_mut(bound.len()).take(lanes);
    stage.enumerate().fold(0, |mask, (k, dst)| {
        let column = v[k..].iter().step_by(ROW_LANES);
        let mut borrow = false;
        for ((d, &vj), &bj) in dst.iter_mut().zip(column).zip(bound) {
            *d = vj;
            borrow = limbs::sbb(vj, bj, borrow).1;
        }
        mask | (u64::from(borrow) << k)
    })
}

/// Bit `k` is set iff column `k` of `v` is below `bound`, for all 64
/// columns: one row of borrow chains ([`sbb`]) over the `bound.len()`
/// rows, with a fixed trip count so it vectorizes. Dead columns are
/// computed too; callers mask them off.
#[inline(always)]
fn below_rows(bound: &[Limb], v: &[Limb]) -> u64 {
    let mut borrow: LaneRow = [0; ROW_LANES];
    for (j, &bj) in bound.iter().enumerate() {
        let vj = row(v, j);
        for k in 0..ROW_LANES {
            borrow[k] = sbb(vj[k], bj, borrow[k]).1;
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
pub(crate) fn via_lanes<E: BatchMontMul + ?Sized>(
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
    validate_mont_batch(engine.params(), engine.max_lanes(), &xs, &ys)?;
    engine.mont_mul_batch_into(&xs, &ys, &mut zs);
    for (k, z) in zs.iter().enumerate() {
        set_lane_of(out, k, z);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_bigint::ct::sbb_ct;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sbb_matches_sbb_ct_on_edges_and_random_draws() {
        // Every pair of the edge limbs, then random minuends against a
        // random subtrahend, themselves and their successor, which
        // reach the chain's equal-top-bit cases.
        let edges = [0, 1, (1 << 63) - 1, 1 << 63, u64::MAX - 1, u64::MAX];
        let mut rng = StdRng::seed_from_u64(0x5BB);
        let random: Vec<(Limb, Limb)> = (0..2048)
            .flat_map(|_| {
                let (a, b): (Limb, Limb) = (rng.gen(), rng.gen());
                [(a, b), (a, a), (a, a.wrapping_add(1))]
            })
            .collect();
        let pairs = edges
            .iter()
            .flat_map(|&a| edges.iter().map(move |&b| (a, b)))
            .chain(random);
        for (a, b) in pairs {
            for borrow in [0, 1] {
                assert_eq!(
                    sbb(a, b, borrow),
                    sbb_ct(a, b, borrow),
                    "{a:#x} - {b:#x} - {borrow}"
                );
            }
        }
    }

    #[test]
    fn below_mask_flags_each_lane() {
        // Two rows, bound 2^64 + 5: lanes at, just under and above it.
        let bound = [5, 1];
        let mut v = vec![0; 2 * ROW_LANES];
        let lanes = [(4, 1), (5, 1), (u64::MAX, 0), (0, 2), (6, 1)];
        for (k, &(lo, hi)) in lanes.iter().cycle().take(ROW_LANES).enumerate() {
            v[k] = lo;
            v[ROW_LANES + k] = hi;
        }
        // Five lanes staged with their chains, all 64 on the row chains.
        let mut stage = vec![0; 2 * ROW_LANES];
        assert_eq!(stage_below(&bound, &v, lanes.len(), &mut stage), 0b00101);
        let staged: Vec<(Limb, Limb)> = stage.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        assert_eq!(staged[..lanes.len()], lanes);
        assert!(stage[2 * lanes.len()..].iter().all(|&l| l == 0));
        let every_fifth =
            (0..ROW_LANES).fold(0, |m, k| m | u64::from(k % 5 == 0 || k % 5 == 2) << k);
        assert_eq!(below_rows(&bound, &v), every_fifth);
        assert_eq!(live_mask(64), u64::MAX);
        assert_eq!(live_mask(3), 0b111);
    }

    #[test]
    fn cond_sub_rows_canonicalizes_every_column_below_2n() {
        // Two rows, N = 2^64 + 5: 0, 1, N − 1, N, N + 1 and 2N − 1,
        // round-robin over all 64 columns.
        let n = [5, 1];
        let modulus = Ubig::from_limbs(n.to_vec());
        let edges = [(0, 0), (1, 0), (4, 1), (5, 1), (6, 1), (9, 2)];
        let mut t = vec![0; 2 * ROW_LANES];
        for (k, &(lo, hi)) in edges.iter().cycle().take(ROW_LANES).enumerate() {
            t[k] = lo;
            t[ROW_LANES + k] = hi;
        }
        let before = t.clone();
        cond_sub_rows(&n, &mut t);
        for k in 0..ROW_LANES {
            let got = lane_of(&t, k);
            assert!(got < modulus, "column {k}");
            assert_eq!(got, lane_of(&before, k).rem(&modulus), "column {k}");
        }
    }
}
