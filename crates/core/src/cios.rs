//! Radix-2⁶⁴ CIOS (coarsely-integrated operand scanning) Montgomery
//! multiplication — the word-serial scan: the production backend on
//! hosts without an AVX2 or IFMA kernel, and the per-lane path of both
//! CIOS batch engines everywhere, with the bit-serial systolic
//! simulation retained as its fidelity oracle.
//!
//! ## Same contract, different radix
//!
//! The paper's array consumes one operand **bit** per wave (`r = 2`,
//! `~l²` bit-cell updates per multiplication). The same dependence
//! structure scales to one 64-bit **word** per scan step (Zhang et al.,
//! arXiv:2407.12701; Meng, arXiv:1609.00999): the quotient becomes
//! `m_i = t_0 · n0' mod 2⁶⁴` with `n0' = -N⁻¹ mod 2⁶⁴`, and each step is
//! two length-`s` multiply-accumulate passes, `~2·(l/64)²` u64 MACs per
//! multiplication. The engines still compute Algorithm 2's function,
//! `T = (x·y + M·N)/2^{l+2}`, not the word-domain variant with
//! `R_w = 2^{64s}`: the reduction by `2^{l+2}` factors into
//! `⌊(l+2)/64⌋` word steps plus one partial step by the remaining
//! `(l+2) mod 64` bits, and the quotient `M < 2^{l+2}` is unique. So
//! results are **bit-identical** to [`crate::batch::BitSlicedBatch`]
//! and every other Algorithm-2 engine, the non-canonical `< 2N`
//! representative included, and [`crate::engine`] swaps backends under
//! every entry point with no domain conversion. (The word-domain view
//! lives on
//! [`MontgomeryParams::word_domain`][crate::montgomery::MontgomeryParams::word_domain].)
//!
//! ## Batch layout
//!
//! [`CiosBatch`] multiplies up to 64 lanes per call in the engines'
//! one layout, rows ([`crate::rows`]): limb `j` of lane `k` at
//! `[j·64 + k]`. The inner MAC loop at fixed `j` is a unit-stride scan
//! over lanes with independent per-lane carries, which LLVM
//! auto-vectorizes (the hot loop is a free function over `noalias`
//! slices, like the bit-sliced engine's). The rows entry
//! ([`BatchMontMul::try_mont_mul_rows`]) is the engine's one multiply
//! path, and its `Vec<Ubig>` methods are the shared adapter of
//! [`crate::rows`]; both are allocation-free once warm.
//!
//! The SoA kernel costs a full 64-lane scan whatever the lane count, so
//! a call of at most `SCALAR_LANES` (32) live lanes runs the **per-lane
//! path** instead: the scalar scan behind [`CiosMont`], once per lane on
//! that lane's column (DESIGN.md §7 has the measured crossover). It is
//! one crate-private type, `PerLane`, which [`CiosBatch`] and the
//! radix-2⁵² engine ([`crate::cios52::Cios52Batch`]) both embed.
//!
//! ## The per-lane scan
//!
//! One lane's scan is written once, `scan_at`, in the shape of one cell
//! of the paper's array, which keeps its partial sum and carry in its
//! own registers: the modulus, both operands and the accumulator are
//! cut to `s` limbs once, so the multiply-accumulate loops carry no
//! bounds checks, and the accumulator's one limb above `s` is a local.
//! No limb above that is needed for operands below `2N`, which a debug
//! build asserts. The widths the tenants serve, `s = 5` (P-256) and
//! `s = 9` (the CRT halves of a 1024-bit key), instantiate it at a
//! compile-time limb count through one `match` on the public width;
//! every other width runs it at runtime width. A call stages each live
//! lane's columns of `x` and `y` into one lane's contiguous limbs and
//! range-checks them in the same pass, and a squaring stages its one
//! operand once.
//!
//! ## Constant-time status
//!
//! The scan has a fixed schedule: no final subtraction (the Walter
//! bound keeps results `< 2N`), no data-dependent branches, and memory
//! accesses that depend only on `(l, lanes)`. Under
//! [`HardeningMode::Hardened`] every result gets a **branchless
//! canonicalizing final subtraction** — [`rows::cond_sub_rows`] across the SoA
//! accumulator, its one-lane form per lane on the per-lane path — so
//! outputs are `< N` on a value-independent
//! schedule; which path runs depends only on the public lane count. The
//! scans' table reads are hardened in [`crate::rows::gather`];
//! DESIGN.md §12 has the full per-path table.

use crate::config::HardeningMode;
use crate::error::MmmError;
use crate::montgomery::MontgomeryParams;
use crate::rows::{self, check_below, check_shape, padded_limbs, row, row_mut, LaneRow, LaneStage};
use crate::traits::{BatchMontMul, MontMul};
use mmm_bigint::limbs::{adc, carrying_mul, mac_with_carry, Limb, LIMB_BITS};
use mmm_bigint::Ubig;

/// Lanes one [`CiosBatch`] advances per call (matches
/// [`crate::batch::MAX_LANES`] so sharding logic is engine-agnostic).
pub const MAX_LANES: usize = crate::batch::MAX_LANES;

/// Widest call the CIOS engines serve on the per-lane path
/// ([`PerLane`]): the largest lane count at which it was no slower than
/// [`CiosBatch`]'s SoA kernel at l = 256, 512 and 1024 (DESIGN.md §7
/// and §9 have the measured tables). Published as
/// [`EngineKind::per_lane_bound`](crate::EngineKind::per_lane_bound).
pub(crate) const SCALAR_LANES: usize = 32;

/// Shared per-width geometry of the radix-2⁶⁴ scan over `R = 2^{l+2}`.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// Operand/result limb count `s = ⌈(l+2)/64⌉`.
    sw: usize,
    /// Number of full 64-bit reduction steps `⌊(l+2)/64⌋`.
    full: usize,
    /// Remaining shift `(l+2) mod 64` handled by the partial step.
    rem: u32,
    /// `n0' = -N⁻¹ mod 2⁶⁴`.
    n0_inv: Limb,
}

impl Geometry {
    fn of(params: &MontgomeryParams) -> Self {
        let k = params.l() + 2;
        Geometry {
            sw: k.div_ceil(LIMB_BITS),
            full: k / LIMB_BITS,
            rem: (k % LIMB_BITS) as u32,
            n0_inv: params.word_n0_inv(),
        }
    }
}

/// The per-lane path: the scalar radix-2⁶⁴ scan ([`scan`]) run one
/// lane at a time, on that lane's column, each result canonicalized by
/// [`rows::cond_sub_lane`] when hardened. Its cost follows the live lanes, so
/// [`CiosBatch`] and [`Cios52Batch`](crate::cios52::Cios52Batch) run
/// calls of at most [`SCALAR_LANES`] lanes on it, and [`CiosMont`]
/// wraps one for single multiplications. It owns the geometry, the
/// padded modulus and operand bound, and the staged lanes.
#[derive(Debug, Clone)]
pub(crate) struct PerLane {
    geo: Geometry,
    /// Modulus padded to `sw` limbs.
    n: Vec<Limb>,
    /// `2N` padded to `sw` limbs: the operand bound of the rows entry.
    two_n: Vec<Limb>,
    /// The live lanes' columns of `x` and `y`, `sw` limbs per lane,
    /// staged by the range check ([`rows::stage_below`]).
    x: Vec<Limb>,
    y: Vec<Limb>,
    /// One lane's result.
    t: Vec<Limb>,
}

impl PerLane {
    pub(crate) fn new(params: &MontgomeryParams) -> Self {
        let geo = Geometry::of(params);
        PerLane {
            n: padded_limbs(params.n(), geo.sw),
            two_n: padded_limbs(&params.two_n(), geo.sw),
            x: vec![0; SCALAR_LANES * geo.sw],
            y: vec![0; SCALAR_LANES * geo.sw],
            t: vec![0; geo.sw],
            geo,
        }
    }

    /// The modulus padded to `sw = ⌈(l+2)/64⌉` limbs.
    pub(crate) fn modulus(&self) -> &[Limb] {
        &self.n
    }

    /// `2N` padded to `sw` limbs: the operand bound of the rows entry.
    pub(crate) fn operand_bound(&self) -> &[Limb] {
        &self.two_n
    }

    /// The rows entry on rows of the right shape and at most
    /// [`SCALAR_LANES`] lanes: stages each live lane's columns of `x`
    /// and `y` while checking them below `2N` (`out` untouched when one
    /// is not), then scans each lane into its column of `out`. A
    /// squaring (`x` and `y` the same rows) stages its operand once.
    pub(crate) fn try_mont_mul_rows(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        hardened: bool,
        out: &mut [Limb],
    ) -> Result<(), MmmError> {
        let square = std::ptr::eq(x, y);
        let mut below = rows::stage_below(&self.two_n, x, lanes, &mut self.x);
        if !square {
            below &= rows::stage_below(&self.two_n, y, lanes, &mut self.y);
        }
        rows::first_not_below(below, lanes)?;
        let sw = self.geo.sw;
        let ys = if square { &self.x } else { &self.y };
        let operands = self.x.chunks_exact(sw).zip(ys.chunks_exact(sw));
        for (k, (xk, yk)) in operands.take(lanes).enumerate() {
            scan(self.geo, &self.n, xk, yk, &mut self.t);
            if hardened {
                rows::cond_sub_lane(&self.n, &mut self.t);
            }
            for (o, &v) in out[k..].iter_mut().step_by(MAX_LANES).zip(&self.t) {
                *o = v;
            }
        }
        Ok(())
    }

    /// One unhardened Algorithm-2 multiplication of `x, y < 2N`, read
    /// straight from their limbs; returns the `sw` result limbs.
    fn mont_mul(&mut self, x: &Ubig, y: &Ubig) -> &[Limb] {
        let sw = self.geo.sw;
        let (xs, ys) = (&mut self.x[..sw], &mut self.y[..sw]);
        load_padded(x, xs);
        load_padded(y, ys);
        scan(self.geo, &self.n, xs, ys, &mut self.t);
        &self.t
    }
}

/// Scalar radix-2⁶⁴ CIOS engine: the solo-path counterpart of
/// [`CiosBatch`], bit-identical to every Algorithm-2 engine.
#[derive(Debug, Clone)]
pub struct CiosMont {
    params: MontgomeryParams,
    scan: PerLane,
}

impl CiosMont {
    /// Creates the engine. Unlike the systolic-array engines this one
    /// has no hardware-safety requirement: it is a software scan, so
    /// any valid `MontgomeryParams` (e.g. `tight` widths) works.
    pub fn new(params: MontgomeryParams) -> Self {
        CiosMont {
            scan: PerLane::new(&params),
            params,
        }
    }
}

impl MontMul for CiosMont {
    fn params(&self) -> &MontgomeryParams {
        &self.params
    }

    fn mont_mul(&mut self, x: &Ubig, y: &Ubig) -> Ubig {
        assert!(
            self.params.check_operand(x) && self.params.check_operand(y),
            "operands must be < 2N"
        );
        let out = Ubig::from_limbs(self.scan.mont_mul(x, y).to_vec());
        debug_assert!(self.params.check_operand(&out), "Walter bound violated");
        out
    }

    fn name(&self) -> &'static str {
        "radix-2^64 CIOS (scalar)"
    }
}

/// Copies `v`'s limbs into `buf`, zero-padding to `buf.len()`.
fn load_padded(v: &Ubig, buf: &mut [Limb]) {
    let limbs = v.limbs();
    buf[..limbs.len()].copy_from_slice(limbs);
    buf[limbs.len()..].fill(0);
}

/// One lane's Algorithm-2 scan into `t`, `x, y < 2N` in, the result
/// (`sw` limbs) out. The production widths instantiate [`scan_at`] at
/// their compile-time limb count, where its loops unroll: `sw = 5`
/// (P-256, l = 257) and `sw = 9` (a 1024-bit key's CRT halves, l =
/// 513). Every other width runs it at runtime width. The match reads
/// only the public width.
fn scan(geo: Geometry, n: &[Limb], x: &[Limb], y: &[Limb], t: &mut [Limb]) {
    match geo.sw {
        5 => scan_at(Geometry { sw: 5, ..geo }, n, x, y, t),
        9 => scan_at(Geometry { sw: 9, ..geo }, n, x, y, t),
        _ => scan_at(geo, n, x, y, t),
    }
}

/// The one source of [`scan`]: `full` word-level CIOS steps, then the
/// partial `rem`-bit reduction. `n`, `x`, `y` and `t` are cut to `sw`
/// limbs once, so the multiply-accumulate loops run without bounds
/// checks, and the accumulator's limb above `sw` lives in a local, as
/// each cell of the paper's array keeps its partial sum and carry in its
/// own registers. On return `t` holds the result.
///
/// No limb above that one is needed. With `N < 2^l` and `x, y < 2N`,
/// each word step keeps `t < 3N < 2^{l+2} ≤ 2^{64·sw}`, so `t + x_i·y +
/// m·N < 2^64·3N` fits `sw + 1` limbs, and so does the partial step's
/// `t + x_f·y + m·N < 2^rem·3N`. A debug build asserts both.
#[inline(always)]
fn scan_at(geo: Geometry, n: &[Limb], x: &[Limb], y: &[Limb], t: &mut [Limb]) {
    let sw = geo.sw;
    let (n, x, y, t) = (&n[..sw], &x[..sw], &y[..sw], &mut t[..sw]);
    t.fill(0);
    for &xi in &x[..geo.full] {
        // t += x_i · y, limb `sw` in `top`
        let top = mac_row(xi, y, t);
        // m = t_0 · n0' mod 2⁶⁴ ; t = (t + m·N) / 2⁶⁴
        let m = t[0].wrapping_mul(geo.n0_inv);
        let (zero, mut hi) = carrying_mul(m, n[0], t[0]);
        debug_assert_eq!(zero, 0, "low word must cancel");
        for j in 1..sw {
            (t[j - 1], hi) = mac_with_carry(m, n[j], t[j], hi);
        }
        let (sum, over) = adc(top, hi, false);
        debug_assert!(!over, "t + x_i·y + m·N exceeds sw + 1 limbs");
        t[sw - 1] = sum;
    }
    if geo.rem > 0 {
        // Top partial operand word (bits 64·full and up of x), then
        // the final reduction by 2^rem: m is the unique value < 2^rem
        // making t divisible (n0' mod 2^rem is -N⁻¹ mod 2^rem).
        let top = mac_row(x[geo.full], y, t);
        let mask = (1 << geo.rem) - 1;
        let m = t[0].wrapping_mul(geo.n0_inv) & mask;
        let (top, over) = adc(top, mac_row(m, n, t), false);
        debug_assert!(!over, "t + x_f·y + m·N exceeds sw + 1 limbs");
        debug_assert_eq!(t[0] & mask, 0, "low bits must cancel");
        let up = LIMB_BITS as u32 - geo.rem;
        for j in 1..sw {
            t[j - 1] = (t[j - 1] >> geo.rem) | (t[j] << up);
        }
        t[sw - 1] = (t[sw - 1] >> geo.rem) | (top << up);
        debug_assert_eq!(top >> geo.rem, 0, "result exceeds s limbs");
    }
}

/// `t += a·b` over one lane's limbs; returns the carry out of the top.
#[inline(always)]
fn mac_row(a: Limb, b: &[Limb], t: &mut [Limb]) -> Limb {
    let mut carry = 0;
    for (tj, &bj) in t.iter_mut().zip(b) {
        (*tj, carry) = mac_with_carry(a, bj, *tj, carry);
    }
    carry
}

/// The radix-2⁶⁴ CIOS **batch** engine: up to 64 independent
/// Montgomery multiplications per call in struct-of-arrays lane
/// layout, implementing the same Algorithm-2 contract (and producing
/// bit-identical results) as [`crate::batch::BitSlicedBatch`].
#[derive(Debug, Clone)]
pub struct CiosBatch {
    params: MontgomeryParams,
    /// The per-lane path of batches of at most [`SCALAR_LANES`] lanes;
    /// its geometry, padded modulus and operand bound serve the SoA
    /// kernel too.
    per_lane: PerLane,
    /// SoA operands: `x[j·64 + k]` is limb `j` of lane `k`.
    x: Vec<Limb>,
    y: Vec<Limb>,
    /// SoA accumulator, `sw + 2` limb rows.
    t: Vec<Limb>,
    /// Staging rows of the `Vec<Ubig>` methods.
    stage: LaneStage,
    /// Constant-time mode: when hardened, every result is canonicalized
    /// `< N` by [`rows::cond_sub_rows`] (SoA path) or [`rows::cond_sub_lane`]
    /// (per-lane path).
    hardening: HardeningMode,
}

impl CiosBatch {
    /// Creates an engine for `params`. Like [`CiosMont`] (and unlike
    /// the array engines) any valid parameters are accepted — there is
    /// no carry cell to overflow in a word-level scan.
    pub fn new(params: MontgomeryParams) -> Self {
        let per_lane = PerLane::new(&params);
        let sw = per_lane.geo.sw;
        CiosBatch {
            x: vec![0; sw * MAX_LANES],
            y: vec![0; sw * MAX_LANES],
            t: vec![0; (sw + 2) * MAX_LANES],
            stage: LaneStage::default(),
            per_lane,
            params,
            hardening: HardeningMode::Off,
        }
    }

    /// The engine's parameters.
    pub fn params(&self) -> &MontgomeryParams {
        &self.params
    }
}

/// Copies the live columns `0..lanes` of the rows `src` into `dst`
/// and zeroes the dead ones, so a partial batch feeds the SoA kernel
/// zeros there whatever the caller left in them.
fn copy_live_columns(src: &[Limb], lanes: usize, dst: &mut [Limb]) {
    for (d, s) in dst
        .chunks_exact_mut(MAX_LANES)
        .zip(src.chunks_exact(MAX_LANES))
    {
        d[..lanes].copy_from_slice(&s[..lanes]);
        d[lanes..].fill(0);
    }
}

/// `t[k] += a[k]·b[k] + carry[k]` across all 64 lanes of one limb
/// row, with per-lane carries — the batch MAC primitive.
#[inline(always)]
fn lane_mac(a: &LaneRow, b: &LaneRow, t: &mut LaneRow, carry: &mut LaneRow) {
    for k in 0..MAX_LANES {
        let (lo, hi) = mac_with_carry(a[k], b[k], t[k], carry[k]);
        t[k] = lo;
        carry[k] = hi;
    }
}

/// [`lane_mac`] with a lane-shared multiplicand (the modulus word,
/// identical in every lane).
#[inline(always)]
fn lane_mac_bcast(a: &LaneRow, b: Limb, t: &mut LaneRow, carry: &mut LaneRow) {
    for k in 0..MAX_LANES {
        let (lo, hi) = mac_with_carry(a[k], b, t[k], carry[k]);
        t[k] = lo;
        carry[k] = hi;
    }
}

/// The full SoA scan (see the module docs): `full` word steps plus the
/// partial reduction, all 64 lanes in lockstep. A free function over
/// slice parameters on purpose — parameter-level `&`/`&mut` carry
/// `noalias` into LLVM so the lane loops vectorize (mirroring
/// `batch::run_wave`).
#[inline(never)]
fn run_cios_batch(geo: Geometry, n: &[Limb], x: &[Limb], y: &[Limb], t: &mut [Limb]) {
    let sw = geo.sw;
    let mut carry: LaneRow = [0; MAX_LANES];
    let mut m: LaneRow = [0; MAX_LANES];

    for i in 0..geo.full {
        // t += x_i ⊙ y (lane-wise), accumulating into rows 0..=sw+1.
        let xi = row(x, i);
        carry.fill(0);
        for j in 0..sw {
            // Split borrows: y row j is disjoint from t row j.
            lane_mac(xi, row(y, j), row_mut(t, j), &mut carry);
        }
        {
            let (t_sw, t_top) = t[sw * MAX_LANES..].split_at_mut(MAX_LANES);
            for k in 0..MAX_LANES {
                let (sum, c) = adc(t_sw[k], carry[k], false);
                t_sw[k] = sum;
                t_top[k] = c as Limb;
            }
        }

        // m = t_0 ⊙ n0' ; t = (t + m·N) / 2⁶⁴ (one-row shift-down).
        for k in 0..MAX_LANES {
            m[k] = t[k].wrapping_mul(geo.n0_inv);
        }
        {
            let t0 = row_mut(t, 0);
            for k in 0..MAX_LANES {
                let (zero, hi) = carrying_mul(m[k], n[0], t0[k]);
                debug_assert_eq!(zero, 0, "low word must cancel");
                carry[k] = hi;
            }
        }
        for j in 1..sw {
            // Row j-1 is written while row j is read: split the borrow
            // at the row boundary so both are live at once.
            let (left, right) = t.split_at_mut(j * MAX_LANES);
            let out_row: &mut LaneRow = (&mut left[(j - 1) * MAX_LANES..])
                .try_into()
                .expect("row is exactly MAX_LANES wide");
            let tj: &LaneRow = right[..MAX_LANES]
                .try_into()
                .expect("row is exactly MAX_LANES wide");
            let nj = n[j];
            for k in 0..MAX_LANES {
                let (lo, hi) = mac_with_carry(m[k], nj, tj[k], carry[k]);
                out_row[k] = lo;
                carry[k] = hi;
            }
        }
        {
            let (t_mid, rest) = t[(sw - 1) * MAX_LANES..].split_at_mut(MAX_LANES);
            let (t_sw, t_top) = rest.split_at_mut(MAX_LANES);
            for k in 0..MAX_LANES {
                let (sum, c) = adc(t_sw[k], carry[k], false);
                t_mid[k] = sum;
                t_sw[k] = t_top[k] + c as Limb;
                t_top[k] = 0;
            }
        }
    }

    if geo.rem > 0 {
        // Top partial operand word, then the final 2^rem reduction.
        let xf = row(x, geo.full);
        carry.fill(0);
        for j in 0..sw {
            lane_mac(xf, row(y, j), row_mut(t, j), &mut carry);
        }
        {
            let (t_sw, t_top) = t[sw * MAX_LANES..].split_at_mut(MAX_LANES);
            for k in 0..MAX_LANES {
                let (sum, c) = adc(t_sw[k], carry[k], false);
                t_sw[k] = sum;
                t_top[k] += c as Limb;
            }
        }

        let mask = (1u64 << geo.rem) - 1;
        for k in 0..MAX_LANES {
            m[k] = t[k].wrapping_mul(geo.n0_inv) & mask;
        }
        carry.fill(0);
        for (j, &nj) in n.iter().enumerate() {
            lane_mac_bcast(&m, nj, row_mut(t, j), &mut carry);
        }
        {
            let (t_sw, t_top) = t[sw * MAX_LANES..].split_at_mut(MAX_LANES);
            for k in 0..MAX_LANES {
                let (sum, c) = adc(t_sw[k], carry[k], false);
                t_sw[k] = sum;
                t_top[k] += c as Limb;
            }
        }
        debug_assert!(
            (0..MAX_LANES).all(|k| t[k] & mask == 0),
            "low bits must cancel"
        );

        // Lane-wise right shift by rem bits across all sw+2 rows.
        let shift_up = LIMB_BITS as u32 - geo.rem;
        for j in 0..=sw {
            let upper = *row(t, j + 1);
            let cur = row_mut(t, j);
            for k in 0..MAX_LANES {
                cur[k] = (cur[k] >> geo.rem) | (upper[k] << shift_up);
            }
        }
        let top = row_mut(t, sw + 1);
        for v in top.iter_mut() {
            *v >>= geo.rem;
        }
    }

    debug_assert!(
        t[sw * MAX_LANES..].iter().all(|&v| v == 0),
        "result exceeds s limbs"
    );
}

impl BatchMontMul for CiosBatch {
    fn params(&self) -> &MontgomeryParams {
        &self.params
    }

    fn max_lanes(&self) -> usize {
        MAX_LANES
    }

    fn mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Vec<Ubig> {
        let mut out = Vec::with_capacity(xs.len());
        self.mont_mul_batch_into(xs, ys, &mut out);
        out
    }

    fn mont_mul_batch_into(&mut self, xs: &[Ubig], ys: &[Ubig], out: &mut Vec<Ubig>) {
        rows::mont_mul_lanes(self, |e| &mut e.stage, xs, ys, out);
    }

    /// The rows entry in place: at most `SCALAR_LANES` (32) live lanes
    /// run the per-lane path on each lane's column, which checks them
    /// as it stages them; wider batches are checked on the row chains
    /// and run the SoA kernel straight on `x` and `y` (a partial batch
    /// first copies its live columns, so dead ones hold zeros).
    fn try_mont_mul_rows(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        out: &mut [Limb],
    ) -> Result<(), MmmError> {
        let geo = self.per_lane.geo;
        check_shape(geo.sw, x, y, lanes, out)?;
        let hardened = self.hardening.is_hardened();
        if lanes <= SCALAR_LANES {
            return self.per_lane.try_mont_mul_rows(x, y, lanes, hardened, out);
        }
        let (n, two_n) = (&self.per_lane.n, &self.per_lane.two_n);
        check_below(two_n, x, y, lanes)?;
        let (x, y) = if lanes == MAX_LANES {
            (x, y)
        } else {
            copy_live_columns(x, lanes, &mut self.x);
            copy_live_columns(y, lanes, &mut self.y);
            (&self.x[..], &self.y[..])
        };
        self.t.fill(0);
        run_cios_batch(geo, n, x, y, &mut self.t);
        out.copy_from_slice(&self.t[..geo.sw * MAX_LANES]);
        if hardened {
            rows::cond_sub_rows(n, out);
        }
        Ok(())
    }

    fn set_hardening(&mut self, mode: HardeningMode) {
        self.hardening = mode;
    }

    fn hardening(&self) -> HardeningMode {
        self.hardening
    }

    fn name(&self) -> &'static str {
        "radix-2^64 CIOS batch (64 lanes)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modgen::{random_operand, random_safe_params};
    use crate::montgomery::mont_mul_alg2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scalar_cios_is_bit_identical_to_alg2_exhaustive_small() {
        // N = 13, l = 4 (full = 0, rem = 6): every x, y < 2N, and the
        // non-canonical < 2N representative must match exactly.
        let p = MontgomeryParams::new(&Ubig::from(13u64), 4);
        let mut e = CiosMont::new(p.clone());
        for x in 0u64..26 {
            for y in 0u64..26 {
                let got = e.mont_mul(&Ubig::from(x), &Ubig::from(y));
                let want = mont_mul_alg2(&p, &Ubig::from(x), &Ubig::from(y));
                assert_eq!(got, want, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn scalar_cios_matches_alg2_across_widths() {
        // Widths straddling the word boundary on both k = l + 2 and
        // the operand length, including rem = 0 (l = 62, 126).
        let mut rng = StdRng::seed_from_u64(501);
        for l in [3usize, 30, 61, 62, 63, 64, 65, 66, 126, 127, 128, 200] {
            let p = random_safe_params(&mut rng, l);
            let mut e = CiosMont::new(p.clone());
            for _ in 0..20 {
                let x = random_operand(&mut rng, &p);
                let y = random_operand(&mut rng, &p);
                assert_eq!(e.mont_mul(&x, &y), mont_mul_alg2(&p, &x, &y), "l={l}");
            }
        }
    }

    #[test]
    fn scalar_cios_accepts_tight_widths() {
        // No hardware-safety requirement: tight params where the array
        // engines would overflow their leftmost carry cell.
        let n = Ubig::from(0xFFFF_FFFF_FFFF_FFC5u64); // ≈ 2^64: not safe at l=64
        let p = MontgomeryParams::tight(&n);
        assert!(!p.is_hardware_safe());
        let mut e = CiosMont::new(p.clone());
        let mut rng = StdRng::seed_from_u64(502);
        for _ in 0..10 {
            let x = random_operand(&mut rng, &p);
            let y = random_operand(&mut rng, &p);
            assert_eq!(e.mont_mul(&x, &y), mont_mul_alg2(&p, &x, &y));
        }
    }

    #[test]
    fn batch_cios_every_lane_matches_alg2() {
        let mut rng = StdRng::seed_from_u64(503);
        for l in [3usize, 8, 31, 62, 63, 64, 65, 130] {
            let p = random_safe_params(&mut rng, l);
            let lanes = 64.min(2 * l);
            let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let mut batch = CiosBatch::new(p.clone());
            let got = batch.mont_mul_batch(&xs, &ys);
            for k in 0..lanes {
                assert_eq!(
                    got[k],
                    mont_mul_alg2(&p, &xs[k], &ys[k]),
                    "lane {k} diverged at l={l}"
                );
            }
        }
    }

    #[test]
    fn batch_cios_partial_batches_and_reuse() {
        let mut rng = StdRng::seed_from_u64(504);
        let p = random_safe_params(&mut rng, 48);
        let mut batch = CiosBatch::new(p.clone());
        for lanes in [1usize, 3, 63, 64] {
            let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let got = batch.mont_mul_batch(&xs, &ys);
            assert_eq!(got.len(), lanes);
            for k in 0..lanes {
                assert_eq!(
                    got[k],
                    mont_mul_alg2(&p, &xs[k], &ys[k]),
                    "lanes={lanes} k={k}"
                );
            }
        }
    }

    #[test]
    fn batch_cios_outputs_feed_back_as_inputs() {
        // The Algorithm-2 closure property on the batch path.
        let mut rng = StdRng::seed_from_u64(505);
        let p = random_safe_params(&mut rng, 70);
        let mut batch = CiosBatch::new(p.clone());
        let xs: Vec<Ubig> = (0..16).map(|_| random_operand(&mut rng, &p)).collect();
        let mut a = batch.mont_mul_batch(&xs, &xs);
        let mut want: Vec<Ubig> = xs.iter().map(|x| mont_mul_alg2(&p, x, x)).collect();
        for round in 0..4 {
            a = batch.mont_mul_batch(&a, &a);
            want = want.iter().map(|v| mont_mul_alg2(&p, v, v)).collect();
            assert_eq!(a, want, "round {round}");
        }
    }

    #[test]
    fn hardened_batch_outputs_are_canonical_residues() {
        let mut rng = StdRng::seed_from_u64(508);
        for l in [3usize, 30, 62, 63, 64, 65, 130] {
            let p = random_safe_params(&mut rng, l);
            let lanes = 64.min(2 * l);
            let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let mut batch = CiosBatch::new(p.clone());
            batch.set_hardening(HardeningMode::Hardened);
            assert_eq!(batch.hardening(), HardeningMode::Hardened);
            let got = batch.mont_mul_batch(&xs, &ys);
            for k in 0..lanes {
                let want = mont_mul_alg2(&p, &xs[k], &ys[k]).rem(p.n());
                assert_eq!(got[k], want, "lane {k} at l={l}");
                assert!(got[k] < *p.n(), "lane {k} not canonical at l={l}");
            }
            // Switching back restores the raw < 2N contract.
            batch.set_hardening(HardeningMode::Off);
            let raw = batch.mont_mul_batch(&xs, &ys);
            for k in 0..lanes {
                assert_eq!(raw[k], mont_mul_alg2(&p, &xs[k], &ys[k]), "lane {k}");
            }
        }
    }

    #[test]
    fn per_lane_path_matches_alg2_and_soa_at_every_lane_count() {
        let mut rng = StdRng::seed_from_u64(509);
        for l in [62usize, 63, 64, 65, 126, 254, 256, 510, 512, 1022, 1024] {
            let p = random_safe_params(&mut rng, l);
            // The 9 pairs of worst cases {0, N−1, 2N−1}, then random
            // operands: one 64-lane pool.
            let edges = [
                Ubig::zero(),
                p.n() - &Ubig::one(),
                &p.two_n() - &Ubig::one(),
            ];
            let (mut xs, mut ys): (Vec<Ubig>, Vec<Ubig>) = edges
                .iter()
                .flat_map(|a| edges.iter().map(move |b| (a.clone(), b.clone())))
                .unzip();
            while xs.len() < MAX_LANES {
                xs.push(random_operand(&mut rng, &p));
                ys.push(random_operand(&mut rng, &p));
            }
            let alg2: Vec<Ubig> = xs
                .iter()
                .zip(&ys)
                .map(|(x, y)| mont_mul_alg2(&p, x, y))
                .collect();
            for mode in [HardeningMode::Off, HardeningMode::Hardened] {
                let want: Vec<Ubig> = if mode.is_hardened() {
                    alg2.iter().map(|v| v.rem(p.n())).collect()
                } else {
                    alg2.clone()
                };
                let mut batch = CiosBatch::new(p.clone());
                batch.set_hardening(mode);
                // 64 lanes: the SoA kernel.
                let soa = batch.mont_mul_batch(&xs, &ys);
                assert_eq!(soa, want, "SoA at l={l} ({mode:?})");
                let mut out = Vec::new();
                // Every lane count 1..=64, alternately wide and narrow,
                // so the engine's scratch shrinks and grows across the
                // per-lane/SoA boundary on every call.
                for lanes in (1..=MAX_LANES / 2).flat_map(|i| [MAX_LANES + 1 - i, i]) {
                    // A window of the pool that moves with the lane
                    // count, so the worst cases land on both paths.
                    let idx: Vec<usize> = (0..lanes).map(|k| (5 * lanes + k) % MAX_LANES).collect();
                    let lx: Vec<Ubig> = idx.iter().map(|&i| xs[i].clone()).collect();
                    let ly: Vec<Ubig> = idx.iter().map(|&i| ys[i].clone()).collect();
                    batch.mont_mul_batch_into(&lx, &ly, &mut out);
                    assert_eq!(out.len(), lanes);
                    for (k, &i) in idx.iter().enumerate() {
                        assert_eq!(out[k], want[i], "l={l} lanes={lanes} lane {k} ({mode:?})");
                        if mode.is_hardened() {
                            assert!(out[k] < *p.n(), "l={l} lanes={lanes} lane {k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn batch_cios_rejects_oversized_batch() {
        let mut rng = StdRng::seed_from_u64(506);
        let p = random_safe_params(&mut rng, 8);
        let xs: Vec<Ubig> = (0..65).map(|_| random_operand(&mut rng, &p)).collect();
        let ys = xs.clone();
        let _ = CiosBatch::new(p).mont_mul_batch(&xs, &ys);
    }

    #[test]
    #[should_panic(expected = "operands must be < 2N")]
    fn batch_cios_rejects_out_of_range_operand() {
        let mut rng = StdRng::seed_from_u64(507);
        let p = random_safe_params(&mut rng, 8);
        let bad = p.two_n();
        let _ = CiosBatch::new(p.clone())
            .mont_mul_batch(std::slice::from_ref(&bad), std::slice::from_ref(&bad));
    }
}
