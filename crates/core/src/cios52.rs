//! Radix-2⁵² carry-save CIOS Montgomery multiplication — the
//! vector-unit-shaped production backend, the default on every host
//! with an AVX2 or IFMA kernel.
//!
//! ## Why 52-bit digits
//!
//! The paper's array fixes radix `r = 2` because a one-bit digit is
//! what its cells absorb per wave. On a CPU the analogous radix is the
//! one the vector unit takes in: **52-bit digits, one per 64-bit lane**.
//! The 12 spare bits are carry headroom, so the multiply-accumulate
//! loop never ripples a carry: the high halves of the 52×52→104-bit
//! products are *deferred* into the next digit, and the accumulator is
//! renormalized **once per outer scan step**. That is the shape of
//! AVX-512-IFMA's `vpmadd52lo/hi`, and the same dataflow maps onto AVX2
//! `mul_epu32` pairs and onto plain u64 arithmetic, so one algorithm
//! serves three kernels:
//!
//! * [`Cios52Kernel::Portable`] — branch-free u64/u128 carry-save MACs
//!   that LLVM auto-vectorizes; runs on any host.
//! * [`Cios52Kernel::Avx2`] — 4 lanes per `__m256i`, each 52×52
//!   product from three `_mm256_mul_epu32` via a 26-bit split.
//! * [`Cios52Kernel::Ifma`] — 8 lanes per `__m512i`, one
//!   `_mm512_madd52lo_epu64` / `_mm512_madd52hi_epu64` pair per MAC.
//!
//! CPU features are detected once per process
//! ([`Cios52Kernel::available`]) and the strongest kernel is selected
//! ([`Cios52Kernel::active`]); every kernel computes the identical
//! function, asserted lane for lane by the unit tests below and the
//! cross-engine suites.
//!
//! ## The per-lane floor
//!
//! Every kernel sweeps all 64 lanes whatever the live lane count, so a
//! call of at most `SCALAR_LANES` (32) live lanes runs the radix-2⁶⁴
//! per-lane scan instead (`PerLane` in [`crate::cios`]); wider calls
//! run the selected kernel. The path depends only on the public lane
//! count, and [`EngineKind::per_lane_bound`](crate::EngineKind::per_lane_bound)
//! is 32 on both CIOS backends. DESIGN.md §9 has the measurements.
//!
//! ## One wide call, one vector region
//!
//! A wider call is one dispatch into one region per kernel: a function
//! compiled with `avx512f,avx512ifma` (IFMA), with `avx2` (AVX2), or
//! with no target feature (portable). The region runs every pass of the
//! call in order: the `< 2N` range check, the 64→52-bit conversion of
//! `x` and `y`, the accumulator's zero fill, the kernel, the 52→64-bit
//! conversion into `out` and, when hardened, the canonicalizing
//! subtraction. Each pass is one `#[inline(always)]` source that the
//! three regions inline, so the passes around the kernel run at the
//! kernel's vector width rather than the baseline ISA, and the
//! row-wise borrow chains of the range check and the subtraction
//! ([`crate::rows`]) avoid `u128` so that they vectorize. The path
//! depends only on the lane count and the host's CPU features; DESIGN.md
//! §9 has the per-pass costs.
//!
//! ## Same contract, third radix
//!
//! Like the radix-2⁶⁴ scan, this engine computes Algorithm 2's
//! function, `T = (x·y + M·N)/2^{l+2}` with the unique `M < 2^{l+2}`,
//! not a digit-domain variant with `R = 2^{52·s}`: `⌊(l+2)/52⌋` full
//! 52-bit steps plus one partial step for the remaining
//! `(l+2) mod 52` bits. Results are **bit-identical** to every other
//! Algorithm-2 engine, the non-canonical `< 2N` representative
//! included. Operands enter and leave in 64-bit limb rows
//! ([`crate::rows`]): the rows entry is the engine's one multiply path,
//! its `Vec<Ubig>` methods are the shared adapter there, and the
//! 64↔52-bit conversions ([`limbs_to_digits52`] /
//! [`digits52_to_limbs`] and their row forms) are internal to one call.
//! The digit geometry (`s₅₂`, `n0' mod 2⁵²`) comes from
//! [`MontgomeryParams::radix52`][crate::montgomery::MontgomeryParams::radix52];
//! DESIGN.md §9 derives the representation and the carry budget.
//!
//! ## Constant-time status
//!
//! As the radix-2⁶⁴ scan: fixed schedule, no data-dependent branches,
//! quotient digits feed multiplies, never indexing. Under
//! [`HardeningMode::Hardened`] the word rows out of the (shape-driven)
//! digit→word scatter get the branchless canonicalizing subtraction
//! every engine shares ([`rows::cond_sub_rows`], inside the kernel's
//! region), and the per-lane floor ends each lane with `ct_sub_if_ge`,
//! so hardened outputs are `< N` on every kernel. DESIGN.md §12 has
//! the full per-path table.

use crate::cios::{PerLane, SCALAR_LANES};
use crate::config::HardeningMode;
use crate::error::MmmError;
use crate::montgomery::MontgomeryParams;
use crate::rows::{self, check_below, check_shape, padded_limbs, row, row_mut, LaneRow, LaneStage};
use crate::traits::BatchMontMul;
use mmm_bigint::limbs::{Limb, LIMB_BITS};
use mmm_bigint::Ubig;
use std::sync::OnceLock;

/// Lanes one [`Cios52Batch`] advances per call (matches
/// [`crate::batch::MAX_LANES`] so sharding logic is engine-agnostic).
pub const MAX_LANES: usize = crate::batch::MAX_LANES;

/// Payload bits per digit: 52 of the 64 lane bits carry value, the
/// top 12 are deferred-carry headroom.
pub const DIGIT_BITS: usize = 52;

/// Mask selecting one digit's payload bits.
pub const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// The carry-headroom budget of DESIGN.md §9: between two
/// normalizations a digit holds its normalized value plus one low and
/// one deferred high half from each of two passes — below 5·2⁵², or
/// 7·2⁵² + 2²⁸ with the AVX2 kernel's redundant split — so it stays
/// below 2⁵⁵. All three kernels `debug_assert` it on every digit row
/// before each normalization.
const TRANSIENT_BITS: u32 = 55;

/// Per-width geometry of the radix-2⁵² scan over `R = 2^{l+2}`: the
/// digit-domain view from `MontgomeryParams::radix52` plus the word
/// count of the 64-bit I/O representation.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// Digit count `s₅₂ = ⌈(l+2)/52⌉`.
    s: usize,
    /// Number of full 52-bit reduction steps `⌊(l+2)/52⌋`.
    full: usize,
    /// Remaining shift `(l+2) mod 52` handled by the partial step.
    rem: u32,
    /// `n0' = -N⁻¹ mod 2⁵²`.
    n0_inv: u64,
    /// Operand limb count of the 64-bit I/O form, `⌈(l+2)/64⌉`.
    sw: usize,
}

impl Geometry {
    fn of(params: &MontgomeryParams) -> Self {
        let r = params.radix52();
        Geometry {
            s: r.digits(),
            full: r.full(),
            rem: r.rem(),
            n0_inv: r.n0_inv(),
            sw: (params.l() + 2).div_ceil(LIMB_BITS),
        }
    }
}

/// Splits a little-endian 64-bit limb vector into `digits` 52-bit
/// digits (little-endian, one digit per returned u64, all `< 2⁵²`).
/// Digit `d` holds bits `[52d, 52d + 52)` of the value; bits beyond
/// the input are zero.
pub fn limbs_to_digits52(limbs: &[u64], digits: usize) -> Vec<u64> {
    let mut out = vec![0u64; digits];
    for (d, o) in out.iter_mut().enumerate() {
        let bit = d * DIGIT_BITS;
        let w = bit / LIMB_BITS;
        let b = (bit % LIMB_BITS) as u32;
        if w >= limbs.len() {
            break;
        }
        let mut v = limbs[w] >> b;
        if b as usize > LIMB_BITS - DIGIT_BITS && w + 1 < limbs.len() {
            v |= limbs[w + 1] << (LIMB_BITS as u32 - b);
        }
        *o = v & DIGIT_MASK;
    }
    out
}

/// Inverse of [`limbs_to_digits52`]: packs normalized 52-bit digits
/// back into `limbs` 64-bit limbs.
///
/// # Panics
/// Panics if any digit has payload above bit 52 (the carry-save
/// headroom must have been normalized away) or if the value does not
/// fit `limbs` limbs.
pub fn digits52_to_limbs(digits: &[u64], limbs: usize) -> Vec<u64> {
    let mut out = vec![0u64; limbs];
    for (d, &v) in digits.iter().enumerate() {
        assert!(v <= DIGIT_MASK, "digit {d} not normalized: {v:#x}");
        let bit = d * DIGIT_BITS;
        let w = bit / LIMB_BITS;
        let b = (bit % LIMB_BITS) as u32;
        let spills = b as usize > LIMB_BITS - DIGIT_BITS;
        if w < limbs {
            out[w] |= v << b;
            if spills && w + 1 < limbs {
                out[w + 1] |= v >> (LIMB_BITS as u32 - b);
            } else if spills {
                assert_eq!(
                    v >> (LIMB_BITS as u32 - b),
                    0,
                    "value exceeds {limbs} limbs"
                );
            }
        } else {
            assert_eq!(v, 0, "value exceeds {limbs} limbs");
        }
    }
    out
}

/// Word-SoA → digit-SoA: for each digit row, gather bits
/// `[52d, 52d + 52)` from the (at most two) straddled word rows, all
/// `MAX_LANES` lanes at once. Columns `lanes..` of `digits` are
/// zeroed, so the kernels see zeros in dead lanes whatever `words`
/// holds there. Inlined into each kernel's region
/// ([`Cios52Batch::wide_call`]).
#[inline(always)]
fn soa_words_to_digits52(words: &[Limb], sw: usize, digits: &mut [Limb], s: usize, lanes: usize) {
    for d in 0..s {
        let bit = d * DIGIT_BITS;
        let w = bit / LIMB_BITS;
        let b = (bit % LIMB_BITS) as u32;
        let wrow = row(words, w);
        let drow = row_mut(digits, d);
        if b as usize > LIMB_BITS - DIGIT_BITS && w + 1 < sw {
            let nrow = row(words, w + 1);
            let up = LIMB_BITS as u32 - b;
            for k in 0..MAX_LANES {
                drow[k] = ((wrow[k] >> b) | (nrow[k] << up)) & DIGIT_MASK;
            }
        } else {
            for k in 0..MAX_LANES {
                drow[k] = (wrow[k] >> b) & DIGIT_MASK;
            }
        }
        drow[lanes..].fill(0);
    }
}

/// Digit-SoA → word-SoA: scatter each normalized digit row into the
/// word rows it straddles. Requires every digit `< 2⁵²` (the kernels
/// end with a normalization pass, so this holds on the output path).
/// Inlined into each kernel's region ([`Cios52Batch::wide_call`]).
#[inline(always)]
fn soa_digits52_to_words(digits: &[Limb], s: usize, words: &mut [Limb], sw: usize) {
    words[..sw * MAX_LANES].fill(0);
    for d in 0..s {
        let bit = d * DIGIT_BITS;
        let w = bit / LIMB_BITS;
        let b = (bit % LIMB_BITS) as u32;
        let drow = *row(digits, d);
        {
            let wrow = row_mut(words, w);
            for k in 0..MAX_LANES {
                debug_assert!(drow[k] <= DIGIT_MASK, "unnormalized digit on output");
                wrow[k] |= drow[k] << b;
            }
        }
        if b as usize > LIMB_BITS - DIGIT_BITS && w + 1 < sw {
            let down = LIMB_BITS as u32 - b;
            let nrow = row_mut(words, w + 1);
            for k in 0..MAX_LANES {
                nrow[k] |= drow[k] >> down;
            }
        }
    }
}

/// Which concrete inner-loop implementation a [`Cios52Batch`] runs.
/// All kernels compute the identical function; selection is purely a
/// throughput decision made once per process from CPU features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cios52Kernel {
    /// Branch-free u64/u128 carry-save MACs; runs on any host and is
    /// written so LLVM auto-vectorizes the lane loops.
    Portable,
    /// x86-64 AVX2: 4 lanes per `__m256i`, 52×52 products from three
    /// `mul_epu32` via a 26-bit split.
    Avx2,
    /// x86-64 AVX-512-IFMA: 8 lanes per `__m512i`, `vpmadd52lo/hi`.
    Ifma,
}

impl Cios52Kernel {
    /// Short stable name, recorded in benchmark JSON so results say
    /// which kernel actually ran.
    pub fn name(self) -> &'static str {
        match self {
            Cios52Kernel::Portable => "portable",
            Cios52Kernel::Avx2 => "avx2",
            Cios52Kernel::Ifma => "ifma",
        }
    }

    /// Every kernel this host can run, ordered weakest → strongest.
    /// CPU feature detection happens **once** per process (cached in a
    /// `OnceLock`); the portable kernel is always present, so the
    /// slice is never empty.
    pub fn available() -> &'static [Cios52Kernel] {
        static AVAILABLE: OnceLock<Vec<Cios52Kernel>> = OnceLock::new();
        AVAILABLE.get_or_init(|| {
            let mut v = vec![Cios52Kernel::Portable];
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    v.push(Cios52Kernel::Avx2);
                }
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512ifma")
                {
                    v.push(Cios52Kernel::Ifma);
                }
            }
            v
        })
    }

    /// The strongest kernel this host can run — what
    /// [`Cios52Batch::new`] selects.
    pub fn active() -> Cios52Kernel {
        *Self::available()
            .last()
            .expect("portable kernel is always available")
    }

    /// The next-weaker kernel available on this host, or `None` from
    /// the portable kernel (there is nothing simpler to retreat to).
    /// Used by the integrity layer's demotion ladder: a kernel that
    /// produced a corrupted lane steps down rather than being trusted
    /// again.
    pub fn weaker(self) -> Option<Cios52Kernel> {
        let avail = Self::available();
        let pos = avail.iter().position(|&k| k == self)?;
        pos.checked_sub(1).map(|i| avail[i])
    }
}

/// The radix-2⁵² carry-save CIOS **batch** engine: up to 64
/// independent Montgomery multiplications per call in
/// struct-of-arrays lane layout, bit-identical to every other
/// Algorithm-2 engine.
#[derive(Debug, Clone)]
pub struct Cios52Batch {
    params: MontgomeryParams,
    geo: Geometry,
    kernel: Cios52Kernel,
    /// Modulus as `s` normalized 52-bit digits (shared by all lanes).
    n: Vec<Limb>,
    /// The per-lane path of batches of at most [`SCALAR_LANES`] lanes.
    /// Its padded word-form modulus is what the hardened final
    /// subtraction of the kernels' output compares against.
    per_lane: PerLane,
    /// `2N` padded to `sw` limbs: the operand bound of the rows entry.
    two_n: Vec<Limb>,
    /// Staging rows of the `Vec<Ubig>` methods.
    stage: LaneStage,
    /// Digit-domain SoA operands: `x[d·64 + k]` is digit `d`, lane `k`.
    x: Vec<Limb>,
    y: Vec<Limb>,
    /// Digit-domain SoA accumulator, `s + 2` rows.
    t: Vec<Limb>,
    /// Constant-time mode: when hardened, every result is
    /// canonicalized `< N` (see the module docs).
    hardening: HardeningMode,
}

impl Cios52Batch {
    /// Creates an engine for `params` running the strongest kernel
    /// this host supports ([`Cios52Kernel::active`]). Like the other
    /// software scans there is no hardware-safety requirement: any
    /// valid parameters (e.g. `tight` widths) are accepted.
    pub fn new(params: MontgomeryParams) -> Self {
        Self::with_kernel(params, Cios52Kernel::active())
    }

    /// Creates an engine pinned to a specific kernel — how the tests
    /// cross-check every available kernel against the oracle.
    ///
    /// # Panics
    /// Panics if `kernel` is not in [`Cios52Kernel::available`] on
    /// this host.
    pub fn with_kernel(params: MontgomeryParams, kernel: Cios52Kernel) -> Self {
        assert!(
            Cios52Kernel::available().contains(&kernel),
            "kernel {} not available on this host",
            kernel.name()
        );
        let geo = Geometry::of(&params);
        let per_lane = PerLane::new(&params);
        Cios52Batch {
            n: limbs_to_digits52(per_lane.modulus(), geo.s),
            per_lane,
            two_n: padded_limbs(&params.two_n(), geo.sw),
            stage: LaneStage::default(),
            x: vec![0; geo.s * MAX_LANES],
            y: vec![0; geo.s * MAX_LANES],
            t: vec![0; (geo.s + 2) * MAX_LANES],
            params,
            geo,
            kernel,
            hardening: HardeningMode::Off,
        }
    }

    /// The engine's parameters.
    pub fn params(&self) -> &MontgomeryParams {
        &self.params
    }

    /// Which kernel this engine runs.
    pub fn kernel(&self) -> Cios52Kernel {
        self.kernel
    }

    /// Rebuilds this engine on the next-weaker available kernel
    /// ([`Cios52Kernel::weaker`]); `true` if a demotion happened,
    /// `false` when already on the portable kernel. Scratch buffers
    /// are rebuilt — demotion is a cold recovery path, not a hot one.
    pub fn demote(&mut self) -> bool {
        match self.kernel.weaker() {
            Some(weaker) => {
                // The rebuild must not silently drop the constant-time
                // mode — a demoted hardened engine stays hardened.
                let hardening = self.hardening;
                *self = Cios52Batch::with_kernel(self.params.clone(), weaker);
                self.hardening = hardening;
                true
            }
            None => false,
        }
    }

    /// A call wider than the per-lane bound: one dispatch into the
    /// selected kernel's region, which runs every pass of
    /// [`Cios52Batch::wide_call`] at the kernel's ISA.
    #[allow(unsafe_code)]
    fn run_wide(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        out: &mut [Limb],
    ) -> Result<(), MmmError> {
        match self.kernel {
            Cios52Kernel::Portable => self.wide_portable(x, y, lanes, out),
            // SAFETY: `with_kernel` admitted this kernel, so the host
            // has its target features.
            #[cfg(target_arch = "x86_64")]
            Cios52Kernel::Avx2 => unsafe { self.wide_avx2(x, y, lanes, out) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Cios52Kernel::Ifma => unsafe { self.wide_ifma(x, y, lanes, out) },
            #[cfg(not(target_arch = "x86_64"))]
            Cios52Kernel::Avx2 | Cios52Kernel::Ifma => {
                unreachable!("SIMD kernels are x86-64 only and gated by with_kernel")
            }
        }
    }

    /// The portable kernel's region: no target features, so its passes
    /// compile for the baseline ISA, as the portable kernel does.
    #[inline(never)]
    #[allow(unsafe_code)]
    fn wide_portable(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        out: &mut [Limb],
    ) -> Result<(), MmmError> {
        // SAFETY: the portable kernel needs no target feature.
        unsafe { self.wide_call(x, y, lanes, out, run_cios52_portable) }
    }

    /// The AVX2 kernel's region: every pass of the wide call compiled
    /// with `avx2`.
    ///
    /// # Safety
    /// Requires `avx2` at runtime (checked by [`Cios52Kernel::available`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn wide_avx2(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        out: &mut [Limb],
    ) -> Result<(), MmmError> {
        // SAFETY: the caller guarantees `avx2`, the kernel's feature.
        self.wide_call(x, y, lanes, out, run_cios52_avx2)
    }

    /// The IFMA kernel's region: every pass of the wide call compiled
    /// with `avx512f` and `avx512ifma`.
    ///
    /// # Safety
    /// Requires `avx512f` and `avx512ifma` at runtime (checked by
    /// [`Cios52Kernel::available`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[allow(unsafe_code)]
    unsafe fn wide_ifma(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        out: &mut [Limb],
    ) -> Result<(), MmmError> {
        // SAFETY: the caller guarantees the kernel's two features.
        self.wide_call(x, y, lanes, out, run_cios52_ifma)
    }

    /// Every pass of a wide call, in order: the `< 2N` range check
    /// (`out` untouched when it fails), `x` and `y` to digit rows, the
    /// zeroed accumulator, `kernel`, the digit rows back to words in
    /// `out`, and the canonicalizing subtraction when hardened. The one
    /// source of the three regions: each inlines it, so every pass, not
    /// only the kernel, runs at the region's vector width.
    ///
    /// # Safety
    /// The host must have `kernel`'s target features.
    #[inline(always)]
    #[allow(unsafe_code)]
    unsafe fn wide_call(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        out: &mut [Limb],
        kernel: Kernel,
    ) -> Result<(), MmmError> {
        let geo = self.geo;
        rows::check_below_rows(&self.two_n, x, y, lanes)?;
        soa_words_to_digits52(x, geo.sw, &mut self.x, geo.s, lanes);
        soa_words_to_digits52(y, geo.sw, &mut self.y, geo.s, lanes);
        self.t.fill(0);
        // SAFETY: the caller guarantees `kernel`'s target features.
        kernel(geo, &self.n, &self.x, &self.y, &mut self.t);
        soa_digits52_to_words(&self.t, geo.s, out, geo.sw);
        if self.hardening.is_hardened() {
            rows::cond_sub_rows_inline(self.per_lane.modulus(), out);
        }
        Ok(())
    }
}

/// The signature the three kernels share: the digit geometry, the
/// digit-form modulus, the `x` and `y` digit rows, and the zeroed
/// accumulator the result is left in.
type Kernel = unsafe fn(Geometry, &[Limb], &[Limb], &[Limb], &mut [Limb]);

impl BatchMontMul for Cios52Batch {
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
    /// run the per-lane path on each lane's column; a wider call is one
    /// dispatch into its kernel's vector region, which converts `x` and
    /// `y` straight to digit rows and the result straight into `out`.
    fn try_mont_mul_rows(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        out: &mut [Limb],
    ) -> Result<(), MmmError> {
        check_shape(self.geo.sw, x, y, lanes, out)?;
        if lanes > SCALAR_LANES {
            return self.run_wide(x, y, lanes, out);
        }
        check_below(&self.two_n, x, y, lanes)?;
        let hardened = self.hardening.is_hardened();
        self.per_lane.mont_mul_rows(x, y, lanes, hardened, out);
        Ok(())
    }

    fn demote_kernel(&mut self) -> bool {
        self.demote()
    }

    fn set_hardening(&mut self, mode: HardeningMode) {
        self.hardening = mode;
    }

    fn hardening(&self) -> HardeningMode {
        self.hardening
    }

    fn name(&self) -> &'static str {
        match self.kernel {
            Cios52Kernel::Portable => "radix-2^52 carry-save CIOS batch (portable, 64 lanes)",
            Cios52Kernel::Avx2 => "radix-2^52 carry-save CIOS batch (avx2, 64 lanes)",
            Cios52Kernel::Ifma => "radix-2^52 carry-save CIOS batch (ifma, 64 lanes)",
        }
    }
}

/// The once-per-outer-step normalization: ripple each lane's deferred
/// carries up through digit rows `0..=top`, leaving every digit
/// `< 2⁵²`. This is the *only* carry chain in the whole scan.
#[inline(always)]
fn normalize52(t: &mut [Limb], top: usize) {
    debug_assert!(
        t[..(top + 1) * MAX_LANES]
            .iter()
            .all(|&v| v >> TRANSIENT_BITS == 0),
        "digit reached 2^55 before normalization"
    );
    let mut c: LaneRow = [0; MAX_LANES];
    for j in 0..=top {
        let tj = row_mut(t, j);
        for k in 0..MAX_LANES {
            let v = tj[k] + c[k];
            tj[k] = v & DIGIT_MASK;
            c[k] = v >> DIGIT_BITS;
        }
    }
    debug_assert_eq!(c, [0; MAX_LANES], "carry out of the top digit row");
}

/// The portable carry-save scan (see the module docs): `full` 52-bit
/// steps plus the partial reduction, all 64 lanes in lockstep. Inner
/// loops are branch-free 52×52→104 MACs with the high halves deferred
/// one digit ([`normalize52`] runs once per outer step). A free
/// function over slice parameters on purpose — parameter-level
/// `&`/`&mut` carry `noalias` into LLVM so the lane loops vectorize.
#[inline(never)]
#[allow(clippy::needless_range_loop)] // j indexes n and the SoA accumulator rows together
fn run_cios52_portable(geo: Geometry, n: &[Limb], x: &[Limb], y: &[Limb], t: &mut [Limb]) {
    let s = geo.s;
    let mut hi: LaneRow = [0; MAX_LANES];
    let mut m: LaneRow = [0; MAX_LANES];

    for i in 0..geo.full {
        let xi = *row(x, i);
        // Pass A: t += x_i ⊙ y, low halves into t[j], high halves
        // deferred into t[j+1]'s addend (no carry ripple).
        hi.fill(0);
        for j in 0..s {
            let yj = row(y, j);
            let tj = row_mut(t, j);
            for k in 0..MAX_LANES {
                let p = (xi[k] as u128) * (yj[k] as u128);
                tj[k] += ((p as u64) & DIGIT_MASK) + hi[k];
                hi[k] = (p >> DIGIT_BITS) as u64;
            }
        }
        {
            let ts = row_mut(t, s);
            for k in 0..MAX_LANES {
                ts[k] += hi[k];
            }
        }

        // m = t_0 · n0' mod 2⁵². Digit weights are multiples of 2⁵²,
        // so t[0] mod 2⁵² is the whole value mod 2⁵² even while t[0]
        // still carries unnormalized headroom bits.
        for k in 0..MAX_LANES {
            m[k] = t[k].wrapping_mul(geo.n0_inv) & DIGIT_MASK;
        }

        // Pass B: t = (t + m ⊙ N) / 2⁵², fused with the digit shift.
        // Digit 0 of t + m·N is divisible by 2⁵², so its headroom
        // bits are an exact carry into digit 1.
        {
            let t0 = row(t, 0);
            for k in 0..MAX_LANES {
                let p = (m[k] as u128) * (n[0] as u128);
                let v = t0[k] + ((p as u64) & DIGIT_MASK);
                debug_assert_eq!(v & DIGIT_MASK, 0, "low digit must cancel");
                hi[k] = (v >> DIGIT_BITS) + ((p >> DIGIT_BITS) as u64);
            }
        }
        for j in 1..s {
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
                let p = (m[k] as u128) * (nj as u128);
                out_row[k] = tj[k] + ((p as u64) & DIGIT_MASK) + hi[k];
                hi[k] = (p >> DIGIT_BITS) as u64;
            }
        }
        {
            let (left, right) = t.split_at_mut(s * MAX_LANES);
            let out_row: &mut LaneRow = (&mut left[(s - 1) * MAX_LANES..])
                .try_into()
                .expect("row is exactly MAX_LANES wide");
            let ts: &mut LaneRow = (&mut right[..MAX_LANES])
                .try_into()
                .expect("row is exactly MAX_LANES wide");
            for k in 0..MAX_LANES {
                out_row[k] = ts[k] + hi[k];
                ts[k] = 0;
            }
        }

        // The one normalization of this outer step. T < 4N < 2^{52s},
        // so the value fits rows 0..s and row s ends zero.
        normalize52(t, s);
    }

    if geo.rem > 0 {
        // Partial step: absorb the top (rem-bit) digit of x, then
        // reduce by the remaining 2^rem.
        let xf = *row(x, geo.full);
        hi.fill(0);
        for j in 0..s {
            let yj = row(y, j);
            let tj = row_mut(t, j);
            for k in 0..MAX_LANES {
                let p = (xf[k] as u128) * (yj[k] as u128);
                tj[k] += ((p as u64) & DIGIT_MASK) + hi[k];
                hi[k] = (p >> DIGIT_BITS) as u64;
            }
        }
        {
            let ts = row_mut(t, s);
            for k in 0..MAX_LANES {
                ts[k] += hi[k];
            }
        }

        // m < 2^rem: n0' mod 2^rem is -N⁻¹ mod 2^rem, and t[0] mod
        // 2^rem is exact for the same positional-weight reason.
        let rem_mask = (1u64 << geo.rem) - 1;
        for k in 0..MAX_LANES {
            m[k] = t[k].wrapping_mul(geo.n0_inv) & rem_mask;
        }

        // Pass C: t += m ⊙ N, unshifted (the shift is by rem < 52
        // bits, not a whole digit).
        hi.fill(0);
        for j in 0..s {
            let nj = n[j];
            let tj = row_mut(t, j);
            for k in 0..MAX_LANES {
                let p = (m[k] as u128) * (nj as u128);
                tj[k] += ((p as u64) & DIGIT_MASK) + hi[k];
                hi[k] = (p >> DIGIT_BITS) as u64;
            }
        }
        {
            let ts = row_mut(t, s);
            for k in 0..MAX_LANES {
                ts[k] += hi[k];
            }
        }

        // Normalize fully *before* the bit shift — the shift reads
        // exact digit bit patterns, so no headroom may remain.
        normalize52(t, s + 1);
        debug_assert!(
            (0..MAX_LANES).all(|k| t[k] & rem_mask == 0),
            "low rem bits must cancel"
        );

        // Lane-wise right shift by rem bits across the digit rows.
        let up = DIGIT_BITS as u32 - geo.rem;
        for j in 0..=s {
            let upper = *row(t, j + 1);
            let cur = row_mut(t, j);
            for k in 0..MAX_LANES {
                cur[k] = (cur[k] >> geo.rem) | ((upper[k] & rem_mask) << up);
            }
        }
    }

    debug_assert!(
        t[s * MAX_LANES..].iter().all(|&v| v == 0),
        "result exceeds s digits"
    );
}

/// Whether every lane of `d` is below 2⁵⁵ ([`TRANSIENT_BITS`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn ifma_within_budget(d: core::arch::x86_64::__m512i) -> bool {
    use core::arch::x86_64::*;
    let over = _mm512_srli_epi64(d, TRANSIENT_BITS);
    _mm512_test_epi64_mask(over, over) == 0
}

/// Whether every lane of `d` is below 2⁵⁵ ([`TRANSIENT_BITS`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2_within_budget(d: core::arch::x86_64::__m256i) -> bool {
    use core::arch::x86_64::*;
    let over = _mm256_srli_epi64(d, TRANSIENT_BITS as i32);
    _mm256_testz_si256(over, over) == 1
}

/// The AVX-512-IFMA kernel: 8 lanes per `__m512i`, so the 64-lane
/// batch is 8 vector columns; each column runs the whole scan before
/// the next starts (the working set of one column — `(s+2)·64` bytes
/// of accumulator plus operands — stays cache-resident). The 52×52→104
/// MAC is one `vpmadd52lo` + one `vpmadd52hi`; both read only the low
/// 52 bits of their multiplicands, which the normalization discipline
/// guarantees for `x`, `y`, `n` and `m`.
///
/// # Safety
/// Requires `avx512f` and `avx512ifma` at runtime (checked by
/// [`Cios52Kernel::available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512ifma")]
#[allow(unsafe_code)]
#[allow(clippy::needless_range_loop)] // j indexes n and the SoA accumulator rows together
unsafe fn run_cios52_ifma(geo: Geometry, n: &[Limb], x: &[Limb], y: &[Limb], t: &mut [Limb]) {
    use core::arch::x86_64::*;
    const W: usize = 8;
    let s = geo.s;
    let mask52 = _mm512_set1_epi64(DIGIT_MASK as i64);
    let n0inv = _mm512_set1_epi64(geo.n0_inv as i64);
    let zero = _mm512_setzero_si512();
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let tp = t.as_mut_ptr();

    for c in 0..MAX_LANES / W {
        let off = c * W;
        for i in 0..geo.full {
            let xi = _mm512_loadu_si512(xp.add(i * MAX_LANES + off) as *const _);
            // Pass A: t += x_i ⊙ y, high halves deferred one digit.
            let mut hi = zero;
            for j in 0..s {
                let yj = _mm512_loadu_si512(yp.add(j * MAX_LANES + off) as *const _);
                let tj = _mm512_loadu_si512(tp.add(j * MAX_LANES + off) as *const _);
                let acc = _mm512_madd52lo_epu64(_mm512_add_epi64(tj, hi), xi, yj);
                _mm512_storeu_si512(tp.add(j * MAX_LANES + off) as *mut _, acc);
                hi = _mm512_madd52hi_epu64(zero, xi, yj);
            }
            let ts = _mm512_loadu_si512(tp.add(s * MAX_LANES + off) as *const _);
            _mm512_storeu_si512(
                tp.add(s * MAX_LANES + off) as *mut _,
                _mm512_add_epi64(ts, hi),
            );

            // m = lo52(t_0 · n0') — madd52lo reads exactly the low 52
            // bits of t_0, which equal the value mod 2⁵².
            let t0 = _mm512_loadu_si512(tp.add(off) as *const _);
            let m = _mm512_madd52lo_epu64(zero, t0, n0inv);

            // Pass B fused with the digit shift. Digit 0 of t + m·N
            // is divisible by 2⁵²: its headroom is an exact carry.
            let n0 = _mm512_set1_epi64(n[0] as i64);
            let v0 = _mm512_madd52lo_epu64(t0, m, n0);
            let mut carry = _mm512_add_epi64(
                _mm512_srli_epi64(v0, DIGIT_BITS as u32),
                _mm512_madd52hi_epu64(zero, m, n0),
            );
            for j in 1..s {
                let nj = _mm512_set1_epi64(n[j] as i64);
                let tj = _mm512_loadu_si512(tp.add(j * MAX_LANES + off) as *const _);
                let out = _mm512_madd52lo_epu64(_mm512_add_epi64(tj, carry), m, nj);
                _mm512_storeu_si512(tp.add((j - 1) * MAX_LANES + off) as *mut _, out);
                carry = _mm512_madd52hi_epu64(zero, m, nj);
            }
            let ts = _mm512_loadu_si512(tp.add(s * MAX_LANES + off) as *const _);
            _mm512_storeu_si512(
                tp.add((s - 1) * MAX_LANES + off) as *mut _,
                _mm512_add_epi64(ts, carry),
            );
            _mm512_storeu_si512(tp.add(s * MAX_LANES + off) as *mut _, zero);

            // The one normalization of this outer step.
            let mut cv = zero;
            for j in 0..=s {
                let d = _mm512_loadu_si512(tp.add(j * MAX_LANES + off) as *const _);
                debug_assert!(ifma_within_budget(d), "digit reached 2^55");
                let v = _mm512_add_epi64(d, cv);
                _mm512_storeu_si512(
                    tp.add(j * MAX_LANES + off) as *mut _,
                    _mm512_and_si512(v, mask52),
                );
                cv = _mm512_srli_epi64(v, DIGIT_BITS as u32);
            }
        }

        if geo.rem > 0 {
            // Partial step: top rem-bit digit of x, then reduce by
            // the remaining 2^rem.
            let xf = _mm512_loadu_si512(xp.add(geo.full * MAX_LANES + off) as *const _);
            let mut hi = zero;
            for j in 0..s {
                let yj = _mm512_loadu_si512(yp.add(j * MAX_LANES + off) as *const _);
                let tj = _mm512_loadu_si512(tp.add(j * MAX_LANES + off) as *const _);
                let acc = _mm512_madd52lo_epu64(_mm512_add_epi64(tj, hi), xf, yj);
                _mm512_storeu_si512(tp.add(j * MAX_LANES + off) as *mut _, acc);
                hi = _mm512_madd52hi_epu64(zero, xf, yj);
            }
            let ts = _mm512_loadu_si512(tp.add(s * MAX_LANES + off) as *const _);
            _mm512_storeu_si512(
                tp.add(s * MAX_LANES + off) as *mut _,
                _mm512_add_epi64(ts, hi),
            );

            let rem_mask = _mm512_set1_epi64(((1u64 << geo.rem) - 1) as i64);
            let t0 = _mm512_loadu_si512(tp.add(off) as *const _);
            let m = _mm512_and_si512(_mm512_madd52lo_epu64(zero, t0, n0inv), rem_mask);

            // Pass C: t += m ⊙ N, unshifted.
            let mut carry = zero;
            for j in 0..s {
                let nj = _mm512_set1_epi64(n[j] as i64);
                let tj = _mm512_loadu_si512(tp.add(j * MAX_LANES + off) as *const _);
                let out = _mm512_madd52lo_epu64(_mm512_add_epi64(tj, carry), m, nj);
                _mm512_storeu_si512(tp.add(j * MAX_LANES + off) as *mut _, out);
                carry = _mm512_madd52hi_epu64(zero, m, nj);
            }
            let ts = _mm512_loadu_si512(tp.add(s * MAX_LANES + off) as *const _);
            _mm512_storeu_si512(
                tp.add(s * MAX_LANES + off) as *mut _,
                _mm512_add_epi64(ts, carry),
            );

            // Normalize rows 0..=s+1, then shift right by rem bits.
            let mut cv = zero;
            for j in 0..=s + 1 {
                let d = _mm512_loadu_si512(tp.add(j * MAX_LANES + off) as *const _);
                debug_assert!(ifma_within_budget(d), "digit reached 2^55");
                let v = _mm512_add_epi64(d, cv);
                _mm512_storeu_si512(
                    tp.add(j * MAX_LANES + off) as *mut _,
                    _mm512_and_si512(v, mask52),
                );
                cv = _mm512_srli_epi64(v, DIGIT_BITS as u32);
            }
            let shr = _mm_cvtsi32_si128(geo.rem as i32);
            let shl = _mm_cvtsi32_si128((DIGIT_BITS as u32 - geo.rem) as i32);
            for j in 0..=s {
                let cur = _mm512_loadu_si512(tp.add(j * MAX_LANES + off) as *const _);
                let upper = _mm512_loadu_si512(tp.add((j + 1) * MAX_LANES + off) as *const _);
                let v = _mm512_or_si512(
                    _mm512_srl_epi64(cur, shr),
                    _mm512_sll_epi64(_mm512_and_si512(upper, rem_mask), shl),
                );
                _mm512_storeu_si512(tp.add(j * MAX_LANES + off) as *mut _, v);
            }
        }
    }
}

/// The AVX2 kernel: 4 lanes per `__m256i` (16 vector columns). AVX2
/// has no 52- or even 64-bit multiplier, so each 52×52 product is
/// assembled from three `_mm256_mul_epu32` 32×32→64 multiplies via a
/// 26-bit operand split `a = a₀ + a₁·2²⁶`:
///
/// ```text
/// a·b = a₀b₀ + (a₀b₁ + a₁b₀)·2²⁶ + a₁b₁·2⁵²
///     = plo + phi·2⁵²    with  plo = a₀b₀ + (mid mod 2²⁶)·2²⁶ < 2⁵³
///                              phi = a₁b₁ + ⌊mid/2²⁶⌋
/// ```
///
/// `plo` is *redundant* (up to 53 bits) — which is fine, because the
/// accumulator is carry-save anyway; the headroom budget in
/// DESIGN.md §9 covers it.
///
/// # Safety
/// Requires `avx2` at runtime (checked by [`Cios52Kernel::available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[allow(clippy::needless_range_loop)] // j indexes n and the SoA accumulator rows together
unsafe fn run_cios52_avx2(geo: Geometry, n: &[Limb], x: &[Limb], y: &[Limb], t: &mut [Limb]) {
    use core::arch::x86_64::*;
    const W: usize = 4;
    const HALF_BITS: u32 = 26;
    let s = geo.s;
    let mask52 = _mm256_set1_epi64x(DIGIT_MASK as i64);
    let mask26 = _mm256_set1_epi64x(((1u64 << HALF_BITS) - 1) as i64);
    let zero = _mm256_setzero_si256();
    // n0' pre-split into 26-bit halves.
    let n0inv_lo = _mm256_set1_epi64x((geo.n0_inv & ((1 << HALF_BITS) - 1)) as i64);
    let n0inv_hi = _mm256_set1_epi64x((geo.n0_inv >> HALF_BITS) as i64);
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let tp = t.as_mut_ptr();

    // (plo, phi) of the lane-wise 52×52 product of already-split
    // operands; see the function docs for the identity.
    macro_rules! mul52 {
        ($a0:expr, $a1:expr, $b:expr) => {{
            let b0 = _mm256_and_si256($b, mask26);
            let b1 = _mm256_srli_epi64($b, HALF_BITS as i32);
            let ll = _mm256_mul_epu32($a0, b0);
            let mid = _mm256_add_epi64(_mm256_mul_epu32($a0, b1), _mm256_mul_epu32($a1, b0));
            let hh = _mm256_mul_epu32($a1, b1);
            let plo = _mm256_add_epi64(
                ll,
                _mm256_slli_epi64(_mm256_and_si256(mid, mask26), HALF_BITS as i32),
            );
            let phi = _mm256_add_epi64(hh, _mm256_srli_epi64(mid, HALF_BITS as i32));
            (plo, phi)
        }};
    }

    for c in 0..MAX_LANES / W {
        let off = c * W;
        for i in 0..geo.full {
            let xi = _mm256_loadu_si256(xp.add(i * MAX_LANES + off) as *const _);
            let xi0 = _mm256_and_si256(xi, mask26);
            let xi1 = _mm256_srli_epi64(xi, HALF_BITS as i32);
            // Pass A.
            let mut hi = zero;
            for j in 0..s {
                let yj = _mm256_loadu_si256(yp.add(j * MAX_LANES + off) as *const _);
                let (plo, phi) = mul52!(xi0, xi1, yj);
                let tj = _mm256_loadu_si256(tp.add(j * MAX_LANES + off) as *const _);
                let acc = _mm256_add_epi64(_mm256_add_epi64(tj, hi), plo);
                _mm256_storeu_si256(tp.add(j * MAX_LANES + off) as *mut _, acc);
                hi = phi;
            }
            let ts = _mm256_loadu_si256(tp.add(s * MAX_LANES + off) as *const _);
            _mm256_storeu_si256(
                tp.add(s * MAX_LANES + off) as *mut _,
                _mm256_add_epi64(ts, hi),
            );

            // m = t_0 · n0' mod 2⁵², from 26-bit pieces. t_0 may hold
            // up to 54 bits, so its high half still fits 32 bits and
            // `mul_epu32` stays exact; the `slli` wraps mod 2⁶⁴ which
            // preserves the low 52 bits we keep.
            let t0 = _mm256_loadu_si256(tp.add(off) as *const _);
            let t0l = _mm256_and_si256(t0, mask26);
            let t0h = _mm256_srli_epi64(t0, HALF_BITS as i32);
            let q = _mm256_add_epi64(
                _mm256_mul_epu32(t0l, n0inv_lo),
                _mm256_slli_epi64(
                    _mm256_add_epi64(
                        _mm256_mul_epu32(t0l, n0inv_hi),
                        _mm256_mul_epu32(t0h, n0inv_lo),
                    ),
                    HALF_BITS as i32,
                ),
            );
            let m = _mm256_and_si256(q, mask52);
            let m0 = _mm256_and_si256(m, mask26);
            let m1 = _mm256_srli_epi64(m, HALF_BITS as i32);

            // Pass B fused with the digit shift.
            let n0 = _mm256_set1_epi64x(n[0] as i64);
            let (plo, phi) = mul52!(m0, m1, n0);
            let v0 = _mm256_add_epi64(t0, plo);
            let mut carry = _mm256_add_epi64(_mm256_srli_epi64(v0, DIGIT_BITS as i32), phi);
            for j in 1..s {
                let nj = _mm256_set1_epi64x(n[j] as i64);
                let (plo, phi) = mul52!(m0, m1, nj);
                let tj = _mm256_loadu_si256(tp.add(j * MAX_LANES + off) as *const _);
                let out = _mm256_add_epi64(_mm256_add_epi64(tj, carry), plo);
                _mm256_storeu_si256(tp.add((j - 1) * MAX_LANES + off) as *mut _, out);
                carry = phi;
            }
            let ts = _mm256_loadu_si256(tp.add(s * MAX_LANES + off) as *const _);
            _mm256_storeu_si256(
                tp.add((s - 1) * MAX_LANES + off) as *mut _,
                _mm256_add_epi64(ts, carry),
            );
            _mm256_storeu_si256(tp.add(s * MAX_LANES + off) as *mut _, zero);

            // The one normalization of this outer step.
            let mut cv = zero;
            for j in 0..=s {
                let d = _mm256_loadu_si256(tp.add(j * MAX_LANES + off) as *const _);
                debug_assert!(avx2_within_budget(d), "digit reached 2^55");
                let v = _mm256_add_epi64(d, cv);
                _mm256_storeu_si256(
                    tp.add(j * MAX_LANES + off) as *mut _,
                    _mm256_and_si256(v, mask52),
                );
                cv = _mm256_srli_epi64(v, DIGIT_BITS as i32);
            }
        }

        if geo.rem > 0 {
            let xf = _mm256_loadu_si256(xp.add(geo.full * MAX_LANES + off) as *const _);
            let xf0 = _mm256_and_si256(xf, mask26);
            let xf1 = _mm256_srli_epi64(xf, HALF_BITS as i32);
            let mut hi = zero;
            for j in 0..s {
                let yj = _mm256_loadu_si256(yp.add(j * MAX_LANES + off) as *const _);
                let (plo, phi) = mul52!(xf0, xf1, yj);
                let tj = _mm256_loadu_si256(tp.add(j * MAX_LANES + off) as *const _);
                let acc = _mm256_add_epi64(_mm256_add_epi64(tj, hi), plo);
                _mm256_storeu_si256(tp.add(j * MAX_LANES + off) as *mut _, acc);
                hi = phi;
            }
            let ts = _mm256_loadu_si256(tp.add(s * MAX_LANES + off) as *const _);
            _mm256_storeu_si256(
                tp.add(s * MAX_LANES + off) as *mut _,
                _mm256_add_epi64(ts, hi),
            );

            let rem_mask = _mm256_set1_epi64x(((1u64 << geo.rem) - 1) as i64);
            let t0 = _mm256_loadu_si256(tp.add(off) as *const _);
            let t0l = _mm256_and_si256(t0, mask26);
            let t0h = _mm256_srli_epi64(t0, HALF_BITS as i32);
            let q = _mm256_add_epi64(
                _mm256_mul_epu32(t0l, n0inv_lo),
                _mm256_slli_epi64(
                    _mm256_add_epi64(
                        _mm256_mul_epu32(t0l, n0inv_hi),
                        _mm256_mul_epu32(t0h, n0inv_lo),
                    ),
                    HALF_BITS as i32,
                ),
            );
            let m = _mm256_and_si256(q, rem_mask);
            let m0 = _mm256_and_si256(m, mask26);
            let m1 = _mm256_srli_epi64(m, HALF_BITS as i32);

            // Pass C, unshifted.
            let mut carry = zero;
            for j in 0..s {
                let nj = _mm256_set1_epi64x(n[j] as i64);
                let (plo, phi) = mul52!(m0, m1, nj);
                let tj = _mm256_loadu_si256(tp.add(j * MAX_LANES + off) as *const _);
                let out = _mm256_add_epi64(_mm256_add_epi64(tj, carry), plo);
                _mm256_storeu_si256(tp.add(j * MAX_LANES + off) as *mut _, out);
                carry = phi;
            }
            let ts = _mm256_loadu_si256(tp.add(s * MAX_LANES + off) as *const _);
            _mm256_storeu_si256(
                tp.add(s * MAX_LANES + off) as *mut _,
                _mm256_add_epi64(ts, carry),
            );

            // Normalize rows 0..=s+1, then shift right by rem bits.
            let mut cv = zero;
            for j in 0..=s + 1 {
                let d = _mm256_loadu_si256(tp.add(j * MAX_LANES + off) as *const _);
                debug_assert!(avx2_within_budget(d), "digit reached 2^55");
                let v = _mm256_add_epi64(d, cv);
                _mm256_storeu_si256(
                    tp.add(j * MAX_LANES + off) as *mut _,
                    _mm256_and_si256(v, mask52),
                );
                cv = _mm256_srli_epi64(v, DIGIT_BITS as i32);
            }
            let shr = _mm_cvtsi32_si128(geo.rem as i32);
            let shl = _mm_cvtsi32_si128((DIGIT_BITS as u32 - geo.rem) as i32);
            for j in 0..=s {
                let cur = _mm256_loadu_si256(tp.add(j * MAX_LANES + off) as *const _);
                let upper = _mm256_loadu_si256(tp.add((j + 1) * MAX_LANES + off) as *const _);
                let v = _mm256_or_si256(
                    _mm256_srl_epi64(cur, shr),
                    _mm256_sll_epi64(_mm256_and_si256(upper, rem_mask), shl),
                );
                _mm256_storeu_si256(tp.add(j * MAX_LANES + off) as *mut _, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modgen::{random_operand, random_safe_params};
    use crate::montgomery::mont_mul_alg2;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn kernel_detection_is_cached_and_nonempty() {
        let a = Cios52Kernel::available();
        assert!(!a.is_empty());
        assert_eq!(
            a[0],
            Cios52Kernel::Portable,
            "portable is the universal floor"
        );
        // Cached: the same slice comes back.
        assert_eq!(a.as_ptr(), Cios52Kernel::available().as_ptr());
        assert!(a.contains(&Cios52Kernel::active()));
    }

    #[test]
    fn conversion_round_trips_and_splits_bits() {
        let mut rng = StdRng::seed_from_u64(701);
        for limbs in 1usize..=6 {
            let digits = (limbs * 64).div_ceil(DIGIT_BITS);
            for _ in 0..50 {
                let ws: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
                let ds = limbs_to_digits52(&ws, digits);
                assert!(ds.iter().all(|&d| d <= DIGIT_MASK));
                // Digit d holds bits [52d, 52d+52) — spot-check via
                // the big-integer view.
                let v = Ubig::from_limbs(ws.clone());
                for (d, &dig) in ds.iter().enumerate() {
                    let want = (&v >> (d * DIGIT_BITS))
                        .low_bits(DIGIT_BITS)
                        .to_u64()
                        .expect("52 bits fit one limb");
                    assert_eq!(dig, want, "digit {d} of {limbs} limbs");
                }
                assert_eq!(digits52_to_limbs(&ds, limbs), ws, "{limbs} limbs");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not normalized")]
    fn digits_to_limbs_rejects_unnormalized_digit() {
        let _ = digits52_to_limbs(&[DIGIT_MASK + 1], 1);
    }

    #[test]
    fn demotion_walks_down_to_portable_and_stays_correct() {
        // Wider than the per-lane bound, so every tier's kernel runs.
        let mut rng = StdRng::seed_from_u64(705);
        let p = random_safe_params(&mut rng, 64);
        let xs: Vec<Ubig> = (0..40).map(|_| random_operand(&mut rng, &p)).collect();
        let ys: Vec<Ubig> = (0..40).map(|_| random_operand(&mut rng, &p)).collect();
        let want: Vec<Ubig> = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| mont_mul_alg2(&p, x, y))
            .collect();
        let mut e = Cios52Batch::new(p.clone());
        assert_eq!(e.kernel(), Cios52Kernel::active());
        let mut demotions = 0;
        loop {
            let mut out = Vec::new();
            e.mont_mul_batch_into(&xs, &ys, &mut out);
            assert_eq!(out, want, "kernel {} wrong", e.kernel().name());
            if !e.demote() {
                break;
            }
            demotions += 1;
        }
        assert_eq!(e.kernel(), Cios52Kernel::Portable, "floor is portable");
        assert_eq!(
            demotions + 1,
            Cios52Kernel::available().len(),
            "one demotion per tier"
        );
        assert_eq!(Cios52Kernel::Portable.weaker(), None);
    }

    #[test]
    fn every_available_kernel_matches_alg2_exhaustive_small() {
        // N = 13, l = 4 (full = 0, rem = 6): every x, y < 2N, and the
        // non-canonical < 2N representative must match exactly. Each
        // call pairs x and 25 − x with every y: 52 lanes, above the
        // per-lane bound, so the kernel itself runs.
        let p = MontgomeryParams::new(&Ubig::from(13u64), 4);
        let ys: Vec<Ubig> = (0..52u64).map(|i| Ubig::from(i % 26)).collect();
        for &kernel in Cios52Kernel::available() {
            let mut e = Cios52Batch::with_kernel(p.clone(), kernel);
            for x in 0u64..13 {
                let xs: Vec<Ubig> = (0..52)
                    .map(|i| Ubig::from(if i < 26 { x } else { 25 - x }))
                    .collect();
                let got = e.mont_mul_batch(&xs, &ys);
                for (k, (xk, yk)) in xs.iter().zip(&ys).enumerate() {
                    let want = mont_mul_alg2(&p, xk, yk);
                    assert_eq!(got[k], want, "{} x={xk} y={yk}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn every_available_kernel_matches_alg2_across_widths() {
        // Widths straddling the 52-bit digit boundary (l = 50 ⇒ rem =
        // 0, single digit), the 64-bit word boundary, and multi-digit
        // sizes; full lanes.
        let mut rng = StdRng::seed_from_u64(702);
        for l in [
            3usize, 30, 49, 50, 51, 62, 63, 64, 65, 100, 102, 103, 150, 256,
        ] {
            let p = random_safe_params(&mut rng, l);
            let xs: Vec<Ubig> = (0..MAX_LANES)
                .map(|_| random_operand(&mut rng, &p))
                .collect();
            let ys: Vec<Ubig> = (0..MAX_LANES)
                .map(|_| random_operand(&mut rng, &p))
                .collect();
            let want: Vec<Ubig> = xs
                .iter()
                .zip(&ys)
                .map(|(x, y)| mont_mul_alg2(&p, x, y))
                .collect();
            for &kernel in Cios52Kernel::available() {
                let mut e = Cios52Batch::with_kernel(p.clone(), kernel);
                let got = e.mont_mul_batch(&xs, &ys);
                assert_eq!(got, want, "{} l={l}", kernel.name());
            }
        }
    }

    #[test]
    fn every_available_kernel_accepts_tight_widths() {
        // No hardware-safety requirement; N ≳ ⅔·2^l widths included.
        let mut rng = StdRng::seed_from_u64(703);
        for bits in [64usize, 65, 128] {
            let mut n = Ubig::pow2(bits) - Ubig::one();
            if n.is_even() {
                n = n - Ubig::one();
            }
            let p = MontgomeryParams::tight(&n);
            assert!(!p.is_hardware_safe(), "bits={bits}");
            // 8 lanes run the per-lane path, 64 the kernel.
            for lanes in [8, MAX_LANES] {
                let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
                for &kernel in Cios52Kernel::available() {
                    let mut e = Cios52Batch::with_kernel(p.clone(), kernel);
                    let got = e.mont_mul_batch(&xs, &xs);
                    for k in 0..lanes {
                        assert_eq!(
                            got[k],
                            mont_mul_alg2(&p, &xs[k], &xs[k]),
                            "{} bits={bits} lanes={lanes} lane {k}",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partial_batches_and_engine_reuse() {
        let mut rng = StdRng::seed_from_u64(704);
        let p = random_safe_params(&mut rng, 48);
        let mut batch = Cios52Batch::new(p.clone());
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
    fn outputs_feed_back_as_inputs() {
        // The Algorithm-2 closure property on every available kernel
        // (48 lanes, above the per-lane bound).
        let mut rng = StdRng::seed_from_u64(705);
        let p = random_safe_params(&mut rng, 70);
        let xs: Vec<Ubig> = (0..48).map(|_| random_operand(&mut rng, &p)).collect();
        for &kernel in Cios52Kernel::available() {
            let mut batch = Cios52Batch::with_kernel(p.clone(), kernel);
            let mut a = batch.mont_mul_batch(&xs, &xs);
            let mut want: Vec<Ubig> = xs.iter().map(|x| mont_mul_alg2(&p, x, x)).collect();
            for round in 0..4 {
                a = batch.mont_mul_batch(&a, &a);
                want = want.iter().map(|v| mont_mul_alg2(&p, v, v)).collect();
                assert_eq!(a, want, "{} round {round}", kernel.name());
            }
        }
    }

    #[test]
    fn hardened_outputs_are_canonical_on_every_kernel() {
        let mut rng = StdRng::seed_from_u64(708);
        for l in [3usize, 50, 51, 64, 103, 150] {
            let p = random_safe_params(&mut rng, l);
            let lanes = 64.min(2 * l);
            let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            for &kernel in Cios52Kernel::available() {
                let mut e = Cios52Batch::with_kernel(p.clone(), kernel);
                e.set_hardening(HardeningMode::Hardened);
                let got = e.mont_mul_batch(&xs, &ys);
                for k in 0..lanes {
                    let want = mont_mul_alg2(&p, &xs[k], &ys[k]).rem(p.n());
                    assert_eq!(got[k], want, "{} lane {k} l={l}", kernel.name());
                    assert!(got[k] < *p.n(), "{} lane {k} l={l}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn demotion_preserves_hardening() {
        let p = MontgomeryParams::new(&Ubig::from(13u64), 4);
        let mut e = Cios52Batch::new(p);
        e.set_hardening(HardeningMode::Hardened);
        while e.demote() {
            assert_eq!(
                e.hardening(),
                HardeningMode::Hardened,
                "demotion to {} dropped hardening",
                e.kernel().name()
            );
        }
        assert_eq!(e.hardening(), HardeningMode::Hardened);
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn rejects_oversized_batch() {
        let mut rng = StdRng::seed_from_u64(706);
        let p = random_safe_params(&mut rng, 8);
        let xs: Vec<Ubig> = (0..65).map(|_| random_operand(&mut rng, &p)).collect();
        let ys = xs.clone();
        let _ = Cios52Batch::new(p).mont_mul_batch(&xs, &ys);
    }

    #[test]
    #[should_panic(expected = "operands must be < 2N")]
    fn rejects_out_of_range_operand() {
        let mut rng = StdRng::seed_from_u64(707);
        let p = random_safe_params(&mut rng, 8);
        let bad = p.two_n();
        let _ = Cios52Batch::new(p.clone())
            .mont_mul_batch(std::slice::from_ref(&bad), std::slice::from_ref(&bad));
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(Cios52Kernel::Portable.name(), "portable");
        assert_eq!(Cios52Kernel::Avx2.name(), "avx2");
        assert_eq!(Cios52Kernel::Ifma.name(), "ifma");
        let mut e = Cios52Batch::new(MontgomeryParams::new(&Ubig::from(13u64), 4));
        assert!(BatchMontMul::name(&e).contains(e.kernel().name()));
        assert!(BatchMontMul::name(&e).contains("radix-2^52"));
        let _ = e.mont_mul_batch(&[Ubig::one()], &[Ubig::one()]);
    }
}
