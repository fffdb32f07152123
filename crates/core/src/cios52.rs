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
//! `mul_epu32` pairs and onto plain u64 arithmetic. So the scan is
//! written **once**, generic over a private trait of eleven one-line
//! lane ops (load, store, splat, add, and, two shifts, the multiplicand
//! split, the 52×52 multiply-accumulate, the low product and the
//! carry-budget test), and each kernel is one implementation of them:
//!
//! * [`Cios52Kernel::Portable`] — `[u64; 4]`, four lanes per step with
//!   `u128` products; runs on any host.
//! * [`Cios52Kernel::Avx2`] — `__m256i`, 4 lanes, each 52×52 product
//!   from three `_mm256_mul_epu32` via a 26-bit split.
//! * [`Cios52Kernel::Ifma`] — `__m512i`, 8 lanes, one
//!   `_mm512_madd52lo_epu64` / `_mm512_madd52hi_epu64` pair per MAC.
//!
//! The schedule, its passes and its carry-budget `debug_assert`s
//! therefore exist once and run on every kernel. CPU features are
//! detected once per process
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
//! `x` and `y`, the accumulator's zero fill, the scan over the region's
//! lane type, the 52→64-bit conversion into `out` and, when hardened,
//! the canonicalizing subtraction. Each pass is one `#[inline(always)]`
//! source that the three regions inline, so the passes around the scan
//! run at the kernel's vector width rather than the baseline ISA, and the
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
use crate::rows::{self, check_below, check_shape, padded_limbs, row, row_mut, LaneStage};
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
/// below 2⁵⁵. The scan `debug_assert`s it, on every kernel, on every
/// digit row before each normalization.
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

/// Which lane type a [`Cios52Batch`] runs its one scan on. All
/// kernels compute the identical function; selection is purely a
/// throughput decision made once per process from CPU features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cios52Kernel {
    /// Four `u64` lanes per step (`[u64; 4]`), each 52×52 product
    /// through `u128`; runs on any host.
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

    /// The portable kernel's region: no target features, so every pass
    /// compiles for the baseline ISA.
    #[inline(never)]
    #[allow(unsafe_code)]
    fn wide_portable(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        out: &mut [Limb],
    ) -> Result<(), MmmError> {
        // SAFETY: the portable lanes need no target feature.
        unsafe { self.wide_call::<[u64; 4]>(x, y, lanes, out) }
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
        // SAFETY: the caller guarantees `avx2`, the lanes' feature.
        self.wide_call::<core::arch::x86_64::__m256i>(x, y, lanes, out)
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
        // SAFETY: the caller guarantees the lanes' two features.
        self.wide_call::<core::arch::x86_64::__m512i>(x, y, lanes, out)
    }

    /// Every pass of a wide call, in order: the `< 2N` range check
    /// (`out` untouched when it fails), `x` and `y` to digit rows, the
    /// zeroed accumulator, the [`scan`] over `V`, the digit rows back to
    /// words in `out`, and the canonicalizing subtraction when hardened.
    /// The one source of the three regions: each inlines it, so every
    /// pass, not only the scan, runs at the region's vector width.
    ///
    /// # Safety
    /// The host must have `V`'s target features ([`Lanes`]).
    #[inline(always)]
    #[allow(unsafe_code)]
    unsafe fn wide_call<V: Lanes>(
        &mut self,
        x: &[Limb],
        y: &[Limb],
        lanes: usize,
        out: &mut [Limb],
    ) -> Result<(), MmmError> {
        let geo = self.geo;
        rows::check_below_rows(&self.two_n, x, y, lanes)?;
        soa_words_to_digits52(x, geo.sw, &mut self.x, geo.s, lanes);
        soa_words_to_digits52(y, geo.sw, &mut self.y, geo.s, lanes);
        self.t.fill(0);
        // SAFETY: the caller guarantees `V`'s target features.
        scan::<V>(geo, &self.n, &self.x, &self.y, &mut self.t);
        soa_digits52_to_words(&self.t, geo.s, out, geo.sw);
        if self.hardening.is_hardened() {
            rows::cond_sub_rows_inline(self.per_lane.modulus(), out);
        }
        Ok(())
    }
}

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

/// The lane operations [`scan`] is written over: `W` lanes of one
/// 64-bit digit each, implemented once per kernel — `[u64; 4]`
/// (portable), `__m256i` (AVX2) and `__m512i` (IFMA). Every op is an
/// `#[inline(always)]` one-liner, so once `scan` is inlined into a
/// kernel's region each op compiles at that region's ISA. (A closure
/// would not: it is compiled as a function of its own, without the
/// region's target features, and calls each intrinsic out of line.)
///
/// # Safety
/// Every method may run only on a host with its implementation's
/// target features: `avx2` for `__m256i`, `avx512f` and `avx512ifma`
/// for `__m512i`, none for `[u64; 4]`. [`Lanes::load`] and
/// [`Lanes::store`] also need `W` limbs at the pointer, valid for
/// reading or writing.
#[allow(unsafe_code)]
trait Lanes: Copy {
    /// Lanes per value.
    const W: usize;
    /// A multiplicand prepared once for many products: the value
    /// itself, or its 26-bit halves on AVX2.
    type Split: Copy;
    /// The `W` limbs at `p`, which needs only `u64` alignment.
    unsafe fn load(p: *const Limb) -> Self;
    /// Writes the `W` lanes to `p`.
    unsafe fn store(self, p: *mut Limb);
    /// `v` in every lane.
    unsafe fn splat(v: u64) -> Self;
    /// Lane-wise `self + b`; the scan's sums stay below 2⁵⁵.
    unsafe fn add(self, b: Self) -> Self;
    /// Lane-wise `self & b`.
    unsafe fn and(self, b: Self) -> Self;
    /// Lane-wise `self >> n`, for `n < 64`.
    unsafe fn shr(self, n: u32) -> Self;
    /// Lane-wise `self << n` modulo 2⁶⁴, for `n < 64`.
    unsafe fn shl(self, n: u32) -> Self;
    /// `self` (every lane `< 2⁵²`) as a multiplicand.
    unsafe fn split(self) -> Self::Split;
    /// One 52×52-bit multiply-accumulate for `a, b < 2⁵²`:
    /// `(acc + lo, hi)` with `lo + hi·2⁵² = a·b` and `lo < 2⁵³` (the
    /// AVX2 low half is redundant; the others are `< 2⁵²`).
    unsafe fn mac(acc: Self, a: Self::Split, b: Self) -> (Self, Self);
    /// `a·b mod 2⁵²` for `a < 2⁵⁵` and `b < 2⁵²`.
    unsafe fn mul_lo(a: Self, b: Self::Split) -> Self;
    /// Whether every lane is below `2^bits`, for `bits < 64`.
    unsafe fn fits(self, bits: u32) -> bool;
}

/// The radix-2⁵² carry-save scan, written once over [`Lanes`] (module
/// docs, DESIGN.md §9): the 64 lanes run as `64 / V::W` vector
/// columns, and each column runs the whole schedule — `full` 52-bit
/// steps, then the partial step — before the next starts, so one
/// column's working set stays in cache. `t` must enter zeroed and
/// leaves the result in rows `0..s`, every digit `< 2⁵²`.
///
/// # Safety
/// The host must have `V`'s target features ([`Lanes`]). The buffer
/// lengths are checked here, and every pointer below stays inside them.
#[inline(always)]
#[allow(unsafe_code)]
unsafe fn scan<V: Lanes>(geo: Geometry, n: &[Limb], x: &[Limb], y: &[Limb], t: &mut [Limb]) {
    let s = geo.s;
    assert!(
        n.len() == s
            && x.len() == s * MAX_LANES
            && y.len() == s * MAX_LANES
            && t.len() == (s + 2) * MAX_LANES,
        "scan buffers must match the digit geometry"
    );
    let n0_inv = V::splat(geo.n0_inv).split();
    for c in (0..MAX_LANES).step_by(V::W) {
        // Row j of this column starts j·MAX_LANES limbs past these.
        let (xc, yc, tc) = (x.as_ptr().add(c), y.as_ptr().add(c), t.as_mut_ptr().add(c));
        for i in 0..geo.full {
            // Pass A: t += x_i ⊙ y.
            accumulate::<V>(tc, yc, s, V::load(xc.add(i * MAX_LANES)).split());

            // m = t_0 · n0' mod 2⁵². Digit weights are multiples of
            // 2⁵², so t_0 mod 2⁵² is the whole value mod 2⁵² even
            // while t_0 still carries unnormalized headroom bits.
            let t0 = V::load(tc);
            let m = V::mul_lo(t0, n0_inv).split();

            // Pass B: t = (t + m ⊙ N) / 2⁵², fused with the digit
            // shift. Digit 0 of t + m·N is divisible by 2⁵², so its
            // headroom bits are an exact carry into digit 1.
            let (v0, hi) = V::mac(t0, m, V::splat(n[0]));
            debug_assert!(
                v0.and(V::splat(DIGIT_MASK)).fits(0),
                "low digit must cancel"
            );
            let mut carry = v0.shr(DIGIT_BITS as u32).add(hi);
            for (j, &nj) in n.iter().enumerate().skip(1) {
                let (lo, hi) = V::mac(V::load(tc.add(j * MAX_LANES)).add(carry), m, V::splat(nj));
                lo.store(tc.add((j - 1) * MAX_LANES));
                carry = hi;
            }
            let top = tc.add(s * MAX_LANES);
            V::load(top).add(carry).store(top.sub(MAX_LANES));
            V::splat(0).store(top);

            // The one normalization of this outer step. T < 4N <
            // 2^{52s}, so the value fits rows 0..s.
            normalize::<V>(tc, s);
        }

        if geo.rem > 0 {
            // Partial step: absorb the top (rem-bit) digit of x, then
            // reduce by the remaining 2^rem.
            accumulate::<V>(tc, yc, s, V::load(xc.add(geo.full * MAX_LANES)).split());

            // m < 2^rem: n0' mod 2^rem is -N⁻¹ mod 2^rem, and t_0 mod
            // 2^rem is exact for the same positional-weight reason.
            let rem_mask = V::splat((1 << geo.rem) - 1);
            let m = V::mul_lo(V::load(tc), n0_inv).and(rem_mask).split();

            // Pass C: t += m ⊙ N, unshifted (the shift is by rem < 52
            // bits, not a whole digit).
            let mut carry = V::splat(0);
            for (j, &nj) in n.iter().enumerate() {
                let row = tc.add(j * MAX_LANES);
                let (lo, hi) = V::mac(V::load(row).add(carry), m, V::splat(nj));
                lo.store(row);
                carry = hi;
            }
            let top = tc.add(s * MAX_LANES);
            V::load(top).add(carry).store(top);

            // Normalize fully *before* the bit shift — the shift reads
            // exact digit bit patterns, so no headroom may remain.
            normalize::<V>(tc, s + 1);
            debug_assert!(
                V::load(tc).and(rem_mask).fits(0),
                "low rem bits must cancel"
            );

            // Lane-wise right shift by rem bits across the digit rows;
            // the two parts of a digit have disjoint bits, so `add` is
            // their `or`.
            let up = DIGIT_BITS as u32 - geo.rem;
            for j in 0..=s {
                let row = tc.add(j * MAX_LANES);
                let upper = V::load(row.add(MAX_LANES)).and(rem_mask).shl(up);
                V::load(row).shr(geo.rem).add(upper).store(row);
            }
        }

        debug_assert!(
            V::load(tc.add(s * MAX_LANES)).fits(0) && V::load(tc.add((s + 1) * MAX_LANES)).fits(0),
            "result exceeds s digits"
        );
    }
}

/// Pass A (or the partial step's first pass) on one column of `t`:
/// `t += a ⊙ y` over digit rows `0..s`, each product's high half
/// deferred into the next row's sum (no carry ripple), the last one
/// into row `s`.
///
/// # Safety
/// The host must have `V`'s target features, and `W` limbs must be
/// valid at each `j·MAX_LANES` past `t` for rows `j` in `0..=s` and
/// past `y` for rows in `0..s` ([`scan`]'s column pointers).
#[inline(always)]
#[allow(unsafe_code)]
unsafe fn accumulate<V: Lanes>(t: *mut Limb, y: *const Limb, s: usize, a: V::Split) {
    let mut hi = V::splat(0);
    for j in 0..s {
        let row = t.add(j * MAX_LANES);
        let (lo, h) = V::mac(V::load(row).add(hi), a, V::load(y.add(j * MAX_LANES)));
        lo.store(row);
        hi = h;
    }
    let top = t.add(s * MAX_LANES);
    V::load(top).add(hi).store(top);
}

/// The once-per-step normalization of one column of `t`: ripple each
/// lane's deferred carries up through digit rows `0..=top`, leaving
/// every digit `< 2⁵²`. This is the *only* carry chain in the scan.
///
/// # Safety
/// The host must have `V`'s target features, and `W` limbs must be
/// valid at each `j·MAX_LANES` past `t` for rows `j` in `0..=top`.
#[inline(always)]
#[allow(unsafe_code)]
unsafe fn normalize<V: Lanes>(t: *mut Limb, top: usize) {
    let mut carry = V::splat(0);
    for j in 0..=top {
        let row = t.add(j * MAX_LANES);
        let d = V::load(row);
        debug_assert!(
            d.fits(TRANSIENT_BITS),
            "digit reached 2^55 before normalization"
        );
        let v = d.add(carry);
        v.and(V::splat(DIGIT_MASK)).store(row);
        carry = v.shr(DIGIT_BITS as u32);
    }
    debug_assert!(carry.fits(0), "carry out of the top digit row");
}

/// The portable lanes: four `u64`s with `u128` products, on any host.
/// Four lanes per value measured fastest of 1, 2, 4, 8, 16 and 64
/// (EXPERIMENTS.md).
#[allow(unsafe_code)]
impl Lanes for [u64; 4] {
    const W: usize = 4;
    type Split = Self;
    #[inline(always)]
    unsafe fn load(p: *const Limb) -> Self {
        p.cast::<Self>().read()
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut Limb) {
        p.cast::<Self>().write(self)
    }
    #[inline(always)]
    unsafe fn splat(v: u64) -> Self {
        [v; 4]
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        std::array::from_fn(|k| self[k] + b[k])
    }
    #[inline(always)]
    unsafe fn and(self, b: Self) -> Self {
        std::array::from_fn(|k| self[k] & b[k])
    }
    #[inline(always)]
    unsafe fn shr(self, n: u32) -> Self {
        self.map(|v| v >> n)
    }
    #[inline(always)]
    unsafe fn shl(self, n: u32) -> Self {
        self.map(|v| v << n)
    }
    #[inline(always)]
    unsafe fn split(self) -> Self {
        self
    }
    #[inline(always)]
    unsafe fn mac(acc: Self, a: Self, b: Self) -> (Self, Self) {
        let p: [u128; 4] = std::array::from_fn(|k| a[k] as u128 * b[k] as u128);
        (
            std::array::from_fn(|k| acc[k] + (p[k] as u64 & DIGIT_MASK)),
            p.map(|p| (p >> DIGIT_BITS) as u64),
        )
    }
    #[inline(always)]
    unsafe fn mul_lo(a: Self, b: Self) -> Self {
        std::array::from_fn(|k| a[k].wrapping_mul(b[k]) & DIGIT_MASK)
    }
    #[inline(always)]
    unsafe fn fits(self, bits: u32) -> bool {
        self.iter().all(|&v| v >> bits == 0)
    }
}

/// The AVX2 lanes: four per `__m256i`. AVX2 has no 52- or even 64-bit
/// multiplier, so each 52×52 product is assembled from three
/// `_mm256_mul_epu32` 32×32→64 multiplies over 26-bit halves
/// `a = a₀ + a₁·2²⁶`:
///
/// ```text
/// a·b = a₀b₀ + (a₀b₁ + a₁b₀)·2²⁶ + a₁b₁·2⁵²
///     = lo + hi·2⁵²    with  lo = a₀b₀ + (mid mod 2²⁶)·2²⁶ < 2⁵³
///                            hi = a₁b₁ + ⌊mid/2²⁶⌋
/// ```
///
/// `lo` is *redundant* (up to 53 bits), which the carry-save
/// accumulator absorbs; the headroom budget in DESIGN.md §9 covers it.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
impl Lanes for core::arch::x86_64::__m256i {
    const W: usize = 4;
    /// The 26-bit halves `(a₀, a₁)`.
    type Split = (Self, Self);
    #[inline(always)]
    unsafe fn load(p: *const Limb) -> Self {
        core::arch::x86_64::_mm256_loadu_si256(p.cast())
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut Limb) {
        core::arch::x86_64::_mm256_storeu_si256(p.cast(), self)
    }
    #[inline(always)]
    unsafe fn splat(v: u64) -> Self {
        core::arch::x86_64::_mm256_set1_epi64x(v as i64)
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        core::arch::x86_64::_mm256_add_epi64(self, b)
    }
    #[inline(always)]
    unsafe fn and(self, b: Self) -> Self {
        core::arch::x86_64::_mm256_and_si256(self, b)
    }
    #[inline(always)]
    unsafe fn shr(self, n: u32) -> Self {
        use core::arch::x86_64::*;
        _mm256_srl_epi64(self, _mm_cvtsi32_si128(n as i32))
    }
    #[inline(always)]
    unsafe fn shl(self, n: u32) -> Self {
        use core::arch::x86_64::*;
        _mm256_sll_epi64(self, _mm_cvtsi32_si128(n as i32))
    }
    #[inline(always)]
    unsafe fn split(self) -> (Self, Self) {
        (self.and(Self::splat((1 << 26) - 1)), self.shr(26))
    }
    #[inline(always)]
    unsafe fn mac(acc: Self, (a0, a1): (Self, Self), b: Self) -> (Self, Self) {
        use core::arch::x86_64::_mm256_mul_epu32 as mul;
        let (b0, b1) = b.split();
        let mid = mul(a0, b1).add(mul(a1, b0));
        let lo = mul(a0, b0).add(mid.and(Self::splat((1 << 26) - 1)).shl(26));
        (acc.add(lo), mul(a1, b1).add(mid.shr(26)))
    }
    /// `a₁ < 2²⁹` for `a < 2⁵⁵`, so its `mul_epu32` stays exact, and the
    /// `a₁b₁·2⁵²` term vanishes modulo 2⁵².
    #[inline(always)]
    unsafe fn mul_lo(a: Self, (b0, b1): (Self, Self)) -> Self {
        use core::arch::x86_64::_mm256_mul_epu32 as mul;
        let (a0, a1) = a.split();
        let q = mul(a0, b0).add(mul(a0, b1).add(mul(a1, b0)).shl(26));
        q.and(Self::splat(DIGIT_MASK))
    }
    #[inline(always)]
    unsafe fn fits(self, bits: u32) -> bool {
        let over = self.shr(bits);
        core::arch::x86_64::_mm256_testz_si256(over, over) == 1
    }
}

/// The IFMA lanes: eight per `__m512i`, one `vpmadd52luq` /
/// `vpmadd52huq` pair per product. Both read only the low 52 bits of
/// their multiplicands, which the normalization discipline guarantees
/// for `x`, `y`, `N` and `m`, and which makes `mul_lo` exact for any
/// `a`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
impl Lanes for core::arch::x86_64::__m512i {
    const W: usize = 8;
    type Split = Self;
    #[inline(always)]
    unsafe fn load(p: *const Limb) -> Self {
        core::arch::x86_64::_mm512_loadu_si512(p.cast())
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut Limb) {
        core::arch::x86_64::_mm512_storeu_si512(p.cast(), self)
    }
    #[inline(always)]
    unsafe fn splat(v: u64) -> Self {
        core::arch::x86_64::_mm512_set1_epi64(v as i64)
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        core::arch::x86_64::_mm512_add_epi64(self, b)
    }
    #[inline(always)]
    unsafe fn and(self, b: Self) -> Self {
        core::arch::x86_64::_mm512_and_si512(self, b)
    }
    #[inline(always)]
    unsafe fn shr(self, n: u32) -> Self {
        use core::arch::x86_64::*;
        _mm512_srl_epi64(self, _mm_cvtsi32_si128(n as i32))
    }
    #[inline(always)]
    unsafe fn shl(self, n: u32) -> Self {
        use core::arch::x86_64::*;
        _mm512_sll_epi64(self, _mm_cvtsi32_si128(n as i32))
    }
    #[inline(always)]
    unsafe fn split(self) -> Self {
        self
    }
    #[inline(always)]
    unsafe fn mac(acc: Self, a: Self, b: Self) -> (Self, Self) {
        use core::arch::x86_64::*;
        (
            _mm512_madd52lo_epu64(acc, a, b),
            _mm512_madd52hi_epu64(Self::splat(0), a, b),
        )
    }
    #[inline(always)]
    unsafe fn mul_lo(a: Self, b: Self) -> Self {
        core::arch::x86_64::_mm512_madd52lo_epu64(Self::splat(0), a, b)
    }
    #[inline(always)]
    unsafe fn fits(self, bits: u32) -> bool {
        let over = self.shr(bits);
        core::arch::x86_64::_mm512_test_epi64_mask(over, over) == 0
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

    #[test]
    #[allow(unsafe_code)]
    fn lane_ops_match_u128_arithmetic_on_every_kernel() {
        for &kernel in Cios52Kernel::available() {
            match kernel {
                // SAFETY: the portable lanes need no target feature.
                Cios52Kernel::Portable => unsafe { check_lanes::<[u64; 4]>("portable") },
                // SAFETY: `available` lists a kernel only on a host with
                // its target features.
                #[cfg(target_arch = "x86_64")]
                Cios52Kernel::Avx2 => unsafe { check_avx2() },
                // SAFETY: as above.
                #[cfg(target_arch = "x86_64")]
                Cios52Kernel::Ifma => unsafe { check_ifma() },
                #[cfg(not(target_arch = "x86_64"))]
                _ => unreachable!("SIMD kernels are x86-64 only"),
            }
        }
    }

    /// [`check_lanes`] compiled in the AVX2 kernel's target features.
    ///
    /// # Safety
    /// Requires `avx2` at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn check_avx2() {
        check_lanes::<core::arch::x86_64::__m256i>("avx2")
    }

    /// [`check_lanes`] compiled in the IFMA kernel's target features.
    ///
    /// # Safety
    /// Requires `avx512f` and `avx512ifma` at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[allow(unsafe_code)]
    unsafe fn check_ifma() {
        check_lanes::<core::arch::x86_64::__m512i>("ifma")
    }

    /// Checks one [`Lanes`] implementation against `u128` arithmetic:
    /// `mac` and `mul_lo` on every pair of edge digits and on random
    /// draws, `shr`/`shl` by every shift the scan makes, and `fits` at
    /// the carry budget's boundary. Inlined into the caller, so the ops
    /// compile with the caller's target features, as in [`scan`].
    ///
    /// # Safety
    /// As [`Lanes`]: the host must have `V`'s target features.
    #[inline(always)]
    #[allow(unsafe_code)]
    unsafe fn check_lanes<V: Lanes>(name: &str) {
        let mut rng = StdRng::seed_from_u64(709);
        let edges = [0, 1, (1 << 26) - 1, 1 << 26, 1 << 51, DIGIT_MASK];
        let acc_top = (1 << TRANSIENT_BITS) - (1 << 53);

        // mac: (acc + lo, hi) with lo + hi·2⁵² = a·b and lo < 2⁵³.
        let mut cases: Vec<[u64; 3]> = Vec::new();
        for a in edges {
            for b in edges {
                cases.extend([[a, b, 0], [a, b, acc_top]]);
            }
        }
        for _ in 0..1024 {
            let (a, b) = (rng.gen::<u64>() & DIGIT_MASK, rng.gen::<u64>() & DIGIT_MASK);
            cases.push([a, b, rng.gen_range(0, acc_top + 1)]);
        }
        for group in cases.chunks(V::W) {
            let [mut a, mut b, mut acc] = [[0u64; 8]; 3];
            for (k, &[ak, bk, ck]) in group.iter().enumerate() {
                (a[k], b[k], acc[k]) = (ak, bk, ck);
            }
            let (mut lo, mut hi) = ([0u64; 8], [0u64; 8]);
            let a_split = V::load(a.as_ptr()).split();
            let (l, h) = V::mac(V::load(acc.as_ptr()), a_split, V::load(b.as_ptr()));
            l.store(lo.as_mut_ptr());
            h.store(hi.as_mut_ptr());
            for k in 0..group.len() {
                let low = lo[k].wrapping_sub(acc[k]);
                assert!(low >> 53 == 0, "{name}: mac low half {low:#x}");
                assert_eq!(
                    low as u128 + ((hi[k] as u128) << DIGIT_BITS),
                    a[k] as u128 * b[k] as u128,
                    "{name}: mac {:#x} · {:#x} + {:#x}",
                    a[k],
                    b[k],
                    acc[k]
                );
            }
        }

        // mul_lo: a·b mod 2⁵² for a < 2⁵⁵ (t₀ with headroom), b < 2⁵².
        let wide = [0, 1, 1 << 26, DIGIT_MASK, 1 << 52, 1 << 54, (1 << 55) - 1];
        let mut cases: Vec<[u64; 2]> = Vec::new();
        for a in wide {
            for b in edges {
                cases.push([a, b]);
            }
        }
        for _ in 0..1024 {
            cases.push([rng.gen::<u64>() >> 9, rng.gen::<u64>() & DIGIT_MASK]);
        }
        for group in cases.chunks(V::W) {
            let [mut a, mut b, mut got] = [[0u64; 8]; 3];
            for (k, &[ak, bk]) in group.iter().enumerate() {
                (a[k], b[k]) = (ak, bk);
            }
            V::mul_lo(V::load(a.as_ptr()), V::load(b.as_ptr()).split()).store(got.as_mut_ptr());
            for k in 0..group.len() {
                let want = (a[k] as u128 * b[k] as u128) as u64 & DIGIT_MASK;
                assert_eq!(got[k], want, "{name}: mul_lo {:#x} · {:#x}", a[k], b[k]);
            }
        }

        // shr/shl by every shift up to the budget's (the partial step
        // shifts by each rem in 1..52).
        let v: [u64; 8] = std::array::from_fn(|_| rng.gen());
        for n in 0..=TRANSIENT_BITS {
            let ([mut r, mut l], x) = ([[0u64; 8]; 2], V::load(v.as_ptr()));
            x.shr(n).store(r.as_mut_ptr());
            x.shl(n).store(l.as_mut_ptr());
            for k in 0..V::W {
                assert_eq!(r[k], v[k] >> n, "{name}: shr {n}");
                assert_eq!(l[k], v[k] << n, "{name}: shl {n}");
            }
        }

        // fits at the 2⁵⁵ boundary and at 0, one lane over at a time.
        for (bits, max) in [(TRANSIENT_BITS, (1 << TRANSIENT_BITS) - 1), (0, 0)] {
            assert!(V::splat(max).fits(bits), "{name}: fits({bits})");
            for k in 0..V::W {
                let mut over = [max; 8];
                over[k] = max + 1;
                assert!(
                    !V::load(over.as_ptr()).fits(bits),
                    "{name}: fits({bits}) lane {k}"
                );
            }
        }
    }
}
