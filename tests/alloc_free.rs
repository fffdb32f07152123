//! Proof that every batch engine's hot path is allocation-free once
//! warm: a counting global allocator wraps the system allocator, and
//! after two warm-up batches (which size the lane state and the
//! reusable output buffers) further `mont_mul_batch_into` calls must
//! perform **zero** heap operations — on the bit-sliced engine, the
//! radix-2⁶⁴ CIOS engine and the radix-2⁵² carry-save engine on every
//! kernel alike, on both the per-lane path and the 64-lane kernels of
//! the two CIOS engines. The rows entry (`try_mont_mul_rows`) is held
//! to the same bar on every engine, on every radix-2⁵² kernel, through
//! a pooled engine and behind a `VerifiedEngine`, and neither a
//! batched ECC scan's window loop nor the RSA scan's may allocate at
//! all.
//!
//! Runs with `harness = false` (see the `[[test]]` entry in
//! `Cargo.toml`): the libtest harness keeps its main thread alive
//! alongside the test thread and occasionally allocates from it
//! mid-window (observed as rare 2-op flakes), so this binary is a
//! plain single-threaded `main` — the only thread that can touch the
//! heap during a measurement window is the one being measured.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::batch::BitSlicedBatch;
use montgomery_systolic::core::cios::CiosBatch;
use montgomery_systolic::core::cios52::{Cios52Batch, Cios52Kernel};
use montgomery_systolic::core::modgen::{random_operand, random_safe_params};
use montgomery_systolic::core::montgomery::{mont_mul_alg2, MontgomeryParams};
use montgomery_systolic::core::rows::{row_count, ROW_LANES};
use montgomery_systolic::core::{
    pool, BatchModExp, BatchMontMul, EngineConfig, EngineKind, HardeningMode, ScalarSet,
    VerifiedEngine, VerifyPolicy, WindowPolicy,
};
use montgomery_systolic::ecc::batch_curve::{BatchCurve, PointLanes};
use montgomery_systolic::ecc::batch_field::BatchFieldCtx;
use montgomery_systolic::ecc::curve::Point;
use montgomery_systolic::ecc::curves::p256;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator with a global operation counter (allocations and
/// reallocations; frees are not counted — a free on the hot path
/// implies a matching allocation elsewhere anyway).
struct CountingAlloc;

static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    warm_batch_multiplication_does_not_allocate();
    warm_rows_multiplication_does_not_allocate();
    ecc_scan_window_loop_does_not_allocate();
    modexp_scan_window_loop_does_not_allocate();
    println!("alloc_free: ok (warm engine calls, rows calls and the ECC and RSA window loops performed zero heap ops)");
}

/// Heap operations performed by `f`.
fn heap_ops(f: impl FnOnce()) -> u64 {
    let before = HEAP_OPS.load(Ordering::SeqCst);
    f();
    HEAP_OPS.load(Ordering::SeqCst) - before
}

/// Warm rows-entry squaring chains at 1, 3, 32, 33 and 64 live lanes
/// (both sides of the CIOS per-lane bound) make zero heap operations
/// on `CiosBatch`, on `Cios52Batch` with every kernel, on
/// `BitSlicedBatch`, through a pooled engine, and behind a
/// `VerifiedEngine` with checking off over pooled engines, whose
/// forwarding must bypass the allocating default rows adapter. Each
/// chain's results stay equal to Algorithm 2.
fn warm_rows_multiplication_does_not_allocate() {
    let mut rng = StdRng::seed_from_u64(0xA110D);
    let params = random_safe_params(&mut rng, 256);
    let rows = row_count(&params);
    let xs: Vec<Ubig> = (0..64).map(|_| random_operand(&mut rng, &params)).collect();
    let mut start = vec![0u64; rows * ROW_LANES];
    for (k, x) in xs.iter().enumerate() {
        for (j, &limb) in x.limbs().iter().enumerate() {
            start[j * ROW_LANES + k] = limb;
        }
    }
    let mut engines: Vec<(String, Box<dyn BatchMontMul>)> = vec![(
        "cios".into(),
        Box::new(CiosBatch::new(params.clone())) as Box<dyn BatchMontMul>,
    )];
    for &kernel in Cios52Kernel::available() {
        engines.push((
            format!("cios52/{}", kernel.name()),
            Box::new(Cios52Batch::with_kernel(params.clone(), kernel)),
        ));
    }
    engines.push((
        "bitsliced".into(),
        Box::new(BitSlicedBatch::new(params.clone())),
    ));
    let ctx = EngineConfig::default()
        .with_verify(VerifyPolicy::Off)
        .verify_context();
    for kind in [EngineKind::Cios, EngineKind::Cios52] {
        engines.push((
            format!("pooled {}", kind.name()),
            Box::new(pool::global().checkout_kind(&params, kind)),
        ));
        let pooled = pool::global().checkout_kind(&params, kind);
        engines.push((
            format!("verified pooled {}", kind.name()),
            Box::new(VerifiedEngine::new(pooled, kind, ctx.clone())),
        ));
    }
    for (name, engine) in engines.iter_mut() {
        for lanes in [1usize, 3, 32, 33, 64] {
            let (mut a, mut b) = (start.clone(), vec![0u64; rows * ROW_LANES]);
            let mut square = |a: &mut Vec<u64>, b: &mut Vec<u64>| {
                engine.try_mont_mul_rows(a, a, lanes, b).unwrap();
                std::mem::swap(a, b);
            };
            square(&mut a, &mut b);
            let ops = heap_ops(|| {
                for _ in 0..8 {
                    square(&mut a, &mut b);
                }
            });
            assert_eq!(
                ops, 0,
                "warm {name} rows calls at {lanes} lanes must not touch the heap"
            );
            for (k, x) in xs.iter().enumerate().take(lanes) {
                let mut want = x.clone();
                for _ in 0..9 {
                    want = mont_mul_alg2(&params, &want, &want);
                }
                let got = Ubig::from_limbs((0..rows).map(|j| a[j * ROW_LANES + k]).collect());
                assert_eq!(got, want, "{name} at {lanes} lanes, lane {k}");
            }
        }
    }
}

/// A 64-lane P-256 joint scan (ECDSA verify's `[u1]G + [u2]Q`, G at one
/// lane) at a forced w = 5 makes exactly as many heap operations with
/// 128-bit scalars as with 256-bit ones: the per-scan conversions and
/// window tables cost the same either way, so the window loop, which
/// runs twice as long at 256 bits, never allocates.
fn ecc_scan_window_loop_does_not_allocate() {
    let spec = p256();
    let params = MontgomeryParams::hardware_safe(&spec.p);
    let mut f = BatchFieldCtx::new(CiosBatch::new(params));
    let curve = BatchCurve::try_new(&mut f, &spec.a, &spec.b).unwrap();
    let m = f.to_mont(&[spec.gx.clone(), spec.gy.clone(), Ubig::one()]);
    let g = Point {
        x: m[0].clone(),
        y: m[1].clone(),
        z: m[2].clone(),
    };
    let ds: Vec<Ubig> = (2..66u64).map(Ubig::from).collect();
    let q = curve.scalar_mul(&mut f, &ds, &PointLanes::splat(&g, 64), None);
    let g1 = PointLanes::splat(&g, 1);
    let mut rng = StdRng::seed_from_u64(0xA110E);
    let mut scalars = |bits: usize| -> Vec<Ubig> {
        (0..64)
            .map(|_| {
                let mut k = Ubig::random_bits(&mut rng, bits);
                k.set_bit(bits - 1, true);
                k
            })
            .collect()
    };
    let (u1_128, u2_128, u1_256, u2_256) = (scalars(128), scalars(128), scalars(256), scalars(256));
    let mut scan = |u1: &[Ubig], u2: &[Ubig]| {
        heap_ops(|| {
            std::hint::black_box(curve.joint_scalar_mul(&mut f, u1, &g1, u2, &q, Some(5)));
        })
    };
    scan(&u1_256, &u2_256);
    let short = scan(&u1_128, &u2_128);
    let long = scan(&u1_256, &u2_256);
    assert_eq!(
        short, long,
        "a joint scan's heap operations must not grow with its window count"
    );
}

/// The RSA scan's window loop never allocates: `try_modexp` behind a
/// `VerifiedEngine` with checking off, as the CRT halves run it, makes
/// exactly as many heap operations with a 256-bit as with a 512-bit
/// shared exponent at a fixed w = 4. The load, the table and the store
/// cost the same either way; the loop runs twice as long at 512 bits.
/// At 1 and 64 lanes, plain and hardened (the masked gather), on
/// `CiosBatch` and `Cios52Batch`.
fn modexp_scan_window_loop_does_not_allocate() {
    let mut rng = StdRng::seed_from_u64(0xA110F);
    let params = random_safe_params(&mut rng, 512);
    let mut exponent = |bits: usize| {
        let mut e = Ubig::random_bits(&mut rng, bits);
        e.set_bit(bits - 1, true);
        e
    };
    let (short, long) = (exponent(256), exponent(512));
    let ms: Vec<Ubig> = (0..64)
        .map(|_| Ubig::random_below(&mut rng, params.n()))
        .collect();
    let ctx = EngineConfig::default()
        .with_verify(VerifyPolicy::Off)
        .verify_context();
    for kind in [EngineKind::Cios, EngineKind::Cios52] {
        for mode in [HardeningMode::Off, HardeningMode::Hardened] {
            let mut inner = kind.build(params.clone());
            inner.set_hardening(mode);
            let mut me = BatchModExp::new(VerifiedEngine::new(inner, kind, ctx.clone()));
            for lanes in [1usize, 64] {
                let mut scan = |e: &Ubig| -> u64 {
                    let mut got = Vec::new();
                    let ops = heap_ops(|| {
                        got = me
                            .try_modexp(&ms[..lanes], ScalarSet::Shared(e), WindowPolicy::Fixed(4))
                            .unwrap();
                    });
                    assert_eq!(got[0], ms[0].modpow(e, params.n()), "{}", kind.name());
                    ops
                };
                scan(&long);
                let (at_256, at_512) = (scan(&short), scan(&long));
                assert_eq!(
                    at_256,
                    at_512,
                    "{} {mode:?} at {lanes} lanes: the scan's heap operations must not grow with its window count",
                    kind.name()
                );
            }
        }
    }
}

fn warm_batch_multiplication_does_not_allocate() {
    // l = 70 puts the l + 2 position vectors across a u64 word
    // boundary, so the transpose handles a ragged final block.
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let params = random_safe_params(&mut rng, 70);
    let xs: Vec<Ubig> = (0..64).map(|_| random_operand(&mut rng, &params)).collect();
    let ys: Vec<Ubig> = (0..64).map(|_| random_operand(&mut rng, &params)).collect();

    let mut engine = BitSlicedBatch::new(params.clone());
    let mut a: Vec<Ubig> = Vec::new();
    let mut b: Vec<Ubig> = Vec::new();

    // Warm-up: the first calls size the output buffers (and give each
    // lane its full limb capacity even after normalization shrank it).
    engine.mont_mul_batch_into(&xs, &ys, &mut a);
    engine.mont_mul_batch_into(&a, &a, &mut b);
    std::mem::swap(&mut a, &mut b);

    // Measurement window: results feed back as operands (Algorithm 2
    // outputs are valid inputs), ping-ponging between two buffers.
    let before = HEAP_OPS.load(Ordering::SeqCst);
    for _ in 0..8 {
        engine.mont_mul_batch_into(&a, &a, &mut b);
        std::mem::swap(&mut a, &mut b);
    }
    let after = HEAP_OPS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "warm mont_mul_batch_into must not touch the heap"
    );

    // And the values coming out of the measured window are still
    // correct (same squaring chain on the software oracle).
    let mut want: Vec<Ubig> = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| mont_mul_alg2(&params, x, y))
        .collect();
    want = want.iter().map(|v| mont_mul_alg2(&params, v, v)).collect();
    for _ in 0..8 {
        want = want.iter().map(|v| mont_mul_alg2(&params, v, v)).collect();
    }
    assert_eq!(a, want, "hot-path results must stay bit-identical");

    // Same discipline for the radix-2^64 CIOS batch engine and the
    // radix-2^52 engine on every kernel, on both of their paths: batches
    // of up to 32 lanes (the per-lane bound) run one scalar scan per
    // lane, wider ones the 64-lane kernel. The window alternates 1-, 3-,
    // 32-, 33- and 64-lane squaring chains on one engine. Each chain
    // ping-pongs its own pair of output buffers, since shrinking a
    // Vec<Ubig> would drop its lanes' limb buffers. The radix-2^52
    // digit conversions run through engine-owned scratch, and
    // Cios52Kernel::available() has been forced (one Vec) by
    // construction, before any measurement window.
    let mut engines: Vec<(String, Box<dyn BatchMontMul>)> = vec![(
        "cios".into(),
        Box::new(CiosBatch::new(params.clone())) as Box<dyn BatchMontMul>,
    )];
    for &kernel in Cios52Kernel::available() {
        engines.push((
            format!("cios52/{}", kernel.name()),
            Box::new(Cios52Batch::with_kernel(params.clone(), kernel)),
        ));
    }
    for (name, engine) in engines.iter_mut() {
        let mut chains: Vec<(Vec<Ubig>, Vec<Ubig>)> = [1usize, 3, 32, 33, 64]
            .iter()
            .map(|&lanes| {
                let (mut ca, mut cb) = (Vec::new(), Vec::new());
                engine.mont_mul_batch_into(&xs[..lanes], &ys[..lanes], &mut ca);
                engine.mont_mul_batch_into(&ca, &ca, &mut cb);
                (cb, ca)
            })
            .collect();
        let ops = heap_ops(|| {
            for _ in 0..8 {
                for (ca, cb) in chains.iter_mut() {
                    engine.mont_mul_batch_into(ca, ca, cb);
                    std::mem::swap(ca, cb);
                }
            }
        });
        assert_eq!(
            ops, 0,
            "warm {name} mont_mul_batch_into must not touch the heap on either path"
        );
        for (ca, _) in &chains {
            assert_eq!(
                ca[..],
                a[..ca.len()],
                "{}-lane {name} squaring chain bit-identical to bit-sliced",
                ca.len()
            );
        }
    }
}
