//! Proof that every batch engine's hot path is allocation-free once
//! warm: a counting global allocator wraps the system allocator, and
//! after two warm-up batches (which size the lane state and the
//! reusable output buffers) further `mont_mul_batch_into` calls must
//! perform **zero** heap operations — on the bit-sliced engine, the
//! radix-2⁶⁴ CIOS engine (both its per-lane and its SoA path), and the
//! radix-2⁵² carry-save engine alike.
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
use montgomery_systolic::core::cios52::Cios52Batch;
use montgomery_systolic::core::modgen::{random_operand, random_safe_params};
use montgomery_systolic::core::montgomery::mont_mul_alg2;
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
    println!("alloc_free: ok (all three engines' warm hot paths performed zero heap ops)");
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

    // Same discipline for the radix-2^64 CIOS batch engine, on both of
    // its paths: batches of up to 32 lanes (its per-lane bound) run one
    // scalar scan per lane, wider ones the 64-lane SoA kernel. The
    // window alternates 1-, 3-, 32- and 64-lane squaring chains on one
    // engine. Each chain ping-pongs its own pair of output buffers,
    // since shrinking a Vec<Ubig> would drop its lanes' limb buffers.
    let mut cios = CiosBatch::new(params.clone());
    let mut chains: Vec<(Vec<Ubig>, Vec<Ubig>)> = [1usize, 3, 32, 64]
        .iter()
        .map(|&lanes| {
            let (mut ca, mut cb) = (Vec::new(), Vec::new());
            cios.mont_mul_batch_into(&xs[..lanes], &ys[..lanes], &mut ca);
            cios.mont_mul_batch_into(&ca, &ca, &mut cb);
            (cb, ca)
        })
        .collect();

    let before = HEAP_OPS.load(Ordering::SeqCst);
    for _ in 0..8 {
        for (ca, cb) in chains.iter_mut() {
            cios.mont_mul_batch_into(ca, ca, cb);
            std::mem::swap(ca, cb);
        }
    }
    let after = HEAP_OPS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "warm CIOS mont_mul_batch_into must not touch the heap on either path"
    );
    for (ca, _) in &chains {
        assert_eq!(
            ca[..],
            a[..ca.len()],
            "{}-lane CIOS squaring chain bit-identical to bit-sliced",
            ca.len()
        );
    }

    // And for the radix-2^52 carry-save engine (whichever kernel is
    // active on this host): the digit-domain conversions run through
    // the engine-owned word/digit SoA scratch buffers, so the warm
    // path must be heap-free too. Note Cios52Kernel::available() has
    // already been forced by construction, so the OnceLock init (one
    // Vec) happens before the measurement window.
    let mut c52 = Cios52Batch::new(params.clone());
    let mut fa: Vec<Ubig> = Vec::new();
    let mut fb: Vec<Ubig> = Vec::new();
    c52.mont_mul_batch_into(&xs, &ys, &mut fa);
    c52.mont_mul_batch_into(&fa, &fa, &mut fb);
    std::mem::swap(&mut fa, &mut fb);

    let before = HEAP_OPS.load(Ordering::SeqCst);
    for _ in 0..8 {
        c52.mont_mul_batch_into(&fa, &fa, &mut fb);
        std::mem::swap(&mut fa, &mut fb);
    }
    let after = HEAP_OPS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "warm Cios52 mont_mul_batch_into must not touch the heap"
    );
    assert_eq!(fa, a, "Cios52 squaring chain bit-identical to bit-sliced");
}
