//! The traced run's layer probes. Each layer's public functions are
//! called on the workload's inputs, each call inside a span that names
//! its parent (see [`crate::trace`] for how an opaque public call is
//! decomposed), and kernel calls are counted and timed through
//! [`Counting`]. Probes check every answer they compute.

use crate::counting::Counting;
use crate::inputs::{operand_rng, EcdsaInputs, RsaInputs};
use crate::report::{Metric, Report};
use crate::stats::median;
use crate::trace::{self, Trace};
use mmm_bigint::transpose::{lanes_to_limbs_into, limbs_to_lanes_into};
use mmm_bigint::Ubig;
use mmm_core::cost::multiplication_count;
use mmm_core::expo_batch::BatchExpoStats;
use mmm_core::expo_window::expected_fixed_window_muls;
use mmm_core::modgen::random_operand;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::pool::{self, EnginePool};
use mmm_core::{
    BatchModExp, BatchMontMul, EngineConfig, EngineKind, MmmError, VerifiedEngine, WindowPolicy,
};
use mmm_ecc::{
    BatchCurve, BatchFieldCtx, CurveSession, CurveSpec, EcdsaRequest, Point, PointLanes,
};
use mmm_rsa::cipher::garner;
use mmm_rsa::KeyedSession;
use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repetitions of each traced call; metrics are medians over them.
pub const REPS: usize = 7;
/// Plain/instrumented pairs behind `trace.overhead_share`.
pub const AB_PAIRS: usize = 9;
const LANES: [usize; 2] = [1, 64];
/// Micro-benchmark shape: median over `BLOCKS` blocks of `BLOCK` each.
const BLOCKS: usize = 9;
const BLOCK: Duration = Duration::from_millis(4);

fn lanes_name(base: &'static str, lanes: usize) -> &'static str {
    match (base, lanes) {
        ("server.decrypt_crt", 1) => "server.decrypt_crt.lanes1",
        ("server.decrypt_crt", _) => "server.decrypt_crt.lanes64",
        _ => base,
    }
}

/// Median ns per call of `f` (one untimed warm-up call first).
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let per: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            while start.elapsed() < BLOCK {
                f();
                calls += 1;
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per)
}

fn median_of(ids: &[usize], f: impl Fn(usize) -> f64) -> f64 {
    median(&ids.iter().map(|&id| f(id)).collect::<Vec<_>>())
}

fn ms(spans: &[trace::Span], id: usize) -> f64 {
    spans[id].duration_ns() as f64 / 1e6
}

/// What the RSA probes leave for the serve-layer metrics.
#[derive(Debug, Clone, Copy)]
pub struct DecryptTimes {
    pub lanes1_ms: f64,
    pub lanes64_ms: f64,
}

/// Server, CRT, scan and pool layers on the RSA inputs.
pub fn rsa(
    report: &mut Report,
    trace: &Trace,
    inputs: &RsaInputs,
) -> Result<DecryptTimes, MmmError> {
    let config = &EngineConfig::default();
    let key = &inputs.key;
    let session = KeyedSession::new(key.clone(), config.clone())?;
    let pool = pool::try_global()?;
    let halves = [
        (pool.params_for(&key.p), &key.dp),
        (pool.params_for(&key.q), &key.dq),
    ];
    let mut roots = [Vec::new(), Vec::new()];
    let mut half_ids = [Vec::new(), Vec::new()];
    let (mut residue_ids, mut garner_ids, mut p_half_ids) = (Vec::new(), Vec::new(), Vec::new());
    let mut scan: Vec<BatchExpoStats> = Vec::new();
    for (slot, &lanes) in LANES.iter().enumerate() {
        let cs = &inputs.cipher[..lanes];
        let ms_want = &inputs.plain[..lanes];
        session.decrypt_crt(cs)?;
        for _ in 0..REPS {
            let (root, got) = trace.time(lanes_name("server.decrypt_crt", lanes), None, || {
                session.decrypt_crt(cs)
            });
            if got? != ms_want {
                report.wrong += 1;
            }
            roots[slot].push(root);
            // The two CRT halves, concurrently, the way the program
            // runs them, each on a pooled engine behind the counter.
            let outs: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = halves
                    .iter()
                    .map(|(params, d)| {
                        s.spawn(move || crt_half(trace, root, pool, params, d, cs, config))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a CRT half probe panicked"))
                    .collect()
            });
            let [(mps, p_stats, p_ids), (mqs, _, q_ids)]: [_; 2] =
                outs.try_into().expect("two halves");
            let (garner_id, got) = trace.time("crt.garner", Some(root), || {
                mps.iter()
                    .zip(&mqs)
                    .map(|(mp, mq)| garner(key, mp, mq))
                    .collect::<Vec<_>>()
            });
            if got != ms_want {
                report.wrong += 1;
            }
            half_ids[slot].extend([p_ids.1, q_ids.1]);
            if lanes == 64 {
                residue_ids.extend([p_ids.0, q_ids.0]);
                garner_ids.push(garner_id);
                p_half_ids.push(p_ids.1);
                scan.push(p_stats);
            }
        }
    }
    let spans = trace.spans();
    let times = DecryptTimes {
        lanes1_ms: median_of(&roots[0], |id| ms(&spans, id)),
        lanes64_ms: median_of(&roots[1], |id| ms(&spans, id)),
    };
    report.push(Metric::new(
        "server.decrypt_crt_ms.lanes1",
        times.lanes1_ms,
        "ms",
        REPS,
    ));
    report.push(Metric::new(
        "server.decrypt_crt_ms.lanes64",
        times.lanes64_ms,
        "ms",
        REPS,
    ));
    for (name, ids) in [
        ("crt.half_ms.lanes1", &half_ids[0]),
        ("crt.half_ms.lanes64", &half_ids[1]),
    ] {
        report.push(Metric::new(
            name,
            median_of(ids, |id| ms(&spans, id)),
            "ms",
            ids.len(),
        ));
    }
    let per_lane_us = |id: usize| spans[id].duration_ns() as f64 / 64.0 / 1e3;
    report.push(Metric::new(
        "crt.residue_us_per_lane",
        median_of(&residue_ids, per_lane_us),
        "us",
        residue_ids.len(),
    ));
    report.push(Metric::new(
        "crt.garner_us_per_lane",
        median_of(&garner_ids, per_lane_us),
        "us",
        garner_ids.len(),
    ));
    let share = median_of(&roots[1], |id| trace::unattributed_share(&spans, id));
    report.push_share("crt.unattributed_share", share, REPS);
    scan_counts(report, &scan, &key.dp);
    let kernel_share = median_of(&p_half_ids, |id| {
        spans[id].kernel_ns as f64 / spans[id].duration_ns() as f64
    });
    report.push(Metric::new(
        "scan.kernel_share",
        kernel_share,
        "share",
        p_half_ids.len(),
    ));
    Ok(times)
}

/// One CRT half as the program runs it: residues, a pooled engine, the
/// shared-exponent windowed scan. Returns the half's results, its scan
/// statistics and the (residue, half) span ids.
fn crt_half(
    trace: &Trace,
    root: usize,
    pool: &EnginePool,
    params: &MontgomeryParams,
    d: &Ubig,
    cs: &[Ubig],
    config: &EngineConfig,
) -> (Vec<Ubig>, BatchExpoStats, (usize, usize)) {
    let (residue_id, residues) = trace.time("crt.residue", Some(root), || {
        cs.iter().map(|c| c.rem(params.n())).collect::<Vec<_>>()
    });
    let (_, mut engine) = trace.time("pool.checkout", Some(root), || {
        pool.checkout_kind(params, config.backend())
    });
    engine.set_hardening(config.hardening());
    let id = trace.open("crt.half", Some(root));
    let (half, me) = modexp_half(Counting::new(engine), &residues, d, config);
    let k = me.engine().inner();
    trace.close(id, k.calls(), k.busy_ns());
    (half, me.stats(), (residue_id, id))
}

/// The shared-exponent windowed scan of one CRT half on `engine`,
/// behind the verification layer, as `decrypt_crt` runs it.
fn modexp_half<E: BatchMontMul>(
    engine: E,
    residues: &[Ubig],
    d: &Ubig,
    config: &EngineConfig,
) -> (Vec<Ubig>, BatchModExp<VerifiedEngine<E>>) {
    let mut me = BatchModExp::new(VerifiedEngine::new(
        engine,
        config.backend(),
        config.verify_context(),
    ));
    let half = match config.window() {
        WindowPolicy::Auto => me.modexp_batch_shared_auto(residues, d),
        WindowPolicy::Fixed(w) => me.modexp_batch_shared_windowed(residues, d, w),
    };
    (half, me)
}

/// Paired runs of one call without and with the benchmark's
/// instrumentation, alternating which goes first; returns the median
/// of the per-pair ratios instrumented ÷ plain, minus one.
fn overhead_share(
    mut plain: impl FnMut() -> Result<(), MmmError>,
    mut instrumented: impl FnMut() -> Result<(), MmmError>,
) -> Result<f64, MmmError> {
    let timed = |f: &mut dyn FnMut() -> Result<(), MmmError>| {
        let start = Instant::now();
        f().map(|()| start.elapsed().as_nanos() as f64)
    };
    let mut ratios = Vec::with_capacity(AB_PAIRS);
    for i in 0..AB_PAIRS {
        let (p, t) = if i % 2 == 0 {
            let p = timed(&mut plain)?;
            (p, timed(&mut instrumented)?)
        } else {
            let t = timed(&mut instrumented)?;
            (timed(&mut plain)?, t)
        };
        ratios.push(t / p);
    }
    Ok(median(&ratios) - 1.0)
}

/// The instrumentation overhead of the CRT probes: the 64-lane mod-p
/// half on a bare pooled engine against the same half inside a span on
/// the counting wrapper (recorded to a scratch trace). Both are checked
/// against the plaintexts mod p.
pub fn crt_overhead(report: &mut Report, inputs: &RsaInputs) -> Result<f64, MmmError> {
    let config = &EngineConfig::default();
    let trace = Trace::new();
    let key = &inputs.key;
    let pool = pool::try_global()?;
    let params = pool.params_for(&key.p);
    let residues: Vec<Ubig> = inputs.cipher[..64]
        .iter()
        .map(|c| c.rem(params.n()))
        .collect();
    let want: Vec<Ubig> = inputs.plain[..64]
        .iter()
        .map(|m| m.rem(params.n()))
        .collect();
    let checkout = || {
        pool.try_checkout_kind(&params, config.backend())
            .map(|mut engine| {
                engine.set_hardening(config.hardening());
                engine
            })
    };
    let wrong = Cell::new(0u64);
    let check = |half: &[Ubig]| wrong.set(wrong.get() + u64::from(half != want));
    let overhead = overhead_share(
        || {
            check(&modexp_half(checkout()?, &residues, &key.dp, config).0);
            Ok(())
        },
        || {
            let id = trace.open("crt.half", None);
            let (half, me) = modexp_half(Counting::new(checkout()?), &residues, &key.dp, config);
            let k = me.engine().inner();
            trace.close(id, k.calls(), k.busy_ns());
            check(&half);
            Ok(())
        },
    )?;
    report.wrong += wrong.get();
    Ok(overhead)
}

/// The scan's exact counts for the mod-p half at 64 lanes, checked
/// against the §6 cost model and printed beside the paper's
/// Algorithm-3 count. The window is the one the scan used, read from
/// its own table size: a table of `M̄⁰..M̄^(2^w−1)` takes `2^w − 2`
/// multiplications to build.
fn scan_counts(report: &mut Report, runs: &[BatchExpoStats], dp: &Ubig) {
    let s = runs[0];
    if runs.iter().any(|r| *r != s) {
        report.fail_check("scan counts differ between repetitions of the same input");
    }
    let t = dp.bit_len();
    let window = (s.table_muls + 2).ilog2() as usize;
    if (1u64 << window) - 2 != s.table_muls {
        report.fail_check(format!(
            "scan.table_muls {} is not 2^w - 2 for any window w",
            s.table_muls
        ));
    }
    let model = expected_fixed_window_muls(t, window) as u64;
    let batch = s.total_batch_muls;
    if batch + s.skipped_multiplications != model {
        report.fail_check(format!(
            "scan count identity violated: batch_muls {batch} + skipped_muls {} != model_muls {model}",
            s.skipped_multiplications
        ));
    }
    let count = |name, v: u64| Metric::new(name, v as f64, "count", runs.len());
    report.push(
        count("scan.window", window as u64)
            .note(format!("from table_muls = 2^w - 2; d_p has {t} bits")),
    );
    report.push(count("scan.squarings", s.squarings));
    report.push(count("scan.multiplications", s.multiplications));
    report.push(count("scan.table_muls", s.table_muls));
    report.push(count("scan.skipped_muls", s.skipped_multiplications));
    report.push(count("scan.batch_muls", batch).note("batch_muls + skipped_muls = model_muls"));
    report.push(count("scan.model_muls", model).note("expected_fixed_window_muls"));
    report.push(count("scan.paper_muls", multiplication_count(dp)).note("Algorithm 3"));
}

/// Kernel ns per lane-multiplication (64 lanes) and µs per 1-lane call,
/// plus the 64-lane transposes, at the RSA half width and at P-256.
pub fn kernels(report: &mut Report, l512: &MontgomeryParams, l256: &MontgomeryParams, seed: u64) {
    let mut rng = operand_rng(seed);
    let mut call_ns = |params: &MontgomeryParams, kind: EngineKind, lanes: usize| -> f64 {
        let mut engine = pool::global().checkout_kind(params, kind);
        let xs: Vec<Ubig> = (0..lanes)
            .map(|_| random_operand(&mut rng, params))
            .collect();
        let ys: Vec<Ubig> = (0..lanes)
            .map(|_| random_operand(&mut rng, params))
            .collect();
        let mut out = Vec::new();
        ns_per_call(|| {
            engine.mont_mul_batch_into(black_box(&xs), black_box(&ys), &mut out);
            black_box(&out);
        })
    };
    let cios = EngineConfig::default().backend();
    let rows = [
        (
            "kernel.mont_mul_ns.l512",
            call_ns(l512, cios, 64) / 64.0,
            "ns",
        ),
        (
            "kernel.mont_mul_ns.l256",
            call_ns(l256, cios, 64) / 64.0,
            "ns",
        ),
        (
            "kernel.call_us.l512.lanes1",
            call_ns(l512, cios, 1) / 1e3,
            "us",
        ),
        (
            "kernel.cios52.mont_mul_ns.l512",
            call_ns(l512, EngineKind::Cios52, 64) / 64.0,
            "ns",
        ),
        (
            "kernel.cios52.mont_mul_ns.l256",
            call_ns(l256, EngineKind::Cios52, 64) / 64.0,
            "ns",
        ),
    ];
    for (name, value, unit) in rows {
        report.push(Metric::new(name, value, unit, BLOCKS));
    }
    for (params, to_name, from_name) in [
        (
            l512,
            "transpose.to_limbs_ns.l512",
            "transpose.from_limbs_ns.l512",
        ),
        (
            l256,
            "transpose.to_limbs_ns.l256",
            "transpose.from_limbs_ns.l256",
        ),
    ] {
        let limbs = (params.l() + 2).div_ceil(64);
        let values: Vec<Ubig> = (0..64).map(|_| random_operand(&mut rng, params)).collect();
        let mut soa = Vec::new();
        let mut back = Vec::new();
        let to = ns_per_call(|| lanes_to_limbs_into(black_box(&values), limbs, 64, &mut soa));
        let from = ns_per_call(|| limbs_to_lanes_into(black_box(&soa), limbs, 64, 64, &mut back));
        if back != values {
            report.wrong += 1;
        }
        report.push(Metric::new(to_name, to, "ns", BLOCKS));
        report.push(Metric::new(from_name, from, "ns", BLOCKS));
    }
}

/// Warm `pool.checkout` spans recorded by the RSA and ECC probes.
pub fn pool_checkout(report: &mut Report, trace: &Trace) {
    let spans = trace.spans();
    let ns: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "pool.checkout")
        .map(|s| s.duration_ns() as f64)
        .collect();
    report.push(Metric::new("pool.checkout_ns", median(&ns), "ns", ns.len()));
}

/// `verify_ecdsa`'s per-request host work: curve checks and the scalar
/// precomputation `w = s⁻¹`, `u1 = z·w`, `u2 = r·w`.
fn prepare(session: &CurveSession, reqs: &[EcdsaRequest]) -> Vec<(bool, Ubig, Ubig)> {
    let spec = session.spec();
    let n = &spec.order;
    reqs.iter()
        .map(|req| {
            let on_curve = spec.on_curve(&req.qx, &req.qy);
            let in_range = !req.r.is_zero() && req.r < *n && !req.s.is_zero() && req.s < *n;
            match (on_curve && in_range, req.s.modinv(n)) {
                (true, Some(w)) => (true, req.z.rem(n).modmul(&w, n), req.r.modmul(&w, n)),
                _ => (false, Ubig::one(), Ubig::one()),
            }
        })
        .collect()
}

type Field = BatchFieldCtx<Counting<pool::PooledEngine>>;

/// What one 64-lane verify shard computed, kept for the verdict check
/// and the micro-benchmarks that follow.
struct Shard<E: BatchMontMul> {
    f: BatchFieldCtx<E>,
    curve: BatchCurve,
    r1: PointLanes,
    r2: PointLanes,
    sum: PointLanes,
    verdicts: Vec<bool>,
}

/// One 64-lane verify shard through the public layers `verify_ecdsa`
/// builds it from, in the same order. `step(Some(name), f)` is called
/// as each step starts and `step(None, f)` after the last one.
fn verify_shard<E: BatchMontMul>(
    engine: E,
    spec: &CurveSpec,
    reqs: &[EcdsaRequest],
    prepared: &[(bool, Ubig, Ubig)],
    mut step: impl FnMut(Option<&'static str>, &BatchFieldCtx<E>),
) -> Result<Shard<E>, MmmError> {
    let mut f = BatchFieldCtx::new(engine);
    step(Some("batch_curve.setup"), &f);
    let curve = BatchCurve::try_new(&mut f, &spec.a, &spec.b)?;
    let m = f.to_mont(&[spec.gx.clone(), spec.gy.clone(), Ubig::one()]);
    let g = Point {
        x: m[0].clone(),
        y: m[1].clone(),
        z: m[2].clone(),
    };
    step(Some("batch_curve.try_points"), &f);
    let xy: Vec<(Ubig, Ubig)> = reqs.iter().map(|r| (r.qx.clone(), r.qy.clone())).collect();
    let q = curve.try_points(&mut f, &xy)?;
    step(Some("batch_curve.scalar_mul"), &f);
    let u1: Vec<Ubig> = prepared.iter().map(|p| p.1.clone()).collect();
    let r1 = curve.scalar_mul(&mut f, &u1, &PointLanes::splat(&g, reqs.len()), None);
    step(Some("batch_curve.scalar_mul"), &f);
    let u2: Vec<Ubig> = prepared.iter().map(|p| p.2.clone()).collect();
    let r2 = curve.scalar_mul(&mut f, &u2, &q, None);
    step(Some("batch_curve.add"), &f);
    let sum = curve.add(&mut f, &r1, &r2);
    step(Some("batch_curve.to_affine"), &f);
    let affine = curve.to_affine(&mut f, &sum);
    step(None, &f);
    let verdicts = reqs
        .iter()
        .zip(prepared)
        .zip(affine)
        .map(|((req, prep), aff)| prep.0 && aff.is_some_and(|(x, _)| x.rem(&spec.order) == req.r))
        .collect();
    Ok(Shard {
        f,
        curve,
        r1,
        r2,
        sum,
        verdicts,
    })
}

/// Records each step of [`verify_shard`] as a child span of `parent`,
/// with the kernel calls the counting engine made inside it.
struct StepSpans<'a> {
    trace: &'a Trace,
    parent: usize,
    /// The open span, with the engine's call count and busy time at its
    /// start.
    open: Option<(usize, u64, u64)>,
    scalar_muls: Vec<usize>,
}

impl<'a> StepSpans<'a> {
    fn new(trace: &'a Trace, parent: usize) -> Self {
        StepSpans {
            trace,
            parent,
            open: None,
            scalar_muls: Vec::new(),
        }
    }

    fn step(&mut self, name: Option<&'static str>, f: &Field) {
        let (calls, busy) = (f.engine().calls(), f.engine().busy_ns());
        if let Some((id, calls0, busy0)) = self.open.take() {
            self.trace.close(id, calls - calls0, busy - busy0);
        }
        if let Some(name) = name {
            let id = self.trace.open(name, Some(self.parent));
            if name == "batch_curve.scalar_mul" {
                self.scalar_muls.push(id);
            }
            self.open = Some((id, calls, busy));
        }
    }
}

/// ECC serve, curve and field layers on 64 of the ECDSA requests (one
/// shard). Returns the instrumentation overhead of the verify shard:
/// a bare pooled engine against the counting wrapper with step spans
/// (recorded to a scratch trace).
pub fn ecc(
    report: &mut Report,
    trace: &Trace,
    session: &CurveSession,
    inputs: &EcdsaInputs,
) -> Result<f64, MmmError> {
    let reqs = &inputs.reqs[..64];
    let expect = &inputs.expect[..64];
    let spec = session.spec();
    let config = session.config();
    let pool = pool::try_global()?;
    let params = pool.params_for(&spec.p);
    let checkout = || {
        pool.try_checkout_kind(&params, config.backend())
            .map(|mut engine| {
                engine.set_hardening(config.hardening());
                engine
            })
    };
    session.verify_ecdsa(reqs)?;
    let (mut roots, mut prep_ids, mut mul_ids) = (Vec::new(), Vec::new(), Vec::new());
    let mut field_muls = Vec::new();
    let mut last = None;
    for _ in 0..REPS {
        let (root, got) = trace.time("ecc_serve.verify_ecdsa.lanes64", None, || {
            session.verify_ecdsa(reqs)
        });
        if got? != expect {
            report.wrong += 1;
        }
        roots.push(root);
        // The same shard through the public layers it is built from.
        let (prep_id, prepared) =
            trace.time("ecc_serve.prep", Some(root), || prepare(session, reqs));
        prep_ids.push(prep_id);
        let (_, engine) = trace.time("pool.checkout", Some(root), checkout);
        let mut spans = StepSpans::new(trace, root);
        let shard = verify_shard(Counting::new(engine?), spec, reqs, &prepared, |name, f| {
            spans.step(name, f)
        })?;
        mul_ids.extend(spans.scalar_muls);
        if shard.verdicts != expect {
            report.wrong += 1;
        }
        field_muls.push(shard.f.engine().calls());
        last = Some(shard);
    }
    let spans = trace.spans();
    report.push(Metric::new(
        "ecc_serve.verify_ms.lanes64",
        median_of(&roots, |id| ms(&spans, id)),
        "ms",
        REPS,
    ));
    report.push(Metric::new(
        "ecc_serve.prep_us_per_req",
        median_of(&prep_ids, |id| spans[id].duration_ns() as f64 / 64.0 / 1e3),
        "us",
        REPS,
    ));
    let share = median_of(&roots, |id| trace::unattributed_share(&spans, id));
    report.push_share("ecc_serve.unattributed_share", share, REPS);
    report.push(Metric::new(
        "batch_curve.scalar_mul_ms",
        median_of(&mul_ids, |id| ms(&spans, id)),
        "ms",
        mul_ids.len(),
    ));
    if field_muls.iter().any(|&c| c != field_muls[0]) {
        report.fail_check(format!(
            "batch_curve.field_muls_per_verify differs between repetitions: {field_muls:?}"
        ));
    }
    let kernel_share = median_of(&roots, |id| {
        trace::subtree_kernel_ns(&spans, id) as f64 / spans[id].duration_ns() as f64
    });

    let Shard {
        mut f,
        curve,
        r1,
        r2,
        sum,
        ..
    } = last.expect("at least one repetition");
    let us = |ns: f64| ns / 1e3;
    let rows = [
        (
            "batch_curve.double_us",
            us(ns_per_call(|| {
                black_box(curve.double(&mut f, &r1));
            })),
        ),
        (
            "batch_curve.add_us",
            us(ns_per_call(|| {
                black_box(curve.add(&mut f, &r1, &r2));
            })),
        ),
        (
            "batch_curve.to_affine_us",
            us(ns_per_call(|| {
                black_box(curve.to_affine(&mut f, &sum));
            })),
        ),
    ];
    for (name, value) in rows {
        report.push(Metric::new(name, value, "us", BLOCKS));
    }
    report.push(
        Metric::new(
            "batch_curve.field_muls_per_verify",
            field_muls[0] as f64,
            "count",
            REPS,
        )
        .note("kernel calls in one 64-lane verify shard"),
    );
    let (a, b) = (&r1.x, &r2.x);
    let rows = [
        (
            "batch_field.mul_us",
            us(ns_per_call(|| {
                black_box(f.mul(a, b));
            })),
        ),
        (
            "batch_field.add_us",
            us(ns_per_call(|| {
                black_box(f.add(a, b));
            })),
        ),
        (
            "batch_field.sub_us",
            us(ns_per_call(|| {
                black_box(f.sub(a, b));
            })),
        ),
        (
            "batch_field.inv_us",
            us(ns_per_call(|| {
                black_box(f.inv(&sum.z));
            })),
        ),
    ];
    for (name, value) in rows {
        report.push(Metric::new(name, value, "us", BLOCKS));
    }
    report.push(
        Metric::new("batch_field.kernel_share", kernel_share, "share", REPS)
            .note("kernel time / 64-lane verify time"),
    );
    drop(f);

    let prepared = prepare(session, reqs);
    let scratch = Trace::new();
    let wrong = Cell::new(0u64);
    let check = |verdicts: &[bool]| wrong.set(wrong.get() + u64::from(verdicts != expect));
    let overhead = overhead_share(
        || {
            check(&verify_shard(checkout()?, spec, reqs, &prepared, |_, _| {})?.verdicts);
            Ok(())
        },
        || {
            let root = scratch.open("ecc_serve.verify_shard", None);
            let mut spans = StepSpans::new(&scratch, root);
            let shard = verify_shard(Counting::new(checkout()?), spec, reqs, &prepared, |n, f| {
                spans.step(n, f)
            })?;
            scratch.close(root, 0, 0);
            check(&shard.verdicts);
            Ok(())
        },
    )?;
    report.wrong += wrong.get();
    Ok(overhead)
}
