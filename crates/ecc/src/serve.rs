//! The ECC serving surface: batched ECDSA verification and ECDH
//! shared-secret derivation on the pooled batch engines — the second
//! tenant on the stack the RSA front-end serves from.
//!
//! [`CurveSession`] mirrors `mmm_rsa::KeyedSession`: one handle owning
//! the curve group, its pooled Montgomery parameters and the engine
//! configuration, built once (validating the curve and base point and
//! pre-warming one engine) and reused for every request. Requests run
//! through the one shard fan-out, [`pool::try_sharded`]:
//! `shard_lanes`-wide shards across cores, each on a warm engine of
//! the quarantine's effective backend ([`EngineConfig::run_kind`]), as
//! RSA's are. Every method returns `Result<_, MmmError>` so one
//! malformed request bounces that *call* with the offending lane
//! named, never the process.
//!
//! [`EcdsaVerify`] and [`Ecdh`] are the ECC operations of the serving
//! plane ([`mmm_core::serve`]), with [`CurveSession`] as their
//! [`Session`], so ECC requests get the same `Collector` and the same
//! multi-worker `Server` as RSA: validation on submit, backpressure,
//! panic isolation, fill, idle and deadline flushing, shutdown drain
//! and counters.
//!
//! **Semantics note.** An ECDSA signature that is merely *invalid*
//! (bad `r`/`s` range, wrong signer) is a `false` result — a verdict,
//! not an error. A structurally malformed request (public key not on
//! the curve) is a typed error naming the lane, because no verdict
//! about it is meaningful.

use crate::batch_curve::{BatchCurve, PointLanes};
use crate::batch_field::BatchFieldCtx;
use crate::curve::{Curve, Point};
use crate::curves::CurveSpec;
use crate::field::FieldCtx;
use mmm_bigint::Ubig;
use mmm_core::cios::CiosMont;
use mmm_core::error::MmmError;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::pool;
use mmm_core::serve::{Session, ShardOp};
use mmm_core::{EngineConfig, EngineKind};

/// One ECDSA verification request: message digest (already truncated
/// to the order's bit length per FIPS 186-4 §6.4), signature pair and
/// the signer's affine public key.
#[derive(Debug, Clone)]
pub struct EcdsaRequest {
    /// Message digest `z`.
    pub z: Ubig,
    /// Signature component `r`.
    pub r: Ubig,
    /// Signature component `s`.
    pub s: Ubig,
    /// Public-key x-coordinate.
    pub qx: Ubig,
    /// Public-key y-coordinate.
    pub qy: Ubig,
}

/// One ECDH shared-secret request: our private scalar and the peer's
/// affine public key.
#[derive(Debug, Clone)]
pub struct EcdhRequest {
    /// Private scalar `d ∈ [1, order)`.
    pub scalar: Ubig,
    /// Peer public-key x-coordinate.
    pub qx: Ubig,
    /// Peer public-key y-coordinate.
    pub qy: Ubig,
}

/// A serving session bound to one curve group: owns the
/// [`CurveSpec`], its pooled Montgomery parameters, the engine
/// configuration, and the curve and base point in the Montgomery
/// domain. Construction validates the group once (non-singular curve,
/// base point on it, order > 1) and pre-warms one engine of the
/// configured backend in the process-wide pool.
///
/// ```
/// use mmm_bigint::Ubig;
/// use mmm_core::{EngineConfig, MmmError};
/// use mmm_ecc::serve::{CurveSession, EcdhRequest};
/// use mmm_ecc::curves::p256;
///
/// # fn main() -> Result<(), MmmError> {
/// let session = CurveSession::new(p256(), EngineConfig::default())?;
/// // Alice and Bob derive the same secret from mirrored requests.
/// let (da, db) = (Ubig::from(1001u64), Ubig::from(2002u64));
/// let qa = session.scalar_mul_base(&[da.clone()])?[0].clone().unwrap();
/// let qb = session.scalar_mul_base(&[db.clone()])?[0].clone().unwrap();
/// let sa = session.ecdh(&[EcdhRequest { scalar: da, qx: qb.0, qy: qb.1 }])?;
/// let sb = session.ecdh(&[EcdhRequest { scalar: db, qx: qa.0, qy: qa.1 }])?;
/// assert_eq!(sa, sb);
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct CurveSession {
    spec: CurveSpec,
    config: EngineConfig,
    params: MontgomeryParams,
    curve: BatchCurve,
    /// The base point, in the Montgomery domain.
    g: Point,
}

impl CurveSession {
    /// Builds a session for `spec` under `config`.
    ///
    /// Fails with [`MmmError::SingularCurve`] if the discriminant
    /// vanishes, [`MmmError::PointNotOnCurve`] if the base point does
    /// not satisfy the curve equation, [`MmmError::Config`] for a
    /// degenerate order or broken `MMM_*` environment, and
    /// [`MmmError::HardwareUnsafeWidth`] if the backend cannot run
    /// the pooled parameters (which hardware-safe widths never
    /// trigger).
    pub fn new(spec: CurveSpec, config: EngineConfig) -> Result<Self, MmmError> {
        let pool = pool::try_global()?;
        let params = pool.params_for(&spec.p);
        // The one validation of the group, on the solo reference; every
        // shard reuses its Montgomery-domain curve and base point.
        let mut f = FieldCtx::new(CiosMont::new(params.clone()));
        let curve = Curve::try_new(&mut f, &spec.a, &spec.b)?;
        // G's coordinates must be reduced, like a request key's.
        if spec.gx >= spec.p || spec.gy >= spec.p {
            return Err(MmmError::PointNotOnCurve { lane: 0 });
        }
        let g = curve.try_point(&mut f, &spec.gx, &spec.gy)?;
        if spec.order <= Ubig::one() {
            return Err(MmmError::Config(format!(
                "curve {:?} order must exceed 1",
                spec.name
            )));
        }
        config.backend().ensure_supports(&params)?;
        drop(pool.try_checkout_kind(&params, config.backend())?);
        Ok(CurveSession {
            spec,
            config,
            params,
            curve: BatchCurve::from_solo(&curve),
            g,
        })
    }

    /// The session's curve group.
    pub fn spec(&self) -> &CurveSpec {
        &self.spec
    }

    /// The session's engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The configured multiplier backend (a shard runs on a weaker one
    /// while the quarantine has benched it).
    pub fn backend(&self) -> EngineKind {
        self.config.backend()
    }

    /// Batched fixed-base scalar multiplication: `[ks[k]]·G` in affine
    /// plain coordinates, `None` where the multiple is the identity.
    /// The building block under key generation and the doctest above;
    /// scalars are reduced mod the group order.
    pub fn scalar_mul_base(&self, ks: &[Ubig]) -> Result<Vec<Option<(Ubig, Ubig)>>, MmmError> {
        let reduced: Vec<Ubig> = ks.iter().map(|k| k.rem(&self.spec.order)).collect();
        let kind = self.config.run_kind(&self.params);
        pool::try_sharded(
            &self.params,
            kind,
            &self.config,
            ks.len(),
            |engine, lanes| {
                let mut f = BatchFieldCtx::new(engine);
                let base = PointLanes::splat(&self.g, lanes.len());
                let acc = self.curve.scalar_mul(&mut f, &reduced[lanes], &base, None);
                Ok(self.curve.to_affine(&mut f, &acc))
            },
        )
    }

    /// Batched ECDSA verification (FIPS 186-4 §6.4): one verdict per
    /// request, in order. Range-invalid `r`/`s` or a failed equation
    /// is `false`; a public key off the curve is
    /// [`MmmError::PointNotOnCurve`] naming the request index. Empty
    /// input is `Ok(vec![])`.
    pub fn verify_ecdsa(&self, reqs: &[EcdsaRequest]) -> Result<Vec<bool>, MmmError> {
        // Structural validation up front, with global lane indices.
        for (lane, req) in reqs.iter().enumerate() {
            EcdsaVerify.validate(self, lane, req)?;
        }
        let n = &self.spec.order;
        // Per-request scalar precomputation (plain arithmetic): w =
        // s⁻¹, u1 = z·w, u2 = r·w mod order, with every live lane's s
        // inverted by one shared `modinv`. Range-invalid requests keep
        // placeholder scalars and a dead verdict mask.
        struct Prepared {
            live: bool,
            u1: Ubig,
            u2: Ubig,
        }
        let live_s: Vec<Option<&Ubig>> = reqs
            .iter()
            .map(|req| {
                let ok = !req.r.is_zero() && req.r < *n && !req.s.is_zero() && req.s < *n;
                ok.then_some(&req.s)
            })
            .collect();
        let prepared: Vec<Prepared> = reqs
            .iter()
            .zip(batch_modinv(&live_s, n))
            .map(|(req, w)| match w {
                Some(w) => Prepared {
                    live: true,
                    u1: req.z.rem(n).modmul(&w, n),
                    u2: req.r.modmul(&w, n),
                },
                None => Prepared {
                    live: false,
                    u1: Ubig::one(),
                    u2: Ubig::one(),
                },
            })
            .collect();
        let kind = self.config.run_kind(&self.params);
        pool::try_sharded(
            &self.params,
            kind,
            &self.config,
            reqs.len(),
            |engine, lanes| {
                let mut f = BatchFieldCtx::new(engine);
                let (sreqs, sprep) = (&reqs[lanes.clone()], &prepared[lanes]);
                let xy: Vec<(Ubig, Ubig)> =
                    sreqs.iter().map(|r| (r.qx.clone(), r.qy.clone())).collect();
                // Pre-validated above; an error here would be an
                // engine-level fault and is surfaced as-is.
                let q = self.curve.try_points(&mut f, &xy)?;
                let u1: Vec<Ubig> = sprep.iter().map(|p| p.u1.clone()).collect();
                let u2: Vec<Ubig> = sprep.iter().map(|p| p.u2.clone()).collect();
                // [u1]G + [u2]Q in one scan; G stays at one lane.
                let g = PointLanes::splat(&self.g, 1);
                let sum = self.curve.joint_scalar_mul(&mut f, &u1, &g, &u2, &q, None);
                let affine = self.curve.to_affine(&mut f, &sum);
                Ok(sreqs
                    .iter()
                    .zip(sprep)
                    .zip(affine)
                    .map(|((req, prep), aff)| {
                        prep.live && aff.map(|(x, _)| x.rem(n) == req.r).unwrap_or(false)
                    })
                    .collect())
            },
        )
    }

    /// Batched ECDH (SP 800-56A style): the shared secret is the
    /// affine x-coordinate of `[d]·Q`, one per request, in order.
    ///
    /// A scalar outside `[1, order)` is
    /// [`MmmError::ScalarOutOfRange`], a peer key off the curve is
    /// [`MmmError::PointNotOnCurve`] (both naming the request index —
    /// the on-curve check is the standard defense against
    /// invalid-curve key-extraction attacks). A derivation landing on
    /// the identity (impossible for a prime-order group with
    /// validated inputs, reachable on composite-order test curves) is
    /// also [`MmmError::ScalarOutOfRange`]. Empty input is
    /// `Ok(vec![])`.
    pub fn ecdh(&self, reqs: &[EcdhRequest]) -> Result<Vec<Ubig>, MmmError> {
        for (lane, req) in reqs.iter().enumerate() {
            Ecdh.validate(self, lane, req)?;
        }
        let kind = self.config.run_kind(&self.params);
        pool::try_sharded(
            &self.params,
            kind,
            &self.config,
            reqs.len(),
            |engine, lanes| {
                let mut f = BatchFieldCtx::new(engine);
                let start = lanes.start;
                let sreqs = &reqs[lanes];
                let xy: Vec<(Ubig, Ubig)> =
                    sreqs.iter().map(|r| (r.qx.clone(), r.qy.clone())).collect();
                let q = self.curve.try_points(&mut f, &xy)?;
                let ks: Vec<Ubig> = sreqs.iter().map(|r| r.scalar.clone()).collect();
                let acc = self.curve.scalar_mul(&mut f, &ks, &q, None);
                let affine = self.curve.to_affine(&mut f, &acc);
                affine
                    .into_iter()
                    .enumerate()
                    .map(|(k, aff)| {
                        aff.map(|(x, _)| x)
                            .ok_or(MmmError::ScalarOutOfRange { lane: start + k })
                    })
                    .collect()
            },
        )
    }
}

/// `xs[k]⁻¹ mod n` for every `Some` lane (each `< n`), by Montgomery's trick in
/// plain arithmetic: a prefix chain of products, **one** `modinv` of
/// the total, then a backward sweep. `None` lanes stay out of the
/// product and come back `None`, as does any lane with no inverse
/// (found by per-lane fallback when `n` is composite and the total
/// shares a factor with it).
fn batch_modinv(xs: &[Option<&Ubig>], n: &Ubig) -> Vec<Option<Ubig>> {
    let live: Vec<usize> = (0..xs.len()).filter(|&k| xs[k].is_some()).collect();
    let x = |k: usize| xs[k].expect("live lane");
    let mut out = vec![None; xs.len()];
    let Some((&first, rest)) = live.split_first() else {
        return out;
    };
    // prefix[i] = x_{live[0]} ⋯ x_{live[i]} mod n.
    let mut prefix = Vec::with_capacity(live.len());
    prefix.push(x(first).clone());
    for &k in rest {
        let next = prefix.last().unwrap().modmul(x(k), n);
        prefix.push(next);
    }
    let Some(mut u) = prefix.last().unwrap().modinv(n) else {
        for &k in &live {
            out[k] = x(k).modinv(n);
        }
        return out;
    };
    // u = (x_{live[0]} ⋯ x_{live[i]})⁻¹ before visiting live[i].
    for i in (1..live.len()).rev() {
        let k = live[i];
        out[k] = Some(u.modmul(&prefix[i - 1], n));
        u = u.modmul(x(k), n);
    }
    out[first] = Some(u);
    out
}

impl Session for CurveSession {
    type Key = CurveSpec;

    fn open(spec: CurveSpec, config: EngineConfig) -> Result<Self, MmmError> {
        CurveSession::new(spec, config)
    }

    fn config(&self) -> &EngineConfig {
        &self.config
    }

    fn run_kind(&self) -> EngineKind {
        self.config.run_kind(&self.params)
    }
}

/// ECDSA verification as a serving-plane operation: one
/// [`EcdsaRequest`] in, one verdict out
/// ([`CurveSession::verify_ecdsa`]). Admission rejects a public key
/// off the curve; range-invalid `r`/`s` are admitted and verdict
/// `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EcdsaVerify;

impl ShardOp for EcdsaVerify {
    type Session = CurveSession;
    type Request = EcdsaRequest;
    type Response = bool;

    fn validate(
        self,
        session: &CurveSession,
        lane: usize,
        req: &EcdsaRequest,
    ) -> Result<(), MmmError> {
        if !session.spec.on_curve(&req.qx, &req.qy) {
            return Err(MmmError::PointNotOnCurve { lane });
        }
        Ok(())
    }

    fn run_batch(
        self,
        session: &CurveSession,
        reqs: &[EcdsaRequest],
    ) -> Result<Vec<bool>, MmmError> {
        session.verify_ecdsa(reqs)
    }
}

/// ECDH as a serving-plane operation: one [`EcdhRequest`] in, one
/// shared secret out ([`CurveSession::ecdh`]). Admission rejects a
/// scalar outside `[1, order)` and a peer key off the curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Ecdh;

impl ShardOp for Ecdh {
    type Session = CurveSession;
    type Request = EcdhRequest;
    type Response = Ubig;

    fn validate(
        self,
        session: &CurveSession,
        lane: usize,
        req: &EcdhRequest,
    ) -> Result<(), MmmError> {
        if req.scalar.is_zero() || req.scalar >= session.spec.order {
            return Err(MmmError::ScalarOutOfRange { lane });
        }
        if !session.spec.on_curve(&req.qx, &req.qy) {
            return Err(MmmError::PointNotOnCurve { lane });
        }
        Ok(())
    }

    fn run_batch(
        self,
        session: &CurveSession,
        reqs: &[EcdhRequest],
    ) -> Result<Vec<Ubig>, MmmError> {
        session.ecdh(reqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::p256;
    use mmm_core::serve::Collector;

    /// The solo fixture as a spec: y² = x³ + 2x + 3 over GF(97),
    /// G = (3, 6), with the order of G brute-forced from the affine
    /// group law.
    fn tiny_spec() -> CurveSpec {
        CurveSpec {
            name: "tiny97",
            p: Ubig::from(97u64),
            a: Ubig::from(2u64),
            b: Ubig::from(3u64),
            gx: Ubig::from(3u64),
            gy: Ubig::from(6u64),
            order: Ubig::from(tiny_order()),
        }
    }

    /// Order of G = (3,6) on y² = x³ + 2x + 3 / GF(97) by brute force
    /// over the affine group law.
    fn tiny_order() -> u64 {
        const P: u64 = 97;
        const A: u64 = 2;
        fn inv(x: u64) -> u64 {
            let (mut acc, mut base, mut e) = (1u64, x % P, P - 2);
            while e > 0 {
                if e & 1 == 1 {
                    acc = acc * base % P;
                }
                base = base * base % P;
                e >>= 1;
            }
            acc
        }
        let mut order = 1u64;
        let mut acc = Some((3u64, 6u64));
        while let Some((x1, y1)) = acc {
            order += 1;
            let (x2, y2) = (3u64, 6u64);
            acc = if x1 == x2 && (y1 + y2) % P == 0 {
                None
            } else {
                let l = if x1 == x2 && y1 == y2 {
                    (3 * x1 % P * x1 % P + A) % P * inv(2 * y1 % P) % P
                } else {
                    (y2 + P - y1) % P * inv((x2 + P - x1) % P) % P
                };
                let x3 = (l * l % P + 2 * P - x1 - x2) % P;
                Some((x3, (l * ((x1 + P - x3) % P) % P + P - y1) % P))
            };
        }
        order
    }

    #[test]
    fn batch_modinv_matches_per_lane_inverses() {
        // A prime modulus (one shared inversion) and a composite one
        // where some lanes have no inverse (per-lane fallback); `None`
        // lanes stay out of the product.
        for n in [10007u64, 91] {
            let n = Ubig::from(n);
            let xs: Vec<Ubig> = [1u64, 7, 13, 90, 2, 45, 64]
                .iter()
                .map(|&v| Ubig::from(v))
                .collect();
            let lanes: Vec<Option<&Ubig>> = xs
                .iter()
                .enumerate()
                .map(|(k, x)| (k != 3).then_some(x))
                .collect();
            let want: Vec<Option<Ubig>> =
                lanes.iter().map(|x| x.and_then(|x| x.modinv(&n))).collect();
            assert_eq!(batch_modinv(&lanes, &n), want, "n = {n:?}");
        }
        assert!(batch_modinv(&[None, None], &Ubig::from(5u64))
            .iter()
            .all(Option::is_none));
        assert!(batch_modinv(&[], &Ubig::from(5u64)).is_empty());
    }

    #[test]
    fn session_rejects_bad_specs() {
        let mut singular = tiny_spec();
        singular.a = Ubig::zero();
        singular.b = Ubig::zero();
        assert!(matches!(
            CurveSession::new(singular, EngineConfig::default()),
            Err(MmmError::SingularCurve)
        ));
        let mut off = tiny_spec();
        off.gy = Ubig::from(7u64);
        assert!(matches!(
            CurveSession::new(off, EngineConfig::default()),
            Err(MmmError::PointNotOnCurve { lane: 0 })
        ));
        let mut degenerate = tiny_spec();
        degenerate.order = Ubig::one();
        assert!(matches!(
            CurveSession::new(degenerate, EngineConfig::default()),
            Err(MmmError::Config(_))
        ));
    }

    #[test]
    fn tiny_session_round_trips_ecdh() {
        let session = CurveSession::new(tiny_spec(), EngineConfig::default()).unwrap();
        // G has order 5 on the tiny fixture — keep scalars in [1, 5).
        let (da, db) = (Ubig::from(2u64), Ubig::from(3u64));
        let qa = session.scalar_mul_base(std::slice::from_ref(&da)).unwrap()[0]
            .clone()
            .unwrap();
        let qb = session.scalar_mul_base(std::slice::from_ref(&db)).unwrap()[0]
            .clone()
            .unwrap();
        let sa = session
            .ecdh(&[EcdhRequest {
                scalar: da,
                qx: qb.0,
                qy: qb.1,
            }])
            .unwrap();
        let sb = session
            .ecdh(&[EcdhRequest {
                scalar: db,
                qx: qa.0,
                qy: qa.1,
            }])
            .unwrap();
        assert_eq!(sa, sb);
    }

    #[test]
    fn ecdh_validates_requests() {
        let session = CurveSession::new(tiny_spec(), EngineConfig::default()).unwrap();
        let g = session.scalar_mul_base(&[Ubig::from(2u64)]).unwrap()[0]
            .clone()
            .unwrap();
        let bad_scalar = EcdhRequest {
            scalar: Ubig::zero(),
            qx: g.0.clone(),
            qy: g.1.clone(),
        };
        let ok = EcdhRequest {
            scalar: Ubig::from(3u64),
            qx: g.0.clone(),
            qy: g.1.clone(),
        };
        let err = session.ecdh(&[ok.clone(), bad_scalar]).unwrap_err();
        assert!(matches!(err, MmmError::ScalarOutOfRange { lane: 1 }));
        let off_curve = EcdhRequest {
            scalar: Ubig::from(3u64),
            qx: g.0.clone(),
            qy: g.1.modadd(&Ubig::one(), &session.spec().p),
        };
        let err = session.ecdh(&[off_curve]).unwrap_err();
        assert!(matches!(err, MmmError::PointNotOnCurve { lane: 0 }));
    }

    #[test]
    fn p256_session_builds_and_multiplies() {
        let session = CurveSession::new(p256(), EngineConfig::default()).unwrap();
        // [1]G = G.
        let got = session.scalar_mul_base(&[Ubig::one()]).unwrap();
        let (x, y) = got[0].clone().unwrap();
        assert_eq!(x, session.spec().gx);
        assert_eq!(y, session.spec().gy);
        // [order]G = ∞.
        let got = session
            .scalar_mul_base(&[session.spec().order.clone()])
            .unwrap();
        assert!(got[0].is_none());
    }

    #[test]
    fn collectors_submit_validate_and_flush_in_order() {
        let session = CurveSession::new(tiny_spec(), EngineConfig::default()).unwrap();
        let pts: Vec<(Ubig, Ubig)> = session
            .scalar_mul_base(&[Ubig::from(2u64), Ubig::from(3u64), Ubig::from(4u64)])
            .unwrap()
            .into_iter()
            .map(Option::unwrap)
            .collect();
        let mut c = Collector::new(&session, Ecdh);
        assert!(matches!(c.flush(), Err(MmmError::EmptyBatch)));
        for (i, (qx, qy)) in pts.iter().enumerate() {
            let id = c
                .submit(EcdhRequest {
                    scalar: Ubig::from(i as u64 + 1),
                    qx: qx.clone(),
                    qy: qy.clone(),
                })
                .unwrap();
            assert_eq!(id, i);
        }
        let bad = c.submit(EcdhRequest {
            scalar: Ubig::zero(),
            qx: pts[0].0.clone(),
            qy: pts[0].1.clone(),
        });
        assert!(matches!(bad, Err(MmmError::ScalarOutOfRange { lane: 3 })));
        assert_eq!(c.len(), 3, "rejected submit leaves the queue intact");
        let direct: Vec<Ubig> = pts
            .iter()
            .enumerate()
            .map(|(i, (qx, qy))| {
                session
                    .ecdh(&[EcdhRequest {
                        scalar: Ubig::from(i as u64 + 1),
                        qx: qx.clone(),
                        qy: qy.clone(),
                    }])
                    .unwrap()[0]
                    .clone()
            })
            .collect();
        assert_eq!(c.flush().unwrap(), direct);
        assert!(c.is_empty());
    }
}
