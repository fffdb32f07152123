//! Seeded input generation. Every input is made from `--seed` before
//! timing starts, from pools of distinct values, so no shard or call
//! holds a repeated request; the program only ever sees the generated
//! inputs.

use mmm_bigint::Ubig;
use mmm_core::MmmError;
use mmm_ecc::{CurveSession, EcdsaRequest};
use mmm_rsa::RsaKeyPair;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;

/// RSA modulus size.
pub const RSA_BITS: usize = 1024;
/// Distinct ciphertexts per RSA run: sixteen full shards, so neither a
/// 64-lane shard nor the 256 requests in flight ever repeat one.
pub const RSA_POOL: usize = 1024;
/// Requests per `verify_ecdsa` call: one 64-lane shard, so a call runs
/// on one core. A call split over two cores finishes at the pace of the
/// slower one, and on a shared host that made call latency swing by
/// half between runs of the same code.
pub const ECDSA_CALL: usize = 64;
/// Distinct signed requests per ECDSA run (eight calls' worth).
pub const ECDSA_POOL: usize = 512;
/// One request in this many carries a tampered `s`.
pub const TAMPER_EVERY: usize = 8;

/// Independent generator streams derived from one seed.
#[derive(Debug, Clone, Copy)]
enum Stream {
    RsaKey = 1,
    RsaPool = 2,
    Schedule = 3,
    Ecdsa = 4,
    Operands = 5,
}

fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream as u64)
}

/// The generator for operands the layer probes feed straight to
/// kernels and transposes.
pub fn operand_rng(seed: u64) -> StdRng {
    rng(seed, Stream::Operands)
}

/// `count` distinct values from `draw`, in draw order.
fn distinct(count: usize, mut draw: impl FnMut() -> Ubig) -> Vec<Ubig> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = draw();
        if seen.insert(v.clone()) {
            out.push(v);
        }
    }
    out
}

/// One RSA key and a pool of distinct plaintext/ciphertext pairs.
#[derive(Debug, Clone)]
pub struct RsaInputs {
    pub key: RsaKeyPair,
    pub plain: Vec<Ubig>,
    pub cipher: Vec<Ubig>,
}

impl RsaInputs {
    pub fn generate(seed: u64) -> Self {
        let key = RsaKeyPair::generate(&mut rng(seed, Stream::RsaKey), RSA_BITS, 12);
        let mut r = rng(seed, Stream::RsaPool);
        // Distinct plaintexts give distinct ciphertexts: RSA permutes Z_N.
        let plain = distinct(RSA_POOL, || Ubig::random_below(&mut r, &key.n));
        let cipher = plain.iter().map(|m| m.modpow(&key.e, &key.n)).collect();
        RsaInputs { key, plain, cipher }
    }
}

/// ECDSA verify requests, each from its own signer, with the verdict
/// each must get.
#[derive(Debug, Clone)]
pub struct EcdsaInputs {
    pub reqs: Vec<EcdsaRequest>,
    pub expect: Vec<bool>,
}

impl EcdsaInputs {
    /// `count` signed requests. In every block of [`TAMPER_EVERY`] one
    /// request, at a seeded position, has `s` bumped by one: it must
    /// verify false and still costs a full verify. Public keys and
    /// nonce points come from one batched `scalar_mul_base` call.
    pub fn generate(seed: u64, session: &CurveSession, count: usize) -> Result<Self, MmmError> {
        let n = session.spec().order.clone();
        let one = Ubig::one();
        let mut r = rng(seed, Stream::Ecdsa);
        let ds = distinct(count, || Ubig::random_range(&mut r, &one, &n));
        let ks = distinct(count, || Ubig::random_range(&mut r, &one, &n));
        let zs: Vec<Ubig> = (0..count).map(|_| Ubig::random_bits(&mut r, 256)).collect();
        let tampered: BTreeSet<usize> = (0..count.div_ceil(TAMPER_EVERY))
            .map(|b| b * TAMPER_EVERY + r.gen_range(0, TAMPER_EVERY as u64) as usize)
            .collect();
        let points = session.scalar_mul_base(&[ds.as_slice(), ks.as_slice()].concat())?;
        let mut reqs = Vec::with_capacity(count);
        let mut expect = Vec::with_capacity(count);
        for i in 0..count {
            let (qx, qy) = points[i]
                .clone()
                .expect("d in [1, n) is never the identity");
            let (rx, _) = points[count + i]
                .clone()
                .expect("k in [1, n) is never the identity");
            let rr = rx.rem(&n);
            let kinv = ks[i].modinv(&n).expect("the group order is prime");
            let mut s = kinv.modmul(&zs[i].rem(&n).modadd(&rr.modmul(&ds[i], &n), &n), &n);
            let tamper = tampered.contains(&i);
            if tamper {
                s = s.modadd(&one, &n);
            }
            // r = 0 or s = 0 (probability ~2^-256) verifies false.
            expect.push(!tamper && !rr.is_zero() && !s.is_zero());
            reqs.push(EcdsaRequest {
                z: zs[i].clone(),
                r: rr,
                s,
                qx,
                qy,
            });
        }
        Ok(EcdsaInputs { reqs, expect })
    }
}

/// Arrival offsets, in seconds from the start, of an open-loop Poisson
/// stream at `rate` per second over `seconds`, conditioned on exactly
/// `round(rate · seconds)` arrivals: given its count, a Poisson
/// process's arrival times are sorted uniform draws, so the offered
/// load is exact while the gaps stay exponential.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let count = (rate * seconds).round() as usize;
    let mut r = rng(seed, Stream::Schedule);
    let mut at: Vec<f64> = (0..count)
        .map(|_| (r.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * seconds)
        .collect();
    at.sort_by(f64::total_cmp);
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_identical_for_a_seed() {
        let a = poisson_schedule(7, 50.0, 20.0);
        assert_eq!(a, poisson_schedule(7, 50.0, 20.0));
        assert_ne!(a, poisson_schedule(8, 50.0, 20.0));
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..20.0).contains(&t)));
        // Exponential gaps: mean 1/rate, and about e⁻¹ of them longer
        // than the mean.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.02).abs() < 0.002, "mean gap {mean}");
        let long = gaps.iter().filter(|&&g| g > 0.02).count() as f64 / gaps.len() as f64;
        assert!(
            (long - (-1.0f64).exp()).abs() < 0.05,
            "long-gap share {long}"
        );
    }

    #[test]
    fn pools_hold_distinct_values() {
        let mut r = rng(3, Stream::RsaPool);
        let small = Ubig::from(40u64);
        let vs = distinct(40, || Ubig::random_below(&mut r, &small));
        let set: BTreeSet<Ubig> = vs.iter().cloned().collect();
        assert_eq!(set.len(), 40);
    }
}
