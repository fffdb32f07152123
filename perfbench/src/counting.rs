//! A [`BatchMontMul`] wrapper that counts and times every kernel call,
//! so kernel work is measured where it happens. It slots under any
//! generic layer (`BatchModExp`, `BatchFieldCtx`) without touching the
//! program.

use mmm_bigint::Ubig;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::{BatchMontMul, HardeningMode};
use std::time::Instant;

/// Counts and times the calls into the engine it wraps; results pass
/// through unchanged.
#[derive(Debug)]
pub struct Counting<E> {
    inner: E,
    calls: u64,
    busy_ns: u64,
}

impl<E: BatchMontMul> Counting<E> {
    pub fn new(inner: E) -> Self {
        Counting {
            inner,
            calls: 0,
            busy_ns: 0,
        }
    }

    /// Kernel calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Time spent inside those calls.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    fn tally(&mut self, started: Instant) {
        self.calls += 1;
        self.busy_ns += started.elapsed().as_nanos() as u64;
    }
}

impl<E: BatchMontMul> BatchMontMul for Counting<E> {
    fn params(&self) -> &MontgomeryParams {
        self.inner.params()
    }

    fn max_lanes(&self) -> usize {
        self.inner.max_lanes()
    }

    fn mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Vec<Ubig> {
        let started = Instant::now();
        let out = self.inner.mont_mul_batch(xs, ys);
        self.tally(started);
        out
    }

    fn mont_mul_batch_into(&mut self, xs: &[Ubig], ys: &[Ubig], out: &mut Vec<Ubig>) {
        let started = Instant::now();
        self.inner.mont_mul_batch_into(xs, ys, out);
        self.tally(started);
    }

    fn consumed_cycles(&self) -> Option<u64> {
        self.inner.consumed_cycles()
    }

    fn demote_kernel(&mut self) -> bool {
        self.inner.demote_kernel()
    }

    fn set_hardening(&mut self, mode: HardeningMode) {
        self.inner.set_hardening(mode);
    }

    fn hardening(&self) -> HardeningMode {
        self.inner.hardening()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_core::modgen::{random_operand, random_safe_params};
    use mmm_core::EngineKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn wrapper_is_bit_identical_to_the_engine_it_wraps() {
        let mut rng = StdRng::seed_from_u64(17);
        for l in [256usize, 513] {
            let params = random_safe_params(&mut rng, l);
            for kind in EngineKind::ALL {
                let mut plain = kind.build(params.clone());
                let mut counted = Counting::new(kind.build(params.clone()));
                let mut calls = 0;
                for lanes in [1usize, 3, 64] {
                    let xs: Vec<Ubig> = (0..lanes)
                        .map(|_| random_operand(&mut rng, &params))
                        .collect();
                    let ys: Vec<Ubig> = (0..lanes)
                        .map(|_| random_operand(&mut rng, &params))
                        .collect();
                    let want = plain.mont_mul_batch(&xs, &ys);
                    assert_eq!(counted.mont_mul_batch(&xs, &ys), want, "{}", kind.name());
                    let mut out = Vec::new();
                    counted.mont_mul_batch_into(&xs, &ys, &mut out);
                    assert_eq!(out, want, "{} into", kind.name());
                    calls += 2;
                }
                assert_eq!(counted.calls(), calls);
                assert!(counted.busy_ns() > 0);
                assert_eq!(counted.name(), plain.name());
            }
        }
    }
}
