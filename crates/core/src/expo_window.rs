//! Sliding-window modular exponentiation — the standard evolution of
//! the paper's Algorithm 3 (binary square-and-multiply), using the same
//! Montgomery engines.
//!
//! With window width `w`, the method precomputes the odd powers
//! `M̄, M̄³, …, M̄^{2^w − 1}` (that is `2^{w−1}` multiplications after
//! one squaring) and then scans the exponent, paying one squaring per
//! bit but only ~`t/(w+1)` multiplications instead of `t/2` — around
//! 20% fewer total Montgomery operations at RSA sizes with `w = 5`,
//! which translates directly through the `3l+4` cycle cost of the MMMC.

use crate::expo::ExpoStats;
use crate::montgomery::MontgomeryParams;
use crate::scan::{best_fixed_window_weighted, fixed_window_schedule};
use crate::traits::MontMul;
use mmm_bigint::Ubig;

/// Sliding-window exponentiator over any Montgomery engine.
#[derive(Debug, Clone)]
pub struct WindowedModExp<E: MontMul> {
    engine: E,
    window: usize,
    stats: ExpoStats,
}

impl<E: MontMul> WindowedModExp<E> {
    /// Wraps an engine with window width `w ∈ [1, 8]` (`w = 1` is
    /// exactly Algorithm 3).
    pub fn new(engine: E, window: usize) -> Self {
        assert!((1..=8).contains(&window), "window must be in 1..=8");
        WindowedModExp {
            engine,
            window,
            stats: ExpoStats::default(),
        }
    }

    /// Wraps an engine with the width [`best_window`] picks for
    /// `exponent_bits`-bit exponents — the same cost-model-driven
    /// selection the batched fixed-window scan uses (via
    /// [`best_fixed_window`]), so scalar and batch paths share one
    /// tuning policy.
    pub fn new_auto(engine: E, exponent_bits: usize) -> Self {
        let w = best_window(exponent_bits);
        Self::new(engine, w)
    }

    /// The engine's parameters.
    pub fn params(&self) -> &MontgomeryParams {
        self.engine.params()
    }

    /// Statistics accumulated since construction.
    pub fn stats(&self) -> ExpoStats {
        self.stats
    }

    /// Cycles consumed by the engine, if cycle-accurate.
    pub fn consumed_cycles(&self) -> Option<u64> {
        self.engine.consumed_cycles()
    }

    /// Computes `m^e mod N`.
    pub fn modexp(&mut self, m: &Ubig, e: &Ubig) -> Ubig {
        let params = self.engine.params().clone();
        let n = params.n().clone();
        assert!(m < &n, "message must be < N");
        if e.is_zero() {
            return if n.is_one() {
                Ubig::zero()
            } else {
                Ubig::one()
            };
        }

        // Enter the Montgomery domain.
        let r2 = params.r2_mod_n();
        let mbar = self.engine.mont_mul(m, &r2);
        self.stats.total_mont_muls += 1;

        // Precompute odd powers mbar^(2k+1) for k < 2^(w-1).
        let table_len = 1usize << (self.window - 1);
        let mut table = Vec::with_capacity(table_len);
        table.push(mbar.clone());
        if table_len > 1 {
            let m2 = self.engine.mont_mul(&mbar, &mbar);
            self.stats.squarings += 1;
            self.stats.total_mont_muls += 1;
            for k in 1..table_len {
                let next = self.engine.mont_mul(&table[k - 1], &m2);
                self.stats.multiplications += 1;
                self.stats.total_mont_muls += 1;
                table.push(next);
            }
        }

        // One in the Montgomery domain (R mod N, as an Algorithm-2
        // residue): Mont(1, R²).
        let mut a = self.engine.mont_mul(&Ubig::one(), &r2);
        self.stats.total_mont_muls += 1;

        // Left-to-right sliding window scan.
        let t = e.bit_len();
        let mut i = t as isize - 1;
        while i >= 0 {
            if !e.bit(i as usize) {
                a = self.engine.mont_mul(&a, &a);
                self.stats.squarings += 1;
                self.stats.total_mont_muls += 1;
                i -= 1;
                continue;
            }
            // Window [j, i] with e_j = 1, length ≤ w.
            let j = (i - self.window as isize + 1).max(0);
            let mut j = j;
            while !e.bit(j as usize) {
                j += 1;
            }
            let width = (i - j + 1) as usize;
            let mut value = 0usize;
            for b in (j..=i).rev() {
                value = (value << 1) | usize::from(e.bit(b as usize));
            }
            for _ in 0..width {
                a = self.engine.mont_mul(&a, &a);
                self.stats.squarings += 1;
                self.stats.total_mont_muls += 1;
            }
            debug_assert!(value % 2 == 1);
            a = self.engine.mont_mul(&a, &table[value >> 1]);
            self.stats.multiplications += 1;
            self.stats.total_mont_muls += 1;
            i = j - 1;
        }

        // Leave the domain.
        let result = self.engine.mont_mul(&a, &Ubig::one());
        self.stats.total_mont_muls += 1;
        if result == n {
            Ubig::zero()
        } else {
            debug_assert!(result < n);
            result
        }
    }
}

/// Expected Montgomery-multiplication count of a `w`-window
/// exponentiation of a `t`-bit balanced exponent (for the cost model):
/// table `2^{w-1}` + squarings `t` + multiplications `≈ t/(w+1)` +
/// 3 domain transforms.
pub fn expected_mont_muls(t: usize, w: usize) -> f64 {
    (1usize << (w - 1)) as f64 + t as f64 + t as f64 / (w as f64 + 1.0) + 3.0
}

/// The window width minimizing [`expected_mont_muls`] for a `t`-bit
/// exponent.
pub fn best_window(t: usize) -> usize {
    (1..=8)
        .min_by(|&a, &b| {
            expected_mont_muls(t, a)
                .partial_cmp(&expected_mont_muls(t, b))
                .unwrap()
        })
        .unwrap()
}

/// Expected **batched** Montgomery-multiplication count of the
/// lockstep fixed-window (k-ary) scan
/// ([`crate::expo_batch::BatchModExp::try_modexp`]) for a `t`-bit
/// exponent: the full table `2^w − 2` (every digit value, even ones
/// included, so digit selection never perturbs the schedule),
/// `(⌈t/w⌉ − 1)·w` squarings (the top window is a table lookup),
/// `⌈t/w⌉ − 1` multiply-always steps, and the two domain transforms.
/// At `w = 1` this is Algorithm 3's square-and-multiply-always scan:
/// `2(t − 1) + 2` multiplications. Unlike the sliding-window model this charges the
/// multiply for *every* window, because lanes scan in lockstep and a
/// window is only skippable when **all** lanes have digit 0.
///
/// This is the unit-weight instance of the workload-neutral schedule
/// model ([`crate::scan::fixed_window_schedule`]): for modexp a table
/// entry, a doubling and a combine each cost exactly one batched
/// Montgomery multiplication, plus the two domain transforms.
pub fn expected_fixed_window_muls(t: usize, w: usize) -> f64 {
    let s = fixed_window_schedule(t, w);
    (s.table_entries + s.doublings + s.combines) as f64 + 2.0
}

/// The window width minimizing [`expected_fixed_window_muls`] for a
/// `t`-bit exponent — the batch-path companion of [`best_window`]:
/// the unit-weight instance of
/// [`crate::scan::best_fixed_window_weighted`], so RSA and every
/// other scan tenant (e.g. batched ECC, with point-operation weights)
/// share one tuning policy.
pub fn best_fixed_window(t: usize) -> usize {
    best_fixed_window_weighted(t, 1.0, 1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::ModExp;
    use crate::modgen::random_safe_params;
    use crate::traits::SoftwareEngine;
    use crate::wave::WaveMmmc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_modpow_all_windows() {
        let mut rng = StdRng::seed_from_u64(71);
        let p = random_safe_params(&mut rng, 32);
        let n = p.n().clone();
        for w in 1..=6 {
            for _ in 0..4 {
                let m = Ubig::random_below(&mut rng, &n);
                let e = Ubig::random_bits(&mut rng, 32);
                let e = if e.is_zero() { Ubig::one() } else { e };
                let mut me = WindowedModExp::new(SoftwareEngine::new(p.clone()), w);
                assert_eq!(me.modexp(&m, &e), m.modpow(&e, &n), "w={w}");
            }
        }
    }

    #[test]
    fn edge_exponents() {
        let mut rng = StdRng::seed_from_u64(72);
        let p = random_safe_params(&mut rng, 16);
        let mut me = WindowedModExp::new(SoftwareEngine::new(p.clone()), 4);
        assert_eq!(me.modexp(&Ubig::from(5u64), &Ubig::zero()), Ubig::one());
        let mut me = WindowedModExp::new(SoftwareEngine::new(p.clone()), 4);
        assert_eq!(me.modexp(&Ubig::from(5u64), &Ubig::one()), Ubig::from(5u64));
        let mut me = WindowedModExp::new(SoftwareEngine::new(p), 4);
        assert_eq!(me.modexp(&Ubig::zero(), &Ubig::from(7u64)), Ubig::zero());
    }

    #[test]
    fn window_reduces_multiplications_vs_binary() {
        // A 512-bit balanced exponent: w=5 should cut total Montgomery
        // multiplications by ~15-25% relative to Algorithm 3.
        let mut rng = StdRng::seed_from_u64(73);
        let p = random_safe_params(&mut rng, 512);
        let m = Ubig::random_below(&mut rng, p.n());
        let mut e = Ubig::random_bits(&mut rng, 512);
        e.set_bit(511, true);

        let mut binary = ModExp::new(SoftwareEngine::new(p.clone()));
        let rb = binary.modexp(&m, &e);
        let mut windowed = WindowedModExp::new(SoftwareEngine::new(p.clone()), 5);
        let rw = windowed.modexp(&m, &e);
        assert_eq!(rb, rw);

        let nb = binary.stats().total_mont_muls;
        let nw = windowed.stats().total_mont_muls;
        assert!(
            (nw as f64) < nb as f64 * 0.88,
            "windowed {nw} vs binary {nb}"
        );
        // And the analytic model is close to the measured count.
        let model = expected_mont_muls(512, 5);
        let err = (model - nw as f64).abs() / nw as f64;
        assert!(err < 0.05, "model {model:.0} vs measured {nw}");
    }

    #[test]
    fn cycle_savings_on_hardware_engine() {
        // The savings translate through 3l+4 cycles per multiplication.
        let mut rng = StdRng::seed_from_u64(74);
        let p = random_safe_params(&mut rng, 64);
        let m = Ubig::random_below(&mut rng, p.n());
        let mut e = Ubig::random_bits(&mut rng, 64);
        e.set_bit(63, true);

        let mut binary = ModExp::new(WaveMmmc::new(p.clone()));
        let _ = binary.modexp(&m, &e);
        let cb = binary.consumed_cycles().unwrap();
        let mut windowed = WindowedModExp::new(WaveMmmc::new(p.clone()), 4);
        let _ = windowed.modexp(&m, &e);
        let cw = windowed.consumed_cycles().unwrap();
        assert!(cw < cb, "windowed {cw} vs binary {cb} cycles");
    }

    #[test]
    fn best_window_grows_with_exponent_size() {
        assert!(best_window(64) <= best_window(512));
        assert!(best_window(512) <= best_window(4096));
        assert!((2..=8).contains(&best_window(1024)));
    }

    #[test]
    fn fixed_window_model_beats_multiply_always_at_rsa_sizes() {
        for t in [512usize, 1024, 2048] {
            let w = best_fixed_window(t);
            assert!((4..=8).contains(&w), "t={t} picked w={w}");
            // Multiply-always is the w=1 instance of the same model.
            let always = expected_fixed_window_muls(t, 1);
            let windowed = expected_fixed_window_muls(t, w);
            assert!(
                windowed < always * 0.66,
                "t={t}: windowed {windowed:.0} vs multiply-always {always:.0}"
            );
        }
        // Degenerate exponents stay sane.
        assert_eq!(expected_fixed_window_muls(0, 3), 2.0);
        assert!(best_fixed_window(1) >= 1);
    }

    #[test]
    fn w1_equals_binary_method_cost() {
        // Window 1 degenerates to square-and-multiply: same results,
        // comparable op count (±1 domain-entry multiplication).
        let mut rng = StdRng::seed_from_u64(75);
        let p = random_safe_params(&mut rng, 48);
        let m = Ubig::random_below(&mut rng, p.n());
        let mut e = Ubig::random_bits(&mut rng, 48);
        e.set_bit(47, true);
        let mut w1 = WindowedModExp::new(SoftwareEngine::new(p.clone()), 1);
        let r1 = w1.modexp(&m, &e);
        let mut bin = ModExp::new(SoftwareEngine::new(p.clone()));
        let r2 = bin.modexp(&m, &e);
        assert_eq!(r1, r2);
        // The windowed scan initializes A = 1̄ and consumes the top bit
        // through the generic window path (+1 transform, +1 square,
        // +1 multiply) where Algorithm 3 starts directly at A = M̄.
        let d = w1
            .stats()
            .total_mont_muls
            .abs_diff(bin.stats().total_mont_muls);
        assert!(d <= 3, "w=1 should cost like binary (diff {d})");
    }
}
