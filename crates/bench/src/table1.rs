//! Table 1 regeneration: clock period and *average* modular
//! exponentiation time for `l ∈ {32, 128, 256, 512, 1024}`.
//!
//! The average is over exponents of balanced Hamming weight (`1.5·l`
//! multiplications — §4.5). Two numbers are produced per row:
//!
//! * **model** — the paper's closed form `(4.5l² + 12l + 12)·Tp` with
//!   our predicted Tp;
//! * **measured** — an actual Algorithm-3 run on the cycle-accurate
//!   wave engine with a random balanced exponent, times the same Tp.
//!   (The wave engine is trace-equivalent to the gate-level netlist;
//!   simulating a full 1024-bit exponentiation gate-by-gate would be
//!   ~10¹¹ gate evaluations for identical cycle arithmetic.)

use mmm_bigint::Ubig;
use mmm_core::expo::ModExp;
use mmm_core::modgen::random_safe_params;
use mmm_fpga::{FpgaReport, SlicePacker, VirtexETiming};
use mmm_hdl::CarryStyle;
use mmm_systolic::wave::WaveMmmc;
use mmm_systolic::Mmmc;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One computed row of Table 1.
#[derive(Debug, Clone)]
pub struct Row {
    /// Bit length.
    pub l: usize,
    /// Predicted clock period, ns.
    pub tp_ns: f64,
    /// Closed-form average exponentiation time, ms.
    pub model_ms: f64,
    /// Measured exponentiation time (wave engine cycles × Tp), ms.
    pub measured_ms: f64,
    /// Measured cycle count.
    pub measured_cycles: u64,
    /// Paper's Tp, ns.
    pub paper_tp: f64,
    /// Paper's average time, ms.
    pub paper_ms: f64,
}

/// A random `bits`-bit exponent with balanced Hamming weight
/// (top bit set, each lower bit fair-coin).
pub fn balanced_exponent<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Ubig {
    let mut e = Ubig::random_bits(rng, bits);
    e.set_bit(bits - 1, true);
    e
}

/// Computes all five rows. `measure_up_to` bounds the widths that run
/// the full wave-engine exponentiation (the closed form covers the
/// rest; at 1024 bits the measured run costs a few seconds in release
/// builds and is worth it).
pub fn compute(measure_up_to: usize) -> Vec<Row> {
    let packer = SlicePacker::default();
    let timing = VirtexETiming::default();
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    crate::paper::TABLE1
        .iter()
        .map(|&(l, ptp, pms)| {
            let mmmc = Mmmc::build(l, CarryStyle::XorMux);
            let report = FpgaReport::analyze(&mmmc.netlist, l, &packer, &timing);
            let tp = report.period_ns;
            let model_ms = mmm_core::cost::modexp_avg_cycles(l) * tp * 1e-6;

            let (measured_cycles, measured_ms) = if l <= measure_up_to {
                let params = random_safe_params(&mut rng, l);
                let m = Ubig::random_below(&mut rng, params.n());
                let e = balanced_exponent(&mut rng, l);
                let mut me = ModExp::new(WaveMmmc::new(params.clone()));
                let result = me.modexp(&m, &e);
                assert_eq!(result, m.modpow(&e, params.n()), "expo mismatch l={l}");
                let cycles = me.consumed_cycles().expect("wave engine counts");
                (cycles, cycles as f64 * tp * 1e-6)
            } else {
                let cycles = mmm_core::cost::modexp_avg_cycles(l) as u64;
                (cycles, model_ms)
            };

            Row {
                l,
                tp_ns: tp,
                model_ms,
                measured_ms,
                measured_cycles,
                paper_tp: ptp,
                paper_ms: pms,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::rel_err_pct;

    #[test]
    fn rows_track_paper() {
        let rows = compute(128);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                rel_err_pct(r.tp_ns, r.paper_tp).abs() < 8.0,
                "Tp l={}: {:.3} vs {}",
                r.l,
                r.tp_ns,
                r.paper_tp
            );
            assert!(
                rel_err_pct(r.model_ms, r.paper_ms).abs() < 10.0,
                "avg time l={}: {:.3} vs {}",
                r.l,
                r.model_ms,
                r.paper_ms
            );
        }
    }

    #[test]
    fn measured_time_close_to_model_average() {
        // One random balanced exponent should land within ~6% of the
        // 1.5l-multiplication average (Hamming-weight fluctuation).
        let rows = compute(128);
        for r in rows.iter().filter(|r| r.l <= 128) {
            // Hamming-weight std-dev is √(l/4) multiplications, so the
            // relative tolerance shrinks with l: generous at 32 bits,
            // tight at 128.
            let tol = if r.l <= 64 { 20.0 } else { 8.0 };
            assert!(
                rel_err_pct(r.measured_ms, r.model_ms).abs() < tol,
                "l={}: measured {:.4} vs model {:.4}",
                r.l,
                r.measured_ms,
                r.model_ms
            );
        }
    }

    #[test]
    fn balanced_exponent_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = balanced_exponent(&mut rng, 64);
        assert_eq!(e.bit_len(), 64);
        let hw = (0..64).filter(|&i| e.bit(i)).count();
        assert!((16..=48).contains(&hw), "weight {hw} badly unbalanced");
    }
}
