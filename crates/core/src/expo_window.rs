//! The cost model of the fixed-window exponent scan — the windowed
//! generalization of the paper's Algorithm 3 (binary
//! square-and-multiply) that [`crate::expo_batch::BatchModExp::try_modexp`]
//! runs on the shared scan core ([`crate::scan::run_windowed_scan`]).
//!
//! With window width `w` the scan builds a `2^w`-entry power table and
//! then pays `w` squarings plus one multiply-always multiplication per
//! window: ~35–40% fewer Montgomery multiplications than `w = 1` at RSA
//! sizes, which translates directly through the `3l+4` cycle cost of
//! the MMMC. [`expected_fixed_window_muls`] counts them and
//! [`best_fixed_window`] picks the width.

use crate::scan::{best_fixed_window_weighted, fixed_window_schedule};

/// Expected **batched** Montgomery-multiplication count of the
/// lockstep fixed-window (k-ary) scan
/// ([`crate::expo_batch::BatchModExp::try_modexp`]) for a `t`-bit
/// exponent: the full table `2^w − 2` (every digit value, even ones
/// included, so digit selection never perturbs the schedule),
/// `(⌈t/w⌉ − 1)·w` squarings (the top window is a table lookup),
/// `⌈t/w⌉ − 1` multiply-always steps, and the two domain transforms.
/// At `w = 1` this is Algorithm 3's square-and-multiply-always scan:
/// `2(t − 1) + 2` multiplications. The model charges the multiply for
/// *every* window, because lanes scan in lockstep and a window is only
/// skippable when **all** lanes have digit 0.
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
/// `t`-bit exponent: the unit-weight instance of
/// [`crate::scan::best_fixed_window_weighted`], so RSA and every
/// other scan tenant (e.g. batched ECC, with point-operation weights)
/// share one tuning policy.
pub fn best_fixed_window(t: usize) -> usize {
    best_fixed_window_weighted(t, 1.0, 1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
