//! Batched modular exponentiation: Algorithm 3's left-to-right scan,
//! generalized to fixed windows, over all lanes of a [`BatchMontMul`]
//! engine at once, with **per-lane** or **shared** exponents
//! ([`ScalarSet`]).
//!
//! Lanes run in lockstep, so per-lane data may never change *which*
//! batched operations run — only *what* each lane feeds them.
//! [`BatchModExp::try_modexp`] is the one scan: it builds the batched
//! power table `M̄⁰, M̄¹, …, M̄^{2^w−1}` (every digit value), then pays
//! `w` batched squarings plus **one** batched multiplication per
//! `w`-bit window, lanes whose digit is 0 multiplying by `M̄⁰ = 1̄`. The
//! schedule comes from the workload-neutral driver
//! [`crate::scan::run_windowed_scan`]. At `w = 1`
//! ([`WindowPolicy::Fixed`]`(1)`) this is the paper's
//! square-and-multiply-always scan; at RSA sizes wider windows cut
//! batched work by ~35–40% ([`crate::expo_window`] has the cost model
//! [`WindowPolicy::Auto`] picks `w` with).
//!
//! The scan runs on resident rows ([`crate::rows::FeRows`]), as ECC's
//! do: the messages are loaded once and the results stored once, and
//! the accumulator and the multiplier stay in the engine's limb rows in
//! between, gathered from a power table that keeps only the live lanes.
//! Every engine call is one rows call with no conversion, and the
//! window loop allocates nothing.
//!
//! Windows where *no* lane has a nonzero digit are skipped, so the
//! schedule follows the OR of the lanes' digits — little for a full
//! mixed batch, a lane's whole exponent pattern for a single-lane one
//! (visible in [`BatchExpoStats::skipped_multiplications`]) — and the
//! table is read at secret digits. Both leaks close when the engine
//! reports [`HardeningMode::Hardened`](crate::config::HardeningMode::Hardened)
//! (DESIGN.md §12): no window is skipped, and every table read is
//! [`crate::rows::gather`]'s masked sweep of all `2^w` entries, the
//! gather ECC's scans use too, so the memory trace is
//! digit-independent. Results stay bit-identical to the unhardened
//! scan.
//!
//! [`try_modexp_many`] extends the batch to arbitrarily many lanes
//! through the one shard fan-out, [`crate::pool::try_sharded`]: each
//! [`EngineConfig::shard_lanes`]-wide shard runs on a warm engine from
//! the per-key pool — the many-client serving path under `mmm-rsa`'s
//! `KeyedSession`.

use crate::config::{EngineConfig, WindowPolicy};
use crate::error::{validate_reduced, MmmError};
use crate::expo_window::best_fixed_window;
use crate::montgomery::MontgomeryParams;
use crate::pool;
use crate::rows::{
    cond_sub_rows, gather, padded_limbs, row_count, try_mont_mul, FeRows, ROW_LANES,
};
use crate::scan::{run_windowed_scan, ScalarSet, WindowScanClient};
use crate::traits::BatchMontMul;
use crate::verify::VerifiedEngine;
use mmm_bigint::limbs::Limb;
use mmm_bigint::Ubig;

/// The modexp workload plugged into the lifted scan core
/// ([`crate::scan::run_windowed_scan`]): the accumulator is a batch of
/// resident Montgomery residues, doubling is a batched squaring,
/// combining is a multiply-always batched multiplication against the
/// power table. Digit selection stays in here — [`gather`], indexed
/// when plain and a masked sweep of every entry when hardened — so the
/// schedule-neutral driver never sees how secrets read memory.
struct ModexpScanClient<'e, E: BatchMontMul> {
    engine: &'e mut E,
    /// Batched power table `M̄^d`, `d < 2^w`, holding only the live
    /// lanes: row `j` of entry `d` is `table[(d·rows + j)·lanes..]`, so
    /// a narrow scan's table stays as small as its lanes (empty for
    /// all-zero exponent sets, where no entry would ever be read).
    table: Vec<Limb>,
    rows: usize,
    one_bar: Ubig,
    hardened: bool,
    /// The accumulator; squarings ping-pong with `next`.
    acc: FeRows,
    next: FeRows,
    multiplier: FeRows,
}

/// `out = a · b` on operands the scan produced itself: engine outputs
/// on validated lanes, which no rows entry rejects.
fn mul<E: BatchMontMul>(engine: &mut E, a: &FeRows, b: &FeRows, out: &mut FeRows) {
    try_mont_mul(engine, a, b, out).unwrap_or_else(|e| panic!("{e}"));
}

/// Appends the live lanes of `e` to a power table laid out as
/// [`ModexpScanClient::table`] describes.
fn push_entry(table: &mut Vec<Limb>, e: &FeRows) {
    for row in e.limbs().chunks_exact(ROW_LANES) {
        table.extend_from_slice(&row[..e.lanes()]);
    }
}

/// Lane `k` of `out` becomes entry `digits[k]` of a power table laid
/// out as [`ModexpScanClient::table`] describes, through [`gather`].
fn gather_entry(table: &[Limb], rows: usize, digits: &[usize], hardened: bool, out: &mut FeRows) {
    let lanes = digits.len();
    let row_of = |d: usize, j: usize| &table[(d * rows + j) * lanes..][..lanes];
    gather(table.len() / (rows * lanes), row_of, digits, hardened, out);
}

impl<E: BatchMontMul> WindowScanClient for ModexpScanClient<'_, E> {
    fn init(&mut self, digits: &[usize]) {
        if self.table.is_empty() {
            self.acc.broadcast(&self.one_bar, digits.len());
        } else {
            gather_entry(&self.table, self.rows, digits, self.hardened, &mut self.acc);
        }
    }

    fn double(&mut self) {
        mul(self.engine, &self.acc, &self.acc, &mut self.next);
        std::mem::swap(&mut self.acc, &mut self.next);
    }

    fn combine(&mut self, _set: usize, digits: &[usize]) {
        let m = &mut self.multiplier;
        gather_entry(&self.table, self.rows, digits, self.hardened, m);
        mul(self.engine, &self.acc, &self.multiplier, &mut self.next);
        std::mem::swap(&mut self.acc, &mut self.next);
    }
}

/// Statistics from one batched exponentiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchExpoStats {
    /// Batched squarings performed.
    pub squarings: u64,
    /// Batched multiplications performed (including the
    /// multiply-always steps, excluding table building and pre/post
    /// transforms).
    pub multiplications: u64,
    /// Multiply steps skipped because no lane had the bit (or window
    /// digit) set.
    pub skipped_multiplications: u64,
    /// Batched multiplications spent building the fixed-window power
    /// table (0 for the binary scan).
    pub table_muls: u64,
    /// Batched Montgomery multiplications total: squarings +
    /// multiplications + `table_muls` + pre/post transforms. This is
    /// the figure that reconciles with the
    /// [`crate::expo_window::expected_fixed_window_muls`] cost model.
    pub total_batch_muls: u64,
}

/// A batched modular exponentiator bound to a [`BatchMontMul`] engine.
#[derive(Debug, Clone)]
pub struct BatchModExp<E: BatchMontMul> {
    engine: E,
    stats: BatchExpoStats,
}

impl<E: BatchMontMul> BatchModExp<E> {
    /// Wraps an engine.
    pub fn new(engine: E) -> Self {
        BatchModExp {
            engine,
            stats: BatchExpoStats::default(),
        }
    }

    /// The engine's parameters.
    pub fn params(&self) -> &MontgomeryParams {
        self.engine.params()
    }

    /// Statistics accumulated since construction.
    pub fn stats(&self) -> BatchExpoStats {
        self.stats
    }

    /// Access to the underlying engine (e.g. for cycle counts).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Computes `ms[k] ^ es[k] mod N` for every lane `k` at once with
    /// the lockstep fixed-window scan; `window` is a fixed width in
    /// `1..=8` or [`WindowPolicy::Auto`], which picks the cost-model
    /// width for the longest exponent ([`best_fixed_window`]).
    ///
    /// Per lane, the batched table `M̄⁰ = 1̄, M̄¹, …, M̄^{2^w − 1}` is
    /// built first (`2^w − 2` batched multiplications — every digit
    /// value is materialized so digit selection never perturbs the
    /// schedule). The exponent is then scanned `w` bits at a time from
    /// the top: the leading window is a pure table lookup (squaring
    /// `1̄` would be wasted work), and each further window costs `w`
    /// batched squarings plus one multiply-always batched
    /// multiplication in which lane `k` selects `table[digit_k]` —
    /// digit-0 lanes pick `1̄`, so short-exponent lanes coast. Windows
    /// where **every** lane's digit is 0 are skipped (never under
    /// hardening). `w = 1` is Algorithm 3's square-and-multiply-always
    /// scan. A [`ScalarSet::Shared`] exponent is never cloned per
    /// lane: the scan reads its digits straight from the one value.
    /// Every engine call is a rows call
    /// ([`BatchMontMul::try_mont_mul_rows`]) on resident rows (see the
    /// module docs).
    ///
    /// Every input rejection is a typed [`MmmError`]: a per-lane
    /// exponent count that differs from `ms.len()`, a fixed window
    /// outside `1..=8`, an empty batch, more lanes than the engine
    /// accepts (at most 64, the width of a row), or a message `≥ N`
    /// (named by its lane).
    pub fn try_modexp(
        &mut self,
        ms: &[Ubig],
        es: ScalarSet<'_>,
        window: WindowPolicy,
    ) -> Result<Vec<Ubig>, MmmError> {
        if let ScalarSet::PerLane(es) = es {
            if ms.len() != es.len() {
                return Err(MmmError::LengthMismatch {
                    left: ms.len(),
                    right: es.len(),
                });
            }
        }
        let t = es.max_bit_len();
        let window = match window {
            WindowPolicy::Auto => best_fixed_window(t.max(1)),
            WindowPolicy::Fixed(w) if (1..=8).contains(&w) => w,
            WindowPolicy::Fixed(w) => return Err(MmmError::WindowOutOfRange { window: w }),
        };
        if ms.is_empty() {
            return Err(MmmError::EmptyBatch);
        }
        let max_lanes = self.engine.max_lanes().min(ROW_LANES);
        if ms.len() > max_lanes {
            return Err(MmmError::BatchTooWide {
                lanes: ms.len(),
                max_lanes,
            });
        }
        let params = self.engine.params().clone();
        let n = params.n();
        validate_reduced(n, ms)?;
        let (lanes, rows) = (ms.len(), row_count(&params));
        let zeros = || FeRows::zeros(rows, lanes);

        // The one load, then the pre-computation:
        // M̄_k = Mont(M_k, R² mod N) = M_k·R mod 2N.
        let mut konst = zeros();
        konst.broadcast(&params.r2_mod_n(), lanes);
        let mut mbar = zeros();
        try_mont_mul(&mut self.engine, &FeRows::load(rows, ms), &konst, &mut mbar)?;
        self.stats.total_batch_muls += 1;
        let one_bar = params.r_mod_n();

        // All-zero exponents (`t == 0`) skip the table build entirely
        // — the result is 1̄ per lane and no table entry would ever be
        // read.
        let table_len = if t == 0 { 0 } else { 1usize << window };

        // Batched power table: entry d is M̄^d, every d < 2^w, built in
        // `prev`/`next` and kept at its live lanes only.
        let mut table = Vec::with_capacity(table_len * rows * lanes);
        let (mut prev, mut next) = (zeros(), zeros());
        if table_len > 0 {
            prev.broadcast(&one_bar, lanes);
            push_entry(&mut table, &prev);
            push_entry(&mut table, &mbar);
            prev.clone_from(&mbar);
            for _ in 2..table_len {
                try_mont_mul(&mut self.engine, &prev, &mbar, &mut next)?;
                push_entry(&mut table, &next);
                std::mem::swap(&mut prev, &mut next);
                self.stats.table_muls += 1;
                self.stats.total_batch_muls += 1;
            }
        }

        // Under hardening every table read — leading window included —
        // is a masked sweep of the whole table, and the
        // skip-when-all-zero optimization is disabled (`never_skip`):
        // the schedule and the memory trace are identical for every
        // exponent of the same length.
        let hardened = self.engine.hardening().is_hardened();
        let mut client = ModexpScanClient {
            engine: &mut self.engine,
            table,
            rows,
            one_bar,
            hardened,
            acc: prev,
            next,
            multiplier: konst,
        };
        let scan = run_windowed_scan(&mut client, lanes, &[es], window, hardened);
        let ModexpScanClient {
            acc,
            next: mut out,
            multiplier: mut ones,
            ..
        } = client;
        self.stats.squarings += scan.doublings;
        self.stats.multiplications += scan.combines;
        self.stats.skipped_multiplications += scan.skipped_combines;
        self.stats.total_batch_muls += scan.doublings + scan.combines;

        // Post-processing: Mont(A, 1) ≤ N, equality only for A ≡ 0,
        // which the branchless final subtraction maps to 0 (a hardened
        // engine's output is canonical already); then the one store.
        ones.broadcast(&Ubig::one(), lanes);
        try_mont_mul(&mut self.engine, &acc, &ones, &mut out)?;
        self.stats.total_batch_muls += 1;
        cond_sub_rows(&padded_limbs(n, rows), out.limbs_mut());
        Ok(out.store())
    }

    /// [`BatchModExp::try_modexp`] with one exponent shared by every
    /// lane and a fixed window width.
    ///
    /// # Panics
    /// Panics with the [`MmmError`] text wherever `try_modexp` would
    /// return it.
    pub fn modexp_batch_shared_windowed(
        &mut self,
        ms: &[Ubig],
        e: &Ubig,
        window: usize,
    ) -> Vec<Ubig> {
        self.try_modexp(ms, ScalarSet::Shared(e), WindowPolicy::Fixed(window))
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// [`BatchModExp::try_modexp`] with one exponent shared by every
    /// lane and the auto-picked window width.
    ///
    /// # Panics
    /// Panics with the [`MmmError`] text wherever `try_modexp` would
    /// return it.
    pub fn modexp_batch_shared_auto(&mut self, ms: &[Ubig], e: &Ubig) -> Vec<Ubig> {
        self.try_modexp(ms, ScalarSet::Shared(e), WindowPolicy::Auto)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Total simulated cycles consumed by the engine, if it counts.
    pub fn consumed_cycles(&self) -> Option<u64> {
        self.engine.consumed_cycles()
    }
}

/// Modular exponentiation for any number of lanes, driven by an
/// [`EngineConfig`]: `ms[k] ^ es[k] mod N`, run through
/// [`pool::try_sharded`] in [`EngineConfig::shard_lanes`]-wide shards
/// fanned out across cores, each shard on a warm engine checked out of
/// the per-key [`pool`] and scanned by [`BatchModExp::try_modexp`] with
/// the configured window policy. Results keep input order and are
/// bit-identical across backends.
///
/// Dispatch is quarantine-aware ([`EngineConfig::run_kind`]), every
/// shard engine runs behind the policy-gated [`VerifiedEngine`]
/// self-check, and under
/// [`HardeningMode::Hardened`](crate::config::HardeningMode::Hardened)
/// each shard engine canonicalizes and the scan runs its constant-time
/// schedule.
///
/// Every input rejection is a typed [`MmmError`] — out-of-range
/// messages are reported with their index in `ms`, not shard-local.
/// Empty input is `Ok(vec![])`.
pub fn try_modexp_many(
    params: &MontgomeryParams,
    ms: &[Ubig],
    es: ScalarSet<'_>,
    config: &EngineConfig,
) -> Result<Vec<Ubig>, MmmError> {
    if let ScalarSet::PerLane(es) = es {
        if ms.len() != es.len() {
            return Err(MmmError::LengthMismatch {
                left: ms.len(),
                right: es.len(),
            });
        }
    }
    config.backend().ensure_supports(params)?;
    validate_reduced(params.n(), ms)?;
    let ctx = config.verify_context();
    let kind = config.run_kind(params);
    pool::try_sharded(params, kind, config, ms.len(), |engine, lanes| {
        let es = match es {
            ScalarSet::PerLane(es) => ScalarSet::PerLane(&es[lanes.clone()]),
            shared => shared,
        };
        BatchModExp::new(VerifiedEngine::new(engine, kind, ctx.clone())).try_modexp(
            &ms[lanes],
            es,
            config.window(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BitSlicedBatch, SequentialBatch};
    use crate::config::HardeningMode;
    use crate::engine::EngineKind;
    use crate::error::OperandBound;
    use crate::expo_window::expected_fixed_window_muls;
    use crate::modgen::random_safe_params;
    use crate::traits::SoftwareEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Algorithm 3's square-and-multiply-always scan.
    const BINARY: WindowPolicy = WindowPolicy::Fixed(1);

    #[test]
    fn batch_modexp_matches_modpow_per_lane_exponents() {
        let mut rng = StdRng::seed_from_u64(301);
        let p = random_safe_params(&mut rng, 64);
        let n = p.n().clone();
        let lanes = 17;
        let ms: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, &n))
            .collect();
        // Exponent lengths vary wildly across lanes, including zero.
        let es: Vec<Ubig> = (0..lanes)
            .map(|k| {
                if k == 0 {
                    Ubig::zero()
                } else {
                    Ubig::random_bits(&mut rng, 1 + 7 * k)
                }
            })
            .collect();
        let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        let got = me.try_modexp(&ms, ScalarSet::PerLane(&es), BINARY).unwrap();
        for k in 0..lanes {
            assert_eq!(got[k], ms[k].modpow(&es[k], &n), "lane {k}");
        }
    }

    #[test]
    fn works_over_any_batch_engine() {
        // The sequential adapter exercises the trait-genericity.
        let mut rng = StdRng::seed_from_u64(303);
        let p = random_safe_params(&mut rng, 24);
        let ms: Vec<Ubig> = (0..5)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let es: Vec<Ubig> = (0..5).map(|_| Ubig::random_bits(&mut rng, 24)).collect();
        let mut me = BatchModExp::new(SequentialBatch::new(SoftwareEngine::new(p.clone())));
        let got = me.try_modexp(&ms, ScalarSet::PerLane(&es), BINARY).unwrap();
        for k in 0..5 {
            assert_eq!(got[k], ms[k].modpow(&es[k], p.n()), "lane {k}");
        }
    }

    #[test]
    fn stats_reflect_multiply_always_schedule() {
        let mut rng = StdRng::seed_from_u64(304);
        let p = random_safe_params(&mut rng, 16);
        let ms = vec![Ubig::from(7u64), Ubig::from(11u64)];
        // Lane 0: e = 0b101 (3 bits); lane 1: e = 0b1 (1 bit).
        let es = vec![Ubig::from(0b101u64), Ubig::from(1u64)];
        let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        let got = me.try_modexp(&ms, ScalarSet::PerLane(&es), BINARY).unwrap();
        assert_eq!(got[0], ms[0].modpow(&es[0], p.n()));
        assert_eq!(got[1], ms[1].modpow(&es[1], p.n()));
        let s = me.stats();
        // 3 bit positions: the top one is a table lookup, the other
        // two cost a squaring each; bit 1 is clear in both lanes, so
        // its multiply step is skipped and only bit 0 multiplies.
        assert_eq!(s.squarings, 2);
        assert_eq!(s.multiplications, 1);
        assert_eq!(s.skipped_multiplications, 1);
        assert_eq!(s.table_muls, 0, "the w = 1 table is just 1̄ and M̄");
        // pre + 2 + 1 + post.
        assert_eq!(s.total_batch_muls, 5);
    }

    #[test]
    fn zero_exponents_give_one() {
        let mut rng = StdRng::seed_from_u64(305);
        let p = random_safe_params(&mut rng, 12);
        let ms = vec![Ubig::from(5u64), Ubig::zero()];
        let es = vec![Ubig::zero(), Ubig::zero()];
        let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        assert_eq!(
            me.try_modexp(&ms, ScalarSet::PerLane(&es), BINARY).unwrap(),
            vec![Ubig::one(), Ubig::one()]
        );
    }

    #[test]
    fn sharded_many_matches_modpow() {
        let mut rng = StdRng::seed_from_u64(306);
        let p = random_safe_params(&mut rng, 20);
        let config = EngineConfig::default();
        for count in [1usize, 63, 64, 65, 150] {
            let ms: Vec<Ubig> = (0..count)
                .map(|_| Ubig::random_below(&mut rng, p.n()))
                .collect();
            let es: Vec<Ubig> = (0..count)
                .map(|_| Ubig::random_bits(&mut rng, 20))
                .collect();
            let got = try_modexp_many(&p, &ms, ScalarSet::PerLane(&es), &config).unwrap();
            assert_eq!(got.len(), count);
            for k in 0..count {
                assert_eq!(got[k], ms[k].modpow(&es[k], p.n()), "count={count} k={k}");
            }
        }
    }

    #[test]
    fn shared_windowed_scan_matches_per_lane_clones() {
        // The shared-exponent scan must be bit-identical to feeding
        // every lane a clone of the exponent (the layout it replaced).
        let mut rng = StdRng::seed_from_u64(317);
        let p = random_safe_params(&mut rng, 40);
        let ms: Vec<Ubig> = (0..7)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        for e in [
            Ubig::zero(),
            Ubig::from(65537u64),
            Ubig::random_bits(&mut rng, 40),
        ] {
            let es = vec![e.clone(); ms.len()];
            for w in [1usize, 3, 5] {
                let mut shared = BatchModExp::new(BitSlicedBatch::new(p.clone()));
                let mut cloned = BatchModExp::new(BitSlicedBatch::new(p.clone()));
                assert_eq!(
                    shared.modexp_batch_shared_windowed(&ms, &e, w),
                    cloned
                        .try_modexp(&ms, ScalarSet::PerLane(&es), WindowPolicy::Fixed(w))
                        .unwrap(),
                    "w={w}"
                );
                // Identical schedule, not just identical results.
                assert_eq!(shared.stats(), cloned.stats(), "w={w}");
            }
            let mut auto_shared = BatchModExp::new(BitSlicedBatch::new(p.clone()));
            let mut auto_cloned = BatchModExp::new(BitSlicedBatch::new(p.clone()));
            assert_eq!(
                auto_shared.modexp_batch_shared_auto(&ms, &e),
                auto_cloned
                    .try_modexp(&ms, ScalarSet::PerLane(&es), WindowPolicy::Auto)
                    .unwrap()
            );
        }
    }

    #[test]
    fn shared_exponent_matches_per_lane_path() {
        let mut rng = StdRng::seed_from_u64(308);
        let p = random_safe_params(&mut rng, 20);
        let e = Ubig::from(65537u64);
        let config = EngineConfig::default();
        for count in [1usize, 64, 130] {
            let ms: Vec<Ubig> = (0..count)
                .map(|_| Ubig::random_below(&mut rng, p.n()))
                .collect();
            let es = vec![e.clone(); count];
            assert_eq!(
                try_modexp_many(&p, &ms, ScalarSet::Shared(&e), &config).unwrap(),
                try_modexp_many(&p, &ms, ScalarSet::PerLane(&es), &config).unwrap(),
                "count={count}"
            );
        }
    }

    #[test]
    fn windowed_matches_modpow_all_window_widths() {
        let mut rng = StdRng::seed_from_u64(310);
        let p = random_safe_params(&mut rng, 48);
        let n = p.n().clone();
        let lanes = 9;
        let ms: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, &n))
            .collect();
        // Exponent lengths vary wildly across lanes, including zero.
        let es: Vec<Ubig> = (0..lanes)
            .map(|k| Ubig::random_bits(&mut rng, (k * 11) % 49))
            .collect();
        for w in 1..=6 {
            let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
            let got = me
                .try_modexp(&ms, ScalarSet::PerLane(&es), WindowPolicy::Fixed(w))
                .unwrap();
            for k in 0..lanes {
                assert_eq!(got[k], ms[k].modpow(&es[k], &n), "w={w} lane {k}");
            }
        }
    }

    #[test]
    fn windowed_agrees_with_multiply_always_and_auto() {
        let mut rng = StdRng::seed_from_u64(311);
        let p = random_safe_params(&mut rng, 40);
        let ms: Vec<Ubig> = (0..7)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let es: Vec<Ubig> = (0..7).map(|_| Ubig::random_bits(&mut rng, 40)).collect();
        let es = ScalarSet::PerLane(&es);
        let run = |window| {
            BatchModExp::new(BitSlicedBatch::new(p.clone()))
                .try_modexp(&ms, es, window)
                .unwrap()
        };
        let want = run(BINARY);
        assert_eq!(run(WindowPolicy::Fixed(4)), want);
        assert_eq!(run(WindowPolicy::Auto), want);
    }

    #[test]
    fn windowed_works_over_any_batch_engine() {
        let mut rng = StdRng::seed_from_u64(312);
        let p = random_safe_params(&mut rng, 24);
        let ms: Vec<Ubig> = (0..5)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let es: Vec<Ubig> = (0..5).map(|_| Ubig::random_bits(&mut rng, 24)).collect();
        let mut me = BatchModExp::new(SequentialBatch::new(SoftwareEngine::new(p.clone())));
        let got = me
            .try_modexp(&ms, ScalarSet::PerLane(&es), WindowPolicy::Fixed(3))
            .unwrap();
        for k in 0..5 {
            assert_eq!(got[k], ms[k].modpow(&es[k], p.n()), "lane {k}");
        }
    }

    #[test]
    fn windowed_stats_reconcile_with_cost_model() {
        let mut rng = StdRng::seed_from_u64(313);
        let p = random_safe_params(&mut rng, 128);
        let lanes = 64;
        let ms: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let mut es: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_bits(&mut rng, 128))
            .collect();
        es[0].set_bit(127, true); // pin the batch's top bit
        let w = 4;
        let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        me.try_modexp(&ms, ScalarSet::PerLane(&es), WindowPolicy::Fixed(w))
            .unwrap();
        let s = me.stats();
        // Internal consistency: the total is the sum of its parts
        // plus the two domain transforms.
        assert_eq!(
            s.total_batch_muls,
            s.squarings + s.multiplications + s.table_muls + 2
        );
        assert_eq!(s.table_muls, (1 << w) - 2);
        // With 64 full-length random exponents no window is all-zero,
        // so the measured count hits the analytic model exactly.
        assert_eq!(s.skipped_multiplications, 0);
        assert_eq!(
            s.total_batch_muls as f64,
            expected_fixed_window_muls(128, w)
        );
    }

    #[test]
    fn windowed_zero_exponents_give_one() {
        let mut rng = StdRng::seed_from_u64(314);
        let p = random_safe_params(&mut rng, 12);
        let ms = vec![Ubig::from(5u64), Ubig::zero()];
        let es = vec![Ubig::zero(), Ubig::zero()];
        let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        assert_eq!(
            me.try_modexp(&ms, ScalarSet::PerLane(&es), WindowPolicy::Fixed(5))
                .unwrap(),
            vec![Ubig::one(), Ubig::one()]
        );
        // No power table is built for an all-zero batch: just the two
        // domain transforms, as the t = 0 cost model says.
        let s = me.stats();
        assert_eq!(s.table_muls, 0);
        assert_eq!(s.total_batch_muls, 2);
    }

    #[test]
    fn windowed_cuts_batched_muls_at_rsa_sizes() {
        // The headline saving: ≥ 30% fewer batched multiplications at
        // t = 512 with the auto-picked window (counted, not timed).
        let mut rng = StdRng::seed_from_u64(315);
        let p = random_safe_params(&mut rng, 512);
        let ms: Vec<Ubig> = (0..8)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let mut es: Vec<Ubig> = (0..8).map(|_| Ubig::random_bits(&mut rng, 512)).collect();
        es[0].set_bit(511, true);
        let engine = SequentialBatch::new(SoftwareEngine::new(p.clone()));
        let mut binary = BatchModExp::new(engine.clone());
        let want = binary
            .try_modexp(&ms, ScalarSet::PerLane(&es), BINARY)
            .unwrap();
        let mut windowed = BatchModExp::new(engine);
        let got = windowed
            .try_modexp(&ms, ScalarSet::PerLane(&es), WindowPolicy::Auto)
            .unwrap();
        assert_eq!(got, want);
        let nb = binary.stats().total_batch_muls;
        let nw = windowed.stats().total_batch_muls;
        assert!(
            (nw as f64) < nb as f64 * 0.70,
            "windowed {nw} vs multiply-always {nb}"
        );
    }

    #[test]
    fn hardened_scan_is_bit_identical_and_never_skips() {
        let mut rng = StdRng::seed_from_u64(318);
        let p = random_safe_params(&mut rng, 48);
        let lanes = 6;
        let ms: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        // Mixed exponent lengths, including zero and sparse values —
        // the cases where the unhardened scan skips steps.
        let es: Vec<Ubig> = vec![
            Ubig::zero(),
            Ubig::one(),
            Ubig::from(0b1000_0001u64),
            Ubig::random_bits(&mut rng, 13),
            Ubig::random_bits(&mut rng, 48),
            Ubig::from(65537u64),
        ];
        for kind in EngineKind::ALL {
            for w in [1usize, 3, 4] {
                let mut hard_engine = kind.build(p.clone());
                hard_engine.set_hardening(HardeningMode::Hardened);
                let mut hard = BatchModExp::new(hard_engine);
                let mut plain = BatchModExp::new(kind.build(p.clone()));
                let window = WindowPolicy::Fixed(w);
                assert_eq!(
                    hard.try_modexp(&ms, ScalarSet::PerLane(&es), window)
                        .unwrap(),
                    plain
                        .try_modexp(&ms, ScalarSet::PerLane(&es), window)
                        .unwrap(),
                    "{} w={w}",
                    kind.name()
                );
                assert_eq!(
                    hard.stats().skipped_multiplications,
                    0,
                    "{} w={w}",
                    kind.name()
                );
                if w == 1 {
                    // The sparse bits leave all-clear positions that
                    // only the unhardened scan skips.
                    assert!(plain.stats().skipped_multiplications > 0, "{}", kind.name());
                }
            }
        }
    }

    #[test]
    fn hardened_shared_scan_matches_per_lane() {
        let mut rng = StdRng::seed_from_u64(319);
        let p = random_safe_params(&mut rng, 40);
        let ms: Vec<Ubig> = (0..5)
            .map(|_| Ubig::random_below(&mut rng, p.n()))
            .collect();
        let e = Ubig::random_bits(&mut rng, 40);
        let mut hard_engine = BitSlicedBatch::new(p.clone());
        hard_engine.set_hardening(HardeningMode::Hardened);
        let mut hard = BatchModExp::new(hard_engine);
        let got = hard.modexp_batch_shared_auto(&ms, &e);
        for k in 0..ms.len() {
            assert_eq!(got[k], ms[k].modpow(&e, p.n()), "lane {k}");
        }
    }

    #[test]
    fn windowed_rejects_bad_width() {
        let mut rng = StdRng::seed_from_u64(316);
        let p = random_safe_params(&mut rng, 8);
        let one = [Ubig::one()];
        let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        for window in [0usize, 9] {
            assert_eq!(
                me.try_modexp(&one, ScalarSet::PerLane(&one), WindowPolicy::Fixed(window)),
                Err(MmmError::WindowOutOfRange { window })
            );
        }
    }

    #[test]
    fn rejects_unreduced_message() {
        let mut rng = StdRng::seed_from_u64(307);
        let p = random_safe_params(&mut rng, 8);
        let ms = [Ubig::one(), p.n().clone()];
        let two = Ubig::from(2u64);
        let mut me = BatchModExp::new(BitSlicedBatch::new(p.clone()));
        assert_eq!(
            me.try_modexp(&ms, ScalarSet::Shared(&two), BINARY),
            Err(MmmError::OperandOutOfRange {
                lane: 1,
                bound: OperandBound::N,
            })
        );
    }
}
