//! The workload-neutral fixed-window scan core: the lockstep k-ary
//! left-to-right schedule that [`crate::expo_batch`] built for RSA,
//! lifted out so **any** group operation can drive it.
//!
//! The scan is generic over the group: it never touches a Montgomery
//! engine, a power table, or a point table. It only decides *when* the
//! group operations run — which is exactly the part that must be
//! shared for "one array, many workloads" to hold:
//!
//! * [`ScalarSet`] — the scalars driving the lanes, per-lane or shared
//!   (one key, many requests), with window-digit extraction;
//! * [`WindowScanClient`] — what a workload plugs in: initialize the
//!   accumulator from the top window's digits, double it (batched
//!   squaring for modexp, batched point doubling for ECC), and combine
//!   it with the table entries the current digits select;
//! * [`run_windowed_scan`] — the driver producing the schedule:
//!   `⌈t/w⌉` windows, the top one a pure table lookup, each further
//!   one `w` doubles plus one combine per scalar set, skipped when
//!   every lane's digit is zero — unless `never_skip` (the hardened
//!   mode contract) forces the combine on every window.
//!
//! The driver takes **one or more** scalar sets over one accumulator
//! (Straus–Shamir interleaving): each window's `w` doubles are shared
//! by every set, followed by one combine per set against that set's
//! own table. One set is the plain scan — RSA and single-scalar ECC
//! run exactly that schedule; two sets compute `[u1]P1 + [u2]P2` (or
//! `b1^e1 · b2^e2`) for the price of one run of doublings.
//!
//! The cost model lives here too, in group-operation counts
//! ([`fixed_window_schedule`]) with a weighted argmin
//! ([`best_fixed_window_weighted`]) so each workload can price the
//! operations in its own currency: for modexp a table entry, a double
//! and a combine all cost one batched multiplication; for Jacobian ECC
//! a double costs 10 field multiplications (4M + 6S in `dbl-1998-cmo-2`)
//! and an add 16 (12M + 4S in `add-1998-cmo-2`). The RSA cost model
//! ([`crate::expo_window::expected_fixed_window_muls`] /
//! [`crate::expo_window::best_fixed_window`]) is the unit-weight
//! instance of this one, so both paths keep a single tuning policy
//! and the RSA schedules are bit-identical to the pre-lift code
//! (pinned by the `BatchExpoStats` reconciliation tests).

use mmm_bigint::Ubig;

/// The scalars of one batched scan: either one scalar per lane or a
/// single scalar shared by every lane. The shared form exists so a
/// serving path never materializes 64 clones of a private exponent
/// per shard just to satisfy a per-lane signature.
#[derive(Debug, Clone, Copy)]
pub enum ScalarSet<'a> {
    /// `ks[k]` drives lane `k`.
    PerLane(&'a [Ubig]),
    /// One scalar drives every lane.
    Shared(&'a Ubig),
}

impl ScalarSet<'_> {
    /// The scalar feeding lane `k`.
    pub fn get(&self, k: usize) -> &Ubig {
        match self {
            ScalarSet::PerLane(ks) => &ks[k],
            ScalarSet::Shared(k0) => k0,
        }
    }

    /// Bit length of the longest scalar in the set.
    pub fn max_bit_len(&self) -> usize {
        match self {
            ScalarSet::PerLane(ks) => ks.iter().map(Ubig::bit_len).max().unwrap_or(0),
            ScalarSet::Shared(k0) => k0.bit_len(),
        }
    }

    /// Window digit of lane `k` at window index `win`: the bits
    /// `[win·w, win·w + w)` of the lane's scalar, MSB first (zero
    /// beyond the scalar's length).
    pub fn digit(&self, k: usize, win: usize, window: usize) -> usize {
        let base = win * window;
        let scalar = self.get(k);
        (0..window)
            .rev()
            .fold(0usize, |d, b| (d << 1) | usize::from(scalar.bit(base + b)))
    }
}

/// What a workload plugs into the scan: the three group-operation
/// hooks the driver schedules. The client owns the accumulator and one
/// precomputed table per scalar set (powers for modexp, point
/// multiples for ECC); the driver only tells it when to act and which
/// (secret) digits select table entries — *how* the selection reads
/// memory (direct index or constant-time full-table sweep) stays the
/// client's business.
pub trait WindowScanClient {
    /// Initializes the accumulator from **set 0**'s top-window digits:
    /// lane `k` becomes its table entry for `digits[k]` (digit 0 is
    /// the group identity). Called exactly once, before any
    /// [`WindowScanClient::double`]. When every scalar set is all-zero
    /// the driver still calls this with all-zero digits and then runs
    /// no further steps, so clients must map digit 0 to the identity
    /// even when they built no table.
    fn init(&mut self, digits: &[usize]);

    /// One batched doubling of the accumulator (squaring for modexp,
    /// point doubling for ECC).
    fn double(&mut self);

    /// One batched combine with scalar set `set`'s table: lane `k` of
    /// the accumulator absorbs that table's entry for `digits[k]`
    /// (digit-0 lanes absorb the identity, keeping the lockstep
    /// schedule uniform). Single-set scans only ever pass `set == 0`.
    fn combine(&mut self, set: usize, digits: &[usize]);
}

/// The schedule actually executed by one [`run_windowed_scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Batched doublings performed (`w` per non-top window).
    pub doublings: u64,
    /// Batched combines performed.
    pub combines: u64,
    /// Combine steps skipped because every lane's digit was 0 (always
    /// 0 under `never_skip`).
    pub skipped_combines: u64,
}

/// Drives one lockstep fixed-window scan of the scalar sets `sets`
/// over one accumulator of `lanes` lanes: extracts the window digits
/// of every lane, initializes the client from set 0's top window, then
/// per lower window issues `window` doubles shared by all the sets and
/// one combine per set — each skipped when all of that set's digits
/// are zero, unless `never_skip` (the hardened-mode contract: the
/// schedule must not depend on the OR of the lanes' secret digits).
/// Sets after the first fold their top-window digits in with a combine
/// straight after `init`. The windows span the longest scalar of any
/// set. With one set this is the plain windowed scan.
///
/// The caller validates `window ∈ [1, 8]` and the lane shapes; this
/// driver is schedule-only and `debug_assert!`s the window range and
/// that `sets` is non-empty.
pub fn run_windowed_scan<C: WindowScanClient>(
    client: &mut C,
    lanes: usize,
    sets: &[ScalarSet<'_>],
    window: usize,
    never_skip: bool,
) -> ScanStats {
    debug_assert!((1..=8).contains(&window), "window must be in 1..=8");
    debug_assert!(!sets.is_empty(), "at least one scalar set");
    let mut stats = ScanStats::default();
    let t = sets.iter().map(ScalarSet::max_bit_len).max().unwrap_or(0);
    let windows = t.div_ceil(window);

    let mut digits = vec![0usize; lanes];
    let fill = |digits: &mut [usize], set: &ScalarSet<'_>, win: usize| {
        for (k, d) in digits.iter_mut().enumerate() {
            *d = set.digit(k, win, window);
        }
    };

    // Top window: a pure table lookup (doubling the identity would be
    // wasted work). All-zero scalar sets (`windows == 0`) initialize
    // every lane to the identity and run nothing else.
    if windows == 0 {
        client.init(&digits);
        return stats;
    }
    fill(&mut digits, &sets[0], windows - 1);
    client.init(&digits);

    // One combine per set from `first` on, at window `win`.
    let mut combine_sets = |client: &mut C, stats: &mut ScanStats, win: usize, first: usize| {
        for (s, set) in sets.iter().enumerate().skip(first) {
            fill(&mut digits, set, win);
            if never_skip || digits.iter().any(|&d| d != 0) {
                client.combine(s, &digits);
                stats.combines += 1;
            } else {
                stats.skipped_combines += 1;
            }
        }
    };
    combine_sets(client, &mut stats, windows - 1, 1);
    for win in (0..windows - 1).rev() {
        for _ in 0..window {
            client.double();
            stats.doublings += 1;
        }
        combine_sets(client, &mut stats, win, 0);
    }
    stats
}

/// The group-operation counts of a full (skip-free) `w`-window scan of
/// a `t`-bit scalar — the workload-neutral cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedWindowSchedule {
    /// Table entries built beyond the free ones (the identity and the
    /// base itself): `2^w − 2`, every digit value materialized so
    /// digit selection never perturbs the schedule.
    pub table_entries: u64,
    /// Doublings: `(⌈t/w⌉ − 1)·w` (the top window is a table lookup).
    pub doublings: u64,
    /// Combine steps: `⌈t/w⌉ − 1`, charged for *every* window because
    /// lanes run in lockstep and a window is only skippable when all
    /// lanes have digit 0.
    pub combines: u64,
}

/// Computes the [`FixedWindowSchedule`] for a `t`-bit scalar at window
/// width `w ∈ [1, 8]`. A zero-bit scalar runs nothing.
///
/// # Panics
/// Panics if `w ∉ [1, 8]`.
pub fn fixed_window_schedule(t: usize, w: usize) -> FixedWindowSchedule {
    assert!((1..=8).contains(&w), "window must be in 1..=8");
    if t == 0 {
        return FixedWindowSchedule {
            table_entries: 0,
            doublings: 0,
            combines: 0,
        };
    }
    let windows = t.div_ceil(w);
    FixedWindowSchedule {
        table_entries: (1u64 << w) - 2,
        doublings: ((windows - 1) * w) as u64,
        combines: (windows - 1) as u64,
    }
}

/// The window width `w ∈ [1, 8]` minimizing the weighted cost
/// `table_entries·table_cost + doublings·double_cost +
/// combines·combine_cost` of [`fixed_window_schedule`] for a `t`-bit
/// scalar. Ties break toward the smaller width (first minimum), so
/// the unit-weight instance reproduces
/// [`crate::expo_window::best_fixed_window`] exactly.
pub fn best_fixed_window_weighted(
    t: usize,
    table_cost: f64,
    double_cost: f64,
    combine_cost: f64,
) -> usize {
    let cost = |w: usize| -> f64 {
        let s = fixed_window_schedule(t, w);
        s.table_entries as f64 * table_cost
            + s.doublings as f64 * double_cost
            + s.combines as f64 * combine_cost
    };
    (1..=8)
        .min_by(|&a, &b| cost(a).partial_cmp(&cost(b)).unwrap())
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny test client over u64 multiplication mod 2^64: one table
    /// of base^d per scalar set, double squares, combine multiplies —
    /// enough to pin the schedule without any engine.
    struct U64Client {
        tables: Vec<Vec<Vec<u64>>>, // tables[s][d][k] = base_{s,k}^d
        acc: Vec<u64>,
        log: Vec<String>,
    }

    impl U64Client {
        fn new(bases: &[u64], window: usize, t: usize) -> Self {
            Self::with_sets(&[bases], window, t)
        }

        fn with_sets(sets: &[&[u64]], window: usize, t: usize) -> Self {
            let len = if t == 0 { 0 } else { 1usize << window };
            let tables = sets
                .iter()
                .map(|bases| {
                    (0..len)
                        .map(|d| bases.iter().map(|b| b.wrapping_pow(d as u32)).collect())
                        .collect()
                })
                .collect();
            U64Client {
                tables,
                acc: vec![1; sets[0].len()],
                log: Vec::new(),
            }
        }
    }

    impl WindowScanClient for U64Client {
        fn init(&mut self, digits: &[usize]) {
            self.log.push(format!("init{digits:?}"));
            for (k, &d) in digits.iter().enumerate() {
                self.acc[k] = if self.tables[0].is_empty() {
                    1
                } else {
                    self.tables[0][d][k]
                };
            }
        }
        fn double(&mut self) {
            self.log.push("dbl".into());
            for a in &mut self.acc {
                *a = a.wrapping_mul(*a);
            }
        }
        fn combine(&mut self, set: usize, digits: &[usize]) {
            self.log.push(format!("comb{set}{digits:?}"));
            for (k, &d) in digits.iter().enumerate() {
                self.acc[k] = self.acc[k].wrapping_mul(self.tables[set][d][k]);
            }
        }
    }

    #[test]
    fn scan_computes_powers() {
        let bases = [3u64, 7, 1, 10];
        let exps = [
            Ubig::from(29u64),
            Ubig::zero(),
            Ubig::from(5u64),
            Ubig::from(64u64),
        ];
        for w in 1..=5 {
            let mut client = U64Client::new(&bases, w, 7);
            let stats = run_windowed_scan(&mut client, 4, &[ScalarSet::PerLane(&exps)], w, false);
            for (k, b) in bases.iter().enumerate() {
                let e = exps[k].to_u64().unwrap() as u32;
                assert_eq!(client.acc[k], b.wrapping_pow(e), "w={w} lane {k}");
            }
            assert_eq!(stats.doublings % w as u64, 0);
        }
    }

    #[test]
    fn shared_matches_per_lane_clones_schedule_and_result() {
        let bases = [3u64, 5, 9];
        let e = Ubig::from(0b1011_0110u64);
        let es = vec![e.clone(); 3];
        for w in [1usize, 3, 4] {
            let mut a = U64Client::new(&bases, w, e.bit_len());
            let sa = run_windowed_scan(&mut a, 3, &[ScalarSet::Shared(&e)], w, false);
            let mut b = U64Client::new(&bases, w, e.bit_len());
            let sb = run_windowed_scan(&mut b, 3, &[ScalarSet::PerLane(&es)], w, false);
            assert_eq!(a.acc, b.acc, "w={w}");
            assert_eq!(sa, sb, "w={w}");
            assert_eq!(a.log, b.log, "w={w}: identical call sequence");
        }
    }

    #[test]
    fn single_set_call_log_and_stats_are_pinned() {
        // e = 29 = 0b11101 and 6 = 0b00110 at w = 2: windows (MSB
        // first) [01, 11, 01] and [00, 01, 10]. One set is the plain
        // scan: init from the top window, then two doubles and one
        // combine per lower window.
        let es = [Ubig::from(29u64), Ubig::from(6u64)];
        let mut client = U64Client::new(&[3, 5], 2, 5);
        let stats = run_windowed_scan(&mut client, 2, &[ScalarSet::PerLane(&es)], 2, false);
        assert_eq!(
            client.log,
            [
                "init[1, 0]",
                "dbl",
                "dbl",
                "comb0[3, 1]",
                "dbl",
                "dbl",
                "comb0[1, 2]"
            ]
        );
        assert_eq!(
            stats,
            ScanStats {
                doublings: 4,
                combines: 2,
                skipped_combines: 0,
            }
        );
        assert_eq!(client.acc, vec![3u64.pow(29), 5u64.pow(6)]);
    }

    #[test]
    fn two_sets_compute_joint_powers() {
        // b1^e1 · b2^e2 per lane, with sets of different lengths, zero
        // scalars in either set, and a shared second set.
        let b1 = [3u64, 7, 1, 10, 5];
        let b2 = [11u64, 2, 9, 4, 13];
        let e1 = [29u64, 0, 5, 64, 0];
        let e2 = [1000u64, 77, 0, 3, 0];
        let (e1s, e2s) = (e1.map(Ubig::from), e2.map(Ubig::from));
        let shared = Ubig::from(22u64);
        let cases = [
            (ScalarSet::PerLane(&e2s), e2),
            (ScalarSet::Shared(&shared), [22; 5]),
        ];
        for w in 1..=5 {
            for &(second, e2) in &cases {
                let sets = [ScalarSet::PerLane(&e1s), second];
                let t = sets.iter().map(ScalarSet::max_bit_len).max().unwrap();
                for never_skip in [false, true] {
                    let mut client = U64Client::with_sets(&[&b1, &b2], w, t);
                    let stats = run_windowed_scan(&mut client, 5, &sets, w, never_skip);
                    for k in 0..5 {
                        let want = b1[k]
                            .wrapping_pow(e1[k] as u32)
                            .wrapping_mul(b2[k].wrapping_pow(e2[k] as u32));
                        assert_eq!(client.acc[k], want, "w={w} lane {k}");
                    }
                    // The doubles are shared: one run for both sets.
                    let model = fixed_window_schedule(t, w);
                    assert_eq!(stats.doublings, model.doublings, "w={w}");
                    assert_eq!(
                        stats.combines + stats.skipped_combines,
                        2 * model.combines + 1,
                        "w={w}: one combine per set per lower window, plus set 1's top window"
                    );
                    if never_skip {
                        assert_eq!(stats.skipped_combines, 0, "w={w}");
                    }
                }
            }
        }
    }

    #[test]
    fn never_skip_combines_an_all_zero_set() {
        // Set 0 is zero on every lane: the plain scan skips all of its
        // combines (init still loads the identity), the never-skip scan
        // runs them with digit 0 — same results.
        let zeros = [Ubig::zero(), Ubig::zero()];
        let es = [Ubig::from(13u64), Ubig::from(2u64)];
        let sets = [ScalarSet::PerLane(&zeros), ScalarSet::PerLane(&es)];
        let mut plain = U64Client::with_sets(&[&[5, 6], &[3, 7]], 2, 4);
        let sp = run_windowed_scan(&mut plain, 2, &sets, 2, false);
        let mut hard = U64Client::with_sets(&[&[5, 6], &[3, 7]], 2, 4);
        let sh = run_windowed_scan(&mut hard, 2, &sets, 2, true);
        assert_eq!(plain.acc, vec![3u64.pow(13), 49]);
        assert_eq!(plain.acc, hard.acc);
        assert_eq!(
            plain.log,
            ["init[0, 0]", "comb1[3, 0]", "dbl", "dbl", "comb1[1, 2]"]
        );
        assert_eq!(sp.skipped_combines, 1);
        assert_eq!(sh.skipped_combines, 0);
        assert_eq!(sh.combines, sp.combines + sp.skipped_combines);
    }

    #[test]
    fn zero_scalars_initialize_identity_and_run_nothing() {
        let mut client = U64Client::new(&[9, 4], 4, 0);
        let stats = run_windowed_scan(
            &mut client,
            2,
            &[ScalarSet::PerLane(&[Ubig::zero(), Ubig::zero()])],
            4,
            false,
        );
        assert_eq!(client.acc, vec![1, 1]);
        assert_eq!(stats, ScanStats::default());
        assert_eq!(client.log, vec!["init[0, 0]"]);
    }

    #[test]
    fn never_skip_forces_every_combine() {
        // A sparse scalar with all-zero windows: the plain scan skips
        // them, the never-skip scan combines on every window — same
        // results.
        let bases = [6u64];
        let e = Ubig::from(1u64 << 12); // digits 1,0,0,0 at w=3
        for w in [2usize, 3] {
            let mut plain = U64Client::new(&bases, w, e.bit_len());
            let sp = run_windowed_scan(&mut plain, 1, &[ScalarSet::Shared(&e)], w, false);
            let mut hard = U64Client::new(&bases, w, e.bit_len());
            let sh = run_windowed_scan(&mut hard, 1, &[ScalarSet::Shared(&e)], w, true);
            assert_eq!(plain.acc, hard.acc, "w={w}");
            assert!(sp.skipped_combines > 0, "w={w}");
            assert_eq!(sh.skipped_combines, 0, "w={w}");
            assert_eq!(sh.combines, sp.combines + sp.skipped_combines, "w={w}");
        }
    }

    #[test]
    fn schedule_counts_match_driver() {
        let bases = [3u64; 5];
        for (t, w) in [(64usize, 4usize), (33, 5), (7, 1), (8, 8)] {
            let mut es: Vec<Ubig> = (0..5).map(|k| Ubig::from((k as u64) + 2)).collect();
            // Pin the max bit length to exactly t.
            es[0] = {
                let mut v = Ubig::from(0b101u64);
                v.set_bit(t - 1, true);
                v
            };
            let mut client = U64Client::new(&bases, w, t);
            let stats = run_windowed_scan(&mut client, 5, &[ScalarSet::PerLane(&es)], w, true);
            let model = fixed_window_schedule(t, w);
            assert_eq!(stats.doublings, model.doublings, "t={t} w={w}");
            assert_eq!(stats.combines, model.combines, "t={t} w={w}");
        }
    }

    #[test]
    fn weighted_window_grows_with_combine_cost() {
        // The pricier a combine relative to a double, the wider the
        // window should go (fewer combines, same doublings).
        let cheap = best_fixed_window_weighted(256, 16.0, 7.0, 16.0);
        let unit = best_fixed_window_weighted(256, 1.0, 1.0, 1.0);
        assert!(cheap >= unit, "ECC weighting {cheap} vs unit {unit}");
        assert!((1..=8).contains(&cheap));
    }

    #[test]
    fn digit_extraction_matches_bits() {
        let k = Ubig::from(0b1101_0110_1011u64);
        let set = ScalarSet::Shared(&k);
        assert_eq!(set.digit(0, 0, 4), 0b1011);
        assert_eq!(set.digit(0, 1, 4), 0b0110);
        assert_eq!(set.digit(0, 2, 4), 0b1101);
        assert_eq!(set.digit(0, 3, 4), 0);
        // Shared sets ignore the lane index.
        assert_eq!(set.digit(17, 1, 4), 0b0110);
    }
}
