//! Lane transposition.
//!
//! * [`transpose64`] — the in-place 64×64 bit-matrix transpose (the
//!   recursive block-swap network of Hacker's Delight §7-3, six levels
//!   of masked swaps). The bit-sliced batch engine (`mmm-core::batch`)
//!   keeps the state of up to 64 *independent* Montgomery
//!   multiplications as one `u64` per bit *position*, whose bit `k`
//!   belongs to lane `k`; one `transpose64` turns a 64-lane row of
//!   limbs into 64 such words, so a 64-lane × 1024-bit operand is ~16
//!   block transposes — noise next to the `3l+4` simulated cycles it
//!   feeds. [`rows_to_slices`] / [`slices_to_rows`] are those row ↔
//!   bit-slice conversions.
//! * [`lanes_to_limbs_into`] / [`limbs_to_lanes_into`] — the
//!   **word-granularity** struct-of-arrays view the batch engines'
//!   limb rows use: one `u64` per *(limb, lane)* pair with the lane
//!   index contiguous, so the CIOS inner multiply-accumulate runs
//!   unit-stride across lanes.

use crate::limbs::LIMB_BITS;
use crate::ubig::Ubig;

/// In-place 64×64 bit-matrix transpose: afterwards, bit `j` of `a[i]`
/// is the old bit `i` of `a[j]`.
pub fn transpose64(a: &mut [u64; 64]) {
    // Swap progressively smaller off-diagonal blocks: 32×32 halves,
    // then 16×16 quarters within each half, … down to single bits.
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    loop {
        let mut k = 0usize;
        while k < 64 {
            if k & j == 0 {
                let t = ((a[k] >> j) ^ a[k + j]) & m;
                a[k] ^= t << j;
                a[k + j] ^= t;
            }
            k += 1;
        }
        j >>= 1;
        if j == 0 {
            break;
        }
        m ^= m << j;
    }
}

/// Lanes in one limb row: one per bit of a slice word, the side of one
/// [`transpose64`] block.
const ROW_LANES: usize = 64;

/// Transposes limb rows into bit slices: `rows[64j + k]` is limb `j`
/// of lane `k`, and afterwards bit `k` of `slices[b]` is bit `b` of
/// lane `k`, zero for the dead lanes `lanes..` whatever their columns
/// hold. Each row is one [`transpose64`] block; allocation-free.
///
/// # Panics
/// Panics if more than 64 lanes are given, if `rows` is not
/// `⌈slices.len() / 64⌉` rows of 64 limbs, or if a live lane has a bit
/// at or past `slices.len()`.
pub fn rows_to_slices(rows: &[u64], lanes: usize, slices: &mut [u64]) {
    let width = slices.len();
    assert!(lanes <= ROW_LANES, "at most {ROW_LANES} lanes");
    assert_eq!(
        rows.len(),
        width.div_ceil(LIMB_BITS) * ROW_LANES,
        "rows must hold ⌈width/64⌉ rows of {ROW_LANES} limbs"
    );
    let mut block = [0u64; ROW_LANES];
    for (chunk, row) in slices
        .chunks_mut(LIMB_BITS)
        .zip(rows.chunks_exact(ROW_LANES))
    {
        block[..lanes].copy_from_slice(&row[..lanes]);
        block[lanes..].fill(0);
        transpose64(&mut block);
        let past = block[chunk.len()..].iter().fold(0, |acc, &w| acc | w);
        assert!(
            past == 0,
            "lane {} has bits past the slice width {width}",
            past.trailing_zeros()
        );
        chunk.copy_from_slice(&block[..chunk.len()]);
    }
}

/// Inverse of [`rows_to_slices`]: limb `j` of lane `k` in `rows`
/// gathers bits `64j..64j + 64` of lane `k` from `slices`, zero past
/// their end. Every limb of `rows` is overwritten, so a reused buffer
/// needs no clearing.
///
/// # Panics
/// Panics if `rows` is not whole rows of 64 limbs, or has fewer than
/// `⌈slices.len() / 64⌉` of them.
pub fn slices_to_rows(slices: &[u64], rows: &mut [u64]) {
    assert!(
        rows.len().is_multiple_of(ROW_LANES)
            && rows.len() / ROW_LANES >= slices.len().div_ceil(LIMB_BITS),
        "rows must hold ⌈width/64⌉ or more rows of {ROW_LANES} limbs"
    );
    let mut block = [0u64; ROW_LANES];
    for (j, row) in rows.chunks_exact_mut(ROW_LANES).enumerate() {
        let bits = slices.get(j * LIMB_BITS..).unwrap_or(&[]);
        let n = bits.len().min(LIMB_BITS);
        block[..n].copy_from_slice(&bits[..n]);
        block[n..].fill(0);
        transpose64(&mut block);
        row.copy_from_slice(&block);
    }
}

/// Scatters lane operands into the **struct-of-arrays limb layout**
/// used by the radix-2⁶⁴ CIOS batch engine: `out[j*stride + k]` is
/// limb `j` of `values[k]`, so the per-limb rows are contiguous and a
/// loop over lanes at fixed `j` is a unit-stride (auto-vectorizable)
/// scan. Lanes `values.len()..stride` are zero-filled. `out` is
/// resized to `limbs * stride` and fully overwritten — allocation-free
/// once its capacity is warm.
///
/// # Panics
/// Panics if more lanes than `stride` are given or any value needs
/// more than `limbs` limbs.
pub fn lanes_to_limbs_into(values: &[Ubig], limbs: usize, stride: usize, out: &mut Vec<u64>) {
    assert!(
        values.len() <= stride,
        "at most {stride} lanes fit this stride"
    );
    for (k, v) in values.iter().enumerate() {
        assert!(
            v.limbs.len() <= limbs,
            "lane {k} has {} limbs but the SoA view holds {limbs}",
            v.limbs.len()
        );
    }
    out.clear();
    out.resize(limbs * stride, 0);
    for (k, v) in values.iter().enumerate() {
        for (j, &limb) in v.limbs.iter().enumerate() {
            out[j * stride + k] = limb;
        }
    }
}

/// Inverse of [`lanes_to_limbs_into`]: gathers the first `lanes` lanes
/// out of a struct-of-arrays limb view (`soa[j*stride + k]` is limb
/// `j` of lane `k`). `out` is resized to `lanes` entries and each
/// entry's limb allocation is recycled, so once warm (every lane at
/// full capacity) the conversion performs no heap allocation.
///
/// # Panics
/// Panics if `lanes > stride` or `soa.len() != limbs * stride`.
pub fn limbs_to_lanes_into(
    soa: &[u64],
    limbs: usize,
    stride: usize,
    lanes: usize,
    out: &mut Vec<Ubig>,
) {
    assert!(lanes <= stride, "at most {stride} lanes fit this stride");
    assert_eq!(soa.len(), limbs * stride, "SoA view has the wrong shape");
    out.resize_with(lanes, Ubig::default);
    for (k, lane) in out.iter_mut().enumerate() {
        lane.limbs.clear();
        lane.limbs.resize(limbs, 0);
        for j in 0..limbs {
            lane.limbs[j] = soa[j * stride + k];
        }
        lane.normalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn transpose64_identity_patterns() {
        // Identity matrix is its own transpose.
        let mut a = [0u64; 64];
        for (i, v) in a.iter_mut().enumerate() {
            *v = 1 << i;
        }
        let orig = a;
        transpose64(&mut a);
        assert_eq!(a, orig);

        // Row 3 set ↔ column 3 set.
        let mut a = [0u64; 64];
        a[3] = u64::MAX;
        transpose64(&mut a);
        for (i, &v) in a.iter().enumerate() {
            assert_eq!(v, 1 << 3, "row {i}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (i, j) indexes two matrices
    fn transpose64_is_involutive_and_correct() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..20 {
            let mut a = [0u64; 64];
            for v in a.iter_mut() {
                *v = rand::Rng::gen(&mut rng);
            }
            let orig = a;
            transpose64(&mut a);
            for i in 0..64 {
                for j in 0..64 {
                    assert_eq!((a[i] >> j) & 1, (orig[j] >> i) & 1, "({i},{j})");
                }
            }
            transpose64(&mut a);
            assert_eq!(a, orig, "involution");
        }
    }

    /// `values` as rows of 64 limbs, `⌈width/64⌉` of them.
    fn rows_of(values: &[Ubig], width: usize) -> Vec<u64> {
        let mut rows = Vec::new();
        lanes_to_limbs_into(values, width.div_ceil(64), ROW_LANES, &mut rows);
        rows
    }

    #[test]
    fn lane_roundtrip_across_widths() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut back = Vec::new();
        for width in [1usize, 5, 63, 64, 65, 128, 130, 1026] {
            let limbs = width.div_ceil(64);
            for lanes in [1usize, 3, 63, 64] {
                let values: Vec<Ubig> = (0..lanes)
                    .map(|_| Ubig::random_bits(&mut rng, width))
                    .collect();
                let mut slices = vec![0; width];
                rows_to_slices(&rows_of(&values, width), lanes, &mut slices);
                for (k, v) in values.iter().enumerate() {
                    for (j, &slice) in slices.iter().enumerate() {
                        assert_eq!(slice >> k & 1 == 1, v.bit(j), "width={width} bit {j}");
                    }
                }
                let mut rows = vec![0; limbs * ROW_LANES];
                slices_to_rows(&slices, &mut rows);
                limbs_to_lanes_into(&rows, limbs, ROW_LANES, lanes, &mut back);
                assert_eq!(back, values, "width={width} lanes={lanes}");
                assert!(rows
                    .chunks(ROW_LANES)
                    .all(|r| r[lanes..].iter().all(|&v| v == 0)));
            }
        }
    }

    #[test]
    fn into_variant_reuses_buffers_and_matches() {
        let mut rng = StdRng::seed_from_u64(12);
        // One dirty row buffer and one lane vector serve every call:
        // shrinking, growing and same-size reuse, including lanes that
        // normalize to fewer limbs than the rows hold.
        let mut rows = vec![u64::MAX; 3 * ROW_LANES];
        let mut out = Vec::new();
        for round in 0..3 {
            for lanes in [64usize, 3, 17, 64] {
                let values: Vec<Ubig> = (0..lanes)
                    .map(|k| Ubig::random_bits(&mut rng, if k % 3 == 0 { 7 } else { 130 }))
                    .collect();
                let mut slices = vec![0; 130];
                rows_to_slices(&rows_of(&values, 130), lanes, &mut slices);
                slices_to_rows(&slices, &mut rows);
                assert!(rows
                    .chunks(ROW_LANES)
                    .all(|r| r[lanes..].iter().all(|&v| v == 0)));
                limbs_to_lanes_into(&rows, 3, ROW_LANES, lanes, &mut out);
                assert_eq!(out, values, "round={round} lanes={lanes}");
            }
        }
    }

    #[test]
    fn slice_layout_matches_definition() {
        // Lane 0 = 0b101, lane 1 = 0b011; the dead columns hold junk.
        let mut rows = [u64::MAX; ROW_LANES];
        rows[..2].copy_from_slice(&[0b101, 0b011]);
        let mut s = [0u64; 3];
        rows_to_slices(&rows, 2, &mut s);
        // Position 0: lane0 bit0=1, lane1 bit0=1 → 0b11.
        assert_eq!(s[0], 0b11);
        // Position 1: lane0 bit1=0, lane1 bit1=1 → 0b10.
        assert_eq!(s[1], 0b10);
        // Position 2: lane0 bit2=1, lane1 bit2=0 → 0b01.
        assert_eq!(s[2], 0b01);
        let mut back = [u64::MAX; ROW_LANES];
        slices_to_rows(&s, &mut back);
        assert_eq!(back[..2], [0b101, 0b011]);
    }

    #[test]
    fn unused_lanes_are_zero() {
        let rows = [u64::MAX; ROW_LANES];
        let mut s = [0u64; 64];
        rows_to_slices(&rows, 1, &mut s);
        for (j, &w) in s.iter().enumerate() {
            assert_eq!(w, 1, "position {j} must only carry lane 0");
        }
        let mut back = [0u64; ROW_LANES];
        slices_to_rows(&s, &mut back);
        assert_eq!(back[0], u64::MAX);
        assert!(back[1..].iter().all(|&v| v == 0), "dead lanes read 0");
    }

    #[test]
    #[should_panic(expected = "lane 1 has bits past the slice width 4")]
    fn rejects_oversized_lane() {
        let mut rows = [0u64; ROW_LANES];
        rows[..2].copy_from_slice(&[15, 16]);
        rows_to_slices(&rows, 2, &mut [0; 4]);
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn rejects_too_many_lanes() {
        rows_to_slices(&[0; ROW_LANES], 65, &mut [0; 8]);
    }

    #[test]
    fn limb_soa_roundtrip_and_layout() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut soa = Vec::new();
        let mut back = Vec::new();
        for (limbs, stride) in [(1usize, 4usize), (3, 64), (17, 64), (2, 2)] {
            for lanes in [1usize, 2usize.min(stride), stride] {
                let values: Vec<Ubig> = (0..lanes)
                    .map(|k| Ubig::random_bits(&mut rng, (limbs * 64).min(k * 37 + 1)))
                    .collect();
                lanes_to_limbs_into(&values, limbs, stride, &mut soa);
                assert_eq!(soa.len(), limbs * stride);
                // Layout: row j holds limb j of every lane, zero-padded.
                for j in 0..limbs {
                    for k in 0..stride {
                        let want = if k < lanes {
                            values[k].limbs().get(j).copied().unwrap_or(0)
                        } else {
                            0
                        };
                        assert_eq!(soa[j * stride + k], want, "j={j} k={k}");
                    }
                }
                limbs_to_lanes_into(&soa, limbs, stride, lanes, &mut back);
                assert_eq!(back, values, "limbs={limbs} stride={stride}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lanes fit this stride")]
    fn limb_soa_rejects_too_many_lanes() {
        let values: Vec<Ubig> = (0..5).map(|i| Ubig::from(i as u64)).collect();
        let mut soa = Vec::new();
        lanes_to_limbs_into(&values, 1, 4, &mut soa);
    }

    #[test]
    #[should_panic(expected = "limbs but the SoA view")]
    fn limb_soa_rejects_oversized_lane() {
        let mut soa = Vec::new();
        lanes_to_limbs_into(&[Ubig::pow2(64)], 1, 4, &mut soa);
    }
}
