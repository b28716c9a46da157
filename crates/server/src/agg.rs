//! The served aggregates — count, sum and mean over one numeric column
//! — as Map/Reduce queries, with the fused kernel the columnar prepare
//! folds them through.

use upa_core::query::MapReduceQuery;

/// The aggregate kinds the protocol serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Number of rows.
    Count,
    /// Sum of a column.
    Sum,
    /// Mean of a column.
    Mean,
}

impl AggKind {
    /// The protocol name.
    pub fn as_str(self) -> &'static str {
        match self {
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Mean => "mean",
        }
    }
}

impl std::str::FromStr for AggKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "count" => Ok(AggKind::Count),
            "sum" => Ok(AggKind::Sum),
            "mean" => Ok(AggKind::Mean),
            other => Err(format!("unknown query '{other}' (count|sum|mean)")),
        }
    }
}

/// Builds the Map/Reduce decomposition of an aggregate over one numeric
/// column — the serving-side counterpart of the paper's Table I
/// operators, with a `(sum, count)` accumulator so `mean` finalizes
/// without a second pass.
pub fn build_agg_query(kind: AggKind) -> MapReduceQuery<f64, (f64, f64), f64> {
    MapReduceQuery::new(
        kind.as_str(),
        move |x: &f64| match kind {
            AggKind::Count => (1.0, 1.0),
            AggKind::Sum | AggKind::Mean => (*x, 1.0),
        },
        |a: &(f64, f64), b: &(f64, f64)| (a.0 + b.0, a.1 + b.1),
        move |acc: Option<&(f64, f64)>| match (kind, acc) {
            (_, None) => 0.0,
            (AggKind::Mean, Some((s, n))) => {
                if *n > 0.0 {
                    s / n
                } else {
                    0.0
                }
            }
            (_, Some((s, _))) => *s,
        },
    )
    .with_half_key(|x: &f64| x.to_bits())
    .with_slice_fold(move |slice: &[f64], _phys_half, acc| {
        fold_parity_blocks(kind != AggKind::Count, slice, acc)
    })
}

/// Records per parity block: one bit each in a `u64` mask.
const BLOCK: usize = 64;

/// The fused kernel of [`build_agg_query`]: folds `slice` into the two
/// per-half `(sum, count)` accumulators, the half of a record being the
/// low bit of its bit pattern. `sums` is false for `count`, whose sum
/// component adds 1.0 per record like its count.
///
/// Per block of 64 records it builds the mask of odd-half records, then
/// walks the even and the odd set bits in ascending order, alternating
/// one add into each half's sum. Both sums stay in registers, so the
/// two halves' add chains overlap instead of serializing through the
/// accumulator array. Each half still adds its records left to right,
/// so every sum is the generic left fold's, bit for bit. The count of
/// a half gains the block's popcount in one add: counts are integers
/// below 2^53 (they start at 1.0 and only ever gain 1.0), so that add
/// is exact and equal to adding 1.0 once per record. A half with no
/// accumulator yet takes its first record's value as is, as the
/// generic fold stores its first mapped record (adding it to 0.0 would
/// turn a leading -0.0 into +0.0).
///
/// A last block shorter than 64 records is copied into a padded block
/// and masked to its length, so it takes the same branch-light walk.
/// Runs between sampled rows are often that short (50 records on
/// average for 50 000 rows and 1 000 samples), and a per-record loop
/// would branch on each record's unpredictable parity.
fn fold_parity_blocks(sums: bool, slice: &[f64], acc: &mut [Option<(f64, f64)>; 2]) {
    let [a0, a1] = *acc;
    let (mut s0, mut n0) = a0.unwrap_or((0.0, 0.0));
    let (mut s1, mut n1) = a1.unwrap_or((0.0, 0.0));
    let (mut has0, mut has1) = (a0.is_some(), a1.is_some());
    let mut padded = [0.0; BLOCK];
    for block in slice.chunks(BLOCK) {
        let valid = u64::MAX >> (BLOCK - block.len());
        let block: &[f64; BLOCK] = match block.try_into() {
            Ok(whole) => whole,
            Err(_) => {
                padded[..block.len()].copy_from_slice(block);
                &padded
            }
        };
        let mut odd = odd_mask(block) & valid;
        let mut even = !odd & valid;
        let (c0, c1) = (f64::from(even.count_ones()), f64::from(odd.count_ones()));
        n0 += c0;
        n1 += c1;
        if !sums {
            s0 += c0;
            s1 += c1;
        } else {
            let at = |bits: u64| block[bits.trailing_zeros() as usize % BLOCK];
            if !has0 && even != 0 {
                s0 = at(even);
                even &= even - 1;
            }
            if !has1 && odd != 0 {
                s1 = at(odd);
                odd &= odd - 1;
            }
            while even != 0 && odd != 0 {
                s0 += at(even);
                even &= even - 1;
                s1 += at(odd);
                odd &= odd - 1;
            }
            while even != 0 {
                s0 += at(even);
                even &= even - 1;
            }
            while odd != 0 {
                s1 += at(odd);
                odd &= odd - 1;
            }
        }
        has0 |= c0 > 0.0;
        has1 |= c1 > 0.0;
    }
    *acc = [has0.then_some((s0, n0)), has1.then_some((s1, n1))];
}

/// Bit `i` is set when record `i` of the block belongs to the odd half.
/// Built from eight independent byte partials, so no step of the build
/// waits on the one before it.
fn odd_mask(block: &[f64; BLOCK]) -> u64 {
    let mut mask = 0u64;
    for (k, lane) in block.chunks_exact(8).enumerate() {
        let mut byte = 0u64;
        for (j, x) in lane.iter().enumerate() {
            byte |= (x.to_bits() & 1) << j;
        }
        mask |= byte << (8 * k);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use upa_stats::rng::{check, Rng, StdRng};

    /// A value with a random mantissa or, one time in `one_in`, one of
    /// the specials: NaN, ±inf, ±0.0, a subnormal, or ±1e308 (two of
    /// which overflow when added).
    fn value(rng: &mut StdRng, one_in: u32) -> f64 {
        match rng.gen_range(0..one_in) {
            0 => match rng.gen_range(0..9u32) {
                0 => f64::NAN,
                1 => -f64::NAN,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => 0.0,
                5 => -0.0,
                6 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
                7 => 1e308,
                _ => -1e308,
            },
            // A uniform draw's low mantissa bits are mostly zero.
            _ => {
                f64::from_bits(rng.gen_range(-1e3..1e3f64).to_bits() ^ rng.gen_range(0..1u64 << 20))
            }
        }
    }

    /// Values of mixed parity, or all of one parity (`Some(p)` forces
    /// the low bit of every value to `p`).
    fn values(rng: &mut StdRng, len: usize, parity: Option<u64>, one_in: u32) -> Vec<f64> {
        (0..len)
            .map(|_| {
                let x = value(rng, one_in);
                match parity {
                    Some(p) => f64::from_bits(x.to_bits() & !1 | p),
                    None => x,
                }
            })
            .collect()
    }

    /// Sums must match bit for bit, with one exception: Rust leaves the
    /// sign and payload of a NaN sum unspecified (the compiler may
    /// commute `a + b`, and which NaN operand propagates depends on
    /// that), so two compiled folds over the same records can disagree
    /// on a NaN's bits but never on its being NaN. Counts always match
    /// bit for bit.
    fn assert_same_bits(fused: &[Option<(f64, f64)>; 2], generic: &[Option<(f64, f64)>; 2]) {
        for h in 0..2 {
            match (fused[h], generic[h]) {
                (Some(a), Some(b)) => {
                    assert!(
                        a.0.to_bits() == b.0.to_bits() || (a.0.is_nan() && b.0.is_nan()),
                        "half {h} sum: {:#x} vs {:#x}",
                        a.0.to_bits(),
                        b.0.to_bits()
                    );
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "half {h} count");
                }
                (None, None) => {}
                (a, b) => panic!("half {h}: fused {a:?} and generic {b:?} occupancy differ"),
            }
        }
    }

    #[test]
    fn fused_kernels_match_generic_fold() {
        // The fused kernel must leave the accumulators exactly as the
        // generic half-key/map/reduce composition does: run lengths
        // across the 64-record block edge, mixed and single parity,
        // specials, and accumulators that earlier runs already filled
        // (the columnar prepare carries them from run to run).
        check("fused_kernels_match_generic_fold", 256, |rng| {
            let len = rng.gen_range(0..=200usize);
            let one_in = rng.gen_range(1..=16u32);
            let run = match rng.gen_range(0..5u32) {
                0 => values(rng, len, Some(0), one_in),
                1 => values(rng, len, Some(1), one_in),
                // A half whose records are all -0.0 sums to -0.0 only if
                // its first record is stored rather than added to 0.0.
                2 => vec![-0.0; len],
                _ => values(rng, len, None, one_in),
            };
            let earlier_len = match rng.gen_range(0..3u32) {
                0 => 0,
                _ => rng.gen_range(0..=80usize),
            };
            let earlier = values(rng, earlier_len, None, one_in);
            let phys_half = rng.gen_range(0..2usize);
            for kind in [AggKind::Count, AggKind::Sum, AggKind::Mean] {
                let q = build_agg_query(kind);
                let kernel = q.slice_fold().expect("agg queries carry a fused kernel");
                let mut generic = [None, None];
                q.fold_run_generic(&earlier, phys_half, &mut generic);
                let mut fused = generic;
                kernel(&run, phys_half, &mut fused);
                q.fold_run_generic(&run, phys_half, &mut generic);
                assert_same_bits(&fused, &generic);
            }
        });
    }
}
