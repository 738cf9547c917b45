//! Small numeric and text helpers: medians, percentile ranks, output
//! digests and the masking of the one run-dependent line of
//! `EXPERIMENTS.md`.

/// Median of `values` (mean of the middle pair for an even count); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p` percent of the samples at or below it. With 2,000 samples
/// the 99th percentile is the 1,980th, so 20 samples lie beyond it.
/// `NaN` when empty.
pub fn percentile_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// FNV-1a 64-bit digest of `bytes`, as 16 hex digits. Not cryptographic:
/// it guards against accidental output drift, not against forgery.
pub fn digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// The row of `EXPERIMENTS.md` that reports measured prediction latency;
/// it is the only line that differs between two runs of `repro_all`.
const LATENCY_ROW: &str = "| §VI-B: prediction latency |";

/// `EXPERIMENTS.md` with the prediction-latency row replaced by a fixed
/// placeholder, so that identical results give identical digests.
pub fn mask_latency_line(md: &str) -> String {
    md.split_inclusive('\n')
        .map(|line| {
            if line.starts_with(LATENCY_ROW) {
                "| §VI-B: prediction latency | (masked) |\n"
            } else {
                line
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_rank_leaves_one_percent_beyond_p99() {
        let samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        let p99 = percentile_rank(&samples, 99.0);
        assert_eq!(p99, 1980.0);
        assert_eq!(samples.iter().filter(|&&v| v > p99).count(), 20);
        assert_eq!(percentile_rank(&samples, 50.0), 1000.0);
        assert_eq!(percentile_rank(&samples, 100.0), 2000.0);
        assert_eq!(percentile_rank(&samples, 0.0), 1.0);
        assert_eq!(percentile_rank(&[7.0], 99.0), 7.0);
        assert!(percentile_rank(&[], 50.0).is_nan());
    }

    #[test]
    fn digest_is_fnv1a() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
        assert_eq!(digest(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn masking_hides_only_the_latency_row() {
        let a = "# T\n| Fig. 7 | x | 1 | yes |\n| §VI-B: prediction latency | ≤300 ms | 11.7 µs per full-server prediction | yes |\ntail\n";
        let b = a.replace("11.7", "10.0");
        assert_ne!(digest(a.as_bytes()), digest(b.as_bytes()));
        assert_eq!(mask_latency_line(a), mask_latency_line(&b));
        assert!(mask_latency_line(a).starts_with("# T\n| Fig. 7 | x | 1 | yes |\n"));
        assert!(mask_latency_line(a).ends_with("tail\n"));
        // Any other difference still shows.
        let c = a.replace("Fig. 7 | x", "Fig. 7 | y");
        assert_ne!(mask_latency_line(a), mask_latency_line(&c));
    }
}
