//! Percentiles and run-to-run spread.

/// The percentile levels a tail may be reported at, each with the `k`
/// of its "one sample in `k` lies beyond".
const LEVELS: [(f64, usize); 6] = [
    (0.5, 2),
    (0.9, 10),
    (0.99, 100),
    (0.999, 1000),
    (0.9999, 10_000),
    (0.99999, 100_000),
];

/// `0.999` → `"p99.9"`.
pub fn level_name(q: f64) -> String {
    // Nine decimals are enough for every level and hide the binary
    // representation of `q * 100`.
    let pct = format!("{:.9}", q * 100.0);
    format!("p{}", pct.trim_end_matches('0').trim_end_matches('.'))
}

/// The highest of [`LEVELS`] that still has at least ten samples beyond
/// it in a sample of `n` — the tail a sample of that size can support.
pub fn top_level(n: usize) -> Option<f64> {
    LEVELS
        .iter()
        .rev()
        .find(|(_, k)| n >= 10 * k)
        .map(|&(q, _)| q)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0);
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the default exclusive
/// method) — the rule the PR driver applies to ten runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    assert!(len >= 2);
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median_f64(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_level_keeps_ten_samples_beyond() {
        assert_eq!(top_level(19), None);
        assert_eq!(top_level(20), Some(0.5));
        assert_eq!(top_level(99), Some(0.5));
        assert_eq!(top_level(100), Some(0.9));
        assert_eq!(top_level(999), Some(0.9));
        assert_eq!(top_level(1000), Some(0.99));
        assert_eq!(top_level(10_000), Some(0.999));
        assert_eq!(top_level(999_999), Some(0.9999));
        assert_eq!(top_level(1_000_000), Some(0.99999));
    }

    #[test]
    fn level_names_are_clean() {
        let names: Vec<String> = LEVELS.iter().map(|&(q, _)| level_name(q)).collect();
        assert_eq!(names, ["p50", "p90", "p99", "p99.9", "p99.99", "p99.999"]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }
}
