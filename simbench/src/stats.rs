//! Order statistics behind every reported number: medians, the quartiles
//! of Python's `statistics.quantiles(values, n=4)`, and nearest-rank
//! percentiles of timing samples.

/// The percentiles a tail figure may be reported at, in per-mille,
/// highest first.
pub const PERCENTILES: [u32; 4] = [999, 990, 900, 500];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method), so
/// the spreads printed here match those a Python harness computes from the
/// same values. `None` for fewer than two values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len() as i64;
    if ld < 2 {
        return None;
    }
    let (n, m) = (4i64, ld + 1);
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        *q = (data[(j - 1) as usize] * (n - delta) as f64 + data[j as usize] * delta as f64)
            / n as f64;
    }
    Some(out)
}

/// Median of a non-empty slice (the mean of the two middle values for an
/// even count, as Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    quartiles(values).map_or(values[0], |q| q[1])
}

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (per_mille as usize * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the `per_mille` percentile of `n` samples.
pub fn beyond(n: usize, per_mille: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, per_mille)
    }
}

/// Nearest-rank percentile (`per_mille` of 1000) of a non-empty slice.
pub fn percentile(values: &[f64], per_mille: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let s = sorted(values);
    s[rank(s.len(), per_mille) - 1]
}

/// The highest percentile of [`PERCENTILES`] with at least ten samples
/// beyond it — the rule by which a tail figure is trustworthy. `None`
/// when even the median has fewer than ten samples above it.
pub fn highest_percentile(n: usize) -> Option<u32> {
    PERCENTILES.into_iter().find(|&p| beyond(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from Python's statistics.quantiles(v, n=4).
        let cases: [(&[f64], [f64; 3]); 4] = [
            (
                &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
                [2.75, 5.5, 8.25],
            ),
            (&[1., 2.], [0.75, 1.5, 2.25]),
            (&[3., 1., 2.], [1.0, 2.0, 3.0]),
            (&[10., 20., 30., 40., 50.], [15.0, 30.0, 45.0]),
        ];
        for (values, want) in cases {
            let got = quartiles(values).expect("two or more values");
            for (g, w) in got.iter().zip(want) {
                assert!(close(*g, w), "{values:?}: got {got:?}, want {want:?}");
            }
        }
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_is_the_middle_quartile() {
        assert!(close(median(&[7.0]), 7.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(close(median(&[5.0, 1.0, 3.0]), 3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(percentile(&v, 500), 50.0));
        assert!(close(percentile(&v, 900), 90.0));
        assert!(close(percentile(&v, 990), 99.0));
        assert!(close(percentile(&[3.0], 900), 3.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(500));
        assert_eq!(highest_percentile(99), Some(500));
        assert_eq!(highest_percentile(100), Some(900));
        assert_eq!(highest_percentile(999), Some(900));
        assert_eq!(highest_percentile(1000), Some(990));
        assert_eq!(highest_percentile(10_000), Some(999));
        for n in 1..3000 {
            if let Some(p) = highest_percentile(n) {
                assert!(beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
    }
}
