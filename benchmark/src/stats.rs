//! Order statistics shared by the workloads and `compare`.

/// The `p`-quantile (`0 < p <= 1`) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `p·n` samples at
/// or below it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of the `p`-quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `p`-quantile.
#[cfg(test)]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The fewest samples for which at least `tail` of them lie beyond the
/// `p`-quantile — the run length a tail percentile needs before it is
/// worth reporting.
#[cfg(test)]
pub fn min_samples_for_tail(p: f64, tail: usize) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= tail)
        .expect("p < 1")
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(_, m, _)| m)
}

/// `(q1, median, q3)` by the same arithmetic as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method,
/// extrapolating past the ends for tiny samples), so the spreads
/// `compare` prints match the ones an outside check computes. A single
/// value is its own quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        _ => {
            let at = |i: i64| {
                let (ld, m) = (n as i64, n as i64 + 1);
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((at(1), at(2), at(3)))
        }
    }
}

/// Interquartile range as a share of the median (`0` for a zero median).
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[3.0], 0.9), Some(3.0));
    }

    #[test]
    fn ten_samples_beyond_p90_needs_one_hundred() {
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(min_samples_for_tail(0.9, 10), 100);
        assert_eq!(min_samples_for_tail(0.5, 10), 20);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // Reference values from Python 3.11 `statistics.quantiles(v, n=4)`.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some((1.25, 2.5, 3.75)));
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 5.0, 8.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[7.0, 7.0, 7.0]), Some(0.0));
    }
}
