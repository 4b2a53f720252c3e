//! Order statistics for the benchmark's own reports.

pub use ndpb_bench::timing::median;

/// Fewest samples that must lie above a tail percentile before it is
/// reported as that percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail estimate and whether the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The reported value.
    pub value: f64,
    /// `true` when at least [`MIN_BEYOND`] samples lie beyond the
    /// nearest-rank percentile, so `value` is that percentile; `false`
    /// when the sample is too small and `value` is its maximum instead,
    /// an upper bound of the percentile.
    pub supported: bool,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in benchmark samples"));
    s
}

/// The 1-based rank of nearest-rank percentile `p` (0 < p ≤ 100) in a
/// sorted sample of `n`: the smallest sample with at least `p`% of the
/// sample at or below it.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentile `p` when at least [`MIN_BEYOND`] samples lie beyond its
/// nearest rank, otherwise the sample maximum (see [`Tail`]).
pub fn tail(samples: &[f64], p: f64) -> Tail {
    if samples.is_empty() {
        return Tail {
            value: 0.0,
            supported: false,
        };
    }
    let s = sorted(samples);
    let rank = nearest_rank(s.len(), p);
    if s.len() - rank >= MIN_BEYOND {
        Tail {
            value: s[rank - 1],
            supported: true,
        }
    } else {
        Tail {
            value: s[s.len() - 1],
            supported: false,
        }
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method),
/// which is how run-to-run spread is judged. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    if samples.len() < 2 {
        return None;
    }
    let s = sorted(samples);
    let n = s.len() as i64;
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        *q = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        // The middle quartile is the median.
        let w = [0.3, 9.1, 2.2, 7.0, 4.4, 1.8];
        assert_eq!(quartiles(&w).unwrap()[1], median(&w));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 50.0).value, 500.0);
        assert_eq!(tail(&v, 95.0).value, 950.0);
        assert_eq!(tail(&v, 99.0).value, 990.0);
        // Order does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(tail(&r, 95.0), tail(&v, 95.0));
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 200 samples: rank 190, ten samples beyond -> supported.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(
            tail(&v, 95.0),
            Tail {
                value: 190.0,
                supported: true
            }
        );
        // 199 samples: rank 190, nine beyond -> the maximum instead.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(
            tail(&v, 95.0),
            Tail {
                value: 199.0,
                supported: false
            }
        );
        // A median is supported from 20 samples on.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!(tail(&v, 50.0).supported);
        assert!(!tail(&v[..19], 50.0).supported);
        assert!(!tail(&[], 95.0).supported);
    }
}
