//! The noise band every benchmark number is reported with: median,
//! quartiles and median absolute deviation over repeated samples.
//!
//! Quartiles use the "exclusive" interpolation of Python's
//! `statistics.quantiles(values, n=4)`, so the spread the benchmark
//! prints is the spread a run-set check computes from the same values.

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

impl Band {
    /// The band of `samples`; `None` when there are none or any is not
    /// finite.
    pub fn of(samples: &[f64]) -> Option<Band> {
        if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = median_sorted(&sorted);
        let (q1, q3) = quartiles_sorted(&sorted);
        let mut dev: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
        dev.sort_by(f64::total_cmp);
        Some(Band {
            n: sorted.len(),
            median,
            q1,
            q3,
            mad: median_sorted(&dev),
        })
    }

    /// The interquartile distance as a share of the median's magnitude
    /// (0 when the median is 0 and the quartiles agree, infinite when
    /// only the median is 0).
    pub fn relative_iqr(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if self.median != 0.0 {
            iqr / self.median.abs()
        } else if iqr == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile, Python `statistics.quantiles(n=4)`
/// ("exclusive" method); a single sample is its own quartiles.
fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The nearest-rank `p`-quantile (`p` in `(0, 1]`) of `samples`: the
/// smallest sample with at least a `p` share of all samples at or below
/// it. With fewer than `1 / (1 - p)` samples this is the maximum.
/// `None` for no samples.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let b = Band::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((b.q1, b.median, b.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let b = Band::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((b.q1, b.median, b.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let b = Band::of(&[2.0, 1.0]).unwrap();
        assert_eq!((b.q1, b.q3), (0.75, 2.25));
    }

    #[test]
    fn mad_on_known_samples() {
        // |x - 3| over 1, 2, 3, 4, 100 is 2, 1, 0, 1, 97: median 1.
        let b = Band::of(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!(b.median, 3.0);
        assert_eq!((b.mad, b.n), (1.0, 5));
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let b = Band::of(&[7.5]).unwrap();
        assert_eq!((b.q1, b.median, b.q3, b.mad), (7.5, 7.5, 7.5, 0.0));
        assert_eq!(b.relative_iqr(), 0.0);
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let b = Band::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert!((b.relative_iqr() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(
            Band::of(&[-1.0, 0.0, 1.0]).unwrap().relative_iqr(),
            f64::INFINITY
        );
    }

    #[test]
    fn empty_or_non_finite_samples_have_no_band() {
        assert_eq!(Band::of(&[]), None);
        assert_eq!(Band::of(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(500.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(990.0));
        // Few samples: the tail is the maximum.
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.99), Some(3.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }
}
