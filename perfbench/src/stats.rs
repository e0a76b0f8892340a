//! Order statistics over host and modeled samples.

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` (`q` in `[0, 1]`), interpolating linearly
/// between order statistics; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        }
    }
}

/// The tail of a sample: the highest percentile that still has at least ten
/// samples above it. That is the eleventh-largest value, at percentile
/// `100·(n−10)/n`. Samples of ten or fewer have no such percentile; their
/// tail is the maximum, reported at percentile 100.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the tail percentile.
    pub value: f64,
    /// The percentile, in `[0, 100]`.
    pub percentile: f64,
    /// Number of samples the tail was taken over.
    pub count: usize,
}

/// See [`Tail`].
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    if n <= 10 {
        return Tail {
            value: s.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            count: n,
        };
    }
    Tail {
        value: s[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        count: n,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(tail(&[1.0, 5.0]).value, 5.0);
    }
}
