//! Small descriptive-statistics helpers for multi-seed experiment runs.

/// Mean / spread summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Sample size.
    pub n: usize,
}

impl Summary {
    /// Formats as `mean ± std`.
    pub fn pm(&self, decimals: usize) -> String {
        format!("{:.*} ± {:.*}", decimals, self.mean, decimals, self.std_dev)
    }
}

/// Summarizes a sample with Welford's online algorithm (numerically
/// stable for long runs).
///
/// # Panics
/// Panics on an empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "cannot summarize an empty sample");
    let mut mean = 0.0;
    let mut m2 = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for (i, &x) in values.iter().enumerate() {
        let delta = x - mean;
        mean += delta / (i as f64 + 1.0);
        m2 += delta * (x - mean);
        min = min.min(x);
        max = max.max(x);
    }
    let n = values.len();
    let std_dev = if n > 1 {
        (m2 / (n as f64 - 1.0)).sqrt()
    } else {
        0.0
    };
    Summary {
        mean,
        std_dev,
        min,
        max,
        n,
    }
}

/// The `q`-quantile (`q` in `[0, 1]`) of an ascending sample, linearly
/// interpolated between the two nearest ranks.
///
/// # Panics
/// Panics on an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&xs, 0.01) - 1.04).abs() < 1e-12);
        assert_eq!(quantile(&[0.25], 0.9), 0.25);
    }

    #[test]
    fn known_sample() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev of this classic set is ~2.138.
        assert!((s.std_dev - 2.1380899352993947).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn singleton_has_zero_spread() {
        let s = summarize(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn constant_sample_has_zero_spread() {
        let s = summarize(&[7.0; 100]);
        assert_eq!(s.mean, 7.0);
        assert!(s.std_dev.abs() < 1e-12);
    }

    #[test]
    fn formatting() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!(s.pm(1), "2.0 ± 1.0");
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        summarize(&[]);
    }
}
