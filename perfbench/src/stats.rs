//! Order statistics over raw samples.

/// The `p`-quantile (0 ≤ p ≤ 1) by linear interpolation between closest
/// ranks. Missing samples are passed as `f64::INFINITY`, so a failed
/// request counts against the percentile instead of vanishing from it.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || v[hi].is_infinite() {
        return v[hi];
    }
    v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn missing_samples_count_as_slowest() {
        let v = [1.0, 2.0, f64::INFINITY];
        assert_eq!(median(&v), 2.0);
        assert!(quantile(&v, 0.9).is_infinite());
    }
}
