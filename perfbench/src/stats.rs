//! Order statistics over latency samples.

/// Percentiles the tail metric may report, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// Samples a tail must have beyond it. With ten, a tail of a few hundred
/// samples often sat in a sparse stretch between latency groups or among
/// a handful of outliers, and moved by a quarter between runs.
const MIN_BEYOND: usize = 20;

/// A tail value together with the percentile it is and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at `quantile`.
    pub value: f64,
    /// The percentile reported, as a fraction.
    pub quantile: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some((v[(n - 1) / 2] + v[n / 2]) / 2.0)
}

/// Nearest-rank value at `q` of sorted `v`, and the samples beyond it.
fn rank(v: &[f64], q: f64) -> (f64, usize) {
    let n = v.len();
    // The epsilon keeps float error in `q * n` from skipping a rank.
    let idx = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1;
    (v[idx], n - idx - 1)
}

/// The highest percentile of the ladder with at least `MIN_BEYOND`
/// samples beyond it; `None` when even p75 has fewer.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    TAIL_LADDER.iter().find_map(|&q| {
        if v.is_empty() {
            return None;
        }
        let (value, beyond) = rank(&v, q);
        (beyond >= MIN_BEYOND).then_some(Tail {
            value,
            quantile: q,
            samples: v.len(),
            beyond,
        })
    })
}

/// Ratio that reads 0 instead of NaN for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_twenty_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.quantile, 0.99);
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.beyond, 20);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().quantile, 0.95);
        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&small).unwrap().quantile, 0.9);
        assert!(tail(&[1.0; 79]).is_none());
    }
}
