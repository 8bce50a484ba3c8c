//! Order statistics over samples.

/// The median: the middle value, or the mean of the two middle values.
/// `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank percentile `p` (in `(0, 1]`): the smallest sample with
/// at least `p` of the samples at or below it. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile`] of integer samples such as simulated cycle counts (exact
/// below 2^53).
pub fn percentile_u64(samples: &[u64], p: f64) -> Option<f64> {
    let as_f64: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    percentile(&as_f64, p)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        let c: Vec<u64> = (1..=600).collect();
        assert_eq!(percentile_u64(&c, 0.98), Some(588.0));
        assert_eq!(percentile_u64(&c, 0.5), Some(300.0));
    }
}
