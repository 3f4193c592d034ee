//! Percentiles of exact samples.
//!
//! Every timing the benchmark reports is read from the full list of
//! per-operation samples, never from the server's log2 histogram buckets.
//! A tail percentile is only quoted when enough samples lie beyond it to
//! make it more than one unlucky outlier.

/// Fewest samples that must lie beyond a quoted tail percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile read from exact samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile actually quoted, as a fraction (0.99 for p99).
    pub q: f64,
    /// The sample value at that rank.
    pub value: f64,
    /// Samples strictly beyond the quoted rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

impl Percentile {
    /// `p99`, `p97.5`, … — the label of the percentile actually quoted.
    pub fn label(&self) -> String {
        let pct = self.q * 100.0;
        if (pct - pct.round()).abs() < 1e-9 {
            format!("p{}", pct.round())
        } else {
            format!("p{pct:.1}")
        }
    }

    /// `"p99 of 3512 samples, 36 beyond"`, printed beside the value.
    pub fn describe(&self) -> String {
        format!(
            "{} of {} samples, {} beyond",
            self.label(),
            self.samples,
            self.beyond
        )
    }
}

/// Nearest-rank percentile: the value at 1-based rank `ceil(q * n)` of the
/// sorted samples. `None` for no samples.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        q,
        value: sorted[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}

/// The `target` percentile when at least [`MIN_BEYOND`] samples lie beyond
/// it; otherwise the highest percentile that has that many beyond it.
/// `None` when there are too few samples for any percentile to qualify.
pub fn tail(sorted: &[f64], target: f64) -> Option<Percentile> {
    let p = nearest_rank(sorted, target)?;
    if p.beyond >= MIN_BEYOND {
        return Some(p);
    }
    let n = sorted.len();
    let rank = n.checked_sub(MIN_BEYOND).filter(|&r| r >= 1)?;
    Some(Percentile {
        q: rank as f64 / n as f64,
        value: sorted[rank - 1],
        beyond: MIN_BEYOND,
        samples: n,
    })
}

/// Median of a small set of repeats (the middle value by nearest rank).
pub fn median(values: &[f64]) -> f64 {
    sorted(values.to_vec())
        .get(values.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0.0)
}

/// Sorts samples ascending (total order; the benchmark never records NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nanosecond samples as sorted milliseconds.
pub fn sorted_ms(ns: &[u64]) -> Vec<f64> {
    sorted(ns.iter().map(|&v| v as f64 / 1e6).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p99_is_kept_when_ten_samples_lie_beyond_it() {
        let p = tail(&ramp(1000), 0.99).unwrap();
        assert_eq!((p.q, p.value, p.beyond, p.samples), (0.99, 990.0, 10, 1000));
        assert_eq!(p.label(), "p99");
    }

    #[test]
    fn falls_back_to_highest_percentile_with_ten_beyond() {
        // 500 samples: p99 is rank 495 with only 5 beyond, so the quoted
        // percentile drops to rank 490 = p98.
        let p = tail(&ramp(500), 0.99).unwrap();
        assert_eq!((p.value, p.beyond), (490.0, 10));
        assert!((p.q - 0.98).abs() < 1e-12);
        assert_eq!(p.label(), "p98");
        // 400 samples: rank 390 = p97.5.
        let p = tail(&ramp(400), 0.99).unwrap();
        assert_eq!((p.value, p.label()), (390.0, "p97.5".to_string()));
    }

    #[test]
    fn no_tail_percentile_without_eleven_samples() {
        assert!(tail(&ramp(10), 0.99).is_none());
        let p = tail(&ramp(11), 0.99).unwrap();
        assert_eq!((p.value, p.beyond), (1.0, 10));
        assert!(tail(&[], 0.5).is_none());
    }

    #[test]
    fn median_uses_nearest_rank() {
        let p = tail(&ramp(1001), 0.5).unwrap();
        assert_eq!(p.value, 501.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
