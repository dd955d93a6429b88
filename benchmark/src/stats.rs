//! Order statistics for timing samples.

/// Five-number summary plus the sample count, as every timing is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let sorted = sorted(samples);
        let (first, last) = (*sorted.first()?, *sorted.last()?);
        Some(Self {
            n: sorted.len(),
            min: first,
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: last,
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending, non-empty slice, linearly
/// interpolated between the two nearest ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples` (0 when empty, which no caller passes).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// The `p`-quantile when at least [`TAIL_SUPPORT`] samples lie beyond it,
/// otherwise the maximum: a p95 of four samples would be an interpolation
/// artefact, the largest one observed is at least a measurement.
pub fn tail(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    let Some(&max) = sorted.last() else {
        return 0.0;
    };
    // The epsilon keeps 100 × (1 − 0.9) = 9.999… from rounding down to 9.
    let beyond = (sorted.len() as f64 * (1.0 - p) + 1e-9).floor() as usize;
    if beyond >= TAIL_SUPPORT {
        quantile(&sorted, p)
    } else {
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_and_even_counts() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).expect("non-empty");
        assert_eq!((s.n, s.min, s.median, s.max), (3, 1.0, 3.0, 5.0));
        assert_eq!((s.q1, s.q3), (2.0, 4.0));
        let s = Summary::of(&[4.0, 1.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.75, 3.25));
    }

    #[test]
    fn summary_of_nothing_is_none_and_of_one_is_flat() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[7.5]).expect("non-empty");
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (7.5, 7.5, 7.5, 7.5, 7.5)
        );
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        // 199 samples: only 9 lie beyond p95, so the maximum is reported.
        let few: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(tail(&few, 0.95), 198.0);
        // 200 samples: 10 beyond p95, so the interpolated rank is reported.
        let enough: Vec<f64> = (0..200).map(f64::from).collect();
        let p95 = tail(&enough, 0.95);
        assert!((p95 - 189.05).abs() < 1e-9, "{p95}");
        assert_eq!(tail(&[3.0, 9.0, 1.0], 0.95), 9.0);
        assert_eq!(tail(&[], 0.95), 0.0);
    }
}
