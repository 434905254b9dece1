//! Order statistics over small samples of wall-clock measurements.

/// The `p`-quantile (`0.0..=1.0`) of an ascending-sorted sample, by
/// linear interpolation between the two nearest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The quiet-box estimate of a wall time measured several times over:
/// its 10th percentile. Whatever else runs on a shared box only ever
/// adds time, in bursts, so the low tail of the samples is the code's
/// own time and the rest is the neighbours'; on the seed box the p10 of
/// a run's repetitions repeated within 2-5% where its median moved
/// 8-18% (README, "Measured noise").
pub fn quiet(values: &[f64]) -> f64 {
    Summary::of(values).p10
}

/// What the report prints beside every timing: p10 (the quiet-box
/// estimate the metrics use), the median, the quartiles (p75 is the
/// highest percentile with ten samples beyond it at the benchmark's 41
/// repetitions), and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p10: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            p10: percentile(&sorted, 0.10),
            q1: percentile(&sorted, 0.25),
            median: percentile(&sorted, 0.50),
            q3: percentile(&sorted, 0.75),
        }
    }

    /// How loosely the samples pin their quiet estimate down: the
    /// distance from the fastest sample to the lower quartile (the p10
    /// lies between the two) as a share of the p10. `--compare` holds
    /// this against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.p10 == 0.0 {
            0.0
        } else {
            (self.q1 - self.min) / self.p10.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 0.5), 30.0);
        assert_eq!(percentile(&s, 1.0), 50.0);
        assert_eq!(percentile(&s, 0.25), 20.0);
        // Rank 0.4 between 10 and 20.
        assert!((percentile(&s, 0.1) - 14.0).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn summary_sorts_and_reports_quartiles_and_spread() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.n, s.min), (4, 1.0));
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        // p10 of 1..4 sits at rank 0.3; (q1 - min) / p10.
        assert!((s.p10 - 1.3).abs() < 1e-12 && (quiet(&[4.0, 1.0, 3.0, 2.0]) - 1.3).abs() < 1e-12);
        assert!((s.spread() - 0.75 / 1.3).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }
}
