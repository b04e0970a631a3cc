//! The benchmark's arithmetic: nearest-rank percentiles over raw
//! samples, and best-of-passes aggregation with its worst/best spread.

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, bytes, shares of refusals.
    Lower,
    /// Rates.
    Higher,
}

impl Better {
    /// The contract spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `pct` percent of the sample at or below it.
/// No interpolation and no buckets — every reported percentile is a
/// value that was actually observed. Returns 0 for an empty sample.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample sorted");
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`] for float samples (areas).
pub fn percentile_f64(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One wall-derived metric over the timed passes of a run: the best
/// pass, and how far the worst pass was from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestOf {
    /// The best pass (minimum time, maximum rate).
    pub best: f64,
    /// `worst / best` for times, `best / worst` for rates: always ≥ 1.
    pub spread: f64,
}

/// Aggregates one per-pass value across passes.
///
/// The best pass, not the median: on the reference host interference is
/// one-sided (a pass is never faster than the quiet machine allows, and
/// often much slower), so the minimum converges on the program's own
/// cost while the median tracks the neighbours' load.
pub fn best_of(per_pass: &[f64], better: Better) -> BestOf {
    assert!(!per_pass.is_empty(), "at least one timed pass");
    let lo = per_pass.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = per_pass.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let best = match better {
        Better::Lower => lo,
        Better::Higher => hi,
    };
    let spread = if lo > 0.0 { hi / lo } else { 1.0 };
    BestOf { best, spread }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        // Nearest rank never interpolates: with five samples the median
        // is the third, p99 is the largest.
        let five = [10, 20, 30, 40, 1_000];
        assert_eq!(percentile(&five, 50.0), 30);
        assert_eq!(percentile(&five, 99.0), 1_000);
        assert_eq!(percentile(&five, 20.0), 10);
        assert_eq!(percentile(&five, 20.1), 20);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile_f64(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }

    #[test]
    fn best_of_takes_the_quiet_pass() {
        let times = [1.30, 1.02, 1.75, 1.00, 1.10];
        let t = best_of(&times, Better::Lower);
        assert_eq!(t.best, 1.00);
        assert!((t.spread - 1.75).abs() < 1e-12);

        let rates = [900.0, 1_000.0, 640.0];
        let r = best_of(&rates, Better::Higher);
        assert_eq!(r.best, 1_000.0);
        assert!((r.spread - 1_000.0 / 640.0).abs() < 1e-12);

        assert_eq!(best_of(&[2.5], Better::Lower).spread, 1.0);
    }
}
