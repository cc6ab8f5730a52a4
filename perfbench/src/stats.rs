//! The benchmark's own statistics: the tail-percentile choice, open-loop
//! latency accounting, and Spearman rank correlation. Percentiles are
//! nearest-rank, as the repository's baseline bands compute them.

pub use backdroid_bench::baseline::percentile;

/// The tail percentiles a run may report, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile, at most `cap`, that leaves at least ten
/// samples beyond it among `n` samples. Falls back to the median when
/// even that has fewer than ten samples above it.
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&q| q <= cap)
        .find(|&q| n as f64 * (100.0 - q) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// The (nearest-rank) median of a sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its reply arrived (seconds from the run's start).
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopSample {
    /// The scheduled send time.
    pub due: f64,
    /// The time the generator handed the request over.
    pub sent: f64,
    /// The time the reply arrived.
    pub done: f64,
}

impl OpenLoopSample {
    /// Latency as a user sees it: from the scheduled send time, so a
    /// generator stalled by a full queue still charges the wait.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Average ranks (1-based), tied values sharing the mean of their ranks.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let shared = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            out[k] = shared;
        }
        i = j + 1;
    }
    out
}

/// Spearman's rank correlation: Pearson's correlation of the average
/// ranks, so ties are handled exactly. `0.0` when either side is
/// constant or the samples are shorter than two.
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "paired samples");
    if x.len() < 2 {
        return 0.0;
    }
    let (rx, ry) = (ranks(x), ranks(y));
    let n = rx.len() as f64;
    let (mx, my) = (rx.iter().sum::<f64>() / n, ry.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in rx.iter().zip(&ry) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000, 99.0), 99.0);
        assert_eq!(tail_percentile(10_000, 99.9), 99.9);
        assert_eq!(tail_percentile(9_999, 99.9), 99.0);
        assert_eq!(tail_percentile(1_000, 99.0), 99.0);
        assert_eq!(tail_percentile(999, 99.0), 90.0);
        assert_eq!(tail_percentile(100, 90.0), 90.0);
        assert_eq!(tail_percentile(99, 90.0), 50.0);
        assert_eq!(tail_percentile(5, 99.0), 50.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_scheduled_time() {
        let on_time = OpenLoopSample {
            due: 1.0,
            sent: 1.0,
            done: 1.25,
        };
        assert_eq!(on_time.latency(), 0.25);
        assert_eq!(on_time.lateness(), 0.0);
        // The generator was blocked for 0.5 s on a full queue: the user
        // still waited from the due time, and the lateness shows it.
        let stalled = OpenLoopSample {
            due: 1.0,
            sent: 1.5,
            done: 1.75,
        };
        assert_eq!(stalled.latency(), 0.75);
        assert_eq!(stalled.lateness(), 0.5);
    }

    #[test]
    fn spearman_handles_ties_and_monotone_maps() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((spearman(&x, &[10.0, 20.0, 30.0, 40.0, 50.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&x, &[5.0, 4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        // Ties share their average rank: y ranks are 1.5, 1.5, 3, 4, 5.
        let rho = spearman(&x, &[1.0, 1.0, 2.0, 3.0, 4.0]);
        let expected = 9.5 / (10.0f64 * 9.5).sqrt();
        assert!((rho - expected).abs() < 1e-12, "{rho} vs {expected}");
        assert_eq!(ranks(&[2.0, 1.0, 2.0, 2.0]), vec![3.0, 1.0, 3.0, 3.0]);
        assert_eq!(spearman(&x, &[7.0; 5]), 0.0, "constant side");
    }
}
