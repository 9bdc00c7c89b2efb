//! The benchmark's own arithmetic: medians, tail-percentile selection,
//! nearest-rank percentiles and pool busy ratios.

use std::time::Duration;

use rtsim_campaign::nearest_rank_index;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Percentiles a tail may be reported at, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile, at most `cap`, that leaves at least ten of
/// `count` samples beyond it (nearest-rank). Falls back to the median
/// when even that leaves fewer than ten.
pub fn tail_percentile(count: u64, cap: f64) -> f64 {
    LADDER
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| count.saturating_sub(rank(p, count)) >= 10)
        .unwrap_or(50.0)
}

/// 1-based nearest rank of percentile `p` among `count` samples.
fn rank(p: f64, count: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    // Percentiles in tenths of a percent keep the rank in integers.
    nearest_rank_index((p * 10.0).round() as u64, 1000, count as usize) as u64 + 1
}

/// Nearest-rank percentile `p` of `sorted` (ascending).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len() as u64) as usize - 1]
}

/// Useful time over held time of a worker pool: the summed wall time of
/// its jobs divided by `workers` × the pool's wall time.
pub fn busy_ratio(job_walls: &[Duration], workers: usize, pool_wall: Duration) -> f64 {
    let busy: f64 = job_walls.iter().map(Duration::as_secs_f64).sum();
    busy / (workers as f64 * pool_wall.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, ten beyond it.
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        // 999: p99 is rank 990 (nearest rank rounds up), nine beyond.
        assert_eq!(tail_percentile(999, 99.0), 95.0);
        assert_eq!(tail_percentile(10_000, 99.0), 99.0);
        assert_eq!(tail_percentile(10_000, 100.0), 99.9);
        assert_eq!(tail_percentile(200, 99.0), 95.0);
        assert_eq!(tail_percentile(100, 99.0), 90.0);
        assert_eq!(tail_percentile(40, 99.0), 75.0);
        // Too few for any tail: the median, whatever is beyond it.
        assert_eq!(tail_percentile(5, 99.0), 50.0);
        assert_eq!(tail_percentile(0, 99.0), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let plain: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&plain, 99.0), 99.0);
        assert_eq!(percentile(&plain, 50.0), 50.0);
        assert_eq!(percentile(&plain, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn busy_ratio_is_job_time_over_held_time() {
        let ms = Duration::from_millis;
        // Two workers held for 10 ms, busy 15 ms in total.
        assert_eq!(busy_ratio(&[ms(5), ms(4), ms(6)], 2, ms(10)), 0.75);
        assert_eq!(busy_ratio(&[ms(10), ms(10)], 2, ms(10)), 1.0);
    }
}
