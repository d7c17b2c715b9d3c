//! Queue-length percentiles from sampled histograms.

/// The queue length at percentile `p` (0–100) of a histogram, or `None` when
/// empty.
pub fn queue_percentile(histogram: &[u64], bin_width: u64, p: f64) -> Option<u64> {
    let total: u64 = histogram.iter().sum();
    if total == 0 {
        return None;
    }
    let target = ((p.clamp(0.0, 100.0) / 100.0) * total as f64)
        .ceil()
        .max(1.0) as u64;
    let mut acc = 0u64;
    for (i, &count) in histogram.iter().enumerate() {
        acc += count;
        if acc >= target {
            return Some(i as u64 * bin_width);
        }
    }
    // Defensive fallback (float rounding pushed `target` past `total`):
    // report the last occupied bin, never the histogram's trailing edge —
    // trailing empty bins must not inflate the maximum.
    Some(histogram.iter().rposition(|&c| c != 0).unwrap_or(0) as u64 * bin_width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_from_histogram() {
        let mut h = vec![0u64; 21];
        h[0] = 80;
        h[10] = 15;
        h[20] = 5;
        assert_eq!(queue_percentile(&h, 1024, 50.0), Some(0));
        assert_eq!(queue_percentile(&h, 1024, 90.0), Some(10 * 1024));
        assert_eq!(queue_percentile(&h, 1024, 99.0), Some(20 * 1024));
        assert_eq!(queue_percentile(&[], 1024, 50.0), None);
    }

    #[test]
    fn trailing_empty_bins_never_inflate_the_closing_point() {
        // Samples stop at bin 4; bins 5..=9 are empty tail (a histogram
        // shape hand-built analyses produce; the simulator's own histograms
        // only grow on occupancy). The 100th percentile must report bin 4 —
        // `histogram.len() * bin_width` (bin 10) would overstate the maximum
        // queue by 6 bins.
        let mut h = vec![0u64; 10];
        h[0] = 5;
        h[4] = 5;
        assert_eq!(queue_percentile(&h, 1000, 100.0), Some(4 * 1000));
        // Percentiles above the clamp behave like 100 (never the tail).
        assert_eq!(queue_percentile(&h, 1000, 250.0), Some(4 * 1000));
        // All-in-bin-0 with an empty tail closes at 0.
        let mut z = vec![0u64; 8];
        z[0] = 3;
        assert_eq!(queue_percentile(&z, 512, 100.0), Some(0));
    }
}
