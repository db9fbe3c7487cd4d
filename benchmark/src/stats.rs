//! The few order statistics the reports need.

/// Nearest-rank percentile (`q` in `[0, 1]`); sorts `values` in place.
/// `0.0` for an empty slice, so an absent sample set reads as zero.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Mean of the samples between the `lo` and `hi` quantiles, given in
/// per mille (integers, so the band's edges are exact); sorts `values` in
/// place. `0.0` for an empty slice.
///
/// Simulated latencies sit on the 2 s block grid (plus milliseconds of
/// network time), so a nearest-rank percentile that falls near the edge of
/// one block's cluster lands in one cluster or its neighbour — 2 s apart —
/// depending on the seed. Averaging a narrow band around the percentile
/// moves with the edge in proportion instead of jumping.
pub fn band_mean(values: &mut [f64], lo: usize, hi: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let start = (lo * n / 1000).min(n - 1);
    let end = (hi * n).div_ceil(1000).clamp(start + 1, n);
    mean(&values[start..end])
}

/// Median with the midpoint convention for even counts (so that two
/// repeats report their mean rather than the lower one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean (`0.0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(max − min) / median`: the run-to-run spread the noise guard reports.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut v, 0.5), 3.0);
        assert_eq!(percentile(&mut v, 0.99), 5.0);
        assert_eq!(percentile(&mut v, 1.0), 5.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        let mut grid: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(band_mean(&mut grid, 450, 550), 50.5);
        assert_eq!(band_mean(&mut grid, 985, 995), 99.5);
        assert_eq!(band_mean(&mut [7.0], 450, 550), 7.0);
        assert_eq!(band_mean(&mut [], 450, 550), 0.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(spread(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(spread(&[10.0]), 0.0);
    }
}
