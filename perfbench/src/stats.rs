//! Order statistics the benchmark reports: medians, the tail percentile
//! a sample can support, and the quartile spread used to judge whether
//! two runs of one commit agree.

/// Sorts in place and returns the median (mean of the middle two for an
/// even count). `NaN` for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Mean of the medians of `k` interleaved classes, sample `i` being of
/// class `i % k`. For a series that cycles through kinds of unequal
/// cost (a checkpoint at each length of image chain): the median of the
/// pooled sample is whichever kind sits in the middle and hops to its
/// neighbour with a handful of samples; this does not.
pub fn mean_of_medians(xs: &[f64], k: usize) -> f64 {
    let medians = (0..k.max(1)).map(|c| {
        let mut class: Vec<f64> = xs.iter().skip(c).step_by(k.max(1)).copied().collect();
        median(&mut class)
    });
    medians.sum::<f64>() / k.max(1) as f64
}

/// Nearest-rank percentile of an ascending slice, `p` in (0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a tail may be reported at, ascending, in hundredths of a
/// percent (integers, so "ten samples beyond" is exact at n = 100).
const TAIL_CANDIDATES: [usize; 6] = [7_500, 9_000, 9_500, 9_900, 9_990, 9_999];

/// The highest candidate percentile with at least ten samples beyond
/// it, or `None` when even p75 has fewer (n < 40): a tail read off
/// fewer than ten samples is one scheduling hiccup, not a property of
/// the program.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|p| n * (10_000 - **p) / 10_000 >= 10)
        .map(|p| *p as f64 / 100.0)
}

/// `wanted` if the sample supports it, else the highest supported
/// percentile below it, else the maximum's percentile (100).
pub fn tail_at_most(n: usize, wanted: f64) -> f64 {
    match supported_tail(n) {
        Some(p) => p.min(wanted),
        None => 100.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so the spread computed here is
/// the one the acceptance check computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m % 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(&mut values.to_vec());
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
        // A wanted p99 is lowered, never raised.
        assert_eq!(tail_at_most(120, 99.0), 90.0);
        assert_eq!(tail_at_most(50_000, 99.0), 99.0);
        assert_eq!(tail_at_most(12, 99.0), 100.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn mean_of_medians_weighs_each_class_once() {
        // Classes (1, 1, 1) and (10, 12, 50): medians 1 and 12.
        let xs = [1.0, 10.0, 1.0, 50.0, 1.0, 12.0];
        assert_eq!(mean_of_medians(&xs, 2), 6.5);
        assert_eq!(mean_of_medians(&xs, 1), median(&mut xs.to_vec()));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        let (q1, q3) = quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]).unwrap();
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 120.0).abs() < 1e-12);
        assert!((relative_spread(&[10.0, 20.0, 40.0, 80.0, 160.0]).unwrap() - 2.625).abs() < 1e-12);
    }
}
