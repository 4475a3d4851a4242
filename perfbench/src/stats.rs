//! Order statistics under the "ten samples beyond" rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! p99 needs 1000 samples, a p90 100 and a median 20.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `pct`-th percentile (`0 < pct < 100`) of `samples`, interpolating
/// linearly between closest ranks, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it on its shorter side.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    assert!(pct > 0 && pct < 100, "percentile {pct} outside (0, 100)");
    let n = samples.len();
    let beyond = n * pct.min(100 - pct) as usize / 100;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = pct as f64 / 100.0 * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `samples` under the same rule (at least 20 samples).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50)
}

/// Largest sample, or `None` for no samples.
pub fn max(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::max)
}

/// Split `(time, value)` samples into `windows` equal spans of
/// `[0, latest time]`, take each span's [`median`], and return the median of
/// those (the middle one for an odd count); `None` when any span has too
/// few samples for its median.
pub fn windowed_median(samples: &[(f64, f64)], windows: usize) -> Option<f64> {
    let end = samples.iter().map(|s| s.0).reduce(f64::max)?;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, v) in samples {
        let w = ((t / end * windows as f64) as usize).min(windows - 1);
        per[w].push(v);
    }
    let mut medians = per.iter().map(|w| median(w)).collect::<Option<Vec<f64>>>()?;
    medians.sort_by(f64::total_cmp);
    let mid = medians.len() / 2;
    Some(if medians.len() % 2 == 1 { medians[mid] } else { (medians[mid - 1] + medians[mid]) / 2.0 })
}

/// A latency distribution as reported: sample count plus every percentile
/// the sample supports.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: Option<f64>,
    pub p90: Option<f64>,
    pub p99: Option<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            n: samples.len(),
            p50: percentile(samples, 50),
            p90: percentile(samples, 90),
            p99: percentile(samples, 99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        assert_eq!(percentile(&ramp(19), 50), None);
        assert!(percentile(&ramp(20), 50).is_some());
        assert_eq!(percentile(&ramp(99), 90), None);
        assert!(percentile(&ramp(100), 90).is_some());
        assert_eq!(percentile(&ramp(999), 99), None);
        assert!(percentile(&ramp(1000), 99).is_some());
        // The lower tail counts too: a p1 needs as many samples as a p99.
        assert_eq!(percentile(&ramp(999), 1), None);
        assert!(percentile(&ramp(1000), 1).is_some());
    }

    #[test]
    fn percentile_interpolates_and_ignores_order() {
        let mut v = ramp(101);
        v.reverse();
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 90), Some(90.0));
        let v = ramp(20);
        assert_eq!(median(&v), Some(9.5));
    }

    #[test]
    fn windowed_median_ignores_a_slow_minority_of_windows() {
        // 5 windows of 40 samples; the third runs 10x slow.
        let samples: Vec<(f64, f64)> = (0..200)
            .map(|i| (i as f64, if (80..120).contains(&i) { 10.0 } else { 1.0 + i as f64 * 1e-3 }))
            .collect();
        let m = windowed_median(&samples, 5).expect("40 samples per window");
        assert!((1.0..1.2).contains(&m), "got {m}");
        // Two slow windows of five still do not move it; three do.
        let two: Vec<(f64, f64)> =
            samples.iter().map(|&(t, v)| (t, if t < 40.0 { 10.0 } else { v })).collect();
        assert!(windowed_median(&two, 5).expect("enough") < 2.0);
        let three: Vec<(f64, f64)> =
            two.iter().map(|&(t, v)| (t, if t >= 160.0 { 10.0 } else { v })).collect();
        assert_eq!(windowed_median(&three, 5), Some(10.0));
        // A window with fewer than 20 samples has no median.
        assert_eq!(windowed_median(&samples[..95], 5), None);
        assert_eq!(windowed_median(&[], 5), None);
    }

    #[test]
    fn summary_reports_only_supported_percentiles() {
        let s = Summary::of(&ramp(300));
        assert_eq!(s.n, 300);
        assert!(s.p50.is_some() && s.p90.is_some());
        assert_eq!(s.p99, None);
    }
}
