//! Property tests for histograms and meters.

use proptest::prelude::*;
use rperf_stats::{BandwidthMeter, LatencyHistogram};

fn exact_percentile(sorted: &[u64], pct: f64) -> u64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

proptest! {
    /// Histogram percentiles agree with exact quantiles within the
    /// documented relative error.
    #[test]
    fn percentiles_match_exact_quantiles(
        mut samples in prop::collection::vec(1u64..1_000_000_000, 1..500),
        pct in 1.0f64..100.0,
    ) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let exact = exact_percentile(&samples, pct);
        let approx = h.percentile(pct);
        let err = (approx as f64 - exact as f64).abs() / exact as f64;
        // Bucketing can shift the estimate across one sample boundary;
        // allow the bucket width on either side of the exact value.
        prop_assert!(
            err <= 2.0 * h.relative_error() + 1e-12,
            "pct {} exact {} approx {} err {}",
            pct, exact, approx, err
        );
    }

    /// Count/min/max/mean are exact regardless of bucketing.
    #[test]
    fn exact_moments(samples in prop::collection::vec(0u64..u32::MAX as u64, 1..300)) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-6 * mean.max(1.0));
    }

    /// Merging histograms equals recording the union.
    #[test]
    fn merge_is_union(
        a in prop::collection::vec(1u64..1_000_000, 0..200),
        b in prop::collection::vec(1u64..1_000_000, 0..200),
        pct in 0.0f64..=100.0,
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hu = LatencyHistogram::new();
        for &x in &a { ha.record(x); hu.record(x); }
        for &x in &b { hb.record(x); hu.record(x); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        prop_assert_eq!(ha.percentile(pct), hu.percentile(pct));
    }

    /// The meter's byte accounting is exact and windowing is monotone.
    #[test]
    fn meter_accounting(
        deliveries in prop::collection::vec((1u64..1_000_000_000, 1u64..10_000), 1..100),
        window_start in 0u64..500_000_000,
    ) {
        let mut m = BandwidthMeter::new();
        m.open_window(window_start);
        let mut expected = 0u64;
        for &(at, bytes) in &deliveries {
            m.record(at, bytes);
            if at >= window_start {
                expected += bytes;
            }
        }
        prop_assert_eq!(m.bytes(), expected);
        // Bandwidth over a longer horizon can only be lower or equal.
        let end = 1_000_000_001;
        prop_assert!(m.gbps_until(end * 2) <= m.gbps_until(end) + 1e-12);
    }
}
